"""The splice engine: the wiring moves against the try-every-wiring oracle,
the strand orientation against the two-walk oracle, and the analysis work
each candidate wiring costs."""

from unittest import mock

from hypothesis import given, settings, strategies as st

import hyperforge.diagram as dg
import hyperforge.moves as mv
from hyperforge.classifier import DeclaredNonRational
from hyperforge.diagram import (
    LinkDiagram,
    _renormalize,
    components,
    format_pd,
    reidemeister2,
    to_gauss,
    validate,
)
from hyperforge.errors import InvalidDiagramError, SiteError, WiringError
from hyperforge.generators import ChainSpec, chain_link, rational_link, tk_closure
from hyperforge.moves import (
    Handedness,
    SwitchSite,
    augmented_chain_move,
    augmenting_circle,
    chain_move,
    find_chain_sites,
    half_twist,
    switch_move,
)

from oracles import renormalize_oracle, splice_oracle, trace_oracle
from test_diagram import r_moves, scrambled_crossings

EVIDENCE = DeclaredNonRational("splice test")


def _outcome(move, *args):
    """The PD text a move gives, or the text of its SiteError."""
    try:
        return format_pd(move(*args))
    except SiteError as err:
        return f"SiteError: {err}"


def _by_oracle(move, *args):
    with mock.patch.object(dg, "splice", splice_oracle), \
            mock.patch.object(mv, "splice", splice_oracle):
        return _outcome(move, *args)


_SEQS = st.tuples(
    st.sampled_from((1, -1)), st.lists(st.integers(1, 3), min_size=1, max_size=3)
).map(lambda sc: [sc[0] * c for c in sc[1]])
_BASES = st.one_of(
    st.integers(2, 4)
    .flatmap(lambda n: st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    .map(lambda tw: chain_link(ChainSpec(len(tw), tuple(tw)))),
    _SEQS.map(rational_link),
    st.tuples(_SEQS, st.integers(-1, 1)).map(lambda sk: tk_closure(*sk)),
)


def _moves(d, data):
    """(move, args) for every wiring move at sites drawn from d."""
    calls = []
    sites = find_chain_sites(d)
    if sites:
        site = data.draw(st.sampled_from(sites))
        k = data.draw(st.integers(-2, 2))
        calls += [(chain_move, d, site, k, EVIDENCE),
                  (augmented_chain_move, d, site, k, EVIDENCE)]
    comp = (data.draw(st.sampled_from(sites)).trivial_component if sites
            else data.draw(st.integers(0, components(d).count - 1)))
    calls += [(half_twist, d, comp, +1), (half_twist, d, comp, -1)]
    uniq = sorted(set(data.draw(st.sampled_from(d.face_arcs()))))
    if len(uniq) > 1:
        a, b = data.draw(st.permutations(uniq))[:2]
        calls += [(switch_move, d, SwitchSite(a, b), h) for h in Handedness]
        calls += [(augmenting_circle, d, a, b),
                  (reidemeister2, d, (a, b), data.draw(st.sampled_from(
                      ("first_over", "second_over"))))]
    return calls


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_moves_match_the_splice_oracle(d, data):
    """Chain, augmented chain, switch (both skews), half twist (both
    directions), augmenting circle and R2 give the PD text, or the
    SiteError text, that judging every candidate by a full eager report
    gives; on chain, rational and Tk bases and their R1/R2-moved copies."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data):
        assert _outcome(move, *args) == _by_oracle(move, *args), move.__name__


def _renormalized(renormalize, *args, allow_reorient):
    """The diagram a renormalisation gives, or the text of its error."""
    try:
        return renormalize(*args, allow_reorient=allow_reorient)
    except (WiringError, InvalidDiagramError) as err:
        return f"{type(err).__name__}: {err}"


def _assert_trace_matches_oracle(d):
    steps, cycles, head, signs, problems = trace_oracle(d)
    assert validate(d).problems == problems
    if not problems:
        assert components(d).cycles == tuple(cycles)
        assert all(d.head_of(a) == h for a, h in head.items())
        assert to_gauss(d).components == tuple(
            tuple((ci + 1, si % 2 == 1, signs[ci]) for _, (ci, si) in st) for st in steps
        )


@settings(max_examples=60, deadline=None)
@given(_BASES, st.data())
def test_orientation_matches_the_two_walk_oracle(d, data):
    """One walk per component, one direction rule: the PD text or error
    text of the builder's renormalisation, with a frozen prefix of any
    length and either reorient setting, and the strand trace of the
    scrambled crossings and of the output, are what walking twice gives."""
    *_, d = r_moves(d, data)
    crossings = scrambled_crossings(d, data)
    args = (crossings, d.loops, range(data.draw(st.integers(0, len(crossings)))))
    reorient = data.draw(st.booleans())
    got = _renormalized(_renormalize, *args, allow_reorient=reorient)
    want = _renormalized(renormalize_oracle, *args, allow_reorient=reorient)
    if isinstance(want, str):
        assert got == want
        outputs = ()
    else:
        assert format_pd(got) == format_pd(want)
        outputs = (got,)
    for e in (LinkDiagram(tuple(crossings), loops=d.loops),) + outputs:
        _assert_trace_matches_oracle(e)


def _walks(run, *args):
    """How many strand walks ``run(*args)`` makes."""
    walk, calls = dg._Analysis._walk, []

    def counted(an, *rest):
        calls.append(an)
        return walk(an, *rest)

    with mock.patch.object(dg._Analysis, "_walk", counted):
        run(*args)
    return len(calls)


def test_one_walk_per_component():
    for d in (chain_link(ChainSpec(4)), rational_link([2, 2, 2]), tk_closure([2, 3], 1)):
        n_comps = len(components(d).cycles)
        assert _walks(validate, LinkDiagram(d.crossings, loops=d.loops)) == n_comps
        turned = [x.rotated(1) for x in d.crossings]
        assert _walks(_renormalize, turned, d.loops, set()) == n_comps


class _StageLog:
    """Records which diagrams the analysis stages and the builder's
    renormalisation ran on, while installed."""

    def __init__(self):
        self.strands, self.faces, self.outputs = [], [], []

    def __enter__(self):
        trace, faces, renorm = dg._Analysis._trace, dg._Analysis._faces_and_euler, dg._renormalize
        log = self

        def logged_trace(an):
            log.strands.append(an.d)
            return trace(an)

        def logged_faces(an):
            log.faces.append(an.d)
            return faces(an)

        def logged_renormalize(*args, **kwargs):
            out = renorm(*args, **kwargs)
            log.outputs.append(out)
            return out

        self._patches = [
            mock.patch.object(dg._Analysis, "_trace", logged_trace),
            mock.patch.object(dg._Analysis, "_faces_and_euler", logged_faces),
            mock.patch.object(dg, "_renormalize", logged_renormalize),
        ]
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self._patches:
            p.stop()

    def count(self, runs, d):
        return sum(1 for x in runs if x is d)


def _guarded(move, d, *args):
    validate(d), d.face_arcs()  # the input's stages run before the log starts
    with _StageLog() as log:
        out = move(d, *args)
    outputs = log.outputs
    assert all(any(f is o for o in outputs) for f in log.faces), "faces traced on a probe"
    assert all(log.count(log.faces, o) <= 1 for o in outputs)
    non_planar = [o for o in outputs if not o._analysis.planar_ok]
    assert non_planar, "the input should have a non-planar candidate"
    assert all(log.count(log.strands, o) == 0 for o in non_planar)
    assert all(any(s is o for o in outputs) for s in log.strands)
    assert log.count(log.faces, out) == 1 and log.count(log.strands, out) == 1
    return out


def test_work_per_candidate_half_twist():
    # ring 1 of the 4-chain: 24 wirings, of which 17 build a non-planar diagram
    _guarded(half_twist, chain_link(ChainSpec(4)), 1, +1)


def test_work_per_candidate_switch_move():
    _guarded(switch_move, chain_link(ChainSpec(3)), SwitchSite(1, 4), Handedness.PositiveSkew)
