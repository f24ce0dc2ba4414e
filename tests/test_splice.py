"""The splice engine: the wiring moves, stacked half twists and mixed
derivations against the try-every-wiring oracles, any wiring table against
the wiring loop, the strand orientation against the two-walk oracle, the
fragment side against emitting the fragment apart, the output's occurrence
index and strand trace against fresh ones, and the analysis work, emits
and builds each move costs."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hyperforge.diagram as dg
import hyperforge.moves as mv
from hyperforge.classifier import DeclaredNonRational
from hyperforge.diagram import (
    DiagramBuilder,
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

from oracles import (
    eager_report,
    fragment_side_oracle,
    renormalize_oracle,
    splice_oracle,
    trace_oracle,
    wiring_loop_oracle,
)
from test_diagram import r_moves, scrambled_crossings

EVIDENCE = DeclaredNonRational("splice test")


def _outcome(move, *args, **kwargs):
    """The PD text a move gives, or the text of its SiteError."""
    try:
        return format_pd(move(*args, **kwargs))
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
                  (mv._insert_clasped_ring, d, a, b, True),
                  (mv._insert_clasped_ring, d, a, b, False),
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


def _strict_oracle(*args, reorient=False, **kwargs):
    return splice_oracle(*args, **kwargs)


def _twists_match_the_oracle(d, ring_arc, directions):
    """Half-twist the component through ``ring_arc`` by each direction in
    turn, until one is refused; each twist must give the PD text, or the
    SiteError text, of the strict-then-reorienting oracle.  Returns the
    (diagram, component, direction) of every twist made."""
    made = []
    for direction in directions:
        c = components(d).component_of(ring_arc)
        want = _by_oracle(half_twist, d, c, direction)
        try:
            out = half_twist(d, c, direction)
        except SiteError as err:
            assert f"SiteError: {err}" == want
            break
        assert format_pd(out) == want
        made.append((d, c, direction))
        d = out
    return made


def _switched(d, data):
    """d after a switch move (either skew) or an augmenting circle at two
    arcs of one face, or d itself when the face has a single arc."""
    uniq = sorted(set(data.draw(st.sampled_from(d.face_arcs()))))
    if len(uniq) < 2:
        return d
    a, b = data.draw(st.permutations(uniq))[:2]
    h = data.draw(st.sampled_from(list(Handedness) + [None]))
    return augmenting_circle(d, a, b) if h is None else switch_move(d, SwitchSite(a, b), h)


@settings(max_examples=30, deadline=None)
@given(_BASES, st.data())
def test_half_twist_stacks_match_the_two_pass_oracle(d, data):
    """One to six half twists of either direction on one component,
    preferably a ring, of chain, rational and Tk bases after R1/R2 moves,
    or after a switch move or augmenting circle, give what trying every
    wiring strictly and only then reorienting gives."""
    *_, d = r_moves(d, data)
    if data.draw(st.booleans()):
        d = _switched(d, data)
    part = components(d)
    comps = range(len(part.cycles))
    rings = [c for c in comps if not dg._ring_fault(d, part, c)]
    ring_arc = part.arcs_of(data.draw(st.sampled_from(rings or comps)))[0]
    directions = data.draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=6))
    _twists_match_the_oracle(d, ring_arc, directions)


def test_half_twist_corpus_matches_the_two_pass_oracle():
    """Fixed stacks, among them first twists a strict pass refuses and a
    third twist that no wiring admits: 16 of the 17 twists are made."""
    chain4 = chain_link(ChainSpec(4))
    circled = augmenting_circle(chain4, *sorted(set(chain4.face_arcs()[0]))[:2])
    corpus = [
        (chain_link(ChainSpec(3)), 1, (1, -1)),
        (chain4, 1, (1, 1, 1)),
        (chain4, 2, (-1, -1, 1, 1)),
        (tk_closure([2, 3], 1), 1, (1, -1, 1)),
        (rational_link([2, 2, 2]), 0, (1,)),
        (switch_move(chain4, SwitchSite(1, 4), Handedness.NegativeSkew), 3, (1, 1)),
        (circled, 4, (-1, 1)),
    ]
    made = [
        twist
        for d, c, directions in corpus
        for twist in _twists_match_the_oracle(d, components(d).arcs_of(c)[0], directions)
    ]
    with mock.patch.object(mv, "splice", _strict_oracle):
        strict = [_outcome(half_twist, *twist) for twist in made]
    assert (len(made), sum(text.startswith("SiteError") for text in strict)) == (16, 9)


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
    renormalisation ran on, and how many times each splice ran its emit,
    while installed."""

    def __init__(self):
        self.strands, self.faces, self.outputs, self.emits = [], [], [], []

    def __enter__(self):
        trace, faces, renorm = dg._Analysis._trace, dg._Analysis._faces_and_euler, dg._renormalize
        splice = dg.splice
        log = self

        def counted_splice(base, emit, *args, **kwargs):
            i = len(log.emits)
            log.emits.append(0)

            def counted_emit(bld):
                log.emits[i] += 1
                return emit(bld)

            return splice(base, counted_emit, *args, **kwargs)

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
            mock.patch.object(dg, "splice", counted_splice),
            mock.patch.object(mv, "splice", counted_splice),
        ]
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self._patches:
            p.stop()


def _guarded(move, d, *args):
    """``move(d, *args)``, checking that each splice emitted its fragment
    once, that no strands were traced (every output arrives with its
    trace), and that only the splice outputs had their faces traced, each
    once; returns (output, splice outputs)."""
    validate(d), d.face_arcs()  # the input's stages run before the log starts
    with _StageLog() as log:
        out = move(d, *args)
    outputs = log.outputs
    assert log.emits == [1] * len(outputs)
    assert log.strands == []
    assert len(log.faces) == len(outputs) and all(t is o for t, o in zip(log.faces, outputs))
    assert outputs[-1] is out
    return out, outputs


def test_work_per_candidate_half_twist():
    # ring 1 of the 4-chain: the first wiring is non-planar and the second
    # is taken; only the second is built
    _, outputs = _guarded(half_twist, chain_link(ChainSpec(4)), 1, +1)
    assert len(outputs) == 1


def test_work_per_candidate_switch_move():
    # the ring insertion takes its third wiring, the half twist its second
    _, outputs = _guarded(
        switch_move, chain_link(ChainSpec(3)), SwitchSite(1, 4), Handedness.PositiveSkew
    )
    assert len(outputs) == 2


def _builds(move, *args):
    """How many diagrams ``move(*args)`` builds."""
    build, calls = dg.DiagramBuilder.build, []

    def counted(bld, *rest, **kwargs):
        calls.append(bld)
        return build(bld, *rest, **kwargs)

    with mock.patch.object(dg.DiagramBuilder, "build", counted):
        move(*args)
    return len(calls)


def test_builds_per_half_twist():
    # one build per splice: only the chosen wiring is built (the half twist
    # built 2 candidates and the switch move 5 when every candidate was)
    chain4 = chain_link(ChainSpec(4))
    site = find_chain_sites(chain4)[1]
    assert _builds(half_twist, chain4, 1, +1) == 1
    assert _builds(switch_move, chain_link(ChainSpec(3)), SwitchSite(1, 4),
                   Handedness.PositiveSkew) == 2
    assert _builds(switch_move, chain4, SwitchSite(1, 4), Handedness.NegativeSkew) == 1
    assert _builds(chain_move, chain4, site, 1, EVIDENCE) == 1
    assert _builds(augmented_chain_move, chain4, site, 1, EVIDENCE) == 1
    assert _builds(reidemeister2, chain4, (1, 4)) == 1


class _Spliced(Exception):
    """Raised in place of a move's first splice, carrying its arguments."""


def _first_splice(move, *args):
    """(args, kwargs) of the first splice ``move(*args)`` makes, or None
    when the move refuses before it splices."""

    def capture(*splice_args, **kwargs):
        raise _Spliced(splice_args, kwargs)

    try:
        with mock.patch.object(dg, "splice", capture), mock.patch.object(mv, "splice", capture):
            move(*args)
    except _Spliced as call:
        return call.args
    except SiteError:
        return None
    raise AssertionError(f"{move.__name__} made no splice")


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_any_wiring_table_matches_the_wiring_loop(d, data):
    """The first splice of every move, on tables of 1 to 8 wirings drawn
    from all 24 orders of its ends: the PD text, or the refusal text with
    either suffix, is what building every candidate in turn gives."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data):
        call = _first_splice(move, *args)
        if call is None:
            continue
        (base, emit, _, failure), kwargs = call
        table = data.draw(st.lists(st.permutations(range(4)), min_size=1, max_size=8))
        assert (_outcome(dg.splice, base, emit, table, failure, **kwargs)
                == _outcome(wiring_loop_oracle, base, emit, table, failure, **kwargs)), move.__name__


def test_refusal_texts_match_the_oracles():
    """Tables of a ring insertion's wirings that only need frozen crossings
    turned, or that are only non-planar, are refused with the strand
    direction error, or with None, as building every candidate refuses."""
    chain4 = chain_link(ChainSpec(4))
    (base, emit, _, failure), kwargs = _first_splice(augmenting_circle, chain4, 1, 4)
    alone = {w: _outcome(splice_oracle, base, emit, [w], failure, **kwargs)
             for w in itertools.permutations(range(4))}
    turning = [w for w, text in alone.items()
               if text.endswith("(frozen crossings disagree on strand direction)")]
    non_planar = [w for w, text in alone.items() if text.endswith("(None)")]
    assert turning and non_planar
    for table in (turning, non_planar, turning + non_planar, non_planar + turning):
        want = _outcome(splice_oracle, base, emit, table, failure, **kwargs)
        assert want.startswith("SiteError")
        assert _outcome(dg.splice, base, emit, table, failure, **kwargs) == want
        assert _outcome(wiring_loop_oracle, base, emit, table, failure, **kwargs) == want


_REPLAY_BASES = [chain_link(ChainSpec(n)) for n in (3, 4, 5, 6)] + [
    rational_link(entries)
    for entries in ([2, 2, 2], [3, 3], [2, 3, 2], [3, 2, 3], [4, 4, 2], [2, 2, 2, 2, 2])
]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(_REPLAY_BASES), st.data())
def test_derivations_match_the_splice_oracle(d, data):
    """Mixed derivations of 2 to 8 steps from the bases of the benchmark's
    replays: every step gives the oracle's PD text, or its refusal text,
    and the derivation goes on from each step's output."""
    for _ in range(data.draw(st.integers(2, 8))):
        move, *args = data.draw(st.sampled_from(_moves(d, data)))
        want = _by_oracle(move, *args)
        try:
            out = move(*args)
        except SiteError as err:
            assert f"SiteError: {err}" == want, move.__name__
            continue
        assert format_pd(out) == want, move.__name__
        d = out


def _index_is_fresh(d):
    return d._analysis.occ == dg._Analysis(LinkDiagram(d.crossings, loops=d.loops)).occ


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_output_index_is_the_probes_turned(d, data):
    """The occurrence index an output takes over from the builder's probe,
    each slot of a turned crossing moved by 2, is the one that indexing the
    output afresh builds, occurrences in the same order: after R1 and R2
    moves and after every wiring move."""
    *moved, d = r_moves(d, data)
    assert all(_index_is_fresh(e) for e in moved + [d])
    for move, *args in _moves(d, data):
        try:
            out = move(*args)
        except SiteError:
            continue
        assert _index_is_fresh(out), move.__name__


_CHAIN4 = chain_link(ChainSpec(4))
_REORIENTING_TWISTS = [(chain_link(ChainSpec(3)), 1, 1), (_CHAIN4, 1, 1), (_CHAIN4, 2, -1),
                       (tk_closure([2, 3], 1), 1, 1), (rational_link([2, 2, 2]), 0, 1)]


def test_output_index_after_reorienting_half_twists():
    """Half twists that turn frozen crossings, which a strict splice
    refuses: their outputs' indexes are fresh too."""
    turning = 0
    for twist in _REORIENTING_TWISTS:
        with mock.patch.object(mv, "splice", _strict_oracle):
            strict = _outcome(half_twist, *twist)
        turning += strict.startswith("SiteError")
        assert _index_is_fresh(half_twist(*twist))
    assert turning


# the fragment side and the output's strand trace ---------------------------------


def _nonplanar_fragment(bld):
    """A twist crossing for the ports, beside a portless crossing whose
    opposite slots are welded: one face where the Euler check wants three."""
    ci = bld.crossing()
    bld.weld((ci, 0), (ci, 2))
    bld.weld((ci, 1), (ci, 3))
    x = bld.twist_region(1, +1)
    return (x["in_l"], x["in_r"], x["out_r"], x["out_l"])


def _fragments():
    """(name, emit) of each move's fragment: Tk for k in -6..6, the clasped
    ring, the half twist of either chirality, and a non-planar fragment."""
    for k in range(-6, 7):
        yield f"Tk({k})", lambda bld, k=k: mv._TK_PORTS(mv.TkTemplate(k).emit(bld))
    (_, ring, *_), _ = _first_splice(augmenting_circle, _CHAIN4, 1, 4)
    yield "clasped ring", ring
    for direction in (1, -1):
        (_, twist, *_), _ = _first_splice(half_twist, _CHAIN4, 1, direction)
        yield f"half twist {direction:+d}", twist
    yield "non-planar", _nonplanar_fragment


@pytest.mark.parametrize("name,emit", list(_fragments()))
def test_fragment_side_matches_emitting_it_apart(name, emit):
    """The fragment side read off a builder's welds, alone or over a base
    with two arcs cut, is the one emitting the fragment into a builder of
    its own and labelling it there gives, and it takes no fresh label."""
    want = fragment_side_oracle(emit)
    assert (want is None) == (name == "non-planar")
    for bld in (DiagramBuilder(), DiagramBuilder(base=_CHAIN4)):
        if bld.base is not None:
            bld.cut(1), bld.cut(4)
        ports = emit(bld)
        fresh = bld._next_arc
        assert dg._fragment_side(bld, ports) == want, name
        assert bld._next_arc == fresh


def test_a_refused_splice_emits_once():
    """A table of ring wirings that are all non-planar is refused after one
    emit, and so is a non-planar fragment."""
    (base, emit, _, failure), kwargs = _first_splice(augmenting_circle, _CHAIN4, 1, 4)
    non_planar = [w for w in itertools.permutations(range(4))
                  if _outcome(splice_oracle, base, emit, [w], failure, **kwargs).endswith("(None)")]
    for fragment, table in ((emit, non_planar), (_nonplanar_fragment, [(0, 1, 2, 3)])):
        calls = []
        with pytest.raises(SiteError, match=r"\(None\)$"):
            dg.splice(base, lambda bld: calls.append(bld) or fragment(bld), table, failure,
                      **kwargs)
        assert len(calls) == 1


def _assert_trace_is_fresh(d, derived=True):
    """d's strand trace, which arrived with d when ``derived``, is field by
    field, in the same order, what tracing d afresh gives and what the
    two-walk oracle gives; and d's report is the eager one."""
    an = d._analysis
    assert not derived or "_strands" in vars(an)
    fresh = dg._Analysis(LinkDiagram(d.crossings, loops=d.loops))._trace()
    for field in fresh._fields:
        got, want = getattr(an._strands, field), getattr(fresh, field)
        assert got == want, field
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items()), field
    steps, cycles, head, signs, problems = trace_oracle(d)
    assert (an.steps, an.cycles, an.head, an.signs) == (steps, cycles, head, signs)
    assert an._strands.problems == problems == ()
    assert validate(d) == eager_report(d)


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_output_trace_is_a_fresh_trace(d, data):
    """Every output of a splice or a renormalisation arrives with its
    strand trace, and that trace is a fresh one: after R1 and R2 moves,
    after every wiring move (half twists included, which may reorient), and
    for scrambled crossings with a frozen prefix of any length."""
    for d in r_moves(d, data):
        _assert_trace_is_fresh(d, derived=False)
    for move, *args in _moves(d, data):
        try:
            out = move(*args)
        except SiteError:
            continue
        _assert_trace_is_fresh(out)
    crossings = scrambled_crossings(d, data)
    frozen = range(data.draw(st.integers(0, len(crossings))))
    try:
        out = _renormalize(crossings, d.loops, frozen, allow_reorient=data.draw(st.booleans()))
    except WiringError:
        return
    _assert_trace_is_fresh(out)


def test_output_trace_after_reorienting_half_twists():
    for twist in _REORIENTING_TWISTS:
        _assert_trace_is_fresh(half_twist(*twist))
