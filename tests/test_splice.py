"""The splice engine: the wiring moves, stacked half twists and mixed
derivations against the try-every-wiring oracles, mixed derivations made
in place on one replay state, frozen after every step, against building
each step afresh by the old builder, any wiring table against
the wiring loop, the strand orientation against the two-walk oracle, the
fragment side against emitting the fragment apart and the base side
against tracing its faces, the refusal of fragments with a portless or a
non-planar part or a part with ports on two faces, the augmented chain
move's refusal of a site whose strands share no face, the bound on the
walks, the disk-run scan against its
oracle, every stage of the analysis an output arrives with (occurrence
index, arcs, corner map, strand trace, report, graph components, faces)
against a fresh analysis, the outputs against the old post-build path,
the R1/R2 undos, component removal and the greedy reduction against the
old crossing drop, the analysis work, tangles made (none on a memo hit)
and builds each move costs, every fragment's open tangle and every
generator's output against the weld reference, the faults of a
fragment's labels, the weld reference's labelling and fragment sides
against the old walk of the welds, and its faults, every move's cached
fragment side against reading it off the splice's weld builder, the
judge memo, cold and warm, against judging every wiring afresh, every
splice placed from the judge's tangle, cold and warm, against emitting,
welding and labelling its fragment in its own builder, the builder's unchecked
crossings against the label check, the half
twist's spot against scanning every face, and the work a replay skips:
a fragment side read only when the judge misses, no wiring judged twice
for one side shape, no face traced by a half twist, validity read from
the analysis' flags, an equal subject never analysed, and no reference
cycle between a diagram and its analysis."""

import collections
import copy
import gc
import itertools
import operator
import random
import re
import signal
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hyperforge.diagram as dg
import hyperforge.moves as mv
from hyperforge.certificate import (
    AugChainStep,
    ChainStep,
    HalfTwistStep,
    Premise,
    SwitchStep,
    deserialize,
    extend,
    serialize,
    verify,
)
from hyperforge.classifier import DeclaredNonRational, menasco_certify
from hyperforge.diagram import (
    Crossing,
    DEFAULT_STEP_BUDGET,
    DiagramBuilder,
    LinkDiagram,
    braid2_template,
    components,
    diagram_isomorphic,
    find_kinks,
    find_r2_bigons,
    format_pd,
    parse_pd,
    reduce_diagram,
    reidemeister1_undo,
    reidemeister2,
    reidemeister2_undo,
    remove_component,
    to_gauss,
    validate,
)
from hyperforge.errors import FormatError, InvalidDiagramError, SiteError, WiringError
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
from hyperforge.tangle import boundary_twists, numerator_closure, to_alternating_diagram

import oracles
from memos import forget_memos
from oracles import (
    DroppingBuilder,
    TrailBuilder,
    WeldBuilder,
    _Walker,
    base_side_oracle,
    disk_runs_oracle,
    eager_report,
    emitting_splice_oracle,
    faces_oracle,
    fragment_side_oracle,
    half_twist_spot_oracle,
    rebuilt_splice_oracle,
    reduce_oracle,
    renormalize_guarded_oracle,
    renormalize_oracle,
    slot_faces,
    splice_oracle,
    tangle_of,
    trace_oracle,
    weld_program,
    welded,
    welded_splice_oracle,
    wiring_loop_oracle,
)
from test_diagram import r_moves, renormalized, scrambled_crossings

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
    got = _renormalized(renormalized, *args, allow_reorient=reorient)
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
        assert _walks(renormalized, turned, d.loops) == n_comps


def test_a_splice_walks_only_the_strands_it_touched():
    """A build over a base walks only the strand components through a
    joined arc or a new crossing's; every other component keeps the base's
    steps.  Walking them all gives the same outputs, so only the count
    shows it: it costs a 64-step verify about a fifth of its time."""
    chain8 = chain_link(ChainSpec(8))
    components(chain8)  # the base analysed
    site = find_chain_sites(chain8)[0]
    for move, args, walks, n_comps in ((chain_move, (chain8, site, 1, EVIDENCE), 4, 9),
                                       (half_twist, (chain8, 0, 1), 1, 7)):
        move(*args)  # the fragment compiled
        assert _walks(move, *args) == walks
        assert components(move(*args)).count == n_comps


class _StageLog:
    """Records which analyses the analysis stages ran on, which diagrams
    the builder built, and, for each splice, each time
    its fragment's tangle was made, while installed: a splice places the
    tangle the judge memo keeps, so it makes it only on a judge miss.  Each
    fragment is counted through one wrapper, so that the judge memo, keyed
    by the fragment, answers a splice the log has seen."""

    def __init__(self):
        self.fragments = {}  # fragment -> its counted wrapper
        self.clear()

    def clear(self):
        self.strands, self.faces, self.outputs, self.emits = [], [], [], []

    def __enter__(self):
        trace, faces = dg._Analysis._trace, dg._Analysis._faces_and_euler
        build = dg.DiagramBuilder.build
        splice = dg.splice
        log = self

        def counted_splice(base, fragment, *args, **kwargs):
            log.emits.append([])
            if fragment not in log.fragments:
                def counted_fragment(fragment=fragment):
                    log.emits[-1].append(True)
                    return fragment()

                log.fragments[fragment] = counted_fragment
            return splice(base, log.fragments[fragment], *args, **kwargs)

        def logged_trace(an):
            log.strands.append(an)
            return trace(an)

        def logged_faces(an):
            log.faces.append(an)
            return faces(an)

        def logged_build(bld, *args, **kwargs):
            out = build(bld, *args, **kwargs)
            log.outputs.append(out)
            return out

        self._patches = [
            mock.patch.object(dg._Analysis, "_trace", logged_trace),
            mock.patch.object(dg._Analysis, "_faces_and_euler", logged_faces),
            mock.patch.object(dg.DiagramBuilder, "build", logged_build),
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
    """``move(d, *args)`` with the memos emptied, then again, checking
    that each splice made its fragment's tangle once, on the judge's miss,
    the first time and never the second, that no strands were
    traced (every output arrives with its trace), and that only splice
    outputs had their faces traced, each at most once (an output arrives
    known planar, so its faces are traced only when a later stage of the
    move reads them); returns (output, splice outputs, analyses whose
    faces were traced) of the second run, whose output is the first's."""
    validate(d), d.face_arcs()  # the input's stages run before the log starts
    forget_memos()
    runs = []
    with _StageLog() as log:
        for emits in ([True], []):
            log.clear()
            out = move(d, *args)
            outputs = log.outputs
            assert log.emits == [emits] * len(outputs)
            assert log.strands == []
            assert all(any(t is o._analysis for o in outputs) for t in log.faces)
            assert len({id(t) for t in log.faces}) == len(log.faces)
            assert outputs[-1] is out
            runs.append(format_pd(out))
    assert runs[0] == runs[1]
    return out, outputs, log.faces


def test_work_per_candidate_half_twist():
    # ring 1 of the 4-chain: the first wiring is non-planar and the second
    # is taken; only the second is built, and no faces are traced
    _, outputs, traced = _guarded(half_twist, chain_link(ChainSpec(4)), 1, +1)
    assert len(outputs) == 1
    assert traced == []


def test_work_per_candidate_switch_move():
    # the ring insertion takes its third wiring, the half twist its second;
    # the half twist finds its spot from the faces beside the ring's arcs,
    # so no face of the ring insertion's output is traced
    _, outputs, traced = _guarded(
        switch_move, chain_link(ChainSpec(3)), SwitchSite(1, 4), Handedness.PositiveSkew
    )
    assert len(outputs) == 2
    assert traced == []


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


def _open_chain(chirality):
    """Rings D, A, C and B in an open chain D-A-C-B: three clasps of the
    given chiralities stacked as the Tk template stacks them, D closing
    the first clasp's north rail and B the last clasp's south rail, welded
    by the oracle's weld builder."""
    bld = WeldBuilder()
    clasps = [bld.twist_region(2, x) for x in chirality]
    bld.weld(clasps[0]["in_r"], clasps[0]["out_r"])
    for upper, lower in zip(clasps, clasps[1:]):
        bld.weld(upper["in_l"], lower["in_r"])
        bld.weld(upper["out_l"], lower["out_r"])
    bld.weld(clasps[-1]["in_l"], clasps[-1]["out_l"])
    return bld.build()


def _kinked_leaf_sites():
    """(diagram, site) of the chain sites an R1 kink of either hand on
    either arc of a leaf ring (D or B) makes, on open chains of every
    chirality at each clasp.  The kink leaves the leaf's other arc as the
    one arc running straight between its two crossings with the ring it
    clasps, which makes that ring a site.  Depending on which arc was
    kinked, the two arcs the site clasps both pass through the ring's disk
    or lie on its two sides."""
    for chirality in itertools.product((1, -1), repeat=3):
        d = _open_chain(chirality)
        part = components(d)
        for comp in range(part.count):
            if len({k >> 2 for a in part.arcs_of(comp) for k in d._analysis.occ[a]}) != 2:
                continue
            for arc in part.arcs_of(comp):
                for hand in (1, -1):
                    kinked = dg.reidemeister1(d, arc, hand)
                    for site in find_chain_sites(kinked):
                        yield kinked, site


_OPPOSITE = "SiteError: augmented chain splice found no planar wiring (None)"


def test_augmented_chain_sites_need_co_facial_strands():
    """`splice` requires its cut points to lie in one disk, and the
    augmented chain move checks it: a site whose two strands share no face
    is refused with the text building every wiring gives, since none is
    planar.  On the 32 such sites of the kinked open chains, and the 32
    whose strands share the face inside the ring, the augmented and the
    plain chain move give what the try-every-wiring oracle gives.  Without
    the check, the judge, whose face orbits are then no longer the base's
    parts, flags a non-planar output valid."""
    base = parse_pd("X(1,2,3,4) X(2,5,4,3) X(6,1,7,8) X(5,9,8,7) X(11,12,10,6) X(9,10,12,11)")
    assert diagram_isomorphic(base, _open_chain((1, 1, 1)))
    for hand in (1, -1):
        kinked = dg.reidemeister1(base, 4, hand)
        (site,) = find_chain_sites(kinked)
        assert site.key() == (0, 2, 7)
        assert _outcome(augmented_chain_move, kinked, site, 0, EVIDENCE) == _OPPOSITE
        with mock.patch.object(mv, "_co_face", lambda *_: True):
            unchecked = augmented_chain_move(kinked, site, 0, EVIDENCE)
        assert validate(unchecked).valid
        assert not validate(parse_pd(format_pd(unchecked))).valid
    co_facial = collections.Counter()
    for d, site in _kinked_leaf_sites():
        shared = any(site.strand1 in arcs and site.strand2 in arcs for arcs in d.face_arcs())
        co_facial[shared] += 1
        for k in (0, 1):
            want = _by_oracle(augmented_chain_move, d, site, k, EVIDENCE)
            assert shared or want == _OPPOSITE
            assert _outcome(augmented_chain_move, d, site, k, EVIDENCE) == want
            assert (_outcome(chain_move, d, site, k, EVIDENCE)
                    == _by_oracle(chain_move, d, site, k, EVIDENCE))
    assert co_facial == {True: 32, False: 32}


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


def _by_rebuilding(move, *args):
    """What ``move(*args)`` gives, or its SiteError text, built step by step
    as before a replay state: each splice over a builder copy of its base
    (`rebuilt_splice_oracle`) and each removal by the crossing drop."""
    with mock.patch.object(dg, "splice", rebuilt_splice_oracle), \
            mock.patch.object(mv, "splice", rebuilt_splice_oracle), \
            mock.patch.object(dg, "DiagramBuilder", DroppingBuilder):
        try:
            return move(*args)
        except SiteError as err:
            return f"SiteError: {err}"


def _signs(d):
    """The sign of each crossing of d, as its analysis reads it."""
    return {ci: d._analysis.sign(ci) for ci in range(len(d.crossings))}


def _on_state(state, move, d, *args):
    """``move(d, *args)`` made on the replay ``state`` of d instead: the
    crossings an undo names are taken to their slots in the state, whose
    kinks and bigons, found among its holes, are d's in the same order."""
    slots = [ci for ci in range(len(state.arc_at) >> 2) if state.arc_at[4 * ci]]
    assert [slots.index(ci) for ci in find_kinks(state)] == list(find_kinks(d))
    assert [tuple(map(slots.index, pair)) for pair in find_r2_bigons(state)] == list(
        find_r2_bigons(d))
    if move is reidemeister1_undo:
        args = (slots[args[0]],)
    elif move is reidemeister2_undo:
        args = (tuple(slots[ci] for ci in args[0]),)
    return move(state, *args)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_REPLAY_BASES), st.data())
def test_a_replay_state_matches_the_rebuilding_path_at_every_step(d, data):
    """A derivation of 2 to 8 steps from a base after R1 and R2 moves, each
    step a chain or augmented chain move, switch move, half twist, ring
    insertion, R2 move, or R1 or R2 undo, made in place on one replay
    state: its kinks and bigons are the diagram's, in order, and frozen
    after every step, it gives the PD text and loops of building each
    step's diagram afresh from the last, and the occurrences, corner map,
    steps, cycles and heads (in the trace's order), signs and report of
    its analysis, every stage a fresh one's, still after the later steps; a
    refused step gives the same text and leaves the state as it was, but
    for a switch move, whose half twist may refuse after its ring went
    in."""
    *_, d = r_moves(d, data)
    state, frozen = DiagramBuilder(d), []
    for _ in range(data.draw(st.integers(2, 8))):
        undos = [call for call in _removals(d) if call[0] is not remove_component]
        move, *args = data.draw(st.sampled_from(_moves(d, data) + undos))
        want = _by_rebuilding(move, *args)
        try:
            _on_state(state, move, *args)
        except SiteError as err:
            assert f"SiteError: {err}" == want, move.__name__
            if move is not switch_move:
                assert format_pd(state.build()) == format_pd(d)
            state = DiagramBuilder(d)
            continue
        got = state.build()
        assert (format_pd(got), got.loops) == (format_pd(want), want.loops), move.__name__
        for stage in ("occ", "across", "steps", "cycles", "head"):
            got_stage, want_stage = getattr(got._analysis, stage), getattr(want._analysis, stage)
            assert got_stage == want_stage, stage
            if stage == "head":
                assert list(got_stage.items()) == list(want_stage.items()), stage
        assert _signs(got) == _signs(want)
        assert validate(got) == validate(want)
        frozen.append(got)
        d = want
    for got in frozen:  # the state's later edits left each frozen diagram as it was
        _assert_trace_is_fresh(got, judged=True)


def _by_emitting(move, *args):
    """What ``move(*args)`` gives, or its SiteError text, with every
    splice reading its fragment side off the builder over its base."""
    with mock.patch.object(dg, "splice", emitting_splice_oracle), \
            mock.patch.object(mv, "splice", emitting_splice_oracle):
        try:
            return move(*args)
        except SiteError as err:
            return f"SiteError: {err}"


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_cached_fragment_sides_match_the_emitting_splice(d, data):
    """Every move, its fragment side read off the fragment's open tangle
    by the judge, gives the PD text and loop count, or the refusal
    text, of reading the side off the weld chains of the splice's own
    weld builder, where the fragment sits at another offset, and its output arrives with the same
    index and strand trace, every stage of its analysis a fresh one:
    after R1 and R2 moves."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data):
        want = _by_emitting(move, *args)
        try:
            got = move(*args)
        except SiteError as err:
            assert f"SiteError: {err}" == want, move.__name__
            continue
        assert (format_pd(got), got.loops) == (format_pd(want), want.loops), move.__name__
        assert got._analysis.occ == want._analysis.occ
        assert got._analysis._strands == want._analysis._strands
        _assert_trace_is_fresh(got, judged=True)


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_judged_wirings_match_cold_warm_and_the_emitting_splice(d, data):
    """The first splice of every move, on its own wiring table and on one
    of 1 to 8 wirings drawn from all 24 orders of its ends, gives the PD
    text, or the refusal text, of the emitting splice, which judges every
    wiring afresh, both with the judge memo emptied first and again with
    it warm from that splice, when the memo answers: after R1 and R2
    moves."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data):
        call = _first_splice(move, *args)
        if call is None:
            continue
        (base, emit, table, failure), kwargs = call
        drawn = data.draw(st.lists(st.permutations(range(4)), min_size=1, max_size=8))
        for wirings in (table, drawn):
            want = _outcome(emitting_splice_oracle, base, emit, wirings, failure, **kwargs)
            dg._judged.cache_clear()
            cold = _outcome(dg.splice, base, emit, wirings, failure, **kwargs)
            hits = dg._judged.cache_info().hits
            warm = _outcome(dg.splice, base, emit, wirings, failure, **kwargs)
            assert dg._judged.cache_info().hits == hits + 1
            assert cold == warm == want, move.__name__


def _spliced(splice, *args, **kwargs):
    """The diagram a splice gives, or the text of its SiteError."""
    try:
        return splice(*args, **kwargs)
    except SiteError as err:
        return f"SiteError: {err}"


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_planned_splices_match_the_welded_splice(d, data):
    """The first splice of every move, at sites drawn for each of the four
    fragments (the Tk template of a chain or augmented chain move, the
    clasped ring of a switch move, augmenting circle or ring insertion,
    the half twist of either chirality, the R2 bigon), its fragment's open
    tangle placed from the judge memo, emptied first and again warm, gives
    the PD text and loop count, or the refusal text, of emitting, welding
    and labelling the fragment's weld program in the splice's own weld
    builder, and an output whose occurrence index, arcs, corner map and
    strand trace are that build's, every stage of its analysis a fresh
    one: after R1 and R2 moves."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data):
        call = _first_splice(move, *args)
        if call is None:
            continue
        (base, emit, wirings, failure), kwargs = call
        dg._judged.cache_clear()
        cold = _spliced(dg.splice, base, emit, wirings, failure, **kwargs)
        hits = dg._judged.cache_info().hits
        warm = _spliced(dg.splice, base, emit, wirings, failure, **kwargs)
        assert dg._judged.cache_info().hits == hits + 1
        want = _spliced(welded_splice_oracle, base, emit, wirings, failure, **kwargs)
        for got in (cold, warm):
            if isinstance(want, str):
                assert got == want, move.__name__
                continue
            assert (format_pd(got), got.loops) == (format_pd(want), want.loops), move.__name__
            for stage in ("occ", "arc_at", "across", "_strands"):
                assert getattr(got._analysis, stage) == getattr(want._analysis, stage), stage
            _assert_trace_is_fresh(got, judged=True)


@settings(max_examples=25, deadline=None)
@given(_BASES, st.data())
def test_built_crossings_pass_the_label_check(d, data):
    """The builder and the renormalisation make their crossings without
    the label check, as `Crossing.rotated` does: every crossing of every
    splice and removal output equals the checked `Crossing` of its slots,
    a tuple; `Crossing` and `parse_pd` still refuse a label below 1."""
    *_, d = r_moves(d, data)
    outputs = [move(*args) for move, *args in _removals(d)]
    for move, *args in _moves(d, data):
        try:
            outputs.append(move(*args))
        except SiteError:
            pass
    for x in (x for out in outputs for x in out.crossings):
        assert type(x.slots) is tuple and x == dg.Crossing(x.slots)
    for refused in (lambda: dg.Crossing((0, 1, 2, 3)), lambda: parse_pd("X(0,1,2,3)")):
        with pytest.raises(FormatError, match=r"^crossing needs 4 positive arc labels"):
            refused()


def _index_is_fresh(d):
    return d._analysis.occ == dg._Analysis(d.crossings, d.loops).occ


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


def _scans(d, *finds):
    """Per component of d, what each of ``finds`` gives, or its SiteError text."""

    def scan(find, c):
        try:
            return find(d, c)
        except SiteError as err:
            return str(err)

    return [[scan(find, c) for c in range(components(d).count)] for find in finds]


def _disk_scans(d):
    """The disk-run scan's runs per component of d: the library's, then the oracle's."""
    return _scans(d, dg._disk_runs, disk_runs_oracle)


@settings(max_examples=30, deadline=None)
@given(_BASES, st.data())
def test_disk_runs_match_the_oracle(d, data):
    """The disk-run scan gives the oracle's runs, or its SiteError text,
    for every component of chain, rational and Tk bases, of their outputs
    after a switch move or augmenting circle, and of one to three half
    twists stacked on one ring of those."""
    ds = [d, _switched(d, data)]
    e = ds[-1]
    part = components(e)
    rings = [c for c in range(len(part.cycles)) if not dg._ring_fault(e, part, c)]
    if rings:
        arc = part.arcs_of(data.draw(st.sampled_from(rings)))[0]
        for direction in data.draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3)):
            try:
                e = half_twist(e, components(e).component_of(arc), direction)
            except SiteError:
                break
            ds.append(e)
    for e in ds:
        got, want = _disk_scans(e)
        assert got == want


def test_disk_runs_corpus_matches_the_oracle():
    """On the 4-chain and on half twists that turn frozen crossings, the
    scan and the oracle agree, and both find runs and refuse components."""
    kinds = set()
    for d in [_CHAIN4] + [half_twist(*twist) for twist in _REORIENTING_TWISTS]:
        got, want = _disk_scans(d)
        assert got == want
        kinds.update(type(x) for x in got)
    assert kinds == {str, tuple}


def _spot_faces(d, c):
    """The most faces in which one arc of ring c is flanked by an arc of
    each of its disk runs, read off the traced faces."""
    run1, run2 = dg._disk_runs(d, c)
    ring, count = set(components(d).arcs_of(c)), collections.Counter()
    for arcs in d.face_arcs():
        for i, e in enumerate(arcs):
            alpha, beta = arcs[i - 1], arcs[(i + 1) % len(arcs)]
            if e in ring and (alpha in run1 and beta in run2 or alpha in run2 and beta in run1):
                count[e] += 1
    return max(count.values(), default=0)


def _spots(d):
    """The half twist's spot per component of d: the library's, then the
    oracle's.  No arc of a ring has two such faces, so the order in which
    the library reads an arc's two corners never decides its spot."""
    got, want, faces = _scans(d, mv._half_twist_spot, half_twist_spot_oracle, _spot_faces)
    assert all(n in (0, 1) for n in faces if isinstance(n, int))
    return got, want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_REPLAY_BASES + [twist[0] for twist in _REORIENTING_TWISTS]), st.data())
def test_half_twist_spots_match_the_oracle(d, data):
    """The spot each half twist takes, read off the two faces beside each
    arc of the ring, is the one scanning every face gives, or the same
    refusal, for every component of each diagram of drawn derivations:
    chain, switch and half-twist steps, runs of one to four half twists
    on one ring, and the twists that turn frozen crossings."""
    for _ in range(data.draw(st.integers(1, 4))):
        got, want = _spots(d)
        assert got == want
        move, *args = data.draw(st.sampled_from(_moves(d, data)))
        try:
            d = move(*args)
        except SiteError:
            continue
        part = components(d)
        rings = [c for c in range(part.count) if not dg._ring_fault(d, part, c)]
        arc = part.arcs_of(data.draw(st.sampled_from(rings)))[0] if rings else None
        for direction in data.draw(st.lists(st.sampled_from((1, -1)), max_size=4)):
            got, want = _spots(d)
            assert got == want
            ring = components(d).component_of(arc) if arc is not None else None
            if ring is None or not isinstance(got[ring], tuple):
                break
            d = half_twist(d, ring, direction)
    got, want = _spots(d)
    assert got == want


def test_half_twist_spot_corpus_matches_the_oracle():
    """After the half twists that turn frozen crossings, and after stacks
    of half twists on one ring of the 4-chain, in either direction and in
    turn, the spots are the oracle's, and both find spots, find none on
    a ring with no room left, and refuse components that are no ring."""
    ds = [half_twist(*twist) for twist in _REORIENTING_TWISTS]
    for directions in ((1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, -1)):
        d, arc = _CHAIN4, components(_CHAIN4).arcs_of(1)[0]
        for direction in directions:
            try:
                d = half_twist(d, components(d).component_of(arc), direction)
            except SiteError:
                break
            ds.append(d)
    kinds = set()
    for d in ds:
        got, want = _spots(d)
        assert got == want
        kinds.update(type(x) for x in got)
    assert kinds == {str, tuple, type(None)}


# the open tangles against the weld reference -------------------------------------


_TANGLE_PORTS = operator.itemgetter("NW", "NE", "SW", "SE")


@pytest.mark.parametrize("fragment", [mv.TkTemplate(k) for k in range(-4, 5)]
                         + [mv._HalfTwist(1), mv._HalfTwist(-1), mv._clasped_ring,
                            dg._r2_fragment],
                         ids=lambda fragment: getattr(fragment, "__name__", repr(fragment)))
def test_fragment_tangles_are_the_weld_plans(fragment):
    """Each move's fragment, as an open tangle, is the plan the weld
    reference reads off its weld program: the same rows, port for port
    and in crossing order, the inner arcs numbered as the weld labeller
    takes their fresh labels, and the same loops."""
    assert fragment() == tangle_of(weld_program(fragment))


_SIGNED_SEQS = st.tuples(
    st.sampled_from((1, -1)), st.lists(st.integers(0, 3), min_size=1, max_size=4)
).map(lambda sc: [sc[0] * c for c in sc[1]])


@settings(max_examples=60, deadline=None)
@given(_SEQS, st.integers(-2, 2))
def test_tangle_diagrams_are_the_weld_plans(seq, extra):
    """A rational tangle's diagram, as an open tangle with its ports in
    NW, NE, SW, SE order, is the weld reference's plan of it."""
    t = boundary_twists(to_alternating_diagram(seq), extra)
    rows, ports = t.parts()
    assert dg.open_tangle(rows, _TANGLE_PORTS(ports)) == tangle_of(
        lambda bld: _TANGLE_PORTS(oracles.weld_tangle(t, bld)))


@settings(max_examples=60, deadline=None)
@given(_SIGNED_SEQS, st.integers(-3, 3), st.integers(-3, 3),
       st.lists(st.integers(-2, 2), min_size=2, max_size=6), st.booleans(),
       st.integers(1, 8))
def test_generators_match_the_weld_reference(seq, k, extra, twists, alternating, n):
    """Chain links, Tk closures, numerator closures (zero entries, whose
    strands pass straight through and close into loops, included) and
    (2, n) templates give the PD text and loop count of the weld-built
    reference."""
    t = boundary_twists(to_alternating_diagram(seq), extra)
    spec = ChainSpec(len(twists), tuple(twists), alternating)
    for got, want in ((chain_link(spec), oracles.weld_chain_link(spec)),
                      (tk_closure(seq, k, extra), oracles.weld_tk_closure(seq, k, extra)),
                      (numerator_closure(t), oracles.weld_numerator_closure(t)),
                      (braid2_template(n, alternating), oracles.weld_braid2_template(n, alternating))):
        assert (format_pd(got), got.loops) == (format_pd(want), want.loops)


@pytest.mark.parametrize("rows", [
    ((-1, 1, -2, 2),),  # inner arcs 1 and 2 occur once
    ((-1, 1, 1, 1), (-2, 1, -3, -4)),  # inner arc 1 occurs four times
    ((-1, -1, 1, 1),),  # port -1 occurs twice
    ((-1, 1, 1, -3),),  # port -2 never occurs
], ids=["once", "four-times", "port-twice", "port-missing"])
def test_a_label_off_an_open_tangle_is_a_fragment_fault(rows):
    """A fragment whose inner label occurs other than twice, or whose port
    occurs other than once, is no open tangle: its side refuses it by name,
    and a splice raises the fault rather than refusing the site."""
    fault = r"^fragment labels are not an open tangle: "
    with pytest.raises(AssertionError, match=fault):
        dg._fragment_side(rows)
    with pytest.raises(AssertionError, match=fault):
        dg.splice(_CHAIN4, lambda: (rows, 1, 0), [(0, 1, 2, 3)], "no wiring", cut=(1, 4))


# the fragment side and the output's strand trace ---------------------------------


@welded
def _nonplanar_fragment(bld):
    """A twist crossing for the ports, beside a portless crossing whose
    opposite slots are welded: one face where the Euler check wants three."""
    k = 4 * bld.crossing()
    bld.weld(k, k + 2)
    bld.weld(k + 1, k + 3)
    x = bld.twist_region(1, +1)
    return (x["in_l"], x["in_r"], x["out_r"], x["out_l"])


def _fragments():
    """(name, fragment) of each move's fragment: Tk for k in -6..6, the
    clasped ring, the half twist of either chirality, and a non-planar
    fragment.  Each move's fragment is called through a function of the
    test's own, whose name keeps the test's id and whose ``program`` is
    the fragment's weld program."""

    def through(fragment, call):
        call.program = weld_program(fragment)
        return call

    for k in range(-6, 7):
        yield f"Tk({k})", through(mv.TkTemplate(k), lambda k=k: mv.TkTemplate(k)())
    (_, ring, *_), _ = _first_splice(augmenting_circle, _CHAIN4, 1, 4)

    def emit():
        return ring()

    yield "clasped ring", through(ring, emit)
    for direction in (1, -1):
        (_, twist, *_), _ = _first_splice(half_twist, _CHAIN4, 1, direction)
        yield f"half twist {direction:+d}", through(twist, lambda twist=twist: twist())
    yield "non-planar", _nonplanar_fragment


@pytest.mark.parametrize("name,emit", list(_fragments()))
def test_fragment_side_matches_emitting_it_apart(name, emit):
    """The fragment side read off a fragment's open tangle, and the one
    the weld builder reads off its weld program's chain ends, alone or
    over a base with two arcs cut, are the one emitting the weld program
    into a builder of its own, labelling it there and tracing its faces
    gives; the weld builder's takes no fresh label."""
    want = fragment_side_oracle(emit)
    assert (want is None) == (name == "non-planar")
    assert dg._fragment_side(emit()[0]) == want, name
    for bld in (WeldBuilder(), WeldBuilder(base=_CHAIN4)):
        if bld.base is not None:
            bld.cut(1), bld.cut(4)
        ports = weld_program(emit)(bld)
        fresh = bld._next_arc
        assert bld.fragment_side(ports) == want, name
        assert bld._next_arc == fresh


def test_a_refused_splice_emits_once():
    """A table of ring wirings that are all non-planar is refused after the
    fragment's tangle is made once, on the judge's miss, and so is a
    non-planar fragment; refused again, neither is made."""
    (base, emit, _, failure), kwargs = _first_splice(augmenting_circle, _CHAIN4, 1, 4)
    non_planar = [w for w in itertools.permutations(range(4))
                  if _outcome(splice_oracle, base, emit, [w], failure, **kwargs).endswith("(None)")]
    for fragment, table in ((emit, non_planar), (_nonplanar_fragment, [(0, 1, 2, 3)])):
        calls = []

        def counted(fragment=fragment):
            calls.append(True)
            return fragment()

        for _ in range(2):
            with pytest.raises(SiteError, match=r"\(None\)$"):
                dg.splice(base, counted, table, failure, **kwargs)
        assert calls == [True]


@welded
def _kinked_fragment(bld):
    """A twist crossing for the ports, beside a portless crossing whose
    neighbouring slots are welded: a planar kink on no part with a port."""
    k = 4 * bld.crossing()
    bld.weld(k, k + 1)
    bld.weld(k + 2, k + 3)
    x = bld.twist_region(1, +1)
    return (x["in_l"], x["in_r"], x["out_r"], x["out_l"])


@welded
def _toroidal_fragment(bld):
    """Three crossings, all on the part with the four ports, that embed on
    a torus and not in the plane: one face touches the ports and none is
    inside, where a planar part would have two."""
    c = [bld.crossing() for _ in range(3)]
    for (a, s), (b, t) in (((0, 3), (1, 1)), ((1, 2), (2, 0)), ((1, 3), (2, 2)),
                           ((2, 1), (2, 3))):
        bld.weld(4 * c[a] + s, 4 * c[b] + t)
    return (4 * c[0], 4 * c[0] + 1, 4 * c[0] + 2, 4 * c[1])


def _four_end_splices():
    """(base, failure, keyword arguments) of the first splice of a ring
    insertion, a half twist and a chain move on the 4-chain."""
    for move, *args in ((augmenting_circle, _CHAIN4, 1, 4), (half_twist, _CHAIN4, 1, +1),
                        (chain_move, _CHAIN4, find_chain_sites(_CHAIN4)[1], 1, EVIDENCE)):
        (base, _, _, failure), kwargs = _first_splice(move, *args)
        yield base, failure, kwargs


def test_a_build_with_an_arc_used_once_is_invalid():
    """A build over a base that leaves a cut arc's two pieces unwelded has
    two arcs that occur once: the build refuses the diagram with the report
    of a fresh analysis of its crossings, before it walks any strand."""
    bld = DiagramBuilder(base=_CHAIN4)
    bld.cut(1)
    # the base's crossings, read at the builder's corners, one relabelled; no fragment
    crossings = [Crossing(tuple(bld.arc_at[k:k + 4])) for k in range(0, len(bld.arc_at), 4)]
    with pytest.raises(InvalidDiagramError) as refusal:
        bld.build()
    assert refusal.value.report == eager_report(LinkDiagram(crossings))
    assert "used 1 times" in str(refusal.value)


def test_a_portless_fragment_part_is_refused():
    """A fragment with a crossing on no part with a port is refused with
    None for the error, by every table of wirings, even when that part is
    planar: a half twist's table used to weld the kink in."""
    assert dg._fragment_side(_kinked_fragment()[0]) is None
    for base, failure, kwargs in _four_end_splices():
        with pytest.raises(SiteError, match=r"\(None\)$"):
            dg.splice(base, _kinked_fragment, list(itertools.permutations(range(4))), failure,
                      **kwargs)


def _guard(traced, orbits):
    return (r"^fragment fails the face-orbit condition: "
            rf"traced inner faces - crossings = {traced}, face orbits - ports / 2 = {orbits}$")


def test_a_nonplanar_fragment_never_gives_a_diagram():
    """The face orbits take a fragment's part with ports for planar, so on
    a toroidal part, whose ports are one face orbit, they read 1 - 4 / 2 =
    -1 inner faces minus crossings where tracing the faces reads -3.  No
    wiring of it gives a diagram: the fragment side's guard traces the
    fragment's inner faces and refuses the total by name, as a program
    fault, before any wiring is judged; the traced oracle refuses the
    part."""
    guard = _guard(-3, -1)
    with pytest.raises(AssertionError, match=guard):
        dg._fragment_side(_toroidal_fragment()[0])
    with pytest.raises(AssertionError, match=r"face orbit \[0, 1, 2, 3\], traced excess -3$"):
        fragment_side_oracle(_toroidal_fragment)
    refused_by = set()
    for base, failure, kwargs in _four_end_splices():
        for wiring in itertools.permutations(range(4)):
            with pytest.raises((SiteError, AssertionError)) as refusal:
                dg.splice(base, _toroidal_fragment, [wiring], failure, **kwargs)
            assert refusal.type is SiteError or refusal.match(guard)
            refused_by.add(refusal.type)
    assert refused_by == {AssertionError}


@welded
def _two_face_fragment(bld):
    """One crossing whose opposite slots 0 and 2 are welded into a loop, its
    ports slots 1 and 3: a planar part with a port inside the loop and one
    outside, on two faces."""
    k = 4 * bld.crossing()
    bld.weld(k, k + 2)
    return (k + 1, k + 3)


def test_a_fragment_with_ports_on_two_faces_is_refused():
    """A planar fragment part with its ports on two faces traces -1 inner
    faces minus crossings, as the Euler formula gives a planar part with
    its ends on two face cycles (2 - 2 / 2 - 2), so a per-part excess
    check passes it.  Taken as two face orbits, it would count 2 - 2 / 2 = 1:
    the guard refuses it by name, and so does the traced oracle, and the
    splice that cuts one arc for it raises the fault before judging any
    wiring.  Welded in, the loop would be crossed once by a strand that
    runs out of it and back in through the base."""
    with pytest.raises(AssertionError, match=_guard(-1, 1)):
        dg._fragment_side(_two_face_fragment()[0])
    with pytest.raises(AssertionError, match=r"face orbit \[0\], traced excess -1$"):
        fragment_side_oracle(_two_face_fragment)
    with pytest.raises(AssertionError, match=_guard(-1, 1)):
        dg.splice(_CHAIN4, _two_face_fragment, [(0, 1), (1, 0)], "no wiring", cut=(1,))


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_base_side_matches_the_traced_oracle(d, data):
    """The base side of the first splice of every move, with and without
    its strand walks, is what tracing its faces, reading the heads off the
    two-walk oracle and walking each end's strand on its own give: each
    part of a base has its ends on one face orbit, whose count of inner
    faces is the traced one, so the orbits are the parts."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data):
        call = _first_splice(move, *args)
        if call is None:
            continue
        (base, *_), kwargs = call
        ends = (frozenset(kwargs.get("remove", ())), kwargs.get("cut", ()), kwargs.get("stubs", ()))
        for directed in (True, False):
            assert (dg._base_side(base, *ends, directed)
                    == base_side_oracle(base, *ends, directed)), move.__name__


def test_open_walk_is_bounded():
    """A corner map whose open walk closes into a cycle with no open corner
    on it fails the walk by name instead of looping, and so does a closed
    walk over a map that never brings it back to its start; an alarm
    fails a walk that does not stop."""
    cyclic, trapping = [1, 0, 3, 2], [1, 1, 3, 2]  # corner 0 never entered again in the second

    def hang(*_):
        raise TimeoutError("the open walk did not stop")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for turn, name in ((1, "face"), (2, "strand")):
            with pytest.raises(AssertionError,
                               match=rf"^{name} walk from \(0, 0\) found no open slot$"):
                dg._walk_corners(cyclic, 0, turn, {})
            with pytest.raises(AssertionError, match=rf"^{name} walk did not close$"):
                dg._walk_corners(trapping, 0, turn)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_trace_is_fresh(d, derived=True, judged=False):
    """Every stage of d's analysis is what analysing d afresh gives.

    d arrived with its occurrence index, corner map and strand trace when
    ``derived``, and also known planar when ``judged`` (a splice's output),
    so that reading its report traces no face.  The index (each arc's
    occurrences in the same order), the arc at each corner, the corner map (also a fixed-point-free
    involution), the strand trace (field by field, in the same order, and
    the two-walk oracle's), the report (the eager one), the graph
    components and, read last, the faces (the face oracle's) are a fresh
    analysis's.  Both analyses hold every place as a corner int; the
    oracles' (ci, si) slots are compared after converting to them."""
    an = d._analysis
    arrived = set(vars(an))
    assert not derived or {"across", "_strands"} <= arrived
    assert not judged or "_euler_problems" in arrived and "_embedding" not in arrived
    plain = LinkDiagram(d.crossings, loops=d.loops)
    fresh = dg._Analysis(d.crossings, d.loops)
    _assert_corner_encoded(an)
    _assert_corner_encoded(fresh)
    assert (an.occ, an.arc_at) == (fresh.occ, fresh.arc_at)
    across = an.across
    assert across == fresh.across
    assert all(across[k] != k and across[across[k]] == k for k in range(len(across)))
    trace = fresh._trace()
    for field in trace._fields:
        got, want = getattr(an._strands, field), getattr(trace, field)
        assert got == want, field
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items()), field
    steps, cycles, head, signs, problems = trace_oracle(d)
    got_steps = [[(an.arc_at[c], divmod(c, 4)) for c in corners] for corners in an.steps]
    got_head = {arc: divmod(k, 4) for arc, k in an.head.items()}
    assert (got_steps, an.cycles, got_head, _signs(d)) == (steps, cycles, head, signs)
    assert an._strands.problems == problems == ()
    assert validate(d) == eager_report(d)
    assert not judged or "_embedding" not in vars(an)
    assert (an._graph, an.n_graph_comps) == (fresh._graph, fresh.n_graph_comps)
    assert slot_faces(an._embedding) == faces_oracle(plain)


def _assert_corner_encoded(an):
    """Every occurrence, strand corner and head of ``an`` is a corner int."""
    assert all(type(k) is int for places in an.occ.values() for k in places)
    assert all(type(c) is int for corners in an.steps for c in corners)
    assert all(type(k) is int for k in an.head.values())


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_output_trace_is_a_fresh_trace(d, data):
    """Every output of a splice or a renormalisation arrives with its
    occurrence index, corner map and strand trace, a splice's also known
    planar, and every stage of its analysis, the faces read last, is a
    fresh one: after R1 and R2 moves, after every wiring move (half twists
    included, which may reorient), and for scrambled crossings with a
    frozen prefix of any length."""
    for d in r_moves(d, data):
        _assert_trace_is_fresh(d, derived=False)
    for move, *args in _moves(d, data):
        try:
            out = move(*args)
        except SiteError:
            continue
        _assert_trace_is_fresh(out, judged=True)
    crossings = scrambled_crossings(d, data)
    frozen = range(data.draw(st.integers(0, len(crossings))))
    try:
        out = renormalized(crossings, d.loops, frozen, allow_reorient=data.draw(st.booleans()))
    except WiringError:
        return
    _assert_trace_is_fresh(out)


def test_output_trace_after_reorienting_half_twists():
    for twist in _REORIENTING_TWISTS:
        _assert_trace_is_fresh(half_twist(*twist), judged=True)


def _by_the_old_build(move, *args):
    """What ``move(*args)`` gives, or its SiteError text, with every splice
    built by the old post-build path instead of in a replay state of its
    base: a builder copy of the base, renormalised by a fresh probe and
    validated in full."""
    with mock.patch.object(dg, "splice", rebuilt_splice_oracle), \
            mock.patch.object(mv, "splice", rebuilt_splice_oracle), \
            mock.patch.object(oracles, "renormalize_probe_oracle", renormalize_guarded_oracle):
        try:
            return move(*args)
        except SiteError as err:
            return f"SiteError: {err}"


@settings(max_examples=40, deadline=None)
@given(_BASES, st.data())
def test_outputs_match_the_old_post_build_path(d, data):
    """Every wiring move gives the diagram, occurrence index and strand
    trace, or the refusal text, that the old post-build path gives: a
    fresh probe analysis of the built crossings and the output's full
    validation, faces traced; after R1 and R2 moves, and for the
    reorienting half twists."""
    *_, d = r_moves(d, data)
    for move, *args in _moves(d, data) + [(half_twist, *t) for t in _REORIENTING_TWISTS]:
        want = _by_the_old_build(move, *args)
        try:
            got = move(*args)
        except SiteError as err:
            assert f"SiteError: {err}" == want, move.__name__
            continue
        assert format_pd(got) == format_pd(want), move.__name__
        assert got._analysis.occ == want._analysis.occ
        assert got._analysis._strands == want._analysis._strands


def _removals(d):
    """(move, args) for the R1 undo of each kink of d, the R2 undo of each
    bigon and the removal of each component with crossings."""
    return ([(reidemeister1_undo, d, ci) for ci in find_kinks(d)]
            + [(reidemeister2_undo, d, pair) for pair in find_r2_bigons(d)]
            + [(remove_component, d, comp) for comp in range(len(components(d).cycles))])


def _by_dropping(move, *args):
    """What ``move(*args)`` gives with each removal built by the old crossing
    drop: a union-find over the joined arcs and a bare diagram."""
    with mock.patch.object(dg, "DiagramBuilder", DroppingBuilder):
        return move(*args)


@settings(max_examples=25, deadline=None)
@given(_BASES, st.data())
def test_removal_outputs_arrive_analysed(d, data):
    """The R1 undo of each kink, the R2 undo of each bigon and the removal
    of each component with crossings arrive with their occurrence index,
    corner map and strand trace, known planar, and every stage of their
    analysis, the faces read last, is a fresh one: after R1 and R2 moves."""
    for d in r_moves(d, data):
        for move, *args in _removals(d):
            _assert_trace_is_fresh(move(*args), judged=True)


@settings(max_examples=25, deadline=None)
@given(_BASES, st.data())
def test_removals_match_the_crossing_drop_oracle(d, data):
    """Every removal gives the PD text and loop count of the old crossing
    drop, and the greedy reduction its reduced diagram, step count and
    stability, at a small budget and at the default one: after R1 and R2
    moves.  This is where the builder's joins are checked; the trail
    oracle labels builds without joins alone."""
    for d in r_moves(d, data):
        for move, *args in _removals(d):
            got, want = move(*args), _by_dropping(move, *args)
            assert (format_pd(got), got.loops) == (format_pd(want), want.loops), move.__name__
        for budget in (data.draw(st.integers(0, 3)), DEFAULT_STEP_BUDGET):
            got, steps, stable = reduce_diagram(d, budget)
            want, *rest = _by_dropping(reduce_oracle, d, budget)
            assert (format_pd(got), steps, stable) == (format_pd(want), *rest)


def _assert_public_slots_match_the_oracles(d):
    """The (ci, si) slots and arcs the public API gives for d are the ones
    the oracles read off d's crossings with walks of their own."""
    occ = _Walker(d.crossings).occ
    steps, _, head, signs, _ = trace_oracle(d)
    faces = faces_oracle(d)
    for arc, places in occ.items():
        assert d.occurrences(arc) == tuple(places)
        assert d.head_of(arc) == head[arc]
        assert d.tail_of(arc) == next(o for o in places if o != head[arc])
    assert d.faces() == tuple(faces.faces)
    assert d.face_arcs() == tuple(faces.face_arcs)
    assert to_gauss(d).components == tuple(
        tuple((ci + 1, si % 2 == 1, signs[ci]) for _, (ci, si) in st) for st in steps
    )


@settings(max_examples=25, deadline=None)
@given(_BASES, st.data())
def test_public_slots_match_the_oracles(d, data):
    """Occurrences, heads, tails, faces, face arcs and the Gauss code, the
    places the analysis holds as corners given as (ci, si) slots, are the
    oracles': on drawn bases after R1 and R2 moves, on their R1 and R2
    undos and component removals, and on every wiring move's splice
    output, all of which arrive analysed."""
    for d in r_moves(d, data):
        _assert_public_slots_match_the_oracles(d)
        for move, *args in _removals(d):
            _assert_public_slots_match_the_oracles(move(*args))
    for move, *args in _moves(d, data):
        try:
            out = move(*args)
        except SiteError:
            continue
        _assert_public_slots_match_the_oracles(out)


# rational_link([2, 2]) with an augmenting circle (crossings 4-7, arcs 11,
# 12, 14 and 16) around its arcs 1 and 2: arc 1 runs on through crossing 5
# as arc 13 and through crossing 4 as arc 9, and arc 2 through crossings 7
# and 6 as arcs 15 and 10
_RINGED = parse_pd("X(9,10,3,4) X(6,3,2,5) X(4,6,7,8) X(5,1,8,7) "
                   "X(11,9,12,13) X(1,14,13,12) X(15,16,10,11) X(14,2,16,15)")


def test_ring_removal_joins_through_an_arc_between_removed_crossings():
    """Each strand through the ring crosses it twice in a row, so its run of
    joins passes an arc between two removed crossings and takes the least
    label of its three arcs, as the crossing drop's union-find does."""
    assert {c >> 2 for c in dg._passages(_RINGED, 1)} == {4, 5, 6, 7}
    assert _RINGED.occurrences(13) == ((4, 3), (5, 2))
    out = remove_component(_RINGED, 1)
    assert format_pd(out) == "X(1,2,3,4)\nX(6,3,2,5)\nX(4,6,7,8)\nX(5,1,8,7)\n"
    assert format_pd(out) == format_pd(_by_dropping(remove_component, _RINGED, 1))
    _assert_trace_is_fresh(out, judged=True)


def test_a_kink_loop_arc_never_names_the_joined_arc():
    """The kink's loop arc carries the least label, 1, but is no join's arc:
    the strand through the kink runs on as the lesser of its two other
    arcs, 9."""
    kinked = parse_pd("X(10,2,3,4) X(6,3,2,5) X(4,6,7,8) X(5,9,8,7) X(9,10,1,1)")
    out = reidemeister1_undo(kinked, 4)
    assert format_pd(out) == "X(9,2,3,4)\nX(6,3,2,5)\nX(4,6,7,8)\nX(5,9,8,7)\n"
    assert format_pd(out) == format_pd(_by_dropping(reidemeister1_undo, kinked, 4))
    _assert_trace_is_fresh(out, judged=True)


# the weld reference's chains ---------------------------------------------------


class _LabelledAsTheTrails(TrailBuilder):
    """A weld builder whose labelling, on a build without joins, is checked
    against the trail oracle's on a copy (the same protos, loop count and
    next fresh label), and whose fragment side is checked against the one
    the trails give."""

    labelled: list = []

    def _label(self) -> int:
        if self.joins:
            return super()._label()
        twin = copy.copy(self)
        twin.protos = [p if isinstance(p, dg.Crossing) else list(p) for p in self.protos]
        want = twin.label()
        got = super()._label()
        assert (self.protos, got, self._next_arc) == (twin.protos, want, twin._next_arc)
        self.labelled.append(self.base is None)
        return got

    def fragment_side(self, ports):
        side = WeldBuilder.fragment_side(self, ports)
        assert side == super().fragment_side(ports)
        return side


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_builds_label_as_the_trail_oracle(data):
    """Every weld-reference build labels its slots and counts its loops as
    trailing the welds from every open slot does, and every weld-reference
    splice's fragment side is the one the trails give: the base-less
    builds (chain, rational and Tk links, (2, n) templates, numerator
    closures) and the emitting splice of every move on one of them after
    R1 and R2 moves, and of a half twist on the 4-chain, which always
    splices.  The library builds no weld; its joins are checked against
    the crossing drop instead (`test_removals_match_the_crossing_drop_oracle`)."""
    _LabelledAsTheTrails.labelled = labelled = []
    with mock.patch.object(oracles, "WeldBuilder", _LabelledAsTheTrails), \
            mock.patch.object(dg, "splice", emitting_splice_oracle), \
            mock.patch.object(mv, "splice", emitting_splice_oracle):
        seq, twists = data.draw(_SEQS), data.draw(st.lists(st.integers(-1, 1), min_size=2,
                                                           max_size=4))
        spec, k = ChainSpec(len(twists), tuple(twists)), data.draw(st.integers(-1, 1))
        oracles.weld_chain_link(spec)
        oracles.weld_numerator_closure(to_alternating_diagram(seq))
        oracles.weld_tk_closure(seq, k)
        oracles.weld_braid2_template(data.draw(st.integers(1, 4)), data.draw(st.booleans()))
        oracles.weld_numerator_closure(boundary_twists(to_alternating_diagram(seq),
                                                       data.draw(st.integers(-1, 1))))
        assert labelled == [True] * 5
        bases = [chain_link(spec), rational_link(seq), tk_closure(seq, k)]
        *_, d = r_moves(data.draw(st.sampled_from(bases)), data)
        for move, *args in _moves(d, data):
            try:
                move(*args)
            except SiteError:
                pass
        half_twist(*_REORIENTING_TWISTS[1])  # a splice over a base, whatever was drawn
    assert False in labelled


def _loop_of_terminals(bld, n):
    """Weld n plain terminals of ``bld`` into a closed chain."""
    ts = [bld.terminal() for _ in range(n)]
    for i, t in enumerate(ts):
        bld.weld(t, ts[(i + 1) % n])


@pytest.mark.parametrize("n", [1, 2])
def test_a_closed_chain_of_plain_terminals_is_one_loop(n):
    """In the weld reference, a plain terminal welded to itself, or two
    welded to each other twice, close into one crossing-free loop, beside
    the loops of a base."""
    bld = WeldBuilder()
    _loop_of_terminals(bld, n)
    assert format_pd(bld.build()) == "O(1)\n"
    bld = WeldBuilder(base=rational_link([0]))
    _loop_of_terminals(bld, n)
    assert bld.build().loops == 3


@pytest.mark.parametrize("kind", ["slot"])
def test_a_self_weld_of_a_one_weld_port_is_over_welded(kind):
    """A crossing slot welded to itself takes two welds where it has room
    for one: the weld reference raises the builder fault at the weld."""
    bld = WeldBuilder(base=_CHAIN4)
    port = 4 * bld.crossing()
    with pytest.raises(AssertionError, match=rf"^over-welded port {re.escape(str(divmod(port, 4)))}$"):
        bld.weld(port, port)


def test_a_third_weld_at_a_plain_terminal_is_over_welded():
    """A plain terminal of the weld reference has room for two welds, one
    on each side."""
    bld = WeldBuilder()
    k, t = 4 * bld.crossing(), bld.terminal()
    bld.weld(k, t)
    bld.weld(t, k + 1)
    with pytest.raises(AssertionError, match=r"^over-welded port \('t', 1, 't'\)$"):
        bld.weld(t, k + 2)


def _once_welded_terminal(bld):
    k = 4 * bld.crossing()
    bld.weld(k, bld.terminal())
    bld.weld(k + 1, k + 2)


def _dangling_chain(bld):
    bld.weld(bld.terminal(), bld.terminal())


def _mapped_port_to_lone_terminal(bld):
    port = bld.terminal()
    bld.port_labels[port] = 1
    bld.weld(port, bld.terminal())


@pytest.mark.parametrize("weld", [_once_welded_terminal, _dangling_chain,
                                  _mapped_port_to_lone_terminal],
                         ids=lambda weld: weld.__name__.strip("_"))
def test_a_terminal_welded_once_is_incomplete(weld):
    """A plain terminal that ends a chain, beside a crossing slot, beside
    another plain terminal or beside a terminal port of ``port_labels``,
    which is complete with one weld, is a fault of the weld reference."""
    bld = WeldBuilder(base=_CHAIN4)
    weld(bld)
    t = next(t for t in bld.welds if bld._is_terminal(t) and t not in bld.port_labels)
    with pytest.raises(AssertionError, match=rf"^incomplete terminal {re.escape(str(t))}$"):
        bld.build()


def test_an_unwelded_crossing_slot_is_a_builder_fault():
    """A crossing slot no weld reaches is named both by the weld
    reference's build and by its fragment side, for which it is no port."""
    bld = WeldBuilder()
    x = bld.twist_region(1, +1)
    bld.weld(x["in_l"], x["out_l"])
    with pytest.raises(AssertionError, match=r"^unwelded crossing slot \(0, 0\)$"):
        bld.fragment_side((x["in_l"], x["out_l"]))
    with pytest.raises(AssertionError, match=r"^unwelded crossing slot \(0, 0\)$"):
        bld.build()


@pytest.mark.parametrize("n", [1, 2])
def test_a_mapped_terminal_port_labels_the_slot_through_plain_terminals(n):
    """In the weld reference, a terminal port of ``port_labels`` at one end
    of a chain of n terminals, the rest plain, is complete with one weld
    and labels the crossing slot at the chain's other end: with n = 1, the
    path the weld-written `TkTemplate(0)`'s pass-through ports take."""
    bld = WeldBuilder()
    k = 4 * bld.crossing()
    chain = [bld.terminal() for _ in range(n)] + [k]
    for p, q in zip(chain, chain[1:]):
        bld.weld(p, q)
    bld.port_labels = {chain[0]: -1, k + 1: -2, k + 2: -3, k + 3: -4}
    assert bld._label() == 0
    assert bld.protos == [[-1, -2, -3, -4]]


@pytest.mark.parametrize("move, d, arg, want", [
    (reidemeister1_undo, "X(10,2,3,4) X(6,3,2,5) X(4,6,7,8) X(5,9,8,7) X(9,10,1,1)", 4,
     "X(9,2,3,4)\nX(6,3,2,5)\nX(4,6,7,8)\nX(5,9,8,7)\n"),
    (reidemeister1_undo, "X(1,1,2,2)", 0, "O(1)\n"),
    (remove_component, "X(3,2,4,1) X(1,4,2,3)", 0, "O(1)\n"),
    (remove_component, "X(3,2,4,1) X(1,4,2,3)", 1, "O(1)\n"),
], ids=["path", "self-join", "two-arc-cycle-0", "two-arc-cycle-1"])
def test_each_run_shape_of_joins_matches_the_crossing_drop(move, d, arg, want):
    """Each shape a run of joined arcs takes builds as the crossing drop
    builds it: a path takes its least label, and a self-join (a kinked
    crossing-free loop) or a cycle of two arcs (the other component of a
    Hopf link) is joined at both ends of every arc, a crossing-free
    loop."""
    d = parse_pd(d)
    out = move(d, arg)
    assert format_pd(out) == format_pd(_by_dropping(move, d, arg)) == want


# the work a replay skips ----------------------------------------------------------


def _chain_derivation(steps=12):
    """Chain moves from the 4-chain, k = -1 and +1 in turn, at seeded
    sites, with declared evidence: 8 + 3 * steps crossings."""
    rng = random.Random(2024)
    cert = menasco_certify(chain_link(ChainSpec(4)))
    for i in range(steps):
        site = rng.choice(find_chain_sites(cert.subject))
        cert = extend(cert, ChainStep(site.trivial_component, (site.strand1, site.strand2),
                                      1 if i % 2 else -1, EVIDENCE))
    return cert


def test_verify_builds_no_validity_report():
    """Verifying a 12-step chain derivation read from its document builds
    no report: each guard reads the analysis' flags.  The replay ends on
    the subject's very crossings, so the subject is never analysed.  The
    memos are emptied first, so the base is parsed and certified in full."""
    doc = serialize(_chain_derivation())
    forget_memos()
    cert = deserialize(doc)
    report, reports = dg._Analysis.report, []

    def counted(an):
        reports.append(an)
        return report(an)

    with mock.patch.object(dg._Analysis, "report", counted):
        verdict = verify(cert)
    assert verdict.valid
    assert reports == []
    assert "_analysis" not in vars(cert.subject)


def test_an_equal_diagram_is_never_analysed():
    """An isomorphism test against a diagram of equal crossings and loops
    answers from the equality, and one against a relabelled copy analyses
    both diagrams."""
    d = tk_closure([2, 3], 1)
    same = LinkDiagram(d.crossings, loops=d.loops)
    assert diagram_isomorphic(d, same)
    assert "_analysis" not in vars(same)
    relabelled = LinkDiagram(tuple(dg.Crossing(tuple(a + 1 for a in x.slots))
                                   for x in d.crossings), loops=d.loops)
    assert diagram_isomorphic(d, relabelled)
    assert "_analysis" in vars(relabelled)


def test_a_fragment_side_is_read_only_on_a_judge_miss():
    """A fragment side is read, off the fragment's tangle, only when the
    judge memo misses: over two rounds of the same moves, the first reads the
    side of each fragment once and the second reads none and gives the
    same diagrams; and one fragment, the R2 bigon, spliced onto two base
    side shapes is judged twice and read twice."""
    site = find_chain_sites(_CHAIN4)[1]
    calls = [(chain_move, _CHAIN4, site, 1, EVIDENCE),
             (augmented_chain_move, _CHAIN4, site, -1, EVIDENCE),
             (augmenting_circle, _CHAIN4, 1, 4), (half_twist, _CHAIN4, 1, +1),
             (half_twist, _CHAIN4, 2, -1), (reidemeister2, _CHAIN4, (1, 4))]
    side, splice, read, spliced = dg._fragment_side, dg.splice, [], set()

    def counted_side(rows):
        read.append(True)
        return side(rows)

    def logged_splice(base, emit, *args, **kwargs):
        spliced.add(emit)
        return splice(base, emit, *args, **kwargs)

    forget_memos()
    rounds = []
    with mock.patch.object(dg, "_fragment_side", counted_side), \
            mock.patch.object(dg, "splice", logged_splice), \
            mock.patch.object(mv, "splice", logged_splice):
        for _ in range(2):
            del read[:]
            rounds.append(([format_pd(move(*args)) for move, *args in calls], list(read)))
    (first, first_read), (second, second_read) = rounds
    assert first == second
    assert len(spliced) == len(calls)  # each move splices a fragment of its own
    assert first_read == [True] * len(calls)
    assert second_read == []

    forget_memos()
    del read[:]
    with mock.patch.object(dg, "_fragment_side", counted_side):
        for pair in ((1, 4), (1, 2)):
            reidemeister2(_CHAIN4, pair)
    assert dg._judged.cache_info().misses == 2
    assert read == [True, True]


_PLAN = (ChainStep, AugChainStep, ChainStep, SwitchStep, HalfTwistStep, HalfTwistStep,
         SwitchStep, HalfTwistStep, SwitchStep, HalfTwistStep)


def _mixed_derivation():
    """A seeded derivation from the 4-chain through every kind of move in
    `_PLAN`'s order: chain and augmented chain moves, switch moves of
    either handedness and half twists, each step the first that applies
    of candidates drawn from its subject."""
    rng = random.Random(2025)
    cert = menasco_certify(chain_link(ChainSpec(4)))
    premise = Premise("GeodesicArc", "splice test")
    for kind in _PLAN:
        d = cert.subject
        if kind is SwitchStep:
            faces = [sorted(set(f))[:2] for f in d.face_arcs() if len(set(f)) > 1]
            steps = [SwitchStep(*rng.choice(faces), rng.choice(list(Handedness)), premise)]
        elif kind is HalfTwistStep:
            steps = [HalfTwistStep(c, rng.choice((-1, 1))) for c in range(components(d).count)]
        else:
            steps = [kind(site.trivial_component, (site.strand1, site.strand2),
                          rng.choice((-1, 1)), EVIDENCE) for site in find_chain_sites(d)]
        rng.shuffle(steps)
        for step in steps:
            try:
                cert = extend(cert, step)
                break
            except SiteError:
                continue
    assert len(cert.steps) == len(_PLAN)
    return cert


def test_a_warm_replay_judges_no_wiring_and_traces_no_face():
    """Verifying a derivation of every move kind a second time judges no
    wiring and makes no fragment tangle, since each splice's side shape
    was judged in the first, which kept the fragment's tangle, and, as in the first, no
    half twist traces a face: the half twist reads the two faces beside
    each arc of the ring.  Both give the same verdict, valid."""
    doc = serialize(_mixed_derivation())
    forget_memos()
    judge, faces, twist = dg._wiring_fault, dg._Analysis._faces_and_euler, mv.half_twist
    made = dg.open_tangle
    passes = []
    for _ in range(2):
        log = collections.Counter()

        def made_tangle(*args, **kwargs):
            log["tangles"] += 1
            return made(*args, **kwargs)

        def judged(*args):
            log["judged"] += 1
            return judge(*args)

        def traced(an):
            log["traced"] += 1
            return faces(an)

        def twisted(*args):
            before = log["traced"]
            log["twists"] += 1
            out = twist(*args)
            log["traced by twists"] += log["traced"] - before
            return out

        with mock.patch.object(dg, "_wiring_fault", judged), \
                mock.patch.object(dg._Analysis, "_faces_and_euler", traced), \
                mock.patch.object(mv, "half_twist", twisted), \
                mock.patch.object(dg, "open_tangle", made_tangle), \
                mock.patch.object(mv, "open_tangle", made_tangle):
            verdict = verify(deserialize(doc))
        passes.append((verdict, log))
    (cold, cold_log), (warm, warm_log) = passes
    assert cold.valid and warm == cold
    assert cold_log["judged"] > 0 and cold_log["tangles"] > 0 and cold_log["twists"] >= 4
    assert warm_log["twists"] == cold_log["twists"]
    assert warm_log["judged"] == warm_log["traced"] == cold_log["traced by twists"] == 0
    assert warm_log["tangles"] == 0


@settings(max_examples=60, deadline=None)
@given(_BASES, st.data())
def test_require_valid_refuses_with_the_report(d, data):
    """`require_valid` on scrambled crossings that are not valid raises the
    report `validate` gives, which is the eager one; it passes the valid
    ones, reading the flags alone, with no report built."""
    *_, d = r_moves(d, data)
    crossings = tuple(scrambled_crossings(d, data))
    want = validate(LinkDiagram(crossings, loops=d.loops))
    checked = LinkDiagram(crossings, loops=d.loops)
    if want.valid:
        checked.require_valid()
        assert "validity" not in vars(checked._analysis)
        return
    with pytest.raises(InvalidDiagramError) as refusal:
        checked.require_valid()
    assert refusal.value.report == want == eager_report(checked)


def test_a_dropped_diagram_is_freed_without_the_collector():
    """An analysed diagram is on no reference cycle: with the cyclic
    collector off, a parsed and validated diagram and a splice output,
    its faces read, each die at `del`."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        d = parse_pd(format_pd(_CHAIN4))
        validate(d), d.face_arcs()
        out = half_twist(d, 1, +1)
        validate(out), out.face_arcs()
        refs = [weakref.ref(d), weakref.ref(out)]
        del d, out
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_the_judge_memo_is_bounded():
    """A chain step's k comes from a document, so a process may meet any
    number of Tk fragments: after extending with 300 distinct k, the
    judge memo holds no more than its maxsize."""
    cert = menasco_certify(chain_link(ChainSpec(3)))
    site = find_chain_sites(cert.subject)[0]
    for k in range(-150, 150):
        extend(cert, ChainStep(site.trivial_component, (site.strand1, site.strand2), k, EVIDENCE))
    info = dg._judged.cache_info()
    assert info.maxsize is not None and info.maxsize < 300
    assert info.currsize <= info.maxsize
