"""PD-code core: validity, components, linking, predicates, R-moves,
isomorphism, Gauss codes, and the text formats."""

import functools
import itertools
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hyperforge.diagram import (
    Crossing,
    GaussCode,
    LinkDiagram,
    braid2_template,
    components,
    diagram_isomorphic,
    find_kinks,
    find_r2_bigons,
    format_gauss,
    format_pd,
    from_gauss,
    is_2braid,
    is_alternating,
    is_prime_diagram,
    is_reduced,
    is_split,
    linking_number,
    parse_gauss,
    parse_pd,
    reduce_diagram,
    reidemeister1,
    reidemeister1_undo,
    reidemeister2,
    reidemeister2_undo,
    to_gauss,
    two_braid_status,
    two_edge_cuts,
    validate,
)
import hyperforge.diagram as dg
from hyperforge.errors import FormatError, InvalidDiagramError, SiteError
from hyperforge.generators import ChainSpec, chain_link, exceptional_links, rational_link, tk_closure

from oracles import (
    diagram_isomorphic_oracle,
    eager_report,
    faces_oracle,
    find_kinks_oracle,
    find_r2_bigons_oracle,
    gauss_linking_oracle,
    graph_comps_oracle,
    is_braid2_form_oracle,
    parse_pd_oracle,
    slot_faces,
    two_edge_cuts_oracle,
    union_find_component_count,
)

HOPF = "X(3,2,4,1) X(1,4,2,3)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def relabeled(d, shift=100):
    return LinkDiagram(
        tuple(Crossing(tuple(a + shift for a in x.slots)) for x in d.crossings),
        loops=d.loops,
    )


# validity -----------------------------------------------------------------


def test_unknot_loop_valid(unknot_loop):
    rep = validate(unknot_loop)
    assert rep.valid and rep.faces == 2 and rep.vertices == 0


def test_hopf_template_valid():
    rep = validate(parse_pd(HOPF))
    assert rep.valid
    assert (rep.vertices, rep.edges, rep.faces, rep.graph_components) == (2, 4, 4, 1)


def test_single_occurrence_invalid():
    rep = validate(parse_pd("X(1,2,3,4)"))
    assert not rep.valid and not rep.double_occurrence


# Malformed diagrams: a label used once or three times, a strand whose under-
# passages disagree, a Gauss word with no planar realisation (X(3,2,4,1)
# X(2,1,3,4) is "1: +1o, +2u, +1u, +2o"), and the two last combined.  The
# summaries and counts are those of the one-pass analysis the lazy stages
# replaced.
MALFORMED = [
    ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,7)",
     "arc 3 used 1 times (need 2); arc 7 used 1 times (need 2)", (3, 6, 0, 0)),
    ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,1) O(1)",
     "arc 1 used 3 times (need 2); arc 3 used 1 times (need 2)", (3, 6, 2, 1)),
    ("X(2,5,1,4) X(3,6,4,1) X(5,2,6,3)",
     "component of arc 1 has conflicting under-strand directions", (3, 6, 5, 1)),
    ("X(3,2,4,1) X(2,1,3,4)",
     "graph component 0 fails Euler check: V=2 E=4 F=2", (2, 4, 2, 1)),
    ("X(4,1,3,2) X(2,1,3,4)",
     "component of arc 1 has conflicting under-strand directions; "
     "graph component 0 fails Euler check: V=2 E=4 F=2", (2, 4, 2, 1)),
    ("X(3,2,4,1) X(2,1,3,4) X(12,15,11,14) X(13,16,14,11) X(15,12,16,13)",
     "component of arc 11 has conflicting under-strand directions; "
     "graph component 0 fails Euler check: V=2 E=4 F=2", (5, 10, 6, 2)),
]


@pytest.mark.parametrize("pd,summary,counts", MALFORMED)
def test_malformed_reports_match_eager_analysis(pd, summary, counts):
    """The report lists problems in the order occurrences, trace, faces
    whichever stage ran first: asked for directly, after the faces alone,
    from an analysis with every stage forced up front, and raised by
    `require_valid`, which reads the flags first."""
    faces_first = parse_pd(pd)
    faces_first._analysis.planar_ok
    with pytest.raises(InvalidDiagramError) as refusal:
        parse_pd(pd).require_valid()
    for rep in (validate(parse_pd(pd)), validate(faces_first), eager_report(parse_pd(pd)),
                refusal.value.report):
        assert not rep.valid
        assert rep.summary() == summary
        assert rep.problems == tuple(summary.split("; "))
        assert (rep.vertices, rep.edges, rep.faces, rep.graph_components) == counts


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(1, 2 * n + 1), min_size=4 * n, max_size=4 * n)
), st.integers(0, 1), st.booleans())
def test_random_pd_reports_match_eager_analysis(labels, loops, faces_first):
    """Crossing tuples over a few labels: mostly labels used once or three
    times, orientation conflicts and non-planar words, some valid."""
    d = LinkDiagram(
        tuple(Crossing(tuple(labels[i:i + 4])) for i in range(0, len(labels), 4)), loops=loops
    )
    if faces_first:
        d._analysis.planar_ok
    rep, eager = validate(d), eager_report(d)
    assert rep == eager
    assert rep.summary() == eager.summary()


def test_threads_sharing_a_diagram_get_one_report():
    """Threads that analyse one fresh diagram at once, some asking for the
    faces first, all read the eager report, no problem line repeated."""
    pd = MALFORMED[-1][0]
    want = eager_report(parse_pd(pd))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            d = parse_pd(pd)
            reports = []

            def read(faces_first):
                if faces_first:
                    d._analysis.planar_ok
                reports.append(validate(d))

            threads = [threading.Thread(target=read, args=(i % 2,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert reports == [want] * 8
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("query", ["occurrences", "head_of", "tail_of"])
def test_an_arc_the_diagram_lacks_is_a_site_error(query):
    """Asking for the places of an arc the diagram does not have names the
    arc in a SiteError, as the moves' own arc checks do."""
    with pytest.raises(SiteError, match=r"^no arc 999$"):
        getattr(chain_link(ChainSpec(4)), query)(999)


def test_trefoil_valid(trefoil):
    rep = validate(trefoil)
    assert rep.valid and rep.vertices == 3 and rep.edges == 6 and rep.faces == 5


# components ---------------------------------------------------------------


def test_components_unknot(unknot_loop):
    assert components(unknot_loop).count == 1


def test_components_hopf_vs_union_find():
    d = parse_pd(HOPF)
    assert components(d).count == 2 == union_find_component_count(d)


def test_components_4chain():
    d = chain_link(ChainSpec(4))
    assert components(d).count == 4 == union_find_component_count(d)


def test_components_random_diagrams_match_oracle():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        tw = tuple(rng.randint(-2, 2) for _ in range(n))
        d = chain_link(ChainSpec(n, tw))
        assert components(d).count == union_find_component_count(d)


def test_component_numbering_deterministic():
    d = chain_link(ChainSpec(3))
    part = components(d)
    firsts = [cyc[0] for cyc in part.cycles]
    assert firsts == sorted(firsts)


# linking numbers ----------------------------------------------------------


def test_linking_split_unknots():
    d = LinkDiagram((), loops=2)
    assert linking_number(d, 0, 1) == 0


def test_linking_hopf():
    d = parse_pd(HOPF)
    assert abs(linking_number(d, 0, 1)) == 1
    assert linking_number(d, 0, 1) == linking_number(d, 1, 0)
    assert linking_number(d, 0, 1) == gauss_linking_oracle(d, 0, 1)


def test_linking_chain_adjacent_and_far():
    # a closed 4-chain: every ring clasps two neighbors and misses one
    d = chain_link(ChainSpec(4))
    for a in range(4):
        row = sorted(abs(linking_number(d, a, b)) for b in range(4) if b != a)
        assert row == [0, 1, 1]
    for a in range(4):
        for b in range(a + 1, 4):
            assert linking_number(d, a, b) == gauss_linking_oracle(d, a, b)


def test_linking_same_component_rejected(trefoil):
    with pytest.raises(SiteError):
        linking_number(trefoil, 0, 0)


def test_linking_invariant_under_r_moves():
    rng = random.Random(5)
    d = chain_link(ChainSpec(3))
    want = {(a, b): linking_number(d, a, b) for a in range(3) for b in range(a + 1, 3)}
    cur = d
    for _ in range(6):
        if rng.random() < 0.5:
            arc = rng.choice(cur.arcs)
            cur = reidemeister1(cur, arc, rng.choice((1, -1)))
        else:
            fa = cur.face_arcs()
            face = fa[rng.randrange(len(fa))]
            uniq = sorted(set(face))
            if len(uniq) < 2:
                continue
            cur = reidemeister2(cur, (uniq[0], uniq[1]))
        for (a, b), lk in want.items():
            assert linking_number(cur, a, b) == lk
    reduced, _, _ = reduce_diagram(cur)
    for (a, b), lk in want.items():
        assert linking_number(reduced, a, b) == lk


# predicates ---------------------------------------------------------------


def test_trefoil_predicates(trefoil):
    assert is_alternating(trefoil)
    assert is_reduced(trefoil)
    assert is_prime_diagram(trefoil)
    assert not is_split(trefoil)
    assert is_2braid(trefoil)


def test_4chain_predicates():
    d = chain_link(ChainSpec(4))
    assert is_alternating(d) and is_reduced(d) and is_prime_diagram(d)
    assert not is_split(d)
    assert two_braid_status(d) == "no"


def test_split_union():
    assert is_split(LinkDiagram((), loops=2))
    assert not is_prime_diagram(LinkDiagram((), loops=2))


def test_predicates_relabel_invariant(trefoil):
    for d in (trefoil, chain_link(ChainSpec(3)), parse_pd(HOPF)):
        r = relabeled(d)
        assert is_alternating(d) == is_alternating(r)
        assert is_reduced(d) == is_reduced(r)
        assert is_prime_diagram(d) == is_prime_diagram(r)
        assert is_split(d) == is_split(r)


def test_kink_not_reduced(trefoil):
    k = reidemeister1(trefoil, 1, +1)
    assert not is_reduced(k)


def two_trefoils():
    t = parse_pd(TREFOIL)
    return LinkDiagram(t.crossings + relabeled(t).crossings)


def test_two_trefoils_every_pair_cut():
    d = two_trefoils()
    assert two_edge_cuts(d) == two_edge_cuts_oracle(d) == tuple(itertools.combinations(d.arcs, 2))


_SIGNED_SEQS = st.tuples(
    st.sampled_from((1, -1)), st.lists(st.integers(0, 3), min_size=1, max_size=3)
).map(lambda sc: [sc[0] * c for c in sc[1]])
_CUT_BASES = st.one_of(
    st.integers(2, 5)
    .flatmap(lambda n: st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    .map(lambda tw: chain_link(ChainSpec(len(tw), tuple(tw)))),
    _SIGNED_SEQS.map(rational_link),
    st.tuples(_SIGNED_SEQS, st.integers(-2, 2)).map(lambda sk: tk_closure(*sk)),
    st.sampled_from(exceptional_links()),
    st.just(two_trefoils()),
)


def r_moves(d, data):
    """d, then d after each of up to three random kinks and R2 bigons."""
    yield d
    for _ in range(data.draw(st.integers(0, 3))):
        if not d.crossings or data.draw(st.booleans()):
            arc = data.draw(st.sampled_from(d.arcs)) if d.arcs else None
            d = reidemeister1(d, arc, data.draw(st.sampled_from((1, -1))))
        else:
            uniq = sorted(set(data.draw(st.sampled_from(d.face_arcs()))))
            if len(uniq) < 2:
                continue
            a, b = data.draw(st.permutations(uniq))[:2]
            d = reidemeister2(d, (a, b), data.draw(st.sampled_from(("first_over", "second_over"))))
        yield d


@settings(max_examples=80, deadline=None)
@given(_CUT_BASES, st.data())
def test_two_edge_cuts_match_oracle(d, data):
    """The face-pair reading returns the per-pair union-find's exact tuple,
    also after random kinks (which add cuts) and R2 bigons.  A connected
    diagram of two or more crossings with a nugatory crossing has a 2-edge
    cut, so the certifier refuses it as not prime before any reducedness
    test; and every strand word has even length, so alternation alone
    decides it."""
    for d in r_moves(d, data):
        assert two_edge_cuts(d) == two_edge_cuts_oracle(d)
        if not is_split(d) and len(d.crossings) >= 2 and not is_reduced(d):
            assert two_edge_cuts(d)
        assert all(len(steps) % 2 == 0 for steps in d._analysis.steps)


def swapped(d, data):
    """d's scrambled crossings, two neighbouring slots swapped at some of
    them: every arc still occurs twice, but the rotation at a swapped
    crossing is no longer the diagram's, so most fail the Euler check."""
    crossings = scrambled_crossings(d, data)
    for ci in data.draw(st.sets(st.sampled_from(range(len(crossings))), min_size=1)
                        if crossings else st.just(())):
        s = data.draw(st.integers(0, 3))
        slots = list(crossings[ci].slots)
        slots[s], slots[(s + 1) % 4] = slots[(s + 1) % 4], slots[s]
        crossings[ci] = Crossing(tuple(slots))
    return LinkDiagram(tuple(crossings), loops=d.loops)


def _face_stages(d):
    """The face stage of a fresh analysis of d, and the face oracle's."""
    fresh = LinkDiagram(d.crossings, loops=d.loops)
    return slot_faces(dg._Analysis(d.crossings, d.loops)._faces_and_euler()), faces_oracle(fresh)


def _graph_comps(d):
    """The graph components of a fresh analysis of d, and the oracle's."""
    fresh = LinkDiagram(d.crossings, loops=d.loops)
    return dg._Analysis(d.crossings, d.loops).graph_comp_of, dict(enumerate(graph_comps_oracle(fresh)))


@settings(max_examples=80, deadline=None)
@given(_CUT_BASES, st.data())
def test_face_stage_matches_oracle(d, data):
    """The faces, face arcs, graph components and Euler problems read over
    the corner map are the oracle's, on valid diagrams after R1 and R2
    moves and on crossings with neighbouring slots swapped."""
    for e in (*r_moves(d, data), swapped(d, data)):
        got, want = _face_stages(e)
        assert got == want
        got, want = _graph_comps(e)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("pd", [pd for pd, *_ in MALFORMED[2:]])
def test_face_stage_matches_oracle_on_malformed(pd):
    """Every arc occurs twice in these words, and all but the first fail
    the Euler check."""
    got, want = _face_stages(parse_pd(pd))
    assert got == want
    assert bool(got.problems) == (pd != MALFORMED[2][0])
    got, want = _graph_comps(parse_pd(pd))
    assert list(got.items()) == list(want.items())


def test_connected_sum_not_prime(trefoil):
    # granny-sum style: two braid templates joined along a pair of arcs would
    # need surgery; instead check the linear-chain composite detected below
    from hyperforge.generators import tk_closure

    d = tk_closure([0, 0], 0)  # infinity exterior: a linear 4-chain
    assert not is_prime_diagram(d)


# Reidemeister moves ---------------------------------------------------------


def test_r1_pair_isomorphic(trefoil):
    k = reidemeister1(trefoil, 2, +1)
    assert validate(k).valid and len(k.crossings) == 4
    assert components(k).count == components(trefoil).count
    back = reidemeister1_undo(k, find_kinks(k)[0])
    assert diagram_isomorphic(back, trefoil)


def test_r1_on_loop(unknot_loop):
    k = reidemeister1(unknot_loop, None, +1)
    assert validate(k).valid and len(k.crossings) == 1 and k.loops == 0
    assert components(k).count == 1
    assert reidemeister1_undo(k, 0).loops == 1


def test_r2_pair_isomorphic(trefoil):
    d2 = reidemeister2(trefoil, (1, 3))
    assert validate(d2).valid and len(d2.crossings) == 5
    assert components(d2).count == 1
    pair = find_r2_bigons(d2)[0]
    back = reidemeister2_undo(d2, pair)
    assert diagram_isomorphic(back, trefoil)


def test_r2_pair_hopf():
    h = parse_pd(HOPF)
    pair = next(tuple(sorted(set(f)))[:2] for f in h.face_arcs() if len(set(f)) >= 2)
    d = reidemeister2(h, pair)
    red, steps, stable = reduce_diagram(d)
    assert stable and steps >= 1 and diagram_isomorphic(red, h)


def test_r2_needs_shared_face():
    d = chain_link(ChainSpec(4))
    part = components(d)
    a = part.arcs_of(0)[0]
    far = part.arcs_of(2)[0]
    if not any(a in fa and far in fa for fa in d.face_arcs()):
        with pytest.raises(SiteError):
            reidemeister2(d, (a, far))


def test_one_bigon_scan_per_r2_step():
    # reduce_diagram undoes the bigon it found without scanning for it again
    d = chain = chain_link(ChainSpec(4))
    for _ in range(3):
        d = reidemeister2(d, sorted(set(next(f for f in d.face_arcs() if len(set(f)) > 1)))[:2])
    assert len(d.crossings) == 14
    scans = []

    def counted(x):
        scans.append(x)
        return find_r2_bigons(x)

    with mock.patch.object(dg, "find_r2_bigons", counted):
        red, steps, stable = reduce_diagram(d)
    assert (steps, stable, len(scans)) == (3, True, 4)
    assert diagram_isomorphic(red, chain)


def _builders_and_builds(call, *args):
    """(builders made, builds, result) of ``call(*args)``."""
    init, build, made, built = dg.DiagramBuilder.__init__, dg.DiagramBuilder.build, [], []

    def counted_init(bld, *rest):
        made.append(bld)
        init(bld, *rest)

    def counted_build(bld, *rest, **kwargs):
        built.append(bld)
        return build(bld, *rest, **kwargs)

    with mock.patch.object(dg.DiagramBuilder, "__init__", counted_init), \
            mock.patch.object(dg.DiagramBuilder, "build", counted_build):
        out = call(*args)
    return len(made), len(built), out


def test_a_reduction_edits_one_builder():
    """A reduction of one or more steps, kinks and bigons, makes one builder
    and builds it once; a reduced diagram is returned as it is, with no
    builder, and so is one out of budget at once."""
    chain = chain_link(ChainSpec(4))
    d = reidemeister1(reidemeister2(chain, (1, 4)), 1, -1)
    made, built, (red, steps, stable) = _builders_and_builds(reduce_diagram, d)
    assert (made, built, steps, stable) == (1, 1, 2, True)
    assert format_pd(red) == format_pd(chain)
    assert _builders_and_builds(reduce_diagram, d, 1)[:2] == (1, 1)
    assert _builders_and_builds(reduce_diagram, d, 0) == (0, 0, (d, 0, False))
    assert _builders_and_builds(reduce_diagram, chain) == (0, 0, (chain, 0, True))


def test_a_closed_tangle_needs_no_builder():
    """Every generator closes its tangle (`closed`) with no builder, and a
    tangle whose labels do not each occur twice is refused with its
    report."""
    for call, arg in ((chain_link, ChainSpec(6, (1, -2, 0, 0, 1, 0))),
                      (rational_link, (2, 2, 2)), (lambda s: tk_closure(s, 1), (3, 2)),
                      (braid2_template, 7)):
        made, built, d = _builders_and_builds(call, arg)
        assert (made, built) == (0, 0) and validate(d).valid
    with pytest.raises(InvalidDiagramError) as err:
        dg.closed([("a", "b", "a", "c")])
    assert err.value.report.problems == ("arc 2 used 1 times (need 2)",
                                         "arc 3 used 1 times (need 2)")


def _oracle_reduction(d):
    """d and every intermediate of its greedy R1/R2 reduction, each step
    chosen by the scan oracles."""
    while True:
        yield d
        kinks = find_kinks_oracle(d)
        if kinks:
            d = reidemeister1_undo(d, kinks[0])
            continue
        bigons = find_r2_bigons_oracle(d)
        if not bigons:
            return
        d = dg._undo_bigon(d, *bigons[0])


@settings(max_examples=80, deadline=None)
@given(st.one_of(_CUT_BASES, st.just(parse_pd(HOPF))), st.data())
def test_r1_r2_scans_match_oracle(d, data):
    """The kink and bigon scans read off the slots and the corner map give
    the old scans' exact tuples, on chain, rational, Tk, exceptional and
    Hopf diagrams, after random R1 and R2 moves, and on every intermediate
    of each one's reduction, which ends where `reduce_diagram` ends."""
    for e in r_moves(d, data):
        for x in _oracle_reduction(e):
            assert find_kinks(x) == find_kinks_oracle(x)
            assert find_r2_bigons(x) == find_r2_bigons_oracle(x)
        reduced, _, stable = reduce_diagram(e)
        assert stable and (reduced.crossings, reduced.loops) == (x.crossings, x.loops)


def test_reduce_budget():
    d = chain_link(ChainSpec(3))
    cur = d
    for arc in list(cur.arcs)[:3]:
        cur = reidemeister1(cur, arc, -1)
    red, steps, stable = reduce_diagram(cur, budget=1)
    assert steps == 1 and not stable


# 2-braid detection -----------------------------------------------------------


def test_braid2_templates():
    for n in (2, 3, 4, 5):
        t = braid2_template(n)
        assert validate(t).valid and is_alternating(t)
        assert is_2braid(t)
    assert two_braid_status(chain_link(ChainSpec(2))) == "yes"


def test_2braid_after_kinks(trefoil):
    d = reidemeister1(reidemeister1(trefoil, 2, 1), 3, -1)
    assert is_2braid(d)


def _template_face_sizes(n):
    return [2] * n + [n, n]


def test_every_braid2_template_passes_the_face_check():
    for n in range(2, 41):
        for mirror in (False, True):
            t = braid2_template(n, mirror)
            assert sorted(map(len, t.face_arcs())) == _template_face_sizes(n)
            assert dg._is_braid2_form(t)


def test_braid2_face_sizes_alone_never_answer_yes():
    """A template with one crossing's over and under exchanged has the
    template's face sizes but is not alternating, so the rooted walk runs
    against both hands and answers no."""
    for n in range(2, 9):
        crossings = list(braid2_template(n).crossings)
        crossings[0] = crossings[0].rotated(1)
        flipped = renormalized(crossings, 0)
        assert validate(flipped).valid and not is_alternating(flipped)
        assert sorted(map(len, flipped.face_arcs())) == _template_face_sizes(n)
        with mock.patch.object(dg, "diagram_isomorphic", wraps=dg.diagram_isomorphic) as walk:
            assert not dg._is_braid2_form(flipped)
        assert walk.call_count == 2
        assert not is_braid2_form_oracle(flipped)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_CUT_BASES, st.builds(braid2_template, st.integers(2, 12), st.booleans())),
       st.data())
def test_braid2_form_matches_oracle(d, data):
    """Filtering by face sizes first never changes the answer: on chain,
    rational, Tk, exceptional and template diagrams, their R1/R2-moved
    copies, and the stable reduction of each."""
    for e in r_moves(d, data):
        reduced, _, stable = reduce_diagram(e)
        for x in (e, reduced) if stable else (e,):
            assert dg._is_braid2_form(x) == is_braid2_form_oracle(x)


# isomorphism -----------------------------------------------------------------


def test_isomorphic_relabel(trefoil):
    assert diagram_isomorphic(trefoil, relabeled(trefoil))


def test_trefoil_not_mirror(trefoil):
    assert diagram_isomorphic(trefoil, braid2_template(3))
    assert not diagram_isomorphic(trefoil, braid2_template(3, mirror=True))


def test_chains_not_isomorphic():
    assert not diagram_isomorphic(chain_link(ChainSpec(4)), chain_link(ChainSpec(5)))


def test_loops_counted():
    assert not diagram_isomorphic(LinkDiagram((), loops=1), LinkDiagram((), loops=2))


def disjoint_union(d, e):
    """d and e side by side, e's arcs shifted past d's."""
    shift = max(d.arcs, default=0)
    return LinkDiagram(d.crossings + relabeled(e, shift).crossings, loops=d.loops + e.loops)


def mirrored(d):
    return renormalized([x.rotated(1) for x in d.crossings], d.loops)


def test_components_matched_one_to_one(trefoil):
    """Components pair off by isomorphism, and a component that covers a
    smaller one twice (the 6-crossing twist region wraps twice round the
    3-crossing one) is not matched to it."""
    three = braid2_template(3)
    assert not diagram_isomorphic(braid2_template(6), disjoint_union(three, three))
    assert not diagram_isomorphic_oracle(braid2_template(6), disjoint_union(three, three))
    left = braid2_template(3, mirror=True)
    assert diagram_isomorphic(disjoint_union(trefoil, left), disjoint_union(left, trefoil))
    assert not diagram_isomorphic(disjoint_union(trefoil, left), two_trefoils())
    assert not diagram_isomorphic(two_trefoils(), disjoint_union(left, left))


def scrambled_crossings(d, data):
    """d's crossings with their arcs relabelled, reordered and turned by 0 or 2."""
    arcs = d.arcs
    label = dict(zip(arcs, data.draw(st.permutations([a + 7 for a in arcs]))))
    order = data.draw(st.permutations(range(len(d.crossings))))
    turns = data.draw(st.lists(st.sampled_from((0, 2)), min_size=len(order), max_size=len(order)))
    return [
        Crossing(tuple(label[a] for a in d.crossings[ci].slots)).rotated(r)
        for ci, r in zip(order, turns)
    ]


def renormalized(crossings, loops, frozen=(), allow_reorient=False):
    """``crossings`` and ``loops`` as a build orients them: placed into a
    builder of the empty diagram, which `DiagramBuilder.settle` orients
    with the ``frozen`` crossings voting (turning a frozen crossing only
    when ``allow_reorient``) before it is built."""
    bld = dg.DiagramBuilder(LinkDiagram())
    labels = max((a for x in crossings for a in x.slots), default=0)
    bld.place((tuple(x.slots for x in crossings), labels, loops), ())
    bld.settle(frozen, allow_reorient)
    return bld.build()


def scrambled(d, data):
    """d scrambled, with the orientation convention applied afresh."""
    return renormalized(scrambled_crossings(d, data), d.loops)


def unions(*parts):
    """The disjoint union of ``parts``, in order."""
    return functools.reduce(disjoint_union, parts)


# One graph component each (and loops); the test unions up to four of them
_ISO_BASES = st.tuples(_CUT_BASES.filter(lambda d: not is_split(d)), st.integers(0, 2)).map(
    lambda dk: LinkDiagram(dk[0].crossings, loops=dk[0].loops + dk[1])
)
_TREFOIL, _MIRROR, _CINQUEFOIL = (braid2_template(3), braid2_template(3, mirror=True),
                                  braid2_template(5))
# components that match until the last one fails: a search that backtracks
# through the matched components' symmetries took 2 s on the last pair
_MANY_COMPONENTS = [
    (unions(*[_TREFOIL] * 4), unions(_TREFOIL, _TREFOIL, _MIRROR, _MIRROR)),
    (unions(_TREFOIL, _TREFOIL, _MIRROR, _MIRROR), unions(_MIRROR, _TREFOIL, _MIRROR, _TREFOIL)),
    (unions(*[_CINQUEFOIL] * 3, mirrored(_CINQUEFOIL)), unions(*[_CINQUEFOIL] * 4)),
]


@settings(max_examples=80, deadline=None)
@given(_ISO_BASES, st.data())
def test_isomorphism_matches_oracle(d, data):
    """The rooted walk answers as the backtracking search does, on
    relabelled, reordered, mirrored, R1/R2-moved and loop-added copies,
    and on diagrams of two to four graph components, some of which match
    until the last component fails."""
    *_, e = r_moves(d, data)
    *_, f = r_moves(d, data)
    pairs = [
        (d, scrambled(d, data)),
        (d, mirrored(d)),
        (d, LinkDiagram(d.crossings, loops=d.loops + 1)),
        (e, scrambled(e, data)),
        (e, mirrored(scrambled(e, data))),
        (e, f),
        (disjoint_union(d, e), scrambled(disjoint_union(e, d), data)),
        (disjoint_union(d, mirrored(d)), disjoint_union(d, d)),
        (unions(d, e, f), scrambled(unions(f, d, e), data)),
        (unions(d, d, d, e), unions(d, e, d, mirrored(d))),
        (unions(d, d, mirrored(d), e), unions(e, d, mirrored(d), d)),
    ] + _MANY_COMPONENTS
    for a, b in pairs:
        assert diagram_isomorphic(a, b) == diagram_isomorphic_oracle(a, b)
        assert diagram_isomorphic(b, a) == diagram_isomorphic_oracle(b, a)
    assert [diagram_isomorphic(a, b) for a, b in _MANY_COMPONENTS] == [False, True, False]
    assert diagram_isomorphic(d, scrambled(d, data))


# Gauss codes ------------------------------------------------------------------


def test_gauss_round_trip(trefoil):
    g = to_gauss(trefoil)
    assert diagram_isomorphic(from_gauss(g), trefoil)
    assert diagram_isomorphic(from_gauss(parse_gauss(format_gauss(g))), trefoil)


def test_gauss_round_trip_multi():
    d = chain_link(ChainSpec(3, (1, 0, -1)))
    assert diagram_isomorphic(from_gauss(to_gauss(d)), d)


def test_gauss_loops_survive():
    g = to_gauss(LinkDiagram((), loops=2))
    assert from_gauss(g).loops == 2


def test_non_realizable_gauss_rejected():
    # the virtual trefoil word: planarity fails the Euler check
    bad = parse_gauss("1: +1o, +2u, +1u, +2o")
    with pytest.raises(InvalidDiagramError):
        from_gauss(bad)


def test_sign_flip_rejected():
    bad = parse_gauss("1: -1u, +3o, -2u, -1o, +3u, -2o")
    with pytest.raises(InvalidDiagramError):
        from_gauss(bad)


def test_empty_diagram_empty_code():
    g = to_gauss(LinkDiagram())
    assert g.components == () and from_gauss(g).crossings == ()


# text formats -------------------------------------------------------------------


def test_pd_text_round_trip(trefoil):
    text = format_pd(trefoil)
    assert diagram_isomorphic(parse_pd(text), trefoil)


def test_pd_comments_and_whitespace():
    d = parse_pd("# a trefoil\n X( 1 ,4,2,5)\nX(3,6,4,1)   X(5,2,6,3) # tail\n")
    assert len(d.crossings) == 3


def test_pd_loops():
    d = parse_pd("O(2)")
    assert d.loops == 2 and format_pd(d) == "O(2)\n"


@pytest.mark.parametrize(
    "bad", ["X(1,2,3)", "X(1,2,3,4,5)", "Y(1,2,3,4)", "X(0,1,2,3)", "X(1,2,3,4) garbage"]
)
def test_pd_malformed(bad):
    with pytest.raises(FormatError):
        parse_pd(bad)


def _parsed(parse, text):
    """(crossings, loops) that ``parse`` reads from ``text``, or its FormatError text."""
    try:
        d = parse(text)
    except FormatError as err:
        return f"FormatError: {err}"
    return d.crossings, d.loops


_PD_PIECES = ["X", "O", "(", ")", ",", " ", "\n", "#", "0", "1", "12", "x", "-", "X(1,2,3,4)",
              "O(2)", "X (1, 2,3 , 4 )"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_PD_PIECES), max_size=12).map("".join),
                 st.text(max_size=20)))
def test_parse_pd_matches_oracle_on_junk(text):
    """Reading each token once gives the diagram, or the error text, of the
    tokenizer pass and second match per token: bare X and O tokens, unclosed
    parentheses, comments inside tokens, zero labels and any other text."""
    assert _parsed(parse_pd, text) == _parsed(parse_pd_oracle, text)


def test_gauss_malformed():
    with pytest.raises(FormatError):
        parse_gauss("1: +1x")
    with pytest.raises(FormatError):
        parse_gauss("no colon here at all +1o")


def test_a_gauss_document_with_a_loop_line_round_trips():
    """A comment, a blank line and a component line with no entries (a
    crossing-free loop) are read, the loop written back last, and the
    diagram keeps the loop; so does an empty component of a code."""
    g = parse_gauss("# a Hopf link and an unknot\n\n1: -2u, -1o\n2:\n3: -1u, -2o\n")
    assert format_gauss(g) == "1: -2u, -1o\n2: -1u, -2o\n3:\n"
    d = from_gauss(g)
    assert (format_pd(d), format_gauss(to_gauss(d))) == (
        "X(3,2,4,1)\nX(1,4,2,3)\nO(1)\n", format_gauss(g))
    assert from_gauss(GaussCode(((),))).loops == 1


@pytest.mark.parametrize("call, error, text", [
    (lambda: components(parse_pd(HOPF)).component_of(9), SiteError, "arc 9 not in any component"),
    (lambda: LinkDiagram((), loops=-1), FormatError, "loop count must be nonnegative"),
    (lambda: reidemeister1(parse_pd(TREFOIL), 1, 0), SiteError, "handedness must be +1 or -1"),
    (lambda: reidemeister1(parse_pd(TREFOIL), None, 1), SiteError,
     "no crossing-free loop to kink"),
    (lambda: parse_pd(TREFOIL).sign(3), SiteError, "no crossing 3"),
    (lambda: parse_pd(TREFOIL).sign(-1), SiteError, "no crossing -1"),
    (lambda: reidemeister1_undo(parse_pd(TREFOIL), 3), SiteError, "no crossing 3"),
    (lambda: reidemeister1_undo(parse_pd(TREFOIL), 0), SiteError, "crossing 0 is not a kink"),
    (lambda: reidemeister2(parse_pd(TREFOIL), (1, 4), "sideways"), SiteError,
     "layering must be first_over or second_over"),
    (lambda: reidemeister2_undo(parse_pd(TREFOIL), (0, 1)), SiteError,
     "crossings (0, 1) do not bound an R2 bigon"),
    (lambda: braid2_template(0), SiteError, "template needs at least one crossing"),
    (lambda: from_gauss(GaussCode((((1, True, 0), (1, False, 0)),))), FormatError,
     "crossing 1: sign must be +1 or -1"),
    (lambda: from_gauss(parse_gauss("1: +1o, -1u")), FormatError,
     "crossing 1: inconsistent signs"),
    (lambda: from_gauss(parse_gauss("1: +1o, +1o")), FormatError,
     "crossing 1: duplicate over passage"),
    (lambda: from_gauss(parse_gauss("1: +2o, +2u")), FormatError, "crossing ids must be 1..n"),
    (lambda: from_gauss(parse_gauss("1: +1o")), FormatError,
     "crossing 1: needs one over and one under passage"),
], ids=["unknown-arc", "negative-loops", "bad-handedness", "no-loop-to-kink",
        "no-crossing-to-sign", "negative-crossing-to-sign", "no-crossing-to-unkink", "not-a-kink", "bad-layering", "no-bigon", "empty-template",
        "gauss-sign", "gauss-signs-disagree", "gauss-duplicate", "gauss-ids", "gauss-one-passage"])
def test_input_refusals(call, error, text):
    """Each refusal of an input the diagram layer cannot take, with its
    text: an arc in no component, a negative loop count, a kink of no
    handedness or on no loop, the sign of no crossing, an R1 undo of no
    crossing or of one that is no kink, an R2 layering that is neither, an R2 undo with no bigon, an
    empty (2, n) template, and each fault of a Gauss code."""
    with pytest.raises(error) as refusal:
        call()
    assert str(refusal.value) == text


def test_two_braid_status_is_unknown_when_the_budget_runs_out():
    """A kinked (2, 3) template reduces to the template in one R1 step: with
    no step left in the budget the reduction is not stable, and the answer
    is "unknown"; with the default budget it is "yes"."""
    kinked = reidemeister1(braid2_template(3), 1, +1)
    assert two_braid_status(kinked, budget=0) == "unknown"
    assert two_braid_status(kinked) == "yes"
