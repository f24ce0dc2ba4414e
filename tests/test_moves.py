"""The rewrites: chain move, augmented chain move, switch move, half-twist,
site scanning, the Tk template (including its calibration pins), and the
crossings and components each move adds."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hyperforge.diagram as dg
import hyperforge.moves as moves
from hyperforge.classifier import DeclaredNonRational, Rational, Unchecked
from hyperforge.diagram import (
    LinkDiagram,
    components,
    diagram_isomorphic,
    linking_number,
    reduce_diagram,
    reidemeister2,
    remove_component,
    splice,
    validate,
)
from hyperforge.errors import ExcludedExteriorError, SiteError, WiringError
from hyperforge.generators import ChainSpec, chain_link, tk_closure
from hyperforge.moves import (
    Handedness,
    SwitchSite,
    TkTemplate,
    augmented_chain_move,
    augmenting_circle,
    chain_move,
    chain_site,
    find_chain_sites,
    half_twist,
    switch_move,
    _new_ring_component,
)
from hyperforge.tangle import ConwaySequence

from oracles import welded
from test_diagram import renormalized

EVIDENCE = DeclaredNonRational("test fixture")


def mirror_diagram(d):
    return renormalized([x.rotated(1) for x in d.crossings], d.loops)


def cross_component_face_pair(d):
    part = components(d)
    for arcs in d.face_arcs():
        uniq = sorted(set(arcs))
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                if part.component_of(uniq[i]) != part.component_of(uniq[j]):
                    return uniq[i], uniq[j]
    raise AssertionError("no cross-component face pair")


# site scanning ------------------------------------------------------------


def test_sites_on_4chain():
    sites = find_chain_sites(chain_link(ChainSpec(4)))
    assert len(sites) == 4
    for s in sites:
        assert s.strand1 != s.strand2
        assert len(set(s.crossings)) == 4


def test_no_sites_on_trefoil(trefoil):
    assert find_chain_sites(trefoil) == ()


def test_sites_on_tk_closure():
    # C1 and C2 both qualify in the closure of the template with R = [1]
    assert len(find_chain_sites(tk_closure([1], 0))) >= 2


def test_twisted_ring_not_a_site():
    sites = find_chain_sites(chain_link(ChainSpec(4, (1, 0, 0, 0))))
    assert len(sites) == 3


def test_site_patterns_recorded():
    for s in find_chain_sites(chain_link(ChainSpec(4))):
        assert s.pattern in ("alternating", "parallel")


def test_chain_site_matches_the_full_scan():
    # chain_site scans one component; it returns the site find_chain_sites
    # keeps for that component and strand pair, in either strand order
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    diagrams = [
        d4,
        chain_link(ChainSpec(4, (1, 0, 0, 0))),
        chain_link(ChainSpec(3, alternating=False)),
        tk_closure([1], 0),
        chain_move(d4, site, 2, EVIDENCE),
        augmented_chain_move(d4, site, -1, EVIDENCE),
    ]
    for d in diagrams:
        sites = find_chain_sites(d)
        assert sites
        for s in sites:
            assert chain_site(d, s.trivial_component, (s.strand1, s.strand2)) == s
            assert chain_site(d, s.trivial_component, (s.strand2, s.strand1)) == s
        for comp in range(-1, components(d).count + 1):
            if all(s.trivial_component != comp for s in sites):
                with pytest.raises(SiteError, match=f"^no chain site at component {comp} "):
                    chain_site(d, comp, sites[0].key()[1:])


# Tk template -----------------------------------------------------------------


def test_tk_crossing_counts():
    assert TkTemplate(0).crossing_count == 6
    assert TkTemplate(3).crossing_count == 9
    assert TkTemplate(-4).crossing_count == 10


def test_tk_closure_identity_small():
    for k in (-2, -1, 0, 1, 2):
        for s in ([-1], [0], [-2, 0]):
            assert diagram_isomorphic(
                tk_closure(s, k), tk_closure(s, 0, extra_twists=k)
            ), (s, k)


def test_template_calibration_bare_closure_is_nonalternating_3chain():
    # the closure with the 0-tangle exterior must be the genuine
    # non-alternating 3-chain (one of the exceptional links), drawn here as
    # the mirror image of the generator's drawing
    d0 = tk_closure([0], 0)
    non3 = chain_link(ChainSpec(3, alternating=False))
    assert diagram_isomorphic(d0, mirror_diagram(non3))


def test_template_calibration_half_exterior_linking_structure():
    # the '-2 0' exterior closure has the parallel-component structure of
    # the fourth exceptional link: four nonzero pairwise linking numbers
    # forming a cycle with product +1
    d = tk_closure([-2, 0], 0)
    part = components(d)
    assert part.count == 4
    lk = {
        (i, j): linking_number(d, i, j)
        for i in range(4)
        for j in range(i + 1, 4)
    }
    nonzero = {e: v for e, v in lk.items() if v}
    assert len(nonzero) == 4
    deg = {}
    for i, j in nonzero:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert sorted(deg.values()) == [2, 2, 2, 2]
    prod = 1
    for v in nonzero.values():
        prod *= v
    assert prod == +1
    # the mirror-value exterior does not have the exceptional structure
    d2 = tk_closure([2, 0], 0)
    lk2 = {
        (i, j): linking_number(d2, i, j)
        for i in range(4)
        for j in range(i + 1, 4)
    }
    prod2 = 1
    for v in lk2.values():
        if v:
            prod2 *= v
    assert prod2 == -1


# chain move --------------------------------------------------------------------


def test_chain_move_basic():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    d5 = chain_move(d4, site, 0, EVIDENCE)
    assert validate(d5).valid
    assert components(d5).count == 5
    assert len(d5.crossings) == len(d4.crossings) - 4 + 6


def test_chain_move_locality():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    d5 = chain_move(d4, site, 2, EVIDENCE)
    kept = [x for i, x in enumerate(d4.crossings) if i not in site.crossings]
    for x in kept:
        assert x in d5.crossings


def test_chain_move_linking_matrix():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    d5 = chain_move(d4, site, 0, EVIDENCE)
    part = components(d5)
    new_crossings = set(range(len(d4.crossings) - 4, len(d5.crossings)))
    rings = [
        c
        for c in range(len(part.cycles))
        if len(d5._analysis.steps[c]) == 4
        and {s >> 2 for s in d5._analysis.steps[c]}
        and all(s >> 2 in new_crossings for s in d5._analysis.steps[c])
    ]
    assert len(rings) == 2
    g1 = part.component_of(site.stubs[0])
    g2 = part.component_of(site.stubs[2])
    c1, c2 = rings
    if abs(linking_number(d5, c1, g1)) != 1:
        c1, c2 = c2, c1
    assert abs(linking_number(d5, c1, g1)) == 1
    assert abs(linking_number(d5, c1, c2)) == 1
    assert abs(linking_number(d5, c2, g2)) == 1
    assert linking_number(d5, c1, g2) == 0
    assert linking_number(d5, c2, g1) == 0


def test_chain_move_excluded_exterior():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    with pytest.raises(ExcludedExteriorError) as err:
        chain_move(d4, site, 3, Rational(ConwaySequence((-3,))))
    assert err.value.kind.name == "MinusK"


def test_chain_move_unchecked_allowed():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    assert validate(chain_move(d4, site, 0, Unchecked())).valid


def test_chain_move_stale_site():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    other = chain_link(ChainSpec(4, (1, 1, 1, 1)))
    with pytest.raises(SiteError):
        chain_move(other, site, 0, EVIDENCE)


def test_repeated_chain_moves():
    rng = random.Random(17)
    cur = chain_link(ChainSpec(4))
    for step in range(5):
        sites = find_chain_sites(cur)
        assert sites
        before = components(cur).count
        cur = chain_move(cur, sites[rng.randrange(len(sites))], rng.randint(-3, 3), EVIDENCE)
        assert components(cur).count == before + 1
        assert validate(cur).valid


def test_chain_move_on_2chain_gives_3chain_shape():
    d2 = chain_link(ChainSpec(2))
    sites = find_chain_sites(d2)
    assert sites
    d3 = chain_move(d2, sites[0], 0, EVIDENCE)
    assert validate(d3).valid and components(d3).count == 3
    assert len(d3.crossings) == 6


# augmented chain move -------------------------------------------------------------


def test_augmented_chain_move():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    d6 = augmented_chain_move(d4, site, 0, EVIDENCE)
    assert validate(d6).valid
    assert components(d6).count == 6
    # C keeps its four crossings
    pas = d6._analysis.steps[site.trivial_component]
    assert len(pas) == 4


def test_augmented_chain_move_twisted():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    d = augmented_chain_move(d4, site, 2, EVIDENCE)
    assert validate(d).valid and components(d).count == 6
    assert len(d.crossings) == len(d4.crossings) + 8


def test_augmented_chain_move_gate():
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    with pytest.raises(ExcludedExteriorError):
        augmented_chain_move(d4, site, 2, Rational(ConwaySequence((-2, -2))))


# switch move -----------------------------------------------------------------------


def test_switch_move_variants():
    d4 = chain_link(ChainSpec(4))
    g, u = cross_component_face_pair(d4)
    neg = switch_move(d4, SwitchSite(g, u), Handedness.NegativeSkew)
    pos = switch_move(d4, SwitchSite(g, u), Handedness.PositiveSkew)
    for out in (neg, pos):
        assert validate(out).valid
    assert len(neg.crossings) == len(d4.crossings) + 4
    assert len(pos.crossings) == len(d4.crossings) + 5
    assert components(neg).count - components(d4).count in (0, 1, 2)


def test_switch_ring_structure():
    d4 = chain_link(ChainSpec(4))
    g, u = cross_component_face_pair(d4)
    out = switch_move(d4, SwitchSite(g, u), Handedness.NegativeSkew)
    ring = _new_ring_component(out, set(range(len(d4.crossings), len(d4.crossings) + 4)))
    assert len(out._analysis.steps[ring]) == 4
    lks = sorted(
        (abs(linking_number(out, ring, c)) for c in range(components(out).count) if c != ring),
        reverse=True,
    )
    assert lks[:2] == [1, 1] and all(v == 0 for v in lks[2:])


def test_switch_handedness_related_by_half_twist():
    d4 = chain_link(ChainSpec(4))
    g, u = cross_component_face_pair(d4)
    neg = switch_move(d4, SwitchSite(g, u), Handedness.NegativeSkew)
    pos = switch_move(d4, SwitchSite(g, u), Handedness.PositiveSkew)
    new_crossings = set(range(len(d4.crossings), len(d4.crossings) + 4))
    ring_n = _new_ring_component(neg, new_crossings)
    ring_p = _new_ring_component(pos, new_crossings)
    assert diagram_isomorphic(half_twist(neg, ring_n, +1), pos)
    back, _, _ = reduce_diagram(half_twist(pos, ring_p, -1))
    assert diagram_isomorphic(back, neg)


def test_switch_same_arc_rejected():
    d4 = chain_link(ChainSpec(4))
    with pytest.raises(SiteError):
        switch_move(d4, SwitchSite(1, 1), Handedness.NegativeSkew)


def test_switch_needs_shared_face():
    d4 = chain_link(ChainSpec(4))
    part = components(d4)
    a = part.arcs_of(0)[0]
    b = part.arcs_of(2)[0]
    if not any(a in fa and b in fa for fa in d4.face_arcs()):
        with pytest.raises(SiteError):
            switch_move(d4, SwitchSite(a, b), Handedness.NegativeSkew)


# half twist ---------------------------------------------------------------------


def test_half_twist_pair_cancels():
    d4 = chain_link(ChainSpec(4))
    h1 = half_twist(d4, 0, +1)
    assert validate(h1).valid and len(h1.crossings) == len(d4.crossings) + 1
    h2 = half_twist(h1, 0, -1)
    red, steps, _ = reduce_diagram(h2)
    assert steps == 1 and diagram_isomorphic(red, d4)


def test_half_twist_bad_component():
    d4t = chain_link(ChainSpec(4, (1, 0, 0, 0)))
    sixer = next(c for c in range(4) if len(d4t._analysis.steps[c]) == 6)
    with pytest.raises(SiteError):
        half_twist(d4t, sixer, +1)


def test_half_twist_direction_required():
    with pytest.raises(SiteError):
        half_twist(chain_link(ChainSpec(4)), 0, 0)


# what each move adds -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.data())
def test_each_move_adds_its_crossings_and_components(n, data):
    """At sites drawn on an n-chain, n = 3 to 5, a chain move adds 2 + |k|
    crossings and one component, an augmented chain move 6 + |k| and two,
    a switch move 4 (NegativeSkew) or 5 (PositiveSkew), a half twist 1 and
    R2 2.  `verify` refuses a chain step whose component count is wrong,
    and one whose |k| exceeds the subject's crossings, on these counts."""
    d = chain_link(ChainSpec(n))
    site = data.draw(st.sampled_from(find_chain_sites(d)), label="chain site")
    k = data.draw(st.integers(-3, 3), label="k")
    face = data.draw(st.sampled_from([sorted(set(f)) for f in d.face_arcs() if len(set(f)) > 1]),
                     label="face")
    a, b = data.draw(st.permutations(face), label="arcs")[:2]
    h = data.draw(st.sampled_from(list(Handedness)), label="handedness")
    ring = data.draw(st.sampled_from([c for c in range(components(d).count)
                                      if len(d._analysis.steps[c]) == 4]), label="ring")
    direction = data.draw(st.sampled_from((1, -1)), label="direction")
    outs = [
        (chain_move(d, site, k, EVIDENCE), 2 + abs(k), 1),
        (augmented_chain_move(d, site, k, EVIDENCE), 6 + abs(k), 2),
        (switch_move(d, SwitchSite(a, b), h), 4 if h is Handedness.NegativeSkew else 5, None),
        (half_twist(d, ring, direction), 1, None),
        (reidemeister2(d, (a, b)), 2, None),
    ]
    for out, crossings, comps in outs:
        assert len(out.crossings) - len(d.crossings) == crossings
        if comps is not None:
            assert components(out).count - components(d).count == comps


# splicing ------------------------------------------------------------------------


@welded
def one_crossing(bld):
    x = bld.twist_region(1, +1)
    return (x["in_l"], x["in_r"], x["out_r"], x["out_l"])


def test_direction_conflict_raises_wiring_error(trefoil):
    turned = list(trefoil.crossings)
    turned[0] = turned[0].rotated(2)
    with pytest.raises(WiringError, match="disagree on strand direction"):
        renormalized(turned, 0, frozen={0, 1, 2})


def test_splice_skips_a_conflicting_wiring(trefoil):
    # arc 1's tail on in_l and its head on in_r reverse a frozen strand
    with pytest.raises(
        SiteError, match=r"^no wiring \(frozen crossings disagree on strand direction\)$"
    ):
        splice(trefoil, one_crossing, [(0, 1, 2, 3)], "no wiring", cut=(1, 3))


def test_splice_does_not_hide_builder_faults(trefoil):
    # a wiring that welds one end twice is a bug, not a missing wiring
    with pytest.raises(AssertionError, match="over-welded"):
        splice(trefoil, one_crossing, [(0, 0, 2, 3)], "no wiring", cut=(1, 3))


def test_splice_ends_that_free_no_arc_are_a_fault(trefoil):
    # stub arcs whose two ends both stay on kept crossings free nothing
    with pytest.raises(AssertionError, match=r"^splice ends must free each end of an arc once$"):
        splice(trefoil, one_crossing, [(0, 1, 2, 3)], "no wiring", stubs=(1, 3, 4, 5))


@pytest.mark.parametrize("wiring, error", [
    ((0, 1, 2, 3), "frozen crossings disagree on strand direction"),
    ((0, 0, 2, 3), "invalid diagram: arc 1 used 3 times (need 2); arc 7 used 1 times (need 2)"),
], ids=["direction", "arc-count"])
def test_a_judged_wiring_that_builds_invalid_is_a_fault(trefoil, wiring, error):
    """The builder trusts the judge: a wiring the judge would refuse, here
    injected as its ruling, fails the build, and that is a fault in the
    judge, raised as an AssertionError with the build's error."""
    def ruled(near, fragment, wirings):
        return wiring, False, fragment()

    with mock.patch.object(dg, "_judged", ruled), pytest.raises(AssertionError) as fault:
        splice(trefoil, one_crossing, [wiring], "no wiring", cut=(1, 3))
    assert str(fault.value) == f"wiring {wiring} was judged valid: {error}"


def test_a_switch_move_that_inserts_no_ring_is_a_fault():
    # the ring insertion, injected to return its diagram unchanged
    d4 = chain_link(ChainSpec(4))
    g, u = cross_component_face_pair(d4)
    with mock.patch.object(moves, "_insert_clasped_ring", lambda d, *args, **kwargs: d), \
            pytest.raises(AssertionError, match="^inserted ring not found$"):
        switch_move(d4, SwitchSite(g, u), Handedness.PositiveSkew)


# augmenting circle / remove component -------------------------------------------


def test_augmenting_circle_and_removal():
    d4 = chain_link(ChainSpec(4))
    part = components(d4)
    ring0 = set(part.arcs_of(0))
    pair = None
    for arcs in d4.face_arcs():
        u = sorted(set(a for a in arcs if a in ring0))
        if len(u) >= 2:
            pair = (u[0], u[1])
            break
    aug = augmenting_circle(d4, *pair)
    assert validate(aug).valid and components(aug).count == 5
    ring = _new_ring_component(aug, set(range(len(d4.crossings), len(d4.crossings) + 4)))
    back = remove_component(aug, ring)
    assert diagram_isomorphic(back, d4)


def test_remove_loop_component():
    d = LinkDiagram((), loops=2)
    assert remove_component(d, 1).loops == 1


def test_augmenting_circle_rejects_a_missing_arc():
    d4 = chain_link(ChainSpec(4))
    with pytest.raises(SiteError, match="^no arc 999$"):
        augmenting_circle(d4, 999, d4.arcs[0])


def test_negative_component_index_is_missing():
    d4 = chain_link(ChainSpec(4))
    for call in (
        lambda: remove_component(d4, -1),
        lambda: half_twist(d4, -1, +1),
        lambda: components(d4).arcs_of(-1),
    ):
        with pytest.raises(SiteError, match="^no component -1$"):
            call()


def test_a_component_past_the_count_is_missing():
    """An index at or past the component count names no component; a
    crossing-free loop is one, with no crossings to twist."""
    d4 = chain_link(ChainSpec(4))
    with pytest.raises(SiteError, match="^no component 99$"):
        half_twist(d4, 99, 1)
    with pytest.raises(SiteError, match="^component 4 has no crossings$"):
        half_twist(LinkDiagram(d4.crossings, loops=1), 4, 1)


def test_switch_move_same_component():
    # both arcs on one component (G = G') are allowed; the planar
    # reconnection may split the component, and C is always added
    d = chain_link(ChainSpec(4))
    part = components(d)
    ring0 = set(part.arcs_of(0))
    pair = None
    for arcs in d.face_arcs():
        u = sorted(set(a for a in arcs if a in ring0))
        if len(u) >= 2:
            pair = (u[0], u[1])
            break
    out = switch_move(d, SwitchSite(*pair), Handedness.NegativeSkew)
    assert validate(out).valid
    assert len(out.crossings) == len(d.crossings) + 4
    assert components(out).count >= components(d).count


def test_random_move_sequences_stay_valid():
    # mixed random pipelines: every intermediate diagram is valid, local
    # moves preserve far crossings, and counts change as specified
    rng = random.Random(404)
    for trial in range(15):
        d = chain_link(ChainSpec(rng.randint(3, 5)))
        for _ in range(4):
            kind = rng.choice(("chain", "aug", "switch", "ht"))
            before = components(d).count
            if kind in ("chain", "aug"):
                sites = find_chain_sites(d)
                if not sites:
                    continue
                site = sites[rng.randrange(len(sites))]
                k = rng.randint(-2, 2)
                if kind == "chain":
                    d2 = chain_move(d, site, k, EVIDENCE)
                    assert components(d2).count == before + 1
                else:
                    d2 = augmented_chain_move(d, site, k, EVIDENCE)
                    assert components(d2).count == before + 2
            elif kind == "switch":
                try:
                    g, u = cross_component_face_pair(d)
                except AssertionError:
                    continue
                h = rng.choice((Handedness.NegativeSkew, Handedness.PositiveSkew))
                d2 = switch_move(d, SwitchSite(g, u), h)
            else:
                part = components(d)
                target = None
                for comp in range(len(part.cycles)):
                    if len(d._analysis.steps[comp]) == 4:
                        try:
                            d2 = half_twist(d, comp, rng.choice((1, -1)))
                            target = comp
                            break
                        except SiteError:
                            continue
                if target is None:
                    continue
            assert validate(d2).valid
            d = d2
