"""Exceptional-exterior classifier and the base certifiers."""

import itertools

import pytest

from hyperforge.classifier import (
    ExceptionKind,
    Refusal,
    RefusalReason,
    augmented_alternating_certify,
    exception_base_set,
    excluded_exterior,
    menasco_certify,
    minus_two_minus_k,
)
from hyperforge.diagram import (
    Crossing,
    LinkDiagram,
    components,
    reidemeister1,
    validate,
)
from hyperforge.generators import ChainSpec, chain_link, exceptional_links, rational_link, tk_closure
from hyperforge.moves import augmenting_circle, _new_ring_component
from hyperforge.tangle import Fraction, fraction

from oracles import two_edge_cuts_oracle, union_find_component_count


def is_cert(x):
    return not isinstance(x, Refusal)


# excluded_exterior -----------------------------------------------------------


def test_exception_kinds():
    assert excluded_exterior(Fraction(1, 0), 7) is ExceptionKind.Infinity
    assert excluded_exterior(Fraction(-3), 3) is ExceptionKind.MinusK
    assert excluded_exterior(Fraction(-4), 3) is ExceptionKind.MinusKPlus1
    assert excluded_exterior(Fraction(-7, 2), 3) is ExceptionKind.MinusTwoMinusK
    assert excluded_exterior(Fraction(1), 1) is None


def test_minus_two_minus_k_matches_sequence():
    for k in range(0, 5):
        assert minus_two_minus_k(k) == fraction([-2, -k])
    for k in range(-4, 5):
        assert minus_two_minus_k(k) == Fraction(-2 * k - 1, 2)


def test_base_set():
    base = exception_base_set()
    assert len(base) == 4
    assert Fraction(-1, 2) in base
    assert Fraction(0) in base and Fraction(-1) in base
    assert Fraction(1, 0) in base


def test_shift_consistency_sample():
    base = exception_base_set()
    for length in (1, 2, 3):
        for entries in itertools.product(range(-3, 1), repeat=length):
            f = fraction(entries)
            for k in range(0, 4):
                assert (excluded_exterior(f, k) is not None) == (
                    f + k in base
                ), (entries, k)


def test_excluded_depends_only_on_fraction():
    for s1, s2 in (((-2, 0), (-2, 0, 0, 0)), ((-3,), (-1, -2)), ((0,), (0, 0, 0))):
        assert fraction(s1) == fraction(s2)
        for k in range(0, 4):
            assert excluded_exterior(fraction(s1), k) == excluded_exterior(fraction(s2), k)


# menasco ----------------------------------------------------------------------


def test_menasco_accepts_4chain():
    cert = menasco_certify(chain_link(ChainSpec(4)))
    assert is_cert(cert) and cert.base == "MenascoAlternating"


def test_menasco_refuses_trefoil(trefoil):
    r = menasco_certify(trefoil)
    assert isinstance(r, Refusal) and r.reason is RefusalReason.TwoBraid


def test_menasco_refuses_split():
    r = menasco_certify(LinkDiagram((), loops=2))
    assert isinstance(r, Refusal) and r.reason is RefusalReason.Split


def test_menasco_refuses_trivial(unknot_loop):
    r = menasco_certify(unknot_loop)
    assert isinstance(r, Refusal) and r.reason is RefusalReason.Trivial


def test_menasco_refuses_kinked_unknot(unknot_loop):
    k = reidemeister1(unknot_loop, None, +1)
    r = menasco_certify(k)
    assert isinstance(r, Refusal) and r.reason is RefusalReason.Trivial


def test_menasco_refuses_nonalternating_3chain():
    r = menasco_certify(chain_link(ChainSpec(3, alternating=False)))
    assert isinstance(r, Refusal) and r.reason is RefusalReason.NotAlternating


def test_menasco_relabel_invariant():
    d = chain_link(ChainSpec(4))
    shifted = LinkDiagram(
        tuple(Crossing(tuple(a + 50 for a in x.slots)) for x in d.crossings)
    )
    assert is_cert(menasco_certify(shifted))


def test_menasco_budget_exhaustion_refuses():
    d = reidemeister1(chain_link(ChainSpec(3)), 1, +1)
    r = menasco_certify(d, budget=0)
    assert isinstance(r, Refusal) and r.reason is RefusalReason.Unknown2Braid


# augmented alternating -----------------------------------------------------------


def _augmented_4chain():
    d4 = chain_link(ChainSpec(4))
    ring0 = set(components(d4).arcs_of(0))
    pair = None
    for arcs in d4.face_arcs():
        u = sorted(set(a for a in arcs if a in ring0))
        if len(u) >= 2:
            pair = (u[0], u[1])
            break
    aug = augmenting_circle(d4, *pair)
    ring = _new_ring_component(aug, set(range(len(d4.crossings), len(d4.crossings) + 4)))
    return aug, ring


def test_augmented_accepts_4chain_plus_circle():
    aug, ring = _augmented_4chain()
    cert = augmented_alternating_certify(aug, {ring})
    assert is_cert(cert) and cert.base == "AugmentedAlternating"
    assert cert.augmenting == (ring,)


def test_augmented_empty_delegates():
    cert = augmented_alternating_certify(chain_link(ChainSpec(4)), frozenset())
    assert is_cert(cert) and cert.base == "MenascoAlternating"


def test_augmented_refuses_bad_augmenting_component():
    d4 = chain_link(ChainSpec(4, (1, 0, 0, 0)))
    sixer = next(c for c in range(4) if len(d4._analysis.steps[c]) == 6)
    r = augmented_alternating_certify(d4, {sixer})
    assert isinstance(r, Refusal) and r.reason is RefusalReason.BadAugmenting


def test_augmented_refuses_trivial_base(unknot_loop):
    kinked = reidemeister1(reidemeister1(unknot_loop, None, +1), 1, -1)
    ring = None
    for arcs in kinked.face_arcs():
        u = sorted(set(arcs))
        if len(u) >= 2:
            aug = augmenting_circle(kinked, u[0], u[1])
            ring = _new_ring_component(
                aug, set(range(len(kinked.crossings), len(kinked.crossings) + 4))
            )
            break
    r = augmented_alternating_certify(aug, {ring})
    assert isinstance(r, Refusal) and r.reason is RefusalReason.Trivial


# exceptional links ------------------------------------------------------------------


def test_exceptional_links_all_refused():
    links = exceptional_links()
    assert len(links) == 4
    counts = [components(d).count for d in links]
    assert counts == [union_find_component_count(d) for d in links]
    assert counts == [4, 3, 3, 4]
    for d in links:
        assert validate(d).valid
        assert isinstance(menasco_certify(d), Refusal)


def test_infinity_closure_composite():
    r = menasco_certify(tk_closure([0, 0], 0))
    assert isinstance(r, Refusal) and r.reason is RefusalReason.NotPrime


def test_kinked_chain_not_prime_witness():
    d = reidemeister1(chain_link(ChainSpec(4)), 3, +1)
    r = menasco_certify(d)
    assert isinstance(r, Refusal) and r.reason is RefusalReason.NotPrime
    assert r.witness == two_edge_cuts_oracle(d)[0]


def test_augmented_with_two_circles():
    d = chain_link(ChainSpec(5))
    rings = []
    for ring_idx in (0, 2):
        arcs_of_ring = set(components(d).arcs_of(ring_idx))
        pair = None
        for arcs in d.face_arcs():
            u = sorted(set(a for a in arcs if a in arcs_of_ring))
            if len(u) >= 2:
                pair = (u[0], u[1])
                break
        n_before = len(d.crossings)
        d = augmenting_circle(d, *pair)
        rings.append(_new_ring_component(d, set(range(n_before, n_before + 4))))
    cert = augmented_alternating_certify(d, set(rings))
    assert not isinstance(cert, Refusal)
    assert cert.augmenting == tuple(sorted(rings))
