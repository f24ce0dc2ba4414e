"""Exceptional-exterior classifier and the base certifiers."""

import itertools
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hyperforge.classifier as classifier
import hyperforge.diagram as dg
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
    braid2_template,
    components,
    parse_pd,
    reidemeister1,
    validate,
)
from hyperforge.errors import InvalidDiagramError
from hyperforge.generators import ChainSpec, chain_link, exceptional_links, rational_link, tk_closure
from hyperforge.moves import augmenting_circle, _new_ring_component
from hyperforge.tangle import Fraction, fraction

from memos import forget_memos
from oracles import two_edge_cuts_oracle, union_find_component_count


def is_cert(x):
    return not isinstance(x, Refusal)


def shifted(d, by):
    """``d`` with every arc label raised by ``by``: a distinct content."""
    return LinkDiagram(tuple(Crossing(tuple(a + by for a in x.slots)) for x in d.crossings),
                       loops=d.loops)


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
    assert is_cert(menasco_certify(shifted(chain_link(ChainSpec(4)), 50)))


def test_menasco_budget_exhaustion_refuses():
    d = reidemeister1(chain_link(ChainSpec(3)), 1, +1)
    r = menasco_certify(d, budget=0)
    assert isinstance(r, Refusal) and r.reason is RefusalReason.Unknown2Braid


# the decision memo -------------------------------------------------------------------


_MEMO_BASES = st.one_of(
    st.lists(st.integers(-1, 1), min_size=2, max_size=5)
    .map(lambda tw: chain_link(ChainSpec(len(tw), tuple(tw)))),
    st.integers(3, 5).map(lambda n: chain_link(ChainSpec(n, alternating=False))),
    st.integers(2, 4).map(lambda n: LinkDiagram(chain_link(ChainSpec(n)).crossings, loops=1)),
    st.builds(braid2_template, st.integers(2, 6), st.booleans()),
)


@settings(max_examples=60, deadline=None)
@given(_MEMO_BASES, st.data())
def test_a_remembered_decision_is_the_cold_one(d, data):
    """Alternating, non-alternating, split and 2-braid diagrams, kinked or
    not, certify alike from an emptied memo and from a warm one, on the
    diagram itself and on an equal copy, at budgets 0, 1 and the default."""
    if data.draw(st.booleans()):
        d = reidemeister1(d, data.draw(st.sampled_from(d.arcs)), data.draw(st.sampled_from((1, -1))))
    for budget in (0, 1, None):
        forget_memos()
        cold = menasco_certify(d, budget)
        assert len(classifier._decisions) == 1
        for x in (d, LinkDiagram(d.crossings, loops=d.loops)):
            assert menasco_certify(x, budget) == cold
        assert len(classifier._decisions) == 1


def test_a_repeated_diagram_is_certified_once():
    """An equal diagram at the same budget reuses the decision; another
    budget is another decision."""
    forget_memos()
    d = chain_link(ChainSpec(4))
    with mock.patch.object(dg, "reduce_diagram", wraps=dg.reduce_diagram) as reduce:
        assert is_cert(menasco_certify(d))
        assert is_cert(menasco_certify(LinkDiagram(d.crossings)))
        assert reduce.call_count == 1
        assert is_cert(menasco_certify(d, budget=0))
        assert reduce.call_count == 2


def test_the_budget_is_part_of_the_key():
    """The kinked 4-chain is refused NotPrime at the default budget (it
    reduces, and the kink's arcs are a 2-edge cut) and Unknown2Braid at
    budget 0, whichever budget was asked for first."""
    d = chain_link(ChainSpec(4))
    kinked = reidemeister1(d, d.arcs[0], 1)
    for budget, reason in ((None, RefusalReason.NotPrime), (0, RefusalReason.Unknown2Braid),
                           (None, RefusalReason.NotPrime)):
        assert menasco_certify(kinked, budget).reason is reason


def test_an_invalid_diagram_raises_on_every_call():
    forget_memos()
    bad = parse_pd("X(1,2,3,4)")
    for _ in range(2):
        with pytest.raises(InvalidDiagramError):
            menasco_certify(bad)
    assert classifier._decisions == {}


def test_a_certificate_is_about_the_callers_diagram():
    """Certified afresh or from the memo, the certificate's base diagram and
    subject are the very diagram the caller passed."""
    d = chain_link(ChainSpec(4))
    aug, ring = _augmented_4chain()
    for x in (d, LinkDiagram(d.crossings)):
        cert = menasco_certify(x)
        assert cert.base_diagram is x and cert.subject is x
    for x in (aug, LinkDiagram(aug.crossings)):
        cert = augmented_alternating_certify(x, {ring})
        assert cert.base_diagram is x and cert.subject is x


def test_the_memo_stays_bounded():
    forget_memos()
    d = chain_link(ChainSpec(3))
    assert classifier._DECISIONS_MAX < 300
    for by in range(300):
        menasco_certify(shifted(d, by))
    assert len(classifier._decisions) == classifier._DECISIONS_MAX
    last = shifted(d, 299)
    assert (last.crossings, last.loops, dg.DEFAULT_STEP_BUDGET) in classifier._decisions


def test_threads_certifying_at_once_keep_the_memo_bounded():
    """Threads that certify one split diagram at once over overlapping runs
    of budgets, each budget a decision of its own and the split test quick,
    so that they fill the memo and evict from it together, each get every
    decision, and the memo stays within its bound."""
    split = LinkDiagram((), loops=2)
    results = []

    def certify(first):
        for budget in range(first, first + 500):
            results.append(menasco_certify(split, budget).reason)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            forget_memos()
            results.clear()
            threads = [threading.Thread(target=certify, args=(250 * i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [RefusalReason.Split] * 4000
            assert len(classifier._decisions) <= classifier._DECISIONS_MAX
    finally:
        sys.setswitchinterval(old)


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
