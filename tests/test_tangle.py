"""Rational tangle calculus: extended fractions, sequences, diagrams."""

import itertools

import pytest
from hypothesis import given, strategies as st

from hyperforge.diagram import components, is_2braid, is_alternating, validate
from hyperforge.errors import FormatError, MixedSignError
from hyperforge.tangle import (
    INFINITY,
    ZERO,
    ConwaySequence,
    Fraction,
    boundary_twists,
    equivalent,
    fraction,
    numerator_closure,
    rotate,
    to_alternating_diagram,
)

from oracles import cf_oracle, oracle_equal, union_find_component_count


def sign_homogeneous(lo, hi, max_len):
    for length in range(1, max_len + 1):
        for entries in itertools.product(range(0, hi + 1), repeat=length):
            yield entries
        for entries in itertools.product(range(lo, 1), repeat=length):
            if any(entries):
                yield entries


# fractions ------------------------------------------------------------------


def test_fraction_examples():
    assert fraction([0]) == ZERO
    assert fraction([-2, 0]) == Fraction(-1, 2)
    assert fraction([2, 3, 2]) == Fraction(16, 7)
    assert fraction([0, 0]) == INFINITY
    assert fraction("2 3 2") == Fraction(16, 7)  # a sequence given as its text


def test_fraction_matches_oracle_family():
    for entries in sign_homogeneous(-3, 3, 4):
        f = fraction(entries)
        assert oracle_equal(cf_oracle(entries), f.p, f.q), entries


def test_fraction_parse_print():
    assert str(Fraction(-1, 2)) == "-1/2"
    assert str(Fraction(-3)) == "-3"
    assert str(INFINITY) == "inf"
    assert Fraction.parse("-3/1") == Fraction(-3)
    assert Fraction.parse("inf").is_infinite
    assert Fraction.parse("7/-2") == Fraction(-7, 2)
    assert Fraction.parse("3/0") == INFINITY
    with pytest.raises(FormatError):
        Fraction.parse("0/0")
    with pytest.raises(FormatError):
        Fraction.parse("nonsense")


def test_twist_add():
    # adding n half-twists to the outermost region adds n; infinity absorbs
    assert Fraction(-3) + 3 == ZERO
    assert INFINITY + 5 == INFINITY
    assert Fraction(-1, 2) + 1 == Fraction(1, 2)


def test_rotate():
    assert rotate(Fraction(1)) == Fraction(-1)
    assert rotate(INFINITY) == ZERO
    assert rotate(ZERO) == INFINITY
    assert rotate(Fraction(16, 7)) == Fraction(-7, 16)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_rotate_involution(p, q):
    f = INFINITY if q == 0 and p == 0 else Fraction(p, q) if q else INFINITY
    assert rotate(rotate(f)) == f


@given(st.integers(-30, 30), st.integers(0, 30), st.integers(-5, 5))
def test_twist_add_is_additive(p, q, n):
    f = Fraction(p, q) if (p, q) != (0, 0) else INFINITY
    assert (f + n) + (-n) == f


# sequences --------------------------------------------------------------------


def test_mixed_sign_rejected():
    with pytest.raises(MixedSignError):
        ConwaySequence((1, -1))
    ConwaySequence((0, -2, 0))  # zeros are compatible with either sign
    ConwaySequence((2, 0, 3))


def test_sequence_parse():
    assert ConwaySequence.parse("-2 0").entries == (-2, 0)
    assert ConwaySequence.parse("2, 3, 2").entries == (2, 3, 2)
    with pytest.raises(FormatError):
        ConwaySequence.parse("")
    with pytest.raises(FormatError):
        ConwaySequence.parse("a b")


def test_equivalent():
    assert equivalent([-2, 0], [-2, 0, 0, 0])  # padded form, same fraction
    assert not equivalent([0], [-1])
    assert equivalent([2, 3, 2], [2, 3, 2])


def test_equivalent_is_equivalence_relation():
    family = list(sign_homogeneous(-2, 2, 3))
    classes = {}
    for s in family:
        f = fraction(s)
        classes.setdefault((f.p, f.q), []).append(s)
    for group in classes.values():
        for s1 in group[:3]:
            for s2 in group[:3]:
                assert equivalent(s1, s2)


def test_appending_to_outermost_region_adds():
    for entries in sign_homogeneous(-4, 4, 4):
        sgn = next((1 if e > 0 else -1 for e in entries if e), 0)
        for n in range(-4, 5):
            appended = entries[:-1] + (entries[-1] + n,)
            if sgn and any(e for e in appended) and (
                min(appended) < 0 < max(appended)
            ):
                continue  # not sign-compatible
            assert fraction(appended) == fraction(entries) + n


# tangle diagrams -----------------------------------------------------------------


def test_zero_tangle():
    t = to_alternating_diagram([0])
    assert t.crossing_count == 0
    d = numerator_closure(t)
    assert validate(d).valid and components(d).count == 2 and len(d.crossings) == 0


def test_minus_one_tangle():
    d = numerator_closure(to_alternating_diagram([-1]))
    assert validate(d).valid and len(d.crossings) == 1
    assert components(d).count == 1  # an unknot with a kink


def test_232_tangle():
    t = to_alternating_diagram([2, 3, 2])
    assert t.crossing_count == 7
    d = numerator_closure(t)
    assert validate(d).valid and is_alternating(d)
    assert components(d).count == union_find_component_count(d) == 2


def test_22_closure_components():
    # fraction 5/2; the closure is the figure-eight knot: one component
    # (computed by the union-find oracle; frozen here)
    d = numerator_closure(to_alternating_diagram([2, 2]))
    assert validate(d).valid and len(d.crossings) == 4
    assert components(d).count == union_find_component_count(d) == 1


def test_hopf_from_2_tangle():
    d = numerator_closure(to_alternating_diagram([2]))
    assert components(d).count == 2 and is_2braid(d)


def test_closures_alternating_for_sign_homogeneous():
    for entries in sign_homogeneous(-3, 3, 3):
        d = numerator_closure(to_alternating_diagram(entries))
        assert validate(d).valid, entries
        assert is_alternating(d), entries


def test_equivalent_sequences_same_component_count():
    family = list(sign_homogeneous(-2, 2, 3))
    counts = {}
    for s in family:
        f = fraction(s)
        c = components(numerator_closure(to_alternating_diagram(s))).count
        counts.setdefault((f.p, f.q), set()).add(c)
    for key, cs in counts.items():
        assert len(cs) == 1, (key, cs)


def test_component_parity_rule():
    # empirical check: closure has 2 components iff the numerator is even
    for entries in sign_homogeneous(-3, 3, 3):
        f = fraction(entries)
        d = numerator_closure(to_alternating_diagram(entries))
        got = components(d).count
        assert got in (1, 2)
        if not f.is_infinite:
            assert (got == 2) == (f.p % 2 == 0), (entries, str(f), got)


def test_boundary_twists_stack():
    t = boundary_twists(to_alternating_diagram([-2]), -3)
    assert t.crossing_count == 5
    d = numerator_closure(t)
    assert validate(d).valid


def test_rational_tangle_fraction_and_diagram():
    seq = ConwaySequence((-2, 0))
    assert fraction(seq) == Fraction(-1, 2)
    assert to_alternating_diagram(seq).crossing_count == 2
