"""Link family constructors."""

import itertools

import pytest

from hyperforge.classifier import (
    DeclaredNonRational,
    Refusal,
    exception_base_set,
    menasco_certify,
)
from hyperforge.diagram import (
    components,
    diagram_isomorphic,
    is_2braid,
    is_alternating,
    validate,
)
from hyperforge.errors import FormatError
from hyperforge.generators import (
    ChainSpec,
    chain_link,
    rational_link,
    tk_closure,
    twisted_5chain,
)
from hyperforge.moves import chain_move, find_chain_sites
from hyperforge.tangle import fraction

from oracles import union_find_component_count


def test_chain_spec_validation():
    with pytest.raises(FormatError):
        ChainSpec(1)
    with pytest.raises(FormatError):
        ChainSpec(3, (1, 2))


def test_chain_counts():
    for n in range(2, 9):
        for twists in itertools.islice(
            itertools.product((-2, -1, 0, 1, 2), repeat=n), 0, 12
        ):
            d = chain_link(ChainSpec(n, twists))
            assert validate(d).valid
            assert len(d.crossings) == 2 * n + sum(abs(t) for t in twists)
            assert components(d).count == n == union_find_component_count(d)


def test_4chain_accepted():
    assert not isinstance(menasco_certify(chain_link(ChainSpec(4))), Refusal)


def test_nonalternating_3chain_refused():
    assert isinstance(menasco_certify(chain_link(ChainSpec(3, alternating=False))), Refusal)


def test_5chain_with_twists():
    d = chain_link(ChainSpec(5, (1, 0, 2, 0, 1)))
    assert components(d).count == 5 and len(d.crossings) == 14


def test_twisted_5chain():
    d = twisted_5chain()
    assert validate(d).valid and components(d).count == 5
    sites = find_chain_sites(d)
    assert sites
    out = chain_move(d, sites[0], 0, DeclaredNonRational("five-chain exterior"))
    assert components(out).count == 6


def test_rational_link_examples():
    hopf = rational_link([2])
    assert components(hopf).count == 2 and is_2braid(hopf)
    d232 = rational_link([2, 3, 2])
    assert len(d232.crossings) == 7
    assert components(d232).count == union_find_component_count(d232) == 2
    unlink = rational_link([0])
    assert components(unlink).count == 2 and len(unlink.crossings) == 0


def test_rational_link_component_count_bounds():
    for entries in itertools.product((-2, -1, 0), repeat=3):
        d = rational_link(entries)
        got = components(d).count
        assert got in (1, 2) and got == union_find_component_count(d)


def test_tk_closure_counts():
    assert components(tk_closure([0], 0)).count == 3
    assert components(tk_closure([0, 0], 0)).count == 4
    assert len(tk_closure([-2], 3).crossings) == 6 + 3 + 2


def test_tk_closure_identity():
    for s, k in (([-1], 2), ([-2, 0], -3), ([0], 1)):
        assert diagram_isomorphic(tk_closure(s, k), tk_closure(s, 0, extra_twists=k))


def test_tk_closure_classifier_cross_check():
    # refused whenever fraction(s) + k lies in the exception base set
    base = exception_base_set()
    for entries in itertools.product((-2, -1, 0), repeat=2):
        for k in range(0, 3):
            if fraction(entries) + k in base:
                d = tk_closure(entries, k)
                assert isinstance(menasco_certify(d), Refusal), (entries, k)
