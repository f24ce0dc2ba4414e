"""Constructors for the link families used as bases and fixtures: closed
chain links (with per-gap twists), rational links, Tk closures, and the
four exceptional closures.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tangle as _tangle
from .diagram import LinkDiagram, closed, twist_rows
from .errors import FormatError
from .moves import TWIST_CHIRALITY_POS, TkTemplate
from .tangle import to_alternating_diagram

# Clasp chirality of chain links; alternating=False flips the first clasp.
CHAIN_CLASP_CHIRALITY = +1


@dataclass(frozen=True)
class ChainSpec:
    """A closed circular chain of n unknots, adjacent pairs clasped."""

    n: int
    twists: tuple[int, ...] = ()
    alternating: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise FormatError("chain needs at least 2 components")
        twists = tuple(self.twists) if self.twists else (0,) * self.n
        if len(twists) != self.n:
            raise FormatError(f"need {self.n} twist entries, got {len(twists)}")
        object.__setattr__(self, "twists", twists)


def chain_link(spec: ChainSpec) -> LinkDiagram:
    """Closed n-chain; ring i carries twists[i] half-twists in its gap.

    Crossing count is 2n + sum(|twists|).  Clasp j joins ring j (left
    rail) to ring j+1 (right rail); ring i's gap twists sit between its
    west clasp and its east clasp.
    """
    # gap i's left and right rails; with no twist, each is one arc from
    # clasp i - 1 to clasp i
    rails = [[[(side, i, j) for j in range(abs(t) + 1)] for side in "lr"]
             for i, t in enumerate(spec.twists)]
    rows: list[tuple] = []
    for j in range(spec.n):  # clasp j: ring j on its left rail, ring j + 1 on its right
        (left, right), (left_on, right_on) = rails[j], rails[(j + 1) % spec.n]
        chi = CHAIN_CLASP_CHIRALITY * (-1 if not spec.alternating and j == 0 else 1)
        rows += twist_rows(chi, (right[-1], ("c", j, 0), left[-1]),
                           (right_on[0], ("c", j, 1), left_on[0]))
    for (left, right), t in zip(rails, spec.twists):
        rows += twist_rows(TWIST_CHIRALITY_POS * (1 if t >= 0 else -1), left, right)
    return closed(rows)


def twisted_5chain() -> LinkDiagram:
    """The walnut-construction base: a 5-chain with one gap twist.

    The designated trivial component C is the ring carrying the twist
    (component 0 by the deterministic numbering); the disk E it bounds is
    the one its clasped neighbors puncture.
    """
    return chain_link(ChainSpec(5, (1, 0, 0, 0, 0), alternating=True))


def rational_link(s) -> LinkDiagram:
    """Numerator closure of the alternating diagram of a rational tangle."""
    return _tangle.numerator_closure(to_alternating_diagram(s))


def tk_closure(s, k: int, extra_twists: int = 0) -> LinkDiagram:
    """Glue the Tk template to the rational tangle of ``s``.

    The template's SW/SE pair meets the tangle's outermost twist region
    across the gluing circle, so
    ``tk_closure(s, k)`` is diagram-isomorphic to
    ``tk_closure(s, 0, extra_twists=k)`` (the twists may sit on either
    side of the circle).
    """
    t = to_alternating_diagram(s)
    if extra_twists:
        t = _tangle.boundary_twists(t, extra_twists)
    rows, tk = TkTemplate(k).parts()
    tangle_rows, r = t.parts()  # labels apart from the template's: int pairs
    joins = ((tk["NW"], r["NW"]), (tk["NE"], r["SW"]), (tk["SW"], r["NE"]), (tk["SE"], r["SE"]))
    return closed(rows + tangle_rows, joins)


def exceptional_links() -> tuple[LinkDiagram, ...]:
    """The four exceptional closures: exteriors inf, 0, -1, and -2 0 at k = 0."""
    return tuple(tk_closure(s, 0) for s in ([0, 0], [0], [-1], [-2, 0]))
