"""Constructors for the link families used as bases and fixtures: closed
chain links (with per-gap twists), rational links, Tk closures, and the
four exceptional closures.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tangle as _tangle
from .diagram import DiagramBuilder, LinkDiagram
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
    bld = DiagramBuilder()
    n = spec.n
    clasps = []
    for j in range(n):
        chi = CHAIN_CLASP_CHIRALITY
        if not spec.alternating and j == 0:
            chi = -chi
        clasps.append(bld.twist_region(2, chi))
    for i in range(n):
        west = clasps[(i - 1) % n]  # ring i rides its right rail
        east = clasps[i]            # ring i rides its left rail
        gap = bld.twist_region(
            abs(spec.twists[i]), TWIST_CHIRALITY_POS * (1 if spec.twists[i] >= 0 else -1)
        )
        # gap unit rotated 90 deg CCW between the clasps (in_r rides the top rail)
        bld.weld(gap["in_r"], west["in_r"])
        bld.weld(gap["in_l"], west["out_r"])
        bld.weld(gap["out_r"], east["in_l"])
        bld.weld(gap["out_l"], east["out_l"])
    d = bld.build()
    d.require_valid()
    return d


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
    bld = DiagramBuilder()
    tk_ports = TkTemplate(k).emit(bld)
    r_ports = t.emit(bld)
    bld.weld(tk_ports["NW"], r_ports["NW"])
    bld.weld(tk_ports["NE"], r_ports["SW"])
    bld.weld(tk_ports["SW"], r_ports["NE"])
    bld.weld(tk_ports["SE"], r_ports["SE"])
    d = bld.build()
    d.require_valid()
    return d


def exceptional_links() -> tuple[LinkDiagram, ...]:
    """The four exceptional closures: exteriors inf, 0, -1, and -2 0 at k = 0."""
    return tuple(tk_closure(s, 0) for s in ([0, 0], [0], [-1], [-2, 0]))
