"""Rational tangle calculus: Conway sequences, extended-rational fractions,
tangle diagrams, and closures.

Conventions:

* A Conway sequence lists twist regions from the innermost out; the LAST
  entry is the outermost region.  Its fraction is
  ``c_n + 1/(c_{n-1} + 1/(... + 1/c_1))`` evaluated over the extended
  rationals (1/0 = inf, a + inf = inf, 1/inf = 0), so appending twists to
  the outermost region adds to the fraction.
* Tangle diagrams live in a square with boundary points NW, NE, SW, SE.
  The outermost region always attaches at the east pair (NE, SE); regions
  alternate east / bottom going inward.  The numerator closure joins
  NW-NE and SW-SE.
* The zero tangle [0] is the pair of horizontal strands, so its numerator
  closure is the 2-component unlink; [0, 0] is the infinity tangle.

Pure functions over immutable values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import FormatError, MixedSignError

if TYPE_CHECKING:  # diagram is imported where a diagram is built
    from .diagram import LinkDiagram

# Crossing chirality per twist-region flavor for positive entries; negative
# entries use the mirror.  Pinned by the alternation of sign-homogeneous
# closures and the Tk closure identity (see tests).
EAST_CHIRALITY_POS = +1
BOTTOM_CHIRALITY_POS = -1


@dataclass(frozen=True)
class Fraction:
    """Extended rational p/q in lowest terms; q = 0 only for inf = 1/0."""

    p: int
    q: int = 1

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0:
            p = 1
        else:
            if q < 0:
                p, q = -p, -q
            g = math.gcd(p, q)
            if g > 1:
                p, q = p // g, q // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __add__(self, n: int) -> "Fraction":
        if self.is_infinite:
            return self
        return Fraction(self.p + n * self.q, self.q)

    __radd__ = __add__

    def reciprocal(self) -> "Fraction":
        if self.is_infinite:
            return Fraction(0, 1)
        return Fraction(self.q, self.p)  # q==0 when p was 0: gives inf

    def __neg__(self) -> "Fraction":
        if self.is_infinite:
            return self
        return Fraction(-self.p, self.q)

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"

    @staticmethod
    def parse(text: str) -> "Fraction":
        text = text.strip()
        if text in ("inf", "Inf", "INF", "1/0"):
            return INFINITY
        m = re.fullmatch(r"(-?\d+)(?:/(-?\d+))?", text)
        if not m:
            raise FormatError(f"bad fraction: {text!r}")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) else 1
        if q == 0 and p != 0:
            return INFINITY
        if q == 0:
            raise FormatError("0/0 is not an extended rational")
        return Fraction(p, q)


INFINITY = Fraction(1, 0)
ZERO = Fraction(0, 1)


@dataclass(frozen=True)
class ConwaySequence:
    """Nonempty integer sequence, all entries >= 0 or all <= 0."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise FormatError("Conway sequence must be nonempty")
        if any(e > 0 for e in entries) and any(e < 0 for e in entries):
            raise MixedSignError(f"mixed-sign Conway sequence {entries}")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @staticmethod
    def parse(text: str) -> "ConwaySequence":
        parts = text.replace(",", " ").split()
        if not parts:
            raise FormatError("empty Conway sequence")
        try:
            return ConwaySequence(tuple(int(p) for p in parts))
        except ValueError as err:
            raise FormatError(f"bad Conway sequence {text!r}") from err


def _as_sequence(s) -> ConwaySequence:
    if isinstance(s, ConwaySequence):
        return s
    if isinstance(s, str):
        return ConwaySequence.parse(s)
    return ConwaySequence(tuple(s))


def fraction(s) -> Fraction:
    """Continued-fraction value; the last entry is the outermost region."""
    seq = _as_sequence(s)
    value = Fraction(seq.entries[0], 1)
    for c in seq.entries[1:]:
        value = value.reciprocal() + c
    return value


def rotate(f: Fraction) -> Fraction:
    """-1/f with -1/0 = inf and -1/inf = 0."""
    return -f.reciprocal()


def equivalent(s1, s2) -> bool:
    """Same rational tangle: equal fractions."""
    return fraction(s1) == fraction(s2)


@dataclass(frozen=True)
class TangleDiagram:
    """Alternating diagram recipe for a rational tangle.

    ``extra_twists`` are appended to the outermost (east) region without
    touching the sequence; they keep their own crossings even when they
    would cancel arithmetically, which is exactly what the Tk closure
    identity needs.  `parts` gives its crossings as rows of arc labels,
    each region a twist region whose rails run on from the ports before
    it, which a closure joins.
    """

    sequence: ConwaySequence
    extra_twists: int = 0

    @property
    def crossing_count(self) -> int:
        return sum(abs(c) for c in self.sequence) + abs(self.extra_twists)

    def parts(self) -> tuple[list[tuple], dict]:
        """(rows, NW/NE/SW/SE boundary labels) of the fragment, its labels
        pairs of ints (see ``diagram.twist_rows`` and ``diagram.rail``)."""
        from .diagram import rail, twist_rows

        n = len(self.sequence)
        if n % 2 == 1:  # two horizontal strands
            ports = {"NW": (0, 0), "NE": (0, 0), "SW": (0, 1), "SE": (0, 1)}
        else:  # two vertical strands
            ports = {"NW": (0, 0), "SW": (0, 0), "NE": (0, 1), "SE": (0, 1)}
        rows: list[tuple] = []
        # the extra twists are one more east region, after the sequence's
        regions = [(c, (n - i) % 2 == 0) for i, c in enumerate(self.sequence, start=1)]
        for i, (c, east) in enumerate(regions + [(self.extra_twists, True)], start=1):
            if c == 0:
                continue
            chi = (EAST_CHIRALITY_POS if east else BOTTOM_CHIRALITY_POS) * (
                1 if c > 0 else -1
            )
            # an east region is the unit rotated 90 deg CCW: its left rail
            # runs on from SE and its right rail from NE; a bottom region's
            # run on from SW and SE
            a, b = ("SE", "NE") if east else ("SW", "SE")
            left, right = rail(ports[a], 2 * i, abs(c)), rail(ports[b], 2 * i + 1, abs(c))
            rows += twist_rows(chi, left, right)
            ports[a], ports[b] = left[-1], right[-1]
        return rows, ports


def to_alternating_diagram(s) -> TangleDiagram:
    """Alternating 4-ended tangle fragment with sum(|entries|) crossings."""
    return TangleDiagram(_as_sequence(s))


def boundary_twists(t: TangleDiagram, n: int) -> TangleDiagram:
    """Append n half-twists to the outermost region (diagram-level append)."""
    return replace(t, extra_twists=t.extra_twists + n)


def numerator_closure(t: TangleDiagram) -> LinkDiagram:
    """Join NW-NE and SW-SE."""
    from .diagram import closed

    rows, ports = t.parts()
    return closed(rows, ((ports["NW"], ports["NE"]), (ports["SW"], ports["SE"])))
