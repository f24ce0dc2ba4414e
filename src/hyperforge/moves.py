"""The diagram rewrites: chain move, augmented chain move, switch move,
half-twist on a twice-punctured disk, plus chain-site scanning, the Tk
template and `admit`, the chain move's admissibility gate.  The ring and
disk patterns they read off a component, and component removal, are in
``diagram``, where the augmented certifier uses them too.

A chain site is a trivial component C with exactly four crossings, two
with each of two strands passing through its disk.  Both clasp phases
are accepted: when the crossings around C alternate, the replacement
implicitly performs the type-I Reidemeister normalization (the spliced
template absorbs the kink), so outputs carry no stray crossing.

Moves are local: crossings not incident to the site are preserved
verbatim, arc labels outside the ball unchanged.  The one exception is a
half twist that genuinely reverses a strand segment, which re-expresses
the under-crossings along that segment (slot rotation by two; labels
still unchanged).

Every move splices its fragment in through ``diagram.splice``, which
judges a fixed table of candidate wirings in order, without building
them, and builds the first valid one.  Each fragment is a hashable value
(a `TkTemplate`, the clasped ring, a `_HalfTwist` of either chirality)
whose call gives its open tangle: twist regions composed by sharing arc
labels.  The splice makes the tangle only when its judge memo misses,
and the memo keeps it with the judged wiring; the splice's replay state
places its crossings.  A move reads a diagram, or `verify`'s replay
state, which it then edits in place, through the same accessors; either
way a move has one version.  Each chain move
looks its site up in the diagram it is given (`chain_site`), passes its
gate, `admit`, and runs a private splice half, which `verify` calls for
a step it has admitted itself.  Ring insertions and half twists
often have several valid wirings that give different diagrams, so the
order of each table is part of the output.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional

from . import tangle as _tangle
from .classifier import ExteriorEvidence, Rational, Unchecked, excluded_exterior
from .diagram import (
    LinkDiagram,
    _co_face,
    _disk_runs,
    _other_strand_arcs,
    _passages,
    _require_co_face,
    _ring_fault,
    components,
    flip_wirings,
    open_tangle,
    rail,
    splice,
    twist_rows,
)
from .errors import ExcludedExteriorError, SiteError

# Clasp chirality of the Tk template (gamma1-C1, C1-C2, C2-gamma2).
# Calibrated so the template's exceptional closures are the genuine
# non-hyperbolic links: the bare closure with the 0-tangle exterior is the
# non-alternating 3-chain, and the "-2 0" exterior closure carries the
# parallel-component linking structure of the fourth exceptional link
# (all four nonzero pairwise linking numbers equal).  See the calibration
# tests in tests/test_moves.py.
TK_CLASP_CHIRALITY = (-1, +1, -1)
SWITCH_CLASP_CHIRALITY = (+1, +1)
# Chirality of one positive half-twist in a twist region (k > 0, gap twists,
# half_twist(+1)); must match the tangle module's east region for the Tk
# closure identity.
TWIST_CHIRALITY_POS = _tangle.EAST_CHIRALITY_POS


class Handedness(enum.Enum):
    """The two switch-move variants (the two half-twist parity classes)."""

    PositiveSkew = "pos"
    NegativeSkew = "neg"


@dataclass(frozen=True)
class ChainSite:
    """A trivial component C clasping two strands through its disk.

    ``crossings`` are C's four crossings in C-cyclic order (q0 q1 q2 q3)
    with clasp pairs (q0, q1) and (q2, q3); ``strand1``/``strand2`` are the
    inner arcs between each pair; ``stubs`` are the four outer strand arcs
    at q0..q3 (the ball boundary).  ``pattern`` records whether C's own
    over/under word alternates or not (both phases admit the move).
    A chain move looks its site up afresh by component and strands, so a
    site found on another diagram, or made by hand, names the same one.
    """

    trivial_component: int
    strand1: int
    strand2: int
    crossings: tuple[int, int, int, int]
    stubs: tuple[int, int, int, int]
    pattern: str

    def key(self) -> tuple:
        return (self.trivial_component, self.strand1, self.strand2)


@dataclass(frozen=True)
class SwitchSite:
    """Two arcs g, g' to surger."""

    arc_g: int
    arc_g2: int


@dataclass(frozen=True)
class TkTemplate:
    """The two-component insert: C1 clasps gamma1, C1 clasps C2, C2 clasps
    gamma2, with |k| half-twists flush against the SW/SE boundary pair."""

    k: int

    @property
    def crossing_count(self) -> int:
        return 6 + abs(self.k)

    def parts(self) -> tuple[list[tuple], dict]:
        """(rows, NW/NE/SW/SE boundary labels) of the template, its labels
        letters and ("sw" or "se", i) pairs (see `twist_rows`, `rail`).

        gamma1 runs NW..NE along the top; gamma2 runs SW..SE along the
        bottom with the twist region between its legs at the boundary.
        """
        x1, x2, x3 = TK_CLASP_CHIRALITY
        chi = TWIST_CHIRALITY_POS * (1 if self.k >= 0 else -1)
        sw, se = rail("E", "sw", abs(self.k)), rail("F", "se", abs(self.k))
        # horizontal clasp regions stacked top to bottom, each string a
        # rail's labels; in the rotated frame the north rail is the right
        # one.  gamma1 rides c1's north rail; C1 = c1 south (A..B) + c2
        # north; C2 = c2 south (C..D) + c3 north; gamma2 rides c3's south
        # rail (E..F) with its legs dropping through the twist region to
        # the SW/SE boundary.
        rows = (twist_rows(x1, "AaB", ("NW", "n", "NE")) + twist_rows(x2, "CcD", "AbB")
                + twist_rows(x3, "EeF", "CdD") + twist_rows(chi, sw, se))
        return rows, {"NW": "NW", "NE": "NE", "SW": sw[-1], "SE": se[-1]}

    def __call__(self) -> tuple:
        """The fragment a chain move splices: the open tangle of `parts`,
        its ports in the order the chain moves' wirings index them."""
        rows, ports = self.parts()
        return open_tangle(rows, _TK_PORTS(ports))


# the Tk boundary ports in the order the chain moves' wirings index them
_TK_PORTS = itemgetter("NW", "NE", "SE", "SW")


# -- site scanning ----------------------------------------------------------------


def _clasp(d: LinkDiagram, pa: int, pb: int) -> Optional[tuple[int, int, int]]:
    """(inner arc, outer arc at pa, outer arc at pb) when C's passages at corners
    pa and pb clasp one strand: equal signs and one strand arc running between them."""
    ca, cb = pa >> 2, pb >> 2
    if d.sign(ca) != d.sign(cb):
        return None
    arcs_a = set(_other_strand_arcs(d, pa))
    arcs_b = set(_other_strand_arcs(d, pb))
    shared = {x for x in arcs_a & arcs_b if {k >> 2 for k in d._analysis.occ[x]} == {ca, cb}}
    if len(shared) != 1:
        return None
    inner = shared.pop()
    return inner, (arcs_a - {inner} or {inner}).pop(), (arcs_b - {inner} or {inner}).pop()


def _sites_at(d: LinkDiagram, part, comp: int) -> Iterator[ChainSite]:
    """The chain sites of one component, in scan order, repeats included."""
    if _ring_fault(d, part, comp):
        return
    pas = _passages(d, comp)
    word = [c & 1 for c in pas]
    alternating = all(word[i] != word[(i + 1) % 4] for i in range(4))
    pattern = "alternating" if alternating else "parallel"
    for shift in (0, 1):
        order = [pas[(shift + j) % 4] for j in range(4)]
        first, second = _clasp(d, order[0], order[1]), _clasp(d, order[2], order[3])
        if first is None or second is None or first[0] == second[0]:
            continue
        yield ChainSite(
            trivial_component=comp,
            strand1=first[0],
            strand2=second[0],
            crossings=tuple(c >> 2 for c in order),
            stubs=first[1:] + second[1:],
            pattern=pattern,
        )


def find_chain_sites(d: LinkDiagram) -> tuple[ChainSite, ...]:
    """All components matching the chain-site pattern (either clasp phase)."""
    part = components(d)
    uniq: dict[tuple, ChainSite] = {}
    for comp in range(len(part.cycles)):
        for s in _sites_at(d, part, comp):
            uniq.setdefault((s.trivial_component, frozenset((s.strand1, s.strand2))), s)
    return tuple(sorted(uniq.values(), key=lambda s: s.key()))


def chain_site(d: LinkDiagram, component: int, strands) -> ChainSite:
    """The chain site of ``d`` at ``component`` clasping the pair ``strands``
    (either order), found by scanning that component alone."""
    for site in _sites_at(d, components(d), component):
        if tuple(strands) in ((site.strand1, site.strand2), (site.strand2, site.strand1)):
            return site
    raise SiteError(f"no chain site at component {component} strands {tuple(strands)}")


# -- the chain moves ----------------------------------------------------------------


@dataclass(frozen=True)
class Admission:
    """`admit`'s ruling: ``kind`` is excluded, rational-admissible, machine-checked,
    inherited, trusted or unchecked; ``excluded`` is the error a move raises."""

    admitted: bool
    kind: str
    verdict: str
    trusted: Optional[str] = None
    excluded: Optional[ExcludedExteriorError] = None


def admit(d: LinkDiagram, site: Optional[ChainSite], k: int, evidence: ExteriorEvidence,
          inherited: bool = False) -> Admission:
    """The one gate of a chain step, shared by the moves and `verify`: a `Rational`
    claim is judged by its declared fraction alone, not matched against ``d``; a
    declared one is machine-checked when a component avoids ``site``'s ball."""
    if isinstance(evidence, Unchecked):
        return Admission(False, "unchecked", "unchecked exterior evidence never validates")
    if isinstance(evidence, Rational):
        f = _tangle.fraction(evidence.sequence)
        if (kind := excluded_exterior(f, k)) is not None:
            return Admission(False, "excluded", f"excluded exterior: {kind.value}",
                             excluded=ExcludedExteriorError(kind, f, k))
        return Admission(True, "rational-admissible", f"rational exterior admissible (k={k})")
    part = components(d)
    if site is not None and part.count > len(
        {site.trivial_component, part.component_of(site.strand1), part.component_of(site.strand2)}
    ):
        return Admission(True, "machine-checked", "non-rational exterior machine-checked "
                         "(closed component outside the ball)")
    verdict = ("admissibility inherited from an earlier chain step (repeated application)"
               if inherited else "non-rational exterior (trusted)")
    return Admission(True, "inherited" if inherited else "trusted", verdict,
                     evidence.justification or "declared non-rational")


def chain_move(
    d: LinkDiagram, site: ChainSite, k: int, evidence: ExteriorEvidence
) -> LinkDiagram:
    """Replace the trivial component C by the Tk template."""
    site = chain_site(d, site.trivial_component, (site.strand1, site.strand2))
    if (excluded := admit(d, site, k, evidence).excluded) is not None:
        raise excluded
    return _chain_splice(d, site, k)


def _chain_splice(d: LinkDiagram, site: ChainSite, k: int) -> LinkDiagram:
    """`chain_move` past its gate, at a site read off ``d``."""
    # strand1's freed ends (stubs 0, 1) take the gamma1 boundary, strand2's
    # the gamma2/twist side; the stub cyclic order around the removed ball
    # can run either way, so both orientations are candidates
    return splice(
        d, TkTemplate(k), ((1, 0, 3, 2), (0, 1, 2, 3)),
        "chain splice found no planar wiring",
        stubs=site.stubs, remove=set(site.crossings),
    )


def augmented_chain_move(
    d: LinkDiagram, site: ChainSite, k: int, evidence: ExteriorEvidence
) -> LinkDiagram:
    """Chain move that keeps C: splice Tk into the strands inside C's disk.

    The splice cuts the two strands, so they must share a face, the face
    inside C's disk on a site whose strands both pass through it, for the
    cut points to lie in one disk as `splice` requires.  A site whose
    clasped strands lie on the two sides of C is refused with the text
    every wiring's refusal gives: cutting two arcs with no face in common
    and joining them through a connected fragment is never planar.
    """
    site = chain_site(d, site.trivial_component, (site.strand1, site.strand2))
    if (excluded := admit(d, site, k, evidence).excluded) is not None:
        raise excluded
    return _augmented_chain_splice(d, site, k)


def _augmented_chain_splice(d: LinkDiagram, site: ChainSite, k: int) -> LinkDiagram:
    """`augmented_chain_move` past its gate, at a site read off ``d``."""
    failure = "augmented chain splice found no planar wiring"
    if not _co_face(d, site.strand1, site.strand2):
        raise SiteError(f"{failure} (None)")
    q = site.crossings
    # ends: strand1 tail, head (0, 1), strand2 tail, head (2, 3); match
    # them to C-cyclic crossings q0..q3 first, then flip each strand
    across = d._analysis.across
    x = (0, 1) if across[d._head(site.strand1)] >> 2 == q[0] else (1, 0)
    y = (2, 3) if across[d._head(site.strand2)] >> 2 == q[2] else (3, 2)
    return splice(d, TkTemplate(k), flip_wirings([(x, y)]), failure,
                  cut=(site.strand1, site.strand2))


# -- switch move and half-twist -------------------------------------------------------


def _new_ring_component(d: LinkDiagram, new: set[int]) -> int:
    part = components(d)
    for comp in range(len(part.cycles)):
        if not _ring_fault(d, part, comp) and {c >> 2 for c in _passages(d, comp)} <= new:
            return comp
    raise AssertionError("inserted ring not found")


def switch_move(d: LinkDiagram, site: SwitchSite, h: Handedness) -> LinkDiagram:
    """Surger arcs g, g' and add a trivial component C encircling both.

    The two variants are the two half-twist parity classes: NegativeSkew
    keeps the new strands parallel inside the ball; PositiveSkew applies
    one positive half-twist along C's disk.  It surgers only where a
    switched wiring is planar with no frozen crossing turned; otherwise
    the ring goes in unswitched, as in `augmenting_circle`.
    """
    g, u = site.arc_g, site.arc_g2
    _require_co_face(d, g, u, "switch move needs two distinct arcs")
    n_old = len(d.crossings)
    result = _insert_clasped_ring(d, g, u, switched=True)
    if h is Handedness.PositiveSkew:
        ring = _new_ring_component(result, set(range(n_old, n_old + 4)))
        result = half_twist(result, ring, +1)
    return result


# Ring insertion wirings of the cut ends (g tail, g head, u tail, u head)
# onto the clasp ports (g, h, u, v of `_clasped_ring`); 'switched'
# pairings route one g-end and one u-end through each clasp.
_SWITCHED_RING_WIRINGS = flip_wirings(
    [((0, 3), (2, 1)), ((0, 2), (3, 1)), ((1, 2), (3, 0)), ((1, 3), (2, 0))]
)
_UNSWITCHED_RING_WIRINGS = flip_wirings([((0, 1), (2, 3))])


def _insert_clasped_ring(d: LinkDiagram, g: int, u: int, switched: bool) -> LinkDiagram:
    """Cut arcs g and u and thread them through a new trivial ring's disk.

    With ``switched`` the surgered strands reconnect g-end to u-end where
    the face geometry allows it; the ring C rides between the two strand
    rails (zigzag, so the disk pattern stays recognizable).  The first
    end-assignment in preference order that is planar with no frozen
    crossing turned wins, so a switched ring may go in unswitched.
    """
    order = (_SWITCHED_RING_WIRINGS + _UNSWITCHED_RING_WIRINGS if switched
             else _UNSWITCHED_RING_WIRINGS + _SWITCHED_RING_WIRINGS)
    return splice(
        d, _clasped_ring, order, f"no planar ring insertion for arcs {g}, {u}", cut=(g, u)
    )


def _clasped_ring() -> tuple:
    """The ring fragment: two clasps whose inner rails (x..y) close into
    the ring; ports g..h on the first clasp's outer rail, u..v on the
    second's."""
    xa, xb = SWITCH_CLASP_CHIRALITY
    return open_tangle(twist_rows(xa, "gah", "xby") + twist_rows(xb, "xcy", "udv"), "ghuv")


# Half-twist wirings of the cut ends (alpha tail, alpha head, beta tail,
# beta head) onto the new crossing's ports (left in, right in, right out,
# left out): the canonical cross-join (alpha tail, beta tail, beta head,
# alpha head) first, then every other permutation.
_HALF_TWIST_WIRINGS = ((0, 2, 3, 1),) + tuple(
    p for p in itertools.permutations(range(4)) if p != (0, 2, 3, 1)
)


def _half_twist_spot(d: LinkDiagram, c: int) -> Optional[tuple[int, int]]:
    """(run1 arc, run2 arc) of c's disk that flank an arc e of c in a
    face, e least; None when no face has one.

    Each corner k of e is entered by one face, where e's neighbours are
    the arcs at the corner before k and the one after it, each read off
    the corner map, so no face is walked.  At most one of e's corners
    qualifies: the two faces beside e hold, at each end crossing of e, the
    two arcs of the strand crossing c there, and a run holds at most one
    of them, since a run meets c only at its two end crossings, one arc at
    each, and the two runs end at four different crossings.
    """
    run1, run2 = _disk_runs(d, c)
    an = d._analysis
    across, arc_at = an.across, an.arc_at
    for e in sorted(components(d).arcs_of(c)):
        for k in an.occ[e]:
            b = across[k]
            alpha = arc_at[b & ~3 | (b - 1) & 3]
            beta = arc_at[across[k & ~3 | (k + 1) & 3]]
            if alpha in run1 and beta in run2:
                return alpha, beta
            if alpha in run2 and beta in run1:
                return beta, alpha
    return None


@dataclass(frozen=True)
class _HalfTwist:
    """The half twist's fragment: one crossing of the given chirality."""

    chirality: int

    def __call__(self) -> tuple:
        return open_tangle(twist_rows(self.chirality, "ab", "cd"), "acdb")


def half_twist(d: LinkDiagram, c: int, direction: int) -> LinkDiagram:
    """Cut along c's twice-punctured disk, twist a half turn, reglue.

    One crossing of the given handedness appears between the two strands
    inside the disk and their exits swap (rotating the punctures forces
    the cross-joined reconnection, so the strands' component membership
    can change).  The crossing is placed flush against c's least-labeled
    arc whose face touches both strand runs, so repeated half-twists
    stack and opposite pairs cancel by an R2 move.  That spot is found
    from the two faces beside each arc of c (`_half_twist_spot`); no
    face of the whole diagram is traced.
    """
    if direction not in (+1, -1):
        raise SiteError("direction must be +1 or -1")
    spot = _half_twist_spot(d, c)
    if spot is None:
        raise SiteError(f"no insertion face inside component {c}'s disk")
    alpha, beta = spot
    chi = TWIST_CHIRALITY_POS * direction
    # Rotating the disk's punctures by a half turn exchanges where the two
    # strands exit, so the cut pieces cross-join through the new crossing
    # (legs interleave around the insertion face); opposite directions give
    # opposite crossing chirality, which is why a +1/-1 pair cancels by R2.
    # The cross-join can genuinely reverse a strand segment of one
    # component, so the frozen crossings along it may turn.
    return splice(
        d, _HalfTwist(chi), _HALF_TWIST_WIRINGS,
        "half twist found no planar wiring", cut=(alpha, beta), reorient=True,
    )


def augmenting_circle(d: LinkDiagram, arc_a: int, arc_b: int) -> LinkDiagram:
    """Add a trivial circle clasping two co-face arcs (no surgery).

    This is the switch move's ring insertion alone; useful for building
    augmented alternating diagrams.
    """
    _require_co_face(d, arc_a, arc_b, "need two distinct arcs")
    return _insert_clasped_ring(d, arc_a, arc_b, switched=False)
