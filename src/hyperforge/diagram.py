"""Link diagrams as labeled PD codes.

Conventions (fixed once, used by the text format and every move):

* A crossing is a 4-tuple of arc labels in counterclockwise rotation
  starting at the incoming under-strand.  Slots 0 and 2 carry the
  under-strand, slots 1 and 3 the over-strand.
* Components are oriented.  Orientation is forced wherever a component
  passes under (it must enter at slot 0); a component that never goes
  under is oriented from its least arc toward the smaller neighbor.
* Crossing sign: +1 when the over-strand enters at slot 3, -1 when it
  enters at slot 1.
* Crossing-free unknot components cannot be expressed by crossing
  tuples; they are stored as a count (``loops``).

Every value here is immutable and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import FormatError, InvalidDiagramError, SiteError, WiringError

DEFAULT_STEP_BUDGET = 1000
_DIRECTION_CONFLICT = "frozen crossings disagree on strand direction"

Slot = tuple[int, int]  # (crossing index, slot index)


@dataclass(frozen=True)
class Crossing:
    """One crossing: arc labels CCW from the incoming under-strand."""

    slots: tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.slots) != 4 or any(
            not isinstance(a, int) or a < 1 for a in self.slots
        ):
            raise FormatError(f"crossing needs 4 positive arc labels, got {self.slots}")

    def under(self) -> tuple[int, int]:
        return (self.slots[0], self.slots[2])

    def over(self) -> tuple[int, int]:
        return (self.slots[1], self.slots[3])

    def rotated(self, r: int) -> "Crossing":
        r %= 4
        x = object.__new__(Crossing)  # the labels are this crossing's: no second check
        object.__setattr__(x, "slots", self.slots[r:] + self.slots[:r])
        return x


@dataclass(frozen=True)
class ValidityReport:
    double_occurrence: bool
    component_consistent: bool
    planar: bool
    vertices: int
    edges: int
    faces: int
    graph_components: int
    problems: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.double_occurrence and self.component_consistent and self.planar

    def summary(self) -> str:
        if self.valid:
            return (
                f"valid (V={self.vertices} E={self.edges} F={self.faces} "
                f"c={self.graph_components})"
            )
        return "; ".join(self.problems) or "invalid"


@dataclass(frozen=True)
class ComponentPartition:
    """Arc cycles (oriented, least-arc first) followed by crossing-free loops."""

    cycles: tuple[tuple[int, ...], ...]
    loops: int

    @property
    def count(self) -> int:
        return len(self.cycles) + self.loops

    def arcs_of(self, comp: int) -> tuple[int, ...]:
        if 0 <= comp < len(self.cycles):
            return self.cycles[comp]
        if 0 <= comp < self.count:
            return ()
        raise SiteError(f"no component {comp}")

    def component_of(self, arc: int) -> int:
        for i, cyc in enumerate(self.cycles):
            if arc in cyc:
                return i
        raise SiteError(f"arc {arc} not in any component")


class _Strands(NamedTuple):
    """The strand trace: each component walked along its orientation."""

    steps: list[list[tuple[int, Slot]]]  # per component: (arc, head), least arc first
    cycles: list[tuple[int, ...]]
    head: dict[int, Slot]
    signs: dict[int, int]
    problems: tuple[str, ...]

    @classmethod
    def of(cls, walks: list[list[tuple[int, Slot]]]) -> "_Strands":
        """The trace, with no problems, of ``walks``: (arc, head) steps per component."""
        head: dict[int, Slot] = {}
        signs: dict[int, int] = {}
        for steps in walks:
            head.update(steps)
            # the over-strand entering at slot 1 is sign -1, at slot 3 +1
            signs.update((ci, si - 2) for _, (ci, si) in steps if si & 1)
        return cls(walks, [tuple(a for a, _ in st) for st in walks], head, signs, ())


class _Embedding(NamedTuple):
    """The faces of the crossing graph and its per-component Euler check."""

    faces: list[tuple[Slot, ...]]
    face_arcs: list[tuple[int, ...]]
    graph_comp_of: dict[int, int]
    n_graph_comps: int
    problems: tuple[str, ...]


class _Analysis:
    """Everything validate/components/signs need, in stages computed on first use.

    Arc occurrences are indexed when the analysis is made.  The strand trace
    (orientation, signs) and the faces with the Euler check each run at most
    once, when something first reads them, and only when every arc occurs
    twice.  The strand trace and `_renormalize` orient the strands by one
    walk per component, `_oriented`, and a diagram `_renormalize` builds
    arrives with its index and strand trace, leaving only its faces.  A
    stage returns its own problems instead of adding to a shared list, so
    `report` lists them in the order occurrences, trace, faces whichever
    stage ran first, and a stage that two threads both compute cannot
    repeat a line.
    """

    def __init__(self, diagram: "LinkDiagram", occ: Optional[dict[int, list[Slot]]] = None,
                 strands: Optional[_Strands] = None):
        """``occ``, when given, is the diagram's occurrence index, every arc
        occurring twice, as `_index_occurrences` would build it, and
        ``strands`` its strand trace, as `_trace` would give it."""
        self.d = diagram
        if occ is None:
            self.occ, self.occ_problems = self._index_occurrences()
        else:
            self.occ, self.occ_problems = occ, ()
        self.double_ok = not self.occ_problems
        if strands is not None:
            self._strands = strands

    @cached_property
    def _strands(self) -> _Strands:
        return self._trace() if self.double_ok else _Strands.of([])

    @cached_property
    def _embedding(self) -> _Embedding:
        return self._faces_and_euler() if self.double_ok else _Embedding([], [], {}, 0, ())

    steps = property(attrgetter("_strands.steps"))
    cycles = property(attrgetter("_strands.cycles"))
    head = property(attrgetter("_strands.head"))
    signs = property(attrgetter("_strands.signs"))
    faces = property(attrgetter("_embedding.faces"))
    face_arcs = property(attrgetter("_embedding.face_arcs"))
    graph_comp_of = property(attrgetter("_embedding.graph_comp_of"))
    n_graph_comps = property(attrgetter("_embedding.n_graph_comps"))

    @property
    def consistent(self) -> bool:
        return self.double_ok and not self._strands.problems

    @property
    def planar_ok(self) -> bool:
        return self.double_ok and not self._embedding.problems

    # stage 1: occurrences

    def _index_occurrences(self) -> tuple[dict[int, list[Slot]], tuple[str, ...]]:
        occ: dict[int, list[Slot]] = {}
        for ci, x in enumerate(self.d.crossings):
            for si, arc in enumerate(x.slots):
                occ.setdefault(arc, []).append((ci, si))
        # sorted only when some arc does not occur twice
        bad = sorted((arc, len(places)) for arc, places in occ.items() if len(places) != 2)
        return occ, tuple(f"arc {arc} used {n} times (need 2)" for arc, n in bad)

    # stage 2: strand tracing and orientation

    def _other(self, arc: int, slot: Slot) -> Slot:
        a, b = self.occ[arc]
        return b if slot == a else a

    def _walk(self, arc: int) -> list[tuple[int, Slot]]:
        """The component of ``arc`` walked once, from ``arc`` into its
        second occurrence."""
        start = (arc, self.occ[arc][1])
        steps = [start]
        while True:
            ci, si = steps[-1][1]
            out = (si + 2) % 4
            nxt_arc = self.d.crossings[ci].slots[out]
            nxt = (nxt_arc, self._other(nxt_arc, (ci, out)))
            if nxt == start:
                return steps
            steps.append(nxt)
            if len(steps) > 4 * len(self.d.crossings) + 4:
                raise AssertionError("strand walk did not close")

    def _oriented(self, frozen: Container[int]) -> Iterator[tuple[list[tuple[int, Slot]], bool]]:
        """Each strand component, walked once, in the order of least arcs.

        A component runs the way its first frozen under-passage along the
        walk from its least arc enters, at slot 0; with no frozen
        under-passage it runs from its least arc toward the smaller
        neighbor.  Yields (steps, conflict): the steps start at the least
        arc, and conflict says some frozen under-passage enters at slot 2.
        """
        seen: set[int] = set()
        for arc in sorted(self.occ):
            if arc in seen:
                continue
            steps = self._walk(arc)
            seen.update(a for a, _ in steps)
            votes = [si for _, (ci, si) in steps if not si & 1 and ci in frozen]
            if votes:
                back = votes[0] == 2
            else:
                back = len(steps) > 1 and steps[-1][0] < steps[1][0]
            if back:
                # going backward, an arc's head is the slot opposite the
                # forward head of the arc before it
                arcs = [arc] + [a for a, _ in steps[:0:-1]]
                steps = [(a, (ci, si ^ 2)) for a, (_, (ci, si)) in zip(arcs, steps[::-1])]
            yield steps, 0 in votes and 2 in votes

    def _trace(self) -> _Strands:
        problems: list[str] = []
        walks: list[list[tuple[int, Slot]]] = []
        for steps, conflict in self._oriented(range(len(self.d.crossings))):
            if conflict:
                problems.append(
                    f"component of arc {steps[0][0]} has conflicting under-strand directions"
                )
            walks.append(steps)
        strands = _Strands.of(walks)
        if not problems:
            problems = [
                f"crossing {ci} never traversed as over-strand"
                for ci in range(len(self.d.crossings))
                if ci not in strands.signs
            ]
        return strands._replace(problems=tuple(problems))

    # stage 3: faces and the Euler check

    def _faces_and_euler(self) -> _Embedding:
        n = len(self.d.crossings)
        # corner 4 * ci + si is slot si of crossing ci; across[k] is the
        # corner at the other end of the arc at corner k
        corner = [(ci, si) for ci in range(n) for si in range(4)]
        arc_at = [a for x in self.d.crossings for a in x.slots]
        across = [0] * (4 * n)
        for (c1, s1), (c2, s2) in self.occ.values():
            across[4 * c1 + s1] = 4 * c2 + s2
            across[4 * c2 + s2] = 4 * c1 + s1

        # graph components, numbered in the order of their least crossings
        comp = [-1] * n
        n_graph_comps = 0
        for root in range(n):
            if comp[root] >= 0:
                continue
            comp[root] = n_graph_comps
            stack = [root]
            while stack:
                k = 4 * stack.pop()
                for far in (across[k] >> 2, across[k + 1] >> 2, across[k + 2] >> 2,
                            across[k + 3] >> 2):
                    if comp[far] < 0:
                        comp[far] = n_graph_comps
                        stack.append(far)
            n_graph_comps += 1

        # a face turn: arrive at corner (ci, si), leave along the arc at
        # slot (si + 1) % 4 and arrive at that arc's other end; faces start
        # at each arc's occurrences in order, arcs ascending
        faces: list[tuple[Slot, ...]] = []
        face_arcs: list[tuple[int, ...]] = []
        seen = bytearray(4 * n)
        for arc in sorted(self.occ):
            for ci, si in self.occ[arc]:
                k = 4 * ci + si
                if seen[k]:
                    continue
                corners: list[Slot] = []
                arcs_here: list[int] = []
                while not seen[k]:
                    seen[k] = 1
                    corners.append(corner[k])
                    arcs_here.append(arc_at[k])
                    k = across[k + 1 if k & 3 != 3 else k - 3]
                faces.append(tuple(corners))
                face_arcs.append(tuple(arcs_here))

        # V - E + F = 2 per component, with E = 2V: every crossing has four
        # slots and every arc two ends
        v = [0] * n_graph_comps
        f = [0] * n_graph_comps
        for g in comp:
            v[g] += 1
        for face in faces:
            f[comp[face[0][0]]] += 1
        problems = tuple(
            f"graph component {g} fails Euler check: V={v[g]} E={2 * v[g]} F={f[g]}"
            for g in range(n_graph_comps)
            if f[g] - v[g] != 2
        )
        return _Embedding(faces, face_arcs, dict(enumerate(comp)), n_graph_comps, problems)

    def report(self) -> ValidityReport:
        n = len(self.d.crossings)
        total_comps = self.n_graph_comps + self.d.loops
        # shared outer face across all pieces of the diagram
        f_total = len(self.faces) + 2 * self.d.loops
        if total_comps > 1:
            f_total -= total_comps - 1
        return ValidityReport(
            double_occurrence=self.double_ok,
            component_consistent=self.consistent,
            planar=self.planar_ok,
            vertices=n,
            edges=sum(len(p) for p in self.occ.values()) // 2,
            faces=f_total,
            graph_components=total_comps,
            problems=self.occ_problems + self._strands.problems + self._embedding.problems,
        )

    @cached_property
    def validity(self) -> ValidityReport:
        """The report, built once: `require_valid` guards most queries."""
        return self.report()


@dataclass(frozen=True)
class LinkDiagram:
    """A link diagram: crossings plus a count of crossing-free loops."""

    crossings: tuple[Crossing, ...] = ()
    loops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        if self.loops < 0:
            raise FormatError("loop count must be nonnegative")

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis(self)

    @cached_property
    def arcs(self) -> tuple[int, ...]:
        return tuple(sorted(self._analysis.occ))

    def occurrences(self, arc: int) -> tuple[Slot, ...]:
        return tuple(self._analysis.occ[arc])

    def require_valid(self) -> None:
        rep = self._analysis.validity
        if not rep.valid:
            raise InvalidDiagramError(rep)

    def sign(self, ci: int) -> int:
        self.require_valid()
        return self._analysis.signs[ci]

    def head_of(self, arc: int) -> Slot:
        """The occurrence an arc flows into (per the assigned orientation)."""
        self.require_valid()
        return self._analysis.head[arc]

    def tail_of(self, arc: int) -> Slot:
        self.require_valid()
        return self._analysis._other(arc, self._analysis.head[arc])

    def faces(self) -> tuple[tuple[Slot, ...], ...]:
        self.require_valid()
        return tuple(self._analysis.faces)

    def face_arcs(self) -> tuple[tuple[int, ...], ...]:
        self.require_valid()
        return tuple(self._analysis.face_arcs)

    def fresh_arc(self) -> int:
        return (max(self.arcs) if self.arcs else 0) + 1

    def __repr__(self):
        return f"LinkDiagram({len(self.crossings)} crossings, {self.loops} loops)"


# -- basic operations ----------------------------------------------------------


def validate(d: LinkDiagram) -> ValidityReport:
    """Check double-occurrence, orientation consistency, and planarity."""
    return d._analysis.validity


def components(d: LinkDiagram) -> ComponentPartition:
    d.require_valid()
    return ComponentPartition(cycles=tuple(d._analysis.cycles), loops=d.loops)


def linking_number(d: LinkDiagram, a: int, b: int) -> int:
    """Half the signed count of crossings between components a and b."""
    if a == b:
        raise SiteError("linking number needs two distinct components")
    part = components(d)
    arcs_a = set(part.arcs_of(a))
    arcs_b = set(part.arcs_of(b))
    total = 0
    for ci, x in enumerate(d.crossings):
        under, over = x.slots[0], x.slots[1]
        if (under in arcs_a and over in arcs_b) or (under in arcs_b and over in arcs_a):
            total += d.sign(ci)
    if total % 2 != 0:
        raise AssertionError("odd signed crossing sum between two components")
    return total // 2


def is_alternating(d: LinkDiagram) -> bool:
    d.require_valid()
    for steps in d._analysis.steps:
        word = [si % 2 for _, (_, si) in steps]
        if not word:
            continue
        if len(word) % 2 == 1:
            return False
        if any(word[i] == word[(i + 1) % len(word)] for i in range(len(word))):
            return False
    return True


def nugatory_crossings(d: LinkDiagram) -> tuple[int, ...]:
    """Crossings with two opposite corners on the same face."""
    d.require_valid()
    out = set()
    for face in d._analysis.faces:
        seen: dict[int, set[int]] = {}
        for ci, k in face:
            seen.setdefault(ci, set()).add(k)
        for ci, ks in seen.items():
            if any((k + 2) % 4 in ks for k in ks):
                out.add(ci)
    return tuple(sorted(out))


def is_reduced(d: LinkDiagram) -> bool:
    return not nugatory_crossings(d)


def is_split(d: LinkDiagram) -> bool:
    d.require_valid()
    return d._analysis.n_graph_comps + d.loops > 1


def two_edge_cuts(d: LinkDiagram) -> tuple[tuple[int, int], ...]:
    """Arc pairs whose removal disconnects crossings from crossings.

    Read off the traced faces by Whitney's cut-cycle duality: in a
    connected plane graph the minimal edge cuts (bonds) are exactly the
    cycles of the dual graph.  The crossing graph is 4-regular, so it is
    Eulerian and has no bridge; every 2-edge cut is therefore a bond, that
    is a 2-cycle of the dual: two arcs that border the same two distinct
    faces.  A kink arc borders a 1-gon no other arc borders, so it never
    pairs.  Preconditions: the diagram is valid, so the traced faces form
    a cellular embedding on the sphere (the Euler check passed), and the
    crossing graph is connected.  A disconnected crossing graph is cut by
    every pair of arcs, and all pairs are returned.

    Pairs come out with the lesser arc first, sorted, as
    ``itertools.combinations`` over the sorted arcs lists them, so
    ``two_edge_cuts(d)[0]`` is the least cut.  O(E log E) in the arc
    count E, the sort being taken over the output.
    """
    d.require_valid()
    if len(d.crossings) < 2:
        return ()
    an = d._analysis
    arcs = sorted(an.occ)
    if an.n_graph_comps > 1:
        return tuple(itertools.combinations(arcs, 2))
    sides: dict[int, list[int]] = {}  # arc -> the faces of its two darts, ascending
    for fi, face in enumerate(an.face_arcs):
        for arc in face:
            sides.setdefault(arc, []).append(fi)
    by_faces: dict[tuple[int, int], list[int]] = {}
    for arc in arcs:
        f1, f2 = sides[arc]
        if f1 != f2:
            by_faces.setdefault((f1, f2), []).append(arc)
    return tuple(sorted(
        pair for group in by_faces.values() for pair in itertools.combinations(group, 2)
    ))


def is_prime_diagram(d: LinkDiagram) -> bool:
    """No 2-edge cut of the plane graph separating crossings on both sides."""
    if is_split(d):
        return False
    if len(d.crossings) < 2:
        return True
    return not two_edge_cuts(d)


# -- normalization helper --------------------------------------------------------


def _renormalize(
    crossings: Sequence[Crossing], loops: int, frozen: Container[int], allow_reorient: bool = False
) -> LinkDiagram:
    """Rotate crossings by 2 where needed to meet the convention.

    Each component takes the direction of its first frozen under-passage
    (see `_Analysis._oriented`), and every crossing it enters at slot 2
    rotates so the incoming under-strand sits at slot 0.  CCW rotation and
    the under/over split are never changed.  Frozen crossings that
    disagree on a component's direction raise a WiringError, unless
    ``allow_reorient``: a move genuinely reversed a strand segment, as a
    half twist on two strands of one component does, and every frozen
    crossing that disagrees with the first rotates by 2 as well; arc
    labels never change.  The output arrives with its occurrence index and
    strand trace: the probe's, each slot of a turned crossing moved by 2.
    Every under-passage then enters at slot 0, so the output's own trace
    would walk each component the same way, with no conflict.
    """
    ana = LinkDiagram(tuple(crossings), loops=loops)._analysis
    if not ana.double_ok:
        raise InvalidDiagramError(ana.validity)
    oriented = list(ana._oriented(frozen))
    if not allow_reorient and any(conflict for _, conflict in oriented):
        raise WiringError(_DIRECTION_CONFLICT)
    turned = {ci for steps, _ in oriented for _, (ci, si) in steps if si == 2}
    occ = ana.occ
    for arc in {arc for ci in turned for arc in crossings[ci].slots}:
        occ[arc] = sorted((ci, si ^ 2) if ci in turned else (ci, si) for ci, si in occ[arc])
    walks = [[(a, (ci, si ^ 2) if ci in turned else (ci, si)) for a, (ci, si) in steps]
             for steps, _ in oriented]
    out = (x.rotated(2) if ci in turned else x for ci, x in enumerate(crossings))
    d = LinkDiagram(tuple(out), loops=loops)
    object.__setattr__(d, "_analysis", _Analysis(d, occ, _Strands.of(walks)))
    return d


def _relabel_occurrence(crossings: list[Crossing], at: Slot, new_arc: int) -> None:
    ci, si = at
    s = list(crossings[ci].slots)
    s[si] = new_arc
    crossings[ci] = Crossing(tuple(s))


def _drop_crossings(d: LinkDiagram, removed: set[int], joins) -> LinkDiagram:
    """Delete the ``removed`` crossings and merge each pair of arcs in
    ``joins`` (the two sides of a strand through a deleted crossing).

    A merged arc keeps its least label; one that meets no kept crossing
    becomes a crossing-free loop.
    """
    parent: dict[int, int] = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    keep_idx = [i for i in range(len(d.crossings)) if i not in removed]
    remap = {old: new for new, old in enumerate(keep_idx)}
    crossings = [d.crossings[i] for i in keep_idx]
    loops = d.loops
    groups: dict[int, set[int]] = {}
    for a in parent:
        groups.setdefault(find(a), set()).add(a)
    for root, members in groups.items():
        far = [o for a in members for o in d._analysis.occ[a] if o[0] not in removed]
        if not far:
            loops += 1
            continue
        for o in far:
            _relabel_occurrence(crossings, (remap[o[0]], o[1]), root)
    return LinkDiagram(tuple(crossings), loops=loops)


# -- component rings, twice-punctured disks, component removal -----------------------


def _passages(d: LinkDiagram, comp: int) -> list[tuple[int, int]]:
    """(crossing, slot) passages of a component with crossings, in traversal order."""
    return [(ci, si) for _, (ci, si) in d._analysis.steps[comp]]


def _other_strand_arcs(d: LinkDiagram, ci: int, si: int) -> tuple[int, int]:
    """The two arcs of the strand crossing ``comp``'s passage (ci, si)."""
    x = d.crossings[ci]
    return x.over() if si % 2 == 0 else x.under()


def _ring_fault(d: LinkDiagram, part: ComponentPartition, comp: int) -> Optional[str]:
    """Why ``comp`` is not a ring that other strands cross four times, or None."""
    if comp < 0:
        return f"no component {comp}"
    if comp >= len(part.cycles):
        return f"component {comp} has no crossings"
    pas = _passages(d, comp)
    if len(pas) != 4:
        return f"component {comp} crosses {len(pas)} times; the pattern needs 4"
    comp_arcs = set(part.arcs_of(comp))
    if any(set(_other_strand_arcs(d, ci, si)) & comp_arcs for ci, si in pas):
        return f"component {comp} crosses itself"
    return None


def _disk_runs(d: LinkDiagram, comp: int):
    """Pattern scan for a twice-punctured-disk boundary component.

    Returns (run1 arcs, run2 arcs) where each run is the chain of strand
    arcs through the disk between a clasp pair (possibly through twist
    crossings inserted by earlier half-twists).
    """
    part = components(d)
    fault = _ring_fault(d, part, comp)
    if fault:
        raise SiteError(fault)
    pas = _passages(d, comp)
    c_crossings = {ci for ci, _ in pas}

    def inner_run(ca: int, sa: int, cb: int) -> Optional[set[int]]:
        # follow the other strand from crossing ca to the first return to C;
        # the inner side is the shortest walk that lands on the pair partner
        candidates = []
        for start in _other_strand_arcs(d, ca, sa):
            run = {start}
            occs = [o for o in d._analysis.occ[start] if o[0] != ca]
            if not occs:
                continue  # both ends at ca
            cur = occs[0]
            for _ in range(4 * len(d.crossings) + 1):  # a longer walk is dead
                if cur[0] in c_crossings:
                    if cur[0] == cb:
                        candidates.append(run)
                    break
                out = (cur[0], (cur[1] + 2) % 4)
                nxt_arc = d.crossings[out[0]].slots[out[1]]
                run.add(nxt_arc)
                a, b = d._analysis.occ[nxt_arc]
                cur = b if a == out else a
        if not candidates:
            return None
        return min(candidates, key=len)

    # adjacent pairings are clasps (equal signs = genuinely linked); the
    # diagonal pairing appears after a half twist rotates the punctures.
    # Among valid pairings the one with the shortest runs is the disk
    # interior (outer detours around the rest of the link are longer).
    candidates = [
        (((pas[0], pas[1]), (pas[2], pas[3])), True),
        (((pas[1], pas[2]), (pas[3], pas[0])), True),
        (((pas[0], pas[2]), (pas[1], pas[3])), False),
    ]
    found = []
    for pairs, check_signs in candidates:
        if check_signs and any(d.sign(pa[0]) != d.sign(pb[0]) for pa, pb in pairs):
            continue
        runs = []
        for (ca, sa), (cb, sb) in pairs:
            run = inner_run(ca, sa, cb)
            if run is None:
                break
            runs.append(run)
        if len(runs) == 2 and not (runs[0] & runs[1]):
            found.append((len(runs[0]) + len(runs[1]), len(found), tuple(runs)))
    if not found:
        raise SiteError(f"component {comp} does not bound a recognizable disk")
    return min(found)[2]


def remove_component(d: LinkDiagram, comp: int) -> LinkDiagram:
    """Delete a component; strands that crossed it continue straight."""
    part = components(d)
    if not 0 <= comp < part.count:
        raise SiteError(f"no component {comp}")
    if comp >= len(part.cycles):
        return LinkDiagram(d.crossings, loops=d.loops - 1)
    comp_arcs = set(part.arcs_of(comp))
    removed = {ci for ci, _ in _passages(d, comp)}
    # the strands that crossed the component continue straight
    joins = [
        pair
        for ci in removed
        for pair in (d.crossings[ci].under(), d.crossings[ci].over())
        if pair[0] not in comp_arcs and pair[1] not in comp_arcs
    ]
    out = _drop_crossings(d, removed, joins)
    out.require_valid()
    return out


# -- fragment builder --------------------------------------------------------------


class DiagramBuilder:
    """Assemble diagrams and spliced fragments from twist regions and welds.

    Ports are (crossing index, slot) pairs or terminals.  Crossing protos
    put the under-strand on slots {0, 2}; the final rotation by 2 (to put
    the *incoming* under-strand at slot 0) happens at build time.  When a
    base diagram is given, its kept crossings are frozen; ``stub`` and
    ``cut`` wire new fragments onto its existing arcs.  A frozen crossing's
    proto is the base's `Crossing` itself, replaced only when ``cut``
    relabels it, so the build reuses every crossing that did not change.
    """

    def __init__(self, base: Optional[LinkDiagram] = None, remove: Iterable[int] = ()):
        self.base = base
        self.removed = frozenset(remove)
        self.protos: list = []  # frozen crossings, then new crossings' slot lists
        self._old_to_new: dict[int, int] = {}
        if base is not None:
            base.require_valid()
            for ci, x in enumerate(base.crossings):
                if ci not in self.removed:
                    self._old_to_new[ci] = len(self.protos)
                    self.protos.append(x)
        self.n_frozen = len(self.protos)
        self.loops = base.loops if base is not None else 0
        self.welds: dict = {}
        self.stub_labels: dict = {}
        self._terminal_count = 0
        self._next_arc = base.fresh_arc() if base is not None else 1

    # ports

    def crossing(self) -> int:
        self.protos.append([None, None, None, None])
        return len(self.protos) - 1

    def terminal(self, name: str = "t"):
        self._terminal_count += 1
        return ("t", self._terminal_count, name)

    def stub(self, arc: int):
        """Terminal carrying the freed end of existing arc ``arc``."""
        t = self.terminal(f"stub:{arc}")
        self.stub_labels[t] = arc
        return t

    def fresh_label(self) -> int:
        label = self._next_arc
        self._next_arc += 1
        return label

    def cut(self, arc: int) -> tuple:
        """Cut a base arc; returns (tail-side stub, head-side stub).

        The piece at the arc's tail keeps the label; the head occurrence is
        relabeled fresh.  Both pieces stay attached to their far crossings.
        """
        if self.base is None:
            raise AssertionError("cut needs a base diagram")
        head = self.base.head_of(arc)
        if head[0] in self.removed:
            raise AssertionError("cut arc ends at a removed crossing; use stub")
        fresh = self.fresh_label()
        _relabel_occurrence(self.protos, (self._old_to_new[head[0]], head[1]), fresh)
        return self.stub(arc), self.stub(fresh)

    def weld(self, p, q) -> None:
        for port in (p, q):
            self.welds.setdefault(port, [])
            if len(self.welds[port]) >= self._capacity(port):
                raise AssertionError(f"over-welded port {port}")
        self.welds[p].append(q)
        self.welds[q].append(p)

    def _capacity(self, port) -> int:
        if self._is_terminal(port):
            return 1 if port in self.stub_labels else 2
        return 1

    # twist unit

    def twist_crossing(self, chirality: int) -> dict:
        """One crossing of a two-rail twist region.

        chirality +1: the strand entering on the left rail goes over;
        chirality -1: the right one does.  Rails swap below the crossing.
        """
        ci = self.crossing()
        if chirality > 0:
            # under: in_r -> out_l; CCW from in_r: (in_r, in_l, out_l, out_r)
            return {"in_r": (ci, 0), "in_l": (ci, 1), "out_l": (ci, 2), "out_r": (ci, 3)}
        # under: in_l -> out_r; CCW from in_l: (in_l, out_l, out_r, in_r)
        return {"in_l": (ci, 0), "out_l": (ci, 1), "out_r": (ci, 2), "in_r": (ci, 3)}

    def twist_region(self, n: int, chirality: int) -> dict:
        """n same-handed crossings; for n = 0 the rails pass straight through."""
        if n < 0:
            raise AssertionError("twist_region wants a count, not a signed twist")
        if n == 0:
            t1, t2 = self.terminal("pass_l"), self.terminal("pass_r")
            return {"in_l": t1, "out_l": t1, "in_r": t2, "out_r": t2}
        first = self.twist_crossing(chirality)
        cur = first
        for _ in range(n - 1):
            nxt = self.twist_crossing(chirality)
            self.weld(cur["out_l"], nxt["in_l"])
            self.weld(cur["out_r"], nxt["in_r"])
            cur = nxt
        return {
            "in_l": first["in_l"],
            "in_r": first["in_r"],
            "out_l": cur["out_l"],
            "out_r": cur["out_r"],
        }

    # build

    def _is_terminal(self, port) -> bool:
        return len(port) == 3  # a crossing slot is a pair

    def build(self, allow_reorient: bool = False) -> LinkDiagram:
        loops = self._label()
        n = self.n_frozen
        crossings = self.protos[:n] + [Crossing(tuple(p)) for p in self.protos[n:]]
        return _renormalize(crossings, loops, frozen=range(n), allow_reorient=allow_reorient)

    def _trail(self, start, stops: Container) -> list:
        """The plain terminals the welds pass from ``start`` (an open crossing slot
        or a plain terminal) along its first weld, then the crossing slot or the
        ``stops`` terminal they reach."""
        if not self.welds.get(start):
            raise AssertionError(f"unwelded crossing slot {start}")
        trail = []
        prev, cur = start, self.welds[start][0]
        while self._is_terminal(cur) and cur not in stops:
            trail.append(cur)
            nbrs = self.welds[cur]
            prev, cur = cur, nbrs[0] if nbrs[0] != prev else nbrs[1]
        trail.append(cur)
        return trail

    def _label(self) -> int:
        """Label every open crossing slot through the welds, in place; returns
        the loop count.  A slot that reaches a stub takes its label, and two
        slots that reach each other share a fresh one."""
        for t in self.welds:
            if self._is_terminal(t) and len(self.welds[t]) != self._capacity(t):
                raise AssertionError(f"incomplete terminal {t}")
        consumed: set = set()
        loops = self.loops
        # the kept base crossings are labelled already
        for ci in range(self.n_frozen, len(self.protos)):
            for si in range(4):
                if self.protos[ci][si] is not None:
                    continue
                trail = self._trail((ci, si), self.stub_labels)
                consumed.update(trail)
                end = trail[-1]
                if end in self.stub_labels:
                    self.protos[ci][si] = self.stub_labels[end]
                else:
                    self.protos[ci][si] = self.protos[end[0]][end[1]] = self.fresh_label()
        # unconsumed plain terminals must form closed cycles: crossing-free loops
        loose = [t for t in self.welds
                 if self._is_terminal(t) and t not in consumed and t not in self.stub_labels]
        for t in sorted(loose, key=str):
            if t not in consumed:
                trail = self._trail(t, {t, *self.stub_labels})
                if trail[-1] != t:
                    raise AssertionError("dangling terminal chain")
                consumed.update(trail)
                loops += 1
        for t in self.stub_labels:
            if t in self.welds and t not in consumed:
                raise AssertionError(f"stub {t} never reached from a crossing slot")
        return loops


# -- splicing --------------------------------------------------------------------


def flip_wirings(pairings) -> list[tuple[int, ...]]:
    """Wirings from (first pair, second pair) options of ends, each pair as
    given and reversed, the second flipping faster: ab, ab', a'b, a'b'."""
    return [
        pa + pb for a, b in pairings for pa in (a, a[::-1]) for pb in (b, b[::-1])
    ]


class _Side(NamedTuple):
    """One side of a splice seen from its open ends: the base minus the
    removed crossings with the cut arcs opened, or the fragment.

    Entering the side by its open end e, a face walk leaves it by end
    ``face_next[e]`` and a strand walk by end ``strand_next[e]``.
    ``vote[e]`` is None when that strand segment passes under no frozen
    crossing, and otherwise says whether walking it from e follows the
    base's orientation.  ``piece[e]`` numbers the connected part of the
    side that e is on, and ``excess[p]`` is part p's faces that no walk from
    an open end enters minus its crossings.
    """

    face_next: list[int]
    strand_next: list[int]
    vote: list[Optional[bool]]
    piece: list[int]
    excess: list[int]


def _open_walk(across: dict[Slot, Slot], open_at: dict[Slot, int], slot: Slot,
               turn: int) -> tuple[int, bool]:
    """Walk in by open slot ``slot`` and on through the crossings, leaving
    each by the slot ``turn`` places counterclockwise from the one entered
    (1 follows a face, 2 a strand), until the walk leaves by an open slot.
    ``across`` maps each other slot to the far end of its arc.  Returns the
    open slot's end and whether the walk entered an under-slot."""
    ci, si = slot
    under = False
    while True:
        under = under or not si & 1
        out = (ci, (si + turn) & 3)
        end = open_at.get(out)
        if end is not None:
            return end, under
        ci, si = across[out]


def _pieces(across: dict[Slot, Slot], open_at: dict[Slot, int],
            roots: Iterable[int]) -> dict[int, int]:
    """The connected part of every crossing reachable from ``roots`` without
    crossing an open slot, numbered in the order of the roots."""
    piece: dict[int, int] = {}
    count = 0
    for root in roots:
        if root in piece:
            continue
        p = piece[root] = count
        count += 1
        stack = [root]
        while stack:
            ci = stack.pop()
            for si in range(4):
                if (ci, si) not in open_at:
                    far = across[ci, si][0]
                    if far not in piece:
                        piece[far] = p
                        stack.append(far)
    return piece


def _base_side(base: LinkDiagram, removed: frozenset[int], cut: Sequence[int],
               stubs: Sequence[int], directed: bool) -> _Side:
    """The base side of a splice, its ends numbered as the builder's: each
    cut arc's tail and head, then each stub arc's kept occurrence.

    A stub arc that meets no kept crossing is listed twice and passes
    straight through from one of its ends to the other.  The strand walks
    run only when ``directed``.  No face is traced: the base is valid, so
    each part of it is planar on its own, V - E + F = 2.  A part with k
    ends has E = 2V - k / 2, and its faces are the faces no walk enters and
    one for each cycle the face walks close into, c in all; so its excess
    is 2 - k / 2 - c.
    """
    an = base._analysis
    occ, head = an.occ, an.head
    slots = [x.slots for x in base.crossings]
    across = {a: b for a, b in occ.values()} | {b: a for a, b in occ.values()}
    ends: list[Optional[Slot]] = []
    for arc in cut:
        ends += [an._other(arc, head[arc]), head[arc]]
    through: dict[int, list[int]] = {}  # stub arc -> its two ends, when it meets no kept crossing
    for arc in stubs:
        kept = [o for o in occ[arc] if o[0] not in removed]
        if not kept:
            through.setdefault(arc, []).append(len(ends))
        ends.append(kept[0] if len(kept) == 1 else None)
    open_at = {slot: e for e, slot in enumerate(ends) if slot is not None}
    freed = {o for ci in removed for arc in slots[ci] for o in occ[arc] if o[0] not in removed}
    if (len(open_at) + 2 * len(through) != len(ends)
            or any(len(pair) != 2 for pair in through.values())
            or any(ci in removed for ci, _ in open_at) or not freed <= open_at.keys()):
        raise AssertionError("splice ends must free each end of an arc once")

    n = len(ends)
    face_next, strand_next = [0] * n, [0] * n
    vote: list[Optional[bool]] = [None] * n
    piece_of = _pieces(across, open_at, (ci for ci, _ in open_at))
    piece = [0 if slot is None else piece_of[slot[0]] for slot in ends]
    n_pieces = 1 + max((piece_of[ci] for ci, _ in open_at), default=-1)
    for a, b in through.values():
        face_next[a], face_next[b] = strand_next[a], strand_next[b] = b, a
        piece[a] = piece[b] = n_pieces
        n_pieces += 1
    for slot, e in open_at.items():
        face_next[e] = _open_walk(across, open_at, slot, 1)[0]
    if directed:
        walked: set[int] = set()
        for slot, e in open_at.items():
            if e in walked:
                continue
            far, under = _open_walk(across, open_at, slot, 2)
            strand_next[e], strand_next[far] = far, e
            walked.update((e, far))
            if under:
                inward = head[slots[slot[0]][slot[1]]] == slot
                vote[e], vote[far] = inward, not inward
    ends_in = [0] * n_pieces
    for p in piece:
        ends_in[p] += 1
    excess = [2 - k // 2 for k in ends_in]
    seen = [False] * n
    for e in range(n):
        if not seen[e]:
            excess[piece[e]] -= 1
            while not seen[e]:
                seen[e] = True
                e = face_next[e]
    return _Side(face_next, strand_next, vote, piece, excess)


def _fragment_side(bld: DiagramBuilder, ports: Sequence) -> Optional[_Side]:
    """The fragment side of a splice, read off the welds of ``bld``, the
    builder whose new crossings are the fragment, before any port is
    welded; its ends are ``ports`` in order.  None when a part of the
    fragment without ports fails the Euler check, so that no wiring is
    planar.  Nothing is labelled: the build takes every fresh label."""
    port_of = {port: i for i, port in enumerate(ports)}
    new = range(bld.n_frozen, len(bld.protos))
    open_at: dict[Slot, int] = {}  # the crossing slot port i's welds lead to -> i
    across: dict[Slot, Slot] = {}
    for slot in itertools.product(new, range(4)):
        if slot not in across:
            end = slot if slot in port_of else bld._trail(slot, port_of)[-1]
            if end in port_of:
                open_at[slot] = port_of[end]
            else:
                across[slot], across[end] = end, slot
    port_slots = sorted(open_at, key=open_at.get)
    piece_of = _pieces(across, open_at, [ci for ci, _ in port_slots] + list(new))
    excess = [0] * (1 + max(piece_of.values(), default=-1))
    for ci in new:
        excess[piece_of[ci]] -= 1
    # walk on from every corner, the way a face turns, until the walk
    # leaves by a port or meets a corner already walked: a face no walk
    # from a port enters is met again at its start
    seen: set[Slot] = set()
    for start in itertools.product(new, range(4)):
        if start in seen:
            continue
        corner = start
        while corner not in seen:
            seen.add(corner)
            out = (corner[0], (corner[1] + 1) & 3)
            if out in open_at:
                break
            corner = across[out]
        else:
            if corner == start:
                excess[piece_of[start[0]]] += 1
    with_ports = 1 + max((piece_of[ci] for ci, _ in port_slots), default=-1)
    if any(x != 2 for x in excess[with_ports:]):
        return None
    return _Side(
        [_open_walk(across, open_at, slot, 1)[0] for slot in port_slots],
        [_open_walk(across, open_at, slot, 2)[0] for slot in port_slots],
        [None] * len(ports),
        [piece_of[ci] for ci, _ in port_slots],
        excess[:with_ports],
    )


def _wiring_fault(near: _Side, far: _Side, wiring: Sequence[int], directed: bool) -> Optional[str]:
    """Why welding port i of ``far`` to end ``wiring[i]`` of ``near`` gives
    no valid diagram, or None when it gives one.

    "direction": a strand component through the fragment would walk one
    voting base segment forward and another backward, which is the
    builder's WiringError (judged only when ``directed``).  "non-planar": a
    graph component the wiring makes fails the Euler check.  A component's
    faces minus its crossings are its parts' excesses plus the faces that
    run through the fragment, each a cycle of entering ``near`` by an end,
    leaving it by ``face_next``, entering ``far`` by the port welded there,
    and so on.
    """
    n = len(near.face_next)
    port_of = [-1] * n
    for port, end in enumerate(wiring):
        port_of[end] = port
    if len(wiring) != n or len(far.face_next) != n or -1 in port_of:
        raise AssertionError(f"over-welded end: wiring {tuple(wiring)} does not weld "
                             f"each of {len(far.face_next)} ports to an end of its own")
    if directed:
        seen = [False] * n
        for start in range(n):
            ways: set[bool] = set()
            end = start
            while not seen[end]:
                other = near.strand_next[end]
                seen[end] = seen[other] = True
                if near.vote[end] is not None:
                    ways.add(near.vote[end])
                end = wiring[far.strand_next[port_of[other]]]
            if len(ways) == 2:
                return "direction"

    shift = len(near.excess)
    root = list(range(shift + len(far.excess)))

    def find(p: int) -> int:
        while root[p] != p:
            p = root[p]
        return p

    for port, end in enumerate(wiring):
        root[find(near.piece[end])] = find(shift + far.piece[port])
    euler = [0] * len(root)
    for p, x in enumerate(near.excess + far.excess):
        euler[find(p)] += x
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            euler[find(near.piece[start])] += 1
            end = start
            while not seen[end]:
                seen[end] = True
                end = wiring[far.face_next[port_of[near.face_next[end]]]]
    if any(euler[p] != 2 for p in range(len(root)) if root[p] == p):
        return "non-planar"
    return None


def splice(
    base: LinkDiagram,
    emit: Callable[[DiagramBuilder], Sequence],
    wirings: Sequence[Sequence[int]],
    failure: str,
    *,
    cut: Sequence[int] = (),
    stubs: Sequence[int] = (),
    remove: Iterable[int] = (),
    reorient: bool = False,
) -> LinkDiagram:
    """Weld a fragment into ``base`` by the first wiring that gives a valid diagram.

    A builder over ``base`` minus ``remove`` cuts the ``cut`` arcs in order
    (ends: each arc's tail, then head), ``emit`` adds the fragment and
    returns its ports, the ``stubs`` arcs become further ends, and port i is
    welded to end ``wiring[i]``; ``reorient`` is the build's
    ``allow_reorient``.  That is one builder and one emit per splice.

    The wirings are judged in order before any is welded.  Each side is
    walked once from its open ends (`_base_side`, `_fragment_side`), and
    then each wiring costs a walk over the ends alone (`_wiring_fault`): it
    is valid when no strand component through the fragment needs frozen
    crossings turned (unless ``reorient``) and every graph component passes
    the Euler check.  Judging takes no fresh label, so the first valid
    wiring is built with the labels and crossing indices of building it
    alone, and its output arrives with its strand trace.  With no valid
    wiring: SiteError("<failure> (<last wiring error>)"), that error
    being the strand-direction WiringError when some wiring needed a frozen
    crossing turned, and None otherwise.  A builder fault (an over-welded
    port, an unwelded slot) is a bug and propagates, and so does a built
    wiring that is not valid.
    """
    removed = frozenset(remove)
    base.require_valid()
    near = _base_side(base, removed, cut, stubs, directed=not reorient)
    bld = DiagramBuilder(base=base, remove=removed)
    ends = [end for arc in cut for end in bld.cut(arc)]
    ports = emit(bld)
    ends += [bld.stub(arc) for arc in stubs]
    far = _fragment_side(bld, ports)
    turned = False
    for wiring in wirings:
        fault = "non-planar" if far is None else _wiring_fault(near, far, wiring, not reorient)
        if fault is None:
            break
        turned = turned or fault == "direction"
    else:
        raise SiteError(f"{failure} ({WiringError(_DIRECTION_CONFLICT) if turned else None})")
    for port, end in zip(ports, wiring):
        bld.weld(ends[end], port)
    try:
        out = bld.build(allow_reorient=reorient)
    except (WiringError, InvalidDiagramError) as err:
        raise AssertionError(f"wiring {tuple(wiring)} was judged valid: {err}") from err
    if not (out._analysis.planar_ok and validate(out).valid):
        raise AssertionError(f"wiring {tuple(wiring)} was judged valid: {validate(out).summary()}")
    return out


# -- Reidemeister moves --------------------------------------------------------


def _require_co_face(d: LinkDiagram, a: int, b: int, equal: str) -> None:
    """Raise SiteError unless ``a`` and ``b`` are two arcs of ``d`` on one
    face; ``equal`` is the message when they are the same arc."""
    d.require_valid()
    if a == b:
        raise SiteError(equal)
    for arc in (a, b):
        if arc not in d._analysis.occ:
            raise SiteError(f"no arc {arc}")
    if not any(a in fa and b in fa for fa in d._analysis.face_arcs):
        raise SiteError(f"arcs {a} and {b} do not share a face")


def reidemeister1(d: LinkDiagram, arc: Optional[int], handedness: int) -> LinkDiagram:
    """Add a kink on ``arc`` (or on a crossing-free loop when arc is None)."""
    if handedness not in (+1, -1):
        raise SiteError("handedness must be +1 or -1")
    d.require_valid()
    if arc is None:
        if d.loops < 1:
            raise SiteError("no crossing-free loop to kink")
        m1, m2 = d.fresh_arc(), d.fresh_arc() + 1
        kink = Crossing((m1, m1, m2, m2)) if handedness > 0 else Crossing((m1, m2, m2, m1))
        return LinkDiagram(d.crossings + (kink,), loops=d.loops - 1)
    if arc not in d._analysis.occ:
        raise SiteError(f"no arc {arc}")
    m1, m2 = d.fresh_arc(), d.fresh_arc() + 1
    crossings = list(d.crossings)
    _relabel_occurrence(crossings, d.head_of(arc), m2)
    kink = Crossing((arc, m2, m1, m1)) if handedness > 0 else Crossing((arc, m1, m1, m2))
    crossings.append(kink)
    return _renormalize(crossings, d.loops, frozen=range(len(d.crossings)))


def find_kinks(d: LinkDiagram) -> tuple[int, ...]:
    """Crossings carrying an arc on two adjacent slots (R1-removable)."""
    d.require_valid()
    out = []
    for ci, x in enumerate(d.crossings):
        if any(x.slots[s] == x.slots[(s + 1) % 4] for s in range(4)):
            out.append(ci)
    return tuple(out)


def reidemeister1_undo(d: LinkDiagram, ci: int) -> LinkDiagram:
    d.require_valid()
    if not 0 <= ci < len(d.crossings):
        raise SiteError(f"no crossing {ci}")
    x = d.crossings[ci]
    pair = next((s for s in range(4) if x.slots[s] == x.slots[(s + 1) % 4]), None)
    if pair is None:
        raise SiteError(f"crossing {ci} is not a kink")
    return _drop_crossings(d, {ci}, [(x.slots[(pair + 2) % 4], x.slots[(pair + 3) % 4])])


def reidemeister2(
    d: LinkDiagram, arc_pair: tuple[int, int], layering: str = "first_over"
) -> LinkDiagram:
    """Push arc_pair[0] across arc_pair[1] through a face they share."""
    a, b = arc_pair
    _require_co_face(d, a, b, "R2 needs two distinct arcs")
    if layering not in ("first_over", "second_over"):
        raise SiteError("layering must be first_over or second_over")
    over, under = (a, b) if layering == "first_over" else (b, a)

    def emit(bld: DiagramBuilder) -> tuple:
        # the over strand rides the left rail and stays on top: the
        # second crossing flips chirality because the rails swap
        c1 = bld.twist_crossing(+1)
        c2 = bld.twist_crossing(-1)
        bld.weld(c1["out_l"], c2["in_l"])
        bld.weld(c1["out_r"], c2["in_r"])
        return (c1["in_l"], c2["out_l"], c1["in_r"], c2["out_r"])

    # ends: over tail, over head, under tail, under head
    return splice(
        d, emit, flip_wirings([((0, 1), (2, 3))]), "R2 site admits no planar wiring",
        cut=(over, under),
    )


def _r2_strands(d: LinkDiagram, ci: int, cj: int) -> Optional[tuple[int, int]]:
    """(arc over at both, arc under at both) of the arcs crossings ci and
    cj share, or None when either is missing."""
    occ = d._analysis.occ
    shared = set(d.crossings[ci].slots) & set(d.crossings[cj].slots)
    over = next((a for a in shared if all(o[1] % 2 == 1 for o in occ[a])), None)
    under = next((a for a in shared if all(o[1] % 2 == 0 for o in occ[a])), None)
    return None if over is None or under is None else (over, under)


def find_r2_bigons(d: LinkDiagram) -> tuple[tuple[int, int], ...]:
    """Bigon faces where one strand is over at both crossings."""
    d.require_valid()
    out = set()
    for face in d._analysis.faces:
        if len(face) != 2:
            continue
        (c1, _), (c2, _) = face
        pair = (min(c1, c2), max(c1, c2))
        if c1 != c2 and _r2_strands(d, *pair):
            out.add(pair)
    return tuple(sorted(out))


def reidemeister2_undo(d: LinkDiagram, pair: tuple[int, int]) -> LinkDiagram:
    ci, cj = min(pair), max(pair)
    if (ci, cj) not in find_r2_bigons(d):
        raise SiteError(f"crossings {pair} do not bound an R2 bigon")
    return _undo_bigon(d, ci, cj)


def _undo_bigon(d: LinkDiagram, ci: int, cj: int) -> LinkDiagram:
    """Remove the R2 bigon of crossings ci < cj, unchecked: the over strand
    (odd slots) and the under strand (even slots) each join the arcs they
    leave the bigon by."""
    x1, x2 = d.crossings[ci], d.crossings[cj]
    joins = [
        tuple(x.slots[s + 2] if x.slots[s] == inner else x.slots[s] for x in (x1, x2))
        for s, inner in zip((1, 0), _r2_strands(d, ci, cj))
    ]
    return _drop_crossings(d, {ci, cj}, joins)


def reduce_diagram(
    d: LinkDiagram, budget: int = DEFAULT_STEP_BUDGET
) -> tuple[LinkDiagram, int, bool]:
    """Greedy crossing-reducing R1/R2 until stable or out of budget.

    Returns (diagram, steps used, reached a stable form).
    """
    steps = 0
    cur = d
    while steps < budget:
        kinks = find_kinks(cur)
        if kinks:
            cur = reidemeister1_undo(cur, kinks[0])
            steps += 1
            continue
        bigons = find_r2_bigons(cur)
        if bigons:
            cur = _undo_bigon(cur, *bigons[0])
            steps += 1
            continue
        return cur, steps, True
    stable = not find_kinks(cur) and not find_r2_bigons(cur)
    return cur, steps, stable


# -- the standard (2, n) closed-braid template ----------------------------------


def braid2_template(n: int, mirror: bool = False) -> LinkDiagram:
    """Standard diagram of the (2, n) torus link: an n-twist region closed up."""
    if n < 1:
        raise SiteError("template needs at least one crossing")
    bld = DiagramBuilder()
    region = bld.twist_region(n, +1 if not mirror else -1)
    bld.weld(region["out_l"], region["in_l"])
    bld.weld(region["out_r"], region["in_r"])
    return bld.build()


def two_braid_status(d: LinkDiagram, budget: int = DEFAULT_STEP_BUDGET) -> str:
    """'yes' / 'no' / 'unknown': does d R1/R2-reduce to a (2, n) template?"""
    reduced, _, stable = reduce_diagram(d, budget)
    if not stable:
        return "unknown"
    return "yes" if _is_braid2_form(reduced) else "no"


def _is_braid2_form(reduced: LinkDiagram) -> bool:
    """Whether a stable R1/R2 reduction is a (2, n) template of either hand.

    The template's faces are n bigons and two n-gons.  An isomorphism keeps
    each crossing's counter-clockwise slot order, so it maps faces to faces
    of the same size.  Any other face sizes answer "no" from the faces
    alone; only a diagram that passes builds the two templates and runs
    the rooted walk.
    """
    n = len(reduced.crossings)
    if n < 2 or reduced.loops:
        return False
    if sorted(map(len, reduced._analysis.face_arcs)) != [2] * n + [n, n]:
        return False
    return any(diagram_isomorphic(reduced, braid2_template(n, m)) for m in (False, True))


def is_2braid(d: LinkDiagram, budget: int = DEFAULT_STEP_BUDGET) -> bool:
    return two_braid_status(d, budget) == "yes"


# -- diagram isomorphism ---------------------------------------------------------


def diagram_isomorphic(d1: LinkDiagram, d2: LinkDiagram) -> bool:
    """Unoriented-diagram isomorphism.

    Looks for a crossing bijection with per-crossing slot rotation by 0
    or 2 (preserving CCW rotation and over/under) that induces a consistent
    arc bijection.  Mirrors are NOT identified.

    A planar map is fixed by where one crossing and its rotation go
    (Weinberg's rooted walk), so no search is needed: each graph component
    of d1 is rooted at its least crossing at rotation 0 and walked onto
    every crossing and even rotation of an unclaimed d2 component of the
    same size; the first root that maps the whole component claims it.
    Claiming greedily is exact because isomorphism is an equivalence.
    O(n^2) in the crossing count n, O(n) per root.
    """
    d1.require_valid()
    d2.require_valid()
    if len(d1.crossings) != len(d2.crossings) or d1.loops != d2.loops:
        return False
    if len(d1._analysis.occ) != len(d2._analysis.occ):
        return False
    comps1: dict[int, list[int]] = {}  # graph component -> its crossings, ascending
    comps2: dict[int, list[int]] = {}
    for comps, d in ((comps1, d1), (comps2, d2)):
        for ci, g in d._analysis.graph_comp_of.items():
            comps.setdefault(g, []).append(ci)
    for members1 in comps1.values():
        claim = next(
            (
                g
                for g, members in comps2.items()
                if len(members) == len(members1)
                and any(_walk_from(d1, d2, members1[0], c2, rot) for c2 in members for rot in (0, 2))
            ),
            None,
        )
        if claim is None:
            return False
        del comps2[claim]
    return True


def _walk_from(d1: LinkDiagram, d2: LinkDiagram, root: int, image: int, rot: int) -> bool:
    """Whether sending d1's crossing ``root`` to d2's ``image`` turned by
    ``rot`` slots extends over root's whole graph component.

    The map spreads one arc at a time: slot s of a mapped crossing goes to
    slot s + r of its image, so the arc's far end must go to the image
    arc's far end, which fixes the far crossing's image and rotation, and
    that rotation must be even.  A map that passes covers image's graph
    component, each crossing of it the same number of times; the caller
    compares the component sizes, so that number is one and the crossing
    map, the slot map and the arc map are one-to-one.
    """
    x1, x2 = d1.crossings, d2.crossings
    occ1, occ2 = d1._analysis.occ, d2._analysis.occ
    placed = {root: (image, rot)}  # d1 crossing -> (d2 crossing, rotation)
    work = [root]
    while work:
        c1 = work.pop()
        c2, r = placed[c1]
        for s, arc in enumerate(x1[c1].slots):
            t = (s + r) % 4
            f1, g1 = occ1[arc]
            far1 = g1 if f1 == (c1, s) else f1
            f2, g2 = occ2[x2[c2].slots[t]]
            far2 = g2 if f2 == (c2, t) else f2
            want = (far2[0], (far2[1] - far1[1]) % 4)
            got = placed.get(far1[0])
            if got is None:
                if want[1] % 2:
                    return False
                placed[far1[0]] = want
                work.append(far1[0])
            elif got != want:
                return False
    return True


# -- Gauss codes -----------------------------------------------------------------


@dataclass(frozen=True)
class GaussCode:
    """Per-component sequences of (crossing id, over?, sign); ids are 1-based."""

    components: tuple[tuple[tuple[int, bool, int], ...], ...]
    loops: int = 0


def to_gauss(d: LinkDiagram) -> GaussCode:
    d.require_valid()
    comps = []
    for steps in d._analysis.steps:
        comps.append(
            tuple((ci + 1, si % 2 == 1, d._analysis.signs[ci]) for _, (ci, si) in steps)
        )
    return GaussCode(components=tuple(comps), loops=d.loops)


def from_gauss(g: GaussCode) -> LinkDiagram:
    info: dict[int, dict] = {}
    for comp in g.components:
        for cid, over, sign in comp:
            if sign not in (+1, -1):
                raise FormatError(f"crossing {cid}: sign must be +1 or -1")
            rec = info.setdefault(cid, {"over": False, "under": False, "sign": sign})
            if rec["sign"] != sign:
                raise FormatError(f"crossing {cid}: inconsistent signs")
            key = "over" if over else "under"
            if rec[key]:
                raise FormatError(f"crossing {cid}: duplicate {key} passage")
            rec[key] = True
    if sorted(info) != list(range(1, len(info) + 1)):
        raise FormatError("crossing ids must be 1..n")
    for cid, rec in info.items():
        if not (rec["over"] and rec["under"]):
            raise FormatError(f"crossing {cid}: needs one over and one under passage")

    slots: list[list[Optional[int]]] = [[None] * 4 for _ in range(len(info))]
    arc = 0
    for comp in g.components:
        if not comp:
            continue
        entries = []
        for cid, over, sign in comp:
            arc += 1
            entries.append((cid, over, sign, arc))
        for i, (cid, over, sign, in_arc) in enumerate(entries):
            out_arc = entries[(i + 1) % len(entries)][3]
            ci = cid - 1
            if not over:
                slots[ci][0] = in_arc
                slots[ci][2] = out_arc
            elif sign > 0:
                slots[ci][3] = in_arc
                slots[ci][1] = out_arc
            else:
                slots[ci][1] = in_arc
                slots[ci][3] = out_arc
    if any(s is None for row in slots for s in row):
        raise FormatError("incomplete Gauss code")
    loops = g.loops + sum(1 for comp in g.components if not comp)
    d = LinkDiagram(tuple(Crossing(tuple(row)) for row in slots), loops=loops)
    rep = validate(d)
    if not rep.valid:
        raise InvalidDiagramError(rep)
    return d


# -- text formats -----------------------------------------------------------------

_X_RE = re.compile(r"X\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_O_RE = re.compile(r"O\s*\(\s*(\d+)\s*\)")


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text: X(a,b,c,d) and O(n) tokens, # comments."""
    stripped = re.sub(r"#[^\n]*", "", text)
    crossings = []
    loops = 0
    for m in re.finditer(r"X\s*\([^)]*\)|O\s*\([^)]*\)|\S", stripped):
        tok = m.group(0)
        if tok[0] == "X":
            xm = _X_RE.fullmatch(tok)
            if not xm:
                raise FormatError(f"bad crossing token: {tok!r}")
            crossings.append(Crossing(tuple(int(g) for g in xm.groups())))
        elif tok[0] == "O":
            om = _O_RE.fullmatch(tok)
            if not om:
                raise FormatError(f"bad loop token: {tok!r}")
            loops += int(om.group(1))
        else:
            raise FormatError(f"unexpected token: {tok!r}")
    return LinkDiagram(tuple(crossings), loops=loops)


def format_pd(d: LinkDiagram) -> str:
    lines = [f"X({x.slots[0]},{x.slots[1]},{x.slots[2]},{x.slots[3]})" for x in d.crossings]
    if d.loops:
        lines.append(f"O({d.loops})")
    return "\n".join(lines) + "\n" if lines else ""


_GAUSS_ENTRY_RE = re.compile(r"([+-])(\d+)([ou])")


def parse_gauss(text: str) -> GaussCode:
    comps = []
    loops = 0
    for line in text.splitlines():
        line = re.sub(r"#.*", "", line).strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"gauss line needs 'C: entries': {line!r}")
        _, _, rest = line.partition(":")
        rest = rest.strip()
        if not rest:
            loops += 1
            continue
        seq = []
        for part in rest.split(","):
            m = _GAUSS_ENTRY_RE.fullmatch(part.strip())
            if not m:
                raise FormatError(f"bad gauss entry: {part.strip()!r}")
            seq.append((int(m.group(2)), m.group(3) == "o", 1 if m.group(1) == "+" else -1))
        comps.append(tuple(seq))
    return GaussCode(components=tuple(comps), loops=loops)


def format_gauss(g: GaussCode) -> str:
    lines = []
    idx = 1
    for comp in g.components:
        parts = [f"{'+' if s > 0 else '-'}{cid}{'o' if over else 'u'}" for cid, over, s in comp]
        lines.append(f"{idx}: " + ", ".join(parts))
        idx += 1
    for _ in range(g.loops):
        lines.append(f"{idx}:")
        idx += 1
    return "\n".join(lines) + "\n" if lines else ""
