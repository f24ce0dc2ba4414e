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

Every public value here is immutable and every public operation a pure
function.  The one mutable value, a `DiagramBuilder`, a copy of a valid
diagram under edit, never escapes: a move on a diagram edits a builder
of it and builds that into a new diagram, `reduce_diagram` and
`certificate.verify` edit one across their steps and build it at most
once, and a generator's closed tangle needs none (`closed`).
"""

from __future__ import annotations

import collections
import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
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
        # a bool is an int that `format_pd` would write as a word
        if len(self.slots) != 4 or any(type(a) is not int or a < 1 for a in self.slots):
            raise FormatError(f"crossing needs 4 positive arc labels, got {self.slots}")

    def rotated(self, r: int) -> "Crossing":
        r %= 4
        return _crossing(self.slots[r:] + self.slots[:r])


def _crossing(slots: tuple[int, int, int, int]) -> Crossing:
    """A crossing of labels the library chose itself: no second check."""
    x = object.__new__(Crossing)
    object.__setattr__(x, "slots", slots)
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

    steps: list[list[int]]  # per component: the corners it enters, least arc first
    cycles: list[tuple[int, ...]]  # per component: the arcs of its steps
    head: dict[int, int]  # arc -> the corner it enters
    problems: tuple[str, ...]

    @classmethod
    def of(cls, walks: list[list[int]], arc_at: Sequence[int],
           cycles: Optional[list[tuple[int, ...]]] = None) -> "_Strands":
        """The trace, with no problems, of ``walks``: the corners each
        component enters, from its least arc on, the components in any
        order, or in least-arc order with their arcs given as ``cycles``;
        ``arc_at`` gives the arc at each corner."""
        if cycles is None:
            walks = sorted(walks, key=lambda corners: arc_at[corners[0]])
            cycles = [tuple(map(arc_at.__getitem__, corners)) for corners in walks]
        chain = itertools.chain.from_iterable
        return cls(walks, cycles, dict(zip(chain(cycles), chain(walks))), ())


class _Embedding(NamedTuple):
    """The faces of the crossing graph and its per-component Euler check."""

    faces: list[list[int]]  # the corners each face enters
    face_arcs: list[tuple[int, ...]]
    problems: tuple[str, ...]


def _walk_corners(across: Sequence[int], start: int, turn: int,
                  open_at: Optional[Container[int]] = None) -> list[int]:
    """The corners a walk enters from corner ``start`` on, ``start`` first.

    Corner 4 * ci + si is slot si of crossing ci, and ``across`` maps each
    corner to the corner at the far end of its arc.  At each crossing the
    walk leaves by the slot ``turn`` places counterclockwise from the one
    it entered (1 follows a face, 2 a strand) and enters that arc's far
    end.  A closed walk, with no ``open_at``, stops before it enters
    ``start`` again; an open walk stops when it leaves by a corner in
    ``open_at``, which it lists last and whose far end it never reads, and
    fails when it is back at its start first.
    """
    stops = () if open_at is None else open_at
    corners, k = [start], start
    for _ in range(len(across)):
        out = k & ~3 | (k + turn) & 3
        if out in stops:
            corners.append(out)
            return corners
        k = across[out]
        if k == start:
            if open_at is None:
                return corners
            break
        corners.append(k)
    what = "face" if turn == 1 else "strand"
    if open_at is None:
        raise AssertionError(f"{what} walk did not close")
    raise AssertionError(f"{what} walk from {divmod(start, 4)} found no open slot")


def _backward(corners: list[int]) -> list[int]:
    """The corners a closed strand walk entering ``corners`` enters when it
    runs the other way: each crossing by the slot the forward walk leaves
    it by, starting with the arc by which the forward walk enters its
    first corner."""
    return [c ^ 2 for c in reversed(corners)]


def _parts(across: Sequence[int], roots: Iterable[int], open_at: Container[int] = ()) -> list[int]:
    """The part of every crossing of the corner map ``across``, -1 for one
    no root reaches: crossings joined by an arc at a corner not in
    ``open_at`` share a part, and parts are numbered in the order of their
    first crossing in ``roots``."""
    part = [-1] * (len(across) >> 2)
    count = 0
    for root in roots:
        if part[root] >= 0:
            continue
        part[root] = count
        stack = [root]
        while stack:
            k = 4 * stack.pop()
            for c in range(k, k + 4):
                if c not in open_at:
                    far = across[c] >> 2
                    if part[far] < 0:
                        part[far] = count
                        stack.append(far)
        count += 1
    return part


def _closed_faces(across: Sequence[int], starts: Iterable[int], seen: bytearray) -> Iterator[list[int]]:
    """The face from each corner of ``starts`` that ``seen`` does not mark,
    as the corners it enters, each marked as it is entered.

    The one walk that does not run through `_walk_corners`: most faces
    have two to four corners, so the faces of a whole diagram are read in
    one pass over the corners, and a face ends where it meets a marked
    corner.  That is its start when every corner it reads is paired by
    ``across``, as in a diagram whose arcs each occur twice.
    """
    for k in starts:
        if not seen[k]:
            corners = []
            while not seen[k]:
                seen[k] = 1
                corners.append(k)
                k = across[k & ~3 | (k + 1) & 3]
            yield corners


class _Analysis:
    """Everything validate/components/signs need, in stages computed on first use.

    Every stage names a place by its corner 4 * ci + si (slot si of
    crossing ci): the occurrence index, the corner map, the strand trace
    and the faces.  Only the public API and error texts give (ci, si) pairs.

    Arc occurrences are indexed when the analysis is made, unless a frozen
    builder gives its own index, renumbered.  The corner map `across`, the
    strand trace (orientation, and so the signs), the graph components and
    the faces with the Euler check each run at most once, when something
    first reads them, and only when every arc occurs twice.  Every walk
    over the diagram but the face stage's reads that one corner map
    through `_walk_corners`: the strand trace, the splice's base side, the
    co-face test, the disk-run scan and the isomorphism test; the faces
    are read in one pass by `_closed_faces`.  The strand trace and
    `DiagramBuilder.settle` orient the strands by one walk per component,
    `_oriented`.

    A `DiagramBuilder` is an analysis whose stages it edits in place.  A
    diagram a splice, an R1 undo or add, an R2 undo, a reduction or a
    component removal makes is a builder of its base, edited and built
    (`DiagramBuilder.build`): it arrives analysed, with the builder's
    index, corner map and strand steps renumbered past the removed
    crossings, only the components through the arcs the edit changed
    having been walked, and it is known planar, since a splice's judge
    checked the Euler formula over face orbits, the parts under its
    face-orbit condition, and smoothing crossings out of a plane diagram
    keeps it plane.  It has no Euler check to run, and its report counts
    V + 2 faces per graph component, so its faces are traced only when
    something reads them.  A generator's diagram (`closed`) runs the Euler
    check.  An analysis keeps its diagram's crossings and loops,
    not the diagram, which caches it: no reference cycle.  A stage returns
    its own problems instead of adding to a shared list, so `report` lists
    them in the order occurrences, trace, faces whichever stage ran first.
    """

    def __init__(self, crossings: tuple[Crossing, ...], loops: int,
                 occ: Optional[dict[int, list[int]]] = None):
        self.crossings, self.loops = crossings, loops
        self.occ, self.occ_problems = self._index_occurrences() if occ is None else (occ, ())
        self.double_ok = not self.occ_problems

    @cached_property
    def _strands(self) -> _Strands:
        return self._trace() if self.double_ok else _Strands.of([], ())

    @cached_property
    def _embedding(self) -> _Embedding:
        return self._faces_and_euler() if self.double_ok else _Embedding([], [], ())

    @cached_property
    def _euler_problems(self) -> tuple[str, ...]:
        return self._embedding.problems

    steps = property(attrgetter("_strands.steps"))
    cycles = property(attrgetter("_strands.cycles"))
    head = property(attrgetter("_strands.head"))
    faces = property(attrgetter("_embedding.faces"))
    face_arcs = property(attrgetter("_embedding.face_arcs"))

    @property
    def consistent(self) -> bool:
        return self.double_ok and not self._strands.problems

    @property
    def planar_ok(self) -> bool:
        return self.double_ok and not self._euler_problems

    # stage 1: occurrences

    def _index_occurrences(self) -> tuple[dict[int, list[int]], tuple[str, ...]]:
        occ: dict[int, list[int]] = {}
        for k, arc in enumerate(self.arc_at):
            occ.setdefault(arc, []).append(k)
        # sorted only when some arc does not occur twice
        bad = sorted((arc, len(places)) for arc, places in occ.items() if len(places) != 2)
        return occ, tuple(f"arc {arc} used {n} times (need 2)" for arc, n in bad)

    @cached_property
    def across(self) -> list[int]:
        """The corner map: corner 4 * ci + si maps to the corner at the far
        end of its arc."""
        across = [0] * len(self.arc_at)
        for k1, k2 in self.occ.values():
            across[k1], across[k2] = k2, k1
        return across

    @cached_property
    def arc_at(self) -> list[int]:
        """The arc at each corner 4 * ci + si."""
        return list(itertools.chain.from_iterable(map(attrgetter("slots"), self.crossings)))

    # stage 2: strand tracing and orientation

    def _walk(self, k: int) -> list[int]:
        """The corners the strand component through corner ``k`` enters, from ``k``."""
        return _walk_corners(self.across, k, 2)

    def _walks_through(self, starts: Optional[Iterable[int]] = None) -> list[list[int]]:
        """The strand components that enter or leave a crossing by a corner
        of ``starts``, each walked once by `_walk` from a start and turned to
        run from its least arc into that arc's second occurrence.  With no
        ``starts``, every component, walked from each arc's second
        occurrence in arc order: in the order of least arcs, the first
        start a component meets being its least arc's, so no walk is
        turned."""
        arc_at, occ = self.arc_at, self.occ
        fresh = starts is None
        if fresh:
            starts = [occ[arc][1] for arc in sorted(occ)]
        seen = bytearray(len(self.across))  # the corners a walk entered or left by
        walks = []
        for k in starts:
            if seen[k]:
                continue
            corners = self._walk(k)
            for c in corners:
                seen[c] = seen[c ^ 2] = 1
            if not fresh:
                first = occ[min(map(arc_at.__getitem__, corners))][1]
                if corners[0] != first:
                    if first not in corners:
                        corners = _backward(corners)
                    i = corners.index(first)
                    corners = corners[i:] + corners[:i]
            walks.append(corners)
        return walks

    def _oriented(self, frozen: Container[int], walks: Optional[Iterable[list[int]]] = None
                  ) -> Iterator[tuple[list[int], bool]]:
        """Each strand component of ``walks``, as `_walks_through` gives it,
        or of every component when None, oriented.

        A component runs the way its first frozen under-passage along the
        walk from its least arc enters, at slot 0; with no frozen
        under-passage it runs from its least arc toward the smaller
        neighbor.  Yields (corners, conflict): the corners it enters, in
        order, from its least arc on, and whether some frozen
        under-passage enters at slot 2.
        """
        for corners in self._walks_through() if walks is None else walks:
            votes = [c & 3 for c in corners if not c & 1 and c >> 2 in frozen]
            if votes:
                back = votes[0] == 2
            else:
                back = len(corners) > 1 and self.arc_at[corners[-1]] < self.arc_at[corners[1]]
            yield _backward(corners) if back else corners, 0 in votes and 2 in votes

    def _trace(self) -> _Strands:
        problems: list[str] = []
        walks: list[list[int]] = []
        for corners, conflict in self._oriented(range(len(self.crossings))):
            if conflict:
                problems.append(f"component of arc {self.arc_at[corners[0]]} "
                                "has conflicting under-strand directions")
            walks.append(corners)
        return _Strands.of(walks, self.arc_at)._replace(problems=tuple(problems))

    def sign(self, ci: int) -> int:
        # the over-strand entering at slot 1 is sign -1, at slot 3 +1
        return -1 if self.head[self.arc_at[4 * ci + 1]] == 4 * ci + 1 else 1

    # stage 3: graph components

    @cached_property
    def _graph(self) -> list[int]:
        """The graph component of each crossing, numbered in the order of
        their least crossings."""
        return _parts(self.across, range(len(self.crossings))) if self.double_ok else []

    @cached_property
    def n_graph_comps(self) -> int:
        return 1 + max(self._graph, default=-1)

    @property
    def graph_comp_of(self) -> dict[int, int]:
        return dict(enumerate(self._graph))

    # stage 4: faces and the Euler check

    def _faces_and_euler(self) -> _Embedding:
        n = len(self.crossings)
        arc_at = self.arc_at
        comp = self._graph
        # faces start at each arc's occurrences in order, arcs ascending
        starts = itertools.chain.from_iterable(map(self.occ.__getitem__, sorted(self.occ)))
        faces = list(_closed_faces(self.across, starts, bytearray(4 * n)))
        face_arcs = [tuple(map(arc_at.__getitem__, face)) for face in faces]

        # V - E + F = 2 per component, with E = 2V: every crossing has four
        # slots and every arc two ends
        n_graph_comps = self.n_graph_comps
        v = [0] * n_graph_comps
        f = [0] * n_graph_comps
        for g in comp:
            v[g] += 1
        for face in faces:
            f[comp[face[0] >> 2]] += 1
        problems = tuple(
            f"graph component {g} fails Euler check: V={v[g]} E={2 * v[g]} F={f[g]}"
            for g in range(n_graph_comps)
            if f[g] - v[g] != 2
        )
        return _Embedding(faces, face_arcs, problems)

    def report(self) -> ValidityReport:
        n = len(self.crossings)
        planar = self.planar_ok
        total_comps = self.n_graph_comps + self.loops
        # a planar graph component of V crossings has V + 2 faces, so a
        # planar diagram's faces are counted without tracing them
        n_faces = n + 2 * self.n_graph_comps if planar else len(self.faces)
        # shared outer face across all pieces of the diagram
        f_total = n_faces + 2 * self.loops
        if total_comps > 1:
            f_total -= total_comps - 1
        return ValidityReport(
            double_occurrence=self.double_ok,
            component_consistent=self.consistent,
            planar=planar,
            vertices=n,
            edges=sum(map(len, self.occ.values())) // 2,
            faces=f_total,
            graph_components=total_comps,
            problems=self.occ_problems + self._strands.problems + self._euler_problems,
        )

    @cached_property
    def validity(self) -> ValidityReport:
        """The report, built once: for `validate`, or for `require_valid`
        to refuse with; the flags alone say whether the diagram is valid."""
        return self.report()


@dataclass(frozen=True)
class LinkDiagram:
    """A link diagram: crossings plus a count of crossing-free loops."""

    crossings: tuple[Crossing, ...] = ()
    loops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        if type(self.loops) is not int or self.loops < 0:
            raise FormatError("loop count must be nonnegative")

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis(self.crossings, self.loops)

    @cached_property
    def arcs(self) -> tuple[int, ...]:
        return tuple(sorted(self._analysis.occ))

    def occurrences(self, arc: int) -> tuple[Slot, ...]:
        if arc not in self._analysis.occ:
            raise SiteError(f"no arc {arc}")
        return tuple([divmod(k, 4) for k in self._analysis.occ[arc]])

    def require_valid(self) -> None:
        """Raise InvalidDiagramError with `validate`'s report unless valid,
        read from the flags `ValidityReport.valid` reads: a valid diagram
        builds no report and searches no graph component."""
        an = self._analysis
        if not (an.consistent and an.planar_ok):
            raise InvalidDiagramError(an.validity)

    def sign(self, ci: int) -> int:
        self.require_valid()
        if not 0 <= ci < len(self.crossings):
            raise SiteError(f"no crossing {ci}")
        return self._analysis.sign(ci)

    def _head(self, arc: int) -> int:
        """The corner an arc flows into."""
        self.require_valid()
        if arc not in self._analysis.head:
            raise SiteError(f"no arc {arc}")
        return self._analysis.head[arc]

    def head_of(self, arc: int) -> Slot:
        """The occurrence an arc flows into (per the assigned orientation)."""
        return divmod(self._head(arc), 4)

    def tail_of(self, arc: int) -> Slot:
        return divmod(self._analysis.across[self._head(arc)], 4)

    def faces(self) -> tuple[tuple[Slot, ...], ...]:
        self.require_valid()
        return tuple(tuple([divmod(k, 4) for k in face]) for face in self._analysis.faces)

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
    arc_at = d._analysis.arc_at
    total = 0
    for k in range(0, len(arc_at), 4):
        under, over = arc_at[k], arc_at[k + 1]
        if (under in arcs_a and over in arcs_b) or (under in arcs_b and over in arcs_a):
            total += d.sign(k >> 2)
    if total % 2 != 0:
        raise AssertionError("odd signed crossing sum between two components")
    return total // 2


def is_alternating(d: LinkDiagram) -> bool:
    d.require_valid()
    for steps in d._analysis.steps:
        word = [c & 1 for c in steps]
        if any(word[i] == word[(i + 1) % len(word)] for i in range(len(word))):
            return False
    return True


def nugatory_crossings(d: LinkDiagram) -> tuple[int, ...]:
    """Crossings with two opposite corners on the same face."""
    d.require_valid()
    out = set()
    for face in d._analysis.faces:
        corners = set(face)
        out.update(k >> 2 for k in face if k ^ 2 in corners)
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
    return not two_edge_cuts(d)


# -- the builder -----------------------------------------------------------------


class DiagramBuilder(_Analysis):
    """A diagram under edit, the replay state: the one mutable value of
    this module, which builds the diagrams of the moves and never leaves
    it and `certificate.verify`.

    It starts as a copy of a valid base diagram's arrays: the arc at each
    corner, its one record of the labels, 0 at a removed crossing's hole;
    the corner map and the occurrence index; each
    component's strand steps and arcs, and the head map, which gives the
    signs; the loop count and the next fresh label.  A base's own lists
    are shared, never changed: an edit replaces a list.  The edits (`cut`,
    `remove`, `place`, `append`) rewrite the corners of their ball alone,
    and `settle` re-traces only the strands through the arcs they changed.
    New crossings are appended after every slot, so the corners are a
    monotone image of the compact numbering: every order a move or a
    reduction reads (ascending occurrences, the kink and bigon scans,
    components by least arc) is the one a built diagram gives, and so is
    every label.  A move reads the builder as a diagram: its ``_analysis``
    is the builder itself.  `build` settles it and compacts it into a
    `LinkDiagram` that arrives analysed; the builder stays usable.
    """

    def __init__(self, base: LinkDiagram):
        base.require_valid()
        an = base._analysis
        self.loops = an.loops
        self.occ, self.occ_problems, self.double_ok = dict(an.occ), (), True
        self.arc_at, self.across = list(an.arc_at), list(an.across)
        s = an._strands
        self._strands = _Strands(list(s.steps), list(s.cycles), dict(s.head), ())
        self._next = max(an.occ, default=0) + 1
        self._changed: set[int] = set()  # the arcs whose corners an unsettled edit changed
        self._settled = len(self.arc_at) >> 2  # the crossings made before the unsettled edits

    _analysis = property(lambda self: self)
    _head = LinkDiagram._head

    def require_valid(self) -> None:
        """Nothing to check: the builder's base was valid, and every edit
        since was judged (`splice`) or keeps it valid (a removal)."""

    def holds(self, d: LinkDiagram) -> bool:
        """Whether the builder holds the crossings of ``d``, holes aside, and
        its loops: ``d`` itself."""
        return self.loops == d.loops and list(filter(None, self.arc_at)) == list(
            itertools.chain.from_iterable(map(attrgetter("slots"), d.crossings)))

    def fresh_label(self) -> int:
        label = self._next
        self._next += 1
        return label

    def _put(self, k: int, arc: int) -> None:
        self.arc_at[k] = arc
        self._changed.add(arc)

    def cut(self, arc: int) -> tuple[int, int]:
        """Cut ``arc``; returns the labels of its (tail side, head side).

        The piece at the arc's tail keeps the label; the head occurrence is
        relabeled fresh.  Both pieces stay attached to their far crossings.
        """
        head = self._head(arc)
        fresh = self.fresh_label()
        self._put(head, fresh)
        self.occ[arc], self.occ[fresh] = [self.across[head]], [head]
        self._changed.add(arc)
        return arc, fresh

    def remove(self, crossings: Iterable[int], joins: Iterable[tuple[int, int]] = ()) -> None:
        """Punch ``crossings`` out, and run on as one the two arcs of each
        pair of ``joins``, the two sides of a strand through one of them.

        The joins link arcs into runs.  Each arc has two ends, so a run is
        a path, whose kept occurrences take the least label of its arcs, or
        a run whose every arc is joined at both ends, a crossing-free loop;
        a self-join counts as both ends."""
        occ, arc_at = self.occ, self.arc_at
        for ci in crossings:
            for k in range(4 * ci, 4 * ci + 4):
                places = occ.pop(arc_at[k], ())
                if len(places) == 2:  # the arc's other occurrence stays
                    occ[arc_at[k]] = [places[places[0] == k]]
            self._changed.update(arc_at[4 * ci:4 * ci + 4])
            arc_at[4 * ci:4 * ci + 4] = (0, 0, 0, 0)
            self.across[4 * ci:4 * ci + 4] = range(4 * ci, 4 * ci + 4)
        nbrs: dict[int, list[int]] = {}  # joined arc -> the arcs it is joined to
        for a, b in joins:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        while nbrs:
            run, todo = {}, [next(iter(nbrs))]  # the run's arcs, each -> its joined arcs
            while todo:
                if (a := todo.pop()) in nbrs:
                    run[a] = nbrs.pop(a)
                    todo += run[a]
            self._changed.update(run)
            if all(len(joined) == 2 for joined in run.values()):
                self.loops += 1
                continue
            least = min(run)
            occ[least] = sorted(k for a in run for k in occ.pop(a, ()))
            for k in occ[least]:
                self._put(k, least)

    def place(self, tangle: tuple, ports: Sequence[int]) -> None:
        """Append an open tangle's crossings (see `open_tangle`): port i
        takes the label ``ports[i]`` and inner arc j the next fresh label
        + j - 1; the loops it closes are added."""
        rows, inner, loops = tangle
        first = self._next - 1
        self._next += inner
        self.append([ports[-1 - a] if a < 0 else first + a for row in rows for a in row])
        self.loops += loops

    def append(self, labels: list[int]) -> None:
        """Append a crossing of each four ``labels``, its under-strand on
        slots {0, 2}; `settle` turns it when its under-strand enters at
        slot 2."""
        k, occ = len(self.arc_at), self.occ
        self.arc_at += labels
        self.across += range(k, k + len(labels))  # paired by `settle`
        for c, arc in enumerate(labels, k):
            occ[arc] = occ[arc] + [c] if arc in occ else [c]
        self._changed.update(labels)

    def settle(self, frozen: Optional[Container[int]] = None, reorient: bool = False) -> None:
        """Pair the corners of the arcs the edits changed (an
        InvalidDiagramError, with a fresh analysis' report, unless each
        occurs twice or not at all), walk only the strand components
        through them (`_Analysis._walks_through`), and turn by 2 each
        crossing one enters at slot 2, its corners k moving to k ^ 2.

        Each walked component runs the way its first under-passage of a
        ``frozen`` crossing, by default one made before the edits, enters
        (`_Analysis._oriented`); every other keeps its steps.  Frozen
        crossings that disagree on a component's direction raise a
        WiringError, unless ``reorient``: a move genuinely reversed a strand
        segment, as a half twist on two strands of one component does, and
        they turn too.  Arc labels never change."""
        changed, self._changed = self._changed, set()
        occ, across, arc_at, head = self.occ, self.across, self.arc_at, self.head
        starts = []
        for arc in changed:
            if (places := occ.get(arc)) is None:
                head.pop(arc, None)  # gone with its crossings, or run on as another arc
            elif len(places) != 2:
                raise InvalidDiagramError(_Analysis(self._crossings(), self.loops).validity)
            else:
                k1, k2 = places
                across[k1], across[k2] = k2, k1
                starts.append(k1)
        walks = self._walks_through(starts)
        # a component is walked again, or gone, when its least arc changed
        # or is on a walk: the arcs of every other one are as they were
        redone = changed.union(map(arc_at.__getitem__, itertools.chain.from_iterable(walks)))
        kept = [(cycle[0], corners, cycle) for corners, cycle in zip(self.steps, self.cycles)
                if cycle[0] not in redone]
        oriented = list(self._oriented(range(self._settled) if frozen is None else frozen, walks))
        if not reorient and any(conflict for _, conflict in oriented):
            raise WiringError(_DIRECTION_CONFLICT)
        walks = [corners for corners, _ in oriented]
        turned = {c >> 2 for corners in walks for c in corners if c & 3 == 2}
        if turned:
            for k in (4 * ci for ci in turned):
                arc_at[k:k + 4] = arc_at[k + 2:k + 4] + arc_at[k:k + 2]
            # corner k of a turned crossing becomes k ^ 2, at either end of its arc
            ends = [k for ci in turned for k in range(4 * ci, 4 * ci + 4)]
            for k, far in zip(ends, [across[k] for k in ends]):
                k ^= 2
                if far >> 2 in turned:
                    far ^= 2
                across[k], across[far] = far, k
                occ[arc_at[k]] = [k, far] if k < far else [far, k]
            # so is a kept component through a turned crossing made before
            # the edits (a new one carries walked components alone)
            if old := {k for k in ends if k >> 2 < self._settled}:
                through = [not old.isdisjoint(comp[1]) for comp in kept]
                walks += [comp[1] for comp, hit in zip(kept, through) if hit]
                kept = [comp for comp, hit in zip(kept, through) if not hit]
            walks = [[c ^ 2 if c >> 2 in turned else c for c in corners] for corners in walks]
        for corners in walks:
            cycle = tuple(map(arc_at.__getitem__, corners))
            kept.append((cycle[0], corners, cycle))
            head.update(zip(cycle, corners))
        kept.sort()  # by least arc, each component's own
        self.steps[:] = map(itemgetter(1), kept)
        self.cycles[:] = map(itemgetter(2), kept)
        self._settled = len(arc_at) >> 2
        while self._next > 1 and self._next - 1 not in occ:  # the next label is the least unused
            self._next -= 1

    def _crossings(self) -> tuple[Crossing, ...]:
        """The crossings of the live corners, holes dropped."""
        live = filter(None, self.arc_at)
        return tuple(map(_crossing, zip(*[live] * 4)))

    def build(self, allow_reorient: bool = False) -> LinkDiagram:
        """The diagram the builder holds, settled (`settle`, which turns
        frozen crossings when ``allow_reorient``), its crossings made from
        the live corners (`_crossings`), arriving with the analysis a fresh
        one would build: the builder's index, corner map and strand steps,
        renumbered, which give the head map in the order the trace gives
        it.  Known planar (see `_Analysis`)."""
        self.settle(reorient=allow_reorient)
        d = LinkDiagram(self._crossings(), loops=self.loops)
        if 4 * len(d.crossings) == len(self.arc_at):
            occ, across, steps = dict(self.occ), list(self.across), list(self.steps)
        else:
            # the compact corner of each live corner: a hole's corners read arc 0
            live = itertools.compress(range(len(self.arc_at)), self.arc_at)
            new = dict(zip(live, itertools.count()))
            occ = {arc: [new[k1], new[k2]] for arc, (k1, k2) in self.occ.items()}
            across = list(map(new.__getitem__, itertools.compress(self.across, self.arc_at)))
            steps = [list(map(new.__getitem__, corners)) for corners in self.steps]
        an = _Analysis(d.crossings, d.loops, occ)
        an.arc_at, an.across = list(filter(None, self.arc_at)), across
        an._strands = _Strands.of(steps, an.arc_at, list(self.cycles))
        an._euler_problems = ()
        object.__setattr__(d, "_analysis", an)
        return d


# -- component rings, twice-punctured disks, component removal -----------------------


def _passages(d: LinkDiagram, comp: int) -> list[int]:
    """The corners a component with crossings enters, in traversal order."""
    return d._analysis.steps[comp]


def _other_strand_arcs(d: LinkDiagram, c: int) -> tuple[int, int]:
    """The two arcs of the strand crossing a component's passage at corner ``c``."""
    arc_at, k = d._analysis.arc_at, c & ~3 | ~c & 1  # the other strand's first corner
    return arc_at[k], arc_at[k + 2]


def _ring_fault(d: LinkDiagram, part: ComponentPartition, comp: int) -> Optional[str]:
    """Why ``comp`` is not a ring that other strands cross four times, or None."""
    if not 0 <= comp < part.count:
        return f"no component {comp}"
    if comp >= len(part.cycles):
        return f"component {comp} has no crossings"
    pas = _passages(d, comp)
    if len(pas) != 4:
        return f"component {comp} crosses {len(pas)} times; the pattern needs 4"
    comp_arcs = set(part.arcs_of(comp))
    if any(set(_other_strand_arcs(d, c)) & comp_arcs for c in pas):
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
    across, arc_at = d._analysis.across, d._analysis.arc_at
    c_corners = {k for c in pas for k in range(c & ~3, (c & ~3) + 4)}

    def inner_run(pa: int, pb: int) -> Optional[set[int]]:
        # follow the other strand from pa's crossing to the first return to
        # C; the inner side is the shortest walk that lands on pb's crossing
        candidates = []
        first = pa & ~3 | ~pa & 1  # the other strand's corners at pa: 1 and 3, or 0 and 2
        for out in (first, first + 2):
            walk = _walk_corners(across, across[out], 2, c_corners)
            if walk[-1] >> 2 == pb >> 2:
                candidates.append({arc_at[k] for k in walk[:-1]})
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
        if check_signs and any(d.sign(pa >> 2) != d.sign(pb >> 2) for pa, pb in pairs):
            continue
        runs = []
        for pa, pb in pairs:
            run = inner_run(pa, pb)
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
    pas = _passages(d, comp)
    # the strands that crossed the component continue straight
    joins = [pair for c in pas if comp_arcs.isdisjoint(pair := _other_strand_arcs(d, c))]
    removed = {c >> 2 for c in pas}
    return _edited(d, lambda bld: bld.remove(removed, joins))


# -- open tangles and closed diagrams ---------------------------------------------


def twist_rows(chirality: int, left: Sequence, right: Sequence) -> list[tuple]:
    """The crossings of a two-rail twist region as rows of arc labels, one
    per crossing: the left rail runs on the labels ``left`` and the right
    rail on ``right``, one more of each than there are crossings.

    chirality +1: the strand entering on the left rail goes over;
    chirality -1: the right one does.  The strand entering on one rail
    leaves on the other.  Each row puts the under-strand on slots {0, 2};
    the build turns a row whose under-strand enters at slot 2.
    """
    rails = zip(left, left[1:], right, right[1:])
    if chirality > 0:  # under: right rail in -> left rail out
        return [(r0, l0, l1, r1) for l0, l1, r0, r1 in rails]
    return [(l0, l1, r1, r0) for l0, l1, r0, r1 in rails]  # under: left in -> right out


def rail(start, tag, n: int) -> tuple:
    """The labels a twist rail through n crossings runs on: ``start``, then
    (tag, 0) .. (tag, n - 1).  A rail through no crossing ends where it
    starts."""
    return (start, *((tag, i) for i in range(n)))


def open_tangle(rows: Iterable[Sequence], ports: Sequence = (), joins: Iterable[tuple] = ()
                ) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(rows, inner arcs, loops): the open PD tangle of crossings given as
    rows of hashable labels, one label per arc.

    Each pair of ``joins`` makes its two labels one arc; a pair of one
    label, an arc whose two ends are the ports it joins, closes a
    crossing-free loop.  Then port i, the label ``ports[i]``, is labelled
    -1 - i, and the inner arcs 1, 2, ... in order of first occurrence,
    row by row: the numbering a build gives fresh labels in.  Pieces are
    composed by sharing labels, so a fragment's ports are open ends and a
    generator's tangle has none.
    """
    root, loops = {}, 0

    def find(a):
        while a in root:
            a = root[a]
        return a

    for a, b in joins:
        a, b = find(a), find(b)
        if a == b:
            loops += 1
        else:
            root[b] = a
    n = len(ports)
    number = {find(p): -1 - i for i, p in enumerate(ports)}
    out = tuple(tuple(number.setdefault(find(a), len(number) + 1 - n) for a in row)
                for row in rows)
    return out, len(number) - n, loops


def closed(rows: Iterable[Sequence], joins: Iterable[tuple] = ()) -> LinkDiagram:
    """The diagram of a closed tangle, its crossings given as ``rows`` and
    its glued labels as ``joins`` (see `open_tangle`), each row's
    under-strand on slots {0, 2}, checked valid.  One analysis of the rows
    orients the tangle, no crossing voting (`_Analysis._oriented`), and a
    row whose under-strand the walk enters at slot 2 is turned by 2."""
    tangle, _, loops = open_tangle(rows, joins=joins)
    an = _Analysis(tuple(map(_crossing, tangle)), loops)
    if not an.double_ok:
        raise InvalidDiagramError(an.validity)
    turned = {c >> 2 for corners, _ in an._oriented(()) for c in corners if c & 3 == 2}
    d = LinkDiagram(tuple(x.rotated(2) if ci in turned else x
                          for ci, x in enumerate(an.crossings)), loops)
    d.require_valid()
    return d


def _edited(d, edit: Callable[[DiagramBuilder], None], reorient: bool = False):
    """``d`` after ``edit``: a builder edited and settled in place, or a
    diagram whose builder is edited and built."""
    if isinstance(d, DiagramBuilder):
        edit(d)
        d.settle(reorient=reorient)
        return d
    bld = DiagramBuilder(d)
    edit(bld)
    return bld.build(reorient)


# -- splicing --------------------------------------------------------------------


def flip_wirings(pairings) -> tuple[tuple[int, ...], ...]:
    """Wirings from (first pair, second pair) options of ends, each pair as
    given and reversed, the second flipping faster: ab, ab', a'b, a'b'."""
    return tuple(
        pa + pb for a, b in pairings for pa in (a, a[::-1]) for pb in (b, b[::-1])
    )


class _Side(NamedTuple):
    """One side of a splice seen from its open ends, as `_side` reads it:
    the base minus the removed crossings with the cut arcs opened, or the
    fragment.

    Entering the side by its open end e, a face walk leaves it by end
    ``face_next[e]`` and a strand walk by end ``strand_next[e]`` (e itself
    when the strands were not walked).
    ``vote[e]`` is None when that strand segment passes under no frozen
    crossing, and otherwise says whether walking it from e follows the
    base's orientation.  ``piece[e]`` numbers e's orbit of ``face_next``,
    in end order: the connected part of the side that e is on, under the
    face-orbit condition `splice` states.
    """

    face_next: tuple[int, ...]
    strand_next: tuple[int, ...]
    vote: tuple[Optional[bool], ...]
    piece: tuple[int, ...]


def _side(across: Sequence[int], open_at: dict[int, int],
          through: Iterable[tuple[int, int]] = (), strands: bool = True,
          inward: Optional[Callable[[int], bool]] = None) -> _Side:
    """The side whose ends are the open corners ``open_at`` numbers and the
    ``through`` pairs of ends that pass straight through to each other;
    ``across`` is its corner map, read only away from the open corners.
    Strands are walked only when ``strands``, and a segment that passes
    under a crossing votes ``inward`` of its open corner there.

    No face is traced and no part searched for.  A planar part whose k
    ends, as vertices of degree one, lie on one face, one piece, has
    E = 2V + k / 2 and F = 1 + the faces no walk enters, its inner faces,
    so V + k - E + F = 2 makes those V + 1 - k / 2.  The side is made of
    tuples: a base side's shape keys `_judged`'s memo, whose misses alone
    read a fragment side.
    """
    n = len(open_at) + 2 * len(through)
    face_next, strand_next = [0] * n, list(range(n))
    vote: list[Optional[bool]] = [None] * n
    for a, b in through:
        face_next[a], face_next[b] = strand_next[a], strand_next[b] = b, a
    for k, e in open_at.items():
        face_next[e] = open_at[_walk_corners(across, k, 1, open_at)[-1]]
        if strands and strand_next[e] == e:
            walk = _walk_corners(across, k, 2, open_at)
            far = open_at[walk[-1]]
            strand_next[e], strand_next[far] = far, e
            if inward is not None and any(not c & 1 for c in walk):
                vote[e] = inward(k)
                vote[far] = not vote[e]
    piece, count = [-1] * n, 0
    for e in range(n):
        if piece[e] < 0:
            while piece[e] < 0:
                piece[e], e = count, face_next[e]
            count += 1
    return _Side(tuple(face_next), tuple(strand_next), tuple(vote), tuple(piece))


def _base_side(base: LinkDiagram, removed: frozenset[int], cut: Sequence[int],
               stubs: Sequence[int], directed: bool) -> _Side:
    """The base side of a splice, its ends numbered as the builder's: each
    cut arc's tail and head, then each stub arc's kept occurrence.

    A stub arc that meets no kept crossing is listed twice and passes
    straight through from one of its ends to the other.  The strand walks
    run only when ``directed``, and a segment votes for the way the base
    runs along it.  The base is valid, so each part of it is planar, and
    `splice`'s caller puts each part's ends on one face, as `_side` needs.
    """
    an = base._analysis
    occ, head, across, arc_at = an.occ, an.head, an.across, an.arc_at
    ends: list[Optional[int]] = []
    for arc in cut:
        ends += [across[head[arc]], head[arc]]
    through: dict[int, list[int]] = {}  # stub arc -> its two ends, when it meets no kept crossing
    for arc in stubs:
        kept = [k for k in occ[arc] if k >> 2 not in removed]
        if not kept:
            through.setdefault(arc, []).append(len(ends))
        ends.append(kept[0] if len(kept) == 1 else None)
    open_at = {k: e for e, k in enumerate(ends) if k is not None}
    freed = {far for ci in removed for far in across[4 * ci:4 * ci + 4] if far >> 2 not in removed}
    if (len(open_at) + 2 * len(through) != len(ends)
            or any(len(pair) != 2 for pair in through.values())
            or any(k >> 2 in removed for k in open_at) or not freed <= open_at.keys()):
        raise AssertionError("splice ends must free each end of an arc once")
    return _side(across, open_at, through.values(), directed, lambda k: head[arc_at[k]] == k)


def _fragment_side(rows: Sequence[Sequence[int]]) -> Optional[_Side]:
    """The fragment side of a splice, read off its open tangle's ``rows``
    (see `open_tangle`): corner k is slot k & 3 of row k >> 2, port i's
    label -1 - i is open end i, and an inner label joins its two corners
    in the corner map.  `_judged` reads it on a miss alone.  None when a
    crossing is on no part with a port, which no move places.  A label
    that occurs other than twice, or a port that occurs other than once,
    is a fault in the fragment, raised as an AssertionError.

    This is where a splice's planarity guard sits: the fragment must meet
    the face-orbit condition.  Its inner faces (no walk from a port enters
    them) are traced, and their count minus the crossings must be the face
    orbits minus half the ports.  A part with ports on c face orbits and
    genus g traces 2c - 2 + 2g fewer than its orbits give it, each term at
    least 0, so the totals agree only when every part is planar with its
    ports on one face; otherwise the fault is raised as an AssertionError."""
    labels = list(itertools.chain.from_iterable(rows))
    count = collections.Counter(labels)
    n = sum(a < 0 for a in count)
    if any(c != (2 if a > 0 else 1) for a, c in count.items()) or min(count, default=0) != -n:
        raise AssertionError(f"fragment labels are not an open tangle: {tuple(map(tuple, rows))}")
    across = [-1] * len(labels)
    open_at: dict[int, int] = {}  # the corner port i is at -> i
    first: dict[int, int] = {}  # inner label -> its first corner
    for k, a in enumerate(labels):
        if a < 0:
            open_at[k] = -1 - a
        elif a in first:
            across[first[a]], across[k] = k, first[a]
        else:
            first[a] = k
    if -1 in _parts(across, [k >> 2 for k in open_at], open_at):
        return None
    side = _side(across, open_at)
    seen = bytearray(len(across))
    for k in open_at:
        for c in _walk_corners(across, k, 1, open_at):
            seen[c] = 1
    traced = sum(1 for _ in _closed_faces(across, range(len(across)), seen)) - len(across) // 4
    orbits, n = 1 + max(side.piece, default=-1), len(side.piece)
    if 2 * traced != 2 * orbits - n:
        raise AssertionError(f"fragment fails the face-orbit condition: traced inner faces - "
                             f"crossings = {traced}, face orbits - ports / 2 = {orbits - n // 2}")
    return side


def _wiring_fault(near: _Side, far: _Side, wiring: Sequence[int]) -> Optional[str]:
    """Why joining port i of ``far`` to end ``wiring[i]`` of ``near`` gives
    no valid diagram, or None when it gives one.

    "direction": a strand component through the fragment would walk one
    voting base segment forward and another backward, which is the
    builder's WiringError; a side without votes shows none.  "non-planar":
    a graph component the wiring makes fails the Euler check.  Both sides
    meet the face-orbit condition, so a piece of k ends has 1 - k / 2 more
    inner faces than crossings.  Over all components, faces minus
    crossings are then the pieces of both sides minus the n ends plus the
    faces that run through the fragment, each a cycle of entering ``near``
    by an end, leaving it by ``face_next``, entering ``far`` by the port
    joined there, and so on.  Every graph component has F - V <= 2, so all
    of them pass exactly when the total is twice their count.
    """
    n = len(near.face_next)
    port_of = [-1] * n
    for port, end in enumerate(wiring):
        port_of[end] = port
    if len(wiring) != n or len(far.face_next) != n or -1 in port_of:
        raise AssertionError(f"over-welded end: wiring {tuple(wiring)} does not give "
                             f"each of {len(far.face_next)} ports an end of its own")
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

    shift = 1 + max(near.piece, default=-1)
    root = list(range(shift + 1 + max(far.piece, default=-1)))

    def find(p: int) -> int:
        while root[p] != p:
            p = root[p]
        return p

    for port, end in enumerate(wiring):
        root[find(near.piece[end])] = find(shift + far.piece[port])
    euler = len(root) - n
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            euler += 1
            end = start
            while not seen[end]:
                seen[end] = True
                end = wiring[far.face_next[port_of[near.face_next[end]]]]
    if euler != 2 * sum(p == r for p, r in enumerate(root)):
        return "non-planar"
    return None


# Pays on replay_verify (1,423 of 1,423 splices per warm seed-1 pass, 121
# keys) and cli_pipeline (136 of 136 per round, 67 keys); certify_bases
# splices nothing.  A miss is the one place a fragment's tangle is made.
@lru_cache(maxsize=256)
def _judged(near: _Side, fragment: Callable[[], tuple], wirings: tuple[tuple[int, ...], ...]
            ) -> tuple[Optional[tuple[int, ...]], bool, Optional[tuple]]:
    """(the first wiring of ``wirings`` that `_wiring_fault` passes, or None;
    whether an earlier one needed a frozen crossing turned; the fragment's
    open tangle when a wiring passes) for a splice of ``fragment`` onto
    base side ``near``.  Both sides are all the judge reads, so the answer
    is kept per side shape, fragment and table (errors propagate,
    uncached).  A miss makes the tangle, ``fragment()``, the one a splice
    makes, and reads its side there: both are numbered by port."""
    tangle = fragment()
    far = _fragment_side(tangle[0])
    turned = False
    for wiring in wirings:
        fault = "non-planar" if far is None else _wiring_fault(near, far, wiring)
        if fault is None:
            return wiring, turned, tangle
        turned = turned or fault == "direction"
    return None, turned, None


def splice(
    base: LinkDiagram,
    fragment: Callable[[], tuple],
    wirings: Sequence[Sequence[int]],
    failure: str,
    *,
    cut: Sequence[int] = (),
    stubs: Sequence[int] = (),
    remove: Iterable[int] = (),
    reorient: bool = False,
) -> LinkDiagram:
    """Splice a fragment into ``base`` by the first wiring that gives a valid diagram.

    ``base`` is a diagram, or a `DiagramBuilder` that the splice edits in
    place and returns.  Its builder cuts the ``cut`` arcs in order and
    punches ``remove`` out; the ends are the labels each cut gives (the
    arc's tail side, then its head side), then the ``stubs`` arcs
    themselves, and port i of the fragment's open tangle takes the label
    of end ``wiring[i]``; ``reorient`` lets the builder's settling turn
    frozen crossings (`DiagramBuilder.settle`).  ``fragment`` is hashable,
    and ``fragment()`` gives the same open tangle (see `open_tangle`)
    every time.  The tangle and its side are numbered by port, so it is
    made only when the judge memo (`_judged`) misses.

    The caller meets the face-orbit condition: the removed crossings and
    cut points lie in a disk meeting the base nowhere else, so each part
    of the base minus them has its ends on one face, one orbit of
    `_side`'s ``face_next``.  R2, ring insertion (`_require_co_face`) and
    the augmented chain move check that their two cut arcs share a face;
    a half twist cuts two arcs off one face; a chain move removes a ring's
    four crossings, which its arcs join.

    The wirings are judged in order before any is built.  Each side is
    walked once from its open ends by one routine, `_side`, which
    `_base_side` hands the base's own corner map and `_fragment_side` one
    read off the tangle's labels, and then each wiring costs a walk over
    the ends alone (`_wiring_fault`): it is valid when no strand component
    through the fragment needs frozen crossings turned (unless
    ``reorient``) and every graph component passes the Euler check,
    counted over face orbits.  That check is exact: the base is valid and
    meets the condition, and `_fragment_side`, the planarity guard, traces
    the fragment's inner faces and raises an AssertionError for a fragment
    that does not meet it.  The judge's choice is memoised per base side
    shape, fragment and wiring table, in a bounded per-process cache
    (`_judged`), with the fragment's tangle, whose crossings the builder
    appends (`DiagramBuilder.place`) for the first valid wiring alone.
    Only the strand components through the fragment are walked, the
    others keeping their steps, and the output, a builder or a diagram
    built from one (`DiagramBuilder.build`), is known planar, so no face
    is traced until something reads the faces.  With no valid wiring, or a
    fragment with a crossing on no part with a port: SiteError("<failure>
    (<last wiring error>)"), that error being the strand-direction
    conflict text when some wiring needed a frozen crossing turned, and
    None otherwise.  A fragment fault (a label that is no open
    tangle's, a wiring that gives one end two ports) is a bug and
    propagates from the judge, and so does a built wiring whose arcs do
    not each occur twice or whose strands need a frozen crossing turned.
    """
    removed = frozenset(remove)
    base.require_valid()
    near = _base_side(base, removed, cut, stubs, directed=not reorient)
    wiring, turned, tangle = _judged(near, fragment, tuple(map(tuple, wirings)))
    if wiring is None:
        raise SiteError(f"{failure} ({_DIRECTION_CONFLICT if turned else None})")

    def edit(bld: DiagramBuilder) -> None:
        ends = [label for arc in cut for label in bld.cut(arc)] + list(stubs)
        bld.remove(removed)
        bld.place(tangle, [ends[end] for end in wiring])

    try:
        return _edited(base, edit, reorient)
    except (WiringError, InvalidDiagramError) as err:
        raise AssertionError(f"wiring {tuple(wiring)} was judged valid: {err}") from err


# -- Reidemeister moves --------------------------------------------------------


def _co_face(d: LinkDiagram, a: int, b: int) -> bool:
    """Whether arc ``b`` of valid ``d`` is on one of the two faces beside
    arc ``a``, the face walks from a's corners; no other face is walked."""
    an = d._analysis
    return any(an.arc_at[c] == b for k in an.occ[a] for c in _walk_corners(an.across, k, 1))


def _require_co_face(d: LinkDiagram, a: int, b: int, equal: str) -> None:
    """Raise SiteError unless ``a`` and ``b`` are two arcs of ``d`` on one
    face; ``equal`` is the message when they are the same arc."""
    d.require_valid()
    if a == b:
        raise SiteError(equal)
    for arc in (a, b):
        if arc not in d._analysis.occ:
            raise SiteError(f"no arc {arc}")
    if not _co_face(d, a, b):
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
    d._head(arc)  # a SiteError before any edit when there is no such arc

    def edit(bld: DiagramBuilder) -> None:
        m1 = bld.fresh_label()
        _, m2 = bld.cut(arc)
        bld.append([arc, m2, m1, m1] if handedness > 0 else [arc, m1, m1, m2])

    return _edited(d, edit)


def find_kinks(d: LinkDiagram) -> tuple[int, ...]:
    """Crossings carrying an arc on two adjacent slots (R1-removable)."""
    d.require_valid()
    out = []
    corners = iter(d._analysis.arc_at)
    for ci, (a, b, c, e) in enumerate(zip(*[corners] * 4)):
        if a and (a == b or b == c or c == e or e == a):  # a builder's hole reads 0s
            out.append(ci)
    return tuple(out)


def reidemeister1_undo(d: LinkDiagram, ci: int) -> LinkDiagram:
    d.require_valid()
    x = d._analysis.arc_at[4 * ci:4 * ci + 4] if ci >= 0 else []
    if not any(x):  # past the end, or a builder's hole, whose corners read 0
        raise SiteError(f"no crossing {ci}")
    pair = next((s for s in range(4) if x[s] == x[(s + 1) % 4]), None)
    if pair is None:
        raise SiteError(f"crossing {ci} is not a kink")
    return _edited(d, lambda bld: bld.remove({ci}, [(x[(pair + 2) % 4], x[(pair + 3) % 4])]))


def reidemeister2(
    d: LinkDiagram, arc_pair: tuple[int, int], layering: str = "first_over"
) -> LinkDiagram:
    """Push arc_pair[0] across arc_pair[1] through a face they share."""
    a, b = arc_pair
    _require_co_face(d, a, b, "R2 needs two distinct arcs")
    if layering not in ("first_over", "second_over"):
        raise SiteError("layering must be first_over or second_over")
    over, under = (a, b) if layering == "first_over" else (b, a)
    # ends: over tail, over head, under tail, under head
    return splice(
        d, _r2_fragment, flip_wirings([((0, 1), (2, 3))]), "R2 site admits no planar wiring",
        cut=(over, under),
    )


def _r2_fragment() -> tuple:
    """The R2 bigon, ports (over in, over out, under in, under out): the over
    strand rides the left rail and stays on top, so the second crossing
    flips chirality because the rails swap."""
    return open_tangle(twist_rows(+1, "ab", "cd") + twist_rows(-1, "be", "df"), "aecf")


def _r2_strands(d: LinkDiagram, ci: int, cj: int) -> Optional[tuple[int, int]]:
    """(arc over at both, arc under at both) of the arcs crossings ci and
    cj share, or None when either is missing."""
    occ, arc_at = d._analysis.occ, d._analysis.arc_at
    shared = set(arc_at[4 * ci:4 * ci + 4]) & set(arc_at[4 * cj:4 * cj + 4])
    over = next((a for a in shared if all(k & 1 for k in occ[a])), None)
    under = next((a for a in shared if not any(k & 1 for k in occ[a])), None)
    return None if over is None or under is None else (over, under)


def find_r2_bigons(d: LinkDiagram) -> tuple[tuple[int, int], ...]:
    """Bigon faces where one strand is over at both crossings, read off the
    corner map with no face traced: a face entering corner k enters k2
    next, and is a bigon when it then enters k again.  Its arcs run from
    slot k + 1 to k2 and from slot k2 + 1 to k, so one is over at both
    crossings and the other under at both when k and k2 differ in parity.
    A builder's hole, whose corners map to themselves, bounds none."""
    d.require_valid()
    across = d._analysis.across
    out = set()
    for k in range(len(across)):
        k2 = across[k & ~3 | (k + 1) & 3]
        if k2 > k and (k ^ k2) & 1 and k >> 2 != k2 >> 2 \
                and across[k2 & ~3 | (k2 + 1) & 3] == k:
            out.add((k >> 2, k2 >> 2))
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
    arc_at = d._analysis.arc_at
    joins = [tuple(arc_at[k + 2] if arc_at[k] == inner else arc_at[k]
                   for k in (4 * ci + s, 4 * cj + s))
             for s, inner in zip((1, 0), _r2_strands(d, ci, cj))]
    return _edited(d, lambda bld: bld.remove((ci, cj), joins))


def reduce_diagram(
    d: LinkDiagram, budget: int = DEFAULT_STEP_BUDGET
) -> tuple[LinkDiagram, int, bool]:
    """Greedy crossing-reducing R1/R2 until stable or out of budget: each
    step undoes the first kink, else the first bigon, in one builder of
    ``d``, built once at the end (``d`` itself when no step is needed).

    Returns (diagram, steps used, reached a stable form).
    """
    steps, cur = 0, d
    while True:
        kinks = find_kinks(cur)
        bigons = () if kinks else find_r2_bigons(cur)
        if (not kinks and not bigons) or steps >= budget:
            break
        if cur is d:
            cur = DiagramBuilder(d)
        if kinks:
            reidemeister1_undo(cur, kinks[0])
        else:
            _undo_bigon(cur, *bigons[0])
        steps += 1
    return (d if cur is d else cur.build()), steps, not kinks and not bigons


# -- the standard (2, n) closed-braid template ----------------------------------


def braid2_template(n: int, mirror: bool = False) -> LinkDiagram:
    """Standard diagram of the (2, n) torus link: an n-twist region closed up."""
    if n < 1:
        raise SiteError("template needs at least one crossing")
    rails = [[(side, i % n) for i in range(n + 1)] for side in "lr"]  # each closes up
    return closed(twist_rows(+1 if not mirror else -1, *rails))


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

    Equal crossings and loops are the same diagram: once d1 is valid, d2
    is accepted by the identity and never analysed.
    """
    d1.require_valid()
    if d1.crossings == d2.crossings and d1.loops == d2.loops:
        return True
    d2.require_valid()
    if len(d1.crossings) != len(d2.crossings) or d1.loops != d2.loops:
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

    The walk reads the two diagrams' corner maps alone, like every walk
    over a diagram, and spreads one arc at a time: corner s of a mapped
    crossing goes to corner s + r of its image, so the far corner of its
    arc in d1 must go to the far corner of the image's arc in d2, which
    fixes the far crossing's image and rotation, and that rotation must be
    even.  A map that passes covers image's graph component, each crossing
    of it the same number of times; the caller compares the component
    sizes, so that number is one and the crossing map, the slot map and
    the arc map are one-to-one.
    """
    across1, across2 = d1._analysis.across, d2._analysis.across
    placed = {root: (image, rot)}  # d1 crossing -> (d2 crossing, rotation)
    work = [root]
    while work:
        c1 = work.pop()
        c2, r = placed[c1]
        for s in range(4):
            far1, far2 = across1[4 * c1 + s], across2[4 * c2 + (s + r) % 4]
            want = (far2 >> 2, (far2 - far1) % 4)
            got = placed.get(far1 >> 2)
            if got is None:
                if want[1] % 2:
                    return False
                placed[far1 >> 2] = want
                work.append(far1 >> 2)
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
    an = d._analysis
    comps = tuple(tuple(((c >> 2) + 1, c & 1 == 1, an.sign(c >> 2)) for c in steps)
                  for steps in an.steps)
    return GaussCode(components=comps, loops=d.loops)


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
    loops = g.loops + sum(1 for comp in g.components if not comp)
    d = LinkDiagram(tuple(Crossing(tuple(row)) for row in slots), loops=loops)
    d.require_valid()
    return d


# -- text formats -----------------------------------------------------------------

# one token at a time: a good crossing (groups 1-4), a good loop (5), a bad
# crossing or loop token, whose parenthesised part may be missing (6, 7),
# or any other character (8)
_PD_TOKEN = re.compile(
    r"X\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)|O\s*\(\s*(\d+)\s*\)"
    r"|(X(?:\s*\([^)]*\))?)|(O(?:\s*\([^)]*\))?)|(\S)"
)


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text: X(a,b,c,d) and O(n) tokens, # comments."""
    crossings = []
    loops = 0
    for m in _PD_TOKEN.finditer(re.sub(r"#[^\n]*", "", text)):
        a, b, c, d, loop, bad_crossing, bad_loop, other = m.groups()
        if a is not None:
            crossings.append(Crossing((int(a), int(b), int(c), int(d))))
        elif loop is not None:
            loops += int(loop)
        elif bad_crossing is not None:
            raise FormatError(f"bad crossing token: {bad_crossing!r}")
        elif bad_loop is not None:
            raise FormatError(f"bad loop token: {bad_loop!r}")
        else:
            raise FormatError(f"unexpected token: {other!r}")
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
