"""Independent oracles the tests check library results against.

These deliberately avoid the library's own code paths: the continued
fraction uses the stdlib Fraction type, the component counter is a plain
union-find over the raw crossing tuples, the linking oracle reads
signed Gauss entries, the 2-edge-cut oracle runs a union-find per
pair of arcs instead of reading the faces, the isomorphism oracle
is a backtracking search over crossing assignments, one graph component
at a time, instead of a rooted walk, the 2-braid oracle builds both
(2, n) templates and walks against each for every diagram instead of
first comparing face sizes, the splice
oracle judges every candidate wiring by the full
report of an analysis whose stages all ran up front instead of asking
for planarity first, and tries a reorienting splice's wirings strictly
before it lets frozen crossings turn, the wiring-loop oracle builds every
candidate wiring in turn instead of judging them from the two sides'
walks (both renormalise each candidate's crossings with every strand
component walked instead of only those through the arcs the build
changed), the emitting-splice oracle reads
a fragment's side at every splice, off the weld chains of the builder
over the base, instead of off the fragment's open tangle on a judge miss
alone, and judges every splice's wirings afresh instead of asking a
memo keyed by the base side's shape, the welded-splice oracle (and the
emitting one) emits the fragment's weld program into the splice's own
builder, gives its ports their ends' labels by the port map and labels
its slots from the weld chains instead of placing the open tangle the
judge memo keeps, the two splice-side oracles
walk each side with walks of their own, search its parts and trace their
faces instead of taking its face orbits for its parts, assert that each
part is planar with its ends on one face, and
walk each end's strand on its own (the fragment-side oracle emits the
fragment's weld program into a builder of its own and labels it there
instead of reading the tangle's labels; the base-side oracle reads the
heads off `trace_oracle` and votes by the first under-slot a walk
enters), and the orientation oracles walk a
component a second time to go backward instead of reading the forward
walk in reverse, and settle a builder's conflicted component in a
branch of their own.  The face and disk-run oracles are the library's
face stage and disk-run scan as they were before every walk read one
corner map: each builds its own corner map or reads the occurrence
index, searches graph components and walks faces and runs with loops of
its own.  The half-twist spot oracle traces every face of the diagram
and scans each for the arcs of the ring, where the library reads the two
faces beside each arc off the corner map.  The guarded renormalisation
oracle is a build's last step as it was before a splice's output arrived
analysed: a probe analysis with
every strand component walked, and the output's full validation.  The
rebuilding builder, its renormalisation and the rebuilt splice are the
build path as it was before a replay state kept one diagram through a
replay: each build copies every kept crossing of its base and indexes the
built crossings afresh in a probe analysis; they are the reference a
replay state is checked against.  The verify oracle is
`certificate.verify` as it was before `moves.admit` became the gate it
shares with the moves, and before it kept one replay state: it tests each
chain step's evidence itself, with the fraction and component arithmetic
of its own, looks a site up only for declared evidence, and applies each
step to the diagram the last one built, by the rebuilt splice.  The
replay oracle is the verify oracle with every splice run by the splice
oracle.  The crossing-drop
oracle is how R1/R2 undos and component removal built their output before
they went through the builder: a union-find over the joined arcs and a
bare diagram, analysed afresh.  The weld builder is the builder's weld
half as it was before fragments and generators became open tangles: it
makes crossings and terminals, welds them into chains whose ends it
pairs, and labels each open slot by its chain's far end; with the
weld-written fragments and generators beside it, and `tangle_of`, which
reads a weld program's tangle as the builder's plan did, it is the
reference the open tangles are checked against.  The trail builder
labels as the weld builder did before each weld paired its chain's ends:
it keeps each port's welds and walks them from every open slot, then
walks the plain terminals left over for crossing-free loops; it labels
builds without joins.  The PD parser oracle cuts the text into
tokens in one pass and reads each token with a second regex, as
`parse_pd` did before one regex read each token once.  The R1/R2 scan
oracles are `find_kinks` and `find_r2_bigons` as they were before they
read the slots and the corner map directly: the kink scan tries each pair
of neighbouring slots in a generator, and the bigon scan traces the faces
and asks each 2-face for the arcs its two crossings share.  The reduce
oracle is `reduce_diagram` as it was before it kept one builder across
its steps: each step a move on the diagram the last step built.

The oracles name a place by its (ci, si) slot.  The library's analysis
names it by its corner 4 * ci + si; where an oracle reads or builds that
analysis, it converts at that one point (`slot_occ`, `slot_faces`).
"""

import copy
import functools
import itertools
import re
from fractions import Fraction as QQ
from typing import Iterable, Optional, Sequence
from unittest import mock

import hyperforge.classifier as cls
import hyperforge.diagram as dg
import hyperforge.generators as generators
import hyperforge.moves as moves
import hyperforge.tangle as tangle
from hyperforge.certificate import (
    AbstractManifold,
    ChainStep,
    SwitchStep,
    Verdict,
    _apply_step,
    _verify_abstract,
)
from hyperforge.diagram import (
    _DIRECTION_CONFLICT,
    DEFAULT_STEP_BUDGET,
    Crossing,
    LinkDiagram,
    Slot,
    _Analysis,
    _base_side,
    _disk_runs,
    _Embedding,
    _other_strand_arcs,
    _passages,
    _fragment_side,
    _judged,
    _r2_fragment,
    _ring_fault,
    _Side,
    _Strands,
    _r2_strands,
    _relabel_occurrence,
    _wiring_fault,
    braid2_template,
    components,
    diagram_isomorphic,
    validate,
)
from hyperforge.errors import (
    CertificateError,
    ExcludedExteriorError,
    FormatError,
    InvalidDiagramError,
    SiteError,
    WiringError,
)
from hyperforge.tangle import fraction

INF = "inf"


def parse_pd_oracle(text: str) -> LinkDiagram:
    """`diagram.parse_pd` as it was before it read each token once: one
    pass cuts the text into tokens, and a second regex reads each."""
    stripped = re.sub(r"#[^\n]*", "", text)
    crossings = []
    loops = 0
    for m in re.finditer(r"X\s*\([^)]*\)|O\s*\([^)]*\)|\S", stripped):
        tok = m.group(0)
        if tok[0] == "X":
            xm = re.fullmatch(r"X\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)", tok)
            if not xm:
                raise FormatError(f"bad crossing token: {tok!r}")
            crossings.append(Crossing(tuple(int(g) for g in xm.groups())))
        elif tok[0] == "O":
            om = re.fullmatch(r"O\s*\(\s*(\d+)\s*\)", tok)
            if not om:
                raise FormatError(f"bad loop token: {tok!r}")
            loops += int(om.group(1))
        else:
            raise FormatError(f"unexpected token: {tok!r}")
    return LinkDiagram(tuple(crossings), loops=loops)


def slot_occ(d: LinkDiagram) -> dict[int, list[Slot]]:
    """The occurrence index of ``d``'s analysis, each corner 4 * ci + si
    converted to its (ci, si) slot: the oracles' encoding of a place."""
    return {arc: [divmod(k, 4) for k in places] for arc, places in d._analysis.occ.items()}


def slot_faces(embedding: _Embedding) -> _Embedding:
    """``embedding`` with each face's corners converted to (ci, si) slots,
    as `faces_oracle` gives them."""
    return embedding._replace(
        faces=[tuple(divmod(k, 4) for k in face) for face in embedding.faces])


def cf_oracle(entries):
    """Continued fraction c_n + 1/(c_{n-1} + ... + 1/c_1), last entry outermost."""
    value = QQ(entries[0])
    for c in entries[1:]:
        if value == 0:
            value = INF
            if c != 0:
                value = INF  # c + inf stays inf
            continue
        if value == INF:
            value = QQ(c)  # c + 1/inf
            continue
        value = QQ(c) + 1 / value
    return value


def oracle_equal(value, p, q):
    """Compare an oracle value against a hyperforge Fraction's p/q."""
    if value == INF:
        return q == 0
    return q != 0 and value == QQ(p, q)


def union_find_component_count(d):
    """Count strand cycles by union-find over raw crossing tuples, plus loops."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for x in d.crossings:
        s = x.slots
        union(s[0], s[2])
        union(s[1], s[3])
    roots = {find(a) for x in d.crossings for a in x.slots}
    return len(roots) + d.loops


def gauss_linking_oracle(d, comp_a, comp_b):
    """Half the signed sum over crossings the two components share,
    read off the Gauss code."""
    from hyperforge.diagram import to_gauss

    code = to_gauss(d)
    seen_a = {}
    seen_b = {}
    for cid, over, sign in code.components[comp_a]:
        seen_a.setdefault(cid, []).append(sign)
    for cid, over, sign in code.components[comp_b]:
        seen_b.setdefault(cid, []).append(sign)
    total = 0
    for cid, signs in seen_a.items():
        if cid in seen_b and len(signs) == 1 and len(seen_b[cid]) == 1:
            total += signs[0]
    assert total % 2 == 0
    return total // 2


def two_edge_cuts_oracle(d):
    """Arc pairs whose removal disconnects crossings from crossings, by a
    full union-find for every pair of arcs (O(E^3))."""
    d.require_valid()
    n = len(d.crossings)
    if n < 2:
        return ()
    occ = slot_occ(d)
    arcs = sorted(occ)
    cuts = []
    for e, f in itertools.combinations(arcs, 2):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for arc in arcs:
            if arc in (e, f):
                continue
            (c1, _), (c2, _) = occ[arc]
            r1, r2 = find(c1), find(c2)
            if r1 != r2:
                parent[r1] = r2
        if len({find(ci) for ci in range(n)}) > 1:
            cuts.append((e, f))
    return tuple(cuts)


def diagram_isomorphic_oracle(d1: LinkDiagram, d2: LinkDiagram) -> bool:
    """Unoriented-diagram isomorphism.

    Searches for a crossing bijection with per-crossing slot rotation by 0
    or 2 (preserving CCW rotation and over/under) that induces a consistent
    arc bijection, one graph component of ``d1`` at a time.  Mirrors are
    NOT identified.
    """
    d1.require_valid()
    d2.require_valid()
    if len(d1.crossings) != len(d2.crossings) or d1.loops != d2.loops:
        return False
    n = len(d1.crossings)
    if n == 0:
        return True
    occ1, occ2 = slot_occ(d1), slot_occ(d2)
    if len(occ1) != len(occ2):
        return False

    def graph_components(occ):
        """Each graph component's crossings, in depth-first order."""
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for (c1, _), (c2, _) in occ.values():
            adj[c1].add(c2)
            adj[c2].add(c1)
        comps: list[list[int]] = []
        seen: set[int] = set()
        for start in range(n):
            if start in seen:
                continue
            order: list[int] = []
            stack = [start]
            while stack:
                c = stack.pop()
                if c in seen:
                    continue
                seen.add(c)
                order.append(c)
                stack.extend(nb for nb in sorted(adj[c], reverse=True) if nb not in seen)
            comps.append(order)
        return comps

    amap: dict[int, int] = {}
    amap_inv: dict[int, int] = {}
    used: set[int] = set()

    def try_assign(c1: int, c2: int, rot: int, undo: list) -> bool:
        for s in range(4):
            x = d1.crossings[c1].slots[s]
            y = d2.crossings[c2].slots[(s + rot) % 4]
            if x in amap:
                if amap[x] != y:
                    return False
            elif y in amap_inv:
                return False
            else:
                amap[x] = y
                amap_inv[y] = x
                undo.append((x, y))
        return True

    def backtrack(order: list[int], pos: int, first: list[int]) -> bool:
        """Map order[pos:] on, the first crossing to one of ``first``;
        leaves every map as it found it when it fails."""
        if pos == len(order):
            return True
        c1 = order[pos]
        cands: Iterable[int] = first
        for s in range(4):
            x = d1.crossings[c1].slots[s]
            if x in amap:
                cands = sorted({o[0] for o in occ2[amap[x]]})
                break
        for c2 in cands:
            if c2 in used:
                continue
            for rot in (0, 2):
                undo: list = []
                ok = try_assign(c1, c2, rot, undo)
                if ok:
                    used.add(c2)
                    if backtrack(order, pos + 1, first):
                        return True
                    used.discard(c2)
                for x, y in undo:
                    del amap[x]
                    del amap_inv[y]
        return False

    # one component at a time: a component matched stays matched, since
    # any other component it could take is isomorphic to the one it took
    targets = graph_components(occ2)
    for order in graph_components(occ1):
        for target in targets:
            if len(target) == len(order) and backtrack(order, 0, target):
                targets.remove(target)
                break
        else:
            return False
    return True


def is_braid2_form_oracle(reduced: LinkDiagram) -> bool:
    """Whether a stable R1/R2 reduction is a (2, n) template of either hand."""
    n = len(reduced.crossings)
    return n >= 2 and not reduced.loops and any(
        diagram_isomorphic(reduced, braid2_template(n, m)) for m in (False, True)
    )


def find_kinks_oracle(d: LinkDiagram) -> tuple[int, ...]:
    """`diagram.find_kinks` as it was: each crossing's neighbouring slot
    pairs compared in a generator."""
    d.require_valid()
    out = []
    for ci, x in enumerate(d.crossings):
        if any(x.slots[s] == x.slots[(s + 1) % 4] for s in range(4)):
            out.append(ci)
    return tuple(out)


def find_r2_bigons_oracle(d: LinkDiagram) -> tuple[tuple[int, int], ...]:
    """`diagram.find_r2_bigons` as it was: the traced faces of length two,
    each kept when its two crossings share an arc over at both and an arc
    under at both."""
    d.require_valid()
    out = set()
    for face in d._analysis.faces:
        if len(face) != 2:
            continue
        c1, c2 = face[0] >> 2, face[1] >> 2
        pair = (min(c1, c2), max(c1, c2))
        if c1 != c2 and _r2_strands(d, *pair):
            out.add(pair)
    return tuple(sorted(out))


def renormalize_probe_oracle(crossings, loops, frozen, allow_reorient=False, touched=None,
                             base_steps=()) -> LinkDiagram:
    """`diagram._renormalize` as it was before a replay state kept one
    diagram through a replay: each build's crossings indexed afresh by a
    probe analysis.  Rotate crossings by 2 where needed to meet the
    convention.

    Each component takes the direction of its first frozen under-passage
    (see `_Analysis._oriented`), and every crossing it enters at slot 2
    rotates so the incoming under-strand sits at slot 0.  CCW rotation and
    the under/over split are never changed.  Frozen crossings that
    disagree on a component's direction raise a WiringError, unless
    ``allow_reorient``: a move genuinely reversed a strand segment, as a
    half twist on two strands of one component does, and every frozen
    crossing that disagrees with the first rotates by 2 as well; arc
    labels never change.

    The probe is a fresh analysis of ``crossings``, made with no diagram:
    an InvalidDiagramError unless every arc occurs twice.  With no
    ``touched``, every strand component is walked.  A build over a base
    gives the arcs whose corners changed as ``touched``, and the base's strand steps,
    renumbered, as ``base_steps`` (a removed crossing's corners read -1):
    only the components through a touched arc are walked, by
    `_Analysis._walks_through`, and each other one is a base component
    whose oriented steps it keeps, which turn no crossing.  The probe
    becomes the output's analysis: in its occurrence index, corner map,
    arcs and strand trace, each corner k of a turned crossing moves to
    k ^ 2.  Every under-passage then enters at slot 0, so the output's own
    trace would walk each component the same way, with no conflict.  A
    build over a base passes the Euler check (see `_Analysis`), so with
    ``touched`` the output is known planar.
    """
    ana = _Analysis(tuple(crossings), loops)
    if not ana.double_ok:
        raise InvalidDiagramError(ana.validity)
    walks, kept = None, []
    if touched is not None:
        occ, arc_at = ana.occ, ana.arc_at
        walks = ana._walks_through([occ[arc][0] for arc in touched if arc in occ])
        on_walks = set(map(arc_at.__getitem__, itertools.chain.from_iterable(walks)))
        kept = [steps for steps in base_steps
                if steps[0] >= 0 and arc_at[steps[0]] not in on_walks]
    oriented = list(ana._oriented(frozen, walks))
    if not allow_reorient and any(conflict for _, conflict in oriented):
        raise WiringError(_DIRECTION_CONFLICT)
    walks = [corners for corners, _ in oriented]
    turned = {c >> 2 for corners in walks for c in corners if c & 3 == 2}
    occ, across, arc_at = ana.occ, ana.across, ana.arc_at
    out = list(crossings)
    if turned:
        # corner k of a turned crossing becomes k ^ 2, at either end of its arc
        moved = {}
        for ci in turned:
            out[ci] = out[ci].rotated(2)
            arc_at[4 * ci:4 * ci + 4] = out[ci].slots
            for k in range(4 * ci, 4 * ci + 4):
                far = across[k] ^ 2 if across[k] >> 2 in turned else across[k]
                moved[k ^ 2], moved[far] = far, k ^ 2
        for k, far in moved.items():
            across[k] = far
        for ci in turned:
            for k, arc in enumerate(out[ci].slots, 4 * ci):
                occ[arc] = sorted((k, across[k]))
        if any(ci in frozen for ci in turned):  # the kept walks pass frozen crossings alone
            walks, kept = walks + kept, []
        walks = [[c ^ 2 if c >> 2 in turned else c for c in corners] for corners in walks]
    d = LinkDiagram(tuple(out), loops=loops)
    ana.crossings, ana._strands = d.crossings, _Strands.of(walks + kept, arc_at)
    if touched is not None:
        ana._euler_problems = ()
    object.__setattr__(d, "_analysis", ana)
    return d


class RebuildingBuilder:
    """`diagram.DiagramBuilder` as it was before a replay state kept one
    diagram through a replay: it assembles a diagram from open tangles and
    the arcs of a base, copying every kept crossing, and builds it by
    `renormalize_probe_oracle`.

    `place` appends an open tangle's crossings (see `open_tangle`), each
    port labelled as its caller gives, each inner arc fresh.  Crossing
    rows put the under-strand on slots {0, 2}; the final rotation by 2 (to
    put the *incoming* under-strand at slot 0) happens at build time.
    When a base diagram is given, its kept crossings are frozen and edited
    by arc label: ``cut`` splits a base arc into two labels, and ``join``
    records two arcs that a strand through a removed crossing runs on as
    one.  A frozen crossing's row is the base's `Crossing` itself,
    replaced only when ``cut`` or a join relabels it, so the build reuses
    every crossing that did not change.  A generator places its closed
    tangle into an empty builder; a splice places its fragment over its
    base.
    """

    def __init__(self, base: Optional[LinkDiagram] = None, remove: Iterable[int] = ()):
        self.base = base
        self.removed = frozenset(remove)
        self.protos: list = []  # frozen crossings, then new crossings' label lists
        self._new_corner: Sequence[int] = ()  # base corner -> its corner here, -1 when removed
        if base is not None:
            base.require_valid()
            if not self.removed:  # every crossing kept: the corner map is the identity
                self.protos, self._new_corner = list(base.crossings), range(4 * len(base.crossings))
            else:
                self._new_corner = []
                for ci, x in enumerate(base.crossings):
                    if ci in self.removed:
                        self._new_corner += (-1, -1, -1, -1)
                    else:
                        k = 4 * len(self.protos)
                        self._new_corner += (k, k + 1, k + 2, k + 3)
                        self.protos.append(x)
        self.n_frozen = len(self.protos)
        self.loops = base.loops if base is not None else 0
        self.joins: list[tuple[int, int]] = []  # arc pairs that run on as one
        self._next_arc = base.fresh_arc() if base is not None else 1

    def fresh_label(self) -> int:
        label = self._next_arc
        self._next_arc += 1
        return label

    def place(self, tangle: tuple, ports: Sequence[int]) -> None:
        """Append an open tangle's crossings: port i takes the label
        ``ports[i]`` and inner arc j the next fresh label + j - 1; the
        loops it closes are added."""
        rows, inner, loops = tangle
        first = self._next_arc - 1
        self._next_arc += inner
        self.protos += [[ports[-1 - a] if a < 0 else first + a for a in row] for row in rows]
        self.loops += loops

    def cut(self, arc: int) -> tuple[int, int]:
        """Cut a base arc; returns the labels of its (tail side, head side).

        The piece at the arc's tail keeps the label; the head occurrence is
        relabeled fresh.  Both pieces stay attached to their far crossings.
        """
        if self.base is None:
            raise AssertionError("cut needs a base diagram")
        head = self.base._head(arc)
        if head >> 2 in self.removed:
            raise AssertionError("cut arc ends at a removed crossing; pass it to splice's stubs")
        fresh, head = self.fresh_label(), self._new_corner[head]
        _relabel_occurrence(self.protos, head, fresh)
        return arc, fresh

    def join(self, a: int, b: int) -> None:
        """Record that base arcs ``a`` and ``b``, the two sides of a strand
        through a removed crossing, run on as one."""
        self.joins.append((a, b))

    def build(self, allow_reorient: bool = False) -> LinkDiagram:
        """The diagram, renormalised with the kept base crossings frozen.

        The output is indexed afresh.  Over a base, only the strand
        components through an arc whose corners changed are walked: a
        joined arc or a new crossing's.  Every other component's arcs and
        crossings are the base's, so it keeps the base's corners,
        renumbered past the removed crossings.  A build over a base passes
        the Euler check, so its analysis runs none: it is a splice, whose
        judge proves it, or a removal, which keeps it.
        """
        loops = self._label()
        n = self.n_frozen
        crossings = self.protos[:n] + [Crossing(tuple(p)) for p in self.protos[n:]]
        touched, steps = None, ()
        if self.base is not None:
            touched = {*itertools.chain.from_iterable(self.joins),
                       *itertools.chain.from_iterable(self.protos[n:])}
            steps = self.base._analysis.steps
            if self.removed:
                steps = [list(map(self._new_corner.__getitem__, corners)) for corners in steps]
        return renormalize_probe_oracle(crossings, loops, frozen=range(n),
                                        allow_reorient=allow_reorient, touched=touched,
                                        base_steps=steps)

    def _label(self) -> int:
        """Relabel the kept base crossings along the ``joins``, in place;
        returns the loop count.  Placed crossings arrive labelled.

        The ``joins`` link base arcs into runs.  Each arc has two ends, so
        a run is a path, which takes the least label of its arcs (its other
        arcs' kept occurrences are relabelled), or a run whose every arc is
        joined at both ends, a crossing-free loop; a self-join counts as
        both ends."""
        loops = self.loops
        nbrs: dict[int, list[int]] = {}  # joined arc -> the arcs it is joined to
        for a, b in self.joins:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        while nbrs:
            run, todo = {}, [next(iter(nbrs))]  # the run's arcs, each -> its joined arcs
            while todo:
                if (a := todo.pop()) in nbrs:
                    run[a] = nbrs.pop(a)
                    todo += run[a]
            if all(len(joined) == 2 for joined in run.values()):
                loops += 1
                continue
            least = min(run)
            for a in run.keys() - {least}:
                for k in self.base._analysis.occ[a]:
                    if self._new_corner[k] >= 0:
                        _relabel_occurrence(self.protos, self._new_corner[k], least)
        return loops


def rebuilt_splice_oracle(base, fragment, wirings, failure, *, cut=(), stubs=(), remove=(),
                          reorient=False):
    """`diagram.splice` as it was before a replay state kept one diagram
    through a replay: the judge's wiring built by a `RebuildingBuilder`
    over ``base``, which copies every kept crossing and indexes the built
    crossings afresh."""
    removed = frozenset(remove)
    base.require_valid()
    near = _base_side(base, removed, cut, stubs, directed=not reorient)
    wiring, turned, tangle = _judged(near, fragment, tuple(map(tuple, wirings)))
    if wiring is None:
        raise SiteError(f"{failure} ({_DIRECTION_CONFLICT if turned else None})")
    bld = RebuildingBuilder(base=base, remove=removed)
    ends = [label for arc in cut for label in bld.cut(arc)] + list(stubs)
    bld.place(tangle, [ends[end] for end in wiring])
    try:
        return bld.build(allow_reorient=reorient)
    except (WiringError, InvalidDiagramError) as err:
        raise AssertionError(f"wiring {tuple(wiring)} was judged valid: {err}") from err


def eager_report(d: LinkDiagram):
    """The validity report of a fresh analysis of ``d`` with every stage
    computed before the report is read, faces before strands: the reverse
    of the order the report lists their problems in."""
    an = _Analysis(d.crossings, d.loops)
    an.planar_ok, an.consistent
    return an.report()


def _built(bld, allow_reorient):
    """What ``bld.build(allow_reorient=...)`` gives, renormalised by
    `renormalize_oracle`, every strand component of the built crossings
    walked, instead of only those through the arcs the build changed."""
    loops = bld._label()
    n = bld.n_frozen
    crossings = bld.protos[:n] + [Crossing(tuple(p)) for p in bld.protos[n:]]
    return renormalize_oracle(crossings, loops, range(n), allow_reorient)


def splice_oracle(base, emit, wirings, failure, *, cut=(), stubs=(), remove=(),
                  reorient=False):
    """`diagram.splice` before its analysis became lazy and before a
    reorienting splice became one pass: the same candidates in the same
    order, each welded from the fragment's weld program, built by `_built`
    and judged by `eager_report(out).valid`; with ``reorient``, every
    wiring is first tried strictly, and only then again with frozen
    crossings free to turn."""
    last_err: Optional[Exception] = None
    for allow_reorient in (False, True) if reorient else (False,):
        for wiring in wirings:
            bld = WeldBuilder(base=base, remove=remove)
            ends = [label for arc in cut for label in bld.cut(arc)] + list(stubs)
            ports = weld_program(emit)(bld)
            bld.port_labels = {port: ends[end] for port, end in zip(ports, wiring)}
            try:
                out = _built(bld, allow_reorient)
            except (WiringError, InvalidDiagramError) as err:
                last_err = err
                continue
            if eager_report(out).valid:
                return out
    raise SiteError(f"{failure} ({last_err})")


def wiring_loop_oracle(base, emit, wirings, failure, *, cut=(), stubs=(), remove=(),
                       reorient=False):
    """`diagram.splice` before it judged the wirings without building them:
    one weld builder per candidate in table order, each welded from the
    fragment's weld program and built by `_built`, free to turn frozen
    crossings when ``reorient``, and the first planar and valid output
    kept."""
    last_err: Optional[Exception] = None
    for wiring in wirings:
        bld = WeldBuilder(base=base, remove=remove)
        ends = [label for arc in cut for label in bld.cut(arc)] + list(stubs)
        ports = weld_program(emit)(bld)
        bld.port_labels = {port: ends[end] for port, end in zip(ports, wiring)}
        try:
            out = _built(bld, reorient)
        except (WiringError, InvalidDiagramError) as err:
            last_err = err
            continue
        if out._analysis.planar_ok and validate(out).valid:
            return out
    raise SiteError(f"{failure} ({last_err})")


def _welding_splice(judge, base, emit, wirings, failure, *, cut=(), stubs=(), remove=(),
                    reorient=False):
    """`diagram.splice` as it was before it placed its fragment from the
    judge's plan: the fragment's weld program is emitted into the splice's
    own weld builder,
    the wiring ``judge(near, emit, bld, ports, wirings)`` gives as (wiring
    or None, whether a wiring needed a frozen crossing turned) gives each
    port its end's label by the port map, and the build labels every slot
    from its weld chain."""
    removed = frozenset(remove)
    base.require_valid()
    near = _base_side(base, removed, cut, stubs, directed=not reorient)
    bld = WeldBuilder(base=base, remove=removed)
    ends = [label for arc in cut for label in bld.cut(arc)] + list(stubs)
    ports = weld_program(emit)(bld)
    wiring, turned = judge(near, emit, bld, ports, tuple(map(tuple, wirings)))
    if wiring is None:
        raise SiteError(f"{failure} ({WiringError(_DIRECTION_CONFLICT) if turned else None})")
    bld.port_labels = {port: ends[end] for port, end in zip(ports, wiring)}
    try:
        return bld.build(allow_reorient=reorient)
    except (WiringError, InvalidDiagramError) as err:
        raise AssertionError(f"wiring {tuple(wiring)} was judged valid: {err}") from err


def _judged_afresh(near, emit, bld, ports, wirings):
    far = bld.fragment_side(ports)
    turned = False
    for wiring in wirings:
        fault = "non-planar" if far is None else _wiring_fault(near, far, wiring)
        if fault is None:
            return wiring, turned
        turned = turned or fault == "direction"
    return None, turned


def emitting_splice_oracle(*args, **kwargs):
    """`diagram.splice` without its judge memo and its open tangle: the
    fragment side is read at every splice, off the chain ends of the
    splice's own weld builder, the fragment's corners and terminals
    numbered where its weld program put them there, every wiring is judged
    afresh, and the chosen one is welded and labelled there."""
    return _welding_splice(_judged_afresh, *args, **kwargs)


def _memo_wiring(near, emit, _bld, _ports, wirings):
    return _judged(near, emit, wirings)[:2]


def welded_splice_oracle(*args, **kwargs):
    """`diagram.splice` without its open tangle: the wiring is the judge
    memo's (`_judged`), and the fragment's weld program is emitted into the
    splice's own weld builder and labelled there, not placed from the
    tangle the memo keeps."""
    return _welding_splice(_memo_wiring, *args, **kwargs)


def _side_walk(crossings, occ, open_at, slot, turn):
    """(end, first under-slot entered, or None) of the walk in by open slot
    ``slot``, turning ``turn`` slots counterclockwise at each crossing,
    until it leaves by an open slot."""
    ci, si = slot
    first_under = None
    while True:
        if first_under is None and si % 2 == 0:
            first_under = si
        out = (ci, (si + turn) % 4)
        if out in open_at:
            return open_at[out], first_under
        a, b = occ[crossings[ci][out[1]]]
        ci, si = b if a == out else a


def _traced_side(crossings, occ, ends, through=(), strands=True, votes=False):
    """(side, crossings reached) of the crossings reachable from the open
    slots ``ends`` (in end order) without crossing one, with the
    ``through`` end pairs passing straight through: each part is searched
    for and its inner faces traced, and each end walks its own strand,
    which with ``votes`` votes forward when the first under-slot it enters
    is slot 0.  Asserts the face-orbit condition: each part's k ends are
    one orbit of the face walks from them, and it has 1 - k / 2 more
    traced inner faces than crossings.  The parts are the side's pieces,
    numbered in end order."""
    open_at = {slot: e for e, slot in enumerate(ends) if slot is not None}
    piece_of = {}
    n_pieces = 0
    for ci, _ in open_at:
        if ci in piece_of:
            continue
        piece_of[ci] = n_pieces
        stack = [ci]
        while stack:
            c = stack.pop()
            for si in range(4):
                if (c, si) not in open_at:
                    a, b = occ[crossings[c][si]]
                    far = (b if a == (c, si) else a)[0]
                    if far not in piece_of:
                        piece_of[far] = n_pieces
                        stack.append(far)
        n_pieces += 1
    piece = [None if slot is None else piece_of[slot[0]] for slot in ends]
    face_next, strand_next = [0] * len(ends), list(range(len(ends)))
    vote = [None] * len(ends)
    for a, b in through:
        face_next[a], face_next[b] = strand_next[a], strand_next[b] = b, a
        piece[a] = piece[b] = n_pieces
        n_pieces += 1
    excess = [0] * n_pieces
    for ci in piece_of:
        excess[piece_of[ci]] -= 1
    for slot, e in open_at.items():
        face_next[e] = _side_walk(crossings, occ, open_at, slot, 1)[0]
        if strands:
            strand_next[e], first_under = _side_walk(crossings, occ, open_at, slot, 2)
            if votes and first_under is not None:
                vote[e] = first_under == 0
    # walk on from every corner, the way a face turns, until the walk
    # leaves by an open slot or meets a corner already walked: a face no
    # walk from an open slot enters is met again at its start
    seen = set()
    for start in itertools.product(sorted(piece_of), range(4)):
        if start in seen:
            continue
        corner = start
        while corner not in seen:
            seen.add(corner)
            out = (corner[0], (corner[1] + 1) % 4)
            if out in open_at:
                break
            a, b = occ[crossings[out[0]][out[1]]]
            corner = b if a == out else a
        else:
            if corner == start:
                excess[piece_of[start[0]]] += 1
    for p in range(n_pieces):
        mine = [e for e, q in enumerate(piece) if q == p]
        orbit = [mine[0]]
        while face_next[orbit[-1]] != mine[0]:
            orbit.append(face_next[orbit[-1]])
        if sorted(orbit) != mine or 2 * excess[p] != 2 - len(mine):
            raise AssertionError(f"part {p} fails the face-orbit condition: ends {mine}, "
                                 f"face orbit {orbit}, traced excess {excess[p]}")
    number = {}
    for p in piece:
        number.setdefault(p, len(number))
    return _Side(tuple(face_next), tuple(strand_next), tuple(vote),
                 tuple(number[p] for p in piece)), len(piece_of)


def fragment_side_oracle(emit) -> Optional[_Side]:
    """`diagram._fragment_side` before a fragment was an open tangle and
    before it took the face orbits for the parts: the fragment's weld
    program is emitted into a weld builder of its own, port i labelled
    -1 - i by the port map, and labelled there; its faces are traced.
    None when a crossing is on no part with a port."""
    bld = WeldBuilder()
    ports = weld_program(emit)(bld)
    bld.port_labels = {port: -1 - i for i, port in enumerate(ports)}
    bld._label()
    occ = {}
    for ci, labels in enumerate(bld.protos):
        for si, arc in enumerate(labels):
            occ.setdefault(arc, []).append((ci, si))
    side, reached = _traced_side(bld.protos, occ, [occ[-1 - i][0] for i in range(len(ports))])
    return side if reached == len(bld.protos) else None


def base_side_oracle(base, remove, cut, stubs, directed) -> _Side:
    """`diagram._base_side` with the parts searched for and their faces
    traced instead of taken as the face orbits, the arcs' heads taken from
    `trace_oracle`, and each
    end's vote from its own strand walk: forward when the first under-slot
    it enters is slot 0."""
    crossings = [x.slots for x in base.crossings]
    removed = set(remove)
    occ = {}
    for ci, labels in enumerate(crossings):
        for si, arc in enumerate(labels):
            occ.setdefault(arc, []).append((ci, si))
    head = trace_oracle(base)[2]
    ends = []
    for arc in cut:
        ends += [next(o for o in occ[arc] if o != head[arc]), head[arc]]
    through = {}
    for arc in stubs:
        kept = [o for o in occ[arc] if o[0] not in removed]
        if kept:
            ends.append(kept[0])
        else:
            through.setdefault(arc, []).append(len(ends))
            ends.append(None)
    return _traced_side(crossings, occ, ends, through.values(), directed, votes=True)[0]


class _Walker:
    """Strand walks over an occurrence index of its own."""

    def __init__(self, crossings):
        self.crossings = tuple(crossings)
        self.occ = {}
        for ci, x in enumerate(self.crossings):
            for si, arc in enumerate(x.slots):
                self.occ.setdefault(arc, []).append((ci, si))

    def walk(self, arc, head_index):
        """The component of ``arc``, entering occurrence ``head_index`` first."""
        start = (arc, self.occ[arc][head_index])
        steps = [start]
        cur = start
        while True:
            ci, si = cur[1]
            out = (si + 2) % 4
            nxt_arc = self.crossings[ci].slots[out]
            a, b = self.occ[nxt_arc]
            nxt = (nxt_arc, b if a == (ci, out) else a)
            if nxt == start:
                return steps
            steps.append(nxt)
            cur = nxt

    def choose_direction(self, arc, frozen):
        """(steps, votes conflict): frozen crossings vote through their
        under-slots; with no votes, from the least arc toward the smaller
        neighbor."""
        fwd = self.walk(arc, 1)
        ups = any(si == 0 and ci in frozen for _, (ci, si) in fwd)
        downs = any(si == 2 and ci in frozen for _, (ci, si) in fwd)
        if ups and downs:
            return fwd, True
        if downs:
            return self.walk(arc, 0), False
        if not ups:
            rev = self.walk(arc, 0)
            if len(fwd) > 1 and rev[1][0] < fwd[1][0]:
                return rev, False
        return fwd, False


def renormalize_oracle(crossings, loops, frozen, allow_reorient=False):
    """`renormalize_probe_oracle` with a vote count per component, a second
    walk to go backward, and a third for a conflicted component."""
    w = _Walker(crossings)
    if any(len(places) != 2 for places in w.occ.values()):
        raise InvalidDiagramError(validate(LinkDiagram(tuple(crossings), loops=loops)))
    out = list(crossings)
    seen = set()
    for arc in sorted(w.occ):
        if arc in seen:
            continue
        steps, conflict = w.choose_direction(arc, frozen)
        if conflict:
            if not allow_reorient:
                raise WiringError("frozen crossings disagree on strand direction")
            fwd = w.walk(arc, 1)
            first = next((si for _, (ci, si) in fwd if ci in frozen and si in (0, 2)), 0)
            steps = fwd if first == 0 else w.walk(arc, 0)
        seen.update(a for a, _ in steps)
        for a, (ci, si) in steps:
            if si == 2:
                if ci in frozen and not allow_reorient:
                    raise WiringError(
                        "frozen crossing would need rotation; a move reversed a strand"
                    )
                out[ci] = out[ci].rotated(2)
    return LinkDiagram(tuple(out), loops=loops)


def renormalize_guarded_oracle(crossings, loops, frozen, allow_reorient=False, **_):
    """`renormalize_probe_oracle` and the check a splice ran after it before its
    output arrived analysed: a fresh probe analysis of ``crossings`` with
    every component walked (the touched arcs and base steps a build
    offers are ignored), the output given the probe's occurrence index
    and strand trace, each slot of a turned crossing moved by 2, and then
    validated in full, its faces traced: AssertionError unless it is
    valid."""
    probe = LinkDiagram(tuple(crossings), loops=loops)
    ana = probe._analysis
    if not ana.double_ok:
        raise InvalidDiagramError(ana.validity)
    oriented = [([(ana.arc_at[c], divmod(c, 4)) for c in corners], conflict)
                for corners, conflict in ana._oriented(frozen)]
    if not allow_reorient and any(conflict for _, conflict in oriented):
        raise WiringError("frozen crossings disagree on strand direction")
    turned = {ci for steps, _ in oriented for _, (ci, si) in steps if si == 2}
    occ = slot_occ(probe)
    for arc in {arc for ci in turned for arc in crossings[ci].slots}:
        occ[arc] = sorted((ci, si ^ 2) if ci in turned else (ci, si) for ci, si in occ[arc])
    walks = [[(a, (ci, si ^ 2) if ci in turned else (ci, si)) for a, (ci, si) in steps]
             for steps, _ in oriented]
    out = (x.rotated(2) if ci in turned else x for ci, x in enumerate(crossings))
    d = LinkDiagram(tuple(out), loops=loops)
    # the analysis holds corners: the slots converted at this one point
    corner_occ = {arc: [4 * ci + si for ci, si in places] for arc, places in occ.items()}
    corner_walks = [[4 * ci + si for _, (ci, si) in steps] for steps in walks]
    an = _Analysis(d.crossings, loops)
    an.occ, an._strands = corner_occ, _Strands.of(corner_walks, an.arc_at)
    object.__setattr__(d, "_analysis", an)
    if not validate(d).valid:
        raise AssertionError(f"built diagram is not valid: {validate(d).summary()}")
    return d


def replay_oracle(cert):
    """(valid, failed step, reason) of `verify_oracle` replaying ``cert``
    with every move's splice run by `splice_oracle`: every candidate wiring
    built afresh, by `renormalize_oracle`, and judged by `eager_report`, so
    that no diagram of the replay is analysed from its base's analysis,
    judged by the two sides' walks or edited in a replay state."""
    verdict = verify_oracle(cert, splice_oracle)
    return verdict.valid, verdict.failed_step, verdict.reason


def _exterior_has_closed_component(d: LinkDiagram, site) -> bool:
    """True when some link component avoids the move's ball entirely; a
    rational tangle exterior has no closed components."""
    part = components(d)
    involved = {
        site.trivial_component,
        part.component_of(site.strand1),
        part.component_of(site.strand2),
    }
    return part.count > len(involved)


def verify_oracle(cert, splice=None) -> Verdict:
    """The `Verdict` of `certificate.verify` with its own evidence gate: the
    verifier as it was before it asked `moves.admit`, and before it kept
    one replay state through the derivation: each step is applied to the
    diagram the last one gave, its splice made by ``splice``, by default
    `rebuilt_splice_oracle`, the build path of that time.  An
    abstract-manifold certificate goes to the library's `_verify_abstract`."""
    with mock.patch.object(moves, "splice", splice or rebuilt_splice_oracle):
        return _verify_by_steps(cert)


def _verify_by_steps(cert) -> Verdict:
    if isinstance(cert.subject, AbstractManifold):
        return _verify_abstract(cert)
    reports: list[str] = []
    trusted: list[str] = []

    def refuse(step: int, reason: str) -> Verdict:
        return Verdict(False, step, reason, tuple(reports), tuple(trusted))

    if cert.base == "MenascoAlternating":
        got = cls.menasco_certify(cert.base_diagram)
        if isinstance(got, cls.Refusal):
            return refuse(-1, f"base refused: {got}")
        reports.append("base: MenascoAlternating accepted")
    elif cert.base == "AugmentedAlternating":
        got = cls.augmented_alternating_certify(
            cert.base_diagram, frozenset(cert.augmenting)
        )
        if isinstance(got, cls.Refusal):
            return refuse(-1, f"base refused: {got}")
        reports.append(
            f"base: AugmentedAlternating accepted (augmenting {cert.augmenting})"
        )
    elif cert.base == "ExternallyAsserted":
        trusted.append(f"base asserted externally: {cert.description}")
        reports.append("base: ExternallyAsserted (trusted)")
    else:
        return refuse(-1, f"unknown base {cert.base!r}")

    current = cert.base_diagram
    saw_admissible_chain = False
    for i, step in enumerate(cert.steps):
        site = None
        if isinstance(step, ChainStep):
            ev = step.evidence
            if isinstance(ev, cls.Unchecked):
                return refuse(i, "unchecked exterior evidence never validates")
            if isinstance(ev, cls.Rational):
                kind = cls.excluded_exterior(fraction(ev.sequence), step.k)
                if kind is not None:
                    return refuse(i, f"excluded exterior: {kind.value}")
                reports.append(f"step {i}: rational exterior admissible (k={step.k})")
                saw_admissible_chain = True
            else:
                try:
                    site = moves.chain_site(current, step.trivial_component, step.strands)
                    checked = _exterior_has_closed_component(current, site)
                except SiteError:
                    checked = False
                if checked:
                    reports.append(
                        f"step {i}: non-rational exterior machine-checked "
                        "(closed component outside the ball)"
                    )
                elif saw_admissible_chain:
                    reports.append(
                        f"step {i}: admissibility inherited from an earlier "
                        "chain step (repeated application)"
                    )
                    trusted.append(f"step {i}: {ev.justification or 'declared non-rational'}")
                else:
                    trusted.append(f"step {i}: {ev.justification or 'declared non-rational'}")
                    reports.append(f"step {i}: non-rational exterior (trusted)")
                saw_admissible_chain = True
        if isinstance(step, SwitchStep):
            if step.premise is None or step.premise.kind != "GeodesicArc":
                return refuse(i, "switch step lacks its GeodesicArc premise")
            trusted.append(f"step {i}: geodesic arc ({step.premise.justification})")
            reports.append(
                f"step {i}: switch move; the geodesic hypothesis is recorded, "
                "not checked (no finite certificate exists for it)"
            )
        if isinstance(step, ChainStep) and abs(step.k) > len(cert.subject.crossings):
            return refuse(i, f"k={step.k} adds more crossings than the subject has")
        try:
            before = components(current).count
            current = _apply_step(current, step, site)
            after = components(current).count
        except (SiteError, ExcludedExteriorError, CertificateError) as err:
            return refuse(i, f"replay failed: {err}")
        if isinstance(step, ChainStep) and after - before != step.added:
            return refuse(i, step.wrong_count)
    if not diagram_isomorphic(current, cert.subject):
        return refuse(len(cert.steps), "final diagram does not match the subject")
    reports.append("final diagram matches the subject")
    return Verdict(True, None, "", tuple(reports), tuple(trusted))


def trace_oracle(d):
    """(steps, cycles, head, signs, problems) of the strand trace of a
    diagram whose arcs each occur twice: every component walked by
    `_Walker.choose_direction` with every crossing voting, rotated to its
    least arc, and the components sorted by least arc."""
    w = _Walker(d.crossings)
    n = len(d.crossings)
    problems, all_steps, head, signs, seen = [], [], {}, {}, set()
    for arc in sorted(w.occ):
        if arc in seen:
            continue
        steps, conflict = w.choose_direction(arc, set(range(n)))
        if conflict:
            problems.append(f"component of arc {arc} has conflicting under-strand directions")
        arcs = [a for a, _ in steps]
        i = arcs.index(min(arcs))
        steps = steps[i:] + steps[:i]
        for a, h in steps:
            seen.add(a)
            head[a] = h
        all_steps.append(steps)
        for _, (ci, si) in steps:
            if si % 2:
                signs[ci] = -1 if si == 1 else +1
    all_steps.sort(key=lambda st: st[0][0])
    cycles = [tuple(a for a, _ in st) for st in all_steps]
    if not problems:
        problems = [f"crossing {ci} never traversed as over-strand"
                    for ci in range(n) if ci not in signs]
    return all_steps, cycles, head, signs, tuple(problems)


def _across_oracle(d):
    """(occurrence index, corner map) of ``d``, built here: corner
    4 * ci + si is slot si of crossing ci, and across[k] is the corner at
    the other end of the arc at corner k.  Every arc occurs twice."""
    occ = _Walker(d.crossings).occ
    across = [0] * (4 * len(d.crossings))
    for (c1, s1), (c2, s2) in occ.values():
        across[4 * c1 + s1] = 4 * c2 + s2
        across[4 * c2 + s2] = 4 * c1 + s1
    return occ, across


def graph_comps_oracle(d) -> list[int]:
    """The graph component of each crossing of ``d``, numbered in the order
    of their least crossings, by a depth-first search of its own over a
    corner map of its own."""
    _, across = _across_oracle(d)
    n = len(d.crossings)
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
    return comp


def faces_oracle(d) -> _Embedding:
    """`diagram._Analysis._faces_and_euler` before every walk read one
    corner map: the corner map built here, its own graph-component search
    (`graph_comps_oracle`) and its own face loop, over an occurrence index
    of its own.  Every arc of ``d`` occurs twice."""
    occ, across = _across_oracle(d)
    n = len(d.crossings)
    corner = [(ci, si) for ci in range(n) for si in range(4)]
    arc_at = [a for x in d.crossings for a in x.slots]
    comp = graph_comps_oracle(d)
    n_graph_comps = 1 + max(comp, default=-1)

    # a face turn: arrive at corner (ci, si), leave along the arc at
    # slot (si + 1) % 4 and arrive at that arc's other end; faces start
    # at each arc's occurrences in order, arcs ascending
    faces: list[tuple[Slot, ...]] = []
    face_arcs: list[tuple[int, ...]] = []
    seen = bytearray(4 * n)
    for arc in sorted(occ):
        for ci, si in occ[arc]:
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
    return _Embedding(faces, face_arcs, problems)


def disk_runs_oracle(d: LinkDiagram, comp: int):
    """`diagram._disk_runs` before its runs were walked over the corner map.

    Pattern scan for a twice-punctured-disk boundary component.

    Returns (run1 arcs, run2 arcs) where each run is the chain of strand
    arcs through the disk between a clasp pair (possibly through twist
    crossings inserted by earlier half-twists).
    """
    part = components(d)
    fault = _ring_fault(d, part, comp)
    if fault:
        raise SiteError(fault)
    pas = [divmod(c, 4) for c in _passages(d, comp)]
    occ = slot_occ(d)
    c_crossings = {ci for ci, _ in pas}

    def inner_run(ca: int, sa: int, cb: int) -> Optional[set[int]]:
        # follow the other strand from crossing ca to the first return to C;
        # the inner side is the shortest walk that lands on the pair partner
        candidates = []
        for start in _other_strand_arcs(d, 4 * ca + sa):
            run = {start}
            occs = [o for o in occ[start] if o[0] != ca]
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
                a, b = occ[nxt_arc]
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


def half_twist_spot_oracle(d: LinkDiagram, c: int) -> Optional[tuple[int, int]]:
    """`moves._half_twist_spot` before it read the two faces beside each arc
    of c: every face of the diagram is traced, and each is scanned for c's
    arcs, least first, flanked by an arc of each disk run."""
    run1, run2 = _disk_runs(d, c)
    face_arcs = d.face_arcs()
    for e in sorted(components(d).arcs_of(c)):
        for arcs in face_arcs:
            k = len(arcs)
            for i in range(k):
                if arcs[i] != e:
                    continue
                alpha, beta = arcs[(i - 1) % k], arcs[(i + 1) % k]
                if alpha in run1 and beta in run2:
                    return alpha, beta
                if alpha in run2 and beta in run1:
                    return beta, alpha
    return None


def drop_crossings_oracle(d: LinkDiagram, removed: set[int], joins) -> LinkDiagram:
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
    occ = slot_occ(d)
    for root, members in groups.items():
        far = [o for a in members for o in occ[a] if o[0] not in removed]
        if not far:
            loops += 1
            continue
        for o in far:
            _relabel_occurrence(crossings, 4 * remap[o[0]] + o[1], root)
    return LinkDiagram(tuple(crossings), loops=loops)


def reduce_oracle(d: LinkDiagram, budget: int = DEFAULT_STEP_BUDGET):
    """`diagram.reduce_diagram` one diagram per step: (diagram, steps
    used, reached a stable form)."""
    steps = 0
    cur = d
    while steps < budget:
        kinks = dg.find_kinks(cur)
        if kinks:
            cur = dg.reidemeister1_undo(cur, kinks[0])
            steps += 1
            continue
        bigons = dg.find_r2_bigons(cur)
        if bigons:
            cur = dg._undo_bigon(cur, *bigons[0])
            steps += 1
            continue
        return cur, steps, True
    stable = not dg.find_kinks(cur) and not dg.find_r2_bigons(cur)
    return cur, steps, stable


class DroppingBuilder:
    """A stand-in for `DiagramBuilder` in the removals (R1 and R2 undo,
    component removal): it records the crossings the caller removes and
    the joins it makes, and builds by `drop_crossings_oracle`, its output
    validated in full."""

    def __init__(self, base: LinkDiagram):
        self.base, self.removed, self.joins = base, set(), []

    def remove(self, crossings: Iterable[int], joins=()) -> None:
        self.removed.update(crossings)
        self.joins += joins

    def build(self, *_) -> LinkDiagram:
        out = drop_crossings_oracle(self.base, self.removed, self.joins)
        out.require_valid()
        return out


class WeldBuilder(RebuildingBuilder):
    """`RebuildingBuilder` with the weld half it had before fragments and
    generators became open tangles: the reference the tangle form is
    checked against.

    Ports are crossing slots, as corners 4 * ci + si, or terminals, which
    are tuples.  Welds chain the ports of new crossings through plain
    terminals.  ``weld`` pairs the two ends of each chain as it makes it:
    ``far`` maps each end (a crossing slot or a plain terminal welded once)
    to the other, ``welds`` counts each port's welds, and a weld that
    closes a chain of plain terminals adds a crossing-free loop to
    ``loops``.  ``port_labels`` gives some ports a label of their own, as
    `tangle_of` gives a fragment's ports theirs.  The build labels each
    open slot by its chain's far end."""

    def __init__(self, base: Optional[LinkDiagram] = None, remove: Iterable[int] = ()):
        super().__init__(base, remove)
        self.welds: dict = {}  # port -> its weld count
        self.far: dict = {}  # weld chain end -> the chain's other end
        self.port_labels: dict = {}  # port -> its label
        self._terminal_count = 0

    def crossing(self) -> int:
        self.protos.append([None, None, None, None])
        return len(self.protos) - 1

    def terminal(self, name: str = "t"):
        self._terminal_count += 1
        return ("t", self._terminal_count, name)

    def weld(self, p, q) -> None:
        """Weld ports ``p`` and ``q``, joining the chains they end.  A crossing
        slot takes one weld and a plain terminal two, counted one at a time,
        so a self-weld counts twice."""
        for port in (p, q):
            count = self.welds.get(port, 0) + 1
            if count > self._capacity(port):
                shown = port if self._is_terminal(port) else divmod(port, 4)
                raise AssertionError(f"over-welded port {shown}")
            self.welds[port] = count
        a, b = self.far.pop(p, p), self.far.pop(q, q)
        if a == q:  # p and q end one chain, of plain terminals: it closes
            self.loops += 1
        else:
            self.far[a], self.far[b] = b, a

    def _far_end(self, k: int):
        """The other end of the weld chain at crossing slot ``k``."""
        if k not in self.far:
            raise AssertionError(f"unwelded crossing slot {divmod(k, 4)}")
        return self.far[k]

    def _capacity(self, port) -> int:
        return 2 if self._is_terminal(port) else 1

    def _is_terminal(self, port) -> bool:
        return not isinstance(port, int)  # a crossing slot is its corner

    def twist_crossing(self, chirality: int) -> dict:
        """One crossing of a two-rail twist region.

        chirality +1: the strand entering on the left rail goes over;
        chirality -1: the right one does.  Rails swap below the crossing.
        """
        k = 4 * self.crossing()
        if chirality > 0:
            # under: in_r -> out_l; CCW from in_r: (in_r, in_l, out_l, out_r)
            return {"in_r": k, "in_l": k + 1, "out_l": k + 2, "out_r": k + 3}
        # under: in_l -> out_r; CCW from in_l: (in_l, out_l, out_r, in_r)
        return {"in_l": k, "out_l": k + 1, "out_r": k + 2, "in_r": k + 3}

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
        return {"in_l": first["in_l"], "in_r": first["in_r"],
                "out_l": cur["out_l"], "out_r": cur["out_r"]}

    def _label(self) -> int:
        """Label every open crossing slot from ``far``, in place, after the
        joins; returns the loop count.  A slot at a port of
        ``port_labels``, or whose chain ends at one, takes that port's
        label, and the two slots that end one chain share a fresh one,
        taken in slot order; a terminal port there is complete with one
        weld."""
        labels = self.port_labels
        for t, count in self.welds.items():
            if self._is_terminal(t) and count != self._capacity(t) - (t in labels):
                raise AssertionError(f"incomplete terminal {t}")
        loops = super()._label()
        # the kept base crossings are labelled already
        for ci in range(self.n_frozen, len(self.protos)):
            for si in range(4):
                if self.protos[ci][si] is None:
                    k = 4 * ci + si
                    end = k if k in labels else self._far_end(k)
                    if end in labels:
                        self.protos[ci][si] = labels[end]
                    else:
                        self.protos[ci][si] = self.protos[end >> 2][end & 3] = self.fresh_label()
        return loops

    def fragment_side(self, ports) -> Optional[_Side]:
        """`diagram._fragment_side` of the fragment this builder's new
        crossings make, its ends ``ports`` in order, read off the chain
        ends before any port is welded: a slot at port i, or whose chain
        ends there, is labelled -1 - i, and the two slots that end one
        chain share a label; nothing is labelled in the builder."""
        port_of = {port: i for i, port in enumerate(ports)}
        first = 4 * self.n_frozen

        def label(k):
            end = k if k in port_of else self._far_end(k)
            return -1 - port_of[end] if end in port_of else 1 + min(k, end) - first

        return _fragment_side([[label(4 * ci + si) for si in range(4)]
                               for ci in range(self.n_frozen, len(self.protos))])


def tangle_of(program) -> tuple:
    """The open tangle of a weld program (``program(bld)`` adds crossings,
    terminals and welds to ``bld`` and gives its ports): `diagram._plan` as
    it was, port i labelled -1 - i by the port map and each inner arc
    numbered in the order the weld labeller takes its fresh label."""
    bld = WeldBuilder()
    ports = program(bld)
    bld.port_labels = {port: -1 - i for i, port in enumerate(ports)}
    loops = bld._label()
    return tuple(map(tuple, bld.protos)), bld._next_arc - 1, loops


def welded(program):
    """A splice fragment made from a weld program: its call gives
    `tangle_of(program)`, and `weld_program` gives the program back."""

    @functools.wraps(program)
    def fragment():
        return tangle_of(program)

    fragment.program = program
    return fragment


# the weld-written fragments and generators, as the library wrote them
# before they became open tangles


def weld_tk_template(k: int, bld) -> dict:
    """`TkTemplate(k)`'s NW/NE/SW/SE ports, welded into ``bld``."""
    x1, x2, x3 = moves.TK_CLASP_CHIRALITY
    c1 = bld.twist_region(2, x1)
    c2 = bld.twist_region(2, x2)
    c3 = bld.twist_region(2, x3)
    chi = moves.TWIST_CHIRALITY_POS * (1 if k >= 0 else -1)
    tw = bld.twist_region(abs(k), chi)
    bld.weld(c1["in_l"], c2["in_r"])
    bld.weld(c1["out_l"], c2["out_r"])
    bld.weld(c2["in_l"], c3["in_r"])
    bld.weld(c2["out_l"], c3["out_r"])
    bld.weld(c3["in_l"], tw["in_l"])
    bld.weld(c3["out_l"], tw["in_r"])
    return {"NW": c1["in_r"], "NE": c1["out_r"], "SW": tw["out_l"], "SE": tw["out_r"]}


def weld_clasped_ring(bld) -> tuple:
    xa, xb = moves.SWITCH_CLASP_CHIRALITY
    ca = bld.twist_region(2, xa)
    cb = bld.twist_region(2, xb)
    bld.weld(ca["in_r"], cb["in_l"])
    bld.weld(cb["out_l"], ca["out_r"])
    return (ca["in_l"], ca["out_l"], cb["in_r"], cb["out_r"])


def weld_half_twist(chirality: int, bld) -> tuple:
    x = bld.twist_region(1, chirality)
    return (x["in_l"], x["in_r"], x["out_r"], x["out_l"])


def weld_r2_fragment(bld) -> tuple:
    c1 = bld.twist_crossing(+1)
    c2 = bld.twist_crossing(-1)
    bld.weld(c1["out_l"], c2["in_l"])
    bld.weld(c1["out_r"], c2["in_r"])
    return (c1["in_l"], c2["out_l"], c1["in_r"], c2["out_r"])


def weld_tangle(t, bld) -> dict:
    """`TangleDiagram` ``t``'s NW/NE/SW/SE ports, welded into ``bld``."""
    n = len(t.sequence)
    if n % 2 == 1:
        top, bottom = bld.terminal("h_top"), bld.terminal("h_bot")
        ports = {"NW": top, "NE": top, "SW": bottom, "SE": bottom}
    else:
        left, right = bld.terminal("v_left"), bld.terminal("v_right")
        ports = {"NW": left, "SW": left, "NE": right, "SE": right}
    regions = [(c, (n - i) % 2 == 0) for i, c in enumerate(t.sequence, start=1)]
    for c, east in regions + [(t.extra_twists, True)]:
        if c == 0:
            continue
        chi = (tangle.EAST_CHIRALITY_POS if east else tangle.BOTTOM_CHIRALITY_POS) * (
            1 if c > 0 else -1)
        region = bld.twist_region(abs(c), chi)
        if east:
            bld.weld(region["in_r"], ports["NE"])
            bld.weld(region["in_l"], ports["SE"])
            ports["NE"] = region["out_r"]
            ports["SE"] = region["out_l"]
        else:
            bld.weld(region["in_l"], ports["SW"])
            bld.weld(region["in_r"], ports["SE"])
            ports["SW"] = region["out_l"]
            ports["SE"] = region["out_r"]
    return ports


def weld_program(fragment):
    """The weld-written emitter of a splice fragment: ``fragment.program``
    when it has one (`welded`), and otherwise the weld form of the
    library's fragment, its ports in the fragment's order."""
    if hasattr(fragment, "program"):
        return fragment.program
    if isinstance(fragment, moves.TkTemplate):
        return lambda bld: moves._TK_PORTS(weld_tk_template(fragment.k, bld))
    if isinstance(fragment, moves._HalfTwist):
        return functools.partial(weld_half_twist, fragment.chirality)
    return {moves._clasped_ring: weld_clasped_ring, _r2_fragment: weld_r2_fragment}[fragment]


def weld_chain_link(spec) -> LinkDiagram:
    """`generators.chain_link`, welded."""
    bld = WeldBuilder()
    n = spec.n
    clasps = []
    for j in range(n):
        chi = generators.CHAIN_CLASP_CHIRALITY
        if not spec.alternating and j == 0:
            chi = -chi
        clasps.append(bld.twist_region(2, chi))
    for i in range(n):
        west = clasps[(i - 1) % n]
        east = clasps[i]
        gap = bld.twist_region(abs(spec.twists[i]),
                               moves.TWIST_CHIRALITY_POS * (1 if spec.twists[i] >= 0 else -1))
        bld.weld(gap["in_r"], west["in_r"])
        bld.weld(gap["in_l"], west["out_r"])
        bld.weld(gap["out_r"], east["in_l"])
        bld.weld(gap["out_l"], east["out_l"])
    return bld.build()


def weld_tk_closure(s, k: int, extra_twists: int = 0) -> LinkDiagram:
    """`generators.tk_closure`, welded."""
    t = tangle.boundary_twists(tangle.to_alternating_diagram(s), extra_twists)
    bld = WeldBuilder()
    tk_ports = weld_tk_template(k, bld)
    r_ports = weld_tangle(t, bld)
    bld.weld(tk_ports["NW"], r_ports["NW"])
    bld.weld(tk_ports["NE"], r_ports["SW"])
    bld.weld(tk_ports["SW"], r_ports["NE"])
    bld.weld(tk_ports["SE"], r_ports["SE"])
    return bld.build()


def weld_numerator_closure(t) -> LinkDiagram:
    """`tangle.numerator_closure`, welded."""
    bld = WeldBuilder()
    ports = weld_tangle(t, bld)
    bld.weld(ports["NW"], ports["NE"])
    bld.weld(ports["SW"], ports["SE"])
    return bld.build()


def weld_braid2_template(n: int, mirror: bool = False) -> LinkDiagram:
    """`diagram.braid2_template`, welded."""
    bld = WeldBuilder()
    region = bld.twist_region(n, +1 if not mirror else -1)
    bld.weld(region["out_l"], region["in_l"])
    bld.weld(region["out_r"], region["in_r"])
    return bld.build()


class TrailBuilder(WeldBuilder):
    """`WeldBuilder` that also keeps each port's list of welds, and the
    labeller as it was before each weld paired its chain's ends: `trail`
    walks the welds from a slot, `label` trails from every open slot and
    then walks the plain terminals left over for crossing-free loops, and
    `fragment_side` is `WeldBuilder.fragment_side` with each slot's far end
    read off its trail."""

    def __init__(self, base: Optional[LinkDiagram] = None, remove: Iterable[int] = ()):
        super().__init__(base, remove)
        self.weld_lists: dict = {}

    def weld(self, p, q) -> None:
        super().weld(p, q)
        self.weld_lists.setdefault(p, []).append(q)
        self.weld_lists.setdefault(q, []).append(p)

    def trail(self, start, stops) -> list:
        """The plain terminals the welds pass from ``start`` (an open crossing slot
        or a plain terminal) along its first weld, then the crossing slot or the
        ``stops`` terminal they reach."""
        if not self.weld_lists.get(start):
            raise AssertionError(f"unwelded crossing slot {divmod(start, 4)}")
        trail = []
        prev, cur = start, self.weld_lists[start][0]
        while self._is_terminal(cur) and cur not in stops:
            trail.append(cur)
            nbrs = self.weld_lists[cur]
            prev, cur = cur, nbrs[0] if nbrs[0] != prev else nbrs[1]
        trail.append(cur)
        return trail

    def label(self) -> int:
        """What `_label` gives on a build without joins, by trailing from
        every open slot: labels every open crossing slot in place and
        returns the loop count."""
        welds, labels = self.weld_lists, self.port_labels
        for t in welds:
            if self._is_terminal(t) and len(welds[t]) != self._capacity(t) - (t in labels):
                raise AssertionError(f"incomplete terminal {t}")
        loops = self.base.loops if self.base is not None else 0
        consumed: set = set()
        # the kept base crossings are labelled already
        for ci in range(self.n_frozen, len(self.protos)):
            for si in range(4):
                if self.protos[ci][si] is not None:
                    continue
                k = 4 * ci + si
                trail = [k] if k in labels else self.trail(k, labels)
                consumed.update(trail)
                end = trail[-1]
                if end in labels:
                    self.protos[ci][si] = labels[end]
                else:
                    self.protos[ci][si] = self.protos[end >> 2][end & 3] = self.fresh_label()
        # unconsumed plain terminals must form closed cycles: crossing-free loops
        loose = [t for t in welds
                 if self._is_terminal(t) and t not in consumed and t not in labels]
        for t in sorted(loose, key=str):
            if t not in consumed:
                trail = self.trail(t, {t, *labels})
                if trail[-1] != t:
                    raise AssertionError("dangling terminal chain")
                consumed.update(trail)
                loops += 1
        for t in labels:
            if t in welds and t not in consumed:
                raise AssertionError(f"port {t} never reached from a crossing slot")
        return loops

    def fragment_side(self, ports) -> Optional[_Side]:
        """`WeldBuilder.fragment_side` of this builder, each fragment slot that
        is no port joined to the end of its trail instead of its ``far`` end."""
        port_of = {port: i for i, port in enumerate(ports)}
        twin = copy.copy(self)
        twin.far = {k: self.trail(k, port_of)[-1]
                    for k in range(4 * self.n_frozen, 4 * len(self.protos)) if k not in port_of}
        return super(TrailBuilder, twin).fragment_side(ports)
