"""Independent oracles the tests check library results against.

These deliberately avoid the library's own code paths: the continued
fraction uses the stdlib Fraction type, the component counter is a plain
union-find over the raw crossing tuples, the linking oracle reads
signed Gauss entries, the 2-edge-cut oracle runs a union-find per
pair of arcs instead of reading the faces, the isomorphism oracle
is a backtracking search over crossing assignments instead of a rooted
walk, the 2-braid oracle builds both (2, n) templates and walks against
each for every diagram instead of first comparing face sizes, the splice
oracle judges every candidate wiring by the full
report of an analysis whose stages all ran up front instead of asking
for planarity first, and tries a reorienting splice's wirings strictly
before it lets frozen crossings turn, the wiring-loop oracle builds every
candidate wiring in turn instead of judging them from the two sides'
walks, the fragment-side oracle emits a splice's fragment into a builder
of its own and labels it there instead of reading the splice builder's
welds, and the orientation oracles walk a
component a second time to go backward instead of reading the forward
walk in reverse, and settle a builder's conflicted component in a
branch of their own.
"""

import itertools
from fractions import Fraction as QQ
from typing import Iterable, Optional

from hyperforge.diagram import (
    DiagramBuilder,
    LinkDiagram,
    _Analysis,
    _open_walk,
    _pieces,
    _Side,
    braid2_template,
    diagram_isomorphic,
    validate,
)
from hyperforge.errors import InvalidDiagramError, SiteError, WiringError

INF = "inf"


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
    occ = d._analysis.occ
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
    arc bijection.  Mirrors are NOT identified.
    """
    d1.require_valid()
    d2.require_valid()
    if len(d1.crossings) != len(d2.crossings) or d1.loops != d2.loops:
        return False
    n = len(d1.crossings)
    if n == 0:
        return True
    occ1, occ2 = d1._analysis.occ, d2._analysis.occ
    if len(occ1) != len(occ2):
        return False

    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for places in occ1.values():
        (c1, _), (c2, _) = places
        adj[c1].add(c2)
        adj[c2].add(c1)
    order: list[int] = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            order.append(c)
            stack.extend(nb for nb in sorted(adj[c], reverse=True) if nb not in seen)

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

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        c1 = order[pos]
        cands: Iterable[int] = range(n)
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
                    if backtrack(pos + 1):
                        return True
                    used.discard(c2)
                for x, y in undo:
                    del amap[x]
                    del amap_inv[y]
        return False

    return backtrack(0)


def is_braid2_form_oracle(reduced: LinkDiagram) -> bool:
    """Whether a stable R1/R2 reduction is a (2, n) template of either hand."""
    n = len(reduced.crossings)
    return n >= 2 and not reduced.loops and any(
        diagram_isomorphic(reduced, braid2_template(n, m)) for m in (False, True)
    )


def eager_report(d: LinkDiagram):
    """The validity report of a fresh analysis of ``d`` with every stage
    computed before the report is read, faces before strands: the reverse
    of the order the report lists their problems in."""
    an = _Analysis(d)
    an.planar_ok, an.consistent
    return an.report()


def splice_oracle(base, emit, wirings, failure, *, cut=(), stubs=(), remove=(),
                  reorient=False):
    """`diagram.splice` before its analysis became lazy and before a
    reorienting splice became one pass: the same candidates in the same
    order, each output judged by `eager_report(out).valid`; with
    ``reorient``, every wiring is first tried strictly, and only then
    again with frozen crossings free to turn."""
    last_err: Optional[Exception] = None
    for allow_reorient in (False, True) if reorient else (False,):
        for wiring in wirings:
            bld = DiagramBuilder(base=base, remove=remove)
            ends = [end for arc in cut for end in bld.cut(arc)]
            ports = emit(bld)
            ends += [bld.stub(arc) for arc in stubs]
            for port, end in zip(ports, wiring):
                bld.weld(ends[end], port)
            try:
                out = bld.build(allow_reorient=allow_reorient)
            except (WiringError, InvalidDiagramError) as err:
                last_err = err
                continue
            if eager_report(out).valid:
                return out
    raise SiteError(f"{failure} ({last_err})")


def wiring_loop_oracle(base, emit, wirings, failure, *, cut=(), stubs=(), remove=(),
                       reorient=False):
    """`diagram.splice` before it judged the wirings without building them:
    one builder per candidate in table order, each build free to turn
    frozen crossings when ``reorient``, and the first planar and valid
    output kept."""
    last_err: Optional[Exception] = None
    for wiring in wirings:
        bld = DiagramBuilder(base=base, remove=remove)
        ends = [end for arc in cut for end in bld.cut(arc)]
        ports = emit(bld)
        ends += [bld.stub(arc) for arc in stubs]
        for port, end in zip(ports, wiring):
            bld.weld(ends[end], port)
        try:
            out = bld.build(allow_reorient=reorient)
        except (WiringError, InvalidDiagramError) as err:
            last_err = err
            continue
        if out._analysis.planar_ok and validate(out).valid:
            return out
    raise SiteError(f"{failure} ({last_err})")


def fragment_side_oracle(emit) -> Optional[_Side]:
    """`diagram._fragment_side` before a splice emitted its fragment once:
    the fragment is emitted into a builder of its own, port i welded to a
    stub labelled -1 - i, and labelled there."""
    bld = DiagramBuilder()
    ports = emit(bld)
    for i, port in enumerate(ports):
        bld.weld(bld.stub(-1 - i), port)
    bld._label()
    slots = bld.protos
    occ = {}
    for ci, labels in enumerate(slots):
        for si, arc in enumerate(labels):
            occ.setdefault(arc, []).append((ci, si))
    across = {}
    for places in occ.values():
        if len(places) == 2:
            a, b = places
            across[a], across[b] = b, a
    port_slots = [occ[-1 - i][0] for i in range(len(ports))]
    open_at = {slot: i for i, slot in enumerate(port_slots)}
    piece_of = _pieces(across, open_at, [ci for ci, _ in port_slots] + list(range(len(slots))))
    excess = [0] * (1 + max(piece_of.values(), default=-1))
    for ci in range(len(slots)):
        excess[piece_of[ci]] -= 1
    # walk on from every corner, the way a face turns, until the walk
    # leaves by a port or meets a corner already walked: a face no walk
    # from a port enters is met again at its start
    seen = set()
    for start in itertools.product(range(len(slots)), range(4)):
        if start in seen:
            continue
        corner = start
        while corner not in seen:
            seen.add(corner)
            out = (corner[0], (corner[1] + 1) & 3)
            if out in open_at:
                break
            a, b = occ[slots[out[0]][out[1]]]
            corner = b if a == out else a
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
    """`diagram._renormalize` with a vote count per component, a second
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
