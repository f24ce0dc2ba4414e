"""Independent oracles the tests check library results against.

These deliberately avoid the library's own code paths: the continued
fraction uses the stdlib Fraction type, the component counter is a plain
union-find over the raw crossing tuples, the linking oracle reads
signed Gauss entries, and the 2-edge-cut oracle runs a union-find per
pair of arcs instead of reading the faces.
"""

import itertools
from fractions import Fraction as QQ

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
