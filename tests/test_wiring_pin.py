"""Pins the wiring each splice move picks.

The splicing moves try candidate wirings in a fixed order and keep the
first planar one; several wirings are often planar and give different
diagrams, so that order is part of the output.  This test runs every
splicing move over a fixed corpus and compares the sha256 of the PD
texts (and error texts) with a recorded digest, so any change to the
candidate order, the fresh arc labels or the crossing numbering fails it.
The corpus also deletes components and reduces the R1/R2 outputs, which
pins the relabelling of the crossing-deleting moves.
"""

import hashlib

from hyperforge.classifier import DeclaredNonRational
from hyperforge.diagram import (
    components,
    format_pd,
    reduce_diagram,
    reidemeister1,
    reidemeister2,
    remove_component,
)
from hyperforge.errors import HyperforgeError
from hyperforge.generators import ChainSpec, chain_link, rational_link
from hyperforge.moves import (
    Handedness,
    SwitchSite,
    augmented_chain_move,
    augmenting_circle,
    chain_move,
    find_chain_sites,
    half_twist,
    switch_move,
)

EVIDENCE = DeclaredNonRational("wiring pin")

# sha256 of the corpus transcript below; recorded before the splice loops
# were merged into one helper
RECORDED_DIGEST = "5c89ce2922f6d66f14d4c8b22a352dc6298a580856659c430da59db948d3b43a"


def _face_pairs(d, limit):
    """The first ``limit`` pairs of distinct arcs sharing a face, sorted."""
    pairs = set()
    for arcs in d.face_arcs():
        uniq = sorted(set(arcs))
        for i, a in enumerate(uniq):
            for b in uniq[i + 1:]:
                pairs.add((a, b))
    return sorted(pairs)[:limit]


def _bases():
    bases = [(f"chain{n}", chain_link(ChainSpec(n))) for n in (3, 4, 5, 6)]
    bases += [
        (f"rational{entries}", rational_link(entries))
        for entries in ([2, 2, 2], [3, 3], [2, 3, 2], [-2, -1, -3])
    ]
    # short derivations
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[1]
    d = chain_move(d4, site, 1, EVIDENCE)
    bases.append(("chain4+chain", d))
    d = half_twist(d, find_chain_sites(d)[0].trivial_component, -1)
    bases.append(("chain4+chain+twist", d))
    r = rational_link([2, 2, 2])
    a, b = next(
        (a, b) for a, b in _face_pairs(r, 50)
        if components(r).component_of(a) != components(r).component_of(b)
    )
    bases.append(("rational+circle", augmenting_circle(r, a, b)))
    bases.append(
        ("chain3+switch", switch_move(chain_link(ChainSpec(3)), SwitchSite(1, 4),
                                      Handedness.PositiveSkew))
    )
    return bases


def _record(lines, label, move, *args):
    """Append the move's PD text or error; return its diagram or None."""
    try:
        d = move(*args)
    except HyperforgeError as err:
        lines.append(f"{label}\n{type(err).__name__}: {err}")
        return None
    lines.append(f"{label}\n{format_pd(d)}")
    return d


def _reduced(d):
    return reduce_diagram(d)[0]


def _transcript():
    lines = []
    for name, d in _bases():
        lines.append(f"base {name}\n{format_pd(d)}")
        for s in find_chain_sites(d):
            tag = f"{name} site {s.key()}"
            for k in (-1, 0, 2):
                _record(lines, f"{tag} chain k={k}", chain_move, d, s, k, EVIDENCE)
            for k in (0, 1):
                _record(lines, f"{tag} aug k={k}", augmented_chain_move, d, s, k, EVIDENCE)
        for comp in range(components(d).count):
            for direction in (+1, -1):
                _record(lines, f"{name} twist {comp} {direction}",
                        half_twist, d, comp, direction)
            _record(lines, f"{name} remove {comp}", remove_component, d, comp)
        for arc in d.arcs[:2]:
            for h in (+1, -1):
                kinked = _record(lines, f"{name} r1 {arc} {h}", reidemeister1, d, arc, h)
                if kinked is not None:
                    _record(lines, f"{name} r1 {arc} {h} reduced", _reduced, kinked)
        for a, b in _face_pairs(d, 4):
            for h in Handedness:
                _record(lines, f"{name} switch {a},{b} {h.value}",
                        switch_move, d, SwitchSite(a, b), h)
            _record(lines, f"{name} circle {a},{b}", augmenting_circle, d, a, b)
            for layering in ("first_over", "second_over"):
                label = f"{name} r2 {a},{b} {layering}"
                pushed = _record(lines, label, reidemeister2, d, (a, b), layering)
                if pushed is not None:
                    _record(lines, f"{label} reduced", _reduced, pushed)
    return "\n".join(lines) + "\n"


def test_wiring_choice_is_pinned():
    digest = hashlib.sha256(_transcript().encode()).hexdigest()
    assert digest == RECORDED_DIGEST
