"""Hyperbolicity certificates: derivation trees over moves with premises
and exterior evidence, plus a verifier that re-plays derivations.

A certificate is valid relative to its premises.  `moves.admit`, the one gate
of the moves and the verifier, judges each chain step's evidence: a Rational
claim by its declared fraction alone, not matched against the diagram;
DeclaredNonRational evidence is machine-checked when a closed component lies
outside the ball (no rational tangle has one), else trusted and flagged in
the verdict report, as GeodesicArc premises are; Unchecked never validates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar, Optional, Union

from . import classifier as _cls
from . import moves as _moves
from .classifier import (
    Certificate,
    DeclaredNonRational,
    ExteriorEvidence,
    Rational,
    Unchecked,
)
from .diagram import (
    DiagramBuilder,
    LinkDiagram,
    components,
    diagram_isomorphic,
    format_pd,
    parse_pd,
)
from .errors import (
    CertificateError,
    FormatError,
    GlueError,
    PremiseError,
    SiteError,
)
from .moves import ChainSite, Handedness, SwitchSite, chain_site
from .tangle import ConwaySequence

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Premise:
    kind: str  # GeodesicArc | AmbientHyperbolic | BoundaryTorusGluing
    justification: str = ""
    trusted: bool = True

    _KINDS = ("GeodesicArc", "AmbientHyperbolic", "BoundaryTorusGluing")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise PremiseError(f"unknown premise kind {self.kind!r}")


@dataclass(frozen=True)
class AbstractManifold:
    """What a non-diagram certificate is about: boundaries and link parts."""

    name: str
    boundaries: tuple[tuple[str, str], ...] = ()  # (label, 'torus'|'klein')
    link_components: tuple[str, ...] = ()
    hyperbolic: bool = False

    def boundary_kind(self, label: str) -> str:
        for lab, kind in self.boundaries:
            if lab == label:
                return kind
        raise GlueError(f"manifold {self.name} has no boundary {label!r}")


@dataclass(frozen=True)
class ChainStep:
    """A chain move at the site of ``trivial_component`` clasping ``strands``."""

    trivial_component: int
    strands: tuple[int, int]
    k: int
    evidence: ExteriorEvidence

    # The variant: its JSON kind, the moves-module function that applies it
    # past its gate (looked up by name at each call), and the components it
    # adds.
    kind: ClassVar[str] = "ChainStep"
    splice: ClassVar[str] = "_chain_splice"
    added: ClassVar[int] = 1
    wrong_count: ClassVar[str] = "chain step must add exactly one component"


class AugChainStep(ChainStep):
    """An augmented chain move: the trivial component stays."""

    kind = "AugChainStep"
    splice = "_augmented_chain_splice"
    added = 2
    wrong_count = "augmented chain step must add exactly two components"


@dataclass(frozen=True)
class SwitchStep:
    arc_g: int
    arc_g2: int
    handedness: Handedness
    premise: Optional[Premise] = None


@dataclass(frozen=True)
class HalfTwistStep:
    component: int
    direction: int


@dataclass(frozen=True)
class GlueStep:
    other: "Certificate"
    boundary_self: str
    boundary_other: str
    premises: tuple[Premise, ...] = ()


Step = Union[ChainStep, SwitchStep, HalfTwistStep, GlueStep]


@dataclass(frozen=True)
class Verdict:
    valid: bool
    failed_step: Optional[int] = None  # -1 means the base, None means ok
    reason: str = ""
    step_reports: tuple[str, ...] = ()
    trusted_premises: tuple[str, ...] = ()

    def __bool__(self):
        return self.valid


def _apply_step(d: LinkDiagram, step: Step, site: Optional[ChainSite] = None) -> LinkDiagram:
    """Apply ``step`` to ``d``, a diagram, or `verify`'s replay state, which
    the move edits in place and returns; a chain step at ``site``, which
    its caller looked up and admitted (`moves.admit`), skips the move's
    gate, and any other looks its site up once, through that gate."""
    if isinstance(step, ChainStep):
        if site is None:
            site = _moves._gated_site(d, step.trivial_component, step.strands, step.k,
                                      step.evidence)
        return getattr(_moves, step.splice)(d, site, step.k)
    if isinstance(step, SwitchStep):
        return _moves.switch_move(d, SwitchSite(step.arc_g, step.arc_g2), step.handedness)
    if isinstance(step, HalfTwistStep):
        return _moves.half_twist(d, step.component, step.direction)
    raise CertificateError(f"cannot apply {type(step).__name__} to a diagram")


def extend(cert: Certificate, step: Step) -> Certificate:
    """Apply a move to the certificate's subject and record the step.

    A SwitchStep without a GeodesicArc premise raises PremiseError.  The move
    gates a chain step's evidence (`moves.admit`, a Rational claim by its declared
    fraction alone); Unchecked evidence passes, but the certificate never verifies.
    """
    if isinstance(step, GlueStep):
        raise CertificateError("use glue() for gluing steps")
    if not isinstance(cert.subject, LinkDiagram):
        raise CertificateError("cannot extend an abstract-manifold certificate")
    if isinstance(step, SwitchStep):
        if step.premise is None or step.premise.kind != "GeodesicArc":
            raise PremiseError("switch step needs a GeodesicArc premise")
    new_subject = _apply_step(cert.subject, step)
    return replace(cert, subject=new_subject, steps=cert.steps + (step,))


def verify(cert: Certificate) -> Verdict:
    """Re-play the derivation from the base and re-check every gate.

    At the first step that edits the diagram, the base's arrays are copied
    into one `DiagramBuilder`, which that step and every later one edit in
    place, so a step costs its ball and the strands it touches, not the
    diagram; a base, shared by every document over it, is never changed.
    The builder is built into a diagram at most once: for the final
    isomorphism test, unless it holds the subject's own crossings and
    loops."""
    if isinstance(cert.subject, AbstractManifold):
        return _verify_abstract(cert)
    reports: list[str] = []
    trusted: list[str] = []

    def refuse(step: int, reason: str) -> Verdict:
        return Verdict(False, step, reason, tuple(reports), tuple(trusted))

    if cert.base == "MenascoAlternating":
        got = _cls.menasco_certify(cert.base_diagram)
        if isinstance(got, _cls.Refusal):
            return refuse(-1, f"base refused: {got}")
        reports.append("base: MenascoAlternating accepted")
    elif cert.base == "AugmentedAlternating":
        got = _cls.augmented_alternating_certify(
            cert.base_diagram, frozenset(cert.augmenting)
        )
        if isinstance(got, _cls.Refusal):
            return refuse(-1, f"base refused: {got}")
        reports.append(
            f"base: AugmentedAlternating accepted (augmenting {cert.augmenting})"
        )
    elif cert.base == "ExternallyAsserted":
        trusted.append(f"base asserted externally: {cert.description}")
        reports.append("base: ExternallyAsserted (trusted)")
    else:
        return refuse(-1, f"unknown base {cert.base!r}")

    current, bld = cert.base_diagram, None  # bld: the builder, made at the first edit
    admission = None  # once a chain step is admitted, a later one may inherit
    for i, step in enumerate(cert.steps):
        site = missing = None
        if isinstance(step, ChainStep):
            try:
                site = chain_site(current, step.trivial_component, step.strands)
            except SiteError as err:
                missing = err
            admission = _moves.admit(current, site, step.k, step.evidence, admission is not None)
            if not admission.admitted:
                return refuse(i, admission.verdict)
            reports.append(f"step {i}: {admission.verdict}")
            if admission.trusted is not None:
                trusted.append(f"step {i}: {admission.trusted}")
        if isinstance(step, SwitchStep):
            if step.premise is None or step.premise.kind != "GeodesicArc":
                return refuse(i, "switch step lacks its GeodesicArc premise")
            trusted.append(f"step {i}: geodesic arc ({step.premise.justification})")
            reports.append(
                f"step {i}: switch move; the geodesic hypothesis is recorded, "
                "not checked (no finite certificate exists for it)"
            )
        if isinstance(step, ChainStep) and abs(step.k) > len(cert.subject.crossings):
            # no step removes crossings and this one adds at least 2 + |k|,
            # so it can never replay to the subject: refuse it unbuilt
            return refuse(i, f"k={step.k} adds more crossings than the subject has")
        try:
            if missing is not None:
                raise missing  # the site lookup, made before the gate, failed
            if bld is None:
                current = bld = DiagramBuilder(current)
            before = components(current).count
            _apply_step(current, step, site)
            after = components(current).count
        except (SiteError, CertificateError) as err:
            return refuse(i, f"replay failed: {err}")
        if isinstance(step, ChainStep) and after - before != step.added:
            return refuse(i, step.wrong_count)
    if bld is not None and current.holds(cert.subject):
        pass  # the subject's own crossings and loops: no build, no isomorphism test
    elif not diagram_isomorphic(current if bld is None else bld.build(), cert.subject):
        return refuse(len(cert.steps), "final diagram does not match the subject")
    reports.append("final diagram matches the subject")
    return Verdict(True, None, "", tuple(reports), tuple(trusted))


def _verify_abstract(cert: Certificate) -> Verdict:
    reports: list[str] = []
    trusted: list[str] = []

    def refuse(step: int, reason: str) -> Verdict:
        return Verdict(False, step, reason, tuple(reports), tuple(trusted))

    if cert.base != "ExternallyAsserted" or cert.base_manifold is None:
        return refuse(-1, "abstract certificates need an externally asserted base manifold")
    if not cert.base_manifold.hyperbolic:
        return refuse(-1, "base manifold is not asserted hyperbolic")
    trusted.append(f"base manifold {cert.base_manifold.name}: {cert.description}")
    current = cert.base_manifold
    for i, step in enumerate(cert.steps):
        if not isinstance(step, GlueStep):
            return refuse(i, "abstract certificates admit only glue steps")
        inner = verify(step.other)
        if not inner.valid:
            return refuse(i, f"glued certificate invalid: {inner.reason}")
        other_m = step.other.subject
        if not isinstance(other_m, AbstractManifold):
            return refuse(i, "glue step needs an abstract-manifold certificate")
        try:
            k1 = current.boundary_kind(step.boundary_self)
            k2 = other_m.boundary_kind(step.boundary_other)
        except GlueError as err:
            return refuse(i, str(err))
        if k1 != k2:
            return refuse(i, f"boundary mismatch: {k1} glued to {k2}")
        geo = [p for p in step.premises if p.kind == "GeodesicArc"]
        if len(geo) < 2:
            return refuse(i, "glue step needs two GeodesicArc premises")
        for p in geo:
            trusted.append(f"step {i}: geodesic arc ({p.justification})")
        current = _merge_manifolds(current, other_m, step.boundary_self, step.boundary_other)
        reports.append(f"step {i}: glued {other_m.name} along {step.boundary_self}")
    if current != cert.subject:
        return refuse(len(cert.steps), "glued manifold does not match the subject")
    return Verdict(True, None, "", tuple(reports), tuple(trusted))


def _merge_manifolds(
    m1: AbstractManifold, m2: AbstractManifold, b1: str, b2: str
) -> AbstractManifold:
    boundaries = tuple(b for b in m1.boundaries if b[0] != b1) + tuple(
        b for b in m2.boundaries if b[0] != b2
    )
    return AbstractManifold(
        name=f"glue({m1.name},{m2.name})",
        boundaries=boundaries,
        link_components=m1.link_components + m2.link_components + ("C",),
        hyperbolic=True,
    )


def glue(
    c1: Certificate,
    c2: Certificate,
    boundary_self: str,
    boundary_other: str,
    premises: tuple[Premise, ...],
) -> Certificate:
    """The switch-move gluing operation on abstract-manifold certificates."""
    for c in (c1, c2):
        if not isinstance(c.subject, AbstractManifold):
            raise GlueError("glue operates on abstract-manifold certificates")
        if not verify(c).valid:
            raise GlueError("cannot glue an uncertified manifold")
    m1: AbstractManifold = c1.subject
    m2: AbstractManifold = c2.subject
    if m1.boundary_kind(boundary_self) != m2.boundary_kind(boundary_other):
        raise GlueError(
            f"boundaries must both be tori or both Klein bottles, got "
            f"{m1.boundary_kind(boundary_self)} and {m2.boundary_kind(boundary_other)}"
        )
    geo = [p for p in premises if p.kind == "GeodesicArc"]
    if len(geo) < 2:
        raise PremiseError("gluing needs the two geodesic-arc premises")
    step = GlueStep(c2, boundary_self, boundary_other, tuple(premises))
    merged = _merge_manifolds(m1, m2, boundary_self, boundary_other)
    return replace(c1, subject=merged, steps=c1.steps + (step,))


# -- serialization ------------------------------------------------------------------


def _evidence_doc(ev: ExteriorEvidence) -> dict:
    if isinstance(ev, Rational):
        return {"kind": "Rational", "sequence": list(ev.sequence.entries)}
    if isinstance(ev, DeclaredNonRational):
        return {"kind": "DeclaredNonRational", "justification": ev.justification}
    return {"kind": "Unchecked"}


# -- reading documents: every structural fault is a CertificateError


_REQUIRED = object()
# glue steps nest certificates; deeper documents are refused outright
_MAX_GLUE_DEPTH = 100


def _field(doc, key: str, kind, default=_REQUIRED, of=None):
    """``doc[key]``, checked to be of JSON type ``kind`` (a list of ``of``
    when given; true and false are not ints); ``default`` when absent."""
    if type(doc) is not dict:
        raise CertificateError(f"expected a JSON object with {key!r}, got {doc!r:.40}")
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise CertificateError(f"certificate field {key!r} is missing")
    if value is not default and (
        type(value) is not kind or (of and any(type(v) is not of for v in value))
    ):
        raise CertificateError(f"certificate field {key!r} has the wrong type: {value!r:.40}")
    return value


def _read(make, *args):
    """``make(*args)``, a FormatError or PremiseError raised as a CertificateError."""
    try:
        return make(*args)
    except (FormatError, PremiseError) as err:
        raise CertificateError(str(err)) from err


def _evidence_from(doc: dict) -> ExteriorEvidence:
    kind = _field(doc, "kind", str, None)
    if kind == "Rational":
        return Rational(_read(ConwaySequence, tuple(_field(doc, "sequence", list, of=int))))
    if kind == "DeclaredNonRational":
        return DeclaredNonRational(_field(doc, "justification", str, ""))
    if kind == "Unchecked":
        return Unchecked()
    raise CertificateError(f"unknown evidence kind {kind!r}")


def _premise_doc(p: Premise) -> dict:
    return {"kind": p.kind, "justification": p.justification, "trusted": p.trusted}


def _premise_from(doc: dict) -> Premise:
    return _read(
        Premise,
        _field(doc, "kind", str),
        _field(doc, "justification", str, ""),
        _field(doc, "trusted", bool, True),
    )


def _manifold_doc(m: AbstractManifold) -> dict:
    return {
        "name": m.name,
        "boundaries": [list(b) for b in m.boundaries],
        "link_components": list(m.link_components),
        "hyperbolic": m.hyperbolic,
    }


def _manifold_from(doc: dict) -> AbstractManifold:
    boundaries = _field(doc, "boundaries", list, [], of=list)
    if not all(len(b) == 2 and type(b[0]) is type(b[1]) is str for b in boundaries):
        raise CertificateError("manifold boundaries must be [label, kind] string pairs")
    return AbstractManifold(
        name=_field(doc, "name", str),
        boundaries=tuple((b[0], b[1]) for b in boundaries),
        link_components=tuple(_field(doc, "link_components", list, [], of=str)),
        hyperbolic=_field(doc, "hyperbolic", bool, False),
    )


def _step_doc(step: Step) -> dict:
    if isinstance(step, ChainStep):
        return {
            "kind": step.kind,
            "component": step.trivial_component,
            "strands": list(step.strands),
            "k": step.k,
            "evidence": _evidence_doc(step.evidence),
        }
    if isinstance(step, SwitchStep):
        return {
            "kind": "SwitchStep",
            "arc_g": step.arc_g,
            "arc_g2": step.arc_g2,
            "handedness": step.handedness.value,
            "premise": _premise_doc(step.premise) if step.premise else None,
        }
    if isinstance(step, HalfTwistStep):
        return {
            "kind": "HalfTwistStep",
            "component": step.component,
            "direction": step.direction,
        }
    if isinstance(step, GlueStep):
        return {
            "kind": "GlueStep",
            "other": _cert_doc(step.other),
            "boundary_self": step.boundary_self,
            "boundary_other": step.boundary_other,
            "premises": [_premise_doc(p) for p in step.premises],
        }
    raise CertificateError(f"unknown step {type(step).__name__}")


_CHAIN_STEPS = {cls.kind: cls for cls in (ChainStep, AugChainStep)}


def _step_from(doc: dict, depth: int) -> Step:
    kind = _field(doc, "kind", str, None)
    if kind in _CHAIN_STEPS:
        if len(strands := _field(doc, "strands", list, of=int)) != 2:
            raise CertificateError(f"a chain step names two strands, not {strands!r:.40}")
        return _CHAIN_STEPS[kind](
            _field(doc, "component", int),
            tuple(strands),
            _field(doc, "k", int),
            _evidence_from(_field(doc, "evidence", dict)),
        )
    if kind == "SwitchStep":
        handedness = _field(doc, "handedness", str)
        if handedness not in {h.value for h in Handedness}:
            raise CertificateError(f"unknown handedness {handedness!r}")
        premise = _field(doc, "premise", dict, None)
        return SwitchStep(
            _field(doc, "arc_g", int),
            _field(doc, "arc_g2", int),
            Handedness(handedness),
            _premise_from(premise) if premise else None,
        )
    if kind == "HalfTwistStep":
        return HalfTwistStep(_field(doc, "component", int), _field(doc, "direction", int))
    if kind == "GlueStep":
        return GlueStep(
            _cert_from(_field(doc, "other", dict), depth + 1),
            _field(doc, "boundary_self", str),
            _field(doc, "boundary_other", str),
            tuple(_premise_from(p) for p in _field(doc, "premises", list, [])),
        )
    raise CertificateError(f"unknown step kind {kind!r}")


def _collect_premises(cert: Certificate) -> list[dict]:
    out = []
    for step in cert.steps:
        if isinstance(step, SwitchStep) and step.premise is not None:
            out.append(_premise_doc(step.premise))
        if isinstance(step, GlueStep):
            out.extend(_premise_doc(p) for p in step.premises)
    return out


def _cert_doc(cert: Certificate) -> dict:
    doc: dict = {
        "version": FORMAT_VERSION,
        "base": cert.base,
        "description": cert.description,
        "augmenting": list(cert.augmenting),
        "steps": [_step_doc(s) for s in cert.steps],
        # derived summary of every recorded premise; the steps stay
        # authoritative on load
        "premises": _collect_premises(cert),
    }
    if cert.base_diagram is not None:
        doc["base_diagram"] = format_pd(cert.base_diagram)
    if cert.base_manifold is not None:
        doc["base_manifold"] = _manifold_doc(cert.base_manifold)
    if isinstance(cert.subject, LinkDiagram):
        doc["subject"] = {"kind": "diagram", "pd": format_pd(cert.subject)}
    else:
        doc["subject"] = {"kind": "manifold", "manifold": _manifold_doc(cert.subject)}
    return doc


# Pays on replay_verify (324 of 324 documents per seed-1 pass) and
# cli_pipeline (60 of 60 per round); certify_bases reads no document.
@lru_cache(maxsize=64)
def _base_diagram(text: str) -> LinkDiagram:
    """The diagram of a document's base PD text, parsed once per distinct
    text: every document over one base shares one immutable diagram, and
    with it its analysis.  A malformed text raises on every read."""
    return parse_pd(text)


def _cert_from(doc: dict, depth: int = 0) -> Certificate:
    if depth > _MAX_GLUE_DEPTH:
        raise CertificateError(f"glue steps nested more than {_MAX_GLUE_DEPTH} deep")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # true == 1 == 1.0
        raise CertificateError(f"unsupported certificate version {version!r}")
    subject_doc = doc.get("subject")
    if not isinstance(subject_doc, dict):
        raise CertificateError("certificate lacks a subject")
    if subject_doc.get("kind") == "diagram":
        subject: Union[LinkDiagram, AbstractManifold] = _read(
            parse_pd, _field(subject_doc, "pd", str))
    elif subject_doc.get("kind") == "manifold":
        subject = _manifold_from(_field(subject_doc, "manifold", dict))
    else:
        raise CertificateError("unknown subject kind")
    base_diagram = _field(doc, "base_diagram", str, None)
    if base_diagram is None and isinstance(subject, LinkDiagram):
        raise CertificateError("a diagram certificate needs its base_diagram")
    base_manifold = _field(doc, "base_manifold", dict, None)
    base = _field(doc, "base", str)
    augmenting = tuple(_field(doc, "augmenting", list, [], of=int))
    if augmenting and base != "AugmentedAlternating":
        raise CertificateError(f"a {base} certificate has no augmenting components")
    return Certificate(
        base=base,
        subject=subject,
        base_diagram=_read(_base_diagram, base_diagram) if base_diagram is not None else None,
        base_manifold=_manifold_from(base_manifold) if base_manifold is not None else None,
        augmenting=augmenting,
        description=_field(doc, "description", str, ""),
        steps=tuple(_step_from(s, depth) for s in _field(doc, "steps", list, [])),
    )


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def serialize(cert: Certificate) -> str:
    """Canonical JSON document with a sha256 self-hash."""
    doc = _cert_doc(cert)
    doc["sha256"] = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def deserialize(text: str) -> Certificate:
    """Parse a certificate document.

    A wrong self-hash does not reject the document; verify() replays the
    derivation instead.  That catches tampering that changes the replay (a
    step's k, direction, handedness or site, a dropped step, a swapped
    subject or base), but not a changed `Rational` claim that is still
    admissible, since the claim is not matched against the diagram.

    Documents over one base text share one base diagram object, parsed
    once per process; the subject is parsed afresh for each document.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise CertificateError(f"not a certificate document: {err}") from err
    if not isinstance(doc, dict):
        raise CertificateError("certificate document must be a JSON object")
    return _cert_from(doc)

