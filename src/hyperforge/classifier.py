"""Exceptional-exterior classifier, the base-case hyperbolicity
certifiers (alternating and augmented alternating), and the records they
hand out: the exterior evidence and the `Certificate`.

The chain move is admissible unless the rational tangle outside the ball
is one of four excluded values; shifted by the template's k twists those
are always {inf, 0, -1, -1/2}.  The "-2 -k" value is computed through the
tangle module rather than hard-coded, so a convention error there would
break the shift-consistency check loudly.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .errors import SiteError
from .tangle import ConwaySequence, Fraction, fraction

if TYPE_CHECKING:  # annotations only; the certifiers import diagram when called
    from .certificate import AbstractManifold, Step
    from .diagram import LinkDiagram


class ExceptionKind(enum.Enum):
    Infinity = "Infinity"
    MinusK = "MinusK"
    MinusKPlus1 = "MinusKPlus1"
    MinusTwoMinusK = "MinusTwoMinusK"


class RefusalReason(enum.Enum):
    NotAlternating = "NotAlternating"
    NotReduced = "NotReduced"
    NotPrime = "NotPrime"
    Split = "Split"
    TwoBraid = "TwoBraid"
    Trivial = "Trivial"
    Unknown2Braid = "Unknown2Braid"
    BadAugmenting = "BadAugmenting"


@dataclass(frozen=True)
class Refusal:
    """A certifier's structured no, with the failing witness when there is one."""

    reason: RefusalReason
    witness: tuple = ()
    detail: str = ""

    def __str__(self):
        parts = [self.reason.value]
        if self.witness:
            parts.append(str(self.witness))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


# -- exterior evidence (consumed here, carried by certificates) -----------------


@dataclass(frozen=True)
class Rational:
    """The exterior tangle is the rational tangle of this sequence."""

    sequence: ConwaySequence

    def __post_init__(self):
        if not isinstance(self.sequence, ConwaySequence):
            object.__setattr__(self, "sequence", ConwaySequence(tuple(self.sequence)))


@dataclass(frozen=True)
class DeclaredNonRational:
    """Trusted declaration that the exterior is not a rational tangle."""

    justification: str = ""


@dataclass(frozen=True)
class Unchecked:
    """No exterior evidence; moves run, but certificates never validate."""


ExteriorEvidence = Union[Rational, DeclaredNonRational, Unchecked]


@dataclass(frozen=True)
class Certificate:
    """base + steps + subject; replaying the steps from the base must
    reproduce the subject."""

    base: str  # MenascoAlternating | AugmentedAlternating | ExternallyAsserted
    subject: Union[LinkDiagram, AbstractManifold]
    base_diagram: Optional[LinkDiagram] = None
    base_manifold: Optional[AbstractManifold] = None
    augmenting: tuple[int, ...] = ()
    description: str = ""
    steps: tuple[Step, ...] = ()


# -- the classifier ----------------------------------------------------------------


def minus_two_minus_k(k: int) -> Fraction:
    """The fraction of the '-2 -k' tangle: -k - 1/2 for every integer k."""
    return fraction([-2, 0]) + (-k)


def excluded_exterior(f: Fraction, k: int) -> Optional[ExceptionKind]:
    """The exception kind when f is an excluded exterior for the k-template.

    Equivalently: some kind is returned iff f + k lies in
    exception_base_set().  The infinity case is a precondition failure of
    the move (the original link was not prime), not a move failure.
    """
    if f.is_infinite:
        return ExceptionKind.Infinity
    if f == Fraction(-k):
        return ExceptionKind.MinusK
    if f == Fraction(-(k + 1)):
        return ExceptionKind.MinusKPlus1
    if f == minus_two_minus_k(k):
        return ExceptionKind.MinusTwoMinusK
    return None


def exception_base_set() -> frozenset[Fraction]:
    """The k = 0 normal form of the exception set: {inf, 0, -1, -1/2}."""
    return frozenset(
        {fraction([0, 0]), fraction([0]), fraction([-1]), fraction([-2, 0])}
    )


# -- base certifiers ---------------------------------------------------------------


# menasco_certify's decisions, keyed by the exact content of what it
# decides on, (crossings, loops, budget): the Refusal, or None to accept.
# Bounded; when full the oldest decision goes first.
_DECISIONS_MAX = 256
_decisions: dict[tuple, Optional[Refusal]] = {}
_decisions_lock = threading.Lock()  # library callers may certify from several threads


def menasco_certify(d: LinkDiagram, budget: Optional[int] = None):
    """Certificate for a reduced prime alternating non-split non-2-braid
    diagram of a nontrivial link; Refusal otherwise.  `budget` bounds the
    R1/R2 reduction steps; None means diagram.DEFAULT_STEP_BUDGET.

    The decision is remembered per process by the diagram's exact
    crossings and loops and the budget, so a repeated base is certified
    once.  An invalid diagram raises on every call, and the certificate
    is always about ``d`` itself."""
    from . import diagram as _dg

    if budget is None:
        budget = _dg.DEFAULT_STEP_BUDGET
    d.require_valid()
    key = (d.crossings, d.loops, budget)
    try:
        refusal = _decisions[key]
    except KeyError:
        refusal = _menasco_refusal(d, budget)
        with _decisions_lock:
            if len(_decisions) >= _DECISIONS_MAX:
                del _decisions[next(iter(_decisions))]
            _decisions[key] = refusal
    if refusal is not None:
        return refusal
    return Certificate(base="MenascoAlternating", base_diagram=d, subject=d)


def _menasco_refusal(d: LinkDiagram, budget: int) -> Optional[Refusal]:
    """Why Menasco's criterion does not certify the valid diagram ``d``, or
    None when it does."""
    from . import diagram as _dg

    if _dg.is_split(d):
        return Refusal(RefusalReason.Split)
    # conservative triviality check by budgeted R1/R2 reduction; on a
    # reduced alternating diagram this is a no-op (Tait: such diagrams
    # realize the crossing number, so a nontrivial link never reduces out)
    reduced, _, stable = _dg.reduce_diagram(d, budget)
    if not stable:
        return Refusal(
            RefusalReason.Unknown2Braid,
            detail="R1/R2 reduction budget exhausted; refusing conservatively",
        )
    if len(reduced.crossings) == 0:
        if reduced.loops == 1:
            return Refusal(RefusalReason.Trivial)
        return Refusal(RefusalReason.Split, detail="reduces to crossing-free loops")
    cuts = _dg.two_edge_cuts(d)
    if cuts:
        return Refusal(RefusalReason.NotPrime, witness=cuts[0])
    nug = _dg.nugatory_crossings(d)
    if nug:
        return Refusal(RefusalReason.NotReduced, witness=nug)
    if not _dg.is_alternating(d):
        return Refusal(RefusalReason.NotAlternating)
    if _dg._is_braid2_form(reduced):
        return Refusal(RefusalReason.TwoBraid)
    return None


def augmented_alternating_certify(
    d: LinkDiagram, augmenting: frozenset[int] | set[int], budget: Optional[int] = None
):
    """Certificate for an alternating base plus trivial augmenting circles.

    Each augmenting component must bound a recognizable twice-punctured
    disk; the diagram minus the augmenting components must pass
    menasco_certify.
    """
    d.require_valid()
    augmenting = frozenset(augmenting)
    if not augmenting:
        return menasco_certify(d, budget)
    from . import diagram as _dg

    for comp in sorted(augmenting):
        try:
            _dg._disk_runs(d, comp)
        except SiteError as err:
            return Refusal(
                RefusalReason.BadAugmenting, witness=(comp,), detail=str(err)
            )
    rest = d
    for comp in sorted(augmenting, reverse=True):
        rest = _dg.remove_component(rest, comp)
    inner = menasco_certify(rest, budget)
    if isinstance(inner, Refusal):
        return Refusal(inner.reason, witness=inner.witness, detail="base link refused")
    return Certificate(
        base="AugmentedAlternating",
        base_diagram=d,
        subject=d,
        augmenting=tuple(sorted(augmenting)),
    )
