"""Exception hierarchy for hyperforge.

Classifier refusals are *values* (see classifier.Refusal), not exceptions;
exceptions here mean a precondition was violated or an input is malformed.
"""


class HyperforgeError(Exception):
    """Base class for all hyperforge errors."""


class FormatError(HyperforgeError):
    """Malformed textual input (PD text, Gauss text, Conway text, fraction)."""


class InvalidDiagramError(HyperforgeError):
    """An operation requiring a valid diagram was given an invalid one."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"invalid diagram: {report.summary()}")


class SiteError(HyperforgeError):
    """A move site does not exist or does not match the required pattern."""


class WiringError(HyperforgeError):
    """A built wiring conflicts with the strand directions of the frozen
    crossings; a splice judges this of each candidate wiring before it
    builds one, and moves on to the next."""


class MixedSignError(FormatError):
    """Conway sequence entries must be all nonnegative or all nonpositive."""


class ExcludedExteriorError(HyperforgeError):
    """Chain move rejected: the declared rational exterior is an excluded tangle."""

    def __init__(self, kind, fraction_value, k):
        self.kind = kind
        self.fraction_value = fraction_value
        self.k = k
        super().__init__(
            f"excluded exterior {fraction_value} at k={k}: {kind.name}"
            + (" (original link was not prime)" if kind.name == "Infinity" else "")
        )


class PremiseError(HyperforgeError):
    """A certificate step is missing a required premise."""


class CertificateError(HyperforgeError):
    """Malformed or unsupported certificate document."""


class GlueError(HyperforgeError):
    """Gluing preconditions violated (boundary types, uncertified inputs)."""
