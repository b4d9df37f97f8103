"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: input/schema problems
(SchemaError, DomainError) exit with code 2; runtime and numeric failures
(everything else below) exit with code 1.
"""


class PgsynthError(Exception):
    """Base class for all library errors."""


class DomainError(PgsynthError):
    """An argument lies outside the mathematical domain of an operation."""


class SchemaError(PgsynthError):
    """An input file or record does not match the expected schema."""


class InfeasibilityError(PgsynthError):
    """A constrained support is empty (no integer vector satisfies the bounds)."""


class DegeneratePriorError(PgsynthError):
    """The prior rates are degenerate (e.g. zero total expected count)."""


class DominanceError(PgsynthError):
    """A stratum's prior expected count dominates the rest, which the
    truncated calibration cannot accommodate for three or more strata."""


class CalibrationError(PgsynthError):
    """Hyperparameter calibration failed (non-convergence or infeasible
    privacy requirement). Carries the residual when available."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class EnumerationCapError(PgsynthError):
    """An exhaustive enumeration would exceed the configured cap."""


class UndefinedRateError(PgsynthError):
    """A rate or ratio is undefined (zero population or zero denominator)."""
