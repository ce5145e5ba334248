"""Exception types shared across the package."""


class QurelError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(QurelError):
    """Operand shapes or subsystem dimensions do not fit together."""


class ConvergenceError(QurelError):
    """The eigensolver failed to converge."""


class ValidationError(QurelError):
    """A value object violates its invariants."""


class ArgumentError(ValidationError):
    """An argument breaks its rule where it enters the package: a model
    point outside the domain, a sweep range, a measurement setup, the
    arguments of check-single-valued or a mixedness target. The CLI
    reports it as a usage error; a numerical check that fails raises a
    plain ValidationError."""


class RangeError(QurelError):
    """A numerical result left the representable/achievable range."""


class SubsystemError(QurelError):
    """Subsystem indices are invalid, duplicated, or clash."""


class DegeneracyError(QurelError):
    """An operation requires a nondegenerate spectrum but got one that
    is degenerate after eigenspace merging."""


class DegenerateOperator(QurelError):
    """The weighting operator has (numerically) vanishing norm in the
    given state, so the bound's denominator is undefined."""


class UsageError(QurelError):
    """Bad command-line arguments."""
