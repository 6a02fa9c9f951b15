"""Typed error hierarchy for solver, criteria and variance failures."""


class TunevarError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(TunevarError):
    """A user-supplied function returned a non-finite value or wrong shape."""


class SingularJacobian(TunevarError):
    """An empirical Jacobian is numerically singular (condition number > 1e12)."""


class NoConvergence(TunevarError):
    """Newton iteration hit its cap with residual above tolerance."""


class DomainEscape(TunevarError):
    """An iterate left the parameter box and projection failed to make progress."""


class RefitFailure(TunevarError):
    """Too many leave-one-out refits failed during exact cross-validation."""

    def __init__(self, message, failed_indices=()):
        super().__init__(message)
        self.failed_indices = tuple(failed_indices)


class CriterionFailure(TunevarError):
    """The tuning criterion errored on too large a share of the search grid."""


class BoundaryFit(TunevarError):
    """Full variance assembly was requested for a boundary fit."""


class FlatLimitSuspected(TunevarError):
    """The alpha-system Jacobian is numerically rank deficient.

    This is the degenerate regime where the target of the tuning parameter is
    not identified (the pseudo-true theta does not move with lambda), and the
    tuning-aware limit theory does not apply.
    """


class FailureRateExceeded(TunevarError):
    """More than the tolerated share of Monte Carlo replications failed."""


class SchemaError(TunevarError):
    """An input file does not match the documented schema."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
