"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class NotSICError(DomainError):
    """A candidate state family violates the SIC overlap condition."""

    def __init__(self, message: str, worst_pair: tuple[int, int], deviation: float):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.deviation = deviation


class NotPrimeError(DomainError):
    """MUB construction requested for a non-prime dimension."""


class SearchFailed(RuntimeError):
    """Fiducial search exhausted its iteration budget without a certificate."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class NotTracePreserving(DomainError):
    """A CJ matrix fails the trace-preservation marginal condition."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ConventionMismatch(RuntimeError):
    """The derived index/phase convention does not reproduce the SIC projectors."""

    def __init__(self, message: str, residuals: dict[str, float]):
        super().__init__(message)
        self.residuals = residuals


class CalibrationError(RuntimeError):
    """Per-path correction phases could not be solved to tolerance."""


class ParseError(ValueError):
    """A file does not conform to the expected JSON schema."""


class ValidationError(DomainError):
    """Data violates a physical-consistency check, named by `check`."""

    def __init__(self, check: str, residual: float):
        super().__init__(f"validation failed: {check} (residual {residual:.3e})")
        self.check = check
        self.residual = residual
