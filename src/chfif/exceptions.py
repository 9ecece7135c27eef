"""Exception types shared across the package, with their CLI exit codes."""

from __future__ import annotations

EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3


class ChfifError(Exception):
    """Base class for all package-specific errors.

    ``exit_code`` is the status the command line interface exits with.
    """

    exit_code = EXIT_VALIDATION


class ValidationError(ChfifError):
    """Raised when a model is built from data that fails validation.

    Carries the individual violations so callers can report them all.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid interpolation problem: {lines}")


class DepthLimitError(ChfifError):
    """Requested refinement depth exceeds the configured memory budget."""


class SamplingTooCoarseError(ChfifError):
    """Sample grid is too coarse for the requested box size."""

    exit_code = EXIT_DEGENERATE


class InsufficientScalesError(ChfifError):
    """Too few usable scales for a log-log regression."""

    exit_code = EXIT_DEGENERATE


class CurveOverflowError(ChfifError):
    """Finite inputs whose curve or moments leave the float range."""

    exit_code = EXIT_DEGENERATE


class NotConvergedError(ChfifError):
    """The fixed-point sweep did not reach its tolerance within its sweep budget."""

    exit_code = EXIT_DEGENERATE


class ConfigError(ChfifError):
    """Configuration text failed to parse or validate.

    ``where`` is a dotted path (or ``line N``) locating the offending field.
    """

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")
