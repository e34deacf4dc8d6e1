"""Exception types shared across the library."""


class PPVitError(Exception):
    """Base class for all library errors."""


class ShapeError(PPVitError, ValueError):
    """Tensor extents are incompatible with the requested operation."""


class ConfigError(PPVitError, ValueError):
    """A configuration value violates an invariant; the message names the field."""


class NonFiniteError(PPVitError, ArithmeticError):
    """An operation produced NaN or Inf; values are never propagated silently."""


class CheckpointError(PPVitError, ValueError):
    """A checkpoint file is malformed or inconsistent with its manifest."""


class GraphFreedError(PPVitError, RuntimeError):
    """``backward`` reached a node an earlier ``backward`` already freed."""


class DivergenceError(PPVitError, RuntimeError):
    """Training produced a non-finite loss; ``step`` holds the offending step."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")
