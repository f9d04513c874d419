"""Exception types shared across the package."""


class SideError(Exception):
    """Base class for all errors raised by this package."""


class AlignmentError(SideError):
    """Two series that must share a timestep axis do not."""


class InsufficientDataError(SideError):
    """Not enough timesteps to build at least one window."""


class ParseError(SideError):
    """Malformed input file; message carries the offending line number."""


class ConfigError(SideError):
    """Invalid or unknown configuration value."""


class ShapeError(SideError):
    """Tensor operands have incompatible shapes."""


class NumericsError(SideError):
    """Non-finite value entered the numeric core (e.g. NaN gradient)."""


class DivergenceError(SideError):
    """Training loss became non-finite.

    Carries the parameters, holding the last values that were still
    finite, so callers can persist them before exiting.
    """

    def __init__(self, message, checkpoint=None, history=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.history = history
