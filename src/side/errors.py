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

    ``result`` is the :class:`side.train_eval.TrainResult` of the run so
    far, with the best epoch's parameters, so callers can persist it
    before exiting.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
