"""Exception types shared across the package."""


class CartmechError(Exception):
    """Base class for package errors."""


class ParameterDomainError(CartmechError, ValueError):
    """A physical parameter is outside its admissible domain (m <= 0, lambda <= 0, ...)."""


class ShapeError(CartmechError, ValueError):
    """An array argument has an incompatible shape."""


class DegenerateConfigurationError(CartmechError):
    """The constraint system is numerically singular at the current state.

    Carries the condition estimate of the offending matrix.
    """

    def __init__(self, message: str, cond: float = float("inf")):
        super().__init__(f"{message} (cond estimate {cond:.3e})")
        self.cond = cond


class IntegrationError(CartmechError):
    """Adaptive integration failed (step underflow or non-finite state)."""

    def __init__(self, message: str, t: float = float("nan"), step: int = -1):
        super().__init__(message)
        self.t = t
        self.step = step


class GradientSingularityError(CartmechError):
    """A potential gradient was requested at a singular point (coincident points)."""


class FieldSingularityError(CartmechError):
    """A field was evaluated too close to one of its sources."""


class GimbalLockError(CartmechError):
    """Euler-angle oracle evaluated too close to sin(theta) = 0."""


class TrainingError(CartmechError):
    """Training aborted (repeated non-finite losses or gradients)."""


class SchemaError(CartmechError, ValueError):
    """A run configuration failed validation; message names the offending path."""


class FormatError(CartmechError):
    """A binary artifact (checkpoint, dataset payload) is malformed or wrong version."""
