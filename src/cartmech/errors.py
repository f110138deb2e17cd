"""Exception types shared across the package, and the one domain check for
a positive parameter."""
import math


class CartmechError(Exception):
    """Base class for package errors."""


class ParameterDomainError(CartmechError, ValueError):
    """A physical parameter is outside its admissible domain (m <= 0, lambda <= 0, ...)."""


def finite_positive(name: str, values) -> tuple[float, ...]:
    """values as floats; ParameterDomainError naming them unless every one is
    finite and positive (nan fails every comparison, so it fails here too)."""
    values = tuple(float(v) for v in values)
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        shown = values[0] if len(values) == 1 else values
        raise ParameterDomainError(f"{name} must be finite and positive, got {shown}")
    return values


class ShapeError(CartmechError, ValueError):
    """An array argument has an incompatible shape."""


class DegenerateConfigurationError(CartmechError):
    """A symmetric positive definite system is numerically singular.

    Raised by autodiff.spd_solve on the constraints' multiplier matrix
    K = DPhi M^-1 DPhi^T (ground truth, CHNN, CLNN) or HNN2D's learned
    inverse mass.  Carries the worst Cholesky pivot ratio
    (min diag L / max diag L)^2: 0 if the factorization failed, nan for nan.
    """

    def __init__(self, message: str, ratio: float = 0.0):
        super().__init__(f"{message} (pivot ratio {ratio:.3e})")
        self.ratio = ratio


class IntegrationError(CartmechError):
    """Adaptive integration failed (step underflow or non-finite state)."""

    def __init__(self, message: str, t: float = float("nan"), step: int = -1):
        super().__init__(message)
        self.t = t
        self.step = step


class RolloutDivergedError(CartmechError):
    """A model's rollout left the finite numbers (overflow or nan)."""


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
