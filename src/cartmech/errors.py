"""Exception types shared across the package, the one domain check for a
positive parameter and the one type check for a configuration value."""
import math
import numbers


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


def _like(value, default) -> bool:
    if isinstance(default, (list, tuple)):
        return isinstance(value, (list, tuple)) and all(_like(v, default[0]) for v in value)
    if isinstance(default, str):
        return isinstance(value, str)
    wanted = numbers.Integral if isinstance(default, int) else numbers.Real
    return isinstance(value, wanted) and not isinstance(value, bool)


def check_like(path: str, value, default) -> None:
    """SchemaError naming path unless value has default's type: an integer, a
    number, a string, or a list (or tuple) of values like default's first
    item.  A boolean is never an integer, a number or a list item."""
    if _like(value, default):
        return
    depth = 0
    while isinstance(default, (list, tuple)):
        default, depth = default[0], depth + 1
    leaf = ("string" if isinstance(default, str)
            else "integer" if isinstance(default, int) else "number")
    if depth:
        want = "a list of " + "lists of " * (depth - 1) + leaf + "s"
    else:
        want = ("an " if leaf == "integer" else "a ") + leaf
    raise SchemaError(f"{path}: expected {want}, got {value!r}")


class ShapeError(CartmechError, ValueError):
    """An array argument has an incompatible shape."""


class NumericFailure(CartmechError):
    """A computation left the numbers it can handle; the command line exits 2."""


class DegenerateConfigurationError(NumericFailure):
    """A symmetric positive definite system is numerically singular.

    Raised by autodiff.spd_solve on the constraints' multiplier matrix
    K = DPhi M^-1 DPhi^T (ground truth, CHNN, CLNN) or HNN2D's learned
    inverse mass.  Carries the worst Cholesky pivot ratio
    (min diag L / max diag L)^2: 0 if the factorization failed, nan for nan.
    """

    def __init__(self, message: str, ratio: float = 0.0):
        super().__init__(f"{message} (pivot ratio {ratio:.3e})")
        self.ratio = ratio


class NonFiniteStateError(DegenerateConfigurationError, NumericFailure):
    """A guarded solve met a non-finite matrix, so its state had overflowed:
    a DegenerateConfigurationError (ratio nan) for callers that catch one."""

    def __init__(self, message: str):
        NumericFailure.__init__(self, message)
        self.ratio = float("nan")


class IntegrationError(NumericFailure):
    """Adaptive integration failed (step underflow or non-finite state)."""

    def __init__(self, message: str, t: float = float("nan"), step: int = -1):
        super().__init__(message)
        self.t = t
        self.step = step


class RolloutDivergedError(NumericFailure):
    """A model's rollout, or its scores, left the finite numbers (overflow or nan)."""


class GradientSingularityError(NumericFailure):
    """A potential gradient was requested at a singular point (coincident points)."""


class FieldSingularityError(NumericFailure):
    """A field was evaluated too close to one of its sources."""


class GimbalLockError(NumericFailure):
    """Euler-angle oracle evaluated too close to sin(theta) = 0."""


class TrainingError(NumericFailure):
    """Training aborted (repeated non-finite losses or gradients)."""


class SchemaError(CartmechError, ValueError):
    """A run configuration failed validation; message names the offending path."""


class FormatError(CartmechError):
    """A binary artifact (checkpoint, dataset payload) is malformed or wrong version."""
