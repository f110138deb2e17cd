"""Constrained mechanics in Cartesian coordinates, and models that learn it.

Rigid-body systems are embedded in flat Euclidean space, holonomic
constraints are enforced through Lagrange multipliers, and the same
fixed-step integrator that simulates the ground truth is differentiated
through to train constrained Hamiltonian/Lagrangian models.
"""
from .bodies import BodySpec, assemble_mass_matrix
from .dataset import Dataset, generate_dataset, load_dataset, save_dataset
from .dynamics import (
    constrained_dynamics,
    constrained_hamiltonian_dynamics,
    constrained_lagrangian_dynamics,
    convert_flavor,
    energy,
    projection_matrix,
)
from .errors import (
    CartmechError,
    DegenerateConfigurationError,
    FormatError,
    GimbalLockError,
    IntegrationError,
    ParameterDomainError,
    SchemaError,
    ShapeError,
    TrainingError,
)
from .integrators import Tolerances, Trajectory, integrate_adaptive, rk4_step, rollout_fixed
from .metrics import (
    EvalResult,
    constraint_rmse_curve,
    energy_error,
    evaluate_model,
    evaluate_rollout,
    geometric_mean,
    relative_error,
)
from .models import CHNN, CLNN, HNN2D, MODEL_KINDS, NODE, NODEAngular, build_model
from .states import (
    HAMILTONIAN,
    LAGRANGIAN,
    flatten_matrix,
    unflatten_matrix,
)
from .systems import System, build_system, disable_system_constraints, system_names
from .topology import SystemTopology
from .training import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "BodySpec",
    "CHNN",
    "CLNN",
    "CartmechError",
    "Dataset",
    "DegenerateConfigurationError",
    "EvalResult",
    "FormatError",
    "GimbalLockError",
    "HAMILTONIAN",
    "HNN2D",
    "IntegrationError",
    "LAGRANGIAN",
    "MODEL_KINDS",
    "NODE",
    "NODEAngular",
    "ParameterDomainError",
    "SchemaError",
    "ShapeError",
    "System",
    "SystemTopology",
    "Tolerances",
    "TrainConfig",
    "TrainResult",
    "Trajectory",
    "TrainingError",
    "assemble_mass_matrix",
    "build_model",
    "build_system",
    "constrained_dynamics",
    "constrained_hamiltonian_dynamics",
    "constrained_lagrangian_dynamics",
    "constraint_rmse_curve",
    "convert_flavor",
    "disable_system_constraints",
    "energy",
    "energy_error",
    "evaluate_model",
    "evaluate_rollout",
    "flatten_matrix",
    "generate_dataset",
    "geometric_mean",
    "integrate_adaptive",
    "load_dataset",
    "projection_matrix",
    "relative_error",
    "rk4_step",
    "rollout_fixed",
    "save_dataset",
    "system_names",
    "train",
    "unflatten_matrix",
    "__version__",
]
