"""Phase-space states and the flat vector layout.

A state is a pair of (d, n) matrices: positions X and either momenta P
(Hamiltonian flavor) or velocities V (Lagrangian flavor).  The flat layout is
z = (vec(X), vec(P or V)) with column-major vec, i.e. grouped point by point,
and the symplectic form acts on it as J = [[0, I_dn], [-I_dn, 0]].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

HAMILTONIAN = "hamiltonian"
LAGRANGIAN = "lagrangian"


@dataclass(frozen=True)
class PhaseState:
    """Immutable (X, P-or-V) pair with a flavor tag."""

    X: np.ndarray
    Z: np.ndarray
    flavor: str = HAMILTONIAN

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        if X.shape != Z.shape or X.ndim != 2:
            raise ShapeError(f"state matrices must share a (d, n) shape, got {X.shape} and {Z.shape}")
        if self.flavor not in (HAMILTONIAN, LAGRANGIAN):
            raise ShapeError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @property
    def n_points(self) -> int:
        return self.X.shape[1]

    def flat(self) -> np.ndarray:
        return np.concatenate([flatten_matrix(self.X), flatten_matrix(self.Z)])


def flatten_matrix(A: np.ndarray) -> np.ndarray:
    """Column-major vec of (d, n) matrices: point 0's coords, then point 1's, ...

    Leading axes of a (..., d, n) stack are kept: the result is (..., d*n).
    """
    A = np.asarray(A)
    return A.mT.reshape(A.shape[:-2] + (-1,))


def unflatten_matrix(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of flatten_matrix on the last axis; infers the point count from its length."""
    v = np.asarray(v)
    if v.shape[-1] % dim:
        raise ShapeError(f"flat length {v.shape[-1]} is not a multiple of dim {dim}")
    return v.reshape(v.shape[:-1] + (-1, dim)).mT


def symplectic_apply(z: np.ndarray) -> np.ndarray:
    """J z for the flat layout: (a, b) -> (b, -a).  Works on (.., 2dn) arrays."""
    z = np.asarray(z)
    half = z.shape[-1] // 2
    return np.concatenate([z[..., half:], -z[..., :half]], axis=-1)
