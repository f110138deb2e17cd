"""Phase-space states and the flat vector layout.

A state is a pair of (d, n) matrices: positions X and either momenta P
(Hamiltonian flavor) or velocities V (Lagrangian flavor).  The flat layout is
z = (vec(X), vec(P or V)) with column-major vec, i.e. grouped point by point,
and the symplectic form acts on it as J = [[0, I_dn], [-I_dn, 0]].  Many
states stack on leading batch axes, (..., d, n) and (..., 2dn).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError

HAMILTONIAN = "hamiltonian"
LAGRANGIAN = "lagrangian"


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
