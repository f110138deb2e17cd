"""Rigid bodies embedded in Cartesian coordinates.

An extended body in d dimensions is represented by d+1 points: the center of
mass followed by the tips of its principal axes.  With X = [x_cm, x_1, .., x_d]
(points as columns) and Delta the difference matrix mapping X to the rotation
R = X Delta, the kinetic energy is Tr(Xdot M Xdot^T)/2 for a constant per-body
mass block M built from the total mass m and the principal second moments
lambda_i.  Point masses are the 0-dimensional special case with M = [m].

mass_blocks and block_diag are written once in autodiff ops: the ground truth
assembles its M and M^-1 from them with each BodySpec's arrays, and CHNN and
CLNN build their learned M and M^-1 from them with tape nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError, finite_positive


@dataclass(frozen=True)
class BodySpec:
    """One rigid body: a point mass (ndim=0) or an extended body (ndim=d).

    moments holds the principal second moments lambda_1..lambda_ndim of the
    mass distribution about the center of mass; empty for point masses.
    """

    mass: float
    moments: tuple[float, ...] = ()

    def __post_init__(self):
        finite_positive("mass", (self.mass,))
        object.__setattr__(self, "moments", finite_positive("moments", self.moments))

    @staticmethod
    def point(mass: float = 1.0) -> "BodySpec":
        return BodySpec(mass=float(mass))

    @staticmethod
    def rigid(mass: float, moments) -> "BodySpec":
        return BodySpec(mass=float(mass), moments=tuple(moments))

    @property
    def ndim(self) -> int:
        """Intrinsic dimension: 0 for a point mass, d for an extended body."""
        return len(self.moments)

    @property
    def n_points(self) -> int:
        return self.ndim + 1 if self.ndim else 1


def delta_matrix(ndim: int) -> np.ndarray:
    """Difference matrix Delta of shape (ndim+1, ndim) with R = X Delta.

    Column j of Delta selects (x_j - x_cm), so Delta = [-1; I].
    """
    if ndim < 1:
        raise ShapeError("delta_matrix needs ndim >= 1")
    return np.vstack([-np.ones((1, ndim)), np.eye(ndim)])


def body_point_coeffs(body: BodySpec, c) -> np.ndarray:
    """Coefficient vector c_tilde with world position X c_tilde for body-frame c.

    c has length body.ndim (empty for a point mass, where c_tilde = [1]).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.size != body.ndim:
        raise ShapeError(f"body-frame point has {c.size} coords, body is {body.ndim}-dimensional")
    if body.ndim == 0:
        return np.ones(1)
    e0 = np.zeros(body.ndim + 1)
    e0[0] = 1.0
    return e0 + delta_matrix(body.ndim) @ c


def mass_blocks(m, lam=None) -> tuple:
    """Per-body mass block M and its closed-form inverse, as arrays or tape nodes.

    m is the total mass and lam the principal second moments (d,) of an
    extended body, None for a point mass, where M = [m].  Otherwise
        M = m [[1 + sum(lam), -lam^T], [-lam, diag(lam)]]
        M^-1 = (ones + diag(0, 1/lam)) / m
    which reproduces Tr(Xdot M Xdot^T)/2 = m|xdot_cm|^2/2 + m Tr(Rdot S Rdot^T)/2
    with S = diag(lam); both are SPD for any positive m and lam.
    """
    if lam is None:
        return ad.reshape(m, (1, 1)), ad.reshape(ad.div(1.0, m), (1, 1))
    d = lam.shape[0]
    top = ad.concat([ad.reshape(ad.add(1.0, ad.reduce_sum(lam)), (1, 1)),
                     ad.reshape(ad.neg(lam), (1, d))], axis=1)
    bottom = ad.concat([ad.reshape(ad.neg(lam), (d, 1)), ad.mul(lam, np.eye(d))], axis=1)
    inv_diag = ad.concat([np.zeros(1), ad.div(1.0, lam)], axis=0)
    inv = ad.add(np.ones((d + 1, d + 1)), ad.mul(inv_diag, np.eye(d + 1)))
    return ad.mul(ad.concat([top, bottom], axis=0), m), ad.div(inv, m)


def block_diag(blocks):
    """Blocks B_k on one diagonal, arrays or tape nodes: sum of P_k^T B_k P_k,
    P_k rows of the identity."""
    eye = np.eye(sum(block.shape[0] for block in blocks))
    out, at = None, 0
    for block in blocks:
        place = eye[at:at + block.shape[0]]
        term = ad.matmul(ad.matmul(place.T, block), place)
        out = term if out is None else ad.add(out, term)
        at += block.shape[0]
    return out


@dataclass(frozen=True)
class MassModel:
    """Assembled block-diagonal mass matrix over all points of a system."""

    matrix: np.ndarray
    inverse: np.ndarray


def assemble_mass_matrix(bodies) -> MassModel:
    """Block-diagonal M and its closed-form inverse for a list of BodySpec."""
    blocks = [mass_blocks(b.mass, np.asarray(b.moments) if b.ndim else None) for b in bodies]
    return MassModel(*(block_diag(side) for side in zip(*blocks)))


def kinetic_energy(V: np.ndarray, mass: MassModel):
    """T = Tr(V M V^T)/2 for velocity matrices V of shape (..., d, n_points)."""
    return 0.5 * np.trace(V @ mass.matrix @ V.mT, axis1=-2, axis2=-1)


def hamiltonian_kinetic(P: np.ndarray, mass: MassModel):
    """T = Tr(P M^-1 P^T)/2 for momentum matrices P of shape (..., d, n_points)."""
    return 0.5 * np.trace(P @ mass.inverse @ P.mT, axis1=-2, axis2=-1)


def velocity_to_momentum(V: np.ndarray, mass: MassModel) -> np.ndarray:
    """P = V M (points as columns, so M acts on the point index)."""
    return V @ mass.matrix


def apply_on_points(matrix, w):
    """(matrix kron I_d) w: an (n, n) matrix acting on the point index of flat
    point-major rows w (..., n*d), arrays or tape nodes; one matmul for all
    rows of a (C, dn) Jacobian."""
    n = matrix.shape[-1]
    shape = w.shape
    return (matrix @ w.reshape(shape[:-1] + (n, shape[-1] // n))).reshape(shape)


def apply_inverse_mass(mass: MassModel, w: np.ndarray) -> np.ndarray:
    """(M^-1 kron I_d) w for flat point-major vectors w of shape (..., n*d)."""
    return apply_on_points(mass.inverse.T, np.asarray(w))
