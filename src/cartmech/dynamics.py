"""Constrained dynamics in both Hamiltonian and Lagrangian form.

Hamiltonian flavor works on z = (vec(X), vec(P)) with
    zdot = J [grad H + DPsi^T lambda],   lambda = -[DPsi J DPsi^T]^-1 DPsi J grad H,
which equals the projected flow P J grad H with
    P = I - J DPsi^T [DPsi J DPsi^T]^-1 DPsi.

The 2C x 2C system has a C x C core.  With v = M^-1 p, G = DPhi,
D = D_x phidot(v), H = G M^-1 (a matrix, not the Hamiltonian),
K = G H^T = G M^-1 G^T and S = D H^T - H D^T,
    DPsi J DPsi^T = [[0, K], [-K, S]],
so the multipliers lambda = (lambda_1, lambda_2) of the phi and phidot rows
and the field need only K:
    lambda_2 = -K^-1 G v
    lambda_1 = K^-1 (S lambda_2 + D v - H grad V)
    xdot = v + H^T lambda_2
    pdot = -grad V - G^T lambda_1 - D^T lambda_2.

Lagrangian flavor works on (vec(X), vec(V)) with the acceleration
    xddot = M^-1 f - H^T K^-1 (H f + D v),   f = -grad_X V.

Both flavors solve with K alone, through checked_solve: a pivoted LU
factorization (numpy.linalg.solve) behind an SVD condition estimate, where a
value above COND_LIMIT raises DegenerateConfigurationError.  The 2C x 2C
matrix has determinant det(K)^2, so the guard on K fires exactly where the
full system is singular.

Every field takes flat states with leading batch axes, (..., 2dn) ->
(..., 2dn); a single state (2dn,) is the case without them.  The batch is
carried through stacked matrix products (one BLAS call per row), stacked
LAPACK solves and element-wise arithmetic, so each row is computed exactly
as it would be alone, and the guard raises if any row is degenerate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bodies import MassModel, apply_inverse_mass, hamiltonian_kinetic, kinetic_energy
from .constraints import jacobian_phi, jacobian_phidot_x
from .errors import DegenerateConfigurationError
from .states import HAMILTONIAN, LAGRANGIAN, flatten_matrix, symplectic_apply, unflatten_matrix
from .topology import SystemTopology

COND_LIMIT = 1e12


class ZeroPotential:
    def value(self, X: np.ndarray) -> float:
        return 0.0

    def grad(self, X: np.ndarray) -> np.ndarray:
        return np.zeros_like(X)


@dataclass(frozen=True)
class DynamicsContext:
    """Topology + mass model + potential + state flavor."""

    topology: SystemTopology
    mass: MassModel
    potential: object = ZeroPotential()
    flavor: str = HAMILTONIAN

    @property
    def dim(self) -> int:
        return self.topology.dim

    def with_flavor(self, flavor: str) -> "DynamicsContext":
        return replace(self, flavor=flavor)

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, P-or-V) matrices of shape (..., d, n) from flat states (..., 2dn)."""
        dn = z.shape[-1] // 2
        return unflatten_matrix(z[..., :dn], self.dim), unflatten_matrix(z[..., dn:], self.dim)


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for stacks of matrices (..., r, c) and vectors (..., c).

    Every row is its own matrix-vector product, so its rounding does not
    depend on the size or content of the batch around it.
    """
    return (M @ x[..., None])[..., 0]


def checked_solve(A: np.ndarray, B: np.ndarray, what: str = "constraint system") -> np.ndarray:
    """LU solves of (..., C, C) systems, each guarded by an SVD condition estimate."""
    if A.shape[-1] == 0:
        return np.zeros(B.shape)
    cond = np.linalg.cond(A)
    bad = ~(cond <= COND_LIMIT)  # also catches nan
    if np.count_nonzero(bad):
        raise DegenerateConfigurationError(f"{what} is numerically singular",
                                           cond=float(np.asarray(cond)[bad].flat[0]))
    return np.linalg.solve(A, B)


def grad_hamiltonian(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """grad_z H = (grad_X V, vec(P M^-1)) for H = Tr(P M^-1 P^T)/2 + V(X)."""
    z = np.asarray(z, dtype=float)
    X, P = ctx.split(z)
    return np.concatenate([flatten_matrix(ctx.potential.grad(X)),
                           flatten_matrix(P @ ctx.mass.inverse)], axis=-1)


def unconstrained_dynamics(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """Free symplectic flow J grad H."""
    return symplectic_apply(grad_hamiltonian(ctx, z))


def constrained_hamiltonian_dynamics(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """zdot = J (grad H + DPsi^T lambda); identical to P J grad H."""
    z = np.asarray(z, dtype=float)
    g = grad_hamiltonian(ctx, z)
    dn = g.shape[-1] // 2
    grad_V, v = g[..., :dn], g[..., dn:]
    X = unflatten_matrix(z[..., :dn], ctx.dim)
    G = jacobian_phi(ctx.topology, X)
    if G.shape[-2] == 0:
        return symplectic_apply(g)
    D = jacobian_phidot_x(ctx.topology, X, unflatten_matrix(v, ctx.dim))
    H = apply_inverse_mass(ctx.mass, G)
    Gt, Dt, Ht = G.mT, D.mT, H.mT
    # one guarded solve: K^-1 [G v, D v - H grad V, S]
    rhs = np.concatenate([_mv(G, v)[..., None], (_mv(D, v) - _mv(H, grad_V))[..., None],
                          D @ Ht - H @ Dt], axis=-1)
    W = checked_solve(G @ Ht, rhs)
    lam2 = -W[..., 0]
    lam1 = W[..., 1] + _mv(W[..., 2:], lam2)
    return np.concatenate([v + _mv(Ht, lam2), -grad_V - _mv(Gt, lam1) - _mv(Dt, lam2)], axis=-1)


def _apply_j_rows(DPsi: np.ndarray) -> np.ndarray:
    """J DPsi^T as a (2dn, 2C) matrix: J applied to each row of DPsi."""
    dn = DPsi.shape[1] // 2
    out = np.empty_like(DPsi.T)
    out[:dn] = DPsi[:, dn:].T
    out[dn:] = -DPsi[:, :dn].T
    return out


def projection_matrix(dpsi: np.ndarray) -> np.ndarray:
    """P = I - J DPsi^T [DPsi J DPsi^T]^-1 DPsi for a (2C, 2dn) constraint Jacobian.

    The explicit 2C x 2C form of the field; tests compare against it.
    """
    two_dn = dpsi.shape[1]
    if dpsi.shape[0] == 0:
        return np.eye(two_dn)
    JDPsiT = _apply_j_rows(dpsi)
    A = dpsi @ JDPsiT
    return np.eye(two_dn) - JDPsiT @ checked_solve(A, dpsi)


def constrained_lagrangian_dynamics(ctx: DynamicsContext, X: np.ndarray,
                                    V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations Xddot of shape (..., d, n) and multipliers lambda (..., C)."""
    f = -flatten_matrix(ctx.potential.grad(X))
    minv_f = apply_inverse_mass(ctx.mass, f)
    G = jacobian_phi(ctx.topology, X)
    if G.shape[-2] == 0:
        return unflatten_matrix(minv_f, ctx.dim), np.zeros(G.shape[:-1])
    Ht = apply_inverse_mass(ctx.mass, G).mT
    rhs = _mv(G, minv_f) + _mv(jacobian_phidot_x(ctx.topology, X, V), flatten_matrix(V))
    lam = checked_solve(G @ Ht, rhs[..., None])[..., 0]
    return unflatten_matrix(minv_f - _mv(Ht, lam), ctx.dim), lam


def constrained_dynamics(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """Flavor dispatch z -> zdot for integrator callbacks, per row of (..., 2dn)."""
    if ctx.flavor == HAMILTONIAN:
        return constrained_hamiltonian_dynamics(ctx, z)
    z = np.asarray(z, dtype=float)
    X, V = ctx.split(z)
    xddot, _ = constrained_lagrangian_dynamics(ctx, X, V)
    return np.concatenate([z[..., z.shape[-1] // 2:], flatten_matrix(xddot)], axis=-1)


def convert_flavor(ctx: DynamicsContext, z: np.ndarray, to: str) -> np.ndarray:
    """Map flat states (..., 2dn) between (x, p) and (x, v) using the context's mass."""
    z = np.asarray(z, dtype=float)
    if to == ctx.flavor:
        return z.copy()
    if to == LAGRANGIAN:
        M = ctx.mass.inverse
    elif to == HAMILTONIAN:
        M = ctx.mass.matrix
    else:
        raise ValueError(f"unknown flavor {to!r}")
    X, Z = ctx.split(z)
    return np.concatenate([flatten_matrix(X), flatten_matrix(Z @ M)], axis=-1)


def energy(ctx: DynamicsContext, z: np.ndarray) -> float:
    """Total energy H = T + V of a flat state in the context's flavor."""
    X, Z = ctx.split(z)
    if ctx.flavor == HAMILTONIAN:
        T = hamiltonian_kinetic(Z, ctx.mass)
    else:
        T = kinetic_energy(Z, ctx.mass)
    return T + float(ctx.potential.value(X))
