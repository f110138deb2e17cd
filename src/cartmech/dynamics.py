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

Each flavor is written once, as constrained_{hamiltonian,lagrangian}_field,
from four inputs: how M^-1 is applied, grad V, G and D.  The ground truth
below calls them with arrays (G and D from the constraint set's cached affine
map, M^-1 from bodies.apply_inverse_mass); CHNN and CLNN call them with tape
nodes.  Their one solve, autodiff.spd_solve, carries the one degeneracy test:
a Cholesky pivot ratio of the SPD K (DegenerateConfigurationError below
autodiff.PIVOT_RATIO_LIMIT).  The 2C x 2C matrix has determinant det(K)^2,
so the test on K covers the full system.

Every field takes flat states with leading batch axes, (..., 2dn) ->
(..., 2dn); a single state (2dn,) is the case without them.  The batch is
carried through stacked matrix products (one BLAS call per row), stacked
LAPACK solves and element-wise arithmetic, so each row is computed exactly
as it would be alone, and the guard raises if any row is degenerate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .bodies import MassModel, apply_inverse_mass, hamiltonian_kinetic, kinetic_energy
from .states import HAMILTONIAN, LAGRANGIAN, flatten_matrix, symplectic_apply, unflatten_matrix
from .topology import SystemTopology


class ZeroPotential:
    def value(self, X: np.ndarray):
        return np.zeros(X.shape[:-2])[()]

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


def _col(x):
    """Rows (..., c) as column stacks (..., c, 1), one matrix product per row."""
    return ad.reshape(x, x.shape + (1,))


def _flat(xdot, pdot):
    """Two column stacks (..., dn, 1) as flat rows (..., 2dn)."""
    both = ad.concat([xdot, pdot], axis=-2)
    return ad.reshape(both, both.shape[:-2] + (both.shape[-2],))


def constrained_hamiltonian_field(minv, grad_V, v, G, D):
    """zdot = (xdot, pdot) of the projected Hamiltonian flow, in C x C form.

    minv applies M^-1 on the point index of flat rows (..., dn) and of
    Jacobians (..., C, dn); grad_V is grad_X V and v = M^-1 p, both (..., dn);
    G = DPhi(x) and D = D_x phidot(v) are (..., C, dn).  Arrays or tape nodes.
    """
    v, grad_V = _col(v), _col(grad_V)
    if G.shape[-2] == 0:
        return _flat(v, ad.neg(grad_V))
    H = minv(G)
    Ht = ad.transpose(H)
    DHt = ad.matmul(D, Ht)
    # one guarded solve: K^-1 [G v, D v - H grad V, S] with S = D H^T - H D^T
    rhs = ad.concat([ad.matmul(G, v), ad.sub(ad.matmul(D, v), ad.matmul(H, grad_V)),
                     ad.sub(DHt, ad.transpose(DHt))], axis=-1)
    W = ad.spd_solve(ad.matmul(G, Ht), rhs)
    lam2 = ad.neg(ad.narrow(W, -1, 0, 1))
    lam1 = ad.add(ad.narrow(W, -1, 1, 1), ad.matmul(ad.narrow(W, -1, 2, G.shape[-2]), lam2))
    xdot = ad.add(v, ad.matmul(Ht, lam2))
    pdot = ad.sub(ad.sub(ad.neg(grad_V), ad.matmul(ad.transpose(G), lam1)),
                  ad.matmul(ad.transpose(D), lam2))
    return _flat(xdot, pdot)


def constrained_lagrangian_field(minv, grad_V, v, G, D):
    """(xddot, lambda) with xddot = M^-1 f - H^T K^-1 (H f + D v), f = -grad V.

    Same inputs as constrained_hamiltonian_field, with v the velocity.
    """
    minv_f = minv(ad.neg(grad_V))
    if G.shape[-2] == 0:
        return minv_f, np.zeros(G.shape[:-1])
    Ht = ad.transpose(minv(G))
    rhs = ad.add(ad.matmul(G, _col(minv_f)), ad.matmul(D, _col(v)))
    lam = ad.spd_solve(ad.matmul(G, Ht), rhs)
    xddot = ad.sub(minv_f, ad.reshape(ad.matmul(Ht, lam), minv_f.shape))
    return xddot, ad.reshape(lam, rhs.shape[:-1])


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
    cs = ctx.topology.constraint_set
    return constrained_hamiltonian_field(partial(apply_inverse_mass, ctx.mass), grad_V, v,
                                         cs.dphi(z[..., :dn]), cs.dphidot_x(v))


def projection_matrix(dpsi: np.ndarray) -> np.ndarray:
    """P = I - J DPsi^T [DPsi J DPsi^T]^-1 DPsi for a (2C, 2dn) constraint Jacobian.

    The explicit 2C x 2C form of the field, for tests; its K block passes the
    field's pivot test (det of the 2C x 2C matrix is det(K)^2).
    """
    two_dn = dpsi.shape[1]
    C = dpsi.shape[0] // 2
    if C == 0:
        return np.eye(two_dn)
    JDPsiT = symplectic_apply(dpsi).T  # J applied to each row of DPsi
    A = dpsi @ JDPsiT
    ad.check_pivots(A[:C, C:])
    return np.eye(two_dn) - JDPsiT @ np.linalg.solve(A, dpsi)


def constrained_lagrangian_dynamics(ctx: DynamicsContext, X: np.ndarray,
                                    V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations Xddot of shape (..., d, n) and multipliers lambda (..., C)."""
    v = flatten_matrix(V)
    cs = ctx.topology.constraint_set
    xddot, lam = constrained_lagrangian_field(
        partial(apply_inverse_mass, ctx.mass), flatten_matrix(ctx.potential.grad(X)), v,
        cs.dphi(flatten_matrix(X)), cs.dphidot_x(v))
    return unflatten_matrix(xddot, ctx.dim), lam


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


def energy(ctx: DynamicsContext, z: np.ndarray):
    """Total energy H = T + V of flat states (..., 2dn) in the context's
    flavor, shape (...); a scalar for one state."""
    X, Z = ctx.split(np.asarray(z, dtype=float))
    if ctx.flavor == HAMILTONIAN:
        T = hamiltonian_kinetic(Z, ctx.mass)
    else:
        T = kinetic_energy(Z, ctx.mass)
    return T + ctx.potential.value(X)
