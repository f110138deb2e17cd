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
from five inputs: the (n, n) matrix M^-1 (applied on the point index with
bodies.apply_on_points), grad V, v, G and D, and so are the flows around
them (hamiltonian_flow, lagrangian_flow) and the flavor change.  The ground
truth below calls them with arrays (its mass, grad V on flat positions);
CHNN and CLNN call them with tape nodes (their learned mass, their
potential's pullback).  Either way one numpy forward function per flavor
does the work, so a field evaluation on arrays costs its numpy work alone.
On the tape the field is one fused node that keeps the forward's
intermediates, and its VJP is written in closed form below: one more solve
with the stored K and a few stacked products, recorded as one adjoint op
(first order only; the second order of training lives in the learned
potential's mlp_vjp).  The forward's solve, autodiff.spd_solve, carries the
one degeneracy test: a Cholesky pivot ratio of the SPD K
(DegenerateConfigurationError below autodiff.PIVOT_RATIO_LIMIT).  The
2C x 2C matrix has determinant det(K)^2, so the test on K covers the full
system.

Every field takes flat states with leading batch axes, (..., 2dn) ->
(..., 2dn); a single state (2dn,) is the case without them.  The batch is
carried through stacked matrix products (one BLAS call per row), stacked
LAPACK solves and element-wise arithmetic, so each row is computed exactly
as it would be alone, and the guard raises if any row is degenerate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .bodies import MassModel, apply_on_points, hamiltonian_kinetic, kinetic_energy
from .states import HAMILTONIAN, LAGRANGIAN, flatten_matrix, symplectic_apply, unflatten_matrix
from .topology import SystemTopology


@dataclass(frozen=True)
class DynamicsContext:
    """Topology + mass model + potential + state flavor.  The potential is
    required: systems.SumPotential(), the empty sum, is the zero one."""

    topology: SystemTopology
    mass: MassModel
    potential: object
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

    def grad_potential(self, x: np.ndarray) -> np.ndarray:
        """grad_x V at flat positions x (..., dn), flat like x."""
        return flatten_matrix(self.potential.grad(unflatten_matrix(x, self.dim)))


def _col(x):
    """Rows (..., c) as column stacks (..., c, 1), one matrix product per row."""
    return x.reshape(x.shape + (1,))


def _flat(xdot, pdot):
    """Two column stacks (..., dn, 1) as flat rows (..., 2dn)."""
    both = ad.concat([xdot, pdot], axis=-2)
    return both.reshape(both.shape[:-1])


def _hamiltonian_forward(Minv, grad_V, v, G, D):
    """The Hamiltonian field on arrays and its intermediates (H, K, W, lam1, lam2)."""
    v, grad_V = _col(v), _col(grad_V)
    H = apply_on_points(Minv, G)
    Ht = H.mT
    DHt = D @ Ht
    K = G @ Ht
    # one guarded solve: K^-1 [G v, D v - H grad V, S] with S = D H^T - H D^T
    W = ad.spd_solve(K, np.concatenate([G @ v, D @ v - H @ grad_V, DHt - DHt.mT], axis=-1))
    lam2 = -W[..., :1]
    lam1 = W[..., 1:2] + W[..., 2:] @ lam2
    xdot = v + Ht @ lam2
    pdot = -grad_V - G.mT @ lam1 - D.mT @ lam2
    return _flat(xdot, pdot), (H, K, W, lam1, lam2)


def _hamiltonian_vjp(args, saved, g):
    """Reverse of _hamiltonian_forward for the adjoint g = (a, b) of (xdot, pdot).

    Back through xdot = v + H^T lam2 and pdot = -grad V - G^T lam1 - D^T lam2,
    lam1 = W1 + W2 lam2 and lam2 = -W0, then W = K^-1 rhs (adjoint
    R = K^-1 Wbar, as K is symmetric, and Kbar = -R W^T), the three rhs
    blocks, S = E - E^T with E = D H^T, K = G H^T and H = G M^-T (rows
    M^-1 G_r).
    """
    Minv, grad_V, v, G, D = args
    H, K, W, lam1, lam2 = saved
    dn = v.shape[-1]
    a, b, v, grad_V = _col(g[..., :dn]), _col(g[..., dn:]), _col(v), _col(grad_V)
    lam1_bar = -(G @ b)
    lam2_bar = H @ a - D @ b + W[..., 2:].mT @ lam1_bar
    R = np.linalg.solve(K, np.concatenate([-lam2_bar, lam1_bar, lam1_bar @ lam2.mT], axis=-1))
    K_bar = -(R @ W.mT)
    r0, r1 = R[..., :1], R[..., 1:2]
    E_bar = R[..., 2:] - R[..., 2:].mT
    H_bar = lam2 @ a.mT - r1 @ grad_V.mT + E_bar.mT @ D + K_bar.mT @ G
    return (_points_adjoint(H_bar, G, len(Minv)),
            (-b - H.mT @ r1)[..., 0],
            (a + G.mT @ r0 + D.mT @ r1)[..., 0],
            r0 @ v.mT - lam1 @ b.mT + K_bar @ H + apply_on_points(Minv.mT, H_bar),
            r1 @ v.mT - lam2 @ b.mT + E_bar @ H)


def _lagrangian_forward(Minv, grad_V, v, G, D):
    """The Lagrangian acceleration on arrays and its intermediates
    (lam, H, K, M^-1 f), lam as columns (..., C, 1)."""
    minv_f = apply_on_points(Minv, -grad_V)
    H = apply_on_points(Minv, G)
    Ht = H.mT
    K = G @ Ht
    lam = ad.spd_solve(K, G @ _col(minv_f) + D @ _col(v))
    return minv_f - (Ht @ lam).reshape(minv_f.shape), (lam, H, K, minv_f)


def _lagrangian_vjp(args, saved, g):
    """Reverse of _lagrangian_forward for the adjoint g of xddot: back through
    xddot = M^-1 f - H^T lam, lam = K^-1 (G M^-1 f + D v) (adjoint
    r = K^-1 lambar, Kbar = -r lam^T), K = G H^T, H = G M^-T and
    M^-1 f = -M^-1 grad V."""
    Minv, grad_V, v, G, D = args
    lam, H, K, minv_f = saved
    a = _col(g)
    r = np.linalg.solve(K, -(H @ a))
    K_bar = -(r @ lam.mT)
    f_bar = g + (G.mT @ r)[..., 0]
    H_bar = K_bar.mT @ G - lam @ a.mT
    return (_points_adjoint(H_bar, G, len(Minv)) - _points_adjoint(f_bar, grad_V, len(Minv)),
            -apply_on_points(Minv.mT, f_bar),
            (D.mT @ r)[..., 0],
            r @ _col(minv_f).mT + K_bar @ H + apply_on_points(Minv.mT, H_bar),
            r @ _col(v).mT)


def _points_adjoint(out_bar, w, n: int):
    """Adjoint of the (n, n) matrix in apply_on_points(matrix, w) for the
    output adjoint out_bar (..., n*d): the sum over rows of out_bar_r w_r^T,
    both as (n, d) point matrices."""
    rows = out_bar.reshape(-1, n, out_bar.shape[-1] // n)
    return np.tensordot(rows, np.broadcast_to(w, out_bar.shape).reshape(rows.shape),
                        axes=([0, 2], [0, 2]))


ad.define_vjp("hamiltonian_field", _hamiltonian_vjp)
ad.define_vjp("lagrangian_field", _lagrangian_vjp)


def constrained_hamiltonian_field(Minv, grad_V, v, G, D):
    """zdot = (xdot, pdot) of the projected Hamiltonian flow, in C x C form.

    Minv is the (n, n) inverse mass on the point index; grad_V is grad_X V
    and v = M^-1 p, both (..., dn); G = DPhi(x) and D = D_x phidot(v) are
    (..., C, dn).  Arrays, or tape nodes: then one `hamiltonian_field` node.
    A free system is C = 0 and takes the same path, with empty K and W.
    """
    return ad.fused("hamiltonian_field", _hamiltonian_forward, (Minv, grad_V, v, G, D))[0]


def constrained_lagrangian_field(Minv, grad_V, v, G, D):
    """(xddot, lambda) with xddot = M^-1 f - H^T K^-1 (H f + D v), f = -grad V.

    Same inputs as constrained_hamiltonian_field, with v the velocity.  On
    the tape xddot is one `lagrangian_field` node and lambda its array,
    which is not differentiated.  C = 0 rows take the same path.
    """
    xddot, (lam, *_) = ad.fused("lagrangian_field", _lagrangian_forward, (Minv, grad_V, v, G, D))
    return xddot, lam.reshape(lam.shape[:-1])


def grad_hamiltonian(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """grad_z H = (grad_X V, vec(P M^-1)) for H = Tr(P M^-1 P^T)/2 + V(X)."""
    z = np.asarray(z, dtype=float)
    X, P = ctx.split(z)
    return np.concatenate([flatten_matrix(ctx.potential.grad(X)),
                           flatten_matrix(P @ ctx.mass.inverse)], axis=-1)


def unconstrained_dynamics(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """Free symplectic flow J grad H."""
    return symplectic_apply(grad_hamiltonian(ctx, z))


def hamiltonian_flow(cs, Minv, grad_V, z):
    """zdot at flat states z = (x, p) (..., 2dn): v = M^-1 p, then the field,
    for the constraint set cs, the (n, n) M^-1 and grad_V(x) -> grad_x V."""
    dn = z.shape[-1] // 2
    x, p = ad.narrow(z, -1, 0, dn), ad.narrow(z, -1, dn, dn)
    v = apply_on_points(Minv, p)
    return constrained_hamiltonian_field(Minv, grad_V(x), v, cs.dphi(x), cs.dphidot_x(v))


def lagrangian_flow(cs, Minv, grad_V, w):
    """(v, xddot) at flat states w = (x, v); the inputs are hamiltonian_flow's."""
    dn = w.shape[-1] // 2
    x, v = ad.narrow(w, -1, 0, dn), ad.narrow(w, -1, dn, dn)
    xddot, _ = constrained_lagrangian_field(Minv, grad_V(x), v, cs.dphi(x), cs.dphidot_x(v))
    return ad.concat([v, xddot], axis=-1)


def change_flavor(M, z):
    """(x, M z) at flat states (x, z), the (n, n) M on the point index."""
    dn = z.shape[-1] // 2
    x, w = ad.narrow(z, -1, 0, dn), ad.narrow(z, -1, dn, dn)
    return ad.concat([x, apply_on_points(M, w)], axis=-1)


def projection_matrix(dpsi: np.ndarray) -> np.ndarray:
    """P = I - J DPsi^T [DPsi J DPsi^T]^-1 DPsi for a (2C, 2dn) constraint Jacobian.

    The explicit 2C x 2C form of the field, for tests; its K block passes the
    field's pivot test (det of the 2C x 2C matrix is det(K)^2).
    """
    two_dn = dpsi.shape[1]
    C = dpsi.shape[0] // 2
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
        ctx.mass.inverse.T, flatten_matrix(ctx.potential.grad(X)), v,
        cs.dphi(flatten_matrix(X)), cs.dphidot_x(v))
    return unflatten_matrix(xddot, ctx.dim), lam


def constrained_dynamics(ctx: DynamicsContext, z: np.ndarray) -> np.ndarray:
    """Flavor dispatch z -> zdot for integrator callbacks, per row of (..., 2dn).

    The Hamiltonian flow is zdot = J (grad H + DPsi^T lambda), identical to
    P J grad H; the Lagrangian one is (v, xddot).
    """
    flow = hamiltonian_flow if ctx.flavor == HAMILTONIAN else lagrangian_flow
    return flow(ctx.topology.constraint_set, ctx.mass.inverse.T, ctx.grad_potential,
                np.asarray(z, dtype=float))


def convert_flavor(ctx: DynamicsContext, z: np.ndarray, to: str) -> np.ndarray:
    """Map flat states (..., 2dn) between (x, p) and (x, v) using the context's mass."""
    z = np.asarray(z, dtype=float)
    if to not in (HAMILTONIAN, LAGRANGIAN):
        raise ValueError(f"unknown flavor {to!r}")
    if to == ctx.flavor:
        return z.copy()
    return change_flavor((ctx.mass.inverse if to == LAGRANGIAN else ctx.mass.matrix).T, z)


def energy(ctx: DynamicsContext, z: np.ndarray):
    """Total energy H = T + V of flat states (..., 2dn) in the context's
    flavor, shape (...); a scalar for one state."""
    X, Z = ctx.split(np.asarray(z, dtype=float))
    if ctx.flavor == HAMILTONIAN:
        T = hamiltonian_kinetic(Z, ctx.mass)
    else:
        T = kinetic_energy(Z, ctx.mass)
    return T + ctx.potential.value(X)
