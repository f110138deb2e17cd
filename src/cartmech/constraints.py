"""Holonomic constraints and their analytic Jacobians.

Four declarable forms, all reducing to two compiled row kinds:

* Link / Rigidity: one row fixing a squared distance, phi = |x_i - x_j|^2 - s.
  Rigidity rows (all point pairs inside one extended body) are auto-populated
  at topology construction.
* Joint / Axis: d affine rows matching a body-frame point (X c_tilde) or axis
  direction (X Delta u) across two bodies, or pinning one to a world anchor.

Anchors are virtual fixed points and contribute zero Jacobian columns.

Every row is at most quadratic in x, so DPhi is affine in x:
vec(DPhi)(x) = A x + b.  ConstraintSet.affine_maps builds (A, b) once per
topology, and that map is the one constraint Jacobian: DPhi(x) is
(A x + b) reshaped to (C, dn), and because A stacks the symmetric Hessians of
the rows, D_x phidot at velocity xdot is (A xdot) reshaped the same way.
ConstraintSet.dphi and dphidot_x compute both from flat positions or
velocities with leading batch axes, as arrays or as tape nodes.  The
velocity-level constraint is phidot = DPhi(X) vec(Xdot), and the first-order
system Psi = (phi, phidot) has the block Jacobian
    DPsi = [[DPhi, 0], [D_x phidot, D_p phidot]],
with D_p phidot = DPhi contracted with M^-1 through Xdot = P M^-1.

Flat column indexing matches states.flatten_matrix: column p*d + c is
coordinate c of point p.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bodies import apply_inverse_mass, body_point_coeffs, delta_matrix
from .errors import ShapeError
from .states import flatten_matrix, unflatten_matrix


@dataclass(frozen=True)
class PointRef:
    """Reference to a global point index or a world anchor index."""

    index: int
    is_anchor: bool = False


def point(i: int) -> PointRef:
    return PointRef(int(i), False)


def anchor(i: int) -> PointRef:
    return PointRef(int(i), True)


@dataclass(frozen=True)
class Link:
    """Squared-distance constraint |x_a - x_b|^2 = length^2 between two points."""

    a: PointRef
    b: PointRef
    length: float = 1.0


@dataclass(frozen=True)
class Rigidity:
    """Internal squared distance of one extended body's point pair (local indices)."""

    body: int
    pair: tuple[int, int]
    sq_dist: float


@dataclass(frozen=True)
class Joint:
    """Pin body-frame point c_a of body_a to c_b of body_b, or to a world anchor."""

    body_a: int
    c_a: tuple[float, ...]
    body_b: int | None = None
    c_b: tuple[float, ...] = ()
    anchor: int | None = None


@dataclass(frozen=True)
class Axis:
    """Match the body-frame direction u_a of body_a with u_b of body_b."""

    body_a: int
    u_a: tuple[float, ...]
    body_b: int
    u_b: tuple[float, ...]


@dataclass(frozen=True)
class _QuadRow:
    row: int
    i: int        # global point index, -1 when fixed
    j: int
    pi: np.ndarray  # fixed world position (used when index is -1)
    pj: np.ndarray
    target: float


@dataclass(frozen=True)
class _AffineBlock:
    row: int
    coeff: np.ndarray  # (n_points,) sparse coefficients g with rows = X g - const
    const: np.ndarray  # (d,)


class ConstraintSet:
    """Compiled, enabled constraint rows of one topology."""

    def __init__(self, topology):
        d = topology.dim
        quads: list[_QuadRow] = []
        blocks: list[_AffineBlock] = []
        row = 0
        for k, con in enumerate(topology.all_constraints):
            if k in topology.disabled:
                continue
            if isinstance(con, Link):
                i, pi = _resolve_ref(topology, con.a)
                j, pj = _resolve_ref(topology, con.b)
                if i == j and i >= 0:
                    raise ShapeError(f"link {k} connects a point to itself")
                quads.append(_QuadRow(row, i, j, pi, pj, float(con.length) ** 2))
                row += 1
            elif isinstance(con, Rigidity):
                off = topology.body_offset(con.body)
                a, b = con.pair
                quads.append(_QuadRow(row, off + a, off + b, np.zeros(d), np.zeros(d), con.sq_dist))
                row += 1
            elif isinstance(con, Joint):
                g = np.zeros(topology.n_points)
                body_a = topology.bodies[con.body_a]
                sl = topology.body_slice(con.body_a)
                g[sl] = body_point_coeffs(body_a, con.c_a)
                if con.body_b is not None:
                    body_b = topology.bodies[con.body_b]
                    g[topology.body_slice(con.body_b)] -= body_point_coeffs(body_b, con.c_b)
                    const = np.zeros(d)
                elif con.anchor is not None:
                    const = np.asarray(topology.anchors[con.anchor], dtype=float)
                else:
                    raise ShapeError(f"joint {k} needs body_b or anchor")
                blocks.append(_AffineBlock(row, g, const))
                row += d
            elif isinstance(con, Axis):
                g = np.zeros(topology.n_points)
                for body_idx, u, sign in ((con.body_a, con.u_a, 1.0), (con.body_b, con.u_b, -1.0)):
                    body = topology.bodies[body_idx]
                    if body.ndim == 0:
                        raise ShapeError(f"axis constraint {k} references point mass body {body_idx}")
                    u = np.asarray(u, dtype=float)
                    if u.size != body.ndim:
                        raise ShapeError(f"axis vector of constraint {k} has wrong length")
                    g[topology.body_slice(body_idx)] += sign * (delta_matrix(body.ndim) @ u)
                blocks.append(_AffineBlock(row, g, np.zeros(d)))
                row += d
            else:
                raise ShapeError(f"unknown constraint type {type(con).__name__}")
        self.dim = d
        self.n_points = topology.n_points
        self.n_rows = row
        self.quads = tuple(quads)
        self.blocks = tuple(blocks)
        # Gathered index/position arrays for vectorized evaluation.
        self._q_rows = np.array([q.row for q in quads], dtype=int)
        self._q_i = np.array([q.i for q in quads], dtype=int)
        self._q_j = np.array([q.j for q in quads], dtype=int)
        self._q_pi = np.array([q.pi for q in quads]).reshape(len(quads), d).T
        self._q_pj = np.array([q.pj for q in quads]).reshape(len(quads), d).T
        self._q_target = np.array([q.target for q in quads])
        self._affine = None

    def endpoint_positions(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(..., d, n_quads) world positions of both endpoints of every quad row."""
        U = np.where(self._q_i >= 0, X[..., :, self._q_i], self._q_pi)
        W = np.where(self._q_j >= 0, X[..., :, self._q_j], self._q_pj)
        return U, W

    def endpoint_velocities(self, Xdot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dU = np.where(self._q_i >= 0, Xdot[..., :, self._q_i], 0.0)
        dW = np.where(self._q_j >= 0, Xdot[..., :, self._q_j], 0.0)
        return dU, dW

    def affine_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with vec(DPhi)(x) = A x + b, row-major vec over (row, column).

        DPhi is affine in x (quadratic phi rows are linear, joint/axis rows are
        constant), so extracting it from the analytic Jacobian on basis states
        is exact.  Built once per constraint set and cached.
        """
        if self._affine is None:
            d, n = self.dim, self.n_points
            dn = d * n
            base = _jacobian_phi_raw(self, np.zeros((d, n)))
            A = np.empty((self.n_rows * dn, dn))
            for m in range(dn):
                e = np.zeros(dn)
                e[m] = 1.0
                A[:, m] = (_jacobian_phi_raw(self, unflatten_matrix(e, d)) - base).ravel()
            self._affine = (A, base.ravel())
        return self._affine

    def dphidot_x(self, xdot):
        """D_x phidot (..., C, dn) at flat velocities xdot (..., dn), arrays or
        nodes: (A xdot) reshaped, one matrix-vector product per row, so a
        row's rounding does not depend on the rows stacked with it."""
        A, _ = self.affine_maps()
        shape = xdot.shape
        rows = ad.matmul(A, ad.reshape(xdot, shape + (1,)))
        return ad.reshape(rows, shape[:-1] + (self.n_rows, shape[-1]))

    def dphi(self, x):
        """DPhi (..., C, dn) at flat positions x (..., dn): A x + b reshaped."""
        _, b = self.affine_maps()
        return ad.add(self.dphidot_x(x), b.reshape(self.n_rows, self.dim * self.n_points))


def _resolve_ref(topology, ref: PointRef) -> tuple[int, np.ndarray]:
    if ref.is_anchor:
        return -1, np.asarray(topology.anchors[ref.index], dtype=float)
    if not 0 <= ref.index < topology.n_points:
        raise ShapeError(f"point index {ref.index} out of range")
    return ref.index, np.zeros(topology.dim)


def auto_rigidity(bodies) -> list[Rigidity]:
    """All intra-body point-pair rows for every extended body, in declaration order.

    Reference geometry puts tips at unit distance from the center of mass, so
    squared targets are 1 (cm-tip) and 2 (tip-tip).
    """
    out = []
    for b, body in enumerate(bodies):
        if body.ndim == 0:
            continue
        for i in range(body.n_points):
            for j in range(i + 1, body.n_points):
                sq = 1.0 if i == 0 else 2.0
                out.append(Rigidity(body=b, pair=(i, j), sq_dist=sq))
    return out


def phi(topology, X: np.ndarray) -> np.ndarray:
    """Constraint values (..., C) at positions (..., d, n).

    Evaluated from the geometry (|u - w|^2 - s and X g - const), not from the
    affine Jacobian map, so that map can be checked against it.
    """
    cs = topology.constraint_set
    out = np.zeros(X.shape[:-2] + (cs.n_rows,))
    if cs.quads:
        U, W = cs.endpoint_positions(X)
        out[..., cs._q_rows] = ((U - W) ** 2).sum(axis=-2) - cs._q_target
    for blk in cs.blocks:
        out[..., blk.row:blk.row + cs.dim] = X @ blk.coeff - blk.const
    return out


def _jacobian_phi_raw(cs: ConstraintSet, X: np.ndarray) -> np.ndarray:
    """Row-by-row DPhi; only affine_maps calls it, to build (A, b)."""
    d = cs.dim
    J = np.zeros((cs.n_rows, d * cs.n_points))
    if cs.quads:
        U, W = cs.endpoint_positions(X)
        diff = 2.0 * (U - W)
        for k, q in enumerate(cs.quads):
            if q.i >= 0:
                J[q.row, q.i * d:(q.i + 1) * d] += diff[:, k]
            if q.j >= 0:
                J[q.row, q.j * d:(q.j + 1) * d] -= diff[:, k]
    eye = np.eye(d)
    for blk in cs.blocks:
        for p in np.nonzero(blk.coeff)[0]:
            J[blk.row:blk.row + d, p * d:(p + 1) * d] = blk.coeff[p] * eye
    return J


def jacobian_phi(topology, X: np.ndarray) -> np.ndarray:
    """DPhi of shape (..., C, dn) for positions (..., d, n); anchors contribute zero columns."""
    return topology.constraint_set.dphi(flatten_matrix(X))


def phidot(topology, X: np.ndarray, Xdot: np.ndarray) -> np.ndarray:
    """Velocity-level constraint DPhi(X) vec(Xdot), shape (..., C), written
    out from the geometry like phi."""
    cs = topology.constraint_set
    out = np.zeros(X.shape[:-2] + (cs.n_rows,))
    if cs.quads:
        U, W = cs.endpoint_positions(X)
        dU, dW = cs.endpoint_velocities(Xdot)
        out[..., cs._q_rows] = 2.0 * ((U - W) * (dU - dW)).sum(axis=-2)
    for blk in cs.blocks:
        out[..., blk.row:blk.row + cs.dim] = Xdot @ blk.coeff
    return out


def jacobian_phidot_x(topology, X: np.ndarray, Xdot: np.ndarray) -> np.ndarray:
    """D_x phidot, shape (..., C, dn) for velocities Xdot of shape (..., d, n).

    Exact for any X: DPhi is affine, so D_x phidot depends on Xdot alone and
    equals the linear part of the map applied to it (Hessian symmetry).
    """
    return topology.constraint_set.dphidot_x(flatten_matrix(Xdot))


def jacobian_psi(topology, z: np.ndarray, mass) -> np.ndarray:
    """DPsi at a Hamiltonian flat state z = (vec(X), vec(P)), shape (2C, 2dn)."""
    d = topology.dim
    dn = z.size // 2
    X = unflatten_matrix(z[:dn], d)
    Xdot = unflatten_matrix(apply_inverse_mass(mass, z[dn:]), d)
    DPhi = jacobian_phi(topology, X)
    # D_p phidot = DPhi (M^-1 kron I_d), because Xdot = P M^-1
    return np.block([[DPhi, np.zeros_like(DPhi)],
                     [jacobian_phidot_x(topology, X, Xdot), apply_inverse_mass(mass, DPhi)]])
