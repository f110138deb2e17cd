"""Holonomic constraints and their analytic Jacobians.

Two declarable forms, Link and Joint, plus the auto-populated Rigidity,
compiled into two row kinds:

* Link / Rigidity: one distance row, phi = |X e + c|^2 - s, with e the
  point-difference vector (+1, -1 or 0 per point), c the anchor offset and s
  the squared length.  Rigidity rows (all point pairs inside one extended
  body) are auto-populated at topology construction.
* Joint: an affine block (g, const) of d rows X g - const, pinning a
  body-frame point (X c_tilde) of one body to a world anchor.

Anchors are virtual fixed points: they enter c and const, and contribute zero
Jacobian columns.

Every row is at most quadratic in x, so DPhi is affine in x:
vec(DPhi)(x) = A x + b, written in closed form from the rows on
construction.  A distance row has A_r = 2 (e e^T kron I_d) and
b_r = 2 (e kron c); an affine block has A = 0 and b = g kron I_d.  That map
is the one constraint Jacobian: DPhi(x) is (A x + b) reshaped to (C, dn),
and because A stacks the symmetric Hessians of the rows, D_x phidot at
velocity xdot is (A xdot) reshaped the same way.  ConstraintSet.dphi and
dphidot_x compute both from flat positions or velocities with leading batch
axes, as arrays or as tape nodes.  The velocity-level constraint is
phidot = DPhi(X) vec(Xdot) = 2 (X e + c).(Xdot e) or Xdot g, and the
first-order system Psi = (phi, phidot) has the block Jacobian
    DPsi = [[DPhi, 0], [D_x phidot, D_p phidot]],
with D_p phidot = DPhi contracted with M^-1 through Xdot = P M^-1.

Flat column indexing matches states.flatten_matrix: column p*d + c is
coordinate c of point p.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import apply_on_points, body_point_coeffs
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
    """Pin body-frame point c_a of body_a to a world anchor."""

    body_a: int
    c_a: tuple[float, ...]
    anchor: int


class ConstraintSet:
    """Compiled, enabled constraint rows of one topology, in one form.

    A distance row (Link, Rigidity) is a point-difference vector e (+1, -1
    or 0 per point), an anchor offset c and a target s, with
    phi = |X e + c|^2 - s.  An affine block (Joint) is (g, const), with
    d rows X g - const.  The rows' DPhi map (A, b) is written from these in
    closed form: a distance row has A_r = 2 (e e^T kron I_d) and
    b_r = 2 (e kron c), an affine block has A = 0 and b = g kron I_d.
    Every index a declaration names is range-checked, and a bad one raises
    ShapeError naming the constraint.
    """

    def __init__(self, topology):
        d, n = topology.dim, topology.n_points
        dist_rows, es, offsets, targets = [], [], [], []
        blocks = []  # (first row, g, const)
        row = 0
        for k, con in enumerate(topology.all_constraints):
            if k in topology.disabled:
                continue
            if isinstance(con, (Link, Rigidity)):
                e = np.zeros(n)
                if isinstance(con, Link):
                    if not (con.a.is_anchor or con.b.is_anchor) and con.a.index == con.b.index:
                        raise ShapeError(f"link constraint {k} connects a point to itself")
                    c = _link_end(topology, con.a, k, e, 1.0) - _link_end(topology, con.b, k, e, -1.0)
                    target = float(con.length) ** 2
                else:
                    off = topology.body_offset(con.body)
                    e[off + con.pair[0]], e[off + con.pair[1]] = 1.0, -1.0
                    c, target = np.zeros(d), con.sq_dist
                dist_rows.append(row)
                es.append(e)
                offsets.append(c)
                targets.append(target)
                row += 1
            elif isinstance(con, Joint):
                g = np.zeros(n)
                body = topology.bodies[_checked(con.body_a, len(topology.bodies), "body", k)]
                g[topology.body_slice(con.body_a)] = body_point_coeffs(body, con.c_a)
                const = topology.anchors[_checked(con.anchor, len(topology.anchors), "anchor", k)]
                blocks.append((row, g, const))
                row += d
            else:
                raise ShapeError(f"constraint {k} has unknown type {type(con).__name__}")
        self.dim = d
        self.n_points = n
        self.n_rows = row
        self._dist_rows = np.array(dist_rows, dtype=int)
        self._E = np.array(es).reshape(len(es), n).T           # (n, R) columns e
        self._c = np.array(offsets).reshape(len(es), d).T      # (d, R) columns c
        self._s = np.array(targets)
        self._blocks = tuple(blocks)
        # + 0.0 turns the -0.0 products with e's zeros into +0.0
        A = np.zeros((row, d * n, d * n))
        b = np.zeros((row, d * n))
        for r, e, c in zip(dist_rows, es, offsets):
            A[r] = 2.0 * np.kron(np.outer(e, e), np.eye(d)) + 0.0
            b[r] = 2.0 * np.kron(e, c) + 0.0
        for r, g, _ in blocks:
            b[r:r + d] = np.kron(g, np.eye(d))
        self._A = A.reshape(row * d * n, d * n)
        self._jacobian_shape = (row, d * n)
        self._offset = b

    def dphidot_x(self, xdot):
        """D_x phidot (..., C, dn) at flat velocities xdot (..., dn), arrays or
        nodes: (A xdot) reshaped, one matrix-vector product per row, so a
        row's rounding does not depend on the rows stacked with it."""
        shape = xdot.shape
        return (self._A @ xdot.reshape(shape + (1,))).reshape(shape[:-1] + self._jacobian_shape)

    def dphi(self, x):
        """DPhi (..., C, dn) at flat positions x (..., dn): A x + b reshaped."""
        return self.dphidot_x(x) + self._offset


def _checked(index: int, count: int, what: str, k: int) -> int:
    """index, unless it is outside 0..count-1: then ShapeError naming constraint k."""
    if not 0 <= index < count:
        raise ShapeError(f"{what} index {index} of constraint {k} out of range")
    return index


def _link_end(topology, ref: PointRef, k: int, e: np.ndarray, sign: float) -> np.ndarray:
    """Add a link end to e with sign; its fixed position, zeros for a point."""
    if ref.is_anchor:
        return topology.anchors[_checked(ref.index, len(topology.anchors), "anchor", k)]
    e[_checked(ref.index, topology.n_points, "point", k)] += sign
    return np.zeros(topology.dim)


def auto_rigidity(bodies) -> list[Rigidity]:
    """All intra-body point-pair rows for every body, in declaration order
    (a point mass, one point, has none).

    Reference geometry puts tips at unit distance from the center of mass, so
    squared targets are 1 (cm-tip) and 2 (tip-tip).
    """
    out = []
    for b, body in enumerate(bodies):
        for i in range(body.n_points):
            for j in range(i + 1, body.n_points):
                sq = 1.0 if i == 0 else 2.0
                out.append(Rigidity(body=b, pair=(i, j), sq_dist=sq))
    return out


def phi(topology, X: np.ndarray) -> np.ndarray:
    """Constraint values (..., C) at positions (..., d, n).

    Evaluated from the rows' geometry (|X e + c|^2 - s and X g - const), not
    from the affine Jacobian map, so that map can be checked against it.
    """
    cs = topology.constraint_set
    out = np.zeros(X.shape[:-2] + (cs.n_rows,))
    out[..., cs._dist_rows] = ((X @ cs._E + cs._c) ** 2).sum(axis=-2) - cs._s
    for row, g, const in cs._blocks:
        out[..., row:row + cs.dim] = X @ g - const
    return out


def jacobian_phi(topology, X: np.ndarray) -> np.ndarray:
    """DPhi of shape (..., C, dn) for positions (..., d, n); anchors contribute zero columns."""
    return topology.constraint_set.dphi(flatten_matrix(X))


def phidot(topology, X: np.ndarray, Xdot: np.ndarray) -> np.ndarray:
    """Velocity-level constraint DPhi(X) vec(Xdot), shape (..., C), written
    out from the geometry like phi: 2 (X e + c).(Xdot e) and Xdot g."""
    cs = topology.constraint_set
    out = np.zeros(X.shape[:-2] + (cs.n_rows,))
    out[..., cs._dist_rows] = 2.0 * ((X @ cs._E + cs._c) * (Xdot @ cs._E)).sum(axis=-2)
    for row, g, _ in cs._blocks:
        out[..., row:row + cs.dim] = Xdot @ g
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
    Xdot = unflatten_matrix(apply_on_points(mass.inverse.T, z[dn:]), d)
    DPhi = jacobian_phi(topology, X)
    # D_p phidot = DPhi (M^-1 kron I_d), because Xdot = P M^-1
    return np.block([[DPhi, np.zeros_like(DPhi)],
                     [jacobian_phidot_x(topology, X, Xdot),
                      apply_on_points(mass.inverse.T, DPhi)]])
