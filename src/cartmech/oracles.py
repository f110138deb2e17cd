"""Generalized-coordinate reference dynamics and embedding maps.

These are the independent cross-checks for the Cartesian machinery: an
N-pendulum in joint angles, the closed-form two-pendulum equations, and the
heavy symmetric top in ZXZ Euler angles.  Hamiltonians use
H = p^T M(q)^-1 p / 2 + V(q) with analytic dM/dq, so
    qdot = M^-1 p,    pdot_k = qdot^T (dM/dq_k) qdot / 2 - dV/dq_k.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import GimbalLockError


# -- N-pendulum in joint angles ------------------------------------------------

def pendulum_mass_matrix(q, masses, lengths) -> np.ndarray:
    """M_ij = l_i l_j cos(q_i - q_j) sum_{k >= max(i,j)} m_k."""
    q = np.asarray(q, dtype=float)
    m = np.asarray(masses, dtype=float)
    l = np.asarray(lengths, dtype=float)
    tail = np.cumsum(m[::-1])[::-1]  # tail[i] = sum_{k>=i} m_k
    i, j = np.meshgrid(np.arange(q.size), np.arange(q.size), indexing="ij")
    return np.outer(l, l) * np.cos(q[i] - q[j]) * tail[np.maximum(i, j)]


def pendulum_potential(q, masses, lengths, g: float = 1.0) -> float:
    """V(q) = -g sum_k l_k cos(q_k) sum_{i >= k} m_i (gravity along -x2)."""
    q = np.asarray(q, dtype=float)
    m = np.asarray(masses, dtype=float)
    l = np.asarray(lengths, dtype=float)
    tail = np.cumsum(m[::-1])[::-1]
    return float(-g * np.sum(l * np.cos(q) * tail))


def _pendulum_dM_dq(q, masses, lengths, k: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    m = np.asarray(masses, dtype=float)
    l = np.asarray(lengths, dtype=float)
    n = q.size
    tail = np.cumsum(m[::-1])[::-1]
    dM = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            delta = (1.0 if i == k else 0.0) - (1.0 if j == k else 0.0)
            if delta:
                dM[i, j] = -l[i] * l[j] * np.sin(q[i] - q[j]) * delta * tail[max(i, j)]
    return dM


def pendulum_oracle_dynamics(q, p, masses, lengths, g: float = 1.0) -> np.ndarray:
    """(qdot, pdot) of the joint-angle Hamiltonian, concatenated."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    m = np.asarray(masses, dtype=float)
    l = np.asarray(lengths, dtype=float)
    M = pendulum_mass_matrix(q, m, l)
    qdot = np.linalg.solve(M, p)
    tail = np.cumsum(m[::-1])[::-1]
    pdot = np.empty_like(p)
    for k in range(q.size):
        pdot[k] = 0.5 * qdot @ _pendulum_dM_dq(q, m, l, k) @ qdot - g * l[k] * np.sin(q[k]) * tail[k]
    return np.concatenate([qdot, pdot])


def pendulum_oracle_energy(q, p, masses, lengths, g: float = 1.0) -> float:
    M = pendulum_mass_matrix(q, masses, lengths)
    return 0.5 * float(p @ np.linalg.solve(M, p)) + pendulum_potential(q, masses, lengths, g)


def two_pendulum_closed_form(q, p, m1: float, m2: float, l1: float, l2: float,
                             g: float = 1.0) -> np.ndarray:
    """Closed-form double-pendulum equations of motion in (q1, q2, p1, p2)."""
    q1, q2 = q
    p1, p2 = p
    c = np.cos(q1 - q2)
    s = np.sin(q1 - q2)
    den = m1 + m2 * s * s
    q1dot = (l2 * p1 - l1 * p2 * c) / (l1 * l1 * l2 * den)
    q2dot = (-m2 * l2 * p1 * c + (m1 + m2) * l1 * p2) / (m2 * l1 * l2 * l2 * den)
    c1 = p1 * p2 * s / (l1 * l2 * den)
    c2 = (m2 * l2 * l2 * p1 * p1 + (m1 + m2) * l1 * l1 * p2 * p2
          - 2.0 * m2 * l1 * l2 * p1 * p2 * c) * np.sin(2.0 * (q1 - q2)) \
        / (2.0 * l1 * l1 * l2 * l2 * den * den)
    p1dot = -(m1 + m2) * g * l1 * np.sin(q1) - c1 + c2
    p2dot = -m2 * g * l2 * np.sin(q2) + c1 - c2
    return np.array([q1dot, q2dot, p1dot, p2dot])


def pendulum_embed(q, qdot, lengths) -> tuple:
    """Joint angles to Cartesian (X, Xdot), angle measured from hanging.

    q and qdot (..., n) with any leading batch axes give X and Xdot of shape
    (..., 2, n); arrays or tape nodes (the angle baselines decode through
    this).  Each sum down the chain is one product with triu(ones), and the
    rates enter as (l qdot) cos q.
    """
    l = np.asarray(lengths, dtype=float)
    down = np.triu(np.ones((l.size, l.size)))  # column j sums the links i <= j
    row = np.shape(q)[:-1] + (1, l.size)
    s, c = ad.reshape(ad.sin(q), row), ad.reshape(ad.cos(q), row)
    X = ad.matmul(ad.mul(ad.concat([s, ad.neg(c)], axis=-2), l), down)
    V = ad.matmul(ad.mul(ad.concat([c, s], axis=-2), ad.reshape(ad.mul(l, qdot), row)), down)
    return X, V


def pendulum_angles(X: np.ndarray, V: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pendulum_embed: (q, qdot) of shape (..., n) from Cartesian
    matrices (..., 2, n)."""
    l = np.asarray(lengths, dtype=float)
    rel = np.diff(X, axis=-1, prepend=0.0)
    rel_v = np.diff(V, axis=-1, prepend=0.0)
    q = np.arctan2(rel[..., 0, :], -rel[..., 1, :])
    qdot = (rel[..., 0, :] * rel_v[..., 1, :] - rel[..., 1, :] * rel_v[..., 0, :]) / l ** 2
    return q, qdot


# -- heavy symmetric top in ZXZ Euler angles ------------------------------------

def rotation_zxz(phi: float, theta: float, psi: float) -> np.ndarray:
    return _rz(phi) @ _rx(theta) @ _rz(psi)


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def euler_rate_matrix(theta: float, psi: float) -> np.ndarray:
    """B with omega_body = B (phidot, thetadot, psidot)."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    return np.array([[st * sp, cp, 0.0], [st * cp, -sp, 0.0], [ct, 0.0, 1.0]])


def gyroscope_inertia(mass: float, moments) -> np.ndarray:
    """Principal moments about the pivot for cm at unit distance along axis 3."""
    l1, l2, l3 = moments
    return mass * np.array([l2 + l3 + 1.0, l1 + l3 + 1.0, l1 + l2])


def gyroscope_mass_matrix(theta: float, psi: float, mass: float, moments) -> np.ndarray:
    """M(q) = B^T diag(I) B; singular at sin(theta) = 0 (gimbal lock)."""
    if abs(np.sin(theta)) < 1e-6:
        raise GimbalLockError(f"sin(theta) = {np.sin(theta):.2e}")
    B = euler_rate_matrix(theta, psi)
    return B.T @ np.diag(gyroscope_inertia(mass, moments)) @ B


def gyroscope_oracle_dynamics(q, p, mass: float, moments, g: float = 1.0) -> np.ndarray:
    """(qdot, pdot) for H = p^T M^-1 p / 2 + m g cos(theta), q = (phi, theta, psi)."""
    phi, theta, psi = q
    p = np.asarray(p, dtype=float)
    inertia = np.diag(gyroscope_inertia(mass, moments))
    M = gyroscope_mass_matrix(theta, psi, mass, moments)
    qdot = np.linalg.solve(M, p)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    B = euler_rate_matrix(theta, psi)
    dB_dtheta = np.array([[ct * sp, 0.0, 0.0], [ct * cp, 0.0, 0.0], [-st, 0.0, 0.0]])
    dB_dpsi = np.array([[st * cp, -sp, 0.0], [-st * sp, -cp, 0.0], [0.0, 0.0, 0.0]])
    pdot = np.zeros(3)
    for k, dB in ((1, dB_dtheta), (2, dB_dpsi)):
        dM = dB.T @ inertia @ B + B.T @ inertia @ dB
        pdot[k] = 0.5 * qdot @ dM @ qdot
    pdot[1] += mass * g * st  # -dV/dtheta for V = m g cos(theta)
    return np.concatenate([qdot, pdot])


def gyroscope_oracle_energy(q, p, mass: float, moments, g: float = 1.0) -> float:
    M = gyroscope_mass_matrix(q[1], q[2], mass, moments)
    return 0.5 * float(p @ np.linalg.solve(M, p)) + mass * g * np.cos(q[1])


def skew(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def gyroscope_embed(q, qdot) -> tuple[np.ndarray, np.ndarray]:
    """Euler state to Cartesian (X, Xdot) for the pivoted body.

    The pivot sits at the origin and the cm at R e3; columns are
    [cm, cm + R e1, cm + R e2, cm + R e3].
    """
    R = rotation_zxz(*q)
    omega_body = euler_rate_matrix(q[1], q[2]) @ np.asarray(qdot, dtype=float)
    Rdot = R @ skew(omega_body)
    cols = np.concatenate([np.eye(3)[:, 2:3], np.eye(3)[:, 2:3] + np.eye(3)], axis=1)
    return R @ cols, Rdot @ cols
