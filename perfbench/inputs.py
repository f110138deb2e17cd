"""Seeded benchmark inputs that do not depend on the code under test.

The train and evaluate workloads need two-pendulum ground truth.  Taking it
from cartmech's own generate_dataset would let a change to the integrator or
the field change the inputs of the model workloads, so the trajectories are
made here instead: the textbook joint-angle equations of the planar double
pendulum (unit masses, lengths and gravity, angles from the hanging position),
integrated with classical RK4 at a fine fixed step and embedded in the
Cartesian (x, xdot) layout that cartmech's npendulum system uses.  Only numpy
is called, so a seed gives the same bytes on any commit.
"""
from __future__ import annotations

import numpy as np

DT = 0.03          # npendulum's default sample spacing
SUBSTEPS = 10      # RK4 step DT / 10 = 3e-3
ANGLE_RANGE = np.pi  # npendulum's sampler: q ~ U(-pi, pi), qdot ~ N(0, 0.5)
RATE_STD = 0.5
CHUNK_STATES = 5


def _accel(th1, th2, w1, w2):
    # m1 = m2 = l1 = l2 = g = 1
    d = th1 - th2
    den = 3.0 - np.cos(2.0 * d)
    a1 = (-3.0 * np.sin(th1) - np.sin(th1 - 2.0 * th2)
          - 2.0 * np.sin(d) * (w2 * w2 + w1 * w1 * np.cos(d))) / den
    a2 = 2.0 * np.sin(d) * (2.0 * w1 * w1 + 2.0 * np.cos(th1) + w2 * w2 * np.cos(d)) / den
    return a1, a2


def _rhs(y):
    th1, th2, w1, w2 = y
    a1, a2 = _accel(th1, th2, w1, w2)
    return np.stack([w1, w2, a1, a2])


def angle_trajectories(rng: np.random.Generator, n_traj: int, steps: int) -> np.ndarray:
    """(steps + 1, 4, n_traj) joint states (th1, th2, w1, w2) at DT spacing."""
    q = rng.uniform(-ANGLE_RANGE, ANGLE_RANGE, (2, n_traj))
    qdot = rng.normal(0.0, RATE_STD, (2, n_traj))
    y = np.concatenate([q, qdot])
    h = DT / SUBSTEPS
    out = [y]
    for _ in range(steps):
        for _ in range(SUBSTEPS):
            k1 = _rhs(y)
            k2 = _rhs(y + 0.5 * h * k1)
            k3 = _rhs(y + 0.5 * h * k2)
            k4 = _rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.stack(out)


def to_cartesian(y: np.ndarray) -> np.ndarray:
    """(..., 4, N) joint states to (..., N, 8) flat (x, xdot) states.

    Column-major over points: x0, y0, x1, y1, then the same for velocities.
    """
    th1, th2, w1, w2 = np.moveaxis(y, -2, 0)
    x1, y1 = np.sin(th1), -np.cos(th1)
    x2, y2 = x1 + np.sin(th2), y1 - np.cos(th2)
    vx1, vy1 = w1 * np.cos(th1), w1 * np.sin(th1)
    vx2, vy2 = vx1 + w2 * np.cos(th2), vy1 + w2 * np.sin(th2)
    return np.stack([x1, y1, x2, y2, vx1, vy1, vx2, vy2], axis=-1)


def train_chunks(seed: int, n_traj: int = 200, steps: int = 100) -> np.ndarray:
    """(n_traj, 5, 8) training chunks, one uniformly placed chunk per trajectory."""
    rng = np.random.default_rng([seed, 1])
    states = to_cartesian(angle_trajectories(rng, n_traj, steps))  # (T, N, 8)
    starts = CHUNK_STATES * rng.integers(steps // CHUNK_STATES, size=n_traj)
    rows = np.arange(n_traj)
    return np.stack([states[starts + k, rows] for k in range(CHUNK_STATES)], axis=1)


def eval_trajectories(seed: int, n_traj: int = 20, steps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """(T,) times and (n_traj, T, 8) full test trajectories."""
    rng = np.random.default_rng([seed, 2])
    states = to_cartesian(angle_trajectories(rng, n_traj, steps))
    return DT * np.arange(steps + 1), np.ascontiguousarray(np.swapaxes(states, 0, 1))
