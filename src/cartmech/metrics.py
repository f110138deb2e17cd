"""Rollout comparison metrics.

All curves are per-time-sample vectors over a trajectory; the headline number
is the geometric mean over time, which weights every decade of compounding
error equally instead of letting the final blow-up dominate.

The per-state metrics take flat states with leading batch axes, (..., 2dn) ->
(...), for one trajectory (T, 2dn) or a test set (N, T, 2dn) alike; each row
is computed exactly as it would be alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import phi
from .dynamics import energy
from .errors import RolloutDivergedError, ShapeError, finite_positive
from .states import LAGRANGIAN, unflatten_matrix

LOG_FLOOR = 1e-12


def relative_error(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Bounded relative state error per time sample, in [0, 1].

    ||pred - truth|| / (||pred|| + ||truth||) with 0/0 defined as 0.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ShapeError(f"trajectory shapes differ: {pred.shape} vs {truth.shape}")
    num = np.linalg.norm(pred - truth, axis=-1)
    den = np.linalg.norm(pred, axis=-1) + np.linalg.norm(truth, axis=-1)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def geometric_mean(curve: np.ndarray, times: np.ndarray) -> float:
    """exp of the time-averaged log of the curve (trapezoid rule).

    Samples are floored at 1e-12 before the log; a single sample is its own
    geometric mean.
    """
    curve = np.asarray(curve, dtype=float)
    times = np.asarray(times, dtype=float)
    if curve.shape != times.shape:
        raise ShapeError(f"curve/times shapes differ: {curve.shape} vs {times.shape}")
    floored = np.maximum(curve, LOG_FLOOR)
    if curve.size == 1:
        return float(floored[0])
    span = times[-1] - times[0]
    if span <= 0:
        raise ShapeError("times must span a positive interval")
    return float(np.exp(np.trapezoid(np.log(floored), times) / span))


def energy_error(system, pred: np.ndarray, truth: np.ndarray,
                 flavor: str = LAGRANGIAN) -> np.ndarray:
    """Bounded relative energy error |H(pred) - H(truth)| / (|H(pred)| + |H(truth)|)."""
    ctx = system.context(flavor)
    e_pred = energy(ctx, np.atleast_2d(pred))
    e_true = energy(ctx, np.atleast_2d(truth))
    num = np.abs(e_pred - e_true)
    den = np.abs(e_pred) + np.abs(e_true)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def constraint_rmse_curve(system, states: np.ndarray) -> np.ndarray:
    """Per-state RMS of the holonomic constraint values (zeros if unconstrained)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    topo = system.topology
    if topo.constraint_set.n_rows == 0:
        return np.zeros(states.shape[:-1])
    vals = phi(topo, unflatten_matrix(states[..., :states.shape[-1] // 2], topo.dim))
    return np.sqrt(np.mean(vals ** 2, axis=-1))


@dataclass(frozen=True)
class EvalResult:
    """Mean metric curves over a test set and their geometric means."""

    times: np.ndarray
    rel_err: np.ndarray
    energy_err: np.ndarray
    phi_rmse: np.ndarray
    gm_rel_err: float
    gm_energy_err: float
    gm_phi_rmse: float


def evaluate_rollout(system, preds: np.ndarray, truth: np.ndarray,
                     times: np.ndarray) -> EvalResult:
    """Test-set metrics for predicted trajectories (N, T, 2dn) in (x, xdot) form.

    Curves are means over the N trajectories; the summary numbers are
    geometric means of those mean curves over time.  A finite prediction can
    still overflow its scores: RolloutDivergedError names the first
    trajectory and time whose score is not finite.
    """
    preds = np.asarray(preds, dtype=float)
    truth = np.asarray(truth, dtype=float)
    times = np.asarray(times, dtype=float)
    if preds.shape != truth.shape:
        raise ShapeError(f"prediction/truth shapes differ: {preds.shape} vs {truth.shape}")
    curves = (relative_error(preds, truth), energy_error(system, preds, truth),
              constraint_rmse_curve(system, preds))
    finite = np.logical_and.reduce([np.isfinite(c) for c in curves])
    if not finite.all():
        row, t = np.argwhere(~finite)[0]
        raise RolloutDivergedError(f"trajectory {row} has a non-finite score at t = {times[t]:.6g}")
    rel, en, ph = (np.mean(c, axis=0) for c in curves)
    return EvalResult(times, rel, en, ph,
                      geometric_mean(rel, times), geometric_mean(en, times),
                      geometric_mean(ph, times))


def evaluate_model(model, store, dataset, horizon: float | None = None,
                   substeps: int = 1) -> EvalResult:
    """Roll the model from each test trajectory's initial state and score it,
    over the first horizon seconds (finite and positive) or the whole test set."""
    times = dataset.times[0]
    states = dataset.states
    if horizon is not None:
        (horizon,) = finite_positive("horizon", (horizon,))
        keep = int(round(horizon / dataset.dt)) + 1
        keep = max(2, min(keep, times.size))
        times = times[:keep]
        states = states[:, :keep]
    preds = model.rollout(store, states[:, 0], times, substeps=substeps)
    return evaluate_rollout(dataset.system(), preds, states, times)
