"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

The fixed path is the differentiable one: rk4_step and rollout_fixed only use
+, * and calls to f, so they accept either plain arrays or autodiff tape nodes.
The adaptive path is for ground truth only and rejects non-array states; it
implements the Dormand-Prince 5(4) pair with first-same-as-last stage reuse,
a PI step-size controller and quartic (4th-order) dense output.  It runs a
whole batch of initial states in one loop: each row keeps its own time, step
size and controller state, and rows leave the loop as they finish or fail.
Stage sums and dense output are element-wise, so a row's result is the same
bits whether it runs alone or in any batch.  One loop serves every batch
size, so at one row an attempt costs its fixed number of small numpy calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, finite_positive

# Dormand-Prince 5(4) tableau.
DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: dotted with the stages this gives the embedded error estimate.
DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Shampine's quartic interpolant: y(t0 + u h) = y0 + h K^T P [u, u^2, u^3, u^4].
DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# PI controller exponents (integral / proportional on the previous error).
K_I = 0.7 / 5
K_P = 0.4 / 5


@dataclass(frozen=True)
class Tolerances:
    """DP5's relative and absolute error tolerances, both finite and positive."""

    rtol: float = 1e-7
    atol: float = 1e-9

    def __post_init__(self):
        finite_positive("rtol", (self.rtol,))
        finite_positive("atol", (self.atol,))


@dataclass(frozen=True)
class Trajectory:
    """Time grid and the state at each time, row per time.

    From a batch, states is (B, T, N), the counts are per-row arrays and
    failures holds each row's IntegrationError, or None where it finished.
    """

    times: np.ndarray
    states: np.ndarray
    n_accepted: int = 0
    n_rejected: int = 0
    failures: tuple = ()

    def __len__(self):
        return len(self.times)


def rk4_step(f, z, h: float):
    """One classical Runge-Kutta step; works on arrays and on tape nodes."""
    k1 = f(z)
    k2 = f(z + (0.5 * h) * k1)
    k3 = f(z + (0.5 * h) * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rollout_fixed(f, z0, times, substeps: int = 1):
    """States of dz/dt = f(z) at the given times via fixed RK4 substeps.

    Every elementary operation is differentiable, so when z0 is a tape node
    the whole rollout can be backpropagated.  Returns a list of states (one
    per time, starting with z0); array callers usually np.stack the result.
    """
    times = np.asarray(times, dtype=float)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    out = [z0]
    z = z0
    for a, b in zip(times[:-1], times[1:]):
        h = (b - a) / substeps
        for _ in range(substeps):
            z = rk4_step(f, z, h)
        out.append(z)
    return out


# The tableau rows shaped (S, 1, 1) to weight stacked stages (S, R, N).
_A_ROWS = [a[:, None, None] for a in DP_A]
_E_ROW = DP_E[:, None, None]


def _combine(z, h, weights, k):
    """z + h * sum_j weights[j] k[j] for stages k (S, R, N), row by row.

    weights is (S, 1, 1) for every row or (S, R, 1) per row.  The stage sum
    runs over the leading axis with element-wise adds, so a row's rounding
    does not depend on which rows share the batch.
    """
    return z + h * np.add.reduce(weights * k, axis=0)


def _rms(w):
    """Per-row root mean square over the last axis."""
    return np.sqrt(np.add.reduce(w * w, axis=-1) / w.shape[-1])


def _initial_step(f, z0, f0, t_span, tol: Tolerances):
    """Hairer's starting-step heuristic from |z0| and |f(z0)|, per row of (R, N)."""
    scale = tol.atol + tol.rtol * np.abs(z0)
    d0 = _rms(z0 / scale)
    d1 = _rms(f0 / scale)
    # the clamps only touch values the np.where branches discard
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    f1 = f(z0 + h0[:, None] * f0)
    d = np.maximum(d1, _rms((f1 - f0) / scale) / h0)
    h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / np.maximum(d, 1e-15)) ** 0.2)
    return np.minimum(np.minimum(100 * h0, h1), t_span)


class _Active:
    """Per-row integrator state of the rows still running, compacted as rows leave."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


def integrate_adaptive(f, z0, t_span: float, t_eval, tol: Tolerances = Tolerances(),
                       max_steps: int = 1_000_000) -> Trajectory:
    """Integrate dz/dt = f(z) from t=0 to t=t_span with Dormand-Prince 5(4).

    z0 is one state (N,) or a batch (B, N).  The result holds the dense
    output at the times t_eval, increasing inside [0, t_span].

    One state: f is called with (N,) states, and step underflow, a non-finite
    state or an exhausted step budget raise IntegrationError with the time
    and the accepted step count.

    A batch: f is called with the (R, N) rows still running and
    must treat each row on its own.  Every row keeps its own t, step size, PI
    controller state, accept/reject decision, dense output and step counts,
    and leaves the active set when it reaches t_span or fails; a failure ends
    only its own row.  The result holds states (B, T, N) (NaN on failed
    rows), per-row n_accepted/n_rejected arrays, and failures: the
    IntegrationError of each row, or None where the row finished.  Each row
    is computed exactly as a run of that state alone would compute it.
    Exceptions raised by f propagate.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim not in (1, 2):
        raise ValueError(f"z0 must be (N,) or (B, N), got shape {z0.shape}")
    single = z0.ndim == 1
    if t_span <= 0:
        raise ValueError("t_span must be positive")
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size and (t_eval[0] < 0 or t_eval[-1] > t_span * (1 + 1e-12) or np.any(np.diff(t_eval) < 0)):
        raise ValueError("t_eval must be increasing inside [0, t_span]")

    def field(rows):
        out = f(rows[0] if single else rows)
        if not isinstance(out, np.ndarray):
            raise TypeError("integrate_adaptive requires a plain-array dynamics function")
        return out[None] if single else out

    z0 = np.atleast_2d(z0)
    n_rows, size = z0.shape
    n_eval = t_eval.size
    n_start = int(np.searchsorted(t_eval, 0.0, side="right"))
    out = np.full((n_rows, n_eval, size), np.nan)
    out[:, :n_start] = z0[:, None]
    n_accepted = np.zeros(n_rows, dtype=int)
    n_rejected = np.zeros(n_rows, dtype=int)
    n_emitted = np.zeros(n_rows, dtype=int)
    failures: list = [None] * n_rows

    a = _Active(rows=np.arange(n_rows), t=np.zeros(n_rows), h=np.zeros(n_rows),
                err_prev=np.ones(n_rows), z=z0.copy(), f_now=np.zeros_like(z0),
                n_acc=n_accepted.copy(), eval_idx=np.full(n_rows, n_start))
    # every active row makes one attempt per pass, so a row's attempt count is
    # the number of finished passes and only its accepted steps are per row
    attempts = 0

    def leave(mask, reason=None):
        """Drop the rows under mask, recording their counts and failure."""
        if not np.count_nonzero(mask):
            return
        for i in np.flatnonzero(mask):
            r = a.rows[i]
            n_accepted[r], n_emitted[r] = a.n_acc[i], a.eval_idx[i]
            n_rejected[r] = attempts - a.n_acc[i]
            if reason is not None:
                failures[r] = IntegrationError(f"{reason} at t={a.t[i]:.6g}", t=float(a.t[i]),
                                               step=int(a.n_acc[i]))
        a.keep(~mask)

    leave(~np.all(np.isfinite(a.z), axis=1), "non-finite state")
    if a.rows.size:
        a.f_now = field(a.z)  # refreshed only on accepted steps
        a.h = _initial_step(field, a.z, a.f_now, t_span, tol)

    while a.rows.size:
        a.h = np.minimum(a.h, t_span - a.t)
        # a finished row has h <= 0, so one test finds every row that stops
        stop = a.h < 1e-14 * np.maximum(1.0, np.abs(a.t))
        if attempts >= max_steps or stop.any():
            leave(a.t >= t_span)
            if attempts >= max_steps:
                leave(np.ones(a.rows.size, dtype=bool), f"exceeded {max_steps} steps")
            leave(a.h < 1e-14 * np.maximum(1.0, np.abs(a.t)), "step size underflow")
            if not a.rows.size:
                break

        k = np.empty((7,) + a.z.shape)
        k[0] = a.f_now  # first-same-as-last
        h = a.h[:, None]
        for s in range(1, 7):
            zs = _combine(a.z, h, _A_ROWS[s], k[:s])
            # a finite sum has no nan or inf term; one that overflowed goes
            # through the exact test, which then finds no row to drop
            if not math.isfinite(np.add.reduce(zs, axis=None)):
                bad = ~np.all(np.isfinite(zs), axis=1)
                leave(bad, "non-finite state")
                k, h, zs = k[:, ~bad], h[~bad], zs[~bad]
                if not a.rows.size:
                    break
            k[s] = field(zs)
        if not a.rows.size:
            break
        z_new = zs  # the last stage sits at the new state: DP_A[6] is DP_B without its 0
        scale = tol.atol + tol.rtol * np.maximum(np.abs(a.z), np.abs(z_new))
        err_norm = _rms(h * np.add.reduce(_E_ROW * k, axis=0) / scale)
        accept = err_norm <= 1.0

        if n_eval:
            # quartic dense output at every t_eval point inside each accepted step
            reach = t_eval.searchsorted(a.t + a.h * (1 + 1e-12), side="right")
            end = np.where(accept, np.maximum(reach, a.eval_idx), a.eval_idx)
            count = end - a.eval_idx
            if np.count_nonzero(count):
                i = np.repeat(np.arange(a.rows.size), count)
                point = np.arange(i.size) + np.repeat(end - np.cumsum(count), count)
                u = ((t_eval[point] - a.t[i]) / a.h[i])[:, None]
                weights = (((DP_P[:, 3] * u + DP_P[:, 2]) * u + DP_P[:, 1]) * u + DP_P[:, 0]) * u
                out[a.rows[i], point] = _combine(a.z[i], h[i], weights.T[:, :, None], k[:, i])
                a.eval_idx = end
        # PI growth on accepted rows, plain shrink on rejected ones; the clamp
        # on err_norm only reaches rows whose factor is capped at MAX_FACTOR
        e = np.maximum(err_norm, 1e-300)
        grow = np.fmin(MAX_FACTOR, np.fmax(MIN_FACTOR, SAFETY * e ** -K_I * a.err_prev ** K_P))
        shrink = np.fmax(MIN_FACTOR, SAFETY * e ** -0.2)
        kept = accept[:, None]
        a.t = np.where(accept, a.t + a.h, a.t)
        a.z = np.where(kept, z_new, a.z)
        a.f_now = np.where(kept, k[6], a.f_now)
        a.err_prev = np.where(accept, np.maximum(err_norm, 1e-10), a.err_prev)
        a.h = a.h * np.where(accept, grow, shrink)
        a.n_acc = a.n_acc + accept
        attempts += 1

    if not single:
        out[[r for r, err in enumerate(failures) if err is not None]] = np.nan
        return Trajectory(t_eval.copy(), out, n_accepted, n_rejected, tuple(failures))
    if failures[0] is not None:
        raise failures[0]
    done = n_emitted[0]
    return Trajectory(t_eval[:done].copy(), out[0, :done], int(n_accepted[0]), int(n_rejected[0]))
