import math

import numpy as np
import pytest

from cartmech.errors import IntegrationError, ParameterDomainError
from cartmech.integrators import Tolerances, integrate_adaptive, rk4_step, rollout_fixed
from cartmech.systems import build_system


def test_rk4_exponential_single_step():
    # z' = z, h = 0.1: RK4 reproduces the quartic Taylor polynomial of e^h.
    z = rk4_step(lambda z: z, np.array([1.0]), 0.1)
    taylor = sum(0.1 ** k / math.factorial(k) for k in range(5))
    assert abs(z[0] - taylor) < 1e-15
    assert abs(z[0] - np.exp(0.1)) < 1e-7


def test_rollout_fixed_harmonic_oscillator():
    f = lambda z: np.array([z[1], -z[0]])
    times = np.linspace(0, 2 * np.pi, 1001)
    states = np.stack(rollout_fixed(f, np.array([1.0, 0.0]), times))
    np.testing.assert_allclose(states[-1], [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(states[:, 0], np.cos(times), atol=1e-9)


def test_rollout_substeps_reduce_error():
    f = lambda z: np.array([z[1], -z[0]])
    times = np.linspace(0, 2 * np.pi, 11)
    err = [abs(np.stack(rollout_fixed(f, np.array([1.0, 0.0]), times, substeps=s))[-1, 0] - 1.0)
           for s in (1, 2, 4)]
    assert err[1] < err[0] / 8 and err[2] < err[1] / 8  # 4th order: ~16x per halving


def test_adaptive_exponential():
    traj = integrate_adaptive(lambda z: z, np.array([1.0]), 1.0,
                              t_eval=np.array([1.0]), tol=Tolerances(1e-7, 1e-9))
    assert abs(traj.states[-1, 0] - np.e) < 1e-6


def test_adaptive_dense_output():
    f = lambda z: np.array([z[1], -z[0]])
    t_eval = np.linspace(0, 10, 301)
    traj = integrate_adaptive(f, np.array([1.0, 0.0]), 10.0, t_eval=t_eval,
                              tol=Tolerances(1e-9, 1e-12))
    np.testing.assert_array_equal(traj.times, t_eval)
    np.testing.assert_allclose(traj.states[:, 0], np.cos(t_eval), atol=1e-7)
    np.testing.assert_allclose(traj.states[:, 1], -np.sin(t_eval), atol=1e-7)
    assert traj.n_accepted > 0


def test_adaptive_error_scales_with_rtol():
    f = lambda z: np.array([z[1], -z[0]])
    errs = []
    for rtol in (1e-5, 1e-8, 1e-11):
        traj = integrate_adaptive(f, np.array([1.0, 0.0]), 20.0, t_eval=np.array([20.0]),
                                  tol=Tolerances(rtol, rtol * 1e-2))
        errs.append(abs(traj.states[-1, 0] - np.cos(20.0)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-9


def test_adaptive_matches_fixed_on_nonlinear_system():
    f = lambda z: np.array([z[1], -np.sin(z[0])])
    z0 = np.array([1.2, 0.3])
    fine = np.stack(rollout_fixed(f, z0, np.linspace(0, 3, 3001)))[-1]
    traj = integrate_adaptive(f, z0, 3.0, t_eval=np.array([3.0]), tol=Tolerances(1e-10, 1e-12))
    np.testing.assert_allclose(traj.states[-1], fine, atol=1e-8)


def test_adaptive_detects_blowup():
    # z' = z^2 from z=1 blows up at t=1; the step size must underflow.
    with pytest.raises(IntegrationError):
        integrate_adaptive(lambda z: z ** 2, np.array([1.0]), 1.5, t_eval=np.array([1.5]))


def test_adaptive_rejects_bad_t_eval():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda z: z, np.array([1.0]), 1.0, t_eval=np.array([0.5, 2.0]))


def test_adaptive_requires_array_dynamics():
    with pytest.raises(TypeError):
        integrate_adaptive(lambda z: [float(z[0])], np.array([1.0]), 1.0, t_eval=np.array([1.0]))


@pytest.mark.parametrize("name, params, n_rows", [("npendulum", {"n": 2}, 6), ("gyroscope", {}, 3)])
def test_batch_rows_equal_single_runs_bitwise(name, params, n_rows):
    system = build_system(name, **params)
    Z0 = np.stack([system.sample(np.random.default_rng([9, i])) for i in range(n_rows)])
    t_eval = np.linspace(0.0, 0.6, 21)
    tol = Tolerances(1e-7, 1e-9)
    batch = integrate_adaptive(system.dynamics, Z0, 0.6, t_eval=t_eval, tol=tol)
    assert batch.states.shape == (n_rows, 21, Z0.shape[1])
    assert batch.failures == (None,) * n_rows
    attempts = set()
    for i, z0 in enumerate(Z0):
        alone = integrate_adaptive(system.dynamics, z0, 0.6, t_eval=t_eval, tol=tol)
        assert np.array_equal(batch.states[i], alone.states)
        assert (batch.n_accepted[i], batch.n_rejected[i]) == (alone.n_accepted, alone.n_rejected)
        attempts.add(alone.n_accepted + alone.n_rejected)
    assert len(attempts) > 1  # rows finish at different iterations of the batch loop


def test_batch_row_failures_stay_on_their_row():
    # z' = z^2 blows up at t = 1/z0: the first row fails, the second finishes,
    # the third is not finite from the start
    f = lambda z: z ** 2
    t_eval = np.linspace(0.0, 1.5, 4)
    batch = integrate_adaptive(f, np.array([[1.0], [0.2], [np.inf]]), 1.5, t_eval=t_eval)
    blown, fine, poisoned = batch.failures
    assert isinstance(blown, IntegrationError) and 0.9 < blown.t < 1.1 and blown.step > 0
    assert fine is None
    assert isinstance(poisoned, IntegrationError) and poisoned.t == 0.0 and poisoned.step == 0
    assert np.all(np.isnan(batch.states[2])) and np.all(np.isnan(batch.states[0, -1]))
    alone = integrate_adaptive(f, np.array([0.2]), 1.5, t_eval=t_eval)
    assert np.array_equal(batch.states[1], alone.states)
    assert batch.n_accepted[1] == alone.n_accepted


def test_step_budget_ends_only_the_rows_that_exhaust_it():
    # z = (x, v, w) with x' = v, v' = -w^2 x, w' = 0: the still row finishes
    # in a few growing steps, the fast oscillator runs out of its 10 attempts
    def f(z):
        return np.stack([z[:, 1], -z[:, 2] ** 2 * z[:, 0], 0.0 * z[:, 2]], axis=1)

    t_eval = np.linspace(0.0, 1.0, 3)
    Z0 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 100.0]])
    batch = integrate_adaptive(f, Z0, 1.0, t_eval=t_eval, max_steps=10)
    still, fast = batch.failures
    assert still is None
    assert isinstance(fast, IntegrationError) and "exceeded 10 steps" in str(fast)
    assert batch.n_accepted[1] + batch.n_rejected[1] == 10
    assert np.all(np.isnan(batch.states[1]))
    alone = integrate_adaptive(lambda z: f(z[None])[0], Z0[0], 1.0, t_eval=t_eval, max_steps=10)
    assert np.array_equal(batch.states[0], alone.states)
    assert (batch.n_accepted[0], batch.n_rejected[0]) == (alone.n_accepted, alone.n_rejected)
    with pytest.raises(IntegrationError, match="exceeded 10 steps"):
        integrate_adaptive(lambda z: f(z[None])[0], Z0[1], 1.0, t_eval=t_eval, max_steps=10)


@pytest.mark.parametrize("value", [0.0, -1e-7, float("nan"), float("inf")])
def test_tolerances_must_be_finite_and_positive(value):
    for name in ("rtol", "atol"):
        with pytest.raises(ParameterDomainError, match=f"{name} must be finite and positive"):
            Tolerances(**{name: value})
    assert Tolerances(1e-7, 1e-9) == Tolerances()
