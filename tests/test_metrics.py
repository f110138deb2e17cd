import numpy as np
import pytest

from cartmech.errors import ShapeError
from cartmech.metrics import (
    constraint_rmse_curve,
    energy_error,
    geometric_mean,
    relative_error,
)
from cartmech.systems import build_system


def test_relative_error_trivial_values():
    z = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
    np.testing.assert_array_equal(relative_error(z, z), [0.0, 0.0])
    np.testing.assert_allclose(relative_error(-z, z), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(relative_error(np.zeros_like(z), z), [1.0, 1.0], atol=1e-15)


def test_relative_error_zero_over_zero_and_symmetry():
    zero = np.zeros((3, 4))
    np.testing.assert_array_equal(relative_error(zero, zero), np.zeros(3))
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    err = relative_error(a, b)
    assert np.all(err >= 0.0) and np.all(err <= 1.0)
    np.testing.assert_array_equal(err, relative_error(b, a))


def test_relative_error_shape_mismatch():
    with pytest.raises(ShapeError):
        relative_error(np.zeros((3, 2)), np.zeros((4, 2)))


def test_geometric_mean_constant_and_single_sample():
    t = np.linspace(0.0, 2.0, 9)
    assert geometric_mean(np.full(9, 0.37), t) == pytest.approx(0.37, rel=1e-12)
    assert geometric_mean(np.array([4.2]), np.array([0.5])) == 4.2


def test_geometric_mean_exponential_analytic():
    # h(t) = e^t on [0, 1]: mean of log h is 1/2
    t = np.linspace(0.0, 1.0, 2001)
    gm = geometric_mean(np.exp(t), t)
    assert abs(gm - np.exp(0.5)) < 1e-4


def test_geometric_mean_two_samples_is_sqrt_product():
    gm = geometric_mean(np.array([0.04, 0.09]), np.array([0.0, 3.0]))
    assert gm == pytest.approx(np.sqrt(0.04 * 0.09), rel=1e-12)


def test_geometric_mean_scale_equivariance_and_floor():
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 3.0, 50)
    h = np.exp(rng.normal(size=50))
    assert geometric_mean(7.5 * h, t) == pytest.approx(7.5 * geometric_mean(h, t), rel=1e-10)
    assert geometric_mean(np.zeros(50), t) == pytest.approx(1e-12)


def test_geometric_mean_rejects_bad_grids():
    with pytest.raises(ShapeError):
        geometric_mean(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError):
        geometric_mean(np.ones(3), np.zeros(3))


def test_energy_error_trivial_cases():
    system = build_system("npendulum", n=1)
    # hanging bob with speed v: H = v^2/2 - 1; v = 1 gives -1/2, v = sqrt(3) gives +1/2
    low = np.array([0.0, -1.0, 1.0, 0.0])
    high = np.array([0.0, -1.0, np.sqrt(3.0), 0.0])
    np.testing.assert_array_equal(energy_error(system, low, low), [0.0])
    np.testing.assert_allclose(energy_error(system, high, low), [1.0], atol=1e-15)


def test_constraint_rmse_curve_values():
    system = build_system("npendulum", n=1)
    on = np.array([0.0, -1.0, 0.3, 0.0])
    off = np.array([0.0, -2.0, 0.0, 0.0])  # phi = 3
    curve = constraint_rmse_curve(system, np.stack([on, off]))
    np.testing.assert_allclose(curve, [0.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("horizon", [0.0, -0.3, float("nan"), float("inf")])
def test_evaluate_model_needs_a_finite_positive_horizon(horizon):
    # 0 and below used to score two samples, nan and inf failed in int()
    from cartmech.dataset import generate_dataset
    from cartmech.errors import ParameterDomainError
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    system = build_system("npendulum", n=2)
    dataset = generate_dataset(system, 1, steps=5, seed=0, split="test")
    model = build_model("node", system, hidden=(4,))
    store = model.init_params(np.random.default_rng(0))
    with pytest.raises(ParameterDomainError, match="horizon must be finite and positive"):
        evaluate_model(model, store, dataset, horizon=horizon)
    assert evaluate_model(model, store, dataset, horizon=0.06).times.size == 3


def test_evaluate_model_horizon_of_infinitely_many_steps_scores_the_whole_set():
    # horizon / dt overflows to inf; it scores every time, as any horizon
    # longer than the set does
    from cartmech.dataset import generate_dataset
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    system = build_system("npendulum", n=2)
    dataset = generate_dataset(system, 1, steps=5, seed=0, split="test")
    model = build_model("node", system, hidden=(4,))
    store = model.init_params(np.random.default_rng(0))
    whole = evaluate_model(model, store, dataset)
    for horizon in (1e307, 1.0):
        result = evaluate_model(model, store, dataset, horizon=horizon)
        np.testing.assert_array_equal(result.times, whole.times)
        np.testing.assert_array_equal(result.rel_err, whole.rel_err)


@pytest.mark.parametrize("name, shape", [("potential.b0", (1,)), ("potential.b0", ()),
                                         ("mass.log_m0", (1,)), ("mass.log_m1", None)])
def test_evaluate_model_rejects_parameters_that_do_not_fit(name, shape):
    # a b0 of shape (1,) broadcasts, and evaluate_model used to score it
    from cartmech.autodiff import ParamStore
    from cartmech.dataset import generate_dataset
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    system = build_system("npendulum", n=2)
    dataset = generate_dataset(system, 1, steps=5, seed=0, split="test")
    model = build_model("chnn", system, hidden=(4,))
    store = model.init_params(np.random.default_rng(0))
    params = {k: v if k != name else np.zeros(shape) for k, v in store.items()
              if k != name or shape is not None}
    named = [name] if shape is None else [name, str(shape), str(store[name].shape)]
    with pytest.raises(ShapeError) as info:
        evaluate_model(model, ParamStore(params), dataset)
    assert all(part in str(info.value) for part in named)


def test_finite_rollout_with_overflowing_scores_raises_naming_trajectory_and_time():
    # tenfold Cholesky weights: the hnn2d rollout stays finite (up to ~1e181)
    # but its scores overflow on the last sample, t = 0.3; evaluate_model
    # used to return gm_rel_err nan
    from cartmech.dataset import generate_dataset
    from cartmech.errors import RolloutDivergedError
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    system = build_system("npendulum", n=2)
    test_ds = generate_dataset(system, 2, steps=10, seed=1000000, split="test")
    model = build_model("hnn2d", system, hidden=(8, 8))
    store = model.init_params(np.random.default_rng(0))
    for name in store.names():
        if name.startswith("cholesky.w"):
            store[name] = 10.0 * store[name]
    with np.errstate(all="ignore"):
        preds = model.rollout(store, test_ds.states[:, 0], test_ds.times[0])
        with pytest.raises(RolloutDivergedError) as info:
            evaluate_model(model, store, test_ds)
    assert np.isfinite(preds).all()
    assert str(info.value) == "trajectory 0 has a non-finite score at t = 0.3"
