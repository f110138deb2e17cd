import numpy as np
import pytest

import cartmech.autodiff as ad
from cartmech.dynamics import constrained_dynamics, convert_flavor
from cartmech.errors import ParameterDomainError
from cartmech.integrators import rollout_fixed
from cartmech.metrics import constraint_rmse_curve
from cartmech.models import MODEL_KINDS, _mass_nodes, build_model
from cartmech.training import trajectory_loss_node
from cartmech.oracles import pendulum_embed
from cartmech.states import HAMILTONIAN, LAGRANGIAN
from cartmech.systems import build_system


def zero_gradient(leaves, x):
    """grad V of V = 0."""
    return np.zeros(x.shape)


def linear_gradient(system):
    """grad V of the system's LinearGravity (possibly inside a sum): a
    constant row per state."""
    pot = system.potential
    target = pot.parts[0] if hasattr(pot, "parts") else pot
    d, dn = system.topology.dim, system.topology.dn
    cvec = np.zeros(dn)
    for p in range(system.topology.n_points):
        cvec[p * d + target.axis] = target.g * target.weights[p]

    def grad_potential(leaves, x):
        return np.zeros(x.shape) + cvec

    return grad_potential


def true_mass_store(model, system, seed=0):
    store = model.init_params(np.random.default_rng(seed))
    for k, body in enumerate(system.topology.bodies):
        store[f"mass.log_m{k}"] = np.log(body.mass)
        if body.ndim:
            store[f"mass.log_lam{k}"] = np.log(np.asarray(body.moments))
    return store


def eval_node(model, store, fn_name, array):
    tape = ad.Tape()
    leaves = model.bind({k: tape.constant(v) for k, v in store.items()})
    return getattr(model, fn_name)(leaves, tape.constant(array)).value


def lagrangian_batch(system, rng, count):
    ctx = system.context()
    Z = system.sample(rng, count)
    return Z, np.stack([convert_flavor(ctx, z, LAGRANGIAN) for z in Z])


def test_learned_mass_blocks_match_assembled_matrices():
    for name, kwargs in [("npendulum", dict(n=3, masses=(1.0, 2.0, 0.5))),
                         ("gyroscope", {}), ("rotor", {})]:
        system = build_system(name, **kwargs)
        model = build_model("chnn", system, hidden=(8,), grad_potential=zero_gradient)
        store = true_mass_store(model, system)
        tape = ad.Tape()
        leaves = {k: tape.constant(v) for k, v in store.items()}
        M, Minv = _mass_nodes(leaves, system.topology.bodies)
        np.testing.assert_allclose(M.value, system.mass.matrix, atol=1e-12)
        np.testing.assert_allclose(Minv.value, system.mass.inverse, atol=1e-12)


@pytest.mark.parametrize(
    "name,kwargs",
    [("npendulum", dict(n=3, masses=(1.0, 2.0, 0.5), lengths=(1.0, 0.7, 1.3))),
     ("gyroscope", {}), ("rotor", {})])
def test_chnn_plugin_matches_ground_truth(name, kwargs):
    # with true masses and the true potential on the tape, the learned model's
    # dynamics must be the constrained Hamiltonian flow itself
    rng = np.random.default_rng(7)
    system = build_system(name, **kwargs)
    grad_V = zero_gradient if name == "rotor" else linear_gradient(system)
    model = build_model("chnn", system, hidden=(8,), grad_potential=grad_V)
    store = true_mass_store(model, system)
    Z = system.sample(rng, 5)
    out = eval_node(model, store, "dynamics_node", Z)
    ref = np.stack([system.dynamics(z) for z in Z])
    np.testing.assert_allclose(out, ref, atol=1e-10)


@pytest.mark.parametrize("name,kwargs", [("npendulum", dict(n=2)), ("gyroscope", {})])
def test_clnn_plugin_matches_ground_truth(name, kwargs):
    rng = np.random.default_rng(8)
    system = build_system(name, **kwargs)
    model = build_model("clnn", system, hidden=(8,), grad_potential=linear_gradient(system))
    store = true_mass_store(model, system)
    _, W = lagrangian_batch(system, rng, 5)
    out = eval_node(model, store, "dynamics_node", W)
    ctx_l = system.context(LAGRANGIAN)
    ref = np.stack([constrained_dynamics(ctx_l, w) for w in W])
    np.testing.assert_allclose(out, ref, atol=1e-10)


@pytest.mark.parametrize("name", ["npendulum", "coupled", "magnet"])
def test_constrained_models_run_the_ground_truth_flows_bit_for_bit(name):
    # unit masses are the learned ones at initialization (exp 0 = 1), so with
    # the system's own grad V each model is the system's flow, bit for bit
    system = build_system(name)
    ctx, ctx_l = system.context(), system.context(LAGRANGIAN)
    Z = system.sample(np.random.default_rng(9), 6)
    W = convert_flavor(ctx, Z, LAGRANGIAN)

    def grad_V(leaves, x):  # an array on the tape too
        return ctx.grad_potential(getattr(x, "value", x))

    models = {kind: build_model(kind, system, hidden=(8,), grad_potential=grad_V)
              for kind in ("chnn", "clnn")}
    checks = [("chnn", "dynamics_node", Z, system.dynamics(Z)),
              ("chnn", "to_state_node", W, convert_flavor(ctx_l, W, HAMILTONIAN)),
              ("chnn", "decode_node", Z, W),
              ("clnn", "dynamics_node", W, constrained_dynamics(ctx_l, W))]
    for kind, method, states, want in checks:
        model = models[kind]
        store = model.init_params(np.random.default_rng(0))
        on_arrays = getattr(model, method)(model.bind(dict(store.items())), states)
        assert on_arrays.tobytes() == want.tobytes(), (kind, method)
        assert eval_node(model, store, method, states).tobytes() == want.tobytes(), (kind, method)


def test_chnn_zero_potential_zero_momentum_is_stationary():
    system = build_system("npendulum", n=2)
    model = build_model("chnn", system, hidden=(8,), grad_potential=zero_gradient)
    store = model.init_params(np.random.default_rng(0))
    Z = system.sample(np.random.default_rng(1), 3)
    Z[:, system.topology.dn:] = 0.0
    out = eval_node(model, store, "dynamics_node", Z)
    assert np.max(np.abs(out)) == 0.0


def test_node_output_shape_matches_input_for_all_systems():
    rng = np.random.default_rng(2)
    for name in ("npendulum", "coupled", "magnet", "gyroscope", "rotor"):
        system = build_system(name)
        model = build_model("node", system, hidden=(8,))
        store = model.init_params(np.random.default_rng(0))
        Z = system.sample(rng, 4)
        out = eval_node(model, store, "dynamics_node", Z)
        assert out.shape == Z.shape


def test_state_conversion_roundtrip_all_kinds():
    rng = np.random.default_rng(3)
    system = build_system("npendulum", n=3, lengths=(1.0, 0.7, 1.3))
    _, W = lagrangian_batch(system, rng, 4)
    for kind in MODEL_KINDS:
        model = build_model(kind, system, hidden=(8,))
        store = model.init_params(np.random.default_rng(4))
        tape = ad.Tape()
        leaves = model.bind({k: tape.constant(v) for k, v in store.items()})
        w = model.to_state_node(leaves, W)
        back = ad._value(model.decode_node(leaves, w))
        np.testing.assert_allclose(back, W, atol=1e-9, err_msg=kind)


def test_angular_state_inverts_embedding():
    system = build_system("npendulum", n=3, lengths=(1.0, 0.7, 1.3))
    model = build_model("node-angular", system)
    rng = np.random.default_rng(5)
    q = rng.uniform(-np.pi, np.pi, 3)
    qdot = rng.normal(0.0, 1.0, 3)
    X, V = pendulum_embed(q, qdot, (1.0, 0.7, 1.3))
    flat = np.concatenate([X.ravel(order="F"), V.ravel(order="F")])[None]
    state = model.to_state_node({}, flat)
    np.testing.assert_allclose(state[0], np.concatenate([q, qdot]), atol=1e-12)
    tape = ad.Tape()
    emb = model._embed_node(tape.constant(q[None]), tape.constant(qdot[None]))
    assert np.array_equal(emb.value, flat)


def test_hnn2d_identity_networks_give_free_angle_flow():
    # all-zero weights make L = I and V = 0, so qdot = p and pdot = 0
    system = build_system("npendulum", n=3)
    model = build_model("hnn2d", system)
    store = model.init_params(np.random.default_rng(0))
    for name in store.names():
        store[name] = np.zeros_like(store[name])
    w = np.array([[0.3, -1.2, 0.7, 0.5, -0.1, 2.0]])
    out = eval_node(model, store, "dynamics_node", w)
    np.testing.assert_allclose(out[0, :3], w[0, 3:], atol=1e-12)
    np.testing.assert_allclose(out[0, 3:], 0.0, atol=1e-12)


def constraint_rms(system, states):
    """RMS of every constraint value over all states."""
    return float(np.sqrt(np.mean(constraint_rmse_curve(system, states) ** 2)))


def test_constraint_violation_within_ten_times_ground_truth():
    # constraints are architectural: even untrained weights keep rollouts as
    # close to the manifold as the ground-truth integrator at the same step
    rng = np.random.default_rng(0)
    for name, kwargs in (("npendulum", dict(n=2)), ("coupled", {})):
        system = build_system(name, **kwargs)
        Z, W0 = lagrangian_batch(system, rng, 6)
        times = system.dt * np.arange(34)
        truth = np.stack([np.stack(rollout_fixed(system.dynamics, z, times)) for z in Z])
        gt = constraint_rms(system, truth.reshape(-1, truth.shape[-1]))
        for kind in ("chnn", "clnn"):
            model = build_model(kind, system, hidden=(32, 32))
            store = model.init_params(np.random.default_rng(5))
            preds = model.rollout(store, W0, times)
            drift = constraint_rms(system, preds.reshape(-1, preds.shape[-1]))
            assert drift < 10.0 * gt, (name, kind, drift, gt)


def test_rollout_shape_and_initial_state():
    rng = np.random.default_rng(6)
    system = build_system("npendulum", n=2)
    _, W0 = lagrangian_batch(system, rng, 3)
    model = build_model("node", system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    times = system.dt * np.arange(5)
    preds = model.rollout(store, W0, times)
    assert preds.shape == (3, 5, 8)
    np.testing.assert_allclose(preds[:, 0], W0, atol=0)


def test_model_registry_rejects_bad_requests():
    system = build_system("npendulum", n=2)
    with pytest.raises(ValueError):
        build_model("lstm", system)
    with pytest.raises(ValueError):
        build_model("node", system, grad_potential=zero_gradient)
    with pytest.raises(ValueError):
        build_model("hnn2d", build_system("rotor"))
    with pytest.raises(ValueError):
        build_model("node-angular", build_system("magnet"))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_hidden_widths_below_one_are_rejected_by_name(kind):
    system = build_system("npendulum", n=2)
    for hidden in ((0,), (-3,), (8, 0)):
        with pytest.raises(ParameterDomainError, match="hidden"):
            build_model(kind, system, hidden=hidden)


@pytest.mark.parametrize("kind", ["chnn", "clnn"])
def test_constrained_loss_records_one_field_node_per_field_call(kind, monkeypatch):
    from reference_fields import reference_hamiltonian_field, reference_lagrangian_field

    from cartmech import dynamics
    from cartmech.dataset import generate_dataset

    system = build_system("npendulum", n=2)
    chunks = generate_dataset(system, 3, steps=10, seed=1, split="train").states
    assert chunks.shape[1] == 5  # 4 RK4 steps of 4 field calls
    model = build_model(kind, system, hidden=(16, 16))
    store = model.init_params(np.random.default_rng(2))

    def loss_and_grads():
        tape = ad.Tape()
        leaves = store.leaves(tape)
        loss = trajectory_loss_node(model, leaves, chunks)
        ops = [node.op for node in tape.nodes]
        return loss.value, ad.grad(loss, [leaves[k] for k in store.names()]), ops

    loss, grads, ops = loss_and_grads()
    op = {"chnn": "hamiltonian_field", "clnn": "lagrangian_field"}[kind]
    assert ops.count(op) == 16 and "spd_solve" not in ops
    monkeypatch.setattr(dynamics, "constrained_hamiltonian_field", reference_hamiltonian_field)
    monkeypatch.setattr(dynamics, "constrained_lagrangian_field", reference_lagrangian_field)
    ref_loss, ref_grads, ref_ops = loss_and_grads()
    assert ref_ops.count("spd_solve") == 16 and op not in ref_ops
    assert loss.tobytes() == ref_loss.tobytes()
    for got, want in zip(grads, ref_grads):
        assert np.max(np.abs(got.value - want.value)) <= 1e-12 * np.max(np.abs(want.value))


@pytest.mark.parametrize("kind", ["chnn", "clnn"])
def test_learned_mass_is_built_once_per_loss(kind, monkeypatch):
    from cartmech import models
    from cartmech.training import trajectory_loss_node

    built = []

    def counting(*args):
        built.append(1)
        return _mass_nodes(*args)

    monkeypatch.setattr(models, "_mass_nodes", counting)
    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    chunks = np.stack([system.sample(np.random.default_rng(1), 3)] * 4, axis=1)
    tape = ad.Tape()
    trajectory_loss_node(model, store.leaves(tape), chunks)
    assert len(built) == 1
    trajectory_loss_node(model, store.leaves(ad.Tape()), chunks)
    assert len(built) == 2


@pytest.mark.parametrize("kind", ["chnn", "clnn"])
def test_learned_mass_is_built_once_per_rollout(kind, monkeypatch):
    # on arrays the parameters stay fixed for a rollout, so every field and
    # decode call of one rollout shares one build; the next rollout rebuilds
    from cartmech import models

    built = []

    def counting(*args):
        built.append(1)
        return _mass_nodes(*args)

    monkeypatch.setattr(models, "_mass_nodes", counting)
    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    _, W0 = lagrangian_batch(system, np.random.default_rng(1), 3)
    times = system.dt * np.arange(4)
    first = model.rollout(store, W0, times)
    assert len(built) == 1
    store["mass.log_m0"] = np.array(0.5)
    assert not np.array_equal(model.rollout(store, W0, times), first)
    assert len(built) == 2


def _counting_tapes(monkeypatch):
    """Patch Tape to count the tapes made."""
    tapes = []

    class CountingTape(ad.Tape):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            tapes.append(1)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    return tapes


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rollout_builds_no_tape_and_matches_the_tape(kind, monkeypatch):
    # evaluation runs on the store's arrays, input gradients included, and
    # the result is the tape's to the bit
    rng = np.random.default_rng(9)
    system = build_system("npendulum", n=2)
    _, W0 = lagrangian_batch(system, rng, 3)
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(1))
    times = system.dt * np.arange(4)
    tape = ad.Tape()
    leaves = model.bind(store.leaves(tape))
    w0 = model.to_state_node(leaves, W0)
    states = rollout_fixed(lambda w: model.dynamics_node(leaves, w), w0, times)
    on_tape = np.stack([ad._value(model.decode_node(leaves, w)) for w in states], axis=1)

    tapes = _counting_tapes(monkeypatch)
    preds = model.rollout(store, W0, times)
    assert np.array_equal(preds, on_tape)
    assert not tapes


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rollout_and_loss_decode_in_one_call(kind, monkeypatch):
    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    _, W = lagrangian_batch(system, np.random.default_rng(2), 3)
    calls = []
    original = model.decode_node

    def counting(leaves, w):
        calls.append(w.shape[0])
        return original(leaves, w)

    monkeypatch.setattr(model, "decode_node", counting)
    preds = model.rollout(store, W, system.dt * np.arange(5))
    assert preds.shape == (3, 5, 8) and calls == [5 * 3]
    calls.clear()
    trajectory_loss_node(model, store.leaves(ad.Tape()), np.stack([W] * 5, axis=1))
    assert calls == [4 * 3]


def test_hnn2d_builds_its_cholesky_factor_once_per_state_node():
    # 4 RK4 steps: 16 stage states, plus the raw initial state, which only
    # to_state_node sees, and the one batched decode of the compared states
    system = build_system("npendulum", n=2)
    model = build_model("hnn2d", system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    _, W = lagrangian_batch(system, np.random.default_rng(2), 3)
    chunks = np.stack([W] * 5, axis=1)
    tape = ad.Tape()
    leaves = store.leaves(tape)
    trajectory_loss_node(model, leaves, chunks)
    cholesky = [n for n in tape.nodes if n.op == "mlp" and n.parents[1] is leaves["cholesky.w0"]]
    assert len(cholesky) == 4 * 4 + 2


def test_hnn2d_builds_its_cholesky_factor_once_per_state_array(monkeypatch):
    # the array rollout matches the tape's count: 4 RK4 steps of 4 stage
    # states, the raw initial state, and the one batched decode of all
    # states; the field's pullback reuses the chart's forward
    system = build_system("npendulum", n=2)
    model = build_model("hnn2d", system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    _, W0 = lagrangian_batch(system, np.random.default_rng(2), 3)
    forwards = []
    original = ad.mlp_pullback

    def counting(params, x, prefix="mlp"):
        forwards.append(prefix)
        return original(params, x, prefix)

    monkeypatch.setattr(ad, "mlp_pullback", counting)
    model.rollout(store, W0, system.dt * np.arange(5))
    assert forwards.count("cholesky") == 4 * 4 + 2
    assert forwards.count("potential") == 4 * 4


def _hnn2d_problem(n):
    system = build_system("npendulum", n=n)
    model = build_model("hnn2d", system, hidden=(16, 16))
    store = model.init_params(np.random.default_rng(n))
    _, W = lagrangian_batch(system, np.random.default_rng(10 + n), 4)
    return system, model, store, W


@pytest.mark.parametrize("n", [2, 3])
def test_hnn2d_field_matches_the_gradient_of_its_hamiltonian(n):
    # the field written out around the two pullbacks against input_gradient
    # of H: bitwise on arrays, to 1e-12 on the tape, second order included
    from reference_fields import reference_hnn2d_field

    system, model, store, W = _hnn2d_problem(n)
    w = np.concatenate([model._angles(W)[:, :n], np.random.default_rng(n).normal(size=(4, n))], 1)
    params = dict(store.items())
    got = model.dynamics_node(params, w)
    assert isinstance(got, np.ndarray)
    assert got.tobytes() == reference_hnn2d_field(model, params, w).tobytes()

    weights = np.random.default_rng(20 + n).normal(size=w.shape)

    def loss_and_grads(field):
        tape = ad.Tape()
        leaves = store.leaves(tape)
        wn = tape.constant(w)
        loss = ad.reduce_sum(ad.mul(field(model, leaves, wn), weights))
        grads = ad.grad(loss, [wn] + [leaves[k] for k in store.names()])
        return loss.value, [g.value for g in grads]

    loss, grads = loss_and_grads(lambda m, lv, ww: m.dynamics_node(lv, ww))
    ref_loss, ref_grads = loss_and_grads(reference_hnn2d_field)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, a, b in zip(["w"] + store.names(), grads, ref_grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


@pytest.mark.parametrize("n", [2, 3])
def test_hnn2d_training_step_matches_the_reference_field(n, monkeypatch):
    from reference_fields import reference_hnn2d_field

    from cartmech.models import HNN2D

    system, model, store, W = _hnn2d_problem(n)
    chunks = model.rollout(store, W, system.dt * np.arange(3)) + 0.01

    def loss_and_grads():
        tape = ad.Tape()
        leaves = store.leaves(tape)
        loss = trajectory_loss_node(model, leaves, chunks)
        return loss.value, [g.value for g in ad.grad(loss, [leaves[k] for k in store.names()])]

    loss, grads = loss_and_grads()
    monkeypatch.setattr(HNN2D, "dynamics_node", reference_hnn2d_field)
    ref_loss, ref_grads = loss_and_grads()
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, a, b in zip(store.names(), grads, ref_grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def _heavy_first_body(kind, system):
    """A model whose body 0 is 1e34 times heavier than body 1: the first row
    of K = DPhi M^-1 DPhi^T vanishes, so the multiplier solve is degenerate."""
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    store["mass.log_m0"] = np.array(80.0)
    return model, store


@pytest.mark.parametrize("kind", ["chnn", "clnn"])
def test_degenerate_learned_mass_raises_in_rollout(kind):
    from cartmech.errors import DegenerateConfigurationError

    system = build_system("npendulum", n=2)
    _, W0 = lagrangian_batch(system, np.random.default_rng(4), 2)
    model, store = _heavy_first_body(kind, system)
    with pytest.raises(DegenerateConfigurationError) as info:
        model.rollout(store, W0, system.dt * np.arange(3))
    assert info.value.ratio < ad.PIVOT_RATIO_LIMIT


@pytest.mark.parametrize("kind", ["chnn", "clnn"])
def test_degenerate_learned_mass_raises_in_evaluate_model(kind):
    from cartmech.dataset import generate_dataset
    from cartmech.errors import DegenerateConfigurationError
    from cartmech.metrics import evaluate_model

    system = build_system("npendulum", n=2)
    test_ds = generate_dataset(system, 2, steps=5, seed=3, split="test")
    model, store = _heavy_first_body(kind, system)
    with pytest.raises(DegenerateConfigurationError):
        evaluate_model(model, store, test_ds)


def test_diverging_rollout_raises_naming_its_first_non_finite_trajectory_and_time():
    # tenfold Cholesky weights make the learned inverse mass overflow within
    # a few steps; evaluate_model used to score such a rollout as nan
    from cartmech.dataset import generate_dataset
    from cartmech.errors import RolloutDivergedError
    from cartmech.metrics import evaluate_model

    system = build_system("npendulum", n=2)
    test_ds = generate_dataset(system, 4, steps=100, seed=1000000, split="test")
    model = build_model("hnn2d", system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    for name in store.names():
        if name.startswith("cholesky.w"):
            store[name] = 10.0 * store[name]
    with np.errstate(all="ignore"):
        with pytest.raises(RolloutDivergedError) as info:
            evaluate_model(model, store, test_ds, horizon=3.0)
        times = test_ds.times[0, :101]
        params = model.bind(dict(store.items()))
        w0 = model.to_state_node(params, test_ds.states[:, 0])
        states = rollout_fixed(lambda w: model.dynamics_node(params, w), w0, times)
        finite = np.stack([np.isfinite(model.decode_node(params, w)).all(axis=1)
                           for w in states], axis=1)
    row = np.flatnonzero(~finite.all(axis=1))[0]
    t = times[np.flatnonzero(~finite[row])[0]]
    assert str(info.value) == f"trajectory {row} is not finite at t = {t:.6g}"
