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
from cartmech.states import LAGRANGIAN
from cartmech.systems import build_system


def zero_potential(leaves, x):
    return ad.mul(ad.reduce_sum(x), 0.0)


def linear_potential(system):
    """Tape twin of the system's LinearGravity (possibly inside a sum)."""
    pot = system.potential
    target = pot.parts[0] if hasattr(pot, "parts") else pot
    d, dn = system.topology.dim, system.topology.dn
    cvec = np.zeros(dn)
    for p in range(system.topology.n_points):
        cvec[p * d + target.axis] = target.g * target.weights[p]

    def potential(leaves, x):
        return ad.matmul(x, cvec.reshape(-1, 1))

    return potential


def true_mass_store(model, system, seed=0):
    store = model.init_params(np.random.default_rng(seed))
    for k, body in enumerate(system.topology.bodies):
        store[f"mass.log_m{k}"] = np.log(body.mass)
        if body.ndim:
            store[f"mass.log_lam{k}"] = np.log(np.asarray(body.moments))
    return store


def eval_node(model, store, fn_name, array):
    tape = ad.Tape()
    leaves = {k: tape.constant(v) for k, v in store.items()}
    return getattr(model, fn_name)(leaves, tape.constant(array)).value


def lagrangian_batch(system, rng, count):
    ctx = system.context()
    Z = system.sample(rng, count)
    return Z, np.stack([convert_flavor(ctx, z, LAGRANGIAN) for z in Z])


def test_learned_mass_blocks_match_assembled_matrices():
    for name, kwargs in [("npendulum", dict(n=3, masses=(1.0, 2.0, 0.5))),
                         ("gyroscope", {}), ("rotor", {})]:
        system = build_system(name, **kwargs)
        model = build_model("chnn", system, hidden=(8,), potential=zero_potential)
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
    pot = zero_potential if name == "rotor" else linear_potential(system)
    model = build_model("chnn", system, hidden=(8,), potential=pot)
    store = true_mass_store(model, system)
    Z = system.sample(rng, 5)
    out = eval_node(model, store, "dynamics_node", Z)
    ref = np.stack([system.dynamics(z) for z in Z])
    np.testing.assert_allclose(out, ref, atol=1e-10)


@pytest.mark.parametrize("name,kwargs", [("npendulum", dict(n=2)), ("gyroscope", {})])
def test_clnn_plugin_matches_ground_truth(name, kwargs):
    rng = np.random.default_rng(8)
    system = build_system(name, **kwargs)
    model = build_model("clnn", system, hidden=(8,), potential=linear_potential(system))
    store = true_mass_store(model, system)
    _, W = lagrangian_batch(system, rng, 5)
    out = eval_node(model, store, "dynamics_node", W)
    ctx_l = system.context(LAGRANGIAN)
    ref = np.stack([constrained_dynamics(ctx_l, w) for w in W])
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_chnn_zero_potential_zero_momentum_is_stationary():
    system = build_system("npendulum", n=2)
    model = build_model("chnn", system, hidden=(8,), potential=zero_potential)
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
        raw = model.encode(W)
        tape = ad.Tape()
        leaves = {k: tape.constant(v) for k, v in store.items()}
        w = model.to_state_node(leaves, tape.constant(raw))
        back = model.decode_node(leaves, w).value
        np.testing.assert_allclose(back, W, atol=1e-9, err_msg=kind)


def test_angular_encode_inverts_embedding():
    system = build_system("npendulum", n=3, lengths=(1.0, 0.7, 1.3))
    model = build_model("node-angular", system)
    rng = np.random.default_rng(5)
    q = rng.uniform(-np.pi, np.pi, 3)
    qdot = rng.normal(0.0, 1.0, 3)
    X, V = pendulum_embed(q, qdot, (1.0, 0.7, 1.3))
    flat = np.concatenate([X.ravel(order="F"), V.ravel(order="F")])[None]
    enc = model.encode(flat)
    np.testing.assert_allclose(enc[0], np.concatenate([q, qdot]), atol=1e-12)
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
        build_model("node", system, potential=zero_potential)
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

    from cartmech import models
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
    monkeypatch.setattr(models, "constrained_hamiltonian_field", reference_hamiltonian_field)
    monkeypatch.setattr(models, "constrained_lagrangian_field", reference_lagrangian_field)
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
    """Patch Tape and input_gradient to count tapes and input gradients."""
    tapes, gradients = [], []

    class CountingTape(ad.Tape):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            tapes.append(1)

    original = ad.input_gradient

    def counting_gradient(f, X):
        gradients.append(1)
        return original(f, X)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    monkeypatch.setattr(ad, "input_gradient", counting_gradient)
    return tapes, gradients


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rollout_builds_no_tape_and_matches_the_tape(kind, monkeypatch):
    # evaluation runs on the store's arrays; only input_gradient opens a
    # (private) tape, and the result is the tape's to the bit
    rng = np.random.default_rng(9)
    system = build_system("npendulum", n=2)
    _, W0 = lagrangian_batch(system, rng, 3)
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(1))
    times = system.dt * np.arange(4)
    tape = ad.Tape()
    leaves = store.leaves(tape)
    w0 = model.to_state_node(leaves, tape.constant(model.encode(W0)))
    states = rollout_fixed(lambda w: model.dynamics_node(leaves, w), w0, times)
    on_tape = np.stack([model.decode_node(leaves, w).value for w in states], axis=1)

    tapes, gradients = _counting_tapes(monkeypatch)
    preds = model.rollout(store, W0, times)
    assert np.array_equal(preds, on_tape)
    assert len(tapes) == len(gradients)
    assert len(gradients) == (0 if kind in ("node", "node-angular") else 4 * 3)


def test_hnn2d_builds_its_cholesky_factor_once_per_state_node():
    # 4 RK4 steps: 16 stage states, plus the raw initial state and the last
    # state, which only to_state_node and decode_node see
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
