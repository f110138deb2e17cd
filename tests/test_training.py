from types import SimpleNamespace

import numpy as np
import pytest

import cartmech.autodiff as ad
from cartmech.bodies import BodySpec, assemble_mass_matrix
from cartmech.dataset import write_history
from cartmech.dynamics import convert_flavor
from cartmech.errors import ParameterDomainError, TrainingError
from cartmech.integrators import Tolerances, integrate_adaptive
from cartmech.models import MODEL_KINDS, build_model
from cartmech.states import LAGRANGIAN
from cartmech.systems import SumPotential, System
from cartmech.topology import SystemTopology
from cartmech.training import (
    MAX_BAD_STEPS,
    AdamW,
    TrainConfig,
    cosine_lr,
    train,
    trajectory_loss,
    trajectory_loss_node,
)
from test_models import linear_gradient, true_mass_store

DT = 0.03


def free_particle_system(dim=1):
    """Unconstrained point mass: zdot = (v, 0) in both flavors."""
    topo = SystemTopology(dim=dim, bodies=[BodySpec.point(1.0)], constraints=[], anchors=[])
    return System("free", SimpleNamespace(dt=DT), topo,
                  assemble_mass_matrix(topo.bodies), SumPotential())


def free_particle_chunks(rng, count, steps=4):
    x0 = rng.uniform(-1.0, 1.0, count)
    v0 = rng.uniform(-1.0, 1.0, count)
    t = DT * np.arange(steps + 1)
    x = x0[:, None] + v0[:, None] * t[None, :]
    v = np.broadcast_to(v0[:, None], x.shape)
    return np.stack([x, v], axis=2)  # (count, steps+1, 2)


def exact_pendulum_setup(n=2, seed=0):
    from cartmech.systems import build_system

    system = build_system("npendulum", n=n)
    model = build_model("chnn", system, hidden=(8,), grad_potential=linear_gradient(system))
    store = true_mass_store(model, system, seed=seed)
    return system, model, store


def test_perfect_model_has_zero_loss():
    system, model, store = exact_pendulum_setup()
    rng = np.random.default_rng(1)
    Z = system.sample(rng, 4)
    ctx = system.context()
    W0 = np.stack([convert_flavor(ctx, z, LAGRANGIAN) for z in Z])
    chunks = model.rollout(store, W0, DT * np.arange(5))
    assert trajectory_loss(model, store, chunks) == 0.0


def test_exact_model_loss_vs_adaptive_truth_is_step_error_only():
    system, model, store = exact_pendulum_setup()
    rng = np.random.default_rng(2)
    Z = system.sample(rng, 4)
    ctx = system.context()
    chunks = []
    for z in Z:
        traj = integrate_adaptive(system.dynamics, z, 4 * DT, t_eval=DT * np.arange(5),
                                  tol=Tolerances(1e-10, 1e-12))
        chunks.append(np.stack([convert_flavor(ctx, s, LAGRANGIAN) for s in traj.states]))
    loss = trajectory_loss(model, store, np.stack(chunks))
    assert 0.0 < loss < 1e-6


def test_constant_model_loss_is_mean_l1_displacement():
    class Still:
        def __init__(self, system):
            self.system = system

        def bind(self, leaves):
            return leaves

        def to_state_node(self, leaves, raw):
            return raw

        def decode_node(self, leaves, w):
            return w

        def dynamics_node(self, leaves, w):
            return ad.mul(w, 0.0)

    rng = np.random.default_rng(3)
    chunks = free_particle_chunks(rng, 6, steps=3)
    model = Still(free_particle_system())
    expected = np.mean([np.sum(np.abs(chunks[:, t] - chunks[:, 0])) for t in (1, 2, 3)]) / 6
    tape = ad.Tape()
    loss = trajectory_loss_node(model, {"unused": tape.constant(0.0)}, chunks)
    np.testing.assert_allclose(float(ad._value(loss)), expected, atol=1e-14)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_loss_tape_has_no_input_node_but_the_parameters(kind):
    # the initial states, the truth and every array operand stay arrays among
    # their nodes' parents instead of becoming input nodes of the tape
    from cartmech.systems import build_system

    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=(8,))
    ctx = system.context()
    W0 = np.stack([convert_flavor(ctx, z, LAGRANGIAN)
                   for z in system.sample(np.random.default_rng(6), 3)])
    tape = ad.Tape(graph=False)
    leaves = model.init_params(np.random.default_rng(7)).leaves(tape)
    trajectory_loss_node(model, leaves, np.repeat(W0[:, None], 3, axis=1))
    inputs = [node for node in tape.nodes if node.op is None]
    assert len(inputs) == len(leaves)
    assert all(node is leaf for node, leaf in zip(inputs, leaves.values()))


def test_loss_gradient_matches_finite_differences():
    system = free_particle_system()
    model = build_model("node", system, hidden=(8,))
    store = model.init_params(np.random.default_rng(4))
    chunks = free_particle_chunks(np.random.default_rng(5), 3, steps=1)
    names = store.names()
    tape = ad.Tape()
    leaves = store.leaves(tape)
    loss = trajectory_loss_node(model, leaves, chunks)
    grads = ad.grad(loss, [leaves[n] for n in names])
    for name, g in zip(names, grads):
        def f(val, name=name):
            old = store[name].copy()
            store[name] = val
            out = trajectory_loss(model, store, chunks)
            store[name] = old
            return out

        err = ad.finite_difference_check(f, lambda _: g.value, store[name], h=1e-6)
        assert err < 1e-4, (name, err)


def test_loss_is_exactly_batch_permutation_invariant():
    system, model, store = exact_pendulum_setup()
    rng = np.random.default_rng(6)
    Z = system.sample(rng, 16)
    ctx = system.context()
    W0 = np.stack([convert_flavor(ctx, z, LAGRANGIAN) for z in Z])
    chunks = model.rollout(store, W0, DT * np.arange(5))
    chunks += rng.normal(0.0, 0.01, chunks.shape)
    base = trajectory_loss(model, store, chunks)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(chunks))
        assert trajectory_loss(model, store, chunks[perm]) == base


def test_cosine_schedule_endpoints():
    cfg = TrainConfig(epochs=100, lr=3e-3)
    assert cosine_lr(0, cfg) == 3e-3
    assert abs(cosine_lr(100, cfg)) < 1e-18
    assert cosine_lr(50, cfg) == pytest.approx(1.5e-3)


def test_adamw_zero_gradient_zero_decay_is_identity():
    store = ad.ParamStore({"w": np.array([1.0, -2.0])})
    opt = AdamW(store, weight_decay=0.0)
    opt.step(store, {"w": np.zeros(2)}, 0.1)
    np.testing.assert_array_equal(store["w"], [1.0, -2.0])


def test_adamw_quadratic_bowl_monotone_descent():
    store = ad.ParamStore({"w": np.array([3.0, -4.0])})
    opt = AdamW(store, weight_decay=0.0)
    cfg = TrainConfig(epochs=200, lr=0.05, weight_decay=0.0)
    losses = []
    for step in range(200):
        losses.append(float(store["w"] @ store["w"]))
        opt.step(store, {"w": 2.0 * store["w"]}, cosine_lr(step, cfg))
    assert np.all(np.diff(losses) <= 1e-12)
    assert losses[-1] < losses[0] / 50.0


def test_adamw_decoupled_weight_decay_shrinks_params():
    store = ad.ParamStore({"w": np.array([2.0])})
    opt = AdamW(store, weight_decay=0.5)
    opt.step(store, {"w": np.zeros(1)}, 0.1)
    np.testing.assert_allclose(store["w"], [2.0 * (1.0 - 0.1 * 0.5)], atol=1e-15)


def test_train_free_particle_node_converges():
    system = free_particle_system()
    model = build_model("node", system, hidden=(32,))
    chunks = free_particle_chunks(np.random.default_rng(7), 64)
    cfg = TrainConfig(epochs=50, batch_size=32, lr=1e-2, weight_decay=0.0, seed=0)
    result = train(model, chunks, cfg)
    assert result.history.shape == (50, 3)
    assert result.history[-1, 1] < 1e-3
    assert result.bad_steps == 0


def test_train_is_deterministic_per_seed(tmp_path):
    system = free_particle_system()
    chunks = free_particle_chunks(np.random.default_rng(8), 16)
    cfg = TrainConfig(epochs=5, batch_size=8, lr=1e-2, seed=3)
    runs = []
    for _ in range(2):
        model = build_model("node", system, hidden=(8,))
        runs.append(train(model, chunks, cfg))
    assert np.array_equal(runs[0].history, runs[1].history)
    for name in runs[0].store.names():
        assert np.array_equal(runs[0].store[name], runs[1].store[name])
    path = tmp_path / "history.csv"
    write_history(runs[0].history, path)
    again = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_allclose(again, runs[0].history, rtol=0, atol=0)


def test_train_frees_each_step_tape_without_the_garbage_collector():
    # a node refers back to its tape, so a tape nobody empties lives until a
    # full collection, and with it every array of its step
    import gc

    system = free_particle_system()
    chunks = free_particle_chunks(np.random.default_rng(8), 16)
    model = build_model("node", system, hidden=(8,))
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, ad.Tape) for o in gc.get_objects())
        train(model, chunks, TrainConfig(epochs=3, batch_size=8))
        after = sum(isinstance(o, ad.Tape) for o in gc.get_objects())
    finally:
        gc.enable()
    assert after == before


def test_train_holds_one_step_graph_at_each_backward_pass(monkeypatch):
    # the nodes a finished step leaves bound must not pin its graph while the
    # next step records its own: every backward pass starts from the same count
    import gc

    from cartmech.systems import build_system

    counts = []
    grad = ad.grad

    def counting_grad(output, wrt):
        counts.append(sum(isinstance(o, ad.Node) for o in gc.get_objects()))
        return grad(output, wrt)

    monkeypatch.setattr(ad, "grad", counting_grad)
    model = build_model("node", build_system("npendulum", n=2), hidden=(8,))
    chunks = np.random.default_rng(10).normal(size=(16, 5, 8))
    gc.collect()
    gc.disable()
    try:
        train(model, chunks, TrainConfig(epochs=3, batch_size=8))
    finally:
        gc.enable()
    assert len(counts) == 6
    assert counts == [counts[0]] * 6


@pytest.mark.parametrize("kind", ["chnn", "hnn2d"])
def test_mlp_vjp_nodes_keep_their_errors_and_share_the_mlp_hidden_list(kind):
    # a training step's forward tape: each `mlp` node keeps hidden[1:], and
    # each `mlp_vjp` node keeps (that same list, errs[:-1]); the rules rebuild
    # h_1 and the top error, which need no hidden x hidden product
    from cartmech.systems import build_system
    from test_models import lagrangian_batch

    hidden = (8, 8, 8)
    n_layers = len(hidden) + 1
    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=hidden)
    _, W = lagrangian_batch(system, np.random.default_rng(5), 4)
    tape = ad.Tape(graph=False)
    store = model.init_params(np.random.default_rng(0))
    trajectory_loss_node(model, store.leaves(tape), np.stack([W] * 3, axis=1))
    mlps = [node for node in tape.nodes if node.op == "mlp"]
    vjps = [node for node in tape.nodes if node.op == "mlp_vjp"]
    assert mlps and vjps
    values = [[getattr(p, "value", p) for p in node.parents] for node in mlps]
    rows = [x.size // x.shape[-1] for x, *_ in values]
    for mlp, (h, *params) in zip(mlps, values):
        forward = []
        for w, b in zip(params[0:-2:2], params[1:-2:2]):
            h = np.tanh(h @ w + b)
            forward.append(h)
        assert type(mlp.extra) is list and len(mlp.extra) == n_layers - 2
        assert all(np.array_equal(a, b) for a, b in zip(mlp.extra, forward[1:]))
    saved = [sum(h.nbytes for h in mlp.extra) for mlp in mlps]
    for vjp in vjps:
        (at,) = [i for i, m in enumerate(mlps) if len(m.parents) == len(vjp.parents) - 1
                 and all(a is b for a, b in zip(m.parents, vjp.parents[1:]))]
        kept, errs = vjp.extra
        assert kept is mlps[at].extra
        assert len(errs) == n_layers - 2
        assert [e.shape for e in errs] == [h.shape for h in kept]
        saved.append(sum(e.nbytes for e in errs))
        rows.append(rows[at])
    assert sum(saved) == sum(rows) * (n_layers - 2) * hidden[0] * 8


def test_train_aborts_after_consecutive_bad_steps():
    class Exploding:
        def __init__(self, system):
            self.system = system

        def init_params(self, rng):
            return ad.ParamStore({"w": np.zeros(1)})

        def bind(self, leaves):
            return leaves

        def to_state_node(self, leaves, raw):
            return raw

        def decode_node(self, leaves, w):
            return ad.add(ad.mul(w, np.inf), ad.mul(leaves["w"], 0.0))

        def dynamics_node(self, leaves, w):
            return ad.mul(w, 0.0)

    chunks = free_particle_chunks(np.random.default_rng(9), 8, steps=1)
    messages = []
    with pytest.raises(TrainingError):
        train(Exploding(free_particle_system()), chunks,
              TrainConfig(epochs=50, batch_size=2, lr=1e-3),
              log=messages.append)
    assert sum("non-finite" in m for m in messages) == 10


def test_non_finite_gradient_skips_the_step():
    # a = b = 1e200, c = 1e-300: the loss carries a*(b*c) = 1e100 (finite),
    # but backward forms d/dc = a*b = 1e400, which overflows to inf.  With
    # b = 1 every gradient is finite, but d/dc = 1e200 squares to inf, which
    # would freeze c in AdamW's second moment
    class Overflowing:
        def __init__(self, system, b):
            self.system = system
            self.b = b

        def init_params(self, rng):
            return ad.ParamStore({"a": np.array(1e200), "b": np.array(self.b),
                                  "c": np.array(1e-300)})

        def bind(self, leaves):
            return leaves

        def to_state_node(self, leaves, raw):
            return raw

        def decode_node(self, leaves, w):
            return ad.add(w, ad.mul(leaves["a"], ad.mul(leaves["b"], leaves["c"])))

        def dynamics_node(self, leaves, w):
            return ad.mul(w, 0.0)

    chunks = free_particle_chunks(np.random.default_rng(9), 4, steps=1)
    for b, reason in ((1e200, "non-finite gradient"), (1.0, "gradient whose square overflows")):
        model = Overflowing(free_particle_system(), b)
        start = model.init_params(None)
        messages = []
        tape = ad.Tape()
        assert np.isfinite(trajectory_loss_node(model, start.leaves(tape), chunks).value)
        result = train(model, chunks, TrainConfig(epochs=1, batch_size=4), log=messages.append)
        assert result.bad_steps == 1
        assert any(reason in m for m in messages), messages
        for name in start.names():
            assert np.array_equal(result.store[name], start[name])


def test_overflowing_forward_is_a_bad_step_without_a_numpy_warning():
    # hnn2d without hidden layers on a small two-pendulum set: epoch 0's
    # gradient squares to inf, and epochs 3-5 overflow in the forward pass.
    # numpy used to warn first, which the suite's RuntimeWarning filter
    # turned into an error
    from cartmech.dataset import generate_dataset
    from cartmech.systems import build_system

    system = build_system("npendulum", n=2)
    chunks = generate_dataset(system, 8, steps=20, seed=0).states
    messages = []
    result = train(build_model("hnn2d", system, hidden=()), chunks,
                   TrainConfig(epochs=6, batch_size=4, seed=0), log=messages.append)
    assert result.bad_steps == 4
    assert [m.split(", step")[0] for m in messages if "step skipped" in m] == [
        "epoch 0: gradient whose square overflows", "epoch 3: non-finite loss",
        "epoch 4: non-finite loss", "epoch 5: non-finite loss"]


def test_train_config_validation():
    with pytest.raises(ParameterDomainError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterDomainError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ParameterDomainError):
        TrainConfig(weight_decay=-0.1)
    for name in ("lr", "weight_decay"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParameterDomainError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})


def test_train_rejects_chunks_without_rows_or_steps():
    # no rows gave a nan history, and fewer than two times no step at all
    model = build_model("node", free_particle_system(), hidden=(4,))
    chunks = free_particle_chunks(np.random.default_rng(9), 3)
    for bad in (chunks[:0], chunks[:, :1], chunks[:, :0], chunks[0]):
        with pytest.raises(ParameterDomainError, match=r"N >= 1 rows of T >= 2 times"):
            train(model, bad, TrainConfig(epochs=1))


def test_degenerate_constraint_system_is_a_bad_step_with_its_reason():
    from cartmech.systems import build_system
    from test_models import _heavy_first_body, lagrangian_batch

    system = build_system("npendulum", n=2)
    model, heavy = _heavy_first_body("chnn", system)
    model.init_params = lambda rng: ad.ParamStore(dict(heavy.items()))
    _, W = lagrangian_batch(system, np.random.default_rng(5), 8)
    chunks = np.stack([W] * 3, axis=1)
    messages = []
    with pytest.raises(TrainingError) as info:
        train(model, chunks, TrainConfig(epochs=5, batch_size=4), log=messages.append)
    skipped = [m for m in messages if "step skipped" in m]
    assert len(skipped) == MAX_BAD_STEPS == 10
    assert all("degenerate" in m and "pivot ratio" in m for m in skipped)
    assert "degenerate" in str(info.value)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_first_order_step_gradients_match_the_graph_bitwise(kind):
    # train() differentiates its loss once, on a tape that records no
    # backward pass; its arrays are the graph's gradient values to the bit
    from cartmech.systems import build_system
    from test_models import lagrangian_batch

    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=(8, 8))
    store = model.init_params(np.random.default_rng(6))
    _, W = lagrangian_batch(system, np.random.default_rng(7), 4)
    chunks = np.stack([W, 1.01 * W, 0.98 * W], axis=1)
    names = store.names()
    grads = {}
    for graph in (True, False):
        tape = ad.Tape(graph=graph)
        leaves = store.leaves(tape)
        loss = trajectory_loss_node(model, leaves, chunks)
        forward = len(tape)
        grads[graph] = ad.grad(loss, [leaves[name] for name in names])
        assert (len(tape) == forward) is not graph
    for name, node, array in zip(names, grads[True], grads[False]):
        assert type(array) is np.ndarray, name
        assert node.value.shape == array.shape and node.value.tobytes() == array.tobytes(), name


def test_non_finite_state_is_a_bad_step_with_its_reason():
    # a nan in the data reaches the multiplier system through the initial
    # state: that is a state gone non-finite, not a degenerate geometry
    from cartmech.systems import build_system
    from test_models import lagrangian_batch

    system = build_system("npendulum", n=2)
    model = build_model("chnn", system, hidden=(8,))
    _, W = lagrangian_batch(system, np.random.default_rng(5), 4)
    chunks = np.stack([W] * 3, axis=1)
    chunks[1, 0, 0] = np.nan
    messages = []
    with pytest.raises(TrainingError) as info:
        train(model, chunks, TrainConfig(epochs=10, batch_size=4), log=messages.append)
    skipped = [m for m in messages if "step skipped" in m]
    assert len(skipped) == MAX_BAD_STEPS == 10
    assert all("non-finite state" in m for m in skipped)
    assert "non-finite state" in str(info.value)


def counted(calls, name, fn):
    """fn, counting its calls under name in the Counter calls."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_train_and_evaluate_look_up_the_names_a_tracer_replaces(monkeypatch):
    # perfbench traces a run by replacing these attributes for its duration,
    # so the package must look each one up when it calls it
    from collections import Counter

    from cartmech import integrators, metrics, training
    from cartmech.dataset import generate_dataset
    from cartmech.metrics import evaluate_model
    from cartmech.systems import build_system

    calls = Counter()

    loss_node = training.trajectory_loss_node

    def traced_loss_node(model, leaves, chunks, substeps=1):
        # the tracer reads the tape from the leaves, which are the unbound ones
        assert all(isinstance(leaf, ad.Node) for leaf in leaves.values())
        return counted(calls, "trajectory_loss_node", loss_node)(model, leaves, chunks, substeps)

    monkeypatch.setattr(training, "trajectory_loss_node", traced_loss_node)
    monkeypatch.setattr(training, "ad",
                        SimpleNamespace(**{**vars(ad), "grad": counted(calls, "grad", ad.grad)}))
    for owner, name, key in ((training, "rollout_fixed", "training.rollout_fixed"),
                             (training.AdamW, "step", "AdamW.step"),
                             (integrators, "rollout_fixed", "integrators.rollout_fixed"),
                             (metrics, "evaluate_rollout", "evaluate_rollout")):
        monkeypatch.setattr(owner, name, counted(calls, key, getattr(owner, name)))
    system = build_system("npendulum", n=2)
    model = build_model("chnn", system, hidden=(8,))
    chunks = generate_dataset(system, 2, steps=10, seed=1, split="train").states
    result = train(model, chunks, TrainConfig(epochs=1, batch_size=len(chunks)))
    evaluate_model(model, result.store, generate_dataset(system, 2, steps=5, seed=2, split="test"))
    assert calls == {"trajectory_loss_node": 1, "grad": 1, "training.rollout_fixed": 1,
                     "AdamW.step": 1, "integrators.rollout_fixed": 1, "evaluate_rollout": 1}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_loss_rollout_and_scoring_reach_the_names_a_tracer_replaces(kind, monkeypatch):
    # perfbench attributes RK4 and scoring time by replacing these names: the
    # loss, on nodes or on arrays, calls training.rollout_fixed; a rollout
    # looks integrators.rollout_fixed up when it runs, not when models is
    # imported; evaluate_model calls the model's rollout attribute and
    # metrics.evaluate_rollout
    from collections import Counter

    from cartmech import integrators, metrics, models, training
    from cartmech.dataset import generate_dataset
    from cartmech.metrics import evaluate_model
    from cartmech.systems import build_system

    calls = Counter()

    system = build_system("npendulum", n=2)
    model = build_model(kind, system, hidden=(8,))
    store = model.init_params(np.random.default_rng(11))
    test_ds = generate_dataset(system, 2, steps=5, seed=12, split="test")
    chunks = test_ds.states[:, :3]
    model.rollout(store, chunks[:, 0], test_ds.times[0, :3])
    assert not hasattr(models, "rollout_fixed")

    monkeypatch.setattr(training, "rollout_fixed",
                        counted(calls, "training.rollout_fixed", training.rollout_fixed))
    monkeypatch.setattr(integrators, "rollout_fixed",
                        counted(calls, "integrators.rollout_fixed", integrators.rollout_fixed))
    monkeypatch.setattr(metrics, "evaluate_rollout",
                        counted(calls, "evaluate_rollout", metrics.evaluate_rollout))
    monkeypatch.setattr(model, "rollout", counted(calls, "model.rollout", model.rollout))
    trajectory_loss_node(model, store.leaves(ad.Tape(graph=False)), chunks)
    trajectory_loss_node(model, dict(store.items()), chunks)
    assert calls == {"training.rollout_fixed": 2}
    evaluate_model(model, store, test_ds)
    assert calls == {"training.rollout_fixed": 2, "model.rollout": 1,
                     "integrators.rollout_fixed": 1, "evaluate_rollout": 1}
