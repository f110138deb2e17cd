"""Full-stack guarantees, checked end to end at realistic scale.

Each test pins one externally visible promise of the toolkit: projection
algebra on the constraint manifold, Jacobian exactness, equivalence of the
two dynamics formulations, agreement with generalized-coordinate oracles,
conservation, tolerance-controlled drift, differentiation through rollouts,
the learning-order benchmark, constraint ablation, metric semantics, and
bitwise reproducibility of the pipeline.  The per-module unit suites cover
the same ground at smaller scale; this file is the gate.
"""
import contextlib
import io
import json
import time

import numpy as np
import pytest

import cartmech.autodiff as ad
from cartmech import cli
from cartmech.bodies import BodySpec, assemble_mass_matrix, kinetic_energy
from cartmech.constraints import jacobian_phi, jacobian_phidot_x, jacobian_psi, phi, phidot
from cartmech.dataset import generate_dataset, load_dataset
from cartmech.dynamics import (
    constrained_dynamics,
    convert_flavor,
    grad_hamiltonian,
    projection_matrix,
)
from cartmech.integrators import Tolerances, integrate_adaptive
from cartmech.metrics import (
    constraint_rmse_curve,
    energy_error,
    evaluate_model,
    geometric_mean,
    relative_error,
)
from cartmech.models import build_model
from cartmech.oracles import (
    gyroscope_embed,
    gyroscope_mass_matrix,
    gyroscope_oracle_dynamics,
    pendulum_embed,
    pendulum_mass_matrix,
    two_pendulum_closed_form,
)
from cartmech.states import HAMILTONIAN, LAGRANGIAN, flatten_matrix, symplectic_apply
from cartmech.systems import build_system, disable_system_constraints, system_names
from cartmech.training import TrainConfig, trajectory_loss, trajectory_loss_node, train

from conftest import fd_jacobian
from reference_fields import input_gradient


def all_systems():
    return [build_system(name) for name in system_names()]


# -- projection algebra ----------------------------------------------------------------

def test_projection_identities_hold_in_bulk():
    # 200 on-manifold states per system, 1000 total: P must be idempotent
    # and the projected flow must lie in the kernel of the constraint Jacobian
    started = time.monotonic()
    worst_idem, worst_tangent = 0.0, 0.0
    for system in all_systems():
        rng = np.random.default_rng(101)
        ctx = system.context()
        for _ in range(200):
            z = system.sample(rng)
            dpsi = jacobian_psi(system.topology, z, system.mass)
            P = projection_matrix(dpsi)
            worst_idem = max(worst_idem, np.abs(P @ P - P).max())
            flow = P @ symplectic_apply(grad_hamiltonian(ctx, z))
            worst_tangent = max(worst_tangent, np.abs(dpsi @ flow).max())
    assert worst_idem < 1e-8
    assert worst_tangent < 1e-9
    assert time.monotonic() - started < 60.0


def test_constraint_jacobians_match_finite_differences():
    # every constraint type appears in at least one system; 100 states each
    for system in all_systems():
        rng = np.random.default_rng(7)
        dn = system.topology.dim * system.topology.n_points
        worst = 0.0
        for _ in range(100):
            z = system.sample(rng)
            zl = convert_flavor(system.context(), z, LAGRANGIAN)
            X, V = system.context(LAGRANGIAN).split(zl)

            def phi_flat(x):
                return phi(system.topology, x.reshape(X.shape, order="F"))

            def phidot_flat(x):
                return phidot(system.topology, x.reshape(X.shape, order="F"), V)

            def psi_flat(w):
                ctx = system.context()
                wl = convert_flavor(ctx, w, LAGRANGIAN)
                Xw, Vw = ctx.with_flavor(LAGRANGIAN).split(wl)
                return np.concatenate([phi(system.topology, Xw),
                                       phidot(system.topology, Xw, Vw)])

            x_flat = flatten_matrix(X)
            worst = max(
                worst,
                np.abs(jacobian_phi(system.topology, X)
                       - fd_jacobian(phi_flat, x_flat)).max(),
                np.abs(jacobian_phidot_x(system.topology, X, V)
                       - fd_jacobian(phidot_flat, x_flat)).max(),
                np.abs(jacobian_psi(system.topology, z, system.mass)
                       - fd_jacobian(psi_flat, z)).max(),
            )
        assert worst < 1e-6, system.name


# -- dynamics formulations and oracles ---------------------------------------------------

def test_momentum_and_velocity_formulations_agree():
    # same physics whether the state carries momenta or velocities
    horizon, tol = 1.0, Tolerances(1e-9, 1e-11)
    for system in all_systems():
        rng = np.random.default_rng(23)
        z0 = system.sample(rng)
        ctx_h = system.context(HAMILTONIAN)
        ctx_l = system.context(LAGRANGIAN)
        t_eval = np.linspace(0.0, horizon, 35)
        run_h = integrate_adaptive(lambda z: constrained_dynamics(ctx_h, z), z0,
                                   horizon, t_eval=t_eval, tol=tol)
        run_l = integrate_adaptive(lambda z: constrained_dynamics(ctx_l, z),
                                   convert_flavor(ctx_h, z0, LAGRANGIAN),
                                   horizon, t_eval=t_eval, tol=tol)
        dn = system.topology.dim * system.topology.n_points
        gap = np.abs(run_h.states[:, :dn] - run_l.states[:, :dn]).max()
        assert gap < 1e-6, system.name


def test_two_pendulum_matches_closed_form_equations():
    m1, m2, l1, l2, g = 1.0, 1.0, 1.0, 1.0, 1.0
    q0 = np.array([1.1, -0.4])
    qdot0 = np.array([0.3, 0.6])
    p0 = pendulum_mass_matrix(q0, (m1, m2), (l1, l2)) @ qdot0

    f = lambda w: two_pendulum_closed_form(w[:2], w[2:], m1, m2, l1, l2, g)
    t_eval = np.linspace(0.0, 1.0, 34)
    oracle = integrate_adaptive(f, np.concatenate([q0, p0]), 1.0, t_eval=t_eval,
                                tol=Tolerances(1e-10, 1e-12))
    oracle_x = np.stack([flatten_matrix(pendulum_embed(w[:2], w[2:] * 0.0, (l1, l2))[0])
                         for w in oracle.states])

    system = build_system("npendulum", n=2)
    X0, V0 = pendulum_embed(q0, qdot0, (l1, l2))
    zl = np.concatenate([flatten_matrix(X0), flatten_matrix(V0)])
    z0 = convert_flavor(system.context(LAGRANGIAN), zl, HAMILTONIAN)
    run = integrate_adaptive(system.dynamics, z0, 1.0, t_eval=t_eval,
                             tol=Tolerances(1e-10, 1e-12))
    assert np.abs(run.states[:, :4] - oracle_x).max() < 1e-4


def test_pendulum_mass_matrix_matches_embedded_chain():
    rng = np.random.default_rng(31)
    masses = (1.0, 0.5, 2.0, 1.5)
    lengths = (1.0, 2.0, 0.7, 1.2)
    mass = assemble_mass_matrix([BodySpec.point(m) for m in masses])
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 4)
        qdot = rng.normal(size=4)
        _, V = pendulum_embed(q, qdot, lengths)
        M = pendulum_mass_matrix(q, masses, lengths)
        worst = max(worst, abs(0.5 * qdot @ M @ qdot - kinetic_energy(V, mass)))
    assert worst < 1e-10


def test_gyroscope_matches_euler_angle_oracle():
    system = build_system("gyroscope")
    m, moments = 1.0, system.config.moments
    q0 = np.array([0.4, 0.9, -0.3])
    qdot0 = np.array([0.3, -0.2, 17.0])
    p0 = gyroscope_mass_matrix(q0[1], q0[2], m, moments) @ qdot0

    f = lambda w: gyroscope_oracle_dynamics(w[:3], w[3:], m, moments)
    t_eval = np.linspace(0.0, 1.0, 34)
    oracle = integrate_adaptive(f, np.concatenate([q0, p0]), 1.0, t_eval=t_eval,
                                tol=Tolerances(1e-10, 1e-12))
    oracle_x = np.stack([flatten_matrix(gyroscope_embed(w[:3], np.zeros(3))[0])
                         for w in oracle.states])

    X0, V0 = gyroscope_embed(q0, qdot0)
    zl = np.concatenate([flatten_matrix(X0), flatten_matrix(V0)])
    z0 = convert_flavor(system.context(LAGRANGIAN), zl, HAMILTONIAN)
    run = integrate_adaptive(system.dynamics, z0, 1.0, t_eval=t_eval,
                             tol=Tolerances(1e-10, 1e-12))
    assert np.abs(run.states[:, :12] - oracle_x).max() < 1e-3


# -- conservation and drift control ------------------------------------------------------

def _angular_momentum(system, z):
    X, Pm = system.context().split(z)
    return sum(np.cross(X[:, i], Pm[:, i]) for i in range(X.shape[1]))


def test_three_second_rollouts_conserve_energy_and_momentum():
    horizon, tol = 3.0, Tolerances(1e-7, 1e-9)
    for system in all_systems():
        rng = np.random.default_rng(47)
        z0 = system.sample(rng)
        t_eval = np.arange(0.0, horizon + system.dt / 2, system.dt)
        run = integrate_adaptive(system.dynamics, z0, horizon, t_eval=t_eval, tol=tol)
        drift = energy_error(system, run.states,
                             np.broadcast_to(z0, run.states.shape), flavor=HAMILTONIAN)
        assert drift.max() < 1e-6, system.name
        if system.name == "rotor":
            L0 = _angular_momentum(system, z0)
            gap = max(np.linalg.norm(_angular_momentum(system, z) - L0)
                      for z in run.states)
            assert gap / np.linalg.norm(L0) < 1e-6


def test_constraint_drift_follows_integrator_tolerance():
    system = build_system("npendulum", n=3)
    z0 = system.sample(np.random.default_rng(5))
    horizon = 3.0
    t_eval = np.arange(0.0, horizon + system.dt / 2, system.dt)
    gms, curves = {}, {}
    for rtol in (1e-3, 1e-6, 1e-9):
        run = integrate_adaptive(system.dynamics, z0, horizon, t_eval=t_eval,
                                 tol=Tolerances(rtol, rtol * 1e-2))
        curves[rtol] = constraint_rmse_curve(system, run.states)
        gms[rtol] = geometric_mean(curves[rtol], t_eval)
    assert gms[1e-9] < gms[1e-3]
    assert curves[1e-6].max() < 1e-4


# -- differentiation through the stack ---------------------------------------------------

def test_gradients_survive_potentials_and_rollouts():
    started = time.monotonic()
    rng = np.random.default_rng(13)

    # first order: network output summed over a batch, every parameter leaf
    params = ad.ParamStore(ad.mlp_init(rng, 3, (8, 8), 1, prefix="net"))
    x_batch = rng.normal(size=(5, 3))

    def loss_value(store):
        tape = ad.Tape()
        leaves = store.leaves(tape)
        return float(ad.reduce_sum(ad.mlp_apply(leaves, tape.constant(x_batch),
                                                prefix="net")).value)

    def check_store(store, loss_fn, grad_of_leaf, tol):
        worst = 0.0
        for name in store.names():
            def f(w, name=name):
                trial = ad.ParamStore({n: store[n] for n in store.names()})
                trial[name] = w.reshape(store[name].shape)
                return loss_fn(trial)

            worst = max(worst, ad.finite_difference_check(
                f, lambda w, name=name: grad_of_leaf(store, name, w), store[name]))
        assert worst < tol

    def first_order_grad(store, name, w):
        trial = ad.ParamStore({n: store[n] for n in store.names()})
        trial[name] = w.reshape(store[name].shape)
        tape = ad.Tape()
        leaves = trial.leaves(tape)
        out = ad.reduce_sum(ad.mlp_apply(leaves, tape.constant(x_batch), prefix="net"))
        return ad.grad(out, [leaves[name]])[0].value

    check_store(params, loss_value, first_order_grad, 1e-6)

    # second order, through the input gradient of a learned potential
    weights = rng.normal(size=(5, 3))

    def curl_value(store):
        tape = ad.Tape()
        leaves = store.leaves(tape)
        x = tape.constant(x_batch)
        gx = input_gradient(lambda u: ad.mlp_apply(leaves, u, prefix="net"), x)
        return float(ad.reduce_sum(ad.mul(gx, weights)).value)

    def curl_grad(store, name, w):
        trial = ad.ParamStore({n: store[n] for n in store.names()})
        trial[name] = w.reshape(store[name].shape)
        tape = ad.Tape()
        leaves = trial.leaves(tape)
        x = tape.constant(x_batch)
        gx = input_gradient(lambda u: ad.mlp_apply(leaves, u, prefix="net"), x)
        s = ad.reduce_sum(ad.mul(gx, weights))
        return ad.grad(s, [leaves[name]])[0].value

    check_store(params, curl_value, curl_grad, 1e-4)

    # second order again, now through full fixed-step rollouts of a
    # constrained model (the training path), one to four steps deep
    system = build_system("npendulum", n=2)
    model = build_model("chnn", system, hidden=(8,))
    store = model.init_params(np.random.default_rng(0))
    z0 = system.sample(np.random.default_rng(3))
    ctx = system.context()
    horizon = np.arange(5) * system.dt
    truth = integrate_adaptive(system.dynamics, z0, horizon[-1], t_eval=horizon,
                               tol=Tolerances(1e-10, 1e-12))
    chunk_full = np.stack([convert_flavor(ctx, s, LAGRANGIAN) for s in truth.states])

    for steps in (1, 2, 3, 4):
        chunk = chunk_full[None, :steps + 1]

        def rollout_loss(trial, chunk=chunk):
            return trajectory_loss(model, trial, chunk)

        def rollout_grad(trial, name, w, chunk=chunk):
            trial2 = ad.ParamStore({n: trial[n] for n in trial.names()})
            trial2[name] = w.reshape(trial[name].shape)
            tape = ad.Tape()
            leaves = trial2.leaves(tape)
            loss = trajectory_loss_node(model, leaves, chunk)
            return ad.grad(loss, [leaves[name]])[0].value

        check_store(store, rollout_loss, rollout_grad, 1e-4)

    assert time.monotonic() - started < 120.0


# -- metric semantics --------------------------------------------------------------------

def test_error_metric_contract():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 6))
    assert np.all(relative_error(z, z) == 0.0)
    assert np.all(relative_error(-z, z) == 1.0)
    assert np.all(relative_error(np.zeros_like(z), z) == 1.0)
    assert np.all(relative_error(np.zeros((1, 3)), np.zeros((1, 3))) == 0.0)
    mixed = relative_error(rng.normal(size=(50, 6)), rng.normal(size=(50, 6)))
    assert np.all((mixed >= 0.0) & (mixed <= 1.0))

    t = np.linspace(0.0, 1.0, 2001)
    assert abs(geometric_mean(np.exp(t), t) - np.exp(0.5)) < 1e-4

    system = build_system("npendulum", n=1)
    low = np.array([0.0, -1.0, 1.0, 0.0])   # H = -1/2
    high = np.array([0.0, -1.0, np.sqrt(3.0), 0.0])  # H = +1/2
    assert energy_error(system, low[None], low[None])[0] == 0.0
    assert energy_error(system, high[None], low[None])[0] == 1.0


# -- learning benchmarks -----------------------------------------------------------------

BENCH_HIDDEN = (128, 128)
BENCH_EPOCHS = 200
BENCH_SEEDS = (0, 1, 2)


def _train_and_score(kind, system, train_states, test_ds, seed,
                     model_system=None) -> float:
    model = build_model(kind, model_system or system, hidden=BENCH_HIDDEN)
    result = train(model, train_states,
                   TrainConfig(epochs=BENCH_EPOCHS, batch_size=200, seed=seed))
    return evaluate_model(model, result.store, test_ds, horizon=3.0).gm_rel_err


@pytest.mark.slow
def test_constraint_aware_models_win_the_benchmark():
    # identical data, budget and seeds for every model family; scores are
    # geometric-mean relative error over three seconds, averaged over seeds
    started = time.monotonic()
    system = build_system("npendulum", n=2)
    train_ds = generate_dataset(system, 200, steps=100, seed=0, split="train")
    test_ds = generate_dataset(system, 10, steps=100, seed=1_000_000, split="test")

    scores = {}
    for kind in ("chnn", "clnn", "hnn2d", "node"):
        per_seed = [_train_and_score(kind, system, train_ds.states, test_ds, seed)
                    for seed in BENCH_SEEDS]
        scores[kind] = float(np.mean(per_seed))

    assert scores["chnn"] < scores["hnn2d"] < scores["node"], scores
    assert scores["clnn"] < scores["node"], scores
    assert scores["node"] / scores["chnn"] >= 5.0, scores
    assert time.monotonic() - started < 45 * 60


@pytest.mark.slow
def test_single_disabled_link_costs_an_order_of_magnitude():
    system = build_system("npendulum", n=3)
    train_ds = generate_dataset(system, 200, steps=100, seed=0, split="train")
    test_ds = generate_dataset(system, 10, steps=100, seed=1_000_000, split="test")

    full = _train_and_score("chnn", system, train_ds.states, test_ds, 0)
    ablated = _train_and_score("chnn", system, train_ds.states, test_ds, 0,
                               model_system=disable_system_constraints(system, [1]))
    assert ablated / full >= 10.0, (full, ablated)


# -- reproducibility ---------------------------------------------------------------------

def _run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(args))
    return rc, out.getvalue()


def test_pipeline_is_bitwise_reproducible(tmp_path):
    args = ("--set", "system.n=2", "--set", "data.n_traj=6", "--set", "data.steps=10",
            "--set", "eval.n_test=2",
            "--set", "model.hidden=[8,8]",
            "--set", "train.epochs=2", "--set", "train.batch_size=6")
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        rc, _ = _run_cli("generate", *args, "--out", str(base / "data"))
        assert rc == 0
        rc, _ = _run_cli("train", *args, "--data", str(base / "data" / "train"),
                         "--out", str(base / "run"))
        assert rc == 0
        rc, text = _run_cli("evaluate", *args,
                            "--checkpoint", str(base / "run" / "final.cmk"),
                            "--dataset", str(base / "data" / "test"),
                            "--out", str(base / "metrics.csv"))
        assert rc == 0
        outputs.append({
            "train_manifest": (base / "data" / "train" / "manifest.json").read_bytes(),
            "train_payload": (base / "data" / "train" / "payload.bin").read_bytes(),
            "test_payload": (base / "data" / "test" / "payload.bin").read_bytes(),
            "checkpoint": (base / "run" / "final.cmk").read_bytes(),
            "history": (base / "run" / "history.csv").read_bytes(),
            "metrics": (base / "metrics.csv").read_bytes(),
            "stdout": text,
        })
    assert outputs[0] == outputs[1]
