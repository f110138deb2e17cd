"""End-to-end checks of the command-line workflow on a desk-scale problem."""
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cartmech import autodiff as ad, cli
from cartmech.dataset import load_checkpoint, load_dataset, save_checkpoint, save_dataset


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return rc, out.getvalue(), err.getvalue()


TINY = (
    "--set", "system.kind=npendulum", "--set", "system.n=2",
    "--set", "data.n_traj=6", "--set", "data.steps=10",
    "--set", "eval.n_test=2",
    "--set", "model.hidden=[8,8]",
    "--set", "train.epochs=2", "--set", "train.batch_size=6",
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc, out, err = run_cli("generate", *TINY, "--out", str(root / "data"))
    assert rc == 0, err
    rc, out, err = run_cli("train", *TINY, "--data", str(root / "data" / "train"),
                           "--out", str(root / "run"))
    assert rc == 0, err
    return root


def test_print_config_output_is_valid_input(tmp_path):
    rc, out, _ = run_cli("print-config", "--set", "data.dt=0.05")
    assert rc == 0
    doc = json.loads(out)
    assert doc["data"]["dt"] == 0.05
    assert doc["train"]["epochs"] == 2000
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(out)
    rc, again, _ = run_cli("print-config", "--config", str(cfg_path))
    assert rc == 0
    assert again == out


def test_print_config_resolves_system_defaults():
    rc, out, _ = run_cli("print-config", "--set", "system.n=3")
    doc = json.loads(out)
    assert doc["system"]["kind"] == "npendulum"
    assert doc["system"]["masses"] == [1.0, 1.0, 1.0]
    assert "dt" not in doc["system"]


SYSTEM_KEYS = {
    "npendulum": {"n", "masses", "lengths", "gravity", "dt"},
    "coupled": {"n", "masses", "lengths", "spring_k", "pivot", "gravity", "dt"},
    "magnet": {"mass", "length", "strength", "magnet_positions", "magnet_moments",
               "gravity", "dt"},
    "gyroscope": {"mass", "moments", "gravity", "dt"},
    "rotor": {"mass", "moments", "dt"},
}
RUN_KEYS = {
    "data": {"n_traj", "steps", "dt", "rtol", "atol", "seed"},
    "model": {"kind", "hidden"},
    "train": {"epochs", "batch_size", "lr", "weight_decay", "substeps", "seed",
              "max_bad_steps"},
    "eval": {"horizon", "n_test", "seed"},
}


@pytest.mark.parametrize("kind", sorted(SYSTEM_KEYS))
def test_configuration_holds_exactly_the_settable_keys(kind):
    # the initial-state draws are fixed in the samplers, not settable
    from dataclasses import fields

    from cartmech.systems import build_system, system_to_dict
    from cartmech.training import TrainConfig

    assert set(system_to_dict(build_system(kind))) == SYSTEM_KEYS[kind] | {"kind"}
    rc, out, err = run_cli("print-config", "--set", f"system.kind={kind}")
    assert rc == 0, err
    doc = json.loads(out)
    assert set(doc["system"]) == SYSTEM_KEYS[kind] - {"dt"} | {"kind"}
    assert {section: set(doc[section]) for section in RUN_KEYS} == RUN_KEYS
    assert set(doc) == set(RUN_KEYS) | {"system"}
    assert {f.name for f in fields(TrainConfig)} == RUN_KEYS["train"]


def test_unknown_key_reports_dotted_path():
    rc, _, err = run_cli("print-config", "--set", "data.bogus=1")
    assert rc == 1
    assert "data.bogus" in err

    rc, _, err = run_cli("print-config", "--set", "optimizer.lr=0.1")
    assert rc == 1
    assert "optimizer" in err


def test_wrong_value_type_is_rejected():
    rc, _, err = run_cli("print-config", "--set", "data.n_traj=many")
    assert rc == 1
    assert "data.n_traj" in err

    rc, _, err = run_cli("print-config", "--set", 'system.n="two"')
    assert rc == 1
    assert "system" in err

    # the system section names the key, not the Python error it caused
    rc, _, err = run_cli("print-config", "--set", 'system.n="x"')
    assert rc == 1
    assert "system.n" in err and "not supported" not in err

    rc, _, err = run_cli("print-config", "--set", "system.kind=[1]")
    assert rc == 1
    assert "system.kind" in err and "unhashable" not in err

    # a boolean is not an integer, not even inside a list
    rc, _, err = run_cli("print-config", "--set", "model.hidden=[true,2]")
    assert rc == 1
    assert "model.hidden" in err


def test_generate_writes_both_splits(workdir):
    for split in ("train", "test"):
        assert (workdir / "data" / split / "manifest.json").is_file()
        assert (workdir / "data" / split / "payload.bin").is_file()
    train = load_dataset(workdir / "data" / "train")
    test = load_dataset(workdir / "data" / "test")
    assert train.states.shape == (6, 5, 8)
    assert test.states.shape == (2, 11, 8)


def test_generate_is_deterministic_and_has_no_workers_key(workdir, tmp_path):
    rc, _, err = run_cli("generate", *TINY, "--out", str(tmp_path / "again"))
    assert rc == 0, err
    for split in ("train", "test"):
        for name in ("payload.bin", "manifest.json"):
            a = (workdir / "data" / split / name).read_bytes()
            b = (tmp_path / "again" / split / name).read_bytes()
            assert a == b
    rc, _, err = run_cli("generate", *TINY, "--set", "data.workers=1",
                         "--out", str(tmp_path / "workers"))
    assert rc == 1
    assert "data.workers" in err


def test_train_writes_checkpoint_and_history(workdir):
    assert (workdir / "run" / "final.cmk").is_file()
    history = np.loadtxt(workdir / "run" / "history.csv", delimiter=",", skiprows=1,
                         ndmin=2)
    assert history.shape == (2, 3)
    assert np.all(np.isfinite(history))


def test_train_is_deterministic(workdir, tmp_path):
    rc, _, err = run_cli("train", *TINY, "--data", str(workdir / "data" / "train"),
                         "--out", str(tmp_path / "rerun"))
    assert rc == 0, err
    assert (tmp_path / "rerun" / "final.cmk").read_bytes() == \
        (workdir / "run" / "final.cmk").read_bytes()
    assert (tmp_path / "rerun" / "history.csv").read_bytes() == \
        (workdir / "run" / "history.csv").read_bytes()


def test_evaluate_writes_metrics_with_footer(workdir, tmp_path):
    out_csv = tmp_path / "metrics.csv"
    rc, out, err = run_cli("evaluate", *TINY,
                           "--checkpoint", str(workdir / "run" / "final.cmk"),
                           "--dataset", str(workdir / "data" / "test"),
                           "--out", str(out_csv))
    assert rc == 0, err
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,rel_err,energy_err,phi_rmse"
    assert lines[-1].startswith("geometric_mean,")
    # the constraints are architectural, so even a barely-trained model
    # stays pinned to the manifold
    gm_phi = float(lines[-1].split(",")[3])
    assert gm_phi < 1e-6
    assert "gm_rel_err" in out


def test_evaluate_matches_library_api(workdir, tmp_path):
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    ds = load_dataset(workdir / "data" / "test")
    model = build_model("chnn", ds.system, hidden=(8, 8))
    store = load_checkpoint(workdir / "run" / "final.cmk")
    result = evaluate_model(model, store, ds, horizon=3.0)
    rc, out, err = run_cli("evaluate", *TINY,
                           "--checkpoint", str(workdir / "run" / "final.cmk"),
                           "--dataset", str(workdir / "data" / "test"))
    assert rc == 0, err
    reported = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
    assert reported["gm_rel_err"] == result.gm_rel_err
    assert reported["gm_energy_err"] == result.gm_energy_err
    assert reported["gm_phi_rmse"] == result.gm_phi_rmse


def test_simulate_ground_truth_conserves(tmp_path):
    out_csv = tmp_path / "sim.csv"
    rc, out, err = run_cli("simulate", "--set", "system.n=2", "--set", "eval.horizon=0.6",
                           "--set", "data.seed=3", "--out", str(out_csv))
    assert rc == 0, err
    report = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()}
    assert int(report["steps"]) == 20
    assert float(report["max_rel_energy_error"]) < 1e-6
    assert float(report["max_phi_rmse"]) < 1e-6
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,x_0_0,x_1_0,x_0_1,x_1_1,v_0_0,v_1_0,v_0_1,v_1_1"
    assert len(lines) == 22


def test_simulate_with_checkpoint_rolls_model(workdir, tmp_path):
    out_csv = tmp_path / "msim.csv"
    rc, out, err = run_cli("simulate", "--set", "system.n=2", "--set", "eval.horizon=0.3",
                           "--set", "data.seed=3",
                           "--checkpoint", str(workdir / "run" / "final.cmk"),
                           "--set", "model.kind=chnn", "--set", "model.hidden=[8,8]",
                           "--out", str(out_csv))
    assert rc == 0, err
    assert len(out_csv.read_text().strip().splitlines()) == 12


def test_export_single_trajectory(workdir, tmp_path):
    out_csv = tmp_path / "traj.csv"
    rc, out, err = run_cli("export", "--dataset", str(workdir / "data" / "test"),
                           "--index", "1", "--out", str(out_csv))
    assert rc == 0, err
    table = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    ds = load_dataset(workdir / "data" / "test")
    assert np.array_equal(table[:, 0], ds.times[1])
    assert np.array_equal(table[:, 1:], ds.states[1])

    rc, _, err = run_cli("export", "--dataset", str(workdir / "data" / "test"),
                         "--index", "5", "--out", str(out_csv))
    assert rc == 1
    assert "--index" in err

    # times_shape edited from [2, 11] to [1, 22]: same payload size, but the
    # shapes disagree, which is a format error rather than an IndexError
    bad = tmp_path / "bad"
    bad.mkdir()
    manifest = json.loads((workdir / "data" / "test" / "manifest.json").read_text())
    manifest["times_shape"] = [1, 22]
    (bad / "manifest.json").write_text(json.dumps(manifest))
    (bad / "payload.bin").write_bytes((workdir / "data" / "test" / "payload.bin").read_bytes())
    rc, _, err = run_cli("export", "--dataset", str(bad), "--index", "1", "--out", str(out_csv))
    assert rc == 1
    assert "times_shape" in err


def test_ablation_breaks_constraint(workdir, tmp_path):
    out_csv = tmp_path / "ablated.csv"
    rc, out, err = run_cli("ablate-constraints", *TINY,
                           "--data", str(workdir / "data" / "train"),
                           "--test", str(workdir / "data" / "test"),
                           "--disable", "1", "--out", str(out_csv))
    assert rc == 0, err
    assert "disabled_constraints [1]" in out
    footer = out_csv.read_text().strip().splitlines()[-1]
    # scoring against the full system exposes the dropped link
    assert float(footer.split(",")[3]) > 1e-7


def test_ablation_requires_constrained_model(workdir):
    rc, _, err = run_cli("ablate-constraints", *TINY, "--set", "model.kind=node",
                         "--data", str(workdir / "data" / "train"),
                         "--test", str(workdir / "data" / "test"),
                         "--disable", "0")
    assert rc == 1
    assert "model.kind" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_2(workdir):
    rc, _, err = run_cli("train", *TINY, "--set", "train.lr=1e12",
                         "--set", "train.epochs=30",
                         "--data", str(workdir / "data" / "train"),
                         "--out", str(workdir / "boom"))
    assert rc == 2
    assert "numeric failure" in err


def test_missing_files_are_user_errors(tmp_path):
    rc, _, err = run_cli("evaluate", "--checkpoint", str(tmp_path / "no.cmk"),
                         "--dataset", str(tmp_path / "nowhere"))
    assert rc == 1

    rc, _, err = run_cli("train", "--config", str(tmp_path / "absent.json"),
                         "--data", str(tmp_path / "nowhere"),
                         "--out", str(tmp_path / "run"))
    assert rc == 1


def test_truncated_checkpoint_exits_1_without_traceback(workdir, tmp_path):
    raw = (workdir / "run" / "final.cmk").read_bytes()
    (tmp_path / "cut.cmk").write_bytes(raw[:len(raw) // 2])
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cartmech.cli", "evaluate", *TINY,
         "--checkpoint", str(tmp_path / "cut.cmk"), "--dataset", str(workdir / "data" / "test")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "truncated" in proc.stderr


def test_field_singularity_exits_2_without_traceback(tmp_path):
    # one magnet where the first train trajectory's bead starts (data.seed 0,
    # trajectory 0): the first field evaluation is at the dipole
    from cartmech.systems import build_system

    bead = build_system("magnet").sample(np.random.default_rng([0, 0]))[:3]
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cartmech.cli", "generate",
         "--set", "system.kind=magnet",
         "--set", f"system.magnet_positions={json.dumps([bead.tolist()])}",
         "--set", "system.magnet_moments=[[0.0,0.0,1.0]]",
         "--set", "data.n_traj=1", "--set", "data.steps=5", "--set", "eval.n_test=1",
         "--out", str(tmp_path / "D")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "numeric failure: pendulum within 1e-06 of the magnet" in proc.stderr


def test_bad_arguments_exit_1_not_2():
    rc, _, err = run_cli("simulate", "--set", "system.kind=hovercraft")
    assert rc == 1
    rc, _, err = run_cli("frobnicate")
    assert rc == 1


@pytest.mark.parametrize("setting", ["train.lr=NaN", "train.lr=1e400",
                                     "train.weight_decay=NaN", "train.weight_decay=1e400"])
def test_non_finite_learning_rate_or_decay_exits_1_and_writes_nothing(workdir, tmp_path, setting):
    # JSON reads 1e400 as inf; NaN passes every `<= 0` test
    out = tmp_path / "run"
    rc, stdout, err = run_cli("train", *TINY, "--set", setting,
                              "--data", str(workdir / "data" / "train"), "--out", str(out))
    assert rc == 1, err
    assert setting.split("=")[0].split(".")[1] in err and "finite" in err
    assert "final_loss" not in stdout and not (out / "final.cmk").exists()


@pytest.mark.parametrize("settings", [
    ("system.gravity=1e400",),
    ("system.gravity=NaN",),
    ("system.kind=magnet", "system.magnet_moments=[[0,0,NaN],[0,0,1]]"),
    ("system.gravity=1" + "0" * 400,),  # an integer beyond the floats
])
def test_non_finite_system_parameter_exits_1_naming_its_key(settings):
    # before any sampling or integration, so no overflow and no numeric failure
    key = settings[-1].split("=")[0]
    for command in ("simulate", "print-config"):
        rc, stdout, err = run_cli(command, *[arg for s in settings for arg in ("--set", s)])
        assert rc == 1, err
        assert key in err and "finite" in err and not stdout


@pytest.mark.parametrize("settings,name", [
    (("system.kind=coupled", "system.pivot=[NaN,0,0]"), "pivot"),
    (("system.kind=coupled", "system.pivot=[1e200,1e200,0]"), "pivot"),
    (("system.n=1" + "0" * 400,), "n"),  # more pendulums than an index holds
    (("system.kind=coupled", "system.pivot=[1e-200,0,0]"), "pivot"),  # |pivot|^2 underflows
    (("system.kind=coupled", "system.pivot=[0,0,0]"), "pivot"),
])
def test_out_of_domain_system_parameter_exits_1_naming_it_without_warning(settings, name):
    # not the rest length derived from the pivot, numpy's overflow warning or
    # an OverflowError traceback
    for command in ("simulate", "print-config"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, err = run_cli(command, *[arg for s in settings for arg in ("--set", s)])
        assert rc == 1, err
        assert f"system: {name} must" in err and not stdout


def test_bad_hidden_widths_exit_1_naming_hidden(workdir, tmp_path):
    for widths in ("[0]", "[-3]", "[8,0]"):
        rc, _, err = run_cli("train", *TINY, "--set", f"model.hidden={widths}",
                             "--data", str(workdir / "data" / "train"),
                             "--out", str(tmp_path / "run"))
        assert rc == 1, err
        assert "hidden" in err and "reshape" not in err and "negative dimensions" not in err
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cartmech.cli", "simulate", "--set", "system.n=2",
         "--set", "eval.horizon=0.3", "--checkpoint", str(workdir / "run" / "final.cmk"),
         "--set", "model.kind=chnn", "--set", "model.hidden=[0]"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "hidden" in proc.stderr


def _heavy_checkpoint(workdir, tmp_path):
    """The trained chnn with body 0 made 1e34 times heavier: its multiplier
    system K = DPhi M^-1 DPhi^T is degenerate on every state."""
    store = load_checkpoint(workdir / "run" / "final.cmk")
    store["mass.log_m0"] = np.full(store["mass.log_m0"].shape, 80.0)
    path = tmp_path / "heavy.cmk"
    save_checkpoint(store, path)
    return path


def _diverging_checkpoint(tmp_path):
    """A two-pendulum hnn2d with tenfold Cholesky weights, whose rollout from
    the first test state overflows within a few steps."""
    from cartmech.models import build_model
    from cartmech.systems import build_system

    model = build_model("hnn2d", build_system("npendulum", n=2), hidden=(8, 8))
    store = model.init_params(np.random.default_rng(1))
    for name in store.names():
        if name.startswith("cholesky.w"):
            store[name] = 10.0 * store[name]
    path = tmp_path / "diverging.cmk"
    save_checkpoint(store, path)
    return path


def test_evaluate_degenerate_model_exits_2_without_traceback(workdir, tmp_path):
    rc, _, err = run_cli("evaluate", *TINY, "--checkpoint", str(_heavy_checkpoint(workdir, tmp_path)),
                         "--dataset", str(workdir / "data" / "test"))
    assert rc == 2
    assert "numeric failure" in err and "pivot ratio" in err
    assert "Traceback" not in err


def test_simulate_degenerate_model_exits_2_without_traceback(workdir, tmp_path):
    rc, _, err = run_cli("simulate", "--set", "system.n=2", "--set", "eval.horizon=0.3",
                         "--checkpoint", str(_heavy_checkpoint(workdir, tmp_path)),
                         "--set", "model.kind=chnn", "--set", "model.hidden=[8,8]")
    assert rc == 2
    assert "numeric failure" in err and "pivot ratio" in err
    assert "Traceback" not in err


def _corrupt_dataset(workdir, tmp_path):
    """The test split with its payload cut in half."""
    bad = tmp_path / "cut_data"
    bad.mkdir()
    source = workdir / "data" / "test"
    (bad / "manifest.json").write_text((source / "manifest.json").read_text())
    payload = (source / "payload.bin").read_bytes()
    (bad / "payload.bin").write_bytes(payload[:len(payload) // 2])
    return bad


def _mismatched_checkpoints(workdir, tmp_path):
    """A two-pendulum node checkpoint, and the trained chnn checkpoint
    without potential.b1 and without mass.log_m1."""
    from cartmech.models import build_model
    from cartmech.systems import build_system

    node = build_model("node", build_system("npendulum", n=2), hidden=(8, 8))
    paths = [tmp_path / "node.cmk"]
    save_checkpoint(node.init_params(np.random.default_rng(0)), paths[0])
    store = load_checkpoint(workdir / "run" / "final.cmk")
    for name in ("potential.b1", "mass.log_m1"):
        paths.append(tmp_path / f"no_{name}.cmk")
        save_checkpoint(ad.ParamStore({k: v for k, v in store.items() if k != name}),
                        paths[-1])
    return paths


def _reshaped_checkpoints(workdir, tmp_path):
    """The trained chnn checkpoint with one parameter replaced by zeros of a
    shape that broadcasts against the right one: (name, shape, right shape,
    path)."""
    out = []
    for name, shape in (("potential.b0", (1,)), ("potential.b0", ()),
                        ("mass.log_m0", (1,)), ("potential.b1", (1, 1))):
        store = load_checkpoint(workdir / "run" / "final.cmk")
        params = {k: np.zeros(shape) if k == name else v for k, v in store.items()}
        path = tmp_path / f"{name}_{len(shape)}.cmk"
        save_checkpoint(ad.ParamStore(params), path)
        out.append((name, shape, store[name].shape, path))
    return out


def _dataset_cut(workdir, tmp_path, rows, times, width):
    """The test split cut to states[:rows, :times, :width]."""
    ds = load_dataset(workdir / "data" / "test")
    path = tmp_path / f"cut_{rows}_{times}_{width}"
    save_dataset(replace(ds, times=ds.times[:rows, :times],
                         states=ds.states[:rows, :times, :width]), path)
    return path


def _dataset_with(workdir, tmp_path, key, value):
    """The test split with one manifest entry replaced (key is dotted)."""
    bad = tmp_path / f"{key}_{value}"
    bad.mkdir()
    source = workdir / "data" / "test"
    manifest = json.loads((source / "manifest.json").read_text())
    *outer, last = key.split(".")
    entry = manifest
    for name in outer:
        entry = entry[name]
    entry[last] = value
    (bad / "manifest.json").write_text(json.dumps(manifest))
    (bad / "payload.bin").write_bytes((source / "payload.bin").read_bytes())
    return bad


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_file_reading_subcommands_exit_codes(workdir, tmp_path):
    """0 on good input, 1 on a missing or corrupt file, 2 on a numeric
    failure where the subcommand can hit one, and never a traceback."""
    data = workdir / "data"
    good_ckpt = workdir / "run" / "final.cmk"
    raw = good_ckpt.read_bytes()
    cut_ckpt = tmp_path / "cut.cmk"
    cut_ckpt.write_bytes(raw[:len(raw) // 2])
    heavy = _heavy_checkpoint(workdir, tmp_path)
    cut_data = _corrupt_dataset(workdir, tmp_path)
    node_ckpt, no_b1, no_m1 = _mismatched_checkpoints(workdir, tmp_path)
    missing = tmp_path / "missing"
    diverge = ("--set", "train.lr=1e12", "--set", "train.epochs=30")
    out = str(tmp_path / "out")

    def train(d, *extra):
        return ("train", *TINY, *extra, "--data", str(d), "--out", out)

    def evaluate(ckpt, d):
        return ("evaluate", *TINY, "--checkpoint", str(ckpt), "--dataset", str(d))

    def simulate(ckpt):
        return ("simulate", "--set", "system.n=2", "--set", "eval.horizon=0.3",
                "--checkpoint", str(ckpt), "--set", "model.kind=chnn",
                "--set", "model.hidden=[8,8]")

    def export(d):
        return ("export", "--dataset", str(d), "--index", "0", "--out", out + ".csv")

    def ablate(train_dir, test_dir, *extra):
        return ("ablate-constraints", *TINY, *extra, "--data", str(train_dir),
                "--test", str(test_dir), "--disable", "1")

    table = [
        (train(data / "train"), 0),
        (train(missing), 1),
        (train(cut_data), 1),
        (train(data / "train", *diverge), 2),
        (evaluate(good_ckpt, data / "test"), 0),
        (evaluate(missing, data / "test"), 1),
        (evaluate(cut_ckpt, data / "test"), 1),
        (evaluate(good_ckpt, cut_data), 1),
        (evaluate(heavy, data / "test"), 2),
        (simulate(good_ckpt), 0),
        (simulate(missing), 1),
        (simulate(cut_ckpt), 1),
        (simulate(heavy), 2),
        (export(data / "test"), 0),
        (export(missing), 1),
        (export(cut_data), 1),
        (ablate(data / "train", data / "test"), 0),
        (ablate(missing, data / "test"), 1),
        (ablate(data / "train", cut_data), 1),
        (ablate(data / "train", data / "test", *diverge), 2),
        # non-finite or negative numbers, each named in the message
        (("generate", *TINY, "--set", "data.dt=1e400", "--out", out), 1, "dt", "inf"),
        (("generate", *TINY, "--set", "data.rtol=NaN", "--out", out), 1, "rtol", "nan"),
        (("simulate", "--set", "data.rtol=-1"), 1, "rtol", "-1.0"),
        (("simulate", "--set", "data.rtol=NaN"), 1, "rtol", "nan"),
        (("simulate", "--set", "eval.horizon=1e400"), 1, "eval.horizon", "inf"),
        (("simulate", "--set", "eval.horizon=NaN"), 1, "eval.horizon", "nan"),
        # finite, but horizon / dt overflows: simulate refuses it, evaluate
        # scores the whole test set
        (("simulate", "--set", "eval.horizon=1e307"), 1, "eval.horizon", "1e+307", "finite"),
        ((*evaluate(good_ckpt, data / "test"), "--set", "eval.horizon=1e307"), 0),
        ((*evaluate(good_ckpt, data / "test"), "--set", "eval.horizon=1e400"), 1, "horizon", "inf"),
        ((*evaluate(good_ckpt, data / "test"), "--set", "eval.horizon=NaN"), 1, "horizon", "nan"),
        ((*evaluate(good_ckpt, data / "test"), "--set", "eval.horizon=0"), 1, "horizon", "0.0"),
        # trajectory counts below one, each named by its key
        (("generate", *TINY, "--set", "data.n_traj=0", "--out", out), 1, "data.n_traj", "0"),
        (("generate", *TINY, "--set", "eval.n_test=0", "--out", out), 1, "eval.n_test", "0"),
        (("generate", *TINY, "--set", "eval.n_test=-1", "--out", out), 1, "eval.n_test", "-1"),
        # checkpoints whose parameter names do not fit the model, each name shown
        (simulate(node_ckpt), 1, "chnn", "mass.log_m0", "field.w0"),
        ((*evaluate(node_ckpt, data / "test"), "--set", "model.kind=chnn"), 1,
         "chnn", "mass.log_m0", "field.w0"),
        (simulate(no_b1), 1, "potential.b1"),
        (evaluate(no_b1, data / "test"), 1, "potential.b1"),
        (simulate(no_m1), 1, "mass.log_m1"),
        (evaluate(no_m1, data / "test"), 1, "mass.log_m1"),
        # checkpoints with a parameter of the wrong shape, it and both shapes named
        *((cmd, 1, name, str(shape), str(want))
          for name, shape, want, path in _reshaped_checkpoints(workdir, tmp_path)
          for cmd in (simulate(path), evaluate(path, data / "test"))),
        # datasets with no rows, fewer than two times, or states of the wrong
        # width for their system, each shape shown
        *((cmd, 1, "states_shape", str(shape))
          for shape in ([0, 11, 8], [2, 0, 8], [2, 1, 8], [2, 11, 3])
          for cut in [_dataset_cut(workdir, tmp_path, *shape)]
          for cmd in (train(cut), evaluate(good_ckpt, cut), export(cut))),
        # a dataset whose dt is not finite and positive
        (evaluate(good_ckpt, _dataset_with(workdir, tmp_path, "dt", 0.0)), 1, "dt", "0.0"),
        (evaluate(good_ckpt, _dataset_with(workdir, tmp_path, "dt", -0.03)), 1, "dt", "-0.03"),
        (evaluate(good_ckpt, _dataset_with(workdir, tmp_path, "dt", float("inf"))), 1, "dt", "inf"),
        # a dataset whose dt disagrees with its system's, both values shown
        (evaluate(good_ckpt, _dataset_with(workdir, tmp_path, "dt", 0.05)), 1, "0.05", "0.03"),
        # a wrong-typed system parameter in the manifest, named by its key
        (export(_dataset_with(workdir, tmp_path, "system.n", "x")), 1, "system.n"),
        (evaluate(good_ckpt, _dataset_with(workdir, tmp_path, "system.gravity", [1])), 1,
         "system.gravity"),
        # a model whose rollout overflows
        ((*evaluate(_diverging_checkpoint(tmp_path), data / "test"), "--set", "model.kind=hnn2d"),
         2, "trajectory 0 is not finite"),
    ]
    for args, expected, *named in table:
        rc, _, err = run_cli(*args)
        assert rc == expected, (args, err)
        assert "Traceback" not in err, args
        for word in named:
            assert word in err, (args, err)


def test_evaluate_rolls_out_with_the_training_substeps(workdir):
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    ckpt, test_dir = workdir / "run" / "final.cmk", workdir / "data" / "test"
    args = ("evaluate", *TINY, "--checkpoint", str(ckpt), "--dataset", str(test_dir))
    rc, default, err = run_cli(*args)
    assert rc == 0, err
    rc, out, err = run_cli(*args, "--set", "train.substeps=2")
    assert rc == 0, err
    ds = load_dataset(test_dir)
    model = build_model("chnn", ds.system, hidden=(8, 8))
    result = evaluate_model(model, load_checkpoint(ckpt), ds, horizon=3.0, substeps=2)
    assert out.splitlines() == [f"gm_rel_err {result.gm_rel_err:.17g}",
                                f"gm_energy_err {result.gm_energy_err:.17g}",
                                f"gm_phi_rmse {result.gm_phi_rmse:.17g}"]
    assert out != default


def test_every_numeric_failure_exits_2_without_traceback(monkeypatch):
    from cartmech.errors import NumericFailure

    names = {cls.__name__ for cls in NumericFailure.__subclasses__()}
    assert names == {"IntegrationError", "DegenerateConfigurationError",
                     "FieldSingularityError", "GradientSingularityError", "GimbalLockError",
                     "TrainingError", "RolloutDivergedError", "NonFiniteStateError"}
    for cls in NumericFailure.__subclasses__():
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "load_config", fail)
        rc, _, err = run_cli("print-config")
        assert rc == 2, cls
        assert "numeric failure: boom" in err and "Traceback" not in err


def test_import_loads_no_cli_and_simulate_takes_only_its_config(capsys):
    # import time is most of a run's setup, and the command line is not on
    # the library's path
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cartmech; print(sorted({'cartmech.cli', 'argparse'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    flags = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
    assert flags == {"-h", "--help", "--config", "--set", "--out", "--checkpoint"}


def test_simulate_rolls_out_with_the_training_substeps(workdir, tmp_path):
    from cartmech.models import build_model
    from cartmech.systems import build_system

    ckpt = workdir / "run" / "final.cmk"
    base = ("simulate", *TINY, "--set", "eval.horizon=0.3")
    paths = [tmp_path / name for name in ("truth.csv", "one.csv", "two.csv")]
    for path, extra in zip(paths, ((), ("--checkpoint", str(ckpt)),
                                   ("--checkpoint", str(ckpt), "--set", "train.substeps=2"))):
        rc, _, err = run_cli(*base, *extra, "--out", str(path))
        assert rc == 0, err
    truth, one, two = (np.loadtxt(p, delimiter=",", skiprows=1) for p in paths)
    model = build_model("chnn", build_system("npendulum", n=2), hidden=(8, 8))
    want = model.rollout(load_checkpoint(ckpt), truth[0, 1:], truth[:, 0], substeps=2)[0]
    assert np.array_equal(two[:, 1:], want)
    assert not np.array_equal(one, two)
