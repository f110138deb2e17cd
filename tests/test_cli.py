"""End-to-end checks of the command-line workflow on a desk-scale problem."""
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cartmech import cli
from cartmech.dataset import load_dataset


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
    import cartmech.autodiff as ad
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    ds = load_dataset(workdir / "data" / "test")
    model = build_model("chnn", ds.system(), hidden=(8, 8))
    store = ad.load_checkpoint(workdir / "run" / "final.cmk")
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
    rc, out, err = run_cli("simulate", "--system", "npendulum", "--n", "2",
                           "--T", "0.6", "--seed", "3", "--out", str(out_csv))
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
    rc, out, err = run_cli("simulate", "--system", "npendulum", "--n", "2",
                           "--T", "0.3", "--seed", "3",
                           "--checkpoint", str(workdir / "run" / "final.cmk"),
                           "--model", "chnn", "--hidden", "8", "8",
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
    # a magnet right below the pivot and a bead that starts at the bottom of
    # the sphere: the first field evaluation is at the dipole
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cartmech.cli", "generate",
         "--set", "system.kind=magnet",
         "--set", "system.magnet_positions=[[0.0,0.0,-1.0]]",
         "--set", "system.magnet_moments=[[0.0,0.0,1.0]]",
         "--set", "system.polar_max=0.0",
         "--set", "data.n_traj=1", "--set", "data.steps=5", "--set", "eval.n_test=1",
         "--out", str(tmp_path / "D")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "numeric failure" in proc.stderr


def test_bad_arguments_exit_1_not_2():
    rc, _, err = run_cli("simulate", "--system", "hovercraft")
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
        [sys.executable, "-m", "cartmech.cli", "simulate", "--system", "npendulum", "--n", "2",
         "--T", "0.3", "--checkpoint", str(workdir / "run" / "final.cmk"),
         "--model", "chnn", "--hidden", "0"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "hidden" in proc.stderr


def _heavy_checkpoint(workdir, tmp_path):
    """The trained chnn with body 0 made 1e34 times heavier: its multiplier
    system K = DPhi M^-1 DPhi^T is degenerate on every state."""
    from cartmech import autodiff as ad

    store = ad.load_checkpoint(workdir / "run" / "final.cmk")
    store["mass.log_m0"] = np.full(store["mass.log_m0"].shape, 80.0)
    path = tmp_path / "heavy.cmk"
    ad.save_checkpoint(store, path)
    return path


def test_evaluate_degenerate_model_exits_2_without_traceback(workdir, tmp_path):
    rc, _, err = run_cli("evaluate", *TINY, "--checkpoint", str(_heavy_checkpoint(workdir, tmp_path)),
                         "--dataset", str(workdir / "data" / "test"))
    assert rc == 2
    assert "numeric failure" in err and "pivot ratio" in err
    assert "Traceback" not in err


def test_simulate_degenerate_model_exits_2_without_traceback(workdir, tmp_path):
    rc, _, err = run_cli("simulate", "--system", "npendulum", "--n", "2", "--T", "0.3",
                         "--checkpoint", str(_heavy_checkpoint(workdir, tmp_path)),
                         "--model", "chnn", "--hidden", "8", "8")
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
    from cartmech import autodiff as ad
    from cartmech.models import build_model
    from cartmech.systems import build_system

    node = build_model("node", build_system("npendulum", n=2), hidden=(8, 8))
    paths = [tmp_path / "node.cmk"]
    ad.save_checkpoint(node.init_params(np.random.default_rng(0)), paths[0])
    store = ad.load_checkpoint(workdir / "run" / "final.cmk")
    for name in ("potential.b1", "mass.log_m1"):
        paths.append(tmp_path / f"no_{name}.cmk")
        ad.save_checkpoint(ad.ParamStore({k: v for k, v in store.items() if k != name}),
                           paths[-1])
    return paths


def _dataset_with_dt(workdir, tmp_path, dt):
    """The test split with its manifest's dt replaced."""
    bad = tmp_path / f"dt_{dt}"
    bad.mkdir()
    source = workdir / "data" / "test"
    manifest = json.loads((source / "manifest.json").read_text())
    manifest["dt"] = dt
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
        return ("simulate", "--system", "npendulum", "--n", "2", "--T", "0.3",
                "--checkpoint", str(ckpt), "--model", "chnn", "--hidden", "8", "8")

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
        (("simulate", "--system", "npendulum", "--rtol", "-1"), 1, "rtol", "-1.0"),
        (("simulate", "--system", "npendulum", "--rtol", "nan"), 1, "rtol", "nan"),
        (("simulate", "--system", "npendulum", "--T", "inf"), 1, "--T", "inf"),
        (("simulate", "--system", "npendulum", "--T", "nan"), 1, "--T", "nan"),
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
        # a dataset whose dt is not finite and positive
        (evaluate(good_ckpt, _dataset_with_dt(workdir, tmp_path, 0.0)), 1, "dt", "0.0"),
        (evaluate(good_ckpt, _dataset_with_dt(workdir, tmp_path, -0.03)), 1, "dt", "-0.03"),
        (evaluate(good_ckpt, _dataset_with_dt(workdir, tmp_path, float("inf"))), 1, "dt", "inf"),
    ]
    for args, expected, *named in table:
        rc, _, err = run_cli(*args)
        assert rc == expected, (args, err)
        assert "Traceback" not in err, args
        for word in named:
            assert word in err, (args, err)


def test_evaluate_rolls_out_with_the_training_substeps(workdir):
    from cartmech import autodiff as ad
    from cartmech.metrics import evaluate_model
    from cartmech.models import build_model

    ckpt, test_dir = workdir / "run" / "final.cmk", workdir / "data" / "test"
    args = ("evaluate", *TINY, "--checkpoint", str(ckpt), "--dataset", str(test_dir))
    rc, default, err = run_cli(*args)
    assert rc == 0, err
    rc, out, err = run_cli(*args, "--set", "train.substeps=2")
    assert rc == 0, err
    ds = load_dataset(test_dir)
    model = build_model("chnn", ds.system(), hidden=(8, 8))
    result = evaluate_model(model, ad.load_checkpoint(ckpt), ds, horizon=3.0, substeps=2)
    assert out.splitlines() == [f"gm_rel_err {result.gm_rel_err:.17g}",
                                f"gm_energy_err {result.gm_energy_err:.17g}",
                                f"gm_phi_rmse {result.gm_phi_rmse:.17g}"]
    assert out != default
