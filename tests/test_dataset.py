import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cartmech.dataset import (
    CHUNK_STATES,
    Dataset,
    export_metrics_csv,
    export_trajectory_csv,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    trajectory_columns,
)
from cartmech.errors import FormatError, IntegrationError, ParameterDomainError
from cartmech.integrators import Tolerances
from cartmech.metrics import constraint_rmse_curve
from cartmech.models import build_model
from cartmech.systems import build_system

TOL = Tolerances(1e-7, 1e-9)


def small_train(n=4, seed=0, **kwargs):
    system = build_system("npendulum", n=2)
    return generate_dataset(system, n, steps=100, tolerances=TOL, seed=seed, **kwargs)


def test_train_split_shapes_and_chunk_alignment():
    system = build_system("npendulum", n=2)
    ds = generate_dataset(system, 5, steps=100, tolerances=TOL, seed=1)
    assert ds.times.shape == (5, CHUNK_STATES)
    assert ds.states.shape == (5, CHUNK_STATES, 2 * system.topology.dn)
    np.testing.assert_allclose(np.diff(ds.times, axis=1), system.dt, atol=1e-12)
    starts = np.round(ds.times[:, 0] / system.dt).astype(int)
    assert np.all(starts % CHUNK_STATES == 0)
    assert np.all(starts < 100)


def test_generated_states_stay_on_manifold():
    ds = small_train(4, seed=2)
    system = ds.system
    flat = ds.states.reshape(-1, ds.states.shape[-1])
    assert np.sqrt(np.mean(constraint_rmse_curve(system, flat) ** 2)) < 1e-6


def test_test_split_keeps_full_trajectories():
    system = build_system("npendulum", n=2)
    ds = generate_dataset(system, 2, steps=100, tolerances=TOL, seed=3, split="test")
    assert ds.states.shape == (2, 101, 8)
    np.testing.assert_allclose(ds.times[0], system.dt * np.arange(101), atol=1e-12)


def test_same_seed_is_bit_identical():
    a = small_train(4, seed=5)
    b = small_train(4, seed=5)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.times, b.times)


def test_subsets_are_nested_prefixes():
    pool = small_train(6, seed=7)
    smaller = small_train(3, seed=7)
    sub = pool.subset(3)
    assert np.array_equal(sub.states, smaller.states)
    assert np.array_equal(sub.times, smaller.times)
    with pytest.raises(ValueError):
        pool.subset(0)
    with pytest.raises(ValueError):
        pool.subset(7)


def test_save_load_roundtrip_is_exact_and_byte_stable(tmp_path):
    ds = small_train(3, seed=8)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    save_dataset(ds, out1)
    loaded = load_dataset(out1)
    assert np.array_equal(loaded.states, ds.states)
    assert np.array_equal(loaded.times, ds.times)
    assert loaded.split == ds.split and loaded.seed == ds.seed
    assert loaded.tolerances == ds.tolerances
    assert loaded.system_spec == ds.system_spec
    save_dataset(loaded, out2)
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    assert (out1 / "payload.bin").read_bytes() == (out2 / "payload.bin").read_bytes()


def test_load_rejects_bad_version_and_truncation(tmp_path):
    ds = small_train(2, seed=9)
    save_dataset(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_dataset(tmp_path)
    manifest["format_version"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    payload = (tmp_path / "payload.bin").read_bytes()
    (tmp_path / "payload.bin").write_bytes(payload[:-8])
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


def test_load_rejects_missing_or_ill_typed_manifest_entries(tmp_path):
    save_dataset(small_train(2, seed=9), tmp_path)
    good = json.loads((tmp_path / "manifest.json").read_text())
    broken = [{k: v for k, v in good.items() if k != key} for key in good]
    broken += [dict(good, **{key: value}) for key, value in (
        ("times_shape", "2x5"), ("states_shape", [2, 5.0, 8]), ("dt", "0.03"),
        ("seed", 1.5), ("split", None), ("system", [1]), ("dtype", "<f4"),
        ("order", "F"), ("tolerances", {"rtol": 1e-7}),
        # the payload size still matches, but the shapes disagree
        ("times_shape", [1, 10]), ("times_shape", [10]), ("states_shape", [2, 40]),
        ("states_shape", [5, 2, 8]))]
    for manifest in broken:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            load_dataset(tmp_path)
    (tmp_path / "manifest.json").write_text("[1, 2")
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


def test_load_rejects_datasets_no_subcommand_can_use(tmp_path):
    # no rows, fewer than two times, or states that are not the system's 2dn
    # wide: each named by its shape
    ds = small_train(2, seed=9)
    for rows, times, width in ((0, 5, 8), (2, 0, 8), (2, 1, 8), (2, 5, 3)):
        directory = tmp_path / f"{rows}_{times}_{width}"
        save_dataset(replace(ds, times=ds.times[:rows, :times],
                             states=ds.states[:rows, :times, :width]), directory)
        with pytest.raises(FormatError, match=re.escape(f"[{rows}, {times}, {width}]")):
            load_dataset(directory)
    # the system's own errors, with their text, as a FormatError
    directory = tmp_path / "bad_system"
    save_dataset(replace(ds, system_spec=dict(ds.system_spec, n="x")), directory)
    with pytest.raises(FormatError, match="system.n"):
        load_dataset(directory)
    save_dataset(replace(ds, system_spec=dict(ds.system_spec, masses=[1.0, -1.0])), directory)
    with pytest.raises(FormatError, match="masses"):
        load_dataset(directory)
    # JSON's NaN is read as a float, and no system parameter may hold one
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["system"] = dict(ds.system_spec, gravity=float("nan"))
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="system.gravity"):
        load_dataset(directory)


def test_format_errors_name_the_byte(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model("chnn", build_system("npendulum", n=2), hidden=(3,))
                    .init_params(np.random.default_rng(0)), ckpt)
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:4] + b"\x02" + raw[5:])
    with pytest.raises(FormatError, match=f"{re.escape(str(ckpt))}: byte 4: unsupported "
                                          "checkpoint version 2"):
        load_checkpoint(ckpt)
    ckpt.write_bytes(raw[:100])
    with pytest.raises(FormatError, match="byte 94: truncated: needs 12 bytes, 6 left"):
        load_checkpoint(ckpt)
    save_dataset(small_train(1, seed=4), tmp_path / "ds")
    payload = tmp_path / "ds" / "payload.bin"
    payload.write_bytes(payload.read_bytes() + b"\x00")  # after 5 + 40 floats
    with pytest.raises(FormatError, match="byte 360: 1 trailing bytes"):
        load_dataset(tmp_path / "ds")


def poisoned(system, bad_draws):
    """The system with non-finite initial states on chosen draws.

    bad_draws maps a trajectory index to how many of its first draws are
    poisoned; draws[i] counts every draw from trajectory i's rng stream,
    whose seed sequence is (seed, i).
    """
    draws = Counter()

    def sampler(rng):
        index = rng.bit_generator.seed_seq.entropy[1]
        draws[index] += 1
        z = system.sampler(rng)
        return np.full_like(z, np.inf) if draws[index] <= bad_draws.get(index, 0) else z

    return replace(system, sampler=sampler), draws


def test_byte_mutations_load_or_raise_format_error(tmp_path):
    # seeded single-byte mutations of a small checkpoint, a dataset manifest
    # and its payload: each file either loads or raises FormatError
    rng = np.random.default_rng(31)
    system = build_system("npendulum", n=2)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model("chnn", system, hidden=(3,)).init_params(rng), ckpt)
    directory = tmp_path / "ds"
    save_dataset(small_train(1, seed=4), directory)
    cases = ((ckpt, lambda: load_checkpoint(ckpt), 3000),
             (directory / "manifest.json", lambda: load_dataset(directory), 1000),
             (directory / "payload.bin", lambda: load_dataset(directory), 200))
    for path, load, count in cases:
        raw = path.read_bytes()
        for _ in range(count):
            mutated = bytearray(raw)
            mutated[rng.integers(len(raw))] = rng.integers(256)
            path.write_bytes(mutated)
            try:
                load()
            except FormatError:
                pass
        path.write_bytes(raw)


def test_integration_failures_resample_up_to_three_retries():
    base = build_system("npendulum", n=2)
    clean = generate_dataset(base, 5, steps=10, tolerances=TOL, seed=4)
    flaky, draws = poisoned(base, {1: 2, 3: 1})
    messages = []
    ds = generate_dataset(flaky, 5, steps=10, tolerances=TOL, seed=4, log=messages.append)
    assert [draws[i] for i in range(5)] == [1, 3, 1, 2, 1]
    assert sorted(m.split(":")[0] for m in messages) == ["trajectory 1", "trajectory 1",
                                                          "trajectory 3"]
    assert all("integration failed" in m for m in messages)
    assert np.all(np.isfinite(ds.states))
    healthy = [0, 2, 4]
    assert np.array_equal(ds.states[healthy], clean.states[healthy])
    assert np.array_equal(ds.times[healthy], clean.times[healthy])

    exhausted, draws = poisoned(base, {2: 10})
    with pytest.raises(IntegrationError):
        generate_dataset(exhausted, 5, steps=10, tolerances=TOL, seed=4)
    assert draws[2] == 4  # initial try + 3 retries
    assert [draws[i] for i in (0, 1, 3, 4)] == [1, 1, 1, 1]


def test_trajectory_csv_layout(tmp_path):
    system = build_system("npendulum", n=2)
    ds = generate_dataset(system, 1, steps=20, tolerances=TOL, seed=11, split="test")
    path = tmp_path / "traj.csv"
    export_trajectory_csv(path, ds.times[0], ds.states[0], system.topology.dim)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 22  # header + steps + 1 rows
    assert lines[0] == "t," + ",".join(trajectory_columns(2, 2))
    assert lines[0].startswith("t,x_0_0,x_1_0,x_0_1,x_1_1,v_0_0")
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(parsed[:, 0], ds.times[0])
    np.testing.assert_array_equal(parsed[:, 1:], ds.states[0])


def test_metrics_csv_footer(tmp_path):
    times = np.array([0.0, 1.0])
    path = tmp_path / "metrics.csv"
    export_metrics_csv(path, times, np.array([0.04, 0.09]),
                       np.array([0.1, 0.1]), np.array([0.0, 0.0]))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,rel_err,energy_err,phi_rmse"
    assert len(lines) == 4
    footer = lines[-1].split(",")
    assert footer[0] == "geometric_mean"
    assert float(footer[1]) == pytest.approx(0.06, rel=1e-12)  # sqrt(0.04 * 0.09)
    assert float(footer[2]) == pytest.approx(0.1, rel=1e-12)
    assert float(footer[3]) == pytest.approx(1e-12)  # log floor


def test_generate_validates_arguments():
    system = build_system("npendulum", n=1)
    with pytest.raises(ValueError):
        generate_dataset(system, 1, steps=3)
    with pytest.raises(ValueError):
        generate_dataset(system, 1, split="validation")
    for n_traj in (0, -1):
        with pytest.raises(ParameterDomainError, match="n_traj"):
            generate_dataset(system, n_traj)
