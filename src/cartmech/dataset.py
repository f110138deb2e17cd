"""Ground-truth datasets, and the package's on-disk formats.

Generation: adaptive integration and chunking.  Persistence: dataset
directories and CMK1 parameter checkpoints.  Both binaries are read through
one bounded reader, whose FormatError names the file and the byte offset;
a dataset with no rows, fewer than two times or states of the wrong width
for its system raises FormatError when it is loaded.  Export: CSV
trajectories and metric curves.

Trajectories are integrated in Hamiltonian form and stored as (x, xdot)
states, since learned models must never see momenta computed with the true
mass matrix.  Each trajectory draws from its own rng stream seeded by
(seed, index), so a dataset is reproducible and the first n trajectories of a
larger pool form a nested subset.  A split is integrated as one batch; the
batched field and integrator compute every row as they would compute it
alone, which keeps both properties.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import ParamStore
from .dynamics import convert_flavor
from .errors import FormatError, IntegrationError, ParameterDomainError, finite_positive
from .integrators import Tolerances, integrate_adaptive
from .states import LAGRANGIAN
from .systems import System, system_from_dict, system_to_dict

FORMAT_VERSION = 1
CHECKPOINT_MAGIC = b"CMK1"
CHECKPOINT_VERSION = 1
CHUNK_STATES = 5  # 4 steps per training chunk
RETRIES = 3  # redraws of a row whose integration fails
TRAIN, TEST = "train", "test"


@dataclass(frozen=True)
class Dataset:
    """A stack of equal-length (times, states) rows plus its provenance."""

    system_spec: dict
    dt: float
    split: str
    seed: int
    tolerances: Tolerances
    times: np.ndarray   # (N, T)
    states: np.ndarray  # (N, T, 2dn) in (x, xdot) form

    def __len__(self) -> int:
        return self.states.shape[0]

    def subset(self, n: int) -> "Dataset":
        """First n rows; nested across sizes because rng streams are per-index."""
        if not 0 < n <= len(self):
            raise ValueError(f"subset size {n} outside 1..{len(self)}")
        return replace(self, times=self.times[:n], states=self.states[:n])

    def system(self) -> System:
        return system_from_dict(self.system_spec)


def _integrate_rows(system: System, rngs: list, steps: int, tol: Tolerances,
                    log=None) -> np.ndarray:
    """(N, steps + 1, 2dn) Hamiltonian trajectories, one per rng stream.

    Every initial state is drawn first and all are integrated in one batched
    call.  A row whose integration fails is redrawn from its own stream and
    integrated again with the other failed rows, up to RETRIES times; the
    last failure is raised.  Other errors propagate.
    """
    t_eval = system.dt * np.arange(steps + 1)
    todo = np.arange(len(rngs))
    z0 = np.stack([system.sample(rng) for rng in rngs])
    states = None
    for attempt in range(RETRIES + 1):
        run = integrate_adaptive(system.dynamics, z0, steps * system.dt, t_eval=t_eval, tol=tol)
        failed = [(i, err) for i, err in zip(todo, run.failures) if err is not None]
        if states is None:
            states = run.states
        else:
            states[todo] = run.states
        for i, err in failed:
            if log is not None:
                log(f"trajectory {i}: integration failed (attempt {attempt + 1}): {err}")
        if not failed:
            return states
        if attempt == RETRIES:
            raise failed[0][1]
        todo = np.array([i for i, _ in failed])
        z0 = np.stack([system.sample(rngs[i]) for i in todo])
    raise AssertionError("unreachable")


def generate_dataset(system: System, n_traj: int, steps: int = 100,
                     tolerances: Tolerances = Tolerances(1e-7, 1e-9), seed: int = 0,
                     split: str = TRAIN, log=None) -> Dataset:
    """Integrate n_traj sampled initial conditions and package them.

    All trajectories of the split go through one batched integration; a row
    that fails is resampled from its own rng stream (see _integrate_rows).
    Train split: each trajectory contributes one uniformly chosen chunk of
    CHUNK_STATES consecutive states from its non-overlapping partition.
    Test split: full trajectories.
    """
    if split not in (TRAIN, TEST):
        raise ValueError(f"split must be {TRAIN!r} or {TEST!r}")
    if n_traj < 1:
        raise ParameterDomainError(f"n_traj must be at least 1, got {n_traj}")
    if steps < CHUNK_STATES:
        raise ValueError(f"steps must be at least {CHUNK_STATES}")
    t_eval = system.dt * np.arange(steps + 1)
    rngs = [np.random.default_rng([seed, index]) for index in range(n_traj)]
    states = _integrate_rows(system, rngs, steps, tolerances, log)
    if split == TEST:
        times = np.tile(t_eval, (n_traj, 1))
    else:
        # chunk c of each row, drawn from the row's stream after its last sample
        first = CHUNK_STATES * np.array([rng.integers(steps // CHUNK_STATES) for rng in rngs],
                                        dtype=int)
        take = first[:, None] + np.arange(CHUNK_STATES)
        times = t_eval[take]
        states = np.take_along_axis(states, take[:, :, None], axis=1)
    return Dataset(system_to_dict(system), system.dt, split, seed, tolerances,
                   times, convert_flavor(system.context(), states, LAGRANGIAN))


# -- persistence: dataset directories and CMK1 checkpoints -----------------------------
#
# A dataset is a directory: manifest.json, then payload.bin holding times and
# states as raw little-endian float64 in C order.  A checkpoint is one file:
# magic, version and name count, the name table, then each parameter's name,
# rank, shape and float64 data.  Both are read through one bounded _Reader.

class _Reader:
    """Little-endian reads from one file's bytes that never run past its end;
    every FormatError names the file and the byte offset of the failed read."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            self.path, self.raw = path, memoryview(fh.read())
        self.at = self.start = 0

    def fail(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: byte {self.start}: {message}")

    def take(self, size: int) -> memoryview:
        self.start = self.at
        if self.at + size > len(self.raw):
            raise self.fail(f"truncated: needs {size} bytes, {len(self.raw) - self.at} left")
        self.at += size
        return self.raw[self.start:self.at]

    def uints(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.take(4 * count))

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        data = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        try:
            return data.reshape(shape)
        except ValueError:  # empty, but the other sizes are past numpy's limits
            raise self.fail(f"impossible shape {shape}") from None

    def end(self) -> None:
        self.start = self.at
        if self.at != len(self.raw):
            raise self.fail(f"{len(self.raw) - self.at} trailing bytes")


def save_dataset(dataset: Dataset, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "system": dataset.system_spec,
        "dt": dataset.dt,
        "split": dataset.split,
        "seed": dataset.seed,
        "tolerances": {"rtol": dataset.tolerances.rtol, "atol": dataset.tolerances.atol},
        "times_shape": list(dataset.times.shape),
        "states_shape": list(dataset.states.shape),
        "dtype": "<f8",
        "order": "C",
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(directory, "payload.bin"), "wb") as fh:
        fh.write(np.ascontiguousarray(dataset.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(dataset.states, dtype="<f8").tobytes())


def _entry(mapping: dict, key: str, kind, where: str):
    """mapping[key] if present and of the given type (bool is not a number)."""
    value = mapping.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{where}: manifest entry {key!r} is missing or ill-typed ({value!r})")
    return value


def _shape(manifest: dict, key: str, where: str) -> tuple[int, ...]:
    shape = _entry(manifest, key, list, where)
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise FormatError(f"{where}: manifest entry {key!r} is not a shape ({shape!r})")
    return tuple(shape)


def load_dataset(directory) -> Dataset:
    """A dataset written by save_dataset; FormatError unless the manifest and
    payload are well formed, the manifest's system builds, and the states are
    (N, T, 2dn) with at least one row of at least two times."""
    path = os.path.join(directory, "manifest.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as err:
            raise FormatError(f"{path}: not a JSON manifest ({err})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: format version {version!r}, expected {FORMAT_VERSION}")
    layout = (_entry(manifest, "dtype", str, path), _entry(manifest, "order", str, path))
    if layout != ("<f8", "C"):
        raise FormatError(f"{path}: unsupported payload layout {layout}")
    t_shape = _shape(manifest, "times_shape", path)
    s_shape = _shape(manifest, "states_shape", path)
    if len(t_shape) != 2 or len(s_shape) != 3 or s_shape[:2] != t_shape:
        raise FormatError(f"{path}: times_shape {list(t_shape)} and states_shape "
                          f"{list(s_shape)} are not (N, T) and (N, T, D)")
    if t_shape[0] < 1 or t_shape[1] < 2:
        raise FormatError(f"{path}: states_shape {list(s_shape)} needs N >= 1 rows "
                          f"of T >= 2 times")
    tolerances = _entry(manifest, "tolerances", dict, path)
    try:
        tol = Tolerances(float(_entry(tolerances, "rtol", (int, float), path)),
                         float(_entry(tolerances, "atol", (int, float), path)))
        (dt,) = finite_positive("dt", (_entry(manifest, "dt", (int, float), path),))
    except ParameterDomainError as err:
        raise FormatError(f"{path}: {err}") from None
    system_spec = _entry(manifest, "system", dict, path)
    if system_spec.get("dt") != dt:
        raise FormatError(f"{path}: dt {dt!r} disagrees with system.dt {system_spec.get('dt')!r}")
    try:
        dn = system_from_dict(system_spec).topology.dn
    except ValueError as err:  # SchemaError and ParameterDomainError among them
        raise FormatError(f"{path}: {err}") from None
    if s_shape[2] != 2 * dn:
        raise FormatError(f"{path}: states_shape {list(s_shape)} has D = {s_shape[2]}, "
                          f"but its system's states have 2dn = {2 * dn}")
    split = _entry(manifest, "split", str, path)
    seed = _entry(manifest, "seed", int, path)
    payload = _Reader(os.path.join(directory, "payload.bin"))
    times, states = payload.floats(t_shape), payload.floats(s_shape)
    payload.end()
    return Dataset(system_spec, dt, split, seed, tol, times, states)


def save_checkpoint(store: ParamStore, path) -> None:
    """Write parameters: magic, version, name table, then name/shape/float64 data."""
    with open(path, "wb") as fh:
        names = store.names()
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(names)))
        for name in names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for name in names:
            value = np.asarray(store[name], dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(value.tobytes())


def load_checkpoint(path) -> ParamStore:
    """Parameters written by save_checkpoint; a malformed file raises FormatError."""
    reader = _Reader(path)

    def name() -> str:
        try:
            return str(reader.take(reader.uints(1)[0]), "utf-8")
        except UnicodeDecodeError:
            raise reader.fail("parameter name is not UTF-8") from None

    if reader.take(4) != CHECKPOINT_MAGIC:
        raise reader.fail("not a CMK1 checkpoint")
    version, count = reader.uints(2)
    if version != CHECKPOINT_VERSION:
        raise reader.fail(f"unsupported checkpoint version {version}")
    table = []
    for _ in range(count):
        table.append(name())
        if table[-1] in table[:-1]:
            raise reader.fail(f"duplicate name {table[-1]!r} in the name table")
    store = ParamStore()
    for expected in table:
        found = name()
        if found != expected:
            raise reader.fail(f"name table mismatch ({found!r} != {expected!r})")
        store.add(found, reader.floats(reader.uints(reader.uints(1)[0])))
    reader.end()
    return store


# -- CSV export -----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def trajectory_columns(dim: int, n_points: int) -> list[str]:
    """Flat state column names in point-major order: x_<coord>_<point>."""
    cols = [f"x_{c}_{p}" for p in range(n_points) for c in range(dim)]
    cols += [f"v_{c}_{p}" for p in range(n_points) for c in range(dim)]
    return cols


def export_trajectory_csv(path, times: np.ndarray, states: np.ndarray, dim: int) -> None:
    """One row per time sample: t, then the flat (x, v) state."""
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n_points = states.shape[1] // (2 * dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(trajectory_columns(dim, n_points)) + "\n")
        for t, row in zip(times, states):
            fh.write(_fmt(t) + "," + ",".join(_fmt(v) for v in row) + "\n")


def export_metrics_csv(path, times: np.ndarray, rel_err: np.ndarray,
                       energy_err: np.ndarray, phi_rmse: np.ndarray) -> None:
    """Per-time metric curves plus a geometric-mean summary footer."""
    from .metrics import geometric_mean

    times = np.asarray(times, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,rel_err,energy_err,phi_rmse\n")
        for t, r, e, p in zip(times, rel_err, energy_err, phi_rmse):
            fh.write(",".join(map(_fmt, (t, r, e, p))) + "\n")
        fh.write("geometric_mean," + ",".join(
            _fmt(geometric_mean(np.asarray(c, dtype=float), times))
            for c in (rel_err, energy_err, phi_rmse)) + "\n")
