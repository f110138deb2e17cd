"""Command-line front end.

Subcommands: generate, simulate, train, evaluate, ablate-constraints, export,
print-config.  Every subcommand but export is driven by one JSON config with
sections system/data/model/train/eval, read with --config and overridden
entry by entry with --set; every value has an explicit default, and unknown
keys and wrong-typed values are rejected with their dotted path.  simulate
rolls one initial state, drawn with data.seed, over eval.horizon seconds in
steps of system.dt: the ground truth, or with --checkpoint the configured
model at train.substeps, scored by evaluate_rollout.  Exit codes: 0 success,
1 user error, 2 numeric failure (errors.NumericFailure).
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .dataset import (
    export_metrics_csv,
    export_trajectory_csv,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    write_history,
)
from .dynamics import convert_flavor
from .errors import CartmechError, NumericFailure, SchemaError, check_like, finite_positive
from .integrators import Tolerances, integrate_adaptive
from .metrics import evaluate_model, evaluate_rollout
from .models import DEFAULT_HIDDEN, MODEL_KINDS, build_model
from .states import LAGRANGIAN
from .systems import disable_system_constraints, system_from_dict, system_to_dict
from .training import TrainConfig, train

DEFAULT_CONFIG = {
    "system": {"kind": "npendulum"},
    "data": {"n_traj": 200, "steps": 100, **asdict(Tolerances()), "seed": 0},
    "model": {"kind": "chnn", "hidden": list(DEFAULT_HIDDEN)},
    "train": asdict(TrainConfig()),
    "eval": {"horizon": 3.0, "n_test": 20, "seed": 1000000},
}


# -- config handling ------------------------------------------------------------------

def _resolve_system(doc: dict) -> dict:
    """The system section with every default made explicit, from the system
    built once (so parameter names, types and domains are enforced)."""
    if not isinstance(doc, dict):
        raise SchemaError("system: expected an object")
    try:
        return system_to_dict(system_from_dict({**DEFAULT_CONFIG["system"], **doc}))
    except SchemaError:
        raise
    except (TypeError, ValueError) as err:
        raise SchemaError(f"system: {err}") from None


def resolve_config(doc: dict | None) -> dict:
    """Validate a partial config against the schema and fill in all defaults."""
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise SchemaError("config root must be a JSON object")
    for section in doc:
        if section not in DEFAULT_CONFIG:
            raise SchemaError(f"unknown config section {section!r}")
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for section, defaults in DEFAULT_CONFIG.items():
        if section == "system":
            continue
        content = doc.get(section, {})
        if not isinstance(content, dict):
            raise SchemaError(f"{section}: expected an object")
        for key, value in content.items():
            if key not in defaults:
                raise SchemaError(f"unknown key {section}.{key}")
            check_like(f"{section}.{key}", value, defaults[key])
            merged[section][key] = value
    merged["system"] = _resolve_system(doc.get("system", {}))
    if merged["model"]["kind"] not in MODEL_KINDS:
        raise SchemaError(
            f"model.kind: unknown model {merged['model']['kind']!r}; choose from {MODEL_KINDS}")
    for section, key in (("data", "n_traj"), ("eval", "n_test")):
        if merged[section][key] < 1:
            raise SchemaError(f"{section}.{key} must be at least 1, got {merged[section][key]}")
    return merged


def _apply_overrides(doc: dict, overrides) -> dict:
    for item in overrides or ():
        if "=" not in item:
            raise SchemaError(f"--set needs key.path=value, got {item!r}")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if len(keys) < 2:
            raise SchemaError(f"--set path must be section.key, got {path!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise SchemaError(f"--set {path}: {key} is not an object")
        node[keys[-1]] = value
    return doc


def load_config(args) -> dict:
    doc = {}
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise SchemaError(f"{path}: invalid JSON ({err})") from None
    _apply_overrides(doc, getattr(args, "set", None))
    return resolve_config(doc)


def _tolerances(cfg: dict) -> Tolerances:
    return Tolerances(cfg["data"]["rtol"], cfg["data"]["atol"])


def _model_from_config(cfg: dict, system):
    return build_model(cfg["model"]["kind"], system, hidden=tuple(cfg["model"]["hidden"]))


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**cfg["train"])


# -- subcommands ----------------------------------------------------------------------

def cmd_print_config(args) -> int:
    print(json.dumps(load_config(args), indent=2, sort_keys=True))
    return 0


def cmd_generate(args) -> int:
    cfg = load_config(args)
    system = system_from_dict(cfg["system"])
    tol = _tolerances(cfg)
    train_ds = generate_dataset(system, cfg["data"]["n_traj"], steps=cfg["data"]["steps"],
                                tolerances=tol, seed=cfg["data"]["seed"], split="train",
                                log=_log)
    test_ds = generate_dataset(system, cfg["eval"]["n_test"], steps=cfg["data"]["steps"],
                               tolerances=tol, seed=cfg["eval"]["seed"], split="test",
                               log=_log)
    save_dataset(train_ds, os.path.join(args.out, "train"))
    save_dataset(test_ds, os.path.join(args.out, "test"))
    print(f"train_chunks {len(train_ds)}")
    print(f"test_trajectories {len(test_ds)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    system = system_from_dict(cfg["system"])
    (horizon,) = finite_positive("eval.horizon", (cfg["eval"]["horizon"],))
    count = horizon / system.dt
    if not np.isfinite(count):
        raise SchemaError(f"eval.horizon: {horizon:g} s is not a finite number of "
                          f"{system.dt:g} s steps")
    steps = int(round(count))
    if steps < 1:
        raise SchemaError("eval.horizon must cover at least one step")
    t_eval = system.dt * np.arange(steps + 1)
    z0 = system.sample(np.random.default_rng(cfg["data"]["seed"]))
    traj = integrate_adaptive(system.dynamics, z0, steps * system.dt, t_eval=t_eval,
                              tol=_tolerances(cfg))
    truth = convert_flavor(system.context(), traj.states, LAGRANGIAN)
    if args.checkpoint:
        model = _model_from_config(cfg, system)
        store = load_checkpoint(args.checkpoint)
        states = model.rollout(store, truth[0], t_eval, substeps=cfg["train"]["substeps"])[0]
    else:
        states = truth
    if args.out:
        export_trajectory_csv(args.out, t_eval, states, system.topology.dim)
    result = evaluate_rollout(system, states[None],
                              np.broadcast_to(truth[0], states.shape)[None], t_eval)
    print(f"steps {steps}")
    print(f"max_rel_energy_error {np.max(result.energy_err):.17g}")
    print(f"max_phi_rmse {np.max(result.phi_rmse):.17g}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args)
    ds = load_dataset(args.data)
    system = ds.system
    model = _model_from_config(cfg, system)
    os.makedirs(args.out, exist_ok=True)
    result = train(model, ds.states, _train_config(cfg), log=_log)
    save_checkpoint(result.store, os.path.join(args.out, "final.cmk"))
    write_history(result.history, os.path.join(args.out, "history.csv"))
    print(f"final_loss {result.history[-1, 1]:.17g}")
    print(f"bad_steps {result.bad_steps}")
    return 0


def _run_evaluation(cfg: dict, model, store, dataset, out_path) -> None:
    result = evaluate_model(model, store, dataset, horizon=cfg["eval"]["horizon"],
                            substeps=cfg["train"]["substeps"])
    if out_path:
        export_metrics_csv(out_path, result)
    print(f"gm_rel_err {result.gm_rel_err:.17g}")
    print(f"gm_energy_err {result.gm_energy_err:.17g}")
    print(f"gm_phi_rmse {result.gm_phi_rmse:.17g}")


def cmd_evaluate(args) -> int:
    cfg = load_config(args)
    ds = load_dataset(args.dataset)
    model = _model_from_config(cfg, ds.system)
    store = load_checkpoint(args.checkpoint)
    _run_evaluation(cfg, model, store, ds, args.out)
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args)
    if cfg["model"]["kind"] not in ("chnn", "clnn"):
        raise SchemaError("model.kind: constraint ablation needs a constrained model "
                          "(chnn or clnn)")
    train_ds = load_dataset(args.data)
    test_ds = load_dataset(args.test)
    try:
        indices = [int(tok) for tok in args.disable.split(",") if tok.strip() != ""]
    except ValueError:
        raise SchemaError(f"--disable wants comma-separated indices, got {args.disable!r}") from None
    system = disable_system_constraints(train_ds.system, indices)
    model = _model_from_config(cfg, system)
    result = train(model, train_ds.states, _train_config(cfg), log=_log)
    if args.checkpoint_out:
        save_checkpoint(result.store, args.checkpoint_out)
    print(f"disabled_constraints {sorted(system.topology.disabled)}")
    # metrics run against the full system so the missing constraint shows up
    # as violation, not as a smaller phi vector
    _run_evaluation(cfg, model, result.store, test_ds, args.out)
    return 0


def cmd_export(args) -> int:
    ds = load_dataset(args.dataset)
    if not 0 <= args.index < len(ds):
        raise SchemaError(f"--index {args.index} outside 0..{len(ds) - 1}")
    export_trajectory_csv(args.out, ds.times[args.index], ds.states[args.index],
                          ds.system.topology.dim)
    print(f"rows {ds.times.shape[1]}")
    return 0


# -- wiring ---------------------------------------------------------------------------

def _log(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with status 2; here 2 means a numeric failure, so
        # remap argument problems to the user-error path
        raise SchemaError(message)


def _add_config_args(p) -> None:
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                   help="override a config entry (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cartmech",
                     description="Constrained-mechanics simulation and learning toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="integrate ground truth and write datasets")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output directory (train/ and test/)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="roll out ground truth or a checkpointed model")
    _add_config_args(p)
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--checkpoint", help="roll a trained model instead of ground truth")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="train dataset directory")
    p.add_argument("--out", required=True, help="output directory (checkpoint, history)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a test dataset")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="test dataset directory")
    p.add_argument("--out", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate-constraints",
                       help="retrain with constraints disabled and evaluate")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="train dataset directory")
    p.add_argument("--test", required=True, help="test dataset directory")
    p.add_argument("--disable", required=True, help="comma-separated constraint indices")
    p.add_argument("--out", help="metrics CSV path")
    p.add_argument("--checkpoint-out", help="where to save the ablated checkpoint")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export", help="write one stored trajectory as CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("print-config", help="print the fully resolved configuration")
    _add_config_args(p)
    p.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (NumericFailure, FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except (CartmechError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
