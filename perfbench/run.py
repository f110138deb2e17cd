#!/usr/bin/env python3
"""cartmech benchmark: three workloads through the public API, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload {groundtruth,train,evaluate} \
        --seed N --seconds S --trace {0,1}

The workload's inputs come from --seed.  It runs whole rounds of operations
(a closed loop in one process) while the next round is expected to end
within S seconds, and checks every result.  --trace 0 reports the end-to-end
metrics; --trace 1 is a separate run that alternates plain and traced rounds
and reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are a readable report.  A full record
(environment, sample counts, the whole tape census) goes to perfbench/out/.
See perfbench/README.md for the workloads and the metric map.
"""
import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

from tracing import ProcessCounters, Tracer, median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
BLAS1_SECONDS = 8  # length of the single-thread baseline run that a traced train run starts

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1", "work_per_s": "1/s"}
# The same numbers under the names the workloads' users know them by; printed
# in the report, while the JSON line keeps names that every workload shares.
WORK_NAMES = {"groundtruth": "gt_traj_per_s", "train": "train_steps_per_s",
              "evaluate": "eval_traj_per_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("groundtruth", "train", "evaluate"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--blas-threads", type=int, default=0,
                   help="cap on BLAS threads (default: the CPUs this process may use)")
    p.add_argument("--kinds", default="chnn,clnn,hnn2d,node",
                   help="model kinds for the train workload")
    return p.parse_args(argv)


def pin_blas_threads(limit: int) -> dict:
    """Cap BLAS threads before numpy loads; return the settings found."""
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in found.items():
        if not (value or "").isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    return found


def environment(found: dict, nproc: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": sys.version, "implementation": platform.python_implementation(),
            "numpy": numpy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "configuration": blas.get("openblas configuration")},
            "thread_env_found": found,
            "thread_env_used": {var: os.environ[var] for var in THREAD_VARS},
            "nproc": nproc, "cpu_count": os.cpu_count(), "machine": platform.machine()}


def run_rounds(workload, seconds, tracer, counters, min_rounds):
    """Whole rounds while the next is expected to end in time; odd rounds traced."""
    ops, rounds = [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or \
            time.perf_counter() - start + rounds[-1]["wall_s"] <= seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        workload.tracer = tracer if traced else None
        mark = counters.snapshot()
        begin = time.perf_counter()
        work = 0.0
        for label, run, check in workload.ops():
            t = time.perf_counter()
            try:
                result = run()
                took = time.perf_counter() - t
                units, problems, steps = check(result)
            except Exception as err:  # a failed operation is counted, not fatal
                took = time.perf_counter() - t
                units, problems, steps = 0, [f"{label}: {err!r}"], None
            for problem in problems:
                print(f"FAILED {problem}", file=sys.stderr)
            work += took
            ops.append({"round": len(rounds), "traced": traced, "label": label,
                        "seconds": took, "units": 0 if problems else units,
                        "failed": bool(problems), "steps": steps or []})
        rounds.append({"traced": traced, "work_s": work,
                       "wall_s": time.perf_counter() - begin, **counters.since(mark)})
    workload.tracer = None
    return ops, rounds


def end_to_end(ops, setup_s):
    return {"setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - sum(op["failed"] for op in ops) / len(ops),
            "work_per_s": sum(op["units"] for op in ops) / sum(op["seconds"] for op in ops)}


def named(workload_name, ops, metrics):
    """Report lines: failed_frac, the workload's own rate, per-kind step percentiles."""
    lines = [("failed_frac", 1.0 - metrics["ok_frac"], "1"),
             (WORK_NAMES[workload_name], metrics["work_per_s"], "1/s")]
    if workload_name == "train":
        from layers import step_ms
        for kind in dict.fromkeys(op["label"] for op in ops):
            steps = step_ms(ops, kind)
            lines += [(f"train_step_ms.{kind}.p50", percentile(steps, 50), f"ms (n={len(steps)})"),
                      (f"train_step_ms.{kind}.p90", percentile(steps, 90), f"ms (n={len(steps)})")]
    return lines


def blas1_baseline(args):
    """The same traced train problem, chnn only, in a child pinned to one BLAS thread."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", "train",
           "--seed", str(args.seed), "--seconds", str(BLAS1_SECONDS), "--trace", "1",
           "--blas-threads", "1", "--kinds", "chnn"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        print("FAILED single-thread baseline run", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "metrics": {}}
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    found = pin_blas_threads(args.blas_threads or nproc)
    if not os.path.isfile(os.path.join(SRC, "cartmech", "__init__.py")):
        print(f"run.py: no cartmech sources under {SRC}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import cartmech
    import_s = time.perf_counter() - t
    if not os.path.abspath(cartmech.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported cartmech from {cartmech.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    from workloads import WORKLOADS, Train

    os.makedirs(OUT, exist_ok=True)
    options = {"kinds": tuple(args.kinds.split(","))} if args.workload == "train" else {}
    if args.workload == "groundtruth":
        options["census"] = bool(args.trace)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, OUT, **options)
        setups.append(time.perf_counter() - t)
    setup_s = import_s + median(setups)

    baseline = None
    if args.trace and isinstance(workload, Train) and int(os.environ[THREAD_VARS[0]]) > 1:
        baseline = blas1_baseline(args)
    tracer = Tracer() if args.trace else None
    counters = ProcessCounters()
    ops, rounds = run_rounds(workload, args.seconds, tracer, counters,
                             min_rounds=2 if args.trace else 1)
    counters.close()

    attempted = len(ops) + (baseline["attempted"] if baseline else 0)
    failed = sum(op["failed"] for op in ops) + (baseline["failed"] if baseline else 0)
    if args.trace:
        metrics, detail = layers.per_layer(workload, tracer, ops, rounds, baseline)
        units = layers.units(metrics)
    else:
        metrics, detail = end_to_end(ops, setup_s), {}
        units = END_TO_END_UNITS
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(found, nproc),
              "import_s": import_s, "setup_repeats_s": setups, "rounds": rounds,
              "operations": ops,
              "metrics": metrics, **detail,
              "spans": tracer.spans if tracer else []}
    suffix = f"-{args.kinds.replace(',', '+')}-blas{args.blas_threads}" if args.blas_threads else ""
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"operations {len(ops)}  failed {failed}/{attempted}  record {os.path.relpath(path, ROOT)}")
    report = [(name, value, units[name]) for name, value in metrics.items()]
    if not args.trace:
        report += named(args.workload, ops, metrics)
    for name, value, unit in report:
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
