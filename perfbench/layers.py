"""Per-layer metrics of a traced run.

Every traced run reports the same names, whatever its workload; a layer the
workload does not exercise reads 0.  Timings come from the traced rounds,
step percentiles from the plain rounds (cold round included), GC and fault
counts from the first round, which is cold and untraced.
"""
from __future__ import annotations

from tracing import median, percentile
from workloads import GT_SYSTEMS, KINDS, Train

# ops whose element counts are reported as metrics; the record has them all
CENSUS_OPS = ("matmul", "mul", "add", "sub", "transpose")


def per_layer(workload, tracer, ops, rounds, baseline):
    m = {}
    dp5 = getattr(workload, "dp5", {})
    accepted = rejected = 0
    for label in GT_SYSTEMS:
        counts = dp5.get(label, [])
        n = len(counts) or 1
        field = tracer.durations(f"field.{label}")
        m[f"field_us.{label}"] = 1e6 * sum(field) / len(field) if field else 0.0
        m[f"dp5.fevals.{label}"] = len(field) / n
        m[f"dp5.accepted.{label}"] = sum(a for a, _ in counts) / n
        m[f"dp5.rejected.{label}"] = sum(r for _, r in counts) / n
        m[f"dp5.self_ms.{label}"] = 1e3 * sum(tracer.self_times(f"dp5.{label}")) / n
        accepted += sum(a for a, _ in counts)
        rejected += sum(r for _, r in counts)
    m["dp5.accept_ratio"] = accepted / (accepted + rejected) if accepted + rejected else 0.0
    m["rk4.self_ms"] = 1e3 * median(tracer.self_times("rk4"))

    traced_rounds = sum(r["traced"] for r in rounds)
    m["dataset.generate_s"] = sum(tracer.durations("dataset.generate")) / traced_rounds
    m["dataset.save_ms"] = 1e3 * sum(tracer.durations("dataset.save")) / traced_rounds
    m["dataset.load_ms"] = 1e3 * sum(tracer.durations("dataset.load")) / traced_rounds
    m["dataset.bytes"] = sum(getattr(workload, "bytes_written", [])) / traced_rounds

    training = isinstance(workload, Train)
    census = workload.census if training else {}
    steps = {kind: step_ms(ops, kind) if training else [] for kind in KINDS}
    for kind in KINDS:
        for layer in ("forward", "backward", "optimizer"):
            m[f"{layer}_ms.{kind}"] = 1e3 * median(tracer.durations(f"{layer}.{kind}"))
        m[f"train.step_ms.{kind}.p50"] = percentile(steps[kind], 50)
        m[f"train.step_ms.{kind}.p90"] = percentile(steps[kind], 90)
        for phase in ("forward", "backward"):
            counted = census.get(kind, {}).get(phase, {"nodes": 0, "elements": {}})
            m[f"tape.nodes.{kind}.{phase}"] = counted["nodes"]
            m[f"tape.elements.{kind}.{phase}.total"] = sum(counted["elements"].values())
            for op in CENSUS_OPS:
                m[f"tape.elements.{kind}.{phase}.{op}"] = counted["elements"].get(op, 0)

    cold = rounds[0]
    m["gc.pause_ms"] = cold["gc.pause_ms"]
    m["gc.collections"] = cold["gc.collections"]
    m["minflt"] = cold["minflt"]
    for kind in KINDS:
        m[f"eval.rollout_ms.{kind}"] = 1e3 * median(tracer.durations(f"rollout.{kind}"))
    m["metrics.score_ms"] = 1e3 * median(tracer.durations("score"))

    plain = [r["work_s"] for r in rounds[1:] if not r["traced"]] or [cold["work_s"]]
    traced = [r["work_s"] for r in rounds if r["traced"]]
    m["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
    m["blas1.step_ms.chnn.p50"] = (baseline or {"metrics": {}})["metrics"].get(
        "train.step_ms.chnn.p50", {"value": 0.0})["value"]

    detail = {"tape_census": census,
              "step_samples": {kind: len(v) for kind, v in steps.items()},
              "dp5_per_trajectory": dp5,
              "trace_overhead": {"plain_round_s": plain, "traced_round_s": traced}}
    return m, detail


def step_ms(ops, kind) -> list[float]:
    """Per-step wall times of one kind's train() calls in the plain rounds."""
    return [1e3 * s for op in ops if op["label"] == kind and not op["traced"]
            for s in op["steps"]]


def unit(name: str) -> str:
    if name.startswith("field_us."):
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name == "dp5.accept_ratio":
        return "1"
    if name == "dataset.bytes":
        return "B"
    return "count"


def units(metrics: dict) -> dict:
    return {name: unit(name) for name in metrics}
