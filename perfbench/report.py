"""Turn a workload :class:`~workloads.Outcome` into named metrics.

End-to-end metrics are the same four names on every workload, each with
the meaning its workload gives it (see ``BENCHMARK.json``).  Their times
are normalised to one host speed by :mod:`probe`; the raw times, the tail
and the probe's own reading are reported alongside, not gated.  Per-layer
metrics come from a traced run; unless a name says otherwise they are
**per operation** of the workload (train step, inference batch, or served
request), and kernel flops and bytes are computed from operand shapes, not
counted by hardware.
"""
from __future__ import annotations

import json
from pathlib import Path

import measure
import workloads as wl

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}

#: The workloads' own names for the end-to-end metrics and the reported
#: (ungated) median and tail.
ALIASES = {
    "train-scc": {"img_per_s": "train.img_per_s", "latency_ms.p50": "train.step_ms.p50",
                  "latency_ms.tail": "train.step_ms.tail"},
    "infer-b16": {"img_per_s": "infer.img_per_s", "latency_ms.p50": "infer.batch_ms.p50",
                  "latency_ms.tail": "infer.batch_ms.tail"},
    "serve-open": {"img_per_s": "serve.goodput_img_per_s",
                   "latency_ms.p50": "serve.latency_ms.p50",
                   "latency_ms.tail": "serve.latency_ms.tail"},
}

#: Units of the figures :func:`reported` prints beside the gated ones.
REPORTED_UNITS = {
    "setup_s.raw": "s", "latency_ms.p50.raw": "ms",
    "latency_ms.tail.raw": "ms", "probe_ms.p50": "ms", "img_per_s.whole_run": "img/s",
}

#: Kernel labels reported one by one (registry op, conv by plan geometry):
#: those the three workloads call.  Others add to ``kernel.other.self_ms``.
KERNEL_LABELS = (
    "conv2d.dense", "conv2d.depthwise",
    "conv2d_backward.dense", "conv2d_backward.depthwise",
    "conv2d_fused.dense", "conv2d_fused.depthwise",
    "scc_forward", "scc_backward", "maxpool2d",
)
#: ``Function`` subclasses reported one by one; the loss's few scalar ops
#: add to ``op.other.self_ms``.
OP_FUNCTIONS = (
    "SCCFunction", "Conv2d", "MaxPool2d", "ReLU", "Add", "Sub", "Mul", "Div",
    "Reshape", "Mean", "MatMul", "Permute",
)
#: Leaf ``Module`` classes (and SCC); containers add to ``nn.other.self_ms``.
NN_MODULES = (
    "SlidingChannelConv2d", "Conv2d", "DepthwiseConv2d", "BatchNorm2d", "ReLU",
    "MaxPool2d", "GlobalAvgPool2d", "Linear", "Identity",
)
#: Serving figures at the nominal rate (zero on the closed loops).
SERVE_KEYS = ("batch_occupancy", "bucket_fill", "sent", "completed", "failed",
              "rejected", "shed", "retries")

#: Share of the traced wall time the layers' self times must account for.
COVERAGE_SHARE = 0.95


def end_to_end(workload: str, outcome: wl.Outcome) -> dict[str, float]:
    """The gated metrics.  Times are probe-normalised: set-up is the median
    of the normalised set-ups; latency is, per model, the median normalised
    operation time, averaged over models; the closed loops' throughput is
    the images of one operation over that latency, and serving reports
    goodput at the nominal rate, which is a rate and is not normalised."""
    latency = measure.per_model_median(outcome.norm_by_model)
    if outcome.goodput is not None:
        rate = outcome.goodput
    else:
        rate = outcome.images_per_op / latency
    return {
        "setup_s": measure.median(outcome.setup_norm),
        "peak_rss_mb": wl.peak_rss_mb(),
        "img_per_s": rate,
        "latency_ms.p50": 1e3 * latency,
    }


def reported(workload: str, outcome: wl.Outcome) -> dict[str, float]:
    """Raw (unnormalised) times, the tail, the whole-run throughput and the
    probe's median reading: printed and kept in the stamped result, not
    gated, because a shared host's speed moves them by more than any bound
    a regression check could use."""
    lats = outcome.latencies
    out = {
        "setup_s.raw": measure.median(outcome.setup_s),
        "latency_ms.p50.raw": 1e3 * measure.percentile(lats, 50.0),
        "latency_ms.tail.raw": 1e3 * measure.percentile(lats, wl.TAIL_PERCENTILE[workload]),
        "probe_ms.p50": 1e3 * measure.median(outcome.probe_s),
    }
    if outcome.goodput is None:
        out["img_per_s.whole_run"] = outcome.images_per_op * len(lats) / outcome.elapsed
    return out


def per_layer(workload: str, outcome: wl.Outcome) -> dict[str, float]:
    spans = outcome.snapshot["spans"]
    per = max(outcome.traced_ops, 1)
    out: dict[str, float] = {}

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    out["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    # -- load generator and serving (serve-open only) -----------------------
    serve = outcome.details.get("serve")
    tail = wl.TAIL_PERCENTILE[workload]
    for name in ("loadgen.late_ms.p99", "loadgen.late_ms.max", "serve.queue_wait_ms.p50",
                 "serve.queue_wait_ms.tail", "engine.batches", "engine.exec_ms.p50",
                 "engine.exec_ms.tail", "engine.busy_frac"):
        out[name] = 0.0
    for key in SERVE_KEYS:
        out[f"serve.{key}"] = 0.0
    if serve:
        late, waits, execs = serve["late"], serve["queue_waits"], serve["exec"]
        out["loadgen.late_ms.p99"] = 1e3 * measure.percentile(late, 99)
        out["loadgen.late_ms.max"] = 1e3 * max(late)
        out["serve.queue_wait_ms.p50"] = 1e3 * measure.median(waits) if waits else 0.0
        out["serve.queue_wait_ms.tail"] = 1e3 * measure.percentile(waits, tail) if waits else 0.0
        for key in SERVE_KEYS:
            out[f"serve.{key}"] = float(serve[key])
        out["engine.batches"] = float(serve["batches"])
        out["engine.exec_ms.p50"] = 1e3 * measure.median(execs) if execs else 0.0
        out["engine.exec_ms.tail"] = 1e3 * measure.percentile(execs, tail) if execs else 0.0
        out["engine.busy_frac"] = serve["busy_frac"]
    # The client's blocking wait for a result is idle time, not router work.
    out["serve.router.self_ms"] = 1e3 * sum(
        row["self"] for name, row in spans.items()
        if name.startswith("serve.router.") and name != "serve.router.wait_result") / per
    out["serve.server.self_ms"] = 1e3 * get("serve.server.poll", "self") / per
    out["engine.self_ms"] = 1e3 * get("engine.run", "self") / per
    # -- plan cache -----------------------------------------------------------
    cache = outcome.details.get("plan_cache", {})
    ops = max(serve["sent"] if serve else outcome.attempted, 1)
    for key in ("hits", "misses", "builds", "evictions"):
        out[f"plan_cache.{key}"] = cache.get(key, 0) / ops
    accesses = cache.get("hits", 0) + cache.get("misses", 0)
    out["plan_cache.hit_ratio"] = cache.get("hits", 0) / accesses if accesses else 1.0
    out["plan.build_ms"] = outcome.details.get("plan_build_ms", 0.0)
    # -- kernels, tensor ops, modules ----------------------------------------
    other = {"kernel": 0.0, "op": 0.0, "nn": 0.0}
    known = {"kernel": set(KERNEL_LABELS), "op": set(OP_FUNCTIONS), "nn": set(NN_MODULES)}
    for name, row in spans.items():
        layer, _, rest = name.partition(".")
        if layer in known and rest not in known[layer]:
            other[layer] += row["self"]
    for label in KERNEL_LABELS:
        row = spans.get(f"kernel.{label}", {})
        out[f"kernel.{label}.calls"] = row.get("calls", 0) / per
        out[f"kernel.{label}.self_ms"] = 1e3 * row.get("self", 0.0) / per
        out[f"kernel.{label}.gflop"] = row.get("flops", 0.0) / 1e9 / per
        out[f"kernel.{label}.mb_moved"] = row.get("bytes", 0.0) / 1e6 / per
    for fn in OP_FUNCTIONS:
        row = spans.get(f"op.{fn}", {})
        out[f"op.{fn}.calls"] = row.get("calls", 0) / per
        out[f"op.{fn}.self_ms"] = 1e3 * row.get("self", 0.0) / per
    for mod in NN_MODULES:
        out[f"nn.{mod}.self_ms"] = 1e3 * get(f"nn.{mod}", "self") / per
    for layer, seconds in other.items():
        out[f"{layer}.other.self_ms"] = 1e3 * seconds / per
    # -- training -------------------------------------------------------------
    model_class = outcome.details.get("model_class")
    out["autograd.backward.self_ms"] = 1e3 * get("autograd.backward", "self") / per
    out["train.step.self_ms"] = 1e3 * get("train.step", "self") / per
    out["train.forward_ms"] = (1e3 * get(f"nn.{model_class}", "total") / per
                               if workload == "train-scc" else 0.0)
    out["train.optim_step_ms"] = 1e3 * get("train.optim_step", "total") / per
    # -- parallel regions ------------------------------------------------------
    out["parallel.regions"] = get("parallel.region", "calls") / per
    out["parallel.tasks"] = get("parallel.region", "items") / per
    out["parallel.busy_ms"] = 1e3 * get("parallel.region", "total") / per
    # -- the paper's op, and the trace's own accounting -----------------------
    scc = get("op.SCCFunction", "self") + sum(
        row["self"] for name, row in spans.items() if name.startswith("kernel.scc_"))
    wall = outcome.traced_wall
    out["scc.share"] = scc / wall if wall else 0.0
    out["trace.unattributed_ms"] = 1e3 * (wall - outcome.covered) / per
    out["trace.coverage_frac"] = outcome.covered / wall if wall else 0.0
    out["trace.overhead_frac"] = outcome.overhead_frac if outcome.overhead_frac is not None else 0.0
    return out


def build(workload: str, outcome: wl.Outcome, traced: bool) -> dict:
    """The full result of one run (metrics, samples summary, checks)."""
    values = per_layer(workload, outcome) if traced else end_to_end(workload, outcome)
    extra = {} if traced else reported(workload, outcome)
    n = len(outcome.latencies)
    tail = wl.TAIL_PERCENTILE[workload]
    result = {
        "workload": workload,
        "op": outcome.op,
        "trace": int(traced),
        "correct": not outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks_failed": outcome.checks,
        "values": values,
        "reported": extra,
        "samples": n,
        "tail_percentile": tail,
        "tail_supported": measure.samples_beyond(n, tail) >= measure.MIN_BEYOND,
        # What the ten-beyond rule would pick for this run's own sample.
        "tail_rule_percentile": measure.tail_percentile(n),
        "setup_samples_s": outcome.setup_s,
        "details": {k: v for k, v in outcome.details.items() if k != "serve"},
    }
    if traced:
        result["spans"] = outcome.snapshot["spans"]
        result["coverage_share_required"] = COVERAGE_SHARE
    return result


def contract_line(result: dict) -> dict:
    """The last line of output: exactly four keys, the metrics BENCHMARK.json declares."""
    names = [m["name"] for m in SPEC["per_layer" if result["trace"] else "end_to_end"]]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["values"].get(n, 0.0), "unit": UNITS[n]}
                    for n in names},
    }


def print_human(result: dict) -> None:
    w = result["workload"]
    print(f"# workload {w}  seed {result['seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"samples {result['samples']}  tail p{result['tail_percentile']:g}"
          f"{'' if result['tail_supported'] else ' (UNSUPPORTED: <10 beyond)'}")
    alias = ALIASES[w]
    for name, value in result["values"].items():
        shown = alias.get(name, name)
        print(f"  {shown:<40s} {value:14.6g} {UNITS.get(name, '')}")
    for name, value in result["reported"].items():
        base, _, suffix = name.rpartition(".")
        shown = f"{alias[base]}.{suffix}" if base in alias else name
        print(f"  {shown:<40s} {value:14.6g} {REPORTED_UNITS[name]}  (not gated)")
    if not result["trace"]:
        print(f"  (gated times are normalised to the host speed at which the probe "
              f"takes {wl.REFERENCE_S * 1e3:g} ms; raw times are marked)")
    details = result["details"]
    if "per_rate" in details:
        print(f"  serve SLO: {wl.SLO_SHARE:.0%} of requests within "
              f"{wl.SLO_LIMIT_S * 1e3:.0f} ms of their due time")
        for rate, row in sorted(details["per_rate"].items()):
            p50, p90 = (f"{v:.1f} ms" if v is not None else "n/a"
                        for v in (row["latency_ms_p50"], row["latency_ms_p90"]))
            print(f"    rate {rate:5.1f} req/s: sent {row['sent']}, failed {row['failed']}, "
                  f"p50 {p50}, p90 {p90}, "
                  f"slo_met_frac {row['slo_met_frac']:.3f}, sustained {row['sustained']}")
        print(f"  serve.slo_met_frac {details['slo_met_frac']:.4f} frac "
              f"(nominal {wl.NOMINAL_RATE:g} req/s)")
        if "max_rate_rps" in details:
            print(f"  serve.max_rate_rps {details['max_rate_rps']:g} req/s")
    if result["trace"]:
        print(f"  trace: self times cover {result['values']['trace.coverage_frac']:.4f} of the "
              f"traced wall time (required >= {COVERAGE_SHARE}); flops and bytes are computed "
              f"from operand shapes; per-layer figures are per {result['op']}")
    for check in result["checks_failed"]:
        print(f"  CHECK FAILED: {check}")
