"""The three benchmark workloads: set-up, timed loop and correctness checks.

Every workload runs the paper's SCC form (``scheme="scc"``, ``cg=2``,
``co=0.5``) at ``width_mult=0.125`` on 3x32x32 inputs.  Images, labels,
arrival times, the model mix and the model weights all derive from the
``--seed`` alone.

- ``train-scc``  closed loop of ``Trainer.train_step`` on MobileNet-SCC,
  batch 16, SGD with momentum;
- ``infer-b16``  closed loop of ``no_grad`` eval forwards at batch 16,
  alternating VGG16-SCC and MobileNet-SCC from plain ``build_model``;
- ``serve-open`` open-loop Poisson arrivals of single images from one
  generator thread into a threaded ``Router`` serving both models 50/50,
  at three fixed rates.

Each workload returns a :class:`Outcome`: the raw samples, failure counts
and details that :mod:`report` turns into metrics.  Untraced runs pair
every timed operation and set-up with a reading of :mod:`probe` taken
right after it, so that the gated times can be normalised to one host
speed.
"""
from __future__ import annotations

import queue
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import measure
from probe import REFERENCE_S, HostProbe
from spans import Tracer

MODEL_KW = dict(scheme="scc", cg=2, co=0.5, width_mult=0.125)
INPUT_SHAPE = (3, 32, 32)
BATCH = 16
NUM_CLASSES = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Distinct seeded batches / images a closed loop or the server cycles over.
DATA_POOL = 4
SERVE_IMAGES = 32

#: Probe passes read after each set-up and each timed operation: about 3%
#: of a training step, 8% of an inference batch.  Served requests get one
#: pass each while the server is idle (see :func:`_send_phase`).
SETUP_PROBE_PASSES = 3
PROBE_PASSES = {"train-scc": 3, "infer-b16": 1}
#: A served request's probe pass runs only if the next request is due at
#: least this far ahead, so it never overlaps serving work.
PROBE_GAP_S = 0.025

#: Correctness tolerances (float32 arithmetic in a different order, never
#: bitwise equality, so a re-ordered kernel stays admissible).
RTOL, ATOL = 1e-4, 1e-5
LOSS_RTOL = 1e-5
#: First-step gradients are compared as one flattened vector by relative L2
#: error (see :func:`_check_first_step`): reordered float32 sums give about
#: 1e-5 when every ReLU mask agrees.  Single-parameter comparisons are not
#: used: batch-norm weight gradients are sums that cancel to near zero and
#: move by several percent under a 2e-7 input perturbation.
GRAD_REL_L2 = 1e-3
GRAD_REL_L2_FLIPPED = 1e-1

#: Tail percentile each workload reports (printed, not gated); each run
#: checks that at least ten samples lie beyond it (about 100, 550 and 110
#: samples are expected in a 32-second run).
TAIL_PERCENTILE = {"train-scc": 75.0, "infer-b16": 95.0, "serve-open": 75.0}

#: Open-loop serving: offered rates (req/s) and the share of the run each
#: gets.  Latency is gated at the light rate, where a request meets an idle
#: front door; goodput and the SLO at the nominal rate, where batches start
#: to form; the high rate shows where the SLO breaks.  On a 2-vCPU host,
#: latency at 20 req/s moved 40% between runs of one seed, and the p50 at
#: 8 req/s spread 30% over ten seeds.  Goodput at 20 req/s sat on the SLO
#: threshold whenever the host ran slow, hence 15 req/s.  The light phase
#: gets most of the run so that each model's median rests on ~55 requests.
LIGHT_RATE, NOMINAL_RATE, HIGH_RATE = 5.0, 15.0, 40.0
SERVE_RATES = (LIGHT_RATE, NOMINAL_RATE, HIGH_RATE)
SERVE_PHASE_SHARE = {LIGHT_RATE: 0.7, NOMINAL_RATE: 0.2, HIGH_RATE: 0.1}
#: The serving SLO: ``SLO_SHARE`` of requests sent complete within
#: ``SLO_LIMIT_S`` of their due time.  Set once from measured p90s of
#: 124-212 ms at 20 req/s and 272-545 ms at 40 req/s.
SLO_LIMIT_S = 0.25
SLO_SHARE = 0.9
#: Trace runs alternate traced and untraced blocks of this many operations
#: (closed loops) or seconds of arrivals (serving).
TRACE_BLOCK_OPS = 2
TRACE_BLOCK_S = 1.0


@dataclass
class Outcome:
    """What one run of a workload measured."""

    op: str                                  # unit of work: step/batch/request
    images_per_op: int
    setup_s: list[float]
    latencies: list[float]                   # per op, seconds (successes)
    elapsed: float                           # timed window, seconds, probes excluded
    attempted: int
    failed: int
    checks: list[str] = field(default_factory=list)   # failed checks
    details: dict = field(default_factory=dict)
    goodput: float | None = None             # serving: SLO-met images / s
    # untraced runs only: probe-normalised set-ups and per-model op times
    setup_norm: list[float] = field(default_factory=list)
    norm_by_model: dict = field(default_factory=dict)
    probe_s: list[float] = field(default_factory=list)  # every probe reading
    # trace runs only
    snapshot: dict | None = None
    traced_ops: int = 0
    traced_wall: float = 0.0
    covered: float = 0.0
    overhead_frac: float | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _model_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, index])


def _data_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def _images(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, *INPUT_SHAPE)).astype(np.float32)


def _close(a: np.ndarray, b: np.ndarray, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """allclose with ``atol`` scaled to the reference's magnitude."""
    scale = max(1.0, float(np.abs(b).max())) if b.size else 1.0
    return bool(np.all(np.isfinite(a))) and np.allclose(a, b, rtol=rtol, atol=atol * scale)


def _timed_setups(build, probe: HostProbe) -> tuple[list[float], list[float], object]:
    """Run ``build()`` :data:`SETUP_REPEATS` times from a cold plan cache,
    timing each and reading the probe after each; returns the times, the
    probe readings and the last build's result."""
    from repro.backend import clear_plan_cache

    times, probes, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None
        clear_plan_cache()
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
        probes.append(probe.sample(SETUP_PROBE_PASSES))
    return times, probes, state


def _closed_loop(op, seconds: float, tracer: Tracer | None,
                 probe: HostProbe | None, passes: int) -> dict:
    """Run ``op(i)`` back to back for ``seconds``.

    With a probe, ``passes`` probe passes follow each op; their time is
    left out of ``elapsed``.  With a tracer, blocks of
    :data:`TRACE_BLOCK_OPS` operations alternate between traced and
    untraced; each op's *slot* runs from the previous op's end to its own,
    so traced slots add up to the traced wall time, loop overhead included.
    """
    clock = time.perf_counter
    durations: list[float] = []
    traced: list[bool] = []
    slots: list[float] = []
    probes: list[float] = []
    probing = 0.0
    start = prev = clock()
    i = 0
    while prev - start - probing < seconds:
        on = tracer is not None and (i // TRACE_BLOCK_OPS) % 2 == 0
        if tracer is not None:
            tracer.enabled = on
        t0 = clock()
        op(i)
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
        durations.append(t1 - t0)
        traced.append(on)
        slots.append(t1 - prev)
        prev = t1
        if probe is not None:
            probes.append(probe.sample(passes))
            prev = clock()
            probing += prev - t1
        i += 1
    return {"durations": durations, "traced": traced, "slots": slots,
            "probes": probes, "elapsed": prev - start - probing}


def _finish_closed(outcome: Outcome, loop: dict, tracer: Tracer | None) -> None:
    durations = loop["durations"]
    outcome.elapsed = loop["elapsed"]
    if tracer is None:
        outcome.latencies = durations
        outcome.probe_s += loop["probes"]
        return
    on = [d for d, t in zip(durations, loop["traced"]) if t]
    off = [d for d, t in zip(durations, loop["traced"]) if not t]
    outcome.latencies = on
    outcome.traced_ops = len(on)
    outcome.traced_wall = sum(s for s, t in zip(loop["slots"], loop["traced"]) if t)
    outcome.snapshot = tracer.snapshot()
    outcome.covered = outcome.snapshot["roots"].get(threading.current_thread().name, 0.0)
    if on and off:
        outcome.overhead_frac = measure.median(on) / measure.median(off) - 1.0


# -- train-scc ---------------------------------------------------------------------

def _check_first_step(first_step, outcome: Outcome) -> None:
    """The first step's loss and gradients against the reference backend.

    Both backends step fresh copies of the same seeded model.  The gradient
    comparison is strict only on a batch where every ReLU mask agrees: a
    pre-activation within float32 rounding of zero can switch sides between
    backends, and the flipped unit then changes every gradient below it
    (relative L2 up to 2.4e-2 over 22 seeds, against 2e-5 without a flip).
    Up to :data:`DATA_POOL` batches are tried for one without flips; if all
    flip, the last is held to the looser bound.
    """
    for k in range(DATA_POOL):
        loss, grad, masks = first_step("default", k)
        ref_loss, ref_grad, ref_masks = first_step("reference", k)
        if not np.isclose(loss, ref_loss, rtol=LOSS_RTOL, atol=0.0):
            outcome.checks.append(f"first-step loss {loss} != reference {ref_loss}")
            return
        flips = sum(int((a != b).sum()) for a, b in zip(masks, ref_masks))
        rel = float(np.linalg.norm(grad - ref_grad) / np.linalg.norm(ref_grad))
        outcome.details["first_step"] = {"batch": k, "relu_flips": flips, "grad_rel_l2": rel}
        if flips == 0:
            break
    limit = GRAD_REL_L2 if flips == 0 else GRAD_REL_L2_FLIPPED
    if not np.all(np.isfinite(grad)) or rel > limit:
        outcome.checks.append(
            f"first-step gradients differ from reference: relative L2 {rel:.3g} "
            f"(limit {limit:g}, {flips} ReLU masks flipped)")


def run_train(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    from repro import nn
    from repro.models import build_model
    from repro.train import TrainConfig, Trainer

    rng = _data_rng(seed)
    images = _images(rng, DATA_POOL * BATCH).reshape(DATA_POOL, BATCH, *INPUT_SHAPE)
    labels = rng.integers(0, NUM_CLASSES, size=(DATA_POOL, BATCH))
    config = TrainConfig(lr=0.05, momentum=0.9)

    def build() -> Trainer:
        model = build_model(
            "mobilenet", rng=_model_rng(seed, 0), plan_input_shape=INPUT_SHAPE,
            plan_batch_size=BATCH, plan_backward=True, **MODEL_KW,
        )
        trainer = Trainer(model, config)
        trainer.train_step(images[0], labels[0])  # warm-up
        return trainer

    def first_step(backend: str, k: int):
        """One step of a fresh model on batch ``k``: loss, flat gradient and
        every ReLU's output mask."""
        model = build_model("mobilenet", rng=_model_rng(seed, 0), backend=backend, **MODEL_KW)
        masks: list[np.ndarray] = []
        for _, module in model.named_modules():
            if isinstance(module, nn.ReLU):
                module.register_forward_hook(lambda m, i, out: masks.append(out.data > 0))
        loss, _ = Trainer(model, config).train_step(images[k], labels[k])
        return loss, np.concatenate([p.grad.ravel() for p in model.parameters()]), masks

    probe = HostProbe() if tracer is None else None
    times, probes, trainer = _setup(build, tracer, probe)
    outcome = _new_outcome("step", BATCH, times, probes)
    outcome.details["plan_build_ms"] = _take_plan_build_ms(tracer) if tracer else 0.0

    _check_first_step(first_step, outcome)

    nonfinite = [0]

    def step(i: int) -> None:
        loss, _ = trainer.train_step(images[i % DATA_POOL], labels[i % DATA_POOL])
        if not np.isfinite(loss):
            nonfinite[0] += 1

    stats0 = _cache_stats()
    loop = _closed_loop(step, seconds, tracer, probe, PROBE_PASSES["train-scc"])
    outcome.details["plan_cache"] = _cache_delta(stats0)
    _finish_closed(outcome, loop, tracer)
    outcome.attempted = len(loop["durations"])
    outcome.failed = nonfinite[0] + len(outcome.checks)
    if nonfinite[0]:
        outcome.checks.append(f"{nonfinite[0]} steps gave a non-finite loss")
    outcome.details["model_class"] = type(trainer.model).__name__
    if tracer is None:
        outcome.norm_by_model = {"mobilenet": measure.normalised(
            loop["durations"], loop["probes"], REFERENCE_S)}
    return outcome


# -- infer-b16 ---------------------------------------------------------------------

INFER_MODELS = ("vgg16", "mobilenet")


def run_infer(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    from repro.models import build_model
    from repro.tensor import Tensor, no_grad

    images = _images(_data_rng(seed), DATA_POOL * BATCH).reshape(
        DATA_POOL, BATCH, *INPUT_SHAPE)

    def build_one(index: int, name: str, backend: str = "default", plan: bool = True):
        return build_model(
            name, rng=_model_rng(seed, index), backend=backend,
            plan_input_shape=INPUT_SHAPE if plan else None,
            plan_batch_size=BATCH, plan_backward=False, **MODEL_KW,
        ).eval()

    def forward(model, batch: np.ndarray) -> np.ndarray:
        with no_grad():
            return model(Tensor(batch)).data

    def build():
        models = [build_one(i, name) for i, name in enumerate(INFER_MODELS)]
        for model in models:
            forward(model, images[0])  # warm-up
        return models

    probe = HostProbe() if tracer is None else None
    times, probes, models = _setup(build, tracer, probe)
    outcome = _new_outcome("batch", BATCH, times, probes)
    outcome.details["plan_build_ms"] = _take_plan_build_ms(tracer) if tracer else 0.0

    # Correctness: each model against the same seeded model on the
    # reference backend, then every loop output against the first output
    # of the same (model, batch).
    first: dict[tuple[int, int], np.ndarray] = {}
    for i, name in enumerate(INFER_MODELS):
        ref = forward(build_one(i, name, backend="reference", plan=False), images[0])
        out = forward(models[i], images[0])
        if not _close(out, ref):
            outcome.checks.append(f"{name} output differs from the reference backend")
        first[(i, 0)] = out
    for i in range(len(models)):
        for k in range(1, DATA_POOL):
            first[(i, k)] = forward(models[i], images[k])

    mismatches = [0]

    def batch(i: int) -> None:
        m, k = i % len(models), (i // len(models)) % DATA_POOL
        out = forward(models[m], images[k])
        if not _close(out, first[(m, k)]):
            mismatches[0] += 1

    stats0 = _cache_stats()
    loop = _closed_loop(batch, seconds, tracer, probe, PROBE_PASSES["infer-b16"])
    outcome.details["plan_cache"] = _cache_delta(stats0)
    _finish_closed(outcome, loop, tracer)
    outcome.attempted = len(loop["durations"])
    outcome.failed = mismatches[0] + len(outcome.checks)
    if mismatches[0]:
        outcome.checks.append(f"{mismatches[0]} batches differ from their first output")
    outcome.details["model_class"] = [type(m).__name__ for m in models]
    if tracer is None:
        norm = measure.normalised(loop["durations"], loop["probes"], REFERENCE_S)
        outcome.norm_by_model = {name: norm[i::len(models)]
                                 for i, name in enumerate(INFER_MODELS)}
    return outcome


# -- serve-open --------------------------------------------------------------------

SERVE_MODELS = ("mobilenet", "vgg16")


class _Serving:
    """A started router with both models registered and warmed up."""

    def __init__(self, seed: int, warm_images: np.ndarray) -> None:
        from repro.serve import Router, ServingPolicy

        policy = ServingPolicy(bucket_sizes=(1, 2, 4, 8), max_latency=0.01,
                               adaptive_buckets=True)
        self.router = Router(server_config=policy)
        for index, name in enumerate(SERVE_MODELS):
            self.router.register(name, name, seed=seed * 10 + index, **MODEL_KW)
        self.router.start()
        # Warm-up: a burst of eight per model, which fills the largest bucket.
        for name in SERVE_MODELS:
            handles = [self.router.submit(name, img) for img in warm_images]
            for handle in handles:
                self.router.wait_result(handle, timeout=60.0)
        self.open = True

    def close(self) -> None:
        if self.open:
            self.router.stop()
            self.open = False


def _send_phase(router, rate: float, seconds: float, rng: np.random.Generator,
                images: np.ndarray, tracer: Tracer | None = None,
                probe: HostProbe | None = None) -> list[dict]:
    """Offer Poisson arrivals at ``rate`` for ``seconds`` and collect every
    request's fate.  One generator thread sends on schedule; this thread
    waits for results in send order.

    With a probe, this thread reads one probe pass whenever the server is
    idle: every earlier request has completed and the next is due at least
    :data:`PROBE_GAP_S` ahead.  Each request's ``probe`` is the first
    reading taken after it completed."""
    from repro.serve import QueueFull

    dues = measure.poisson_schedule(rng, rate, seconds)
    picks = rng.integers(0, len(SERVE_MODELS), size=len(dues))
    idxs = rng.integers(0, len(images), size=len(dues))
    sent: queue.Queue = queue.Queue()
    clock = time.perf_counter
    t0 = clock() + 0.05

    def generate() -> None:
        for j, due_rel in enumerate(dues):
            due = t0 + due_rel
            if tracer is not None:
                tracer.enabled = int(due_rel // TRACE_BLOCK_S) % 2 == 0
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            at = clock()
            model = SERVE_MODELS[picks[j]]
            try:
                handle, error = router.submit(model, images[idxs[j]]), None
            except QueueFull as exc:  # refused at admission
                handle, error = None, exc
            sent.put((j, due, at, model, handle, error))
        sent.put(None)

    generator = threading.Thread(target=generate, name="loadgen", daemon=True)
    generator.start()
    records: list[dict] = []
    unread: list[dict] = []
    try:
        while True:
            item = sent.get()
            if item is None:
                break
            j, due, at, model, handle, error = item
            result = None
            if handle is not None:
                try:
                    result = router.wait_result(handle, timeout=60.0)
                except Exception as exc:  # failed, shed or timed out: a miss
                    error = exc
            records.append({
                "due_rel": dues[j], "model": model, "image": int(idxs[j]),
                "late": measure.lateness(due, at),
                "latency": None if result is None
                else measure.due_latency(due, at, result.latency),
                "queue_wait": None if result is None else result.queue_wait,
                "output": None if result is None else result.output,
                "error": None if error is None else type(error).__name__,
                "probe": None,
            })
            if probe is not None:
                unread.append(records[-1])
                if j + 1 == len(dues) or t0 + dues[j + 1] - clock() >= PROBE_GAP_S:
                    reading = probe.sample(1)
                    for record in unread:
                        record["probe"] = reading
                    unread.clear()
    finally:
        generator.join(timeout=120.0)
        if tracer is not None:
            tracer.enabled = False
    if generator.is_alive():
        raise RuntimeError("load generator did not finish")
    return records


def run_serve(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    from repro.tensor import Tensor, no_grad

    rng = _data_rng(seed)
    images = _images(rng, SERVE_IMAGES)
    warm = images[:8]

    probe = HostProbe() if tracer is None else None
    times, probes, serving = _setup(lambda: _Serving(seed, warm), tracer, probe)
    outcome = _new_outcome("request", 1, times, probes)
    outcome.details["plan_build_ms"] = _take_plan_build_ms(tracer) if tracer else 0.0
    router = serving.router
    phases: dict[float, list[dict]] = {}
    try:
        if tracer is None:
            plan = [(rate, seconds * SERVE_PHASE_SHARE[rate]) for rate in SERVE_RATES]
        else:
            plan = [(NOMINAL_RATE, seconds)]
        for rate, length in plan:
            if rate == NOMINAL_RATE:
                router.reset_metrics()
                stats0 = _cache_stats()
                start = time.perf_counter()
            records = _send_phase(router, rate, length, rng, images, tracer, probe)
            phases[rate] = records
            if rate == NOMINAL_RATE:
                outcome.elapsed = time.perf_counter() - start
                outcome.details["plan_cache"] = _cache_delta(stats0)
                metrics = router.metrics()
                exec_s = {name: router.server(name).exec_seconds()
                          for name in SERVE_MODELS}
                if tracer is not None:
                    outcome.snapshot = tracer.snapshot()
    finally:
        serving.close()

    # Correctness: every served output against a direct forward of the same
    # (fused, eval-mode) model on the same image.
    all_records = [r for records in phases.values() for r in records]
    direct = {}
    for name in SERVE_MODELS:
        with no_grad():
            direct[name] = router.server(name).model(Tensor(images)).data
    wrong = sum(1 for r in all_records
                if r["output"] is not None
                and not _close(r["output"], direct[r["model"]][r["image"]]))
    if wrong:
        outcome.checks.append(f"{wrong} served outputs differ from a direct forward")
    errors = sum(1 for r in all_records if r["error"] is not None)
    outcome.attempted = len(all_records)
    outcome.failed = errors + wrong

    nominal = phases[NOMINAL_RATE]
    lats = [r["latency"] for r in nominal]
    gated = phases.get(LIGHT_RATE, nominal)
    outcome.latencies = [r["latency"] for r in gated if r["latency"] is not None]
    if tracer is None:
        read = [r for r in gated if r["latency"] is not None and r["probe"] is not None]
        for name in SERVE_MODELS:
            mine = [r for r in read if r["model"] == name]
            outcome.norm_by_model[name] = measure.normalised(
                [r["latency"] for r in mine], [r["probe"] for r in mine], REFERENCE_S)
        outcome.probe_s += [r["probe"] for r in all_records if r["probe"] is not None]
    outcome.goodput = measure.phase_goodput(
        [(r["due_rel"], r["latency"]) for r in nominal], SLO_LIMIT_S)
    per_rate = {}
    for rate, records in phases.items():
        rl = [r["latency"] for r in records]
        ok = [lat for lat in rl if lat is not None]
        per_rate[rate] = {
            "sent": len(rl),
            "failed": len(rl) - len(ok),
            "latency_ms_p50": 1e3 * measure.median(ok) if ok else None,
            "latency_ms_p90": 1e3 * measure.percentile(ok, 90) if ok else None,
            "slo_met_frac": measure.slo_met_frac(rl, SLO_LIMIT_S),
            "sustained": measure.sustains(rl, SLO_LIMIT_S, SLO_SHARE),
        }
    outcome.details["per_rate"] = per_rate
    outcome.details["slo_met_frac"] = measure.slo_met_frac(lats, SLO_LIMIT_S)
    if tracer is None:
        outcome.details["max_rate_rps"] = measure.max_sustained_rate(
            {rate: [r["latency"] for r in recs] for rate, recs in phases.items()},
            SLO_LIMIT_S, SLO_SHARE)

    late = [r["late"] for r in nominal]
    waits = [r["queue_wait"] for r in nominal if r["queue_wait"] is not None]
    batches = sum(len(v) for v in exec_s.values())
    all_exec = [s for v in exec_s.values() for s in v]
    outcome.details["serve"] = {
        "late": late,
        "queue_waits": waits,
        "batch_occupancy": _weighted_occupancy(metrics, "mean_batch_occupancy"),
        "bucket_fill": _weighted_occupancy(metrics, "mean_bucket_fill"),
        "sent": len(nominal),
        "completed": metrics.completed,
        "failed": metrics.failed,
        "rejected": metrics.rejected,
        "shed": metrics.shed + metrics.shed_deadline + metrics.unavailable,
        "retries": metrics.retries,
        "batches": batches,
        "exec": all_exec,
        "busy_frac": sum(all_exec) / (outcome.elapsed * len(SERVE_MODELS)),
    }
    if tracer is not None:
        traced = [r["latency"] for r in nominal
                  if r["latency"] is not None and int(r["due_rel"] // TRACE_BLOCK_S) % 2 == 0]
        untraced = [r["latency"] for r in nominal
                    if r["latency"] is not None and int(r["due_rel"] // TRACE_BLOCK_S) % 2 == 1]
        outcome.traced_ops = len(traced)
        if traced and untraced:
            outcome.overhead_frac = measure.median(traced) / measure.median(untraced) - 1.0
        spans = outcome.snapshot["spans"]
        run = spans.get("engine.run", {"total": 0.0, "self": 0.0})
        # The serving path's busy time is the engine's batch time; what its
        # child spans do not cover is unattributed.
        outcome.traced_wall = run["total"]
        outcome.covered = run["total"] - run["self"]
    return outcome


def _weighted_occupancy(metrics, attr: str) -> float:
    per = metrics.per_model.values()
    batches = sum(m.batches for m in per)
    if not batches:
        return 0.0
    return sum(getattr(m, attr) * m.batches for m in per) / batches


# -- shared set-up helpers ------------------------------------------------------------

def _setup(build, tracer: Tracer | None, probe: HostProbe | None):
    """Timed set-ups and their probe readings; a trace run sets up once,
    traced, for ``plan.build``, and reads no probe."""
    if tracer is None:
        return _timed_setups(build, probe)
    from repro.backend import clear_plan_cache

    clear_plan_cache()
    tracer.reset()
    tracer.enabled = True
    start = time.perf_counter()
    try:
        state = build()
    finally:
        tracer.enabled = False
    return [time.perf_counter() - start], [], state


def _new_outcome(op: str, images_per_op: int, setup_s: list[float],
                 probes: list[float]) -> Outcome:
    outcome = Outcome(op, images_per_op, setup_s, [], 0.0, 0, 0)
    if probes:
        outcome.setup_norm = measure.normalised(setup_s, probes, REFERENCE_S)
        outcome.probe_s += probes
    return outcome


def _take_plan_build_ms(tracer: Tracer) -> float:
    """Inclusive ``ModelPlan`` construction time of the traced set-up, then
    a clean slate for the timed window."""
    span = tracer.snapshot()["spans"].get("plan.build")
    tracer.reset()
    return 1e3 * span["total"] if span else 0.0


def _cache_stats() -> dict:
    from repro.backend import plan_cache_stats

    return plan_cache_stats()


def _cache_delta(before: dict) -> dict:
    after = _cache_stats()
    return {key: after[key] - before[key]
            for key in ("hits", "misses", "builds", "evictions")}


WORKLOADS = {
    "train-scc": run_train,
    "infer-b16": run_infer,
    "serve-open": run_serve,
}
