"""The asyncio serving transport over the scheduling core.

:class:`AsyncGateway` is the third layer of the serving tier refactor: an
``await``-able front-end where :meth:`~AsyncGateway.submit` resolves with
the request's :class:`~repro.serve.server.RequestResult` (or raises
:class:`~repro.serve.server.QueueFull` /
:class:`~repro.serve.server.DeadlineExceeded` when the request is shed), a
per-request latency *budget* turns into an absolute deadline the
:class:`~repro.serve.sched.ShedPolicy` enforces, bucket sizes adapt to the
observed arrival rate, and deficit-round-robin fairness keeps one heavy
model from ruining a light model's p95.

Concurrency discipline: all scheduling state lives in one
:class:`~repro.serve.sched.SchedCore` touched **only from the event loop**
— no locks anywhere in the policy path.  Batch execution is the only
blocking work, and it runs on the process-wide worker pool
(:func:`repro.backend.parallel.submit_pooled`) with the event loop awaiting
the wrapped future, so different models' batches overlap on the pool
exactly like the sync router's ``flush``; each model still serialises its
own batches (shared staged plan buffers) on an asyncio lock here and the
executor's thread lock below.

Bitwise guarantee: batches execute on the same
:class:`~repro.serve.engine.ModelExecutor` as the sync server, so at a
fixed bucket size the gateway's outputs are bit-identical to the sync
server's and to per-request inference (asserted in ``tests/test_gateway``).
"""
from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.backend import plan_owner, submit_pooled
from repro.serve.engine import ModelExecutor, RequestFailed
from repro.serve.policy import GatewayConfig, ServingPolicy
from repro.serve.sched import Batch, CircuitBreaker, SchedCore, SchedRequest
from repro.serve.server import (
    DeadlineExceeded,
    ModelUnavailable,
    QueueFull,
    RequestResult,
    ServingMetrics,
    _percentile,
)

__all__ = ["AsyncGateway", "GatewayConfig"]

# GatewayConfig moved to repro.serve.policy: the shared knobs now live on
# ServingPolicy and GatewayConfig is a deprecated shim re-exported here
# (with the gateway's historical adaptive/deadline defaults) for the
# one-release compatibility window.


@dataclass
class _ModelRuntime:
    """Event-loop-side state of one registered model."""

    executor: ModelExecutor
    exec_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    completed: int = 0
    deadline_misses: int = 0
    deadline_total: int = 0
    latencies: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    batch_records: list[tuple[int, int]] = field(default_factory=list)
    exec_seconds: list[float] = field(default_factory=list)
    breaker: CircuitBreaker | None = None
    failed: int = 0        # RequestFailed terminal failures
    retries: int = 0       # transient-fault batch retries (engine + pool)
    isolations: int = 0    # batches bisected to isolate a failure
    unavailable: int = 0   # submits shed while the breaker was open


class AsyncGateway:
    """Asyncio multi-model serving gateway on the scheduling core.

    Usage::

        async with AsyncGateway(GatewayConfig(max_latency=0.005)) as gw:
            gw.register("small", "mobilenet", input_shapes=[(3, 16, 16)],
                        width_mult=0.25)
            result = await gw.submit("small", image, budget=0.05)

    ``submit`` resolves once the request's batch completed; it raises
    :class:`QueueFull` when admission rejects (after the deadline policy
    displaced any blown-budget victims) and :class:`DeadlineExceeded` when
    the request itself is shed with its budget blown.  Every await-er of a
    shed request gets the exception — nothing is silently dropped.

    Must be constructed (and driven) inside a running event loop.
    """

    def __init__(
        self,
        config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = GatewayConfig.coerce(config)
        self.clock = clock
        self.sleep = sleep  # backoff sleeps inside pooled batch execution
        self.core = SchedCore(
            bucket_sizes=self.config.bucket_sizes,
            max_latency=self.config.max_latency,
            max_pending=self.config.max_pending,
            adaptive_buckets=self.config.adaptive_buckets,
            shed_policy=self.config.shed_policy or "newest",
            fairness=self.config.fairness,
            quantum=self.config.quantum,
        )
        self._models: dict[str, _ModelRuntime] = {}
        self._futures: dict[int, asyncio.Future] = {}
        self._wake = asyncio.Event()
        self._batch_tasks: set[asyncio.Task] = set()
        limit = self.config.max_concurrent_batches
        if limit is None:
            from repro.backend import get_num_workers

            limit = max(1, get_num_workers())
        self._batch_slots = asyncio.Semaphore(limit)
        self._loop_task: asyncio.Task | None = None
        self._stopping = False

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        request_cost: float = 1.0,
        exec_estimate: float | None = None,
        **build_kwargs,
    ) -> None:
        """Add a model under ``name`` (module or registry name, like
        :meth:`repro.serve.router.Router.register`).

        ``request_cost`` prices one padded batch slot for the DRR fairness
        accounting (a model whose batches run ~20x longer should cost
        ~20x); ``exec_estimate`` sharpens deadline shedding by the expected
        batch execution time.  The default (``None``) auto-calibrates: the
        estimate follows an EWMA of this model's measured batch execution
        spans (``SchedCore.observe_exec``), so operators no longer have to
        guess the knob — pass an explicit value only to pin it.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        if isinstance(model, str):
            from repro.models import build_serving_model

            with plan_owner(name):
                model = build_serving_model(model, **build_kwargs)
        elif build_kwargs:
            raise ValueError(
                "build_kwargs only apply when model is a registry name, "
                f"got kwargs {sorted(build_kwargs)} with a built model"
            )
        executor = ModelExecutor(
            model, input_shapes=input_shapes,
            bucket_sizes=self.config.bucket_sizes, name=name,
            degrade_after=self.config.degrade_after,
        )
        self._models[name] = _ModelRuntime(
            executor=executor, breaker=self.config.make_breaker()
        )
        self.core.add_model(
            name, request_cost=request_cost, exec_estimate=exec_estimate
        )

    def models(self) -> tuple[str, ...]:
        return tuple(self._models)

    # -- request lifecycle ----------------------------------------------------

    async def submit(
        self, model: str, image: np.ndarray, budget: float | None = None
    ) -> RequestResult:
        """Route one ``(C, H, W)`` image to ``model``; await its result.

        ``budget`` is the request's latency SLO in seconds — converted to
        an absolute deadline on the gateway clock at submission.  Under the
        ``deadline`` shed policy a request whose budget expires while
        queued resolves with :class:`DeadlineExceeded` instead of a result.
        """
        if model not in self._models:
            raise KeyError(
                f"no model {model!r} registered; have {sorted(self._models)}"
            )
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
        self._ensure_loop()
        now = self.clock()
        runtime = self._models[model]
        if runtime.breaker is not None and not runtime.breaker.allow(now):
            runtime.unavailable += 1
            raise ModelUnavailable(
                f"model {model!r} is unavailable: circuit breaker open "
                f"(error rate {runtime.breaker.error_rate():.0%} over "
                f"recent requests)"
            )
        deadline = None if budget is None else now + budget
        outcome = self.core.submit(
            model, image.shape, now, deadline=deadline, payload=image
        )
        self._fail_shed(outcome.displaced)
        if not outcome.accepted:
            raise QueueFull(
                f"gateway queue for {model!r} at capacity "
                f"(max_pending={self.config.max_pending}); request shed"
            )
        future = asyncio.get_running_loop().create_future()
        self._futures[outcome.request.id] = future
        self._wake.set()
        return await future

    def _fail_shed(self, victims: list[SchedRequest]) -> None:
        """Resolve shed requests' futures with DeadlineExceeded."""
        for victim in victims:
            future = self._futures.pop(victim.id, None)
            if future is not None and not future.done():
                future.set_exception(DeadlineExceeded(
                    f"request {victim.id} for {victim.model!r} was shed: its "
                    f"latency budget expired while it was still queued"
                ))

    def kick(self) -> None:
        """Wake the scheduler loop immediately (deterministic tests with an
        injected clock advance the clock, then kick)."""
        self._wake.set()

    # -- scheduler loop -------------------------------------------------------

    def _ensure_loop(self) -> None:
        if self._loop_task is None or self._loop_task.done():
            self._stopping = False
            self._loop_task = asyncio.get_running_loop().create_task(
                self._scheduler_loop()
            )

    async def _scheduler_loop(self) -> None:
        """Shed blown budgets, dispatch due batches, sleep to the next event.

        Single consumer of the core: submissions only enqueue and set the
        wake event, so every policy decision happens here, on the loop, in
        a deterministic order.
        """
        while not self._stopping:
            now = self.clock()
            self._fail_shed(self.core.shed_blown(now))
            while True:
                batch = self.core.next_batch(now)
                if batch is None:
                    break
                self._spawn_batch(batch)
            next_event = self.core.next_event(now)
            self._wake.clear()
            try:
                # Floor the sleep: an event landing exactly "now" (a deadline
                # on the blown/viable boundary) must not busy-spin a frozen
                # injected clock.
                timeout = None if next_event is None \
                    else max(next_event - now, 1e-4)
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _spawn_batch(self, batch: Batch) -> None:
        task = asyncio.get_running_loop().create_task(self._execute(batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _execute(self, batch: Batch) -> None:
        runtime = self._models[batch.model]
        images = [r.payload for r in batch.requests]
        ids = [r.id for r in batch.requests]
        retry = self.config.retry
        async with self._batch_slots, runtime.exec_lock:
            # The engine's run_resilient handles kernel-level retries and
            # bisect isolation inside the pool; this loop only covers
            # failures *reaching* the pool (submit errors and the like),
            # backing off on the event loop, never blocking it.
            attempt = 0
            while True:
                try:
                    pooled = submit_pooled(
                        runtime.executor.run_resilient, images, batch.bucket,
                        self.clock, ids, retry, self.sleep,
                        self.config.isolate_failures,
                    )
                    rows, errors, stats, timing = await asyncio.wrap_future(pooled)
                    break
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:
                    if retry is not None and retry.should_retry(attempt):
                        runtime.retries += 1
                        await asyncio.sleep(retry.delay(attempt, token=ids[0]))
                        attempt += 1
                        continue
                    done = self.clock()
                    for request in batch.requests:
                        future = self._futures.pop(request.id, None)
                        if future is not None and not future.done():
                            future.set_exception(RequestFailed(
                                request.id,
                                f"request {request.id} failed: batch could "
                                f"not be executed ({exc})",
                                cause=exc,
                            ))
                        runtime.failed += 1
                        if runtime.breaker is not None:
                            runtime.breaker.record(False, done)
                    return
        done = timing.finished
        n = len(batch.requests)
        runtime.batch_records.append((n, batch.bucket))
        runtime.exec_seconds.append(timing.exec_seconds)
        # Auto-calibrate the deadline shed's exec_estimate from the span
        # the batch actually took on the gateway clock — same time base as
        # the deadlines it will be compared against.
        self.core.observe_exec(
            batch.model, max(0.0, timing.finished - timing.started)
        )
        runtime.retries += stats.retries
        if stats.splits:
            runtime.isolations += 1
        completed = 0
        for i, request in enumerate(batch.requests):
            future = self._futures.pop(request.id, None)
            if i in errors:
                runtime.failed += 1
                if runtime.breaker is not None:
                    runtime.breaker.record(False, done)
                if future is not None and not future.done():
                    future.set_exception(errors[i])
                continue
            completed += 1
            result = RequestResult(
                id=request.id,
                output=rows[i].copy(),
                latency=done - request.arrived_at,
                batch_requests=n,
                bucket_size=batch.bucket,
                queue_wait=timing.started - request.arrived_at,
            )
            runtime.latencies.append(result.latency)
            runtime.queue_waits.append(result.queue_wait)
            if runtime.breaker is not None:
                runtime.breaker.record(True, done)
            if request.deadline is not None:
                runtime.deadline_total += 1
                if done > request.deadline:
                    runtime.deadline_misses += 1
            if future is not None and not future.done():
                future.set_result(result)
        runtime.completed += completed

    # -- shutdown -------------------------------------------------------------

    async def drain(self) -> None:
        """Force-dispatch everything queued and await all in-flight batches."""
        while True:
            now = self.clock()
            batch = self.core.next_batch(now, force=True)
            if batch is None:
                break
            self._spawn_batch(batch)
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks),
                                 return_exceptions=True)

    async def stop(self, drain: bool = True) -> None:
        """Stop the scheduler loop; drain or shed what is still queued.

        ``drain=False`` sheds: every still-queued request's await-er gets
        :class:`~repro.serve.server.RequestShed` — nothing submitted is
        silently dropped, matching the sync server's shutdown contract.
        """
        self._stopping = True
        self._wake.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        if drain:
            await self.drain()
        else:
            from repro.serve.server import RequestShed

            for victim in self.core.shed_all():
                future = self._futures.pop(victim.id, None)
                if future is not None and not future.done():
                    future.set_exception(RequestShed(
                        f"request {victim.id} was shed on shutdown "
                        f"before executing"
                    ))
            while self._batch_tasks:
                await asyncio.gather(*list(self._batch_tasks),
                                     return_exceptions=True)

    async def __aenter__(self) -> "AsyncGateway":
        self._ensure_loop()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, ServingMetrics]:
        """Per-model :class:`ServingMetrics` over the gateway's lifetime.

        Wall-clock throughput is not computed here (the injected clock may
        be virtual); the latency split (``queue_wait_mean`` vs
        ``exec_mean``), deadline-miss rate, shed counts and the live
        adaptive ``bucket_target`` are the gateway-native observables.
        """
        out: dict[str, ServingMetrics] = {}
        for name, runtime in self._models.items():
            stats = self.core.stats(name)
            lat = sorted(runtime.latencies)
            waits = sorted(runtime.queue_waits)
            real = sum(n for n, _ in runtime.batch_records)
            padded = sum(b for _, b in runtime.batch_records)
            out[name] = ServingMetrics(
                completed=runtime.completed,
                batches=len(runtime.batch_records),
                throughput=0.0,
                latency_p50=_percentile(lat, 0.50),
                latency_p95=_percentile(lat, 0.95),
                latency_mean=sum(lat) / len(lat) if lat else 0.0,
                plan_cache_hit_rate=1.0,
                plan_builds=0,
                mean_batch_occupancy=real / len(runtime.batch_records)
                if runtime.batch_records else 0.0,
                mean_bucket_fill=real / padded if padded else 0.0,
                rejected=stats["rejected"],
                shed=stats["shed_deadline"],
                exec_seconds_total=sum(runtime.exec_seconds),
                shed_deadline=stats["shed_deadline"],
                deadline_misses=runtime.deadline_misses,
                deadline_miss_rate=runtime.deadline_misses / runtime.deadline_total
                if runtime.deadline_total else 0.0,
                queue_wait_mean=sum(waits) / len(waits) if waits else 0.0,
                queue_wait_p95=_percentile(waits, 0.95),
                exec_mean=sum(runtime.exec_seconds) / len(runtime.exec_seconds)
                if runtime.exec_seconds else 0.0,
                bucket_target=stats["bucket_target"],
                failed=runtime.failed,
                retries=runtime.retries,
                isolated_batches=runtime.isolations,
                unavailable=runtime.unavailable,
                degraded_plans=len(runtime.executor.degraded()),
                breaker_state=runtime.breaker.state
                if runtime.breaker else "disabled",
                breaker_opens=runtime.breaker.opens if runtime.breaker else 0,
            )
        return out

    def breaker_snapshots(self) -> dict[str, dict]:
        """Per-model circuit-breaker snapshots (only breaker-enabled models)."""
        return {
            name: runtime.breaker.snapshot()
            for name, runtime in self._models.items()
            if runtime.breaker is not None
        }
