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

from repro.backend import get_num_workers, plan_owner, submit_pooled
from repro.serve.engine import ModelExecutor
from repro.serve.policy import ServingPolicy
from repro.serve.sched import Batch, SchedRequest
from repro.serve.server import (
    DeadlineExceeded,
    QueueFull,
    RequestResult,
    RequestShed,
    ServingLedger,
    ServingMetrics,
)

__all__ = ["AsyncGateway"]


@dataclass
class _ModelRuntime:
    """Event-loop-side state of one registered model."""

    executor: ModelExecutor
    ledger: ServingLedger
    exec_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class AsyncGateway:
    """Asyncio multi-model serving gateway on the scheduling core.

    Usage::

        async with AsyncGateway(ServingPolicy(max_latency=0.005)) as gw:
            gw.register("small", "mobilenet", input_shapes=[(3, 16, 16)],
                        width_mult=0.25)
            result = await gw.submit("small", image, budget=0.05)

    ``submit`` resolves once the request's batch completed; it raises
    :class:`QueueFull` when admission rejects (after the deadline policy
    displaced any blown-budget victims) and :class:`DeadlineExceeded` when
    the request itself is shed with its budget blown.  Every await-er of a
    shed request gets the exception — nothing is silently dropped.

    ``config`` defaults to ``ServingPolicy(adaptive_buckets=True,
    shed_policy="deadline")``.  Models share one :class:`SchedCore` with
    deficit-round-robin fairness, and at most as many batches as the worker
    pool has workers are in flight at once.

    Must be constructed (and driven) inside a running event loop.
    """

    def __init__(
        self,
        config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if config is None:
            config = ServingPolicy(adaptive_buckets=True, shed_policy="deadline")
        self.config = config
        self.clock = clock
        self.sleep = sleep  # backoff sleeps inside pooled batch execution
        self.core = config.make_core()
        self._models: dict[str, _ModelRuntime] = {}
        self._futures: dict[int, asyncio.Future] = {}
        self._wake = asyncio.Event()
        self._batch_tasks: set[asyncio.Task] = set()
        # More batches in flight than pool workers would only queue inside
        # the executor.
        self._batch_slots = asyncio.Semaphore(max(1, get_num_workers()))
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
        self.core.add_model(
            name, request_cost=request_cost, exec_estimate=exec_estimate
        )
        self._models[name] = _ModelRuntime(
            executor=executor,
            ledger=ServingLedger(self.core, name, executor,
                                 self.config.make_breaker()),
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
        ledger = self._models[model].ledger
        ledger.admit(now)
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
        ledger.accepted(now)
        future = asyncio.get_running_loop().create_future()
        self._futures[outcome.request.id] = future
        self._wake.set()
        return await future

    def _fail_shed(self, victims: list[SchedRequest]) -> None:
        """Resolve shed requests' futures with DeadlineExceeded."""
        self._resolve(victims, [
            DeadlineExceeded(
                f"request {v.id} for {v.model!r} was shed: its latency "
                f"budget expired while it was still queued"
            )
            for v in victims
        ])

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
                        runtime.ledger.retries += 1
                        await asyncio.sleep(retry.delay(attempt, token=ids[0]))
                        attempt += 1
                        continue
                    failures = runtime.ledger.record_unrunnable(
                        batch.requests, exc, self.clock()
                    )
                    self._resolve(batch.requests, failures)
                    return
        # Auto-calibrate the deadline shed's exec_estimate from the span
        # the batch actually took on the gateway clock — same time base as
        # the deadlines it will be compared against.
        self.core.observe_exec(
            batch.model, max(0.0, timing.finished - timing.started)
        )
        self._resolve(batch.requests, runtime.ledger.record_batch(
            batch, rows, errors, stats, timing
        ))

    def _resolve(self, requests: list[SchedRequest],
                 outcomes: list[RequestResult | BaseException]) -> None:
        """Hand each request's outcome (result or exception) to its await-er."""
        for request, outcome in zip(requests, outcomes):
            future = self._futures.pop(request.id, None)
            if future is None or future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

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
            victims = self.core.shed_all()
            for victim in victims:
                self._models[victim.model].ledger.shed += 1
            self._resolve(victims, [
                RequestShed(f"request {v.id} was shed on shutdown before executing")
                for v in victims
            ])
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
        """Per-model :class:`ServingMetrics` over the gateway's lifetime,
        built by each model's :class:`~repro.serve.server.ServingLedger`
        exactly as the sync server builds its own.  ``shed`` counts
        shutdown sheds (``stop(drain=False)``); deadline sheds are
        ``shed_deadline``.  Plan-cache figures are the model's per-owner
        counters since registration, so a shape that was never pre-built
        shows up as ``plan_builds``."""
        return {name: rt.ledger.metrics() for name, rt in self._models.items()}

    def breaker_snapshots(self) -> dict[str, dict]:
        """Per-model circuit-breaker snapshots (only breaker-enabled models)."""
        return {
            name: runtime.ledger.breaker.snapshot()
            for name, runtime in self._models.items()
            if runtime.ledger.breaker is not None
        }
