"""The synchronous shape-bucketed batching server, and the outcome ledger
every transport shares.

Requests are single images.  The server groups pending requests by their
``(C, H, W)`` shape, and when a shape's queue reaches the current target
bucket size — or its oldest request has waited ``max_latency`` — it runs the
queue as batches, each padded up to the smallest configured bucket size
that fits.  Because every (shape, bucket) pair owns a pre-built inference
:class:`~repro.backend.ModelPlan`, steady-state serving never builds a plan:
each batch runs entirely on plan-cache hits, which is exactly what the
single-flight cache guarantees to stay true under the optional background
worker thread.

This class is a *transport adapter*: the thread/lock/condition plumbing
lives here, but the queue and every policy decision belong to a one-model
:class:`~repro.serve.sched.SchedCore` — admission, bucket triggering
(fixed at the max bucket by default, arrival-rate adaptive with
``ServingPolicy(adaptive_buckets=True)``), deadline shedding
(``shed_policy="deadline"``) and batch formation.  Batches execute on the
shared :class:`~repro.serve.engine.ModelExecutor`, and their outcomes are
recorded by a :class:`ServingLedger`, the same accounting the asyncio
gateway keeps per model.

Two driving modes:

- **synchronous** — call :meth:`Server.submit` and :meth:`Server.poll` /
  :meth:`Server.flush` yourself (what the benchmarks and tests do; fully
  deterministic with an injected clock);
- **threaded** — :meth:`Server.start` spawns a worker that flushes due
  buckets in the background while any number of client threads submit;
  :meth:`Server.wait_result` blocks until a request completes.

The asyncio transport over the same core, engine and ledger is
:class:`~repro.serve.gateway.AsyncGateway`.
"""
from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.backend import plan_cache_owner_stats, plan_cache_stats
from repro.serve.engine import BatchTiming, ExecStats, ModelExecutor, RequestFailed
from repro.serve.policy import ServingPolicy
from repro.serve.sched import Batch, CircuitBreaker, SchedCore, SchedRequest

#: Unread results, failures and shed records a server retains before the
#: oldest are dropped (results with a blocked ``wait_result`` are exempt).
RESULT_CAPACITY = 65536
#: Most recent completions / batches the latency, queue-wait, batch and
#: exec-time histories of a :class:`ServingLedger` keep.
METRICS_WINDOW = 65536


class QueueFull(RuntimeError):
    """Admission control rejected a submit: the pending queue is at capacity.

    Raised by :meth:`Server.submit` when ``ServingPolicy.max_pending`` is set
    and already reached — the shed-on-overload alternative to letting an
    overloaded server's queue (and every request's latency) grow without
    bound.  Rejected requests are counted in ``ServingMetrics.rejected``.
    """


class RequestShed(RuntimeError):
    """The request was dropped by an explicit shed (``stop(drain=False)``).

    A shed request never executed; it is reported — via this exception from
    :meth:`Server.wait_result` or via :meth:`Server.was_shed` — rather than
    silently discarded, so no submitted request simply vanishes on shutdown.
    """


class DeadlineExceeded(RequestShed):
    """The request was shed because its latency budget was already blown.

    Raised (from :meth:`Server.wait_result`, or the gateway's ``submit``)
    for requests dropped by the ``deadline`` shed policy: their deadline
    passed while they were still queued, so executing them could only waste
    capacity that viable requests need.  Subclasses :class:`RequestShed` —
    existing "was it shed?" handling keeps working unchanged.
    """


class ModelUnavailable(RequestShed):
    """The model's circuit breaker is open: the request was shed at the door.

    Raised by :meth:`Server.submit` (and the gateway's ``submit``) while the
    per-model breaker is open — recent batches failed at a rate past the
    configured threshold, so new work is rejected *fast* instead of queuing
    behind a broken model and starving the shared pool.  The breaker
    half-opens after its cooldown and probes; a successful probe closes it
    and submits flow again.  Counted in ``ServingMetrics.unavailable``.
    """


class ResultTimeout(TimeoutError):
    """:meth:`Server.wait_result` gave up waiting.

    Carries the ``request_id``, the ``timeout`` waited, and the request's
    :class:`RequestStatus` at the moment of the timeout — so the caller can
    tell "still queued behind a slow batch" from "evicted unread" without a
    second round-trip.  The request itself stays accounted (it is not
    leaked from ``pending_count``; it may still complete later).
    """

    def __init__(self, request_id: int, timeout: float,
                 status: "RequestStatus") -> None:
        super().__init__(
            f"request {request_id} not completed in {timeout}s "
            f"(status: {status.value})"
        )
        self.request_id = request_id
        self.timeout = timeout
        self.status = status


class RequestStatus(str, Enum):
    """Lifecycle answer of :meth:`Server.status` — disambiguates the
    ``result() is None`` cases (still pending vs evicted unread)."""

    PENDING = "PENDING"    # queued or executing right now
    DONE = "DONE"          # completed, result retrievable
    SHED = "SHED"          # dropped unexecuted (shutdown or deadline shed)
    EVICTED = "EVICTED"    # completed but its unread result aged out
    FAILED = "FAILED"      # executed and failed (RequestFailed retrievable)


@dataclass
class RequestResult:
    """Completed request: model output row + serving bookkeeping."""

    id: int
    output: np.ndarray           # (num_classes,)
    latency: float               # submit -> batch completion, seconds
    batch_requests: int          # real requests in the batch it rode in
    bucket_size: int             # planned (padded) batch size
    queue_wait: float = 0.0      # submit -> batch execution start, seconds


@dataclass
class ServingMetrics:
    """Aggregate serving statistics over the measurement window."""

    completed: int
    batches: int
    throughput: float            # completed requests / s of serving time
    latency_p50: float
    latency_p95: float
    latency_mean: float
    plan_cache_hit_rate: float   # hits / (hits + misses) during serving
    plan_builds: int             # plan-cache builds during serving (0 = warm)
    mean_batch_occupancy: float  # real requests per executed batch
    mean_bucket_fill: float      # real requests / padded bucket slots
    rejected: int = 0            # submits refused by admission control
    shed: int = 0                # pending requests dropped by stop(drain=False)
    exec_seconds_total: float = 0.0  # summed batch execution time (busy time)
    shed_deadline: int = 0       # requests dropped with their budget blown
    deadline_misses: int = 0     # completed past their deadline
    deadline_miss_rate: float = 0.0  # misses / completions that had deadlines
    queue_wait_mean: float = 0.0  # submit -> execution start (the queue half
    queue_wait_p95: float = 0.0   # of latency; exec_mean is the other half)
    exec_mean: float = 0.0       # mean per-batch execution wall time
    bucket_target: int = 0       # current adaptive bucket target
    failed: int = 0              # requests failed with RequestFailed
    retries: int = 0             # batch forwards retried after transient faults
    isolated_batches: int = 0    # batches bisected to isolate a failure
    unavailable: int = 0         # submits shed with ModelUnavailable (breaker)
    degraded_plans: int = 0      # workloads demoted down the backend chain
    breaker_state: str = "disabled"  # closed / open / half_open / disabled
    breaker_opens: int = 0       # times the breaker tripped open

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class ServingLedger:
    """One model's outcome accounting, shared by every transport.

    :class:`Server` and :class:`~repro.serve.gateway.AsyncGateway` both
    check the circuit breaker at the door with :meth:`admit`, fold every
    executed batch in with :meth:`record_batch`, and build
    :class:`ServingMetrics` with :meth:`metrics` — so the two transports
    report the same counters for the same traffic.  Histories are bounded
    by :data:`METRICS_WINDOW`; counters cover the whole window since the
    last :meth:`reset`.  Admission rejections, deadline sheds and the
    bucket target are read from the model's :class:`SchedCore` state.

    Not thread-safe: the transport serialises calls (the server under its
    lock, the gateway on its event loop).
    """

    def __init__(self, core: SchedCore, model: str, executor: ModelExecutor,
                 breaker: CircuitBreaker | None) -> None:
        self.core = core
        self.model = model
        self.executor = executor
        self.breaker = breaker
        self.reset()

    def _cache_counters(self) -> tuple[int, int, int]:
        """(hits, misses, builds) attributed to this model.

        A named executor reads the shared cache's per-owner counters —
        exact under any mix of cache clients (other models, a trainer).
        An unnamed one falls back to the process-global counters, which are
        only correct while this model is the dominant client.
        """
        if self.executor.name is not None:
            acc = plan_cache_owner_stats().get(self.executor.name)
            if acc is None:
                return (0, 0, 0)
            return (acc["hits"], acc["misses"], acc["builds"])
        base = plan_cache_stats()
        return (base["hits"], base["misses"], base["builds"])

    def reset(self) -> None:
        """Start a fresh measurement window."""
        self.completed = 0
        self.shed = 0              # shutdown sheds (stop without drain)
        self.failed = 0
        self.retries = 0
        self.isolations = 0
        self.unavailable = 0
        self.deadline_misses = 0
        self.deadline_total = 0    # completions that carried a deadline
        self.latencies: deque[float] = deque(maxlen=METRICS_WINDOW)
        self.queue_waits: deque[float] = deque(maxlen=METRICS_WINDOW)
        self.batch_records: deque[tuple[int, int]] = deque(  # (requests, bucket)
            maxlen=METRICS_WINDOW
        )
        # Per-batch wall execution times (stage + forward), measured on the
        # real clock regardless of an injected test clock: the router's
        # cross-model overlap model consumes these.
        self.exec_seconds: deque[float] = deque(maxlen=METRICS_WINDOW)
        self.started: float | None = None    # first accepted submit
        self.finished: float | None = None   # last batch completion
        stats = self.core.stats(self.model)
        self._core_base = (stats["rejected"], stats["shed_deadline"])
        self._cache_base = self._cache_counters()

    def admit(self, now: float) -> None:
        """The at-the-door breaker check: raise :class:`ModelUnavailable`
        (and count it) while the model's circuit breaker rejects."""
        if self.breaker is not None and not self.breaker.allow(now):
            self.unavailable += 1
            raise ModelUnavailable(
                f"model {self.model!r} is unavailable: circuit breaker open "
                f"(error rate {self.breaker.error_rate():.0%} over recent "
                f"requests)"
            )

    def accepted(self, now: float) -> None:
        """Note an admitted request (opens the throughput window)."""
        if self.started is None:
            self.started = now

    def _record_outcome(self, ok: bool, now: float) -> None:
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        if self.breaker is not None:
            self.breaker.record(ok, now)

    def record_batch(
        self, batch: Batch, rows: list, errors: dict[int, RequestFailed],
        stats: ExecStats, timing: BatchTiming,
    ) -> list[RequestResult | RequestFailed]:
        """Fold one executed batch in; returns each request's outcome, in
        batch order (a :class:`RequestResult` or its :class:`RequestFailed`)."""
        done = timing.finished
        n = len(batch.requests)
        outcomes: list[RequestResult | RequestFailed] = []
        for i, request in enumerate(batch.requests):
            self._record_outcome(i not in errors, done)
            if i in errors:
                outcomes.append(errors[i])
                continue
            result = RequestResult(
                id=request.id,
                output=rows[i].copy(),
                latency=done - request.arrived_at,
                batch_requests=n,
                bucket_size=batch.bucket,
                queue_wait=timing.started - request.arrived_at,
            )
            self.latencies.append(result.latency)
            self.queue_waits.append(result.queue_wait)
            if request.deadline is not None:
                self.deadline_total += 1
                # Finishing exactly at the deadline meets the SLO; only
                # strictly-later completions are misses.
                if done > request.deadline:
                    self.deadline_misses += 1
            outcomes.append(result)
        self.retries += stats.retries
        if stats.splits:
            self.isolations += 1
        self.batch_records.append((n, batch.bucket))
        self.exec_seconds.append(timing.exec_seconds)
        self.finished = done
        return outcomes

    def record_unrunnable(self, requests: list[SchedRequest], exc: BaseException,
                          now: float) -> list[RequestFailed]:
        """Fail every request of a batch that could not be executed at all."""
        failures = []
        for request in requests:
            self._record_outcome(False, now)
            failures.append(RequestFailed(
                request.id,
                f"request {request.id} failed: batch could not be executed "
                f"({exc})",
                cause=exc,
            ))
        return failures

    def metrics(self) -> ServingMetrics:
        """Aggregate statistics since the last :meth:`reset`.

        ``completed``/``throughput`` count the whole window; latency
        percentiles and batch occupancy are over the most recent
        :data:`METRICS_WINDOW` entries.  Plan-cache figures are deltas of
        :meth:`_cache_counters`; a ``clear_plan_cache()`` landing in the
        window zeroes the cache's counters, so attribution restarts from
        the clear (never negative deltas).
        """
        stats = self.core.stats(self.model)
        lat = sorted(self.latencies)
        waits = sorted(self.queue_waits)
        cache = self._cache_counters()
        if any(now < base for now, base in zip(cache, self._cache_base)):
            self._cache_base = (0, 0, 0)
        hits, misses, builds = (
            now - base for now, base in zip(cache, self._cache_base)
        )
        elapsed = 0.0
        if self.started is not None and self.finished is not None:
            elapsed = self.finished - self.started
        batches = len(self.batch_records)
        real = sum(n for n, _ in self.batch_records)
        padded = sum(b for _, b in self.batch_records)
        return ServingMetrics(
            completed=self.completed,
            batches=batches,
            throughput=self.completed / elapsed if elapsed > 0 else 0.0,
            latency_p50=_percentile(lat, 0.50),
            latency_p95=_percentile(lat, 0.95),
            latency_mean=sum(lat) / len(lat) if lat else 0.0,
            plan_cache_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
            plan_builds=builds,
            mean_batch_occupancy=real / batches if batches else 0.0,
            mean_bucket_fill=real / padded if padded else 0.0,
            rejected=stats["rejected"] - self._core_base[0],
            shed=self.shed,
            exec_seconds_total=sum(self.exec_seconds),
            shed_deadline=stats["shed_deadline"] - self._core_base[1],
            deadline_misses=self.deadline_misses,
            deadline_miss_rate=self.deadline_misses / self.deadline_total
            if self.deadline_total else 0.0,
            queue_wait_mean=sum(waits) / len(waits) if waits else 0.0,
            queue_wait_p95=_percentile(waits, 0.95),
            exec_mean=sum(self.exec_seconds) / len(self.exec_seconds)
            if self.exec_seconds else 0.0,
            bucket_target=stats["bucket_target"],
            failed=self.failed,
            retries=self.retries,
            isolated_batches=self.isolations,
            unavailable=self.unavailable,
            degraded_plans=len(self.executor.degraded()),
            breaker_state=self.breaker.state if self.breaker else "disabled",
            breaker_opens=self.breaker.opens if self.breaker else 0,
        )


class Server:
    """Shape-bucketed batching inference server over one model.

    Parameters
    ----------
    model:
        the (eval-mode) model every request runs through.
    input_shapes:
        per-sample ``(C, H, W)`` shapes to pre-build plans for.  Requests of
        other shapes still work — their plans are built on first sight and
        show up in the metrics as ``plan_builds`` (the cold path the
        pre-building exists to avoid).
    config:
        bucket sizes, flush deadline, admission bound, shed policy and
        fault plane — a shared :class:`~repro.serve.policy.ServingPolicy`
        (``None`` = its defaults).
    clock:
        time source (injectable for deterministic tests).
    name:
        owner tag for shared-plan-cache accounting.  When set (the
        multi-model :class:`~repro.serve.router.Router` always sets it),
        every plan build and batch execution runs under
        :func:`repro.backend.plan_owner`, so the cache attributes this
        server's hits/misses/evictions to it and the metrics hit rate is
        computed from the per-owner counters instead of the global deltas.
    """

    def __init__(
        self,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        name: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config if config is not None else ServingPolicy()
        self.clock = clock
        self.sleep = sleep
        self.name = name
        self._engine = ModelExecutor(
            model, input_shapes=input_shapes,
            bucket_sizes=self.config.bucket_sizes, name=name,
            degrade_after=self.config.degrade_after,
        )
        self.model = self._engine.model
        self._key = name if name is not None else "<unnamed>"
        self._core = self.config.make_core()
        self._core.add_model(self._key)
        self._ledger = ServingLedger(
            self._core, self._key, self._engine, self.config.make_breaker()
        )
        self._last_id = -1
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._open: set[int] = set()  # accepted, not yet finished or shed
        self._results: OrderedDict[int, RequestResult] = OrderedDict()
        # Per-request terminal failures (RequestFailed), retained/trimmed
        # like results so wait_result can re-raise them.
        self._failed: OrderedDict[int, RequestFailed] = OrderedDict()
        self._waiting: set[int] = set()  # ids with a blocked wait_result()
        self._shed_ids: set[int] = set()
        self._deadline_shed_ids: set[int] = set()  # subset of _shed_ids
        self._worker: threading.Thread | None = None
        self._stopping = False

    # -- metrics --------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Start a fresh measurement window (e.g. after warmup traffic)."""
        with self._lock:
            self._ledger.reset()

    def metrics(self) -> ServingMetrics:
        """Aggregate statistics since the last :meth:`reset_metrics` (see
        :meth:`ServingLedger.metrics`).  For a *named* server the plan-cache
        figures are exact under any mix of cache clients; for an unnamed
        one they are process-global deltas."""
        with self._lock:
            return self._ledger.metrics()

    def breaker_snapshot(self) -> dict | None:
        """The circuit breaker's state/transition snapshot (None = disabled)."""
        with self._lock:
            breaker = self._ledger.breaker
            return breaker.snapshot() if breaker else None

    # -- request lifecycle ----------------------------------------------------

    def submit(self, image: np.ndarray, deadline: float | None = None) -> int:
        """Enqueue one ``(C, H, W)`` image; returns the request id.

        ``deadline`` is an absolute reading of this server's clock by which
        the request should complete; under ``shed_policy="deadline"`` a
        request still queued past it is shed (:class:`DeadlineExceeded`
        from :meth:`wait_result`), and completions past it count in
        ``ServingMetrics.deadline_misses`` either way.

        A bucket that reaches the current target size is flushed
        immediately (inline in synchronous mode, by the worker in threaded
        mode).  When ``max_pending`` is configured and the queue is at
        capacity the request is shed instead: :class:`QueueFull` is raised
        and the ``rejected`` counter increments (admission control).  Under
        the ``deadline`` shed policy, blown-budget victims are displaced
        first and the newcomer admitted into the freed slot.
        """
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
        now = self.clock()
        with self._cond:
            self._ledger.admit(now)
            outcome = self._core.submit(
                self._key, image.shape, now, deadline=deadline, payload=image
            )
            self._mark_shed_locked(outcome.displaced, deadline=True)
            if not outcome.accepted:
                raise QueueFull(
                    f"server queue at capacity ({self._core.pending_count()} "
                    f"pending, max_pending={self.config.max_pending}); "
                    f"request shed"
                )
            # The core allocates ids only on acceptance: every id this
            # server ever handed out names an accepted request, so status()
            # is well-defined over the whole id space.
            request_id = self._last_id = outcome.request.id
            self._open.add(request_id)
            self._ledger.accepted(now)
            inline = outcome.bucket_full and self._worker is None
            if outcome.bucket_full and not inline:
                self._cond.notify_all()
        if inline:
            self._run_due(now)
        return request_id

    def pending_count(self) -> int:
        """Requests submitted but not yet executed (the admission quantity)."""
        with self._lock:
            return self._core.pending_count()

    def window_span(self) -> tuple[float | None, float | None]:
        """(first submit, last completion) clock readings of this window."""
        with self._lock:
            return self._ledger.started, self._ledger.finished

    def exec_seconds(self) -> list[float]:
        """Per-batch execution wall times of this window (most recent
        :data:`METRICS_WINDOW`); the router's overlap model consumes these."""
        with self._lock:
            return list(self._ledger.exec_seconds)

    def poll(self, now: float | None = None) -> int:
        """Run every due batch; returns the number of batches executed.

        Under ``shed_policy="deadline"``, queued requests whose own deadline
        already passed are shed here first — they could not complete in
        time, so they must not consume a batch slot."""
        now = self.clock() if now is None else now
        with self._cond:
            self._mark_shed_locked(self._core.shed_blown(now), deadline=True)
        return self._run_due(now)

    def flush(self) -> int:
        """Run every pending request regardless of deadlines."""
        return self._run_due(self.clock(), force=True)

    def result(self, request_id: int) -> RequestResult | None:
        """The completed result for a request id, or ``None`` if it is still
        pending (or was evicted unread past :data:`RESULT_CAPACITY`) — use
        :meth:`status` to tell those apart."""
        with self._lock:
            return self._results.get(request_id)

    def status(self, request_id: int) -> RequestStatus:
        """Lifecycle state of a request id this server handed out.

        ``DONE`` — completed, :meth:`result` returns it; ``FAILED`` —
        executed and failed (:meth:`wait_result` raises its
        :class:`~repro.serve.engine.RequestFailed`); ``PENDING`` — queued
        or executing right now; ``SHED`` — dropped unexecuted (shutdown
        shed or deadline shed); ``EVICTED`` — completed but its unread
        result aged out past :data:`RESULT_CAPACITY` (or its shed record
        was trimmed).  Raises :class:`KeyError` for an id this server never
        issued.
        """
        with self._lock:
            return self._status_locked(request_id)

    def _status_locked(self, request_id: int) -> RequestStatus:
        if request_id in self._results:
            return RequestStatus.DONE
        if request_id in self._failed:
            return RequestStatus.FAILED
        if request_id in self._shed_ids:
            return RequestStatus.SHED
        if request_id in self._open:
            return RequestStatus.PENDING
        if 0 <= request_id <= self._last_id:
            # Every issued id was accepted, so an issued-but-untracked id
            # can only have aged out of the retention bounds.
            return RequestStatus.EVICTED
        raise KeyError(f"request id {request_id} was never issued by this server")

    def failure(self, request_id: int) -> RequestFailed | None:
        """The request's :class:`RequestFailed`, or ``None`` if it did not fail."""
        with self._lock:
            return self._failed.get(request_id)

    def wait_result(self, request_id: int, timeout: float = 10.0) -> RequestResult:
        """Block until a request completes (threaded mode).

        Results with an active waiter are exempt from
        :data:`RESULT_CAPACITY` eviction.  Register the wait before or soon
        after submitting: a result that went unread past that many
        completions *before* the waiter arrived has been evicted and times
        out here.  Raises :class:`DeadlineExceeded` for deadline-shed
        requests, :class:`RequestShed` for shutdown-shed ones,
        :class:`~repro.serve.engine.RequestFailed` for requests whose
        execution failed, and :class:`ResultTimeout` (a ``TimeoutError``
        carrying the request's :meth:`status`) when the wait gives up.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self._waiting.add(request_id)
            try:
                while request_id not in self._results:
                    if request_id in self._failed:
                        raise self._failed[request_id]
                    if request_id in self._shed_ids:
                        if request_id in self._deadline_shed_ids:
                            raise DeadlineExceeded(
                                f"request {request_id} was shed: its deadline "
                                f"passed while it was still queued"
                            )
                        raise RequestShed(
                            f"request {request_id} was shed on shutdown before executing"
                        )
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ResultTimeout(
                            request_id, timeout, self._status_locked(request_id)
                        )
                    self._cond.wait(remaining)
                return self._results[request_id]
            finally:
                self._waiting.discard(request_id)

    def was_shed(self, request_id: int) -> bool:
        """Whether a request was dropped unexecuted (shutdown or deadline shed)."""
        with self._lock:
            return request_id in self._shed_ids

    # -- batch execution ------------------------------------------------------

    def _run_due(self, now: float, force: bool = False) -> int:
        """Run the core's due batches (every queued one with ``force``)
        until none is left; returns batches run."""
        batches = 0
        while True:
            with self._lock:
                batch = self._core.next_batch(now, force=force)
            if batch is None:
                return batches
            self._run_batch(batch)
            batches += 1

    def _run_batch(self, batch: Batch) -> None:
        requests = batch.requests
        rows, errors, stats, timing = self._engine.run_resilient(
            [r.payload for r in requests], batch.bucket, clock=self.clock,
            request_ids=[r.id for r in requests],
            retry=self.config.retry, sleep=self.sleep,
            isolate=self.config.isolate_failures,
        )
        with self._cond:
            outcomes = self._ledger.record_batch(batch, rows, errors, stats, timing)
            for request, outcome in zip(requests, outcomes):
                self._open.discard(request.id)
                # Terminal failures are retrievable and re-raised by
                # wait_result, never silent.
                if isinstance(outcome, RequestFailed):
                    self._failed[request.id] = outcome
                else:
                    self._results[request.id] = outcome
            self._trim_locked()
            self._cond.notify_all()

    # -- shedding and retention -----------------------------------------------

    def _mark_shed_locked(self, victims: list[SchedRequest], deadline: bool) -> None:
        """Report requests the core dropped unexecuted (lock held).

        Victims land in ``_shed_ids`` (so :meth:`was_shed`/:meth:`status`
        see them) and, for deadline sheds, in the deadline subset (so
        :meth:`wait_result` raises :class:`DeadlineExceeded`); blocked
        waiters are woken.  Shutdown sheds count in ``ServingMetrics.shed``.
        """
        if not victims:
            return
        for request in victims:
            self._open.discard(request.id)
            self._shed_ids.add(request.id)
            if deadline:
                self._deadline_shed_ids.add(request.id)
        if not deadline:
            self._ledger.shed += len(victims)
        self._trim_locked()
        self._cond.notify_all()

    def _trim_locked(self) -> None:
        # A long-running server must not accumulate unread output rows,
        # failures or shed records forever if clients never fetch them.
        # Results someone is blocked in wait_result() on are kept; request
        # ids are monotonic, so the oldest shed records are the smallest.
        while len(self._failed) > RESULT_CAPACITY:
            self._failed.popitem(last=False)
        if len(self._results) > RESULT_CAPACITY:
            for rid in list(self._results):
                if len(self._results) <= RESULT_CAPACITY:
                    break
                if rid not in self._waiting:
                    del self._results[rid]
        if len(self._shed_ids) > RESULT_CAPACITY:
            self._shed_ids = set(sorted(self._shed_ids)[-RESULT_CAPACITY:])
            self._deadline_shed_ids &= self._shed_ids

    # -- threaded mode --------------------------------------------------------

    def start(self) -> "Server":
        """Spawn the background worker that flushes due buckets."""
        if self._worker is not None:
            raise RuntimeError("server already started")
        self._stopping = False
        self._worker = threading.Thread(target=self._worker_loop, daemon=True)
        self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down, guaranteeing no submitted request is silently dropped.

        ``drain=True`` joins the worker and then flushes: every request
        pending at (or racing) shutdown completes and is retrievable via
        :meth:`result`.  ``drain=False`` sheds instead of executing: pending
        requests are removed, counted in ``ServingMetrics.shed``, and
        reported — :meth:`was_shed` returns ``True`` and any
        :meth:`wait_result` on them raises :class:`RequestShed` immediately.

        The worker handle is claimed under the lock *before* the final
        drain/shed, so a concurrent ``submit`` either sees no worker (and
        applies synchronous-mode semantics itself) or enqueued early enough
        for the drain/shed pass here to account for it.  Safe to call twice
        and without :meth:`start` (synchronous mode): it just drains/sheds.
        """
        with self._cond:
            worker, self._worker = self._worker, None
            self._stopping = True
            self._cond.notify_all()
        if worker is not None:
            worker.join()
        if drain:
            self.flush()
        else:
            with self._cond:
                self._mark_shed_locked(self._core.shed_all(), deadline=False)

    def _worker_loop(self) -> None:
        interval = self.config.max_latency / 4
        while True:
            with self._cond:
                if self._stopping:
                    return
                self._cond.wait(interval)
            self.poll()
