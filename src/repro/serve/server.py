"""The synchronous shape-bucketed batching server.

Requests are single images.  The server groups pending requests by their
``(C, H, W)`` shape, and when a shape's queue reaches the current target
bucket size — or its oldest request has waited ``max_latency`` — it runs the
whole group as one batch, padded up to the smallest configured bucket size
that fits.  Because every (shape, bucket) pair owns a pre-built inference
:class:`~repro.backend.ModelPlan`, steady-state serving never builds a plan:
each batch runs entirely on plan-cache hits, which is exactly what the
single-flight cache guarantees to stay true under the optional background
worker thread.

Since the scheduling-core extraction this class is a *transport adapter*:
the thread/lock/condition plumbing lives here, but every policy decision is
delegated — admission to :class:`~repro.serve.sched.AdmissionPolicy`,
bucket triggering to :class:`~repro.serve.sched.BucketPolicy` (fixed at the
max bucket by default, arrival-rate adaptive with
``ServerConfig(adaptive_buckets=True)``), deadline shedding to
:class:`~repro.serve.sched.ShedPolicy` (``shed_policy="deadline"``), and
batch execution to the shared :class:`~repro.serve.engine.ModelExecutor`.
Default configuration reproduces the pre-refactor behaviour bit for bit.

Two driving modes:

- **synchronous** — call :meth:`Server.submit` and :meth:`Server.poll` /
  :meth:`Server.flush` yourself (what the benchmarks and tests do; fully
  deterministic with an injected clock);
- **threaded** — :meth:`Server.start` spawns a worker that flushes due
  buckets in the background while any number of client threads submit;
  :meth:`Server.wait_result` blocks until a request completes.

The asyncio transport over the same policies and engine is
:class:`~repro.serve.gateway.AsyncGateway`.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.backend import plan_cache_owner_stats, plan_cache_stats
from repro.serve.engine import ModelExecutor, RequestFailed
from repro.serve.policy import ServerConfig, ServingPolicy
from repro.serve.sched import AdmissionPolicy, BucketPolicy, ShedPolicy


class QueueFull(RuntimeError):
    """Admission control rejected a submit: the pending queue is at capacity.

    Raised by :meth:`Server.submit` when ``ServerConfig.max_pending`` is set
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
class Request:
    """One in-flight single-image inference request."""

    id: int
    image: np.ndarray            # (C, H, W)
    submitted_at: float
    deadline: float | None = None  # absolute clock reading; None = no SLO


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


# ServerConfig moved to repro.serve.policy: the shared knobs now live on
# ServingPolicy and ServerConfig is a deprecated shim re-exported here for
# the one-release compatibility window.


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
        bucket sizes, flush deadline, admission bound and shed policy — a
        shared :class:`~repro.serve.policy.ServingPolicy` (the legacy
        :class:`~repro.serve.policy.ServerConfig` still works for one more
        release).
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
        self.config = ServerConfig.coerce(config)
        self.clock = clock
        self.sleep = sleep
        self.name = name
        self._engine = ModelExecutor(
            model, input_shapes=input_shapes,
            bucket_sizes=self.config.bucket_sizes, name=name,
            degrade_after=self.config.degrade_after,
        )
        self.model = self._engine.model
        self._plans = self._engine._plans           # legacy alias
        self._exec_lock = self._engine.exec_lock    # legacy alias
        # Policy objects from the scheduling core (transport-agnostic).
        self._admission = AdmissionPolicy(self.config.max_pending)
        self._buckets = BucketPolicy(
            self.config.bucket_sizes, self.config.max_latency,
            adaptive=self.config.adaptive_buckets,
        )
        self._shed_policy = ShedPolicy(self.config.shed_policy or "newest")
        self._ids = itertools.count()
        self._last_id = -1
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: dict[tuple, list[Request]] = {}
        self._pending_total = 0
        self._inflight: set[int] = set()  # popped from queue, batch executing
        self._results: OrderedDict[int, RequestResult] = OrderedDict()
        self._waiting: set[int] = set()  # ids with a blocked wait_result()
        self._shed_ids: set[int] = set()
        self._deadline_shed_ids: set[int] = set()  # subset of _shed_ids
        self._evicted_ids: set[int] = set()
        # Per-request terminal failures (RequestFailed), retained/trimmed
        # like results so wait_result can re-raise them.
        self._failed: OrderedDict[int, RequestFailed] = OrderedDict()
        self._breaker = self.config.make_breaker()
        self._worker: threading.Thread | None = None
        self._stopping = False
        self.reset_metrics()

    # -- metrics --------------------------------------------------------------

    def _cache_counters(self) -> tuple[int, int, int]:
        """(hits, misses, builds) attributed to this server.

        Named servers read the shared cache's per-owner counters — exact
        under any mix of cache clients (other servers, a trainer).
        Unnamed servers fall back to the process-global counters, which
        are only correct while this server is the dominant client.
        """
        if self.name is not None:
            acc = plan_cache_owner_stats().get(self.name)
            if acc is None:
                return (0, 0, 0)
            return (acc["hits"], acc["misses"], acc["builds"])
        base = plan_cache_stats()
        return (base["hits"], base["misses"], base["builds"])

    def reset_metrics(self) -> None:
        """Start a fresh measurement window (e.g. after warmup traffic)."""
        with self._lock:
            self._completed = 0
            self._rejected = 0
            self._shed = 0
            self._failed_count = 0
            self._retry_count = 0
            self._isolations = 0
            self._unavailable = 0
            self._shed_deadline = 0
            self._deadline_misses = 0
            self._deadline_total = 0  # completions that carried a deadline
            self._latencies: deque[float] = deque(maxlen=self.config.metrics_window)
            self._queue_waits: deque[float] = deque(
                maxlen=self.config.metrics_window
            )
            self._batch_records: deque[tuple[int, int]] = deque(  # (requests, bucket)
                maxlen=self.config.metrics_window
            )
            # Per-batch wall execution times (stage + forward), measured on
            # the real clock regardless of an injected test clock: the
            # router's cross-model overlap model consumes these.
            self._exec_seconds: deque[float] = deque(
                maxlen=self.config.metrics_window
            )
            self._window_started: float | None = None
            self._window_finished: float | None = None
            self._cache_base = self._cache_counters()

    def metrics(self) -> ServingMetrics:
        """Aggregate statistics since the last :meth:`reset_metrics`.

        ``completed``/``throughput`` count the whole window; latency
        percentiles and batch occupancy are over the most recent
        ``metrics_window`` completions.  For a *named* server,
        ``plan_cache_hit_rate`` and ``plan_builds`` come from the plan
        cache's per-owner counters and are exact under any mix of cache
        clients; for an unnamed server they are process-global deltas and
        attribute correctly only while this server is the cache's dominant
        client.  A ``clear_plan_cache()`` landing in the window zeroes the
        cache's counters, losing the pre-clear portion: attribution
        restarts from the clear (never negative deltas).
        """
        with self._lock:
            lat = sorted(self._latencies)
            waits = sorted(self._queue_waits)
            completed = self._completed
            cache = self._cache_counters()
            if any(now < base for now, base in zip(cache, self._cache_base)):
                # The cache was cleared mid-window: its counters restarted
                # from zero, so "since the clear" is all that is knowable.
                self._cache_base = (0, 0, 0)
            hits = cache[0] - self._cache_base[0]
            misses = cache[1] - self._cache_base[1]
            builds = cache[2] - self._cache_base[2]
            elapsed = 0.0
            if self._window_started is not None and self._window_finished is not None:
                elapsed = self._window_finished - self._window_started
            real = sum(n for n, _ in self._batch_records)
            padded = sum(b for _, b in self._batch_records)
            return ServingMetrics(
                completed=completed,
                batches=len(self._batch_records),
                throughput=completed / elapsed if elapsed > 0 else 0.0,
                latency_p50=_percentile(lat, 0.50),
                latency_p95=_percentile(lat, 0.95),
                latency_mean=sum(lat) / len(lat) if lat else 0.0,
                plan_cache_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
                plan_builds=builds,
                mean_batch_occupancy=real / len(self._batch_records)
                if self._batch_records else 0.0,
                mean_bucket_fill=real / padded if padded else 0.0,
                rejected=self._rejected,
                shed=self._shed,
                exec_seconds_total=sum(self._exec_seconds),
                shed_deadline=self._shed_deadline,
                deadline_misses=self._deadline_misses,
                deadline_miss_rate=self._deadline_misses / self._deadline_total
                if self._deadline_total else 0.0,
                queue_wait_mean=sum(waits) / len(waits) if waits else 0.0,
                queue_wait_p95=_percentile(waits, 0.95),
                exec_mean=sum(self._exec_seconds) / len(self._exec_seconds)
                if self._exec_seconds else 0.0,
                bucket_target=self._buckets.target_bucket(),
                failed=self._failed_count,
                retries=self._retry_count,
                isolated_batches=self._isolations,
                unavailable=self._unavailable,
                degraded_plans=len(self._engine.degraded()),
                breaker_state=self._breaker.state if self._breaker else "disabled",
                breaker_opens=self._breaker.opens if self._breaker else 0,
            )

    def breaker_snapshot(self) -> dict | None:
        """The circuit breaker's state/transition snapshot (None = disabled)."""
        with self._lock:
            return self._breaker.snapshot() if self._breaker else None

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
        shape = image.shape
        now = self.clock()
        run_shape = None
        with self._cond:
            if self._breaker is not None and not self._breaker.allow(now):
                self._unavailable += 1
                raise ModelUnavailable(
                    f"model {self.name or '<unnamed>'} is unavailable: circuit "
                    f"breaker open (error rate "
                    f"{self._breaker.error_rate():.0%} over recent batches)"
                )
            if self._admission.at_capacity(self._pending_total):
                if self._shed_policy.policy == "deadline":
                    self._shed_blown_locked(now)
                if self._admission.at_capacity(self._pending_total):
                    self._rejected += 1
                    raise QueueFull(
                        f"server queue at capacity ({self._pending_total} pending, "
                        f"max_pending={self.config.max_pending}); request shed"
                    )
            self._buckets.observe_arrival(now)
            # The id is allocated only after admission: every id this server
            # ever handed out names an accepted request, so status() is
            # well-defined over the whole id space.
            request = Request(id=next(self._ids), image=image,
                              submitted_at=now, deadline=deadline)
            self._last_id = request.id
            if self._window_started is None:
                self._window_started = now
            queue = self._pending.setdefault(shape, [])
            queue.append(request)
            self._pending_total += 1
            if len(queue) >= self._buckets.target_bucket():
                if self._worker is None:
                    run_shape = shape
                else:
                    self._cond.notify_all()
        if run_shape is not None:
            self._flush_shape(run_shape)
        return request.id

    def pending_count(self) -> int:
        """Requests submitted but not yet executed (the admission quantity)."""
        with self._lock:
            return self._pending_total

    def window_span(self) -> tuple[float | None, float | None]:
        """(first submit, last completion) clock readings of this window."""
        with self._lock:
            return self._window_started, self._window_finished

    def exec_seconds(self) -> list[float]:
        """Per-batch execution wall times of this window (most recent
        ``metrics_window``); the router's overlap model consumes these."""
        with self._lock:
            return list(self._exec_seconds)

    def poll(self, now: float | None = None) -> int:
        """Flush every bucket whose oldest request has exceeded the deadline
        (and any full bucket); returns the number of batches executed.

        Under ``shed_policy="deadline"``, queued requests whose own deadline
        already passed are shed here first — they could not complete in
        time, so they must not consume a batch slot."""
        now = self.clock() if now is None else now
        due = []
        with self._cond:
            if self._shed_policy.policy == "deadline":
                self._shed_blown_locked(now)
            target = self._buckets.target_bucket()
            for shape, queue in self._pending.items():
                if not queue:
                    continue
                if (
                    len(queue) >= target
                    or now - queue[0].submitted_at >= self.config.max_latency
                ):
                    due.append(shape)
        # Drain: a due queue's overdue head batches with whatever is behind
        # it anyway, so the sub-bucket remainder must not wait another cycle.
        return sum(self._flush_shape(shape, drain=True) for shape in due)

    def flush(self) -> int:
        """Run every pending request regardless of deadlines."""
        with self._lock:
            due = [shape for shape, queue in self._pending.items() if queue]
        return sum(self._flush_shape(shape, drain=True) for shape in due)

    def result(self, request_id: int) -> RequestResult | None:
        """The completed result for a request id, or ``None`` if it is still
        pending (or was evicted unread past ``result_capacity``) — use
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
        result aged out past ``result_capacity`` (or its shed record was
        trimmed).  Raises :class:`KeyError` for an id this server never
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
        if request_id in self._inflight:
            return RequestStatus.PENDING
        for queue in self._pending.values():
            for request in queue:
                if request.id == request_id:
                    return RequestStatus.PENDING
        if request_id in self._evicted_ids or 0 <= request_id <= self._last_id:
            # Every issued id was accepted (allocation happens after
            # admission), so an issued-but-untracked id can only have
            # aged out of the results/shed retention bounds.
            return RequestStatus.EVICTED
        raise KeyError(f"request id {request_id} was never issued by this server")

    def failure(self, request_id: int) -> RequestFailed | None:
        """The request's :class:`RequestFailed`, or ``None`` if it did not fail."""
        with self._lock:
            return self._failed.get(request_id)

    def wait_result(self, request_id: int, timeout: float = 10.0) -> RequestResult:
        """Block until a request completes (threaded mode).

        Results with an active waiter are exempt from ``result_capacity``
        eviction.  Register the wait before or soon after submitting: a
        result that went unread past ``result_capacity`` completions
        *before* the waiter arrived has been evicted and times out here.
        Raises :class:`DeadlineExceeded` for deadline-shed requests,
        :class:`RequestShed` for shutdown-shed ones,
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

    def _plan_for(self, shape: tuple, bucket: int):
        return self._engine.plan_for(shape, bucket)

    def _flush_shape(self, shape: tuple, drain: bool = False) -> int:
        """Run one shape's queue as batches; returns batches run.

        ``drain=False`` (the full-bucket fast path off ``submit``) stops
        once the queue cannot fill the current target bucket — sub-target
        remainders wait for their deadline.  ``drain=True``
        (``poll``/``flush``) empties the queue in max-bucket batches,
        remainder included.
        """
        batches = 0
        while True:
            with self._lock:
                queue = self._pending.get(shape)
                target = self._buckets.target_bucket()
                if not queue or (not drain and len(queue) < target):
                    return batches
                take = min(len(queue), self.config.max_bucket if drain else target)
                requests = queue[:take]
                del queue[:take]
                self._pending_total -= take
                self._inflight.update(r.id for r in requests)
            self._run_batch(shape, requests)
            batches += 1

    def _run_batch(self, shape: tuple, requests: list[Request]) -> None:
        n = len(requests)
        bucket = self.config.bucket_for(n)
        rows, errors, stats, timing = self._engine.run_resilient(
            [r.image for r in requests], bucket, clock=self.clock,
            request_ids=[r.id for r in requests],
            retry=self.config.retry, sleep=self.sleep,
            isolate=self.config.isolate_failures,
        )
        done = timing.finished
        completed = 0
        with self._cond:
            for i, request in enumerate(requests):
                self._inflight.discard(request.id)
                if i in errors:
                    # Terminal per-request failure: accounted (never silent),
                    # retrievable, and re-raised by wait_result.
                    self._failed[request.id] = errors[i]
                    self._failed_count += 1
                    if self._breaker is not None:
                        self._breaker.record(False, done)
                    continue
                completed += 1
                self._results[request.id] = RequestResult(
                    id=request.id,
                    output=rows[i].copy(),
                    latency=done - request.submitted_at,
                    batch_requests=n,
                    bucket_size=bucket,
                    queue_wait=timing.started - request.submitted_at,
                )
                self._latencies.append(done - request.submitted_at)
                self._queue_waits.append(timing.started - request.submitted_at)
                if self._breaker is not None:
                    self._breaker.record(True, done)
                if request.deadline is not None:
                    self._deadline_total += 1
                    # Finishing exactly at the deadline meets the SLO;
                    # only strictly-later completions are misses.
                    if done > request.deadline:
                        self._deadline_misses += 1
            self._retry_count += stats.retries
            if stats.splits:
                self._isolations += 1
            if len(self._failed) > self.config.result_capacity:
                # Same retention bound as unread results.
                while len(self._failed) > self.config.result_capacity:
                    rid, _ = self._failed.popitem(last=False)
                    self._evicted_ids.add(rid)
            self._completed += completed
            # Bound unread-result retention: a long-running server must not
            # accumulate output rows forever if clients never fetch them.
            # Results someone is blocked in wait_result() on are kept.
            if len(self._results) > self.config.result_capacity:
                for rid in list(self._results):
                    if len(self._results) <= self.config.result_capacity:
                        break
                    if rid not in self._waiting:
                        del self._results[rid]
                        self._evicted_ids.add(rid)
                if len(self._evicted_ids) > self.config.result_capacity:
                    self._evicted_ids = set(
                        sorted(self._evicted_ids)[-self.config.result_capacity:]
                    )
            self._batch_records.append((n, bucket))
            self._exec_seconds.append(timing.exec_seconds)
            self._window_finished = done
            self._cond.notify_all()

    # -- shedding -------------------------------------------------------------

    def _shed_blown_locked(self, now: float) -> int:
        """Drop queued requests whose deadline already passed (lock held).

        The shed is reported, never silent: victims land in ``_shed_ids``
        (so :meth:`was_shed`/:meth:`status` see them) and in the deadline
        subset (so :meth:`wait_result` raises :class:`DeadlineExceeded`),
        and blocked waiters are woken.
        """
        victims: list[Request] = []
        for queue in self._pending.values():
            keep = [r for r in queue if not self._shed_policy.blown(r, now)]
            if len(keep) != len(queue):
                victims.extend(r for r in queue if self._shed_policy.blown(r, now))
                queue[:] = keep
        if not victims:
            return 0
        for request in victims:
            self._shed_ids.add(request.id)
            self._deadline_shed_ids.add(request.id)
        self._shed_deadline += len(victims)
        self._pending_total -= len(victims)
        self._trim_shed_ids_locked()
        self._cond.notify_all()  # wake waiters so they see DeadlineExceeded
        return len(victims)

    def _trim_shed_ids_locked(self) -> None:
        # Same retention bound as unread results: repeated shed cycles on a
        # long-lived server must not grow the sets forever.  Request ids are
        # monotonic, so "oldest" is "smallest".
        if len(self._shed_ids) > self.config.result_capacity:
            self._shed_ids = set(
                sorted(self._shed_ids)[-self.config.result_capacity:]
            )
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
            self._shed_pending()

    def _shed_pending(self) -> None:
        """Drop every queued request, reporting each as shed."""
        with self._cond:
            for queue in self._pending.values():
                for request in queue:
                    self._shed_ids.add(request.id)
                    self._shed += 1
                queue.clear()
            self._pending_total = 0
            self._trim_shed_ids_locked()
            self._cond.notify_all()  # wake waiters so they see RequestShed

    def _worker_loop(self) -> None:
        interval = self.config.worker_poll_interval or self.config.max_latency / 4
        while True:
            with self._cond:
                if self._stopping:
                    return
                self._cond.wait(interval)
            self.poll()
