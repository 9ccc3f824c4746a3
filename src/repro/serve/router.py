"""Multi-model serving router over the shared execution-plan cache.

One process, many models: the :class:`Router` owns one
:class:`~repro.serve.server.Server` per registered model, routes each
request to its model's server by name, and lets every server share the
process-wide :data:`~repro.backend.workload.PLAN_CACHE`.  Each server is
registered under its model name as the cache *owner* tag
(:func:`repro.backend.plan_owner`), which buys the two things single-model
serving never exercised:

- **per-model cache accounting** — hit/miss/build/eviction counts per
  model, reconcilable against the global counters
  (:func:`repro.backend.plan_cache_owner_stats`), so a model's hit rate is
  exact even while other models, a trainer, or cache clears share the
  process;
- **traffic-weighted eviction** — the cache's LRU victim selection weights
  candidates by their owning model's observed traffic, so a hot model's
  plans are not thrashed out by a cold model churning through the LRU tail.

Admission control is per model: give a registered model a
``ServingPolicy.max_pending`` bound and its ``submit`` sheds with
:class:`~repro.serve.server.QueueFull` (counted in ``rejected``) instead of
letting an overloaded queue grow without bound.

Driving mirrors :class:`Server`: synchronous (``submit``/``poll``/
``flush``) or threaded (``start``/``wait_result``/``stop``), and
:meth:`Router.metrics` aggregates per-model p50/p95/throughput/hit-rate
plus the shared cache's state into one :class:`RouterMetrics`.

**Cross-model batch overlap.**  Synchronous ``flush``/``poll`` dispatch
each model's drain onto the shared worker pool
(:mod:`repro.backend.parallel`), so different models' batches execute
concurrently instead of queueing behind one caller thread — each server
still serialises its *own* batches on its executor's ``exec_lock``
(shared staging buffers), which is exactly the per-model chain the overlap model in
``bench_multimodel_serving`` assumes.  Pass ``overlap=False`` (or size the
pool to one worker) to restore the strictly serial drain: overlap
interleaves the models' plan-cache access order, which is the right
trade for throughput but not for experiments asserting deterministic
eviction counts on a capacity-bound cache.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.backend import PLAN_CACHE, parallel_map, plan_cache_stats, plan_owner
from repro.serve.policy import ServingPolicy
from repro.serve.server import (
    RequestResult,
    RequestStatus,
    Server,
    ServingMetrics,
)


# Cache counters that only ever grow; "size" is a gauge and must never be
# window-snapshotted or used for clear detection (evictions shrink it).
_MONOTONIC_CACHE_KEYS = ("hits", "misses", "builds", "evictions")


class RouterHandle(NamedTuple):
    """Opaque ticket for one routed request: which model, which request id."""

    model: str
    request_id: int


@dataclass
class RouterMetrics:
    """One window's aggregate view across every registered model.

    ``per_model`` holds each server's :class:`ServingMetrics`;
    ``per_model_cache`` holds each model's plan-cache counter deltas over
    the same window (hits/misses/builds/evictions and the derived
    ``hit_rate``).  ``aggregate_hit_rate`` weights every model's cache
    traffic together — the number the multi-model benchmark gates on.
    """

    completed: int
    rejected: int                 # admission-control sheds across all models
    shed: int                     # shutdown sheds across all models
    throughput: float             # completed / wall-clock span of the window
    aggregate_hit_rate: float
    plan_builds: int
    cache_size: int
    cache_evictions: int          # global evictions over the window
    per_model: dict[str, ServingMetrics]
    per_model_cache: dict[str, dict]
    shed_deadline: int = 0        # deadline-policy sheds across all models
    deadline_misses: int = 0      # completions past their deadline, all models
    failed: int = 0               # RequestFailed terminal failures, all models
    retries: int = 0              # transient-fault batch retries, all models
    unavailable: int = 0          # breaker-open sheds (ModelUnavailable)
    breaker_opens: int = 0        # breaker trips across all models
    # Per-model circuit-breaker snapshots (state, opens/closes, rejected,
    # error_rate, and the full timestamped transition list) for every model
    # whose breaker is enabled — the chaos soak's visibility surface.
    breakers: dict | None = None

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["per_model"] = {name: m.as_dict() for name, m in self.per_model.items()}
        return out


class Router:
    """Route single-image requests to named models over one shared plan cache.

    Parameters
    ----------
    server_config:
        default :class:`~repro.serve.policy.ServingPolicy` for models
        registered without one.
    clock:
        time source handed to every server (injectable for tests).
    overlap:
        when ``True`` (default), synchronous ``flush``/``poll`` run each
        model's drain on the shared worker pool so different models'
        batches overlap; ``False`` drains strictly serially in
        registration order (deterministic shared-cache access order).
    cache_owner_floor:
        when set, configures the shared plan cache's per-owner quota
        (``PlanCache.owner_floor``): every registered model keeps at least
        this many resident plans no matter how hard the other models churn
        the cache.  Applied process-wide (the cache is shared); ``None``
        leaves the cache's current setting untouched.
    """

    def __init__(
        self,
        server_config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        overlap: bool = True,
        cache_owner_floor: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if cache_owner_floor is not None:
            if cache_owner_floor < 0:
                raise ValueError(
                    f"cache_owner_floor must be >= 0, got {cache_owner_floor}"
                )
            PLAN_CACHE.owner_floor = cache_owner_floor
        self._default_config = server_config
        self._clock = clock
        self._sleep = sleep
        self.overlap = overlap
        self._servers: dict[str, Server] = {}
        self._started = False
        self.reset_metrics()

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        config: ServingPolicy | None = None,
        **build_kwargs,
    ) -> Server:
        """Add a model under ``name``; returns its dedicated server.

        ``model`` is either a built ``repro.nn`` module or a registry model
        name (``"mobilenet"``, ``"resnet18"``, ...) resolved through
        :func:`repro.models.build_serving_model` with ``build_kwargs``.
        Plan pre-building for the configured buckets runs here, attributed
        to ``name`` in the shared cache.  Registering on a started router
        starts the new server's worker immediately.
        """
        if name in self._servers:
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
        server = Server(
            model,
            input_shapes=input_shapes,
            config=config or self._default_config,
            clock=self._clock,
            name=name,
            sleep=self._sleep,
        )
        self._servers[name] = server
        # Open the new model's metrics window *after* its registration
        # pre-builds, so a model registered mid-window reports only served
        # traffic — consistent with models registered before reset_metrics.
        self._owner_base[name] = self._owner_snapshot(name)
        if self._started:
            server.start()
        return server

    def models(self) -> tuple[str, ...]:
        return tuple(self._servers)

    def server(self, name: str) -> Server:
        return self._servers[name]

    def _require(self, name: str) -> Server:
        try:
            return self._servers[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered; have {sorted(self._servers)}"
            ) from None

    # -- request lifecycle -----------------------------------------------------

    def submit(
        self, model: str, image: np.ndarray, deadline: float | None = None
    ) -> RouterHandle:
        """Route one ``(C, H, W)`` image to ``model``'s server.

        Raises :class:`~repro.serve.server.QueueFull` when that model's
        admission bound is reached (the request is shed, never enqueued).
        ``deadline`` is an absolute clock reading forwarded to the server
        (see :meth:`Server.submit`).
        """
        return RouterHandle(model, self._require(model).submit(image, deadline))

    def result(self, handle: RouterHandle) -> RequestResult | None:
        return self._require(handle.model).result(handle.request_id)

    def status(self, handle: RouterHandle) -> RequestStatus:
        """Lifecycle state of a routed request (see :meth:`Server.status`)."""
        return self._require(handle.model).status(handle.request_id)

    def wait_result(self, handle: RouterHandle, timeout: float = 10.0) -> RequestResult:
        return self._require(handle.model).wait_result(handle.request_id, timeout)

    def was_shed(self, handle: RouterHandle) -> bool:
        return self._require(handle.model).was_shed(handle.request_id)

    def poll(self, now: float | None = None) -> int:
        """Flush every model's due buckets; returns batches executed.

        With ``overlap`` enabled the per-model drains run on the shared
        worker pool, so one slow model's batches no longer delay the rest.
        """
        return self._drain(lambda server: server.poll(now))

    def flush(self) -> int:
        """Run every pending request of every model (overlapped when enabled)."""
        return self._drain(lambda server: server.flush())

    def _drain(self, drain_one: Callable[[Server], int]) -> int:
        servers = list(self._servers.values())
        if self.overlap:
            return sum(parallel_map(drain_one, servers, op="router.drain"))
        return sum(drain_one(server) for server in servers)

    # -- threaded mode ---------------------------------------------------------

    def start(self) -> "Router":
        """Start every registered server's background worker."""
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        for server in self._servers.values():
            server.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop every server (see :meth:`Server.stop` for drain semantics)."""
        self._started = False
        for server in self._servers.values():
            server.stop(drain=drain)

    # -- metrics ---------------------------------------------------------------

    def _owner_snapshot(self, name: str) -> dict[str, int]:
        acc = PLAN_CACHE.owner_stats().get(name, {})
        return {key: acc.get(key, 0) for key in _MONOTONIC_CACHE_KEYS}

    def reset_metrics(self) -> None:
        """Fresh measurement window across all models and the shared cache."""
        for server in self._servers.values():
            server.reset_metrics()
        base = plan_cache_stats()
        self._cache_base = {key: base[key] for key in _MONOTONIC_CACHE_KEYS}
        self._owner_base = {
            name: self._owner_snapshot(name) for name in self._servers
        }

    def metrics(self) -> RouterMetrics:
        """Aggregate + per-model statistics since :meth:`reset_metrics`.

        Per-model hit rates come from the cache's per-owner counters (exact
        attribution); the aggregate rate and eviction count are global
        deltas, so they also absorb untagged traffic (e.g. a co-resident
        trainer) — matching what the shared cache actually experienced.
        A ``clear_plan_cache()`` in the window zeroes the cache's counters;
        attribution then restarts from the clear (never negative deltas).
        """
        per_model = {name: srv.metrics() for name, srv in self._servers.items()}
        cache = plan_cache_stats()
        if any(cache[key] < base for key, base in self._cache_base.items()):
            self._cache_base = {key: 0 for key in self._cache_base}
        hits = cache["hits"] - self._cache_base["hits"]
        misses = cache["misses"] - self._cache_base["misses"]

        owners = PLAN_CACHE.owner_stats()
        per_model_cache: dict[str, dict] = {}
        for name in self._servers:
            now = owners.get(name, {})
            base = self._owner_base.get(name, {})
            if any(now.get(key, 0) < base.get(key, 0)
                   for key in _MONOTONIC_CACHE_KEYS):
                base = self._owner_base[name] = {}
            delta = {
                key: now.get(key, 0) - base.get(key, 0)
                for key in _MONOTONIC_CACHE_KEYS
            }
            delta["size"] = now.get("size", 0)
            accesses = delta["hits"] + delta["misses"]
            delta["hit_rate"] = delta["hits"] / accesses if accesses else 1.0
            per_model_cache[name] = delta

        # Window span: earliest submit to latest completion across models.
        spans = [srv.window_span() for srv in self._servers.values()]
        begun = [s for s, _ in spans if s is not None]
        done = [f for _, f in spans if f is not None]
        elapsed = (max(done) - min(begun)) if begun and done else 0.0
        completed = sum(m.completed for m in per_model.values())
        return RouterMetrics(
            completed=completed,
            rejected=sum(m.rejected for m in per_model.values()),
            shed=sum(m.shed for m in per_model.values()),
            throughput=completed / elapsed if elapsed > 0 else 0.0,
            aggregate_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
            plan_builds=cache["builds"] - self._cache_base["builds"],
            cache_size=cache["size"],
            cache_evictions=cache["evictions"] - self._cache_base["evictions"],
            per_model=per_model,
            per_model_cache=per_model_cache,
            shed_deadline=sum(m.shed_deadline for m in per_model.values()),
            deadline_misses=sum(m.deadline_misses for m in per_model.values()),
            failed=sum(m.failed for m in per_model.values()),
            retries=sum(m.retries for m in per_model.values()),
            unavailable=sum(m.unavailable for m in per_model.values()),
            breaker_opens=sum(m.breaker_opens for m in per_model.values()),
            breakers={
                name: snap
                for name, srv in self._servers.items()
                if (snap := srv.breaker_snapshot()) is not None
            },
        )
