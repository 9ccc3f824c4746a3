"""Multi-model router: routing correctness, admission control, metrics.

The bitwise-equality tests extend ``test_serve.py``'s single-model
guarantee across the router: because every (shape, bucket) pair runs at a
fixed padded batch size, a request's output is bit-identical whether it is
routed through the multi-model front-end, served solo, or — at bucket 1 —
computed by a direct ``model.forward`` call.
"""
import threading

import numpy as np
import pytest

from repro.backend import PLAN_CACHE, plan_cache_stats
from repro.models import build_serving_model
from repro.serve import (
    QueueFull,
    RequestShed,
    Router,
    RouterHandle,
    Server,
    ServerConfig,
)
from repro.tensor import Tensor, no_grad
from repro.utils import seed_all

INPUT = (3, 16, 16)


@pytest.fixture(autouse=True)
def _seed():
    seed_all(41)


def _images(n, shape=INPUT, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


def _router(bucket_sizes=(1, 2, 4), max_latency=5.0, **config_kwargs):
    router = Router(server_config=ServerConfig(
        bucket_sizes=bucket_sizes, max_latency=max_latency, **config_kwargs))
    router.register("narrow", "mobilenet", input_shapes=[INPUT],
                    scheme="scc", width_mult=0.25, seed=11)
    router.register("wide", "mobilenet", input_shapes=[INPUT],
                    scheme="scc", width_mult=0.5, seed=12)
    return router


# ---------------------------------------------------------------------------
# Bitwise equality: routed outputs == direct per-request inference
# ---------------------------------------------------------------------------

def test_bucket1_routed_outputs_equal_direct_forward_bitwise():
    router = _router(bucket_sizes=(1,))
    models = {name: router.server(name).model for name in router.models()}
    for name in router.models():
        for image in _images(3, seed=hash(name) % 1000):
            handle = router.submit(name, image)
            routed = router.result(handle).output
            with no_grad():
                direct = models[name](Tensor(image[None])).data[0]
            np.testing.assert_array_equal(routed, direct)


def test_routed_coalesced_outputs_equal_solo_outputs_bitwise():
    router = _router(bucket_sizes=(4,))
    for name in router.models():
        images = _images(4, seed=5)
        handles = [router.submit(name, im) for im in images]  # one full bucket
        coalesced = [router.result(h).output for h in handles]
        solo = []
        for im in images:
            handle = router.submit(name, im)
            router.flush()
            solo.append(router.result(handle).output)
        for a, b in zip(coalesced, solo):
            np.testing.assert_array_equal(a, b)


def test_interleaved_models_do_not_perturb_each_other():
    # The same stream per model, with and without the other model's traffic
    # interleaved, yields identical outputs: no shared mutable state leaks
    # across servers.
    router = _router(bucket_sizes=(2,))
    images = _images(4, seed=9)
    alone = {}
    for name in router.models():
        handles = [router.submit(name, im) for im in images]
        router.flush()
        alone[name] = [router.result(h).output for h in handles]
    mixed_handles = {name: [] for name in router.models()}
    for im in images:
        for name in router.models():
            mixed_handles[name].append(router.submit(name, im))
    router.flush()
    for name in router.models():
        for a, h in zip(alone[name], mixed_handles[name]):
            np.testing.assert_array_equal(a, router.result(h).output)


# ---------------------------------------------------------------------------
# Registration and routing
# ---------------------------------------------------------------------------

def test_register_accepts_built_model_and_rejects_duplicates():
    router = Router(server_config=ServerConfig(bucket_sizes=(2,)))
    model = build_serving_model("mobilenet", scheme="scc", width_mult=0.25, seed=3)
    server = router.register("m", model, input_shapes=[INPUT])
    assert isinstance(server, Server) and server.name == "m"
    assert router.models() == ("m",)
    with pytest.raises(ValueError, match="already registered"):
        router.register("m", model, input_shapes=[INPUT])
    with pytest.raises(ValueError, match="build_kwargs"):
        router.register("m2", model, input_shapes=[INPUT], width_mult=0.5)


def test_submit_to_unknown_model_raises():
    router = _router()
    with pytest.raises(KeyError, match="no model"):
        router.submit("missing", _images(1)[0])
    with pytest.raises(KeyError, match="no model"):
        router.result(RouterHandle("missing", 0))


# ---------------------------------------------------------------------------
# Admission control: bounded per-model queue, shed on overload
# ---------------------------------------------------------------------------

def test_admission_control_sheds_on_overload_and_counts_rejections():
    router = _router(bucket_sizes=(8,), max_pending=3)
    images = _images(6, seed=2)
    accepted = [router.submit("narrow", im) for im in images[:3]]
    for im in images[3:]:
        with pytest.raises(QueueFull):
            router.submit("narrow", im)
    # The other model's queue is bounded independently.
    other = router.submit("wide", images[0])
    router.flush()
    assert all(router.result(h) is not None for h in accepted + [other])
    metrics = router.metrics()
    assert metrics.rejected == 3
    assert metrics.per_model["narrow"].rejected == 3
    assert metrics.per_model["wide"].rejected == 0
    assert metrics.completed == 4


def test_pending_count_tracks_queue_and_drains():
    router = _router(bucket_sizes=(4,), max_pending=8)
    server = router.server("narrow")
    for im in _images(3, seed=6):
        router.submit("narrow", im)
    assert server.pending_count() == 3
    router.flush()
    assert server.pending_count() == 0


# ---------------------------------------------------------------------------
# Metrics: per-model attribution over the shared cache
# ---------------------------------------------------------------------------

def test_per_model_cache_attribution_is_exact_under_mixed_traffic():
    router = _router(bucket_sizes=(2,))
    router.reset_metrics()
    # Drive only one model: the other's cache delta must stay zero even
    # though both share the process-wide cache.
    for im in _images(4, seed=7):
        router.submit("narrow", im)
    router.flush()
    metrics = router.metrics()
    narrow = metrics.per_model_cache["narrow"]
    wide = metrics.per_model_cache["wide"]
    assert narrow["hits"] > 0 and narrow["hit_rate"] == 1.0
    assert wide["hits"] == 0 and wide["misses"] == 0
    assert metrics.per_model["narrow"].plan_cache_hit_rate == 1.0
    assert metrics.aggregate_hit_rate == 1.0
    assert metrics.plan_builds == 0
    assert metrics.completed == 4
    assert metrics.throughput > 0
    payload = metrics.as_dict()
    assert payload["per_model"]["narrow"]["completed"] == 4


def test_metrics_survive_midwindow_cache_clear_without_negative_deltas():
    # Regression: clear_plan_cache() zeroes the cache's counters; metrics
    # windows opened before the clear used to report negative plan_builds
    # and garbage hit rates.  Attribution now restarts from the clear.
    from repro.backend import clear_plan_cache

    router = _router(bucket_sizes=(2,))
    router.reset_metrics()
    for im in _images(4, seed=21):
        router.submit("narrow", im)
    router.flush()
    clear_plan_cache()
    for im in _images(2, seed=22):
        router.submit("narrow", im)
    router.flush()
    metrics = router.metrics()
    assert metrics.plan_builds >= 0
    assert 0.0 <= metrics.aggregate_hit_rate <= 1.0
    narrow = metrics.per_model_cache["narrow"]
    assert narrow["builds"] >= 0 and 0.0 <= narrow["hit_rate"] <= 1.0
    served = metrics.per_model["narrow"]
    assert served.plan_builds >= 0
    assert 0.0 <= served.plan_cache_hit_rate <= 1.0
    assert metrics.completed == 6


def test_evictions_do_not_contaminate_per_model_window_deltas():
    # Regression: clear-detection once compared the non-monotonic "size"
    # gauge, so any eviction that shrank an owner's resident size below its
    # window snapshot wiped the base and turned window deltas into lifetime
    # totals (warmup + registration traffic included).
    router = _router(bucket_sizes=(2,))
    for im in _images(4, seed=23):        # pre-window traffic
        router.submit("narrow", im)
    router.flush()
    router.reset_metrics()
    old_maxsize = PLAN_CACHE.maxsize
    try:
        PLAN_CACHE.resize(2)              # mass eviction, zero new traffic
        metrics = router.metrics()
        narrow = metrics.per_model_cache["narrow"]
        assert narrow["hits"] == 0 and narrow["misses"] == 0
        assert narrow["hit_rate"] == 1.0
    finally:
        PLAN_CACHE.resize(old_maxsize)


def test_model_registered_mid_window_excludes_its_registration_builds():
    router = _router(bucket_sizes=(2,))
    router.reset_metrics()
    router.register("late", "mobilenet", input_shapes=[INPUT],
                    scheme="scc", width_mult=0.25, seed=13)
    metrics = router.metrics()
    late = metrics.per_model_cache["late"]
    # Registration pre-builds are not in-window serving traffic.
    assert late["builds"] == 0 and late["misses"] == 0
    assert late["hit_rate"] == 1.0
    for im in _images(2, seed=24):
        router.submit("late", im)
    router.flush()
    assert router.metrics().per_model["late"].completed == 2


def test_owner_stats_reconcile_with_global_after_serving():
    router = _router(bucket_sizes=(1, 2))
    for name in router.models():
        for im in _images(3, seed=8):
            router.submit(name, im)
    router.flush()
    owners = PLAN_CACHE.owner_stats()
    stats = plan_cache_stats()
    for key in ("hits", "misses", "builds", "evictions"):
        assert sum(acc[key] for acc in owners.values()) == stats[key], key
    assert sum(acc["size"] for acc in owners.values()) == stats["size"]


# ---------------------------------------------------------------------------
# Threaded mode + shutdown semantics through the router
# ---------------------------------------------------------------------------

def test_threaded_router_serves_concurrent_multi_model_clients():
    router = _router(bucket_sizes=(1, 2, 4), max_latency=0.02)
    router.reset_metrics()
    router.start()
    results = {}
    lock = threading.Lock()
    try:
        def client(name, seed):
            for i, im in enumerate(_images(4, seed=seed)):
                handle = router.submit(name, im)
                result = router.wait_result(handle, timeout=30.0)
                with lock:
                    results[(name, seed, i)] = result

        clients = [
            threading.Thread(target=client, args=(name, seed))
            for name in router.models() for seed in (0, 1)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
    finally:
        router.stop()
    assert len(results) == 16
    metrics = router.metrics()
    assert metrics.completed == 16
    assert metrics.plan_builds == 0  # warm plans + single-flight cache
    with pytest.raises(RuntimeError, match="already started"):
        router.start().start()
    router.stop()


def test_router_stop_without_drain_sheds_and_reports():
    router = _router(bucket_sizes=(8,))
    handles = [router.submit("narrow", im) for im in _images(3, seed=4)]
    router.stop(drain=False)
    assert all(router.result(h) is None for h in handles)
    assert all(router.was_shed(h) for h in handles)
    with pytest.raises(RequestShed):
        router.wait_result(handles[0], timeout=1.0)
    metrics = router.metrics()
    assert metrics.shed == 3 and metrics.completed == 0


def test_router_status_passthrough():
    from repro.serve import RequestStatus

    router = _router(bucket_sizes=(8,))
    pending = router.submit("narrow", _images(1, seed=50)[0])
    assert router.status(pending) == RequestStatus.PENDING
    router.flush()
    assert router.status(pending) == RequestStatus.DONE
    shed = router.submit("wide", _images(1, seed=51)[0])
    router.stop(drain=False)
    assert router.status(shed) == RequestStatus.SHED
    with pytest.raises(KeyError, match="never issued"):
        router.status(type(pending)("narrow", 10_000))


def test_router_forwards_deadlines_and_aggregates_slo_metrics():
    clock = [0.0]
    router = Router(
        server_config=ServerConfig(bucket_sizes=(4,), max_latency=10.0,
                                   shed_policy="deadline"),
        clock=lambda: clock[0], overlap=False,
    )
    router.register("narrow", "mobilenet", input_shapes=[INPUT],
                    scheme="scc", width_mult=0.25, seed=11)
    blown = router.submit("narrow", _images(1, seed=52)[0], deadline=1.0)
    kept = router.submit("narrow", _images(1, seed=53)[0], deadline=100.0)
    clock[0] = 2.0
    router.poll()                       # sheds the blown request only
    assert router.was_shed(blown) and not router.was_shed(kept)
    clock[0] = 12.0
    router.poll()                       # flushes the survivor on max_latency
    assert router.result(kept) is not None
    metrics = router.metrics()
    assert metrics.shed_deadline == 1
    assert metrics.deadline_misses == 0
    assert metrics.per_model["narrow"].shed_deadline == 1


def test_router_sets_cache_owner_floor():
    previous_floor = PLAN_CACHE.owner_floor
    try:
        Router(server_config=ServerConfig(bucket_sizes=(1,), max_latency=60.0),
               cache_owner_floor=2)
        assert PLAN_CACHE.owner_floor == 2
    finally:
        PLAN_CACHE.owner_floor = previous_floor


def test_router_rejects_negative_owner_floor():
    with pytest.raises(ValueError, match="cache_owner_floor"):
        Router(cache_owner_floor=-1)
