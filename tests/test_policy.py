"""ServingPolicy: the one config object every serving transport takes.

The contract: the policy validates once, its defaults are the sync
server's historical defaults, and a transport handed a policy uses it as
given — only an asyncio gateway built with no policy at all falls back to
its historical adaptive-bucket, deadline-shed defaults.
"""
import pytest

from repro.serve import AsyncGateway, ServingPolicy
from repro.serve.sched import SchedCore


# ---------------------------------------------------------------------------
# The shared dataclass
# ---------------------------------------------------------------------------

def test_policy_defaults_match_legacy_server_defaults():
    policy = ServingPolicy()
    assert policy.bucket_sizes == (1, 2, 4, 8)
    assert policy.max_latency == 0.01
    assert policy.max_pending is None
    assert policy.adaptive_buckets is False
    assert policy.shed_policy is None
    assert policy.retry is None
    assert policy.isolate_failures is True
    assert policy.breaker_window is None
    assert policy.degrade_after is None


def test_policy_validation():
    with pytest.raises(ValueError, match="bucket_sizes"):
        ServingPolicy(bucket_sizes=())
    with pytest.raises(ValueError, match="bucket_sizes"):
        ServingPolicy(bucket_sizes=(0, 2))
    with pytest.raises(ValueError, match="max_latency"):
        ServingPolicy(max_latency=0.0)
    with pytest.raises(ValueError, match="max_pending"):
        ServingPolicy(max_pending=0)
    with pytest.raises(ValueError, match="shed_policy"):
        ServingPolicy(shed_policy="oldest")
    with pytest.raises(ValueError, match="breaker_window"):
        ServingPolicy(breaker_window=0)
    with pytest.raises(ValueError, match="degrade_after"):
        ServingPolicy(degrade_after=0)


def test_policy_sorts_and_dedups_buckets():
    assert ServingPolicy(bucket_sizes=(8, 2, 2, 4)).bucket_sizes == (2, 4, 8)


def test_policy_bucket_helpers():
    policy = ServingPolicy(bucket_sizes=(2, 4, 8))
    assert policy.max_bucket == 8
    assert policy.bucket_for(1) == 2
    assert policy.bucket_for(3) == 4
    assert policy.bucket_for(9) == 8


def test_make_breaker_mirrors_knobs():
    assert ServingPolicy().make_breaker() is None
    breaker = ServingPolicy(
        breaker_window=16, breaker_threshold=0.25,
        breaker_min_samples=4, breaker_cooldown=2.0,
    ).make_breaker()
    assert breaker is not None
    assert breaker.window == 16
    assert breaker.threshold == 0.25


def test_make_core_mirrors_knobs():
    core = ServingPolicy(bucket_sizes=(2, 4), max_latency=0.02, max_pending=3,
                         adaptive_buckets=True, shed_policy="deadline").make_core()
    core.add_model("m")
    assert core.shed.policy == "deadline"
    assert core.fairness.mode == "drr" and core.fairness.quantum == 4.0
    assert core.bucket_target("m") == 2          # adaptive: no arrivals yet
    assert ServingPolicy().make_core().shed.policy == "newest"


# ---------------------------------------------------------------------------
# Transports accept a bare policy
# ---------------------------------------------------------------------------

def test_gateway_accepts_policy():
    policy = ServingPolicy(bucket_sizes=(1, 2))
    gateway = AsyncGateway(policy)
    assert gateway.config is policy
    # Policy semantics preserved: no deadline shedding unless asked for.
    assert gateway.core.shed.policy == "newest"


def test_gateway_shim_keeps_historical_defaults():
    # Only a gateway built with no policy keeps its historical defaults.
    gateway = AsyncGateway()
    default = gateway.config
    assert default.adaptive_buckets is True
    assert default.shed_policy == "deadline"
    assert default.bucket_sizes == ServingPolicy().bucket_sizes
    assert gateway.core.shed.policy == "deadline"
    assert gateway.core.fairness.mode == "drr"
    # A bare policy means what it says: gateway defaults do NOT leak in.
    lifted = AsyncGateway(ServingPolicy()).config
    assert lifted.adaptive_buckets is False
    assert lifted.shed_policy is None


# ---------------------------------------------------------------------------
# exec_estimate auto-calibration (SchedCore.observe_exec)
# ---------------------------------------------------------------------------

def test_observe_exec_seeds_then_ewma():
    core = SchedCore(bucket_sizes=(1,))
    core.add_model("m", exec_estimate=None)
    assert core.stats("m")["exec_auto"] is True
    assert core.stats("m")["exec_estimate"] == 0.0
    assert core.observe_exec("m", 0.10) == pytest.approx(0.10)   # seed
    est = core.observe_exec("m", 0.20, alpha=0.25)               # EWMA
    assert est == pytest.approx(0.10 + 0.25 * (0.20 - 0.10))
    assert core.stats("m")["exec_estimate"] == pytest.approx(est)


def test_observe_exec_static_estimates_never_move():
    core = SchedCore(bucket_sizes=(1,))
    core.add_model("m", exec_estimate=0.05)
    assert core.stats("m")["exec_auto"] is False
    assert core.observe_exec("m", 10.0) == 0.05
    assert core.stats("m")["exec_estimate"] == 0.05


def test_observe_exec_validation():
    core = SchedCore(bucket_sizes=(1,))
    core.add_model("m", exec_estimate=None)
    with pytest.raises(ValueError, match="seconds"):
        core.observe_exec("m", -1.0)
    with pytest.raises(ValueError):
        core.add_model("bad", exec_estimate=-0.1)
