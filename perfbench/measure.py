"""The benchmark's own arithmetic: percentiles, open-loop timing and SLOs.

Kept free of any ``repro`` import so it can be tested on its own.
"""
from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples (the
    small epsilon keeps ``99.9% of 10000`` at rank 9990, not 9991)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p``-th percentile (counting ranks, so ties do not matter)."""
    return n - _rank(n, p)


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> float | None:
    """The highest percentile of ``ladder`` with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when ``n`` supports none of them."""
    for p in ladder:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def normalised(times: Sequence[float], probes: Sequence[float], reference: float) -> list[float]:
    """Each time scaled to the host speed at which the probe takes
    ``reference`` seconds: ``time * reference / probe``, pairwise."""
    if len(times) != len(probes):
        raise ValueError("every time needs its own probe reading")
    if any(p <= 0.0 for p in probes):
        raise ValueError("probe readings must be positive")
    return [t * reference / p for t, p in zip(times, probes)]


def per_model_median(by_model: dict[str, Sequence[float]]) -> float:
    """Mean over models of each model's (nearest-rank) median.

    Taking the median per model first keeps a seeded model mix from moving
    the figure: over a pooled sample, a few more requests of one model pull
    the median towards that model's times.
    """
    if not by_model or any(not v for v in by_model.values()):
        raise ValueError("per_model_median needs samples for every model")
    return statistics.fmean(percentile(v, 50.0) for v in by_model.values())


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# -- open-loop timing ---------------------------------------------------------

def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request: send time minus due time,
    never negative (an early send is not credited)."""
    return max(0.0, sent - due)


def due_latency(due: float, sent: float, service_latency: float) -> float:
    """Latency of one request timed from when it was *due*.

    ``service_latency`` is what the server measured from submit to
    completion; adding the generator's lateness charges a generator stall
    to every request it delayed, instead of hiding it.
    """
    return lateness(due, sent) + service_latency


def poisson_schedule(rng, rate: float, seconds: float) -> list[float]:
    """Due times of a Poisson process at ``rate`` over ``[0, seconds)``,
    conditioned on exactly ``round(rate * seconds)`` arrivals: sorted
    uniform times, so every seed offers the same load."""
    n = int(round(rate * seconds))
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=n))


# -- SLO accounting -------------------------------------------------------------

def slo_met_frac(latencies: Sequence[float | None], limit: float) -> float:
    """Share of requests *sent* that completed within ``limit``.

    A ``None`` latency is a request that failed or was refused; it counts
    as sent and as a miss.
    """
    if not latencies:
        raise ValueError("no requests sent")
    met = sum(1 for lat in latencies if lat is not None and lat <= limit)
    return met / len(latencies)


def phase_goodput(records: Sequence[tuple[float, float | None]], limit: float) -> float:
    """Requests completed within ``limit`` of their due time, per second of
    the phase's wall time.

    ``records`` holds ``(due, latency)`` pairs, ``due`` relative to the
    phase's schedule origin and ``latency`` timed from it (``None`` for a
    failed or refused request).  The wall time runs from the origin to the
    last completion, so a slow drain lowers the figure.
    """
    done = [due + lat for due, lat in records if lat is not None]
    if not done or max(done) <= 0.0:
        return 0.0
    met = sum(1 for _, lat in records if lat is not None and lat <= limit)
    return met / max(done)


def sustains(latencies: Sequence[float | None], limit: float, share: float) -> bool:
    """Whether one fixed-rate phase meets the SLO without a growing backlog:
    the stated ``share`` meets ``limit`` over the whole phase *and* over its
    last third, where a growing queue shows first."""
    tail = latencies[len(latencies) - len(latencies) // 3:]
    return slo_met_frac(latencies, limit) >= share and (
        not tail or slo_met_frac(tail, limit) >= share
    )


def max_sustained_rate(phases: dict[float, Sequence[float | None]], limit: float, share: float) -> float:
    """Highest offered rate whose phase :func:`sustains` the SLO (0 if none)."""
    ok = [rate for rate, lats in phases.items() if sustains(lats, limit, share)]
    return max(ok, default=0.0)
