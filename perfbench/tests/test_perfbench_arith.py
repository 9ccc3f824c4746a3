"""Tests of the benchmark's own arithmetic: percentiles, span self time,
open-loop timing, SLO accounting and the computed kernel work."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import flops  # noqa: E402
import measure  # noqa: E402
from spans import Tracer  # noqa: E402


# -- percentile rule ------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 99.9) == 100
    assert measure.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, None),    # even the median would have only 9 beyond
    (20, 50.0),
    (39, 50.0),    # p75 leaves 9 beyond
    (40, 75.0),
    (99, 75.0),
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected is not None:
        assert measure.samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_ranks_not_values():
    # Ties do not shrink the count: it is rank arithmetic.
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(101, 90) == 10
    assert measure.samples_beyond(10, 50) == 5


# -- span self time -------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enabled = True

    def child(seconds):
        clock.now += seconds

    def parent():
        clock.now += 1.0                  # parent's own work
        tracer.span("child", child, 2.0)
        clock.now += 0.5
        tracer.span("child", child, 3.0)
        tracer.span("other", child, 0.25)

    tracer.span("parent", parent)
    spans = tracer.snapshot()["spans"]
    assert spans["parent"]["total"] == pytest.approx(6.75)
    assert spans["parent"]["self"] == pytest.approx(1.5)
    assert spans["child"]["calls"] == 2
    assert spans["child"]["self"] == pytest.approx(5.0)
    assert spans["other"]["self"] == pytest.approx(0.25)
    # Self times add up to the root's duration: nothing double counted.
    assert sum(row["self"] for row in spans.values()) == pytest.approx(6.75)
    assert sum(tracer.snapshot()["roots"].values()) == pytest.approx(6.75)


def test_disabled_tracer_records_nothing_and_reset_clears():
    clock = FakeClock()
    tracer = Tracer(clock)
    assert tracer.span("x", lambda: 3) == 3
    assert tracer.snapshot()["spans"] == {}
    tracer.enabled = True
    tracer.span("x", lambda: None)
    tracer.add_work("x", 10.0, 20.0, items=3)
    row = tracer.snapshot()["spans"]["x"]
    assert (row["calls"], row["flops"], row["bytes"], row["items"]) == (1, 10.0, 20.0, 3)
    tracer.reset()
    assert tracer.snapshot()["spans"] == {}


def test_span_records_even_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enabled = True

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.span("boom", boom)
    assert tracer.snapshot()["spans"]["boom"]["total"] == pytest.approx(1.0)


# -- open-loop timing -------------------------------------------------------------

def test_latency_and_lateness_are_timed_from_due_time():
    assert measure.lateness(due=10.0, sent=10.5) == pytest.approx(0.5)
    assert measure.lateness(due=10.0, sent=9.9) == 0.0      # early is not credited
    # A generator stall of 0.5 s is charged to the request it delayed.
    assert measure.due_latency(due=10.0, sent=10.5, service_latency=0.2) == pytest.approx(0.7)
    assert measure.due_latency(due=10.0, sent=10.0, service_latency=0.2) == pytest.approx(0.2)


def test_poisson_schedule_is_seeded_sorted_and_exact_in_count():
    a = measure.poisson_schedule(np.random.default_rng(3), 20.0, 10.0)
    b = measure.poisson_schedule(np.random.default_rng(3), 20.0, 10.0)
    c = measure.poisson_schedule(np.random.default_rng(4), 20.0, 10.0)
    assert a == b and a != c
    assert len(a) == len(c) == 200
    assert a == sorted(a) and 0.0 <= a[0] and a[-1] < 10.0


def test_times_are_normalised_pairwise_by_their_probe_readings():
    # A host twice as slow doubles both the time and its probe reading.
    assert measure.normalised([0.2, 0.4], [0.002, 0.004], 0.002) == pytest.approx([0.2, 0.2])
    assert measure.normalised([0.3], [0.001], 0.002) == pytest.approx([0.6])
    with pytest.raises(ValueError):
        measure.normalised([0.2, 0.4], [0.002], 0.002)
    with pytest.raises(ValueError):
        measure.normalised([0.2], [0.0], 0.002)


def test_median_is_taken_per_model_then_averaged():
    fast, slow = [0.02 + 0.001 * i for i in range(20)], [0.03 + 0.001 * i for i in range(20)]
    # The nearest-rank median of 20 samples is the 10th smallest.
    assert measure.per_model_median({"a": fast, "b": slow}) == pytest.approx((0.029 + 0.039) / 2)
    # A mix tilted towards one model moves a pooled median, not this one.
    assert measure.per_model_median({"a": fast * 3, "b": slow}) == pytest.approx(
        measure.per_model_median({"a": fast, "b": slow}))
    with pytest.raises(ValueError):
        measure.per_model_median({"a": fast, "b": []})


def test_report_gates_normalised_times_and_reports_raw_ones():
    import report
    import workloads as wl

    lats = [0.2 + 0.01 * i for i in range(20)]
    outcome = wl.Outcome("step", 16, [1.0, 3.0, 2.0], lats, 5.0, 20, 0)
    # The host ran at half the reference speed throughout.
    slow = 2 * wl.REFERENCE_S
    outcome.setup_norm = measure.normalised(outcome.setup_s, [slow] * 3, wl.REFERENCE_S)
    outcome.norm_by_model = {"mobilenet": measure.normalised(lats, [slow] * 20, wl.REFERENCE_S)}
    outcome.probe_s = [slow] * 23
    values = report.end_to_end("train-scc", outcome)
    assert values["setup_s"] == pytest.approx(1.0)
    assert values["latency_ms.p50"] == pytest.approx(1e3 * 0.29 / 2)
    assert values["img_per_s"] == pytest.approx(16 / (0.29 / 2))
    extra = report.reported("train-scc", outcome)
    assert extra["setup_s.raw"] == 2.0
    assert extra["latency_ms.p50.raw"] == pytest.approx(290.0)
    assert extra["probe_ms.p50"] == pytest.approx(1e3 * slow)
    assert extra["img_per_s.whole_run"] == pytest.approx(16 * 20 / 5.0)
    assert set(extra) <= set(report.REPORTED_UNITS)


def test_phase_goodput_counts_met_requests_over_the_phase_wall_time():
    # (due, latency from due): the last completion is at 3.0 + 1.0 = 4.0 s.
    records = [(0.5, 0.1), (1.0, None), (2.0, 0.3), (3.0, 1.0)]
    assert measure.phase_goodput(records, 0.25) == pytest.approx(1 / 4.0)
    assert measure.phase_goodput(records, 1.0) == pytest.approx(3 / 4.0)
    assert measure.phase_goodput([(1.0, None)], 0.25) == 0.0


# -- SLO accounting ------------------------------------------------------------------

def test_failed_or_refused_requests_count_as_misses():
    lats = [0.1, None, 0.3, 0.2]            # None: failed or refused
    assert measure.slo_met_frac(lats, 0.25) == pytest.approx(0.5)
    assert measure.slo_met_frac([None, None], 0.25) == 0.0
    assert measure.slo_met_frac([0.25], 0.25) == 1.0        # on the limit meets it
    with pytest.raises(ValueError):
        measure.slo_met_frac([], 0.25)


def test_sustained_rate_needs_the_share_in_the_last_third_too():
    steady = [0.1] * 30
    growing = [0.1] * 20 + [0.5] * 10       # 2/3 met overall, backlog at the end
    assert measure.sustains(steady, 0.25, 0.9)
    assert not measure.sustains(growing, 0.25, 0.6)
    assert measure.sustains(growing, 0.25, 0.0)
    phases = {10.0: steady, 20.0: steady, 40.0: growing}
    assert measure.max_sustained_rate(phases, 0.25, 0.9) == 20.0
    assert measure.max_sustained_rate({10.0: [None] * 5}, 0.25, 0.9) == 0.0


# -- computed kernel work -------------------------------------------------------------

@pytest.mark.parametrize("x, w, groups, label", [
    ((1, 8, 6, 6), (8, 1, 3, 3), 8, "depthwise"),
    ((1, 8, 6, 6), (4, 8, 1, 1), 1, "pointwise"),
    ((1, 8, 6, 6), (8, 4, 1, 1), 2, "grouped"),
    ((1, 3, 6, 6), (4, 3, 3, 3), 1, "dense"),
])
def test_conv_geometry(x, w, groups, label):
    assert flops.conv_geometry(x, w, groups) == label


def test_conv_work_by_hand():
    # x (2,4,8,8), w (6,2,3,3), groups 2, out (2,6,8,8):
    # 768 outputs x 18 taps x 2 = 27648 flops; (512+108+768) * 4 bytes.
    f, b = flops.conv_forward_work((2, 4, 8, 8), (6, 2, 3, 3), (2, 6, 8, 8))
    assert (f, b) == (27648.0, 5552.0)
    f, b = flops.conv_backward_work((2, 4, 8, 8), (6, 2, 3, 3), (2, 6, 8, 8), True, True)
    assert f == 2 * 27648.0
    assert b == 4 * (768 + (108 + 512) + (512 + 108))
    f, b = flops.conv_backward_work((2, 4, 8, 8), (6, 2, 3, 3), (2, 6, 8, 8), True, False)
    assert (f, b) == (27648.0, 4 * (768 + 108 + 512))


def test_scc_work_by_hand():
    # x (2,8,4,4), Cout 6, group width 4: 192 outputs x 4 x 2 = 1536 flops.
    assert flops.scc_forward_work((2, 8, 4, 4), 6, 4) == (1536.0, 4.0 * (256 + 24 + 192))
    f, b = flops.scc_backward_work((2, 6, 4, 4), 8, 4, True, True)
    assert f == 3072.0
    assert b == 4.0 * (192 + (24 + 256) + (256 + 24))


def test_pool_work_by_hand():
    # 2x2 max pool of (1,2,4,4): 8 outputs x 3 comparisons.
    assert flops.pool_forward_work("max", (1, 2, 4, 4), (1, 2, 2, 2), 2) == (24.0, 4.0 * 40)
    assert flops.pool_forward_work("avg", (1, 2, 4, 4), (1, 2, 2, 2), 2) == (32.0, 4.0 * 40)
    assert flops.pool_backward_work((1, 2, 4, 4), (1, 2, 2, 2)) == (8.0, 4.0 * 40)


def test_kernel_work_reads_real_plans():
    from repro.backend import conv2d_plan, pool2d_plan, scc_plan
    from repro.core.channel_map import SCCConfig

    plan = conv2d_plan((2, 8, 6, 6), (8, 1, 3, 3), 1, 1, 8, np.float32)
    label, f, b = flops.kernel_work("conv2d", (plan, None, None), {})
    assert label == "conv2d.depthwise"
    assert (f, b) == flops.conv_forward_work((2, 8, 6, 6), (8, 1, 3, 3), plan.out_shape)
    label, f, _ = flops.kernel_work(
        "conv2d_backward", (plan, None, None), {"need_input_grad": False})
    assert label == "conv2d_backward.depthwise"
    assert f == flops.conv_forward_work((2, 8, 6, 6), (8, 1, 3, 3), plan.out_shape)[0]

    splan = scc_plan(SCCConfig(8, 6, 2, 0.5))
    x = np.zeros((2, 8, 4, 4), np.float32)
    label, f, b = flops.kernel_work("scc_forward", (splan, x, None), {})
    assert label == "scc_forward"
    assert (f, b) == flops.scc_forward_work(x.shape, 6, splan.config.group_width)

    pplan = pool2d_plan("max", (1, 2, 4, 4), 2, 2, 0, np.float32)
    assert flops.kernel_work("maxpool2d", (pplan, None), {}) == ("maxpool2d", 24.0, 160.0)


# -- the spec and the report agree ------------------------------------------------------

def test_report_emits_exactly_the_declared_metrics():
    import report
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outcome = wl.Outcome("step", 16, [1.0, 2.0, 3.0], [0.1] * 50, 5.0, 50, 0)
    outcome.setup_norm = outcome.setup_s
    outcome.norm_by_model = {"mobilenet": outcome.latencies}
    assert set(report.end_to_end("train-scc", outcome)) == {
        m["name"] for m in spec["end_to_end"]}
    outcome.snapshot = {"spans": {}, "roots": {}}
    assert set(report.per_layer("train-scc", outcome)) == {
        m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    import run
    assert run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)


def test_comparison_refuses_runs_with_different_stamps():
    import compare

    env = {"git_sha": "a", "git_dirty": False, "numpy": "2.0", "affinity_cpus": 2}
    run = {"workload": "infer-b16", "trace": 0, "env": env, "values": {}}
    other_sha = dict(run, env=dict(env, git_sha="b", git_dirty=True))
    assert compare.refusal([run], [other_sha]) is None      # git fields differ by design
    more_cpus = dict(run, env=dict(env, affinity_cpus=4))
    assert "affinity_cpus" in compare.refusal([run], [more_cpus])
    traced = dict(run, trace=1)
    assert "mix" in compare.refusal([run], [traced])
