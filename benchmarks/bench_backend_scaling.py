"""Backend scaling (beyond the paper's figures) — the ``threaded`` backend's
worker sweep on the conv + SCC workloads it shards.

Protocol, per workload (a grouped/depthwise conv2d or an SCC strategy,
forward + full backward on warm plans):

1. **Bitwise gate** — the ``threaded`` outputs and both gradients must be
   bit-identical to the ``numpy`` backend (asserted, not ``allclose``): the
   backend only shards along axes that preserve every reduction order.
2. **Measured baseline** — ``numpy`` wall time (warmup + repeats, median).
3. **Modelled sweep** — the run is traced with
   :func:`repro.backend.parallel.trace_parallel`, which executes every
   parallel region serially while recording per-task wall times (at the
   widest swept worker count, so regions that cut one chunk per worker
   cut enough tasks for every modelled count); the time
   at ``w`` workers is then ``serial_wall - Σ region_serial +
   Σ LPT-makespan(region tasks, w)``.  This is the gpusim move applied to
   the host pool: measure clean per-shard costs, model the parallel
   schedule — it is what the sweep *means* on a core-starved host (CI
   containers included), where concurrently-scheduled shards would just
   time-slice one core.  The reported modelled speedup is
   ``serial_wall / modelled_wall`` *within one trace*, so measurement
   noise between separate timing runs cancels out of the ratio (the
   bitwise gate guarantees the traced serial run does exactly the numpy
   baseline's work, reported alongside).
4. **Measured sweep** — the real pooled wall time at each worker count,
   reported next to the model (on an unloaded ``>= w``-core host the two
   agree; on this container it stays ~1x and says so via ``env.host_cpus``).

The gpusim column is ``DeviceSpec.parallel_speedup(w)`` — the Amdahl +
coordination curve whose constants are calibrated against the modelled
sweep — so simulated and measured speedups stay comparable.
"""
import numpy as np

from common import emit, full_mode
from repro.backend import (
    KernelStats,
    clear_plan_cache,
    conv2d_plan,
    get_kernel,
    get_num_workers,
    scc_plan,
    set_num_workers,
    tile_override,
    tile_slices,
)
from repro.backend.parallel import makespan, trace_parallel
from repro.core.channel_map import SCCConfig
from repro.gpusim import tesla_v100
from repro.utils import format_table, seed_all, time_callable

WORKER_SWEEP = (1, 2, 4, 8)
GATE_WORKERS = 4
GATE_SPEEDUP = 1.8
# Workloads the speedup gate applies to.  The dense conv forward and the
# dsxplore pull-GEMM ride the tiled canonical-order path (PR: tiled
# bitwise-stable contractions); the grouped conv and SCC forward shard
# across their natural group/cycle axes as before.
GATE_WORKLOADS = (
    "conv-gpw-large", "scc-dsxplore-large", "conv-dense-large", "pull-gemm-large",
)
# The tile x worker bitwise grid: every tile size (0 = untiled full-K) must
# give the same bits at every worker count as single-threaded numpy running
# the identical schedule — the canonical-reduction-order claim, asserted.
TILE_SWEEP = (8, 32, 128, 0)
TILE_WORKERS = (1, 2, 4)


class ConvWorkload:
    """Grouped/depthwise conv2d forward + backward on warm plans."""

    tiles = None  # shards over groups, not schedule tiles

    def __init__(self, name, n, cin, hw, cout, kernel, stride, padding, groups):
        self.name = name
        rng = np.random.default_rng(17)
        self.x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
        self.w = rng.standard_normal(
            (cout, cin // groups, kernel, kernel)
        ).astype(np.float32)
        self.plan = conv2d_plan(
            self.x.shape, self.w.shape, stride, padding, groups, self.x.dtype
        )
        rng2 = np.random.default_rng(18)
        self.grad = rng2.standard_normal(self.plan.out_shape).astype(np.float32)

    def run(self, backend: str):
        out, ctx = get_kernel("conv2d", backend)(self.plan, self.x, self.w)
        grad_x, grad_w = get_kernel("conv2d_backward", backend)(
            self.plan, ctx, self.grad
        )
        return out, grad_x, grad_w


class DenseConvWorkload:
    """Dense (``groups == 1``) conv2d forward — the lone-GEMM workload the
    schedule-table tiling exists to crack.  ``run`` times the forward only
    (what the gate names); ``run_full`` adds the backward for the bitwise
    grid so the tiled grad-weight path is covered too."""

    def __init__(self, name, n, cin, hw, cout, kernel, stride, padding):
        self.name = name
        rng = np.random.default_rng(23)
        self.x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
        self.w = rng.standard_normal((cout, cin, kernel, kernel)).astype(np.float32)
        self.plan = conv2d_plan(
            self.x.shape, self.w.shape, stride, padding, 1, self.x.dtype
        )
        self.grad = np.random.default_rng(24).standard_normal(
            self.plan.out_shape
        ).astype(np.float32)
        self.tiles = len(tile_slices(cin, self.plan.k_tile))

    def run(self, backend: str):
        out, _ = get_kernel("conv2d", backend)(self.plan, self.x, self.w)
        return (out,)

    def run_full(self, backend: str):
        out, ctx = get_kernel("conv2d", backend)(self.plan, self.x, self.w)
        grad_x, grad_w = get_kernel("conv2d_backward", backend)(
            self.plan, ctx, self.grad
        )
        return out, grad_x, grad_w


class PullWorkload:
    """The isolated dsxplore input-centric pull-GEMM (``grad_x = grad_out .
    W_full``), the second lone contraction the tiling parallelises."""

    def __init__(self, name, n, hw, cfg: SCCConfig):
        self.name = name
        self.plan = scc_plan(cfg)
        rng = np.random.default_rng(25)
        self.x = rng.standard_normal(
            (n, cfg.in_channels, hw, hw)
        ).astype(np.float32)
        self.w = rng.standard_normal(
            (cfg.out_channels, cfg.group_width)
        ).astype(np.float32)
        self.grad = np.random.default_rng(26).standard_normal(
            (n, cfg.out_channels, hw, hw)
        ).astype(np.float32)
        self.tiles = len(tile_slices(cfg.out_channels, self.plan.pull_tile))

    def run(self, backend: str):
        grad_x, _ = get_kernel("scc_backward", backend)(
            self.plan, {"x": self.x, "w": self.w}, self.grad,
            strategy="dsxplore", backward_design="input_centric",
            need_weight_grad=False, stats=KernelStats(),
        )
        return (grad_x,)


class SCCWorkload:
    """One SCC strategy forward + backward on warm plans."""

    tiles = None  # shards over cycle positions, not schedule tiles

    def __init__(self, name, strategy, n, hw, cfg: SCCConfig):
        self.name = name
        self.strategy = strategy
        self.plan = scc_plan(cfg)
        rng = np.random.default_rng(19)
        self.x = rng.standard_normal(
            (n, cfg.in_channels, hw, hw)
        ).astype(np.float32)
        self.w = rng.standard_normal(
            (cfg.out_channels, cfg.group_width)
        ).astype(np.float32)
        self.grad = np.random.default_rng(20).standard_normal(
            (n, cfg.out_channels, hw, hw)
        ).astype(np.float32)

    def run(self, backend: str):
        stats = KernelStats()
        out, saved = get_kernel("scc_forward", backend)(
            self.plan, self.x, self.w, strategy=self.strategy, stats=stats
        )
        grad_x, grad_w = get_kernel("scc_backward", backend)(
            self.plan, saved, self.grad, strategy=self.strategy, stats=stats
        )
        return out, grad_x, grad_w


def _workloads():
    n = 8 if full_mode() else 6
    hw = 32 if full_mode() else 24
    return [
        ConvWorkload("conv-gpw-large", n, 64, hw, 128,
                     kernel=3, stride=1, padding=1, groups=8),
        ConvWorkload("conv-dw-large", n, 96, hw, 96,
                     kernel=3, stride=2, padding=1, groups=96),
        DenseConvWorkload("conv-dense-large", n, 64, hw, 128,
                          kernel=3, stride=1, padding=1),
        SCCWorkload("scc-dsxplore-large", "dsxplore", n, hw,
                    SCCConfig(64, 128, 4, 0.25)),
        SCCWorkload("scc-convstack-large", "conv_stack", n, hw,
                    SCCConfig(64, 128, 4, 0.25)),
        PullWorkload("pull-gemm-large", n, hw, SCCConfig(64, 128, 4, 0.25)),
    ]


def _assert_bitwise(workload) -> None:
    """The gate the threaded backend exists under: bit-identical results."""
    ref = workload.run("numpy")
    got = workload.run("threaded")
    for name, a, b in zip(("out", "grad_x", "grad_w"), ref, got):
        assert np.array_equal(a, b), (
            f"threaded backend diverged from numpy on {workload.name}:{name}"
        )


def _assert_tiled_bitwise(workload) -> list[dict]:
    """Bitwise grid over TILE_SWEEP x TILE_WORKERS for one tiled workload.

    For each tile size the numpy reference runs the identical canonical
    schedule single-threaded; the threaded result must match it bit for bit
    at every worker count (different tile sizes are *different* canonical
    orders and are not compared to each other).
    """
    checked = []
    runner = getattr(workload, "run_full", workload.run)
    for tile in TILE_SWEEP:
        with tile_override(k_tile=tile, gradw_tile=tile, pull_tile=tile):
            ref = runner("numpy")
            for workers in TILE_WORKERS:
                set_num_workers(workers)
                got = runner("threaded")
                for name, a, b in zip(("out", "grad_x", "grad_w"), ref, got):
                    assert np.array_equal(a, b), (
                        f"tiled threaded run diverged from numpy on "
                        f"{workload.name}:{name} at tile={tile}, "
                        f"workers={workers}"
                    )
                checked.append({"tile": tile, "workers": workers})
    return checked


def _modeled_sweep(workload, repeats: int) -> dict:
    """Trace the threaded run serially; model every worker count from it."""
    set_num_workers(max(WORKER_SWEEP))  # cut regions for the widest pool
    best = None
    for _ in range(repeats):
        with trace_parallel() as regions:
            timer = time_callable(lambda: workload.run("threaded"),
                                  repeats=1, warmup=0)
        serial_wall = timer.minimum
        if best is None or serial_wall < best[0]:
            best = (serial_wall, regions)
    serial_wall, regions = best
    region_serial = sum(r.total_seconds for r in regions)
    outside = max(0.0, serial_wall - region_serial)
    modeled = {}
    for workers in WORKER_SWEEP:
        modeled[workers] = outside + sum(
            makespan(r.task_seconds, workers) for r in regions
        )
    return {"serial_wall": serial_wall, "modeled": modeled,
            "parallel_coverage": region_serial / serial_wall if serial_wall else 0.0}


def report_backend_scaling():
    seed_all(0)
    repeats = 5 if full_mode() else 3
    device = tesla_v100()
    old_workers = get_num_workers()
    rows, data_rows = [], []
    tile_grid: dict[str, list[dict]] = {}
    try:
        clear_plan_cache()
        for workload in _workloads():
            workload.run("numpy")  # warm every plan before timing anything
            _assert_bitwise(workload)
            if workload.tiles is not None:
                tile_grid[workload.name] = _assert_tiled_bitwise(workload)
            t_numpy = time_callable(
                lambda wl=workload: wl.run("numpy"), repeats=repeats, warmup=1
            ).median
            sweep = _modeled_sweep(workload, repeats=2)
            for workers in WORKER_SWEEP:
                set_num_workers(workers)
                measured = time_callable(
                    lambda wl=workload: wl.run("threaded"),
                    repeats=repeats, warmup=1,
                ).median
                modeled = sweep["modeled"][workers]
                gpusim = (
                    device.tiled_speedup(workers, workload.tiles)
                    if workload.tiles is not None
                    else device.parallel_speedup(workers)
                )
                row = {
                    "workload": workload.name,
                    "workers": workers,
                    "tiles": workload.tiles,
                    "numpy_ms": round(t_numpy * 1e3, 3),
                    "modeled_ms": round(modeled * 1e3, 3),
                    "speedup_modeled": round(sweep["serial_wall"] / modeled, 3),
                    "measured_wall_ms": round(measured * 1e3, 3),
                    "gpusim_speedup": round(gpusim, 3),
                    "parallel_coverage": round(sweep["parallel_coverage"], 3),
                }
                data_rows.append(row)
                rows.append([
                    workload.name, str(workers), f"{row['numpy_ms']:.2f}",
                    f"{row['modeled_ms']:.2f}", f"{row['speedup_modeled']:.2f}",
                    f"{row['measured_wall_ms']:.2f}",
                    f"{row['gpusim_speedup']:.2f}",
                ])
    finally:
        set_num_workers(old_workers)

    gate_rows = [r for r in data_rows if r["workers"] == GATE_WORKERS
                 and r["workload"] in GATE_WORKLOADS]
    for row in gate_rows:
        assert row["speedup_modeled"] >= GATE_SPEEDUP, (
            f"{row['workload']} modelled only {row['speedup_modeled']}x at "
            f"{GATE_WORKERS} workers (gate {GATE_SPEEDUP}x)"
        )

    table = format_table(
        ["Workload", "workers", "numpy (ms)", "threaded modeled (ms)",
         "modeled speedup", "threaded wall (ms)", "gpusim speedup"],
        rows,
        title="Threaded-backend scaling: measured numpy baseline vs "
              "traced-and-modelled worker sweep (bitwise-equal outputs "
              "asserted per workload)",
    )
    table += (
        "\nModeled = per-shard times traced serially, LPT-scheduled onto w"
        "\nlanes (valid on any host); wall = the real pool, which only"
        "\nspeeds up with >= w unloaded cores (see env.host_cpus in the"
        "\nJSON).  gpusim = DeviceSpec.parallel_speedup (tiled workloads:"
        "\ntiled_speedup at their schedule-table tile count), calibrated on"
        "\nthe modelled sweep so simulated and measured speedups stay"
        "\ncomparable."
    )
    data = {
        "worker_sweep": list(WORKER_SWEEP),
        "gate": {"workers": GATE_WORKERS, "min_speedup": GATE_SPEEDUP,
                 "workloads": list(GATE_WORKLOADS)},
        "bitwise_equal": True,
        "tile_grid_bitwise": tile_grid,
        "rows": data_rows,
    }
    return emit("backend_scaling", table, data=data), data


def test_backend_scaling_gate():
    _, data = report_backend_scaling()
    assert data["bitwise_equal"]
    at_gate = {r["workload"]: r for r in data["rows"]
               if r["workers"] == GATE_WORKERS}
    for name in GATE_WORKLOADS:
        assert at_gate[name]["speedup_modeled"] >= GATE_SPEEDUP, at_gate[name]
    # Every tiled workload passed the full tile x worker bitwise grid.
    for name in ("conv-dense-large", "pull-gemm-large"):
        grid = data["tile_grid_bitwise"][name]
        assert len(grid) == len(TILE_SWEEP) * len(TILE_WORKERS)
    # The gpusim curve describes the modelled sweep: every point within
    # 50% and the median drift within 25% (loose per point because the
    # traced shard times are noisy on a shared container; tight in the
    # median because the curve is one (s, c, combine) fit for all
    # workloads — tiled ones through the tiled_speedup variant).
    drifts = []
    for row in data["rows"]:
        if row["workers"] > 1 and row["workload"] in GATE_WORKLOADS:
            rel = abs(row["gpusim_speedup"] - row["speedup_modeled"])
            rel /= row["speedup_modeled"]
            assert rel < 0.50, row
            drifts.append(rel)
    drifts.sort()
    assert drifts[len(drifts) // 2] < 0.25, drifts


if __name__ == "__main__":
    report_backend_scaling()
