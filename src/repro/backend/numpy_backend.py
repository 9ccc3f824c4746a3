"""The kernel bodies: vectorised einsum / ``as_strided`` paths, sharded on the pool.

These are the "cuDNN primitives" of the reproduction.  Implementation idiom
(per the session HPC guides): input patch matrices are zero-copy strided
*views*, reductions are einsum calls over those views (no im2col buffer),
the data-grad scatter runs as ``KH*KW`` strided accumulations, and every
contraction fetches its ``np.einsum_path`` plan from the execution-plan
cache instead of re-searching per call.

SCC kernels implement all three of the paper's execution strategies behind
one registered op pair (``scc_forward`` / ``scc_backward``) parameterised by
``strategy``; see :mod:`repro.core.scc_kernels` for the paper mapping.

**One kernel set, two registrations.**  Every kernel is written once and
cuts its work into :func:`~repro.backend.parallel.parallel_map` regions.
The ``numpy`` backend registers each kernel under
:func:`~repro.backend.parallel.worker_limit` ``(1)``, so every region is a
single task run inline in the canonical order;
:mod:`repro.backend.threaded_backend` registers the same functions with no
cap, so regions shard over the worker pool (``REPRO_NUM_WORKERS``).  The
two backends run the same code, so they are bitwise-identical by
construction.  A failure inside a region therefore surfaces as
:class:`~repro.backend.parallel.ShardError` on both backends, naming the
region and shard, with the original exception as ``__cause__``.

**Sharding axes.**  Regions are only cut along axes where each task runs
the *identical* contraction calls on the identical operands and writes
disjoint outputs, so the bits never depend on the shard count (slicing an
einsum operand would change the BLAS blocking and perturb the last ulp):

- **depthwise** ``conv2d`` (one input and one output channel per group)
  is a clipped tap-accumulate kernel with no padded copies: each tap
  multiply-accumulates only the output cells whose input lands inside the
  unpadded ``x``, in canonical ``(i, j)`` order.  The forward and the data
  gradient shard chunks of **channels** (the same elementwise ops in the
  same order as the ``reference`` loops, so both are bitwise-equal to
  them); the weight gradient shards **taps**, each task reducing one tap
  over all channels (a channel-sliced reduction would change its
  reduction path with the shard width);
- other ``conv2d`` forward / weight-grad shard chunks of **groups**; at
  ``groups == 1`` the lone contraction is split into **schedule-table
  tiles** of its contracted axis whose partials combine in the canonical
  fixed-order pairwise tree (:func:`~repro.backend.plan.combine_partials_tree`).
  Under ``REPRO_PRECISION=fast`` a region that fans out accumulates the
  partials in completion order under a lock instead (allclose tier, never
  bitwise); a region that does not fan out always uses the tree;
- the ``conv2d`` data-grad tap scatter shards chunks of **disjoint tap
  lattices**: taps with equal ``(group, i % stride, j % stride)`` write the
  same strided lattice and different keys never touch the same cell, so
  lattices run concurrently while each applies its taps in canonical
  ``(i, j)`` order.  A single lattice (``groups == 1``, ``stride == 1``)
  computes its tap contractions in worker-sized waves and applies them in
  canonical order — one tap at a time on one worker;
- SCC kernels shard chunks of **cycle positions** (each owns the disjoint
  output interleave ``out[:, p::cd]``); the conv-stack data gradient
  applies its cross-position contributions in order, in waves like the
  taps.  The channel-stack gather and both push-style scatters
  (``np.add.at``) shard over **batch rows**.  The input-centric pull GEMM
  is tiled over output channels like dense ``conv2d``; only the
  channel-stack grouped GEMM stays one call (its contraction axis is the
  group width — too small to tile).

**Stats.**  Counters report *logical* quantities, so totals are the same
at any shard count and the gpusim crosscheck is backend-invariant.  Tasks
count through the locked :meth:`~repro.backend.stats.KernelStats.record`;
logical launch counts and the conflict-fraction arithmetic are recorded
once by the calling thread, because per-shard ``int()`` rounding of the
conflict estimate would drift from the single-call value.
"""
from __future__ import annotations

import functools
import threading

import numpy as np

from repro.backend.parallel import (
    fans_out,
    get_num_workers,
    parallel_map,
    shard_slices,
    worker_limit,
)
from repro.backend.plan import (
    Conv2dPlan,
    Pool2dPlan,
    SCCPlan,
    combine_partials_tree,
    planned_einsum,
)
from repro.backend.registry import register_kernel
from repro.backend.schedule import (
    effective_gradw_tile,
    effective_k_tile,
    effective_pull_tile,
    precision_tier,
    tile_slices,
)
from repro.backend.stats import KernelStats, scc_conflict_fraction


def _patch_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Zero-copy (N, C, Ho, Wo, KH, KW) sliding-window view of padded input."""
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"window of {kh}x{kw} (stride {stride}) produces empty output on "
            f"{h}x{w} input — input too small for this layer stack"
        )
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _pad2d(x: np.ndarray, padding: int, **kwargs) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), **kwargs
    )


# ---------------------------------------------------------------------------
# Region helpers
# ---------------------------------------------------------------------------

def _for_each(body, total: int, op: str) -> None:
    """``body(i)`` for ``i in range(total)``, one pool task per worker-sized chunk."""

    def run(chunk: slice) -> None:
        for i in range(chunk.start, chunk.stop):
            body(i)

    parallel_map(run, shard_slices(total, get_num_workers()), op=op)


def _ordered_apply(compute, apply, items, op: str) -> None:
    """``compute(item)`` on the pool, ``apply(item, result)`` in item order.

    Items run in worker-sized waves: a wave's results are computed
    concurrently, then applied serially before the next wave starts, so
    per-cell accumulation order is the serial order.  On one worker each
    result is applied as soon as it is computed.
    """
    items = list(items)
    size = get_num_workers()
    for start in range(0, len(items), size):
        wave = items[start : start + size]
        for item, result in zip(wave, parallel_map(compute, wave, op=op)):
            apply(item, result)


def _tiled(partial, slices: list, out_shape: tuple, dtype, op: str) -> np.ndarray:
    """Per-tile partials on the pool, combined per the active precision tier.

    Partials come back in submission order and fold through the canonical
    fixed-order pairwise tree.  Only a ``fast``-tier region that really
    fans out accumulates each partial into a shared zeros buffer under a
    lock, in completion order (allclose tier only).
    """
    if precision_tier() == "fast" and fans_out(len(slices)):
        out = np.zeros(out_shape, dtype=dtype)
        lock = threading.Lock()

        def run(sl: slice) -> None:
            part = partial(sl)
            with lock:
                np.add(out, part, out=out)

        parallel_map(run, slices, op=op)
        return out
    return combine_partials_tree(parallel_map(partial, slices, op=op))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def dense_fwd_partial(patches: np.ndarray, weight: np.ndarray, sl: slice) -> np.ndarray:
    """One input-channel tile of the dense forward contraction."""
    return planned_einsum("nchwij,ocij->nohw", patches[:, sl], weight[:, sl])


def dense_gradw_partial(grad: np.ndarray, patches: np.ndarray, sl: slice) -> np.ndarray:
    """One batch tile of the dense grad-weight contraction."""
    return planned_einsum("nohw,nchwij->ocij", grad[sl], patches[sl])


def pull_gemm_partial(grad_out: np.ndarray, w_full: np.ndarray, sl: slice) -> np.ndarray:
    """One contracted output-channel tile of the SCC pull-GEMM."""
    return planned_einsum("nohw,oc->nchw", grad_out[:, sl], w_full[sl])


def _dense_forward(plan: Conv2dPlan, patches: np.ndarray, weight: np.ndarray):
    """Dense (groups == 1) forward: input-channel tiles, canonical combine."""
    k_slices = tile_slices(plan.x_shape[1], effective_k_tile(plan.k_tile))
    if len(k_slices) == 1:
        return np.einsum("nchwij,ocij->nohw", patches, weight, optimize=plan.fwd_path)
    return _tiled(
        lambda sl: dense_fwd_partial(patches, weight, sl),
        k_slices, plan.out_shape, weight.dtype, op="conv2d.fwd.ktiles",
    )


def _dense_gradw(plan: Conv2dPlan, grad: np.ndarray, patches: np.ndarray):
    """Dense (groups == 1) grad-weight: batch tiles, canonical combine."""
    n_slices = tile_slices(grad.shape[0], effective_gradw_tile(plan.gradw_tile))
    if len(n_slices) == 1:
        return np.einsum("nohw,nchwij->ocij", grad, patches, optimize=plan.gradw_path)
    return _tiled(
        lambda sl: dense_gradw_partial(grad, patches, sl),
        n_slices, plan.w_shape, grad.dtype, op="conv2d.gradw.ntiles",
    )


def _is_depthwise(plan: Conv2dPlan) -> bool:
    """One input and one output channel per group: ``w_shape == (C, 1, kh, kw)``."""
    cout, cin_g = plan.w_shape[:2]
    return cin_g == 1 and cout == plan.groups


def _clip(tap: int, size_in: int, size_out: int, stride: int, padding: int):
    """(output slice, input slice) of one tap along one axis, or ``None``.

    Output index ``o`` reads input ``o * stride + tap - padding``; only the
    outputs whose input lands inside the unpadded extent are kept.
    """
    lo = max(0, -((tap - padding) // stride))
    hi = min(size_out, (size_in - 1 + padding - tap) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + tap - padding
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


@functools.lru_cache(maxsize=256)
def _clipped_taps(in_hw: tuple, out_hw: tuple, kernel: tuple, stride: int, padding: int):
    """Every tap that touches the unpadded input, in canonical ``(i, j)`` order,
    as ``(i, j, out_rows, out_cols, in_rows, in_cols)``."""
    taps = []
    for i in range(kernel[0]):
        rows = _clip(i, in_hw[0], out_hw[0], stride, padding)
        for j in range(kernel[1]):
            cols = _clip(j, in_hw[1], out_hw[1], stride, padding)
            if rows is not None and cols is not None:
                taps.append((i, j, rows[0], cols[0], rows[1], cols[1]))
    return tuple(taps)


def _depthwise_taps(plan: Conv2dPlan):
    return _clipped_taps(
        plan.x_shape[2:], plan.out_shape[2:], plan.kernel, plan.stride, plan.padding
    )


def _depthwise_forward(plan: Conv2dPlan, x: np.ndarray, weight: np.ndarray):
    """Depthwise forward: clipped tap multiply-accumulates, chunks of channels.

    Every output cell sums its in-bounds taps in canonical ``(i, j)`` order
    with the same elementwise ops as the ``reference`` loops (a padded tap
    would only add an exact zero), so the result is bitwise-equal to them.
    """
    taps = _depthwise_taps(plan)
    out = np.empty(plan.out_shape, dtype=np.result_type(x, weight))
    w = weight[:, 0]

    def run(sl: slice) -> None:
        o, xs, ws = out[:, sl], x[:, sl], w[sl]
        o[...] = 0  # zero-filled inside the region, so it shards too
        for i, j, rows, cols, in_rows, in_cols in taps:
            o[:, :, rows, cols] += ws[:, i, j, None, None] * xs[:, :, in_rows, in_cols]

    parallel_map(
        run, shard_slices(plan.x_shape[1], get_num_workers()), op="conv2d.depthwise.fwd"
    )
    return out.astype(x.dtype, copy=False), {"x": x, "w": weight}


def _depthwise_backward(plan, ctx, grad, need_input_grad, need_weight_grad):
    """Depthwise backward: the data-grad accumulates the forward's clipped
    taps over chunks of channels; the weight-grad reduces all channels of
    one tap per task, so each reduction is the same call at any shard count."""
    x, weight = ctx["x"], ctx["w"]
    taps = _depthwise_taps(plan)
    grad_w = grad_x = None
    if need_weight_grad:
        grad_w = np.zeros_like(weight)

        def run_gradw(t: int) -> None:
            i, j, rows, cols, in_rows, in_cols = taps[t]
            grad_w[:, 0, i, j] = np.einsum(
                "nchw,nchw->c", grad[:, :, rows, cols], x[:, :, in_rows, in_cols]
            )

        _for_each(run_gradw, len(taps), op="conv2d.depthwise.gradw")
    if need_input_grad:
        grad_x = np.empty(x.shape, dtype=x.dtype)
        w = weight[:, 0]

        def run_gradx(sl: slice) -> None:
            gx, g, ws = grad_x[:, sl], grad[:, sl], w[sl]
            gx[...] = 0
            for i, j, rows, cols, in_rows, in_cols in taps:
                gx[:, :, in_rows, in_cols] += ws[:, i, j, None, None] * g[:, :, rows, cols]

        parallel_map(
            run_gradx, shard_slices(x.shape[1], get_num_workers()),
            op="conv2d.depthwise.gradx",
        )
    return grad_x, grad_w


def conv2d(plan: Conv2dPlan, x: np.ndarray, weight: np.ndarray):
    if _is_depthwise(plan):
        return _depthwise_forward(plan, x, weight)
    kh, kw = plan.kernel
    xp = _pad2d(x, plan.padding)
    patches = _patch_view(xp, kh, kw, plan.stride)
    groups = plan.groups
    if groups == 1:
        out = _dense_forward(plan, patches, weight)
    else:
        out = np.empty(plan.out_shape, dtype=x.dtype)
        og = plan.out_shape[1] // groups
        cg = plan.x_shape[1] // groups

        def run_group(g: int) -> None:
            out[:, g * og : (g + 1) * og] = np.einsum(
                "nchwij,ocij->nohw",
                patches[:, g * cg : (g + 1) * cg],
                weight[g * og : (g + 1) * og],
                optimize=plan.fwd_path,
            )

        _for_each(run_group, groups, op="conv2d.fwd.groups")
    return out, {"xp": xp, "w": weight}


def conv2d_backward(
    plan: Conv2dPlan,
    ctx: dict,
    grad: np.ndarray,
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
):
    if _is_depthwise(plan):
        return _depthwise_backward(plan, ctx, grad, need_input_grad, need_weight_grad)
    xp, weight = ctx["xp"], ctx["w"]
    stride, padding, groups = plan.stride, plan.padding, plan.groups
    cout, _, kh, kw = weight.shape
    ho, wo = grad.shape[2], grad.shape[3]

    patches = _patch_view(xp, kh, kw, stride)
    cg = xp.shape[1] // groups
    og = cout // groups

    grad_w = np.zeros_like(weight) if need_weight_grad else None
    grad_xp = np.zeros_like(xp) if need_input_grad else None

    if need_weight_grad:
        if groups == 1:
            grad_w[:] = _dense_gradw(plan, grad, patches)
        else:

            def run_gradw(g: int) -> None:
                gsl = slice(g * og, (g + 1) * og)
                grad_w[gsl] = np.einsum(
                    "nohw,nchwij->ocij", grad[:, gsl], patches[:, g * cg : (g + 1) * cg],
                    optimize=plan.gradw_path,
                )

            _for_each(run_gradw, groups, op="conv2d.gradw.groups")

    if need_input_grad:
        # The data gradient scatters as KH*KW strided accumulations.

        def tap_contrib(tap: tuple) -> np.ndarray:
            g, i, j = tap
            gsl = slice(g * og, (g + 1) * og)
            return np.einsum(
                "nohw,oc->nchw", grad[:, gsl], weight[gsl][:, :, i, j],
                optimize=plan.gradx_path,
            )

        def tap_apply(tap: tuple, contrib: np.ndarray) -> None:
            g, i, j = tap
            grad_xp[
                :, g * cg : (g + 1) * cg,
                i : i + ho * stride : stride,
                j : j + wo * stride : stride,
            ] += contrib

        def lattice_taps(lattice: tuple) -> list[tuple]:
            g, a, b = lattice  # canonical (i, j) order within the lattice
            return [(g, i, j) for i in range(a, kh, stride) for j in range(b, kw, stride)]

        # Disjoint tap lattices: equal (group, i % stride, j % stride) means
        # the same destination cells; distinct keys never share a cell.
        lattices = [
            (g, a, b)
            for g in range(groups)
            for a in range(min(stride, kh))
            for b in range(min(stride, kw))
        ]
        if len(lattices) > 1:

            def run_lattice(index: int) -> None:
                for tap in lattice_taps(lattices[index]):
                    tap_apply(tap, tap_contrib(tap))

            _for_each(run_lattice, len(lattices), op="conv2d.gradx.tapgroups")
        else:
            _ordered_apply(
                tap_contrib, tap_apply, lattice_taps(lattices[0]), op="conv2d.gradx.taps"
            )

    grad_x = None
    if need_input_grad:
        if padding:
            grad_x = np.ascontiguousarray(
                grad_xp[:, :, padding:-padding, padding:-padding]
            )
        else:
            grad_x = grad_xp
    return grad_x, grad_w


# ---------------------------------------------------------------------------
# Pooling: memory-bound single-pass kernels, no parallel region
# ---------------------------------------------------------------------------

def maxpool2d(plan: Pool2dPlan, x: np.ndarray):
    k = plan.kernel
    xp = _pad2d(x, plan.padding, constant_values=-np.inf)
    patches = _patch_view(xp, k, k, plan.stride)
    n, c, ho, wo = patches.shape[:4]
    flat = patches.reshape(n, c, ho, wo, k * k)
    argmax = flat.argmax(axis=-1)
    return flat.max(axis=-1), {"argmax": argmax}


def maxpool2d_backward(plan: Pool2dPlan, ctx: dict, grad: np.ndarray):
    k, stride, padding = plan.kernel, plan.stride, plan.padding
    argmax = ctx["argmax"]
    gxp = np.zeros(plan.padded_shape, dtype=grad.dtype)
    ki = argmax // k
    kj = argmax % k
    ni, ci, yi, xi = np.indices(grad.shape, sparse=False)
    rows = yi * stride + ki
    cols = xi * stride + kj
    np.add.at(gxp, (ni, ci, rows, cols), grad)
    if padding:
        gxp = np.ascontiguousarray(gxp[:, :, padding:-padding, padding:-padding])
    return gxp


def avgpool2d(plan: Pool2dPlan, x: np.ndarray):
    n, c, h, w = x.shape
    k = plan.kernel
    out = x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
    return out, {}


def avgpool2d_backward(plan: Pool2dPlan, ctx: dict, grad: np.ndarray):
    k = plan.kernel
    g = np.repeat(np.repeat(grad, k, axis=2), k, axis=3) * (1.0 / (k * k))
    return g.astype(grad.dtype)


# ---------------------------------------------------------------------------
# SCC: the three execution strategies (paper Section IV)
# ---------------------------------------------------------------------------

def _count_push_scatter(plan: SCCPlan, stats: KernelStats, total_updates: int) -> None:
    cfg = plan.config
    fraction = scc_conflict_fraction(
        cfg.in_channels, cfg.out_channels, cfg.group_width
    )
    stats.record(
        scatter_adds=total_updates,
        conflicting_scatter_adds=int(total_updates * fraction),
    )


def _push_scatter(plan: SCCPlan, grad_x: np.ndarray, contrib: np.ndarray, op: str) -> None:
    """``grad_x[n, windows] += contrib`` with ``np.add.at`` (conflicts serialised),
    sharded over batch rows."""

    def scatter(sl: slice) -> None:
        cs = contrib[sl]
        idx_n = np.arange(cs.shape[0])[:, None, None]
        np.add.at(grad_x[sl], (idx_n, plan.windows[None, :, :]), cs)

    parallel_map(scatter, shard_slices(contrib.shape[0], get_num_workers()), op=op)


def _channel_stack_forward(plan, x, w, stats):
    # Steps 1-3 of Pytorch-Base: gather every window into the
    # (N, Cout, gw, H, W) stacked tensor, in the memory layout the fancy
    # index x[:, windows] produces (window axes outermost).
    n = x.shape[0]
    cout, gw = plan.windows.shape
    stacked = np.empty((cout, gw, n) + x.shape[2:], dtype=x.dtype).transpose(2, 0, 1, 3, 4)

    def gather(sl: slice) -> None:
        stacked[sl] = x[sl][:, plan.windows]

    parallel_map(gather, shard_slices(n, get_num_workers()), op="scc.channel_stack.gather")
    # Step 4: grouped convolution with groups == Cout.
    stats.record(bytes_materialized=stacked.nbytes, gemm_calls=1)
    out = planned_einsum("noghw,og->nohw", stacked, w)
    return out, {"x": x, "w": w, "stacked": stacked}


def _channel_stack_backward(plan, saved, grad_out, need_x, need_w, stats):
    w, stacked = saved["w"], saved["stacked"]
    grad_x = grad_w = None
    if need_w:
        grad_w = planned_einsum("nohw,noghw->og", grad_out, stacked)
        stats.record(gemm_calls=1)
    if need_x:
        # Reverse of the concat/extract: scatter the stacked gradient back,
        # with conflicts wherever windows overlap.
        grad_stacked = planned_einsum("nohw,og->noghw", grad_out, w)
        stats.record(bytes_materialized=grad_stacked.nbytes, gemm_calls=1)
        grad_x = np.zeros_like(saved["x"])
        _push_scatter(plan, grad_x, grad_stacked, op="scc.channel_stack.scatter")
        _count_push_scatter(plan, stats, grad_stacked.size)
    return grad_x, grad_w


def _conv_stack_forward(plan, x, w, stats):
    cfg = plan.config
    cd = plan.cyclic_dist
    n, _, h, wdt = x.shape
    out = np.empty((n, cfg.out_channels, h, wdt), dtype=x.dtype)
    gathered: list = [None] * cd

    def run(p: int) -> None:
        win = x[:, plan.cycle_index[p]]               # (N, gw, H, W) copy
        gathered[p] = win
        out[:, p::cd] = planned_einsum("nghw,og->nohw", win, w[p::cd])
        stats.record(bytes_materialized=win.nbytes, gemm_calls=1)

    _for_each(run, cd, op="scc.conv_stack.fwd")
    return out, {"x": x, "w": w, "gathered": gathered}


def _conv_stack_backward(plan, saved, grad_out, need_x, need_w, stats):
    cd = plan.cyclic_dist
    w, gathered = saved["w"], saved["gathered"]
    grad_x = np.zeros_like(saved["x"]) if need_x else None
    grad_w = np.empty_like(w) if need_w else None

    def compute(p: int):
        g = grad_out[:, p::cd]
        if need_w:
            grad_w[p::cd] = planned_einsum("nohw,nghw->og", g, gathered[p])
            stats.record(gemm_calls=1)
        if need_x:
            contrib = planned_einsum("nohw,og->nghw", g, w[p::cd])
            stats.record(bytes_materialized=contrib.nbytes, gemm_calls=1)
            return contrib
        return None

    def apply(p: int, contrib: np.ndarray) -> None:
        # Within one cycle position the window channels are distinct, so a
        # fancy-index += is conflict-free; conflicts across cycle positions
        # are resolved by applying positions in order (framework-level
        # serialisation, the paper's point about composed-operator
        # implementations).
        grad_x[:, plan.cycle_index[p]] += contrib
        stats.record(scatter_adds=contrib.size)

    if need_x:
        _ordered_apply(compute, apply, range(cd), op="scc.conv_stack.bwd")
    else:
        _for_each(compute, cd, op="scc.conv_stack.bwd")
    return grad_x, grad_w


def _dsxplore_forward(plan, x, w, stats):
    cfg = plan.config
    cd = plan.cyclic_dist
    n, _, h, wdt = x.shape
    out = np.zeros((n, cfg.out_channels, h, wdt), dtype=x.dtype)

    def run(p: int) -> None:
        wp = w[p::cd]
        for chan_slice, col_slice in plan.segments[p]:
            # x[:, chan_slice] is a view — zero bytes materialised.
            out[:, p::cd] += planned_einsum(
                "nchw,oc->nohw", x[:, chan_slice], wp[:, col_slice]
            )
            stats.record(gemm_calls=1)

    _for_each(run, cd, op="scc.dsxplore.fwd")
    return out, {"x": x, "w": w}


def _dsxplore_backward(plan, saved, grad_out, need_x, need_w, stats, backward_design):
    if backward_design not in ("input_centric", "output_centric"):
        raise ValueError(
            f"backward_design must be 'input_centric' or 'output_centric', "
            f"got {backward_design!r}"
        )
    x, w = saved["x"], saved["w"]
    cd = plan.cyclic_dist
    grad_w = None
    if need_w:
        grad_w = np.empty_like(w)

        def run_gradw(p: int) -> None:
            g = grad_out[:, p::cd]
            for chan_slice, col_slice in plan.segments[p]:
                grad_w[p::cd, col_slice] = planned_einsum(
                    "nohw,nchw->oc", g, x[:, chan_slice]
                )
                stats.record(gemm_calls=1)

        _for_each(run_gradw, cd, op="scc.dsxplore.gradw")
    grad_x = None
    if need_x:
        if backward_design == "input_centric":
            # One dense pull GEMM, zero scatter updates.  The W_full scratch
            # workspace comes from the plan cache (refilled, not rebuilt).
            w_full = plan.w_full(w)
            stats.record(bytes_materialized=w_full.nbytes)
            o_slices = tile_slices(w_full.shape[0], effective_pull_tile(plan.pull_tile))
            if len(o_slices) == 1:
                grad_x = planned_einsum("nohw,oc->nchw", grad_out, w_full)
            else:
                grad_x = _tiled(
                    lambda sl: pull_gemm_partial(grad_out, w_full, sl),
                    o_slices,
                    (grad_out.shape[0], w_full.shape[1]) + grad_out.shape[2:],
                    np.result_type(grad_out.dtype, w_full.dtype),
                    op="scc.dsxplore.pulltiles",
                )
            stats.record(gemm_calls=1)  # one logical pull contraction
            grad_x = grad_x.astype(x.dtype, copy=False)
        else:
            # Output-centric (*DSXplore-Var*): push with serialised conflicts.
            contrib = planned_einsum("nohw,og->noghw", grad_out, w)
            stats.record(bytes_materialized=contrib.nbytes, gemm_calls=1)
            grad_x = np.zeros_like(x)
            _push_scatter(plan, grad_x, contrib, op="scc.dsxplore.scatter")
            _count_push_scatter(plan, stats, contrib.size)
    return grad_x, grad_w


_FORWARD = {
    "channel_stack": _channel_stack_forward,
    "conv_stack": _conv_stack_forward,
    "dsxplore": _dsxplore_forward,
}

_BACKWARD = {
    "channel_stack": _channel_stack_backward,
    "conv_stack": _conv_stack_backward,
}


def scc_forward(
    plan: SCCPlan,
    x: np.ndarray,
    w: np.ndarray,
    *,
    strategy: str = "dsxplore",
    stats: KernelStats | None = None,
):
    try:
        fwd = _FORWARD[strategy]
    except KeyError:
        raise ValueError(
            f"unknown SCC strategy {strategy!r}; available: {sorted(_FORWARD)}"
        ) from None
    return fwd(plan, x, w, stats if stats is not None else KernelStats())


def scc_backward(
    plan: SCCPlan,
    saved: dict,
    grad_out: np.ndarray,
    *,
    strategy: str = "dsxplore",
    backward_design: str = "input_centric",
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
    stats: KernelStats | None = None,
):
    stats = stats if stats is not None else KernelStats()
    if strategy == "dsxplore":
        return _dsxplore_backward(
            plan, saved, grad_out, need_input_grad, need_weight_grad, stats,
            backward_design,
        )
    try:
        bwd = _BACKWARD[strategy]
    except KeyError:
        raise ValueError(
            f"unknown SCC strategy {strategy!r}; available: "
            f"{sorted(_BACKWARD) + ['dsxplore']}"
        ) from None
    return bwd(plan, saved, grad_out, need_input_grad, need_weight_grad, stats)


#: Every kernel of this module by registry op name.  ``numpy`` registers
#: each under a one-worker cap (below); ``threaded`` registers them as-is.
KERNELS = {
    "conv2d": conv2d,
    "conv2d_backward": conv2d_backward,
    "maxpool2d": maxpool2d,
    "maxpool2d_backward": maxpool2d_backward,
    "avgpool2d": avgpool2d,
    "avgpool2d_backward": avgpool2d_backward,
    "scc_forward": scc_forward,
    "scc_backward": scc_backward,
}


def _one_worker(kernel):
    @functools.wraps(kernel)
    def serial(*args, **kwargs):
        with worker_limit(1):
            return kernel(*args, **kwargs)

    return serial


for _op, _kernel in KERNELS.items():
    register_kernel(_op, "numpy")(_one_worker(_kernel))
