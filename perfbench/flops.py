"""Computed work of each registry kernel call: flops, bytes moved, geometry.

Every figure here is *computed* from operand shapes, never measured by a
counter: flops count one multiply-add as two operations, and bytes moved
count each operand read and each result written once, at the array's item
size, ignoring caches and temporaries.  Convolutions are labelled by the
geometry of their plan, the taxonomy of the paper's Figure 1.
"""
from __future__ import annotations

from math import prod

#: Conv geometry labels, in the order reports list them.
CONV_GEOMETRIES = ("depthwise", "pointwise", "grouped", "dense")


def conv_geometry(x_shape, w_shape, groups: int) -> str:
    """``depthwise`` (one input channel per group, groups == Cin),
    ``pointwise`` (1x1, ungrouped), ``grouped`` (any other groups > 1) or
    ``dense``."""
    cin = x_shape[1]
    kh, kw = w_shape[2], w_shape[3]
    if groups > 1 and groups == cin and w_shape[1] == 1:
        return "depthwise"
    if groups > 1:
        return "grouped"
    if kh == 1 and kw == 1:
        return "pointwise"
    return "dense"


def conv_forward_work(x_shape, w_shape, out_shape, itemsize: int = 4) -> tuple[float, float]:
    """(flops, bytes) of one conv forward: every output element is a dot
    product over ``Cin/groups * KH * KW`` taps."""
    taps = prod(w_shape[1:])
    flops = 2.0 * prod(out_shape) * taps
    nbytes = float(itemsize * (prod(x_shape) + prod(w_shape) + prod(out_shape)))
    return flops, nbytes


def conv_backward_work(
    x_shape, w_shape, out_shape, need_input_grad: bool, need_weight_grad: bool,
    itemsize: int = 4,
) -> tuple[float, float]:
    """(flops, bytes) of one conv backward.  Each requested gradient costs
    one forward's flops; the output gradient is read once, and the input
    gradient reads the weight and writes an input-sized array, the weight
    gradient reads the input and writes a weight-sized array."""
    fwd_flops, _ = conv_forward_work(x_shape, w_shape, out_shape, itemsize)
    flops = fwd_flops * (int(need_input_grad) + int(need_weight_grad))
    elems = prod(out_shape)
    if need_input_grad:
        elems += prod(w_shape) + prod(x_shape)
    if need_weight_grad:
        elems += prod(x_shape) + prod(w_shape)
    return flops, float(itemsize * elems)


def scc_forward_work(x_shape, cout: int, group_width: int, itemsize: int = 4) -> tuple[float, float]:
    """(flops, bytes) of one SCC forward: each of the ``Cout`` filters reads
    a ``group_width``-channel window per pixel (SCC is spatially 1x1)."""
    n, cin, h, w = x_shape
    out = n * cout * h * w
    flops = 2.0 * out * group_width
    nbytes = float(itemsize * (prod(x_shape) + cout * group_width + out))
    return flops, nbytes


def scc_backward_work(
    grad_shape, cin: int, group_width: int, need_input_grad: bool,
    need_weight_grad: bool, itemsize: int = 4,
) -> tuple[float, float]:
    """(flops, bytes) of one SCC backward from the output-gradient shape."""
    n, cout, h, w = grad_shape
    fwd_flops = 2.0 * n * cout * h * w * group_width
    flops = fwd_flops * (int(need_input_grad) + int(need_weight_grad))
    x_elems = n * cin * h * w
    w_elems = cout * group_width
    elems = prod(grad_shape)
    if need_input_grad:
        elems += w_elems + x_elems
    if need_weight_grad:
        elems += x_elems + w_elems
    return flops, float(itemsize * elems)


def pool_forward_work(kind: str, x_shape, out_shape, kernel: int, itemsize: int = 4) -> tuple[float, float]:
    """(flops, bytes) of one pooling forward: ``K*K - 1`` comparisons (max)
    or ``K*K`` additions (avg) per output element."""
    per_out = kernel * kernel - 1 if kind == "max" else kernel * kernel
    flops = float(prod(out_shape) * per_out)
    return flops, float(itemsize * (prod(x_shape) + prod(out_shape)))


def pool_backward_work(x_shape, out_shape, itemsize: int = 4) -> tuple[float, float]:
    """(flops, bytes) of one pooling backward: one add per output-gradient
    element, reading the output gradient and writing an input-sized array."""
    return float(prod(out_shape)), float(itemsize * (prod(x_shape) + prod(out_shape)))


def _itemsize(dtype) -> int:
    import numpy as np

    return np.dtype(dtype).itemsize


def kernel_work(op: str, args: tuple, kwargs: dict) -> tuple[str, float, float]:
    """Label, flops and bytes of one registry kernel call, from its arguments.

    ``op`` is the registry op name; the label adds the conv geometry
    (``conv2d.depthwise``) and is the op name otherwise.  Ops this module
    does not know report zero work under their own name.
    """
    if op in ("conv2d", "conv2d_backward", "conv2d_fused"):
        plan = args[0]
        plan = getattr(plan, "base", plan)  # a fused plan wraps its conv plan
        size = _itemsize(plan.dtype)
        label = f"{op}.{conv_geometry(plan.x_shape, plan.w_shape, plan.groups)}"
        if op == "conv2d_backward":
            flops, nbytes = conv_backward_work(
                plan.x_shape, plan.w_shape, plan.out_shape,
                kwargs.get("need_input_grad", True),
                kwargs.get("need_weight_grad", True), size,
            )
        else:
            flops, nbytes = conv_forward_work(plan.x_shape, plan.w_shape, plan.out_shape, size)
        return label, flops, nbytes
    if op == "scc_forward":
        plan, x = args[0], args[1]
        cfg = plan.config
        return op, *scc_forward_work(x.shape, cfg.out_channels, cfg.group_width, x.itemsize)
    if op == "scc_backward":
        plan, grad = args[0], args[2]
        cfg = plan.config
        return op, *scc_backward_work(
            grad.shape, cfg.in_channels, cfg.group_width,
            kwargs.get("need_input_grad", True),
            kwargs.get("need_weight_grad", True), grad.itemsize,
        )
    if op in ("maxpool2d", "avgpool2d"):
        plan = args[0]
        return op, *pool_forward_work(
            plan.kind, plan.x_shape, plan.out_shape, plan.kernel, _itemsize(plan.dtype)
        )
    if op in ("maxpool2d_backward", "avgpool2d_backward"):
        plan = args[0]
        return op, *pool_backward_work(plan.x_shape, plan.out_shape, _itemsize(plan.dtype))
    return op, 0.0, 0.0
