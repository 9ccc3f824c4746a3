"""The depthwise conv2d kernel against the ``reference`` loops.

Depthwise geometry (one input and one output channel per group) runs the
clipped tap-accumulate kernel of :mod:`repro.backend.numpy_backend`.  Its
forward and data gradient perform the reference's elementwise operations
in the reference's order, so they are asserted ``array_equal``; the weight
gradient is a different reduction and is asserted ``allclose``.
"""
import itertools

import numpy as np
import pytest

from repro.backend import conv2d_plan, get_kernel

BATCH_SPATIAL = ((1, 7, 9), (2, 6, 5))


def _run(backend, plan, x, w, grad, **flags):
    out, ctx = get_kernel("conv2d", backend)(plan, x, w)
    grad_x, grad_w = get_kernel("conv2d_backward", backend)(plan, ctx, grad, **flags)
    return out, ctx, grad_x, grad_w


def _check_against_reference(x, w, stride, padding):
    c = x.shape[1]
    plan = conv2d_plan(x.shape, w.shape, stride, padding, c, x.dtype)
    grad = np.random.default_rng(1).standard_normal(plan.out_shape).astype(x.dtype)
    ref_out, _, ref_gx, ref_gw = _run("reference", plan, x, w, grad)
    out, ctx, gx, gw = _run("numpy", plan, x, w, grad)
    assert ctx["x"] is x                      # no padded copy is saved
    assert out.dtype == ref_out.dtype and gx.dtype == ref_gx.dtype
    assert gx.shape == x.shape and gw.shape == w.shape
    assert np.array_equal(out, ref_out)
    assert np.array_equal(gx, ref_gx)
    tol = 1e-5 if x.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(gw, ref_gw, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 5, 13])
@pytest.mark.parametrize("stride,padding", list(itertools.product((1, 2, 3), (0, 1, 2))))
def test_depthwise_matches_reference(stride, padding, channels, dtype):
    rng = np.random.default_rng(stride * 10 + padding)
    for n, h, wd in BATCH_SPATIAL:
        x = rng.standard_normal((n, channels, h, wd)).astype(dtype)
        w = rng.standard_normal((channels, 1, 3, 3)).astype(dtype)
        _check_against_reference(x, w, stride, padding)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 2), (3, 1)])
def test_depthwise_non_contiguous_input_and_non_square_kernel(stride, padding):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((2, 10, 9, 16))
    x = base[:, ::2, :, ::2]                  # strided channels and columns
    assert not x.flags.c_contiguous
    _check_against_reference(x, rng.standard_normal((5, 1, 3, 3)), stride, padding)
    _check_against_reference(x, rng.standard_normal((5, 1, 2, 4)), stride, padding)


def test_depthwise_padding_beyond_kernel_leaves_border_zero():
    # padding 4 > kernel 3: the outermost output ring sees only padding.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 5))
    w = rng.standard_normal((3, 1, 3, 3))
    _check_against_reference(x, w, 1, 4)
    plan = conv2d_plan(x.shape, w.shape, 1, 4, 3, x.dtype)
    out, _ = get_kernel("conv2d", "numpy")(plan, x, w)
    assert not out[:, :, 0].any() and not out[:, :, :, -1].any()


@pytest.mark.parametrize("need_x,need_w", [(True, False), (False, True)])
def test_depthwise_backward_flags_skip_the_unneeded_gradient(need_x, need_w):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 2, 1, 4, x.dtype)
    grad = rng.standard_normal(plan.out_shape).astype(np.float32)
    _, _, full_gx, full_gw = _run("numpy", plan, x, w, grad)
    _, _, gx, gw = _run(
        "numpy", plan, x, w, grad, need_input_grad=need_x, need_weight_grad=need_w
    )
    assert (gx is None) != need_x and (gw is None) != need_w
    if need_x:
        assert np.array_equal(gx, full_gx)
    if need_w:
        assert np.array_equal(gw, full_gw)
