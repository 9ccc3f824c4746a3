"""Convolution / pooling / batch-norm kernel tests against naive references."""
import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor.conv_ops import AvgPool2d, BatchNorm2d, Conv2d, MaxPool2d, conv_out_size
from repro.utils import seed_all

from tests.helpers import assert_grad_close, numerical_grad


@pytest.fixture(autouse=True)
def _seed():
    seed_all(11)


def naive_conv2d(x, w, stride=1, padding=0, groups=1):
    """O(everything) reference convolution."""
    n, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (x.shape[2] - kh) // stride + 1
    wo = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    og = cout // groups
    for b in range(n):
        for o in range(cout):
            g = o // og
            for y in range(ho):
                for xx in range(wo):
                    patch = x[b, g * cin_g : (g + 1) * cin_g,
                              y * stride : y * stride + kh,
                              xx * stride : xx * stride + kw]
                    out[b, o, y, xx] = (patch * w[o]).sum()
    return out


@pytest.mark.parametrize(
    "cin,cout,k,stride,padding,groups",
    [
        (3, 5, 3, 1, 1, 1),
        (4, 6, 3, 2, 1, 2),
        (4, 4, 3, 1, 1, 4),   # depthwise
        (6, 8, 1, 1, 0, 1),   # pointwise
        (6, 8, 1, 1, 0, 2),   # grouped pointwise
        (2, 3, 5, 2, 2, 1),
    ],
)
def test_conv_forward_matches_naive(cin, cout, k, stride, padding, groups):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, cin, 7, 7)).astype(np.float64)
    w = rng.standard_normal((cout, cin // groups, k, k)).astype(np.float64)
    fn = Conv2d()
    out = fn.forward(x, w, stride=stride, padding=padding, groups=groups)
    np.testing.assert_allclose(out, naive_conv2d(x, w, stride, padding, groups), rtol=1e-8)


@pytest.mark.parametrize(
    "stride,padding,groups", [(1, 1, 1), (2, 1, 2), (1, 0, 4), (2, 1, 4)]
)
def test_conv_backward_numerical(stride, padding, groups):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4, 5, 5))
    w = rng.standard_normal((4, 4 // groups, 3, 3))
    fn = Conv2d()
    out = fn.forward(x, w, stride=stride, padding=padding, groups=groups)
    fn.needs_input_grad = (True, True)
    gx, gw = fn.backward(2 * out)

    def loss():
        c = Conv2d()
        return float((c.forward(x, w, stride=stride, padding=padding, groups=groups) ** 2).sum())

    assert_grad_close(gx, numerical_grad(loss, x), name="conv/x")
    assert_grad_close(gw, numerical_grad(loss, w), name="conv/w")


def test_conv_shape_validation():
    fn = Conv2d()
    x = np.zeros((1, 4, 5, 5))
    with pytest.raises(ValueError, match="groups"):
        fn.forward(x, np.zeros((6, 2, 3, 3)), groups=3)
    with pytest.raises(ValueError, match="input channels per group"):
        fn.forward(x, np.zeros((4, 3, 3, 3)), groups=2)


def test_conv_out_size():
    assert conv_out_size(32, 3, 1, 1) == 32
    assert conv_out_size(32, 3, 2, 1) == 16
    assert conv_out_size(7, 7, 1, 0) == 1
    with pytest.raises(ValueError, match="empty output"):
        conv_out_size(2, 5, 1, 0)


def test_maxpool_matches_naive():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 6, 6))
    fn = MaxPool2d()
    out = fn.forward(x, kernel=2, stride=2)
    expected = x.reshape(2, 3, 3, 2, 3, 2).max(axis=(3, 5))
    np.testing.assert_allclose(out, expected)


def test_maxpool_overlapping_with_padding_backward():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2, 7, 7))
    fn = MaxPool2d()
    out = fn.forward(x, kernel=3, stride=2, padding=1)
    assert out.shape == (2, 2, 4, 4)
    fn.needs_input_grad = (True,)
    (gx,) = fn.backward(np.ones_like(out))

    def loss():
        c = MaxPool2d()
        return float(c.forward(x, kernel=3, stride=2, padding=1).sum())

    assert_grad_close(gx, numerical_grad(loss, x, eps=1e-6), name="maxpool/x")


def test_avgpool_forward_backward():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 4))
    fn = AvgPool2d()
    out = fn.forward(x, kernel=2)
    np.testing.assert_allclose(out, x.reshape(2, 3, 2, 2, 2, 2).mean(axis=(3, 5)))
    fn.needs_input_grad = (True,)
    (gx,) = fn.backward(np.ones_like(out))
    np.testing.assert_allclose(gx, np.full_like(x, 0.25))


def test_avgpool_rejects_non_divisible():
    fn = AvgPool2d()
    with pytest.raises(ValueError, match="not divisible"):
        fn.forward(np.zeros((1, 1, 5, 5)), kernel=2)


def test_avgpool_rejects_overlapping_stride():
    fn = AvgPool2d()
    with pytest.raises(NotImplementedError):
        fn.forward(np.zeros((1, 1, 4, 4)), kernel=2, stride=1)


def test_batchnorm_normalises():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 3, 5, 5)) * 4 + 7
    fn = BatchNorm2d()
    out = fn.forward(x, np.ones(3), np.zeros(3))
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-6)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1, atol=1e-3)
    np.testing.assert_allclose(fn.batch_mean, x.mean(axis=(0, 2, 3)))


def test_batchnorm_backward_numerical():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2, 3, 3))
    gamma = rng.standard_normal(2)
    beta = rng.standard_normal(2)
    fn = BatchNorm2d()
    out = fn.forward(x, gamma, beta)
    fn.needs_input_grad = (True, True, True)
    gx, ggamma, gbeta = fn.backward(2 * out)

    def loss():
        c = BatchNorm2d()
        return float((c.forward(x, gamma, beta) ** 2).sum())

    assert_grad_close(gx, numerical_grad(loss, x), name="bn/x")
    assert_grad_close(ggamma, numerical_grad(loss, gamma), name="bn/gamma")
    assert_grad_close(gbeta, numerical_grad(loss, beta), name="bn/beta")


def test_conv_autograd_integration():
    from repro.tensor import randn

    x = randn(2, 4, 6, 6, requires_grad=True)
    w = randn(8, 2, 3, 3, requires_grad=True)
    out = Conv2d.apply(x, w, stride=1, padding=1, groups=2)
    assert out.shape == (2, 8, 6, 6)
    (out * out).sum().backward()
    assert x.grad is not None and x.grad.shape == x.shape
    assert w.grad is not None and w.grad.shape == w.shape
