"""Autograd integration of SCC: Function + the drop-in nn.Module.

This is the reproduction of the paper's "integrated our SCC design with the
original Pytorch framework as the drop-in replacement of the existing DSCs":
:class:`SlidingChannelConv2d` slots anywhere a
:class:`~repro.nn.conv.PointwiseConv2d` / GPW module does, and trains
end-to-end through :mod:`repro.tensor` exactly like the CUDA kernel trains
through ``torch.autograd.Function``.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.channel_map import SCCConfig
from repro.core.scc_kernels import _StrategyBase, make_strategy
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor.function import Function
from repro.utils.rng import get_rng

class SCCFunction(Function):
    """Differentiable SCC op delegating to a kernel strategy.

    The per-call state a backend kernel saves between forward and backward
    (``strategy._saved``) is checkpointed onto the Function node, so one
    strategy instance — with its cached plan (window/segment tables, the
    Algorithm-2 reuse) — can be shared across many forward calls and the
    graph stays re-entrant.
    """

    def forward(self, x: np.ndarray, w: np.ndarray, strategy: _StrategyBase = None) -> np.ndarray:
        if strategy is None:
            raise ValueError("SCCFunction requires a kernel strategy instance")
        self.strategy = strategy
        out = strategy.forward(x, w)
        self.saved_state = strategy._saved
        return out

    def backward(self, grad_output: np.ndarray):
        strategy = self.strategy
        strategy._saved = self.saved_state
        need_x, need_w = self.needs_input_grad
        grad_x, grad_w = strategy.backward(
            grad_output, need_input_grad=need_x, need_weight_grad=need_w
        )
        return grad_x, grad_w


class SlidingChannelConv2d(Module):
    """Sliding-channel convolution layer (the paper's SCC kernel).

    Drop-in replacement for the pointwise stage of a depthwise-separable
    block.  Weight shape is ``(out_channels, group_width)`` — each filter
    owns one scalar per channel in its sliding window.

    Parameters
    ----------
    cg:
        number of channel groups; each filter reads ``in_channels / cg``
        input channels.
    co:
        overlap ratio between adjacent filters' windows, in ``[0, 1)``.
    impl:
        execution strategy: ``"dsxplore"`` (fused, default),
        ``"conv_stack"`` (*Pytorch-Opt*), or ``"channel_stack"``
        (*Pytorch-Base*).  All three compute identical math; see
        :mod:`repro.core.scc_kernels`.
    backward_design:
        for ``impl="dsxplore"`` only: ``"input_centric"`` (default) or
        ``"output_centric"`` (the DSXplore-Var ablation).
    backend:
        kernel backend the strategy dispatches through
        (:mod:`repro.backend`): ``"default"``, ``"numpy"`` or
        ``"reference"``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        cg: int,
        co: float,
        bias: bool = True,
        impl: str = "dsxplore",
        backward_design: str = "input_centric",
        backend: str = "default",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = SCCConfig(in_channels, out_channels, cg, co)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.cg = cg
        self.co = co
        self.impl = impl
        self.backward_design = backward_design
        self.backend = backend
        kwargs = {"backward_design": backward_design} if impl == "dsxplore" else {}
        self.strategy = make_strategy(impl, self.config, backend=backend, **kwargs)

        gen = rng if rng is not None else get_rng()
        gw = self.config.group_width
        std = math.sqrt(2.0 / gw)
        self.weight = Parameter((gen.standard_normal((out_channels, gw)) * std).astype(np.float32))
        if bias:
            bound = 1.0 / math.sqrt(gw)
            self.bias = Parameter(gen.uniform(-bound, bound, size=(out_channels,)).astype(np.float32))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = SCCFunction.apply(x, self.weight, strategy=self.strategy)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out

    @property
    def cyclic_dist(self) -> int:
        return self.strategy.cyclic_dist

    def set_impl(self, impl: str, backward_design: str | None = None) -> None:
        """Swap execution strategy in place (weights unchanged)."""
        self.impl = impl
        if backward_design is not None:
            self.backward_design = backward_design
        kwargs = (
            {"backward_design": self.backward_design} if impl == "dsxplore" else {}
        )
        object.__setattr__(
            self,
            "strategy",
            make_strategy(impl, self.config, backend=self.backend, **kwargs),
        )

    def __repr__(self) -> str:
        return (
            f"SlidingChannelConv2d({self.in_channels}, {self.out_channels}, "
            f"cg={self.cg}, co={self.co:.2f}, impl={self.impl}, "
            f"bias={self.bias is not None})"
        )
