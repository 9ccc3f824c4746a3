"""Whole-model execution plans: every layer's plan built once, up front.

The per-op :data:`~repro.backend.workload.PLAN_CACHE` amortises plan
construction *lazily* — the first training step or inference request of each
shape-class still pays every ``np.einsum_path`` search and index-table
build.  A :class:`ModelPlan` moves that cost to model-construction time, the
analog of topi's per-workload schedule tables compiled ahead of a run:

- it harvests the ordered list of layer geometries from one probe forward
  pass (:func:`repro.gpusim.extract_layer_shapes`, batch-parameterized),
- derives each planned layer's :class:`~repro.backend.workload.Workload`
  and pre-builds its execution plan into the global cache,
- runs one warmup forward (and, for training plans, backward) so plans
  only reachable through execution — pooling geometry, backward contraction
  paths — are resident too, and
- pre-allocates the staging/accounting workspaces of a full forward or
  forward/backward at the plan's batch size.

After construction, every step or request at the plan's shapes runs 100%
on plan-cache hits; :class:`repro.serve.Server` keeps one ``ModelPlan`` per
shape bucket and :class:`repro.train.Trainer` accepts one to make the warm
path explicit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.workload import PLAN_CACHE, Workload
from repro.backend.plan import conv2d_plan, scc_plan

DTYPE = np.float32
DTYPE_BYTES = 4  # canonical float32 width; repro.gpusim.workloads imports it

_CONV_KINDS = ("conv", "dw", "pw", "gpw", "gc")


@dataclass(frozen=True)
class PlannedLayer:
    """One plan-cache-keyed layer occurrence inside a model plan."""

    name: str
    kind: str
    workload: Workload
    plan: object


def layer_workload(shape, batch_size: int) -> Workload | None:
    """The :class:`Workload` one harvested layer geometry keys, if any.

    Conv-family and SCC layers dispatch through cached plans; BN, linear and
    elementwise layers have no plan-cache entry and return ``None``.
    """
    if shape.kind in _CONV_KINDS:
        return Workload.make(
            "conv2d",
            (batch_size, shape.cin, shape.hin, shape.win),
            (shape.cout, shape.cin // shape.groups, shape.kernel, shape.kernel),
            DTYPE,
            stride=shape.stride,
            padding=shape.padding,
            groups=shape.groups,
        )
    if shape.kind == "scc":
        return Workload.make(
            "scc_plan",
            cin=shape.cin,
            cout=shape.cout,
            cg=shape.scc.cg,
            co=shape.scc.co,
        )
    return None


class ModelPlan:
    """Pre-built execution plans + workspaces for one (model, batch) pair.

    Parameters
    ----------
    model:
        the :class:`repro.nn.Module` to plan for.
    input_shape:
        per-sample ``(C, H, W)`` input geometry.
    batch_size:
        the batch every planned step/request runs at.
    include_backward:
        build training plans (forward + backward + gradient workspaces);
        ``False`` gives an inference-only plan (the serving case).
    warmup:
        run the probe execution that pre-builds plans.  Leave on; ``False``
        exists for tests that want the harvest without the build cost.
    """

    def __init__(
        self,
        model,
        input_shape: tuple[int, int, int],
        batch_size: int = 1,
        include_backward: bool = True,
        warmup: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        # Imported lazily: repro.gpusim imports repro.backend at module level.
        from repro.gpusim.workloads import extract_layer_shapes

        self.model = model
        self.input_shape = tuple(input_shape)
        self.batch_size = batch_size
        self.include_backward = include_backward
        self.layers = extract_layer_shapes(model, self.input_shape, batch_size=batch_size)

        base_builds = PLAN_CACHE.stats()["builds"]
        self.planned_layers = self._prebuild_layer_plans()
        if warmup:
            self._warmup_execution()
        self.prebuilt_plans = PLAN_CACHE.stats()["builds"] - base_builds

        # Staging/accounting workspaces: the batch-assembly buffer the
        # serving/training front-ends fill in place, plus the activation and
        # gradient footprints a full pass at this batch size touches.
        self.input_buffer = np.zeros((batch_size, *self.input_shape), dtype=DTYPE)
        self.activation_bytes = sum(
            s.out_elements(batch_size) * DTYPE_BYTES for s in self.layers
        )
        self.gradient_bytes = self.activation_bytes if include_backward else 0

    # -- construction ---------------------------------------------------------

    def _prebuild_layer_plans(self) -> list[PlannedLayer]:
        from repro.core.channel_map import SCCConfig

        planned: list[PlannedLayer] = []
        for shape in self.layers:
            workload = layer_workload(shape, self.batch_size)
            if workload is None:
                continue
            if shape.kind == "scc":
                plan = scc_plan(
                    SCCConfig(shape.cin, shape.cout, shape.scc.cg, shape.scc.co)
                )
            else:
                plan = conv2d_plan(
                    workload.in_shape, workload.weight_shape,
                    shape.stride, shape.padding, shape.groups, workload.dtype,
                )
            planned.append(
                PlannedLayer(name=shape.name, kind=shape.kind, workload=workload, plan=plan)
            )
        return planned

    def _warmup_execution(self) -> None:
        """One probe pass so execution-only plans (pooling geometry, backward
        contraction paths) are built now rather than on the first real step."""
        from repro.tensor import Tensor, no_grad

        x = np.zeros((self.batch_size, *self.input_shape), dtype=DTYPE)
        was_training = self.model.training
        if self.include_backward:
            # The probe mutates BN running stats and parameter grads; snapshot
            # and restore so planning leaves the model bit-identical.
            state = self.model.state_dict()
            self.model.train()
            out = self.model(Tensor(x, requires_grad=False))
            out.sum().backward()
            self.model.zero_grad()
            self.model.load_state_dict(state)
        else:
            self.model.eval()
            with no_grad():
                self.model(Tensor(x))
        self.model.train(was_training)

    # -- staging --------------------------------------------------------------

    def stage_batch(self, images: np.ndarray) -> np.ndarray:
        """Copy up to ``batch_size`` images into the pre-allocated input
        buffer, zero-padding the tail, and return the full staged batch.

        This is how the serving front-end assembles a shape bucket without a
        per-request allocation: partial buckets run at the planned batch size
        (so every lookup hits a warm plan) and the padded rows are discarded
        by the caller.
        """
        images = np.asarray(images, dtype=DTYPE)
        n = images.shape[0]
        if n > self.batch_size or images.shape[1:] != self.input_shape:
            raise ValueError(
                f"cannot stage batch of shape {images.shape} into plan for "
                f"batch_size={self.batch_size}, input_shape={self.input_shape}"
            )
        self.input_buffer[:n] = images
        if n < self.batch_size:
            self.input_buffer[n:] = 0.0
        return self.input_buffer

    def matches(self, batch_shape: tuple) -> bool:
        """Whether a concrete input batch shape runs on this plan's entries."""
        return tuple(batch_shape) == (self.batch_size, *self.input_shape)

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "layers": len(self.layers),
            "planned_layers": len(self.planned_layers),
            "prebuilt_plans": self.prebuilt_plans,
            "batch_size": self.batch_size,
            "input_shape": self.input_shape,
            "include_backward": self.include_backward,
            "activation_bytes": self.activation_bytes,
            "gradient_bytes": self.gradient_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelPlan(batch={self.batch_size}, input={self.input_shape}, "
            f"layers={len(self.layers)}, planned={len(self.planned_layers)}, "
            f"backward={self.include_backward})"
        )
