"""The ``threaded`` backend: the :mod:`~repro.backend.numpy_backend` kernels
with no worker cap.

Selected with ``backend="threaded"`` or ``REPRO_BACKEND=threaded``.  The
kernel bodies are the ``numpy`` backend's own; ``numpy`` runs them under a
one-worker cap, while here their parallel regions shard over the
process-wide pool of :mod:`repro.backend.parallel`, sized by
``REPRO_NUM_WORKERS``.  The sharding axes, and why they keep every output,
gradient and :class:`~repro.backend.stats.KernelStats` total bit-identical
to ``numpy``, are described in :mod:`repro.backend.numpy_backend`.
"""
from __future__ import annotations

from repro.backend.numpy_backend import KERNELS
from repro.backend.registry import register_kernel

for _op, _kernel in KERNELS.items():
    register_kernel(_op, "threaded")(_kernel)
