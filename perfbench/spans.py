"""Outside-in tracing: timed wrappers around each layer's public entry points.

:class:`Tracer` keeps, per thread, a stack of open spans and accumulates per
span name the call count, inclusive time and *self* time (duration minus
the part covered by child spans).  Nothing is written while a span runs;
:meth:`Tracer.snapshot` merges the threads' tables when the run ends.

:func:`install` wraps, from outside the program, the calls into every
layer: the registry kernels, ``Function.apply``, ``Module.__call__``,
``Tensor.backward``, the optimizer step, ``parallel_map``, the serving
engine, server and router, and ``ModelPlan`` construction.  SCC strategies
bind their kernels when they are built, so :func:`install` must run before
any model exists.  No program file is changed.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

from flops import kernel_work


class _ThreadTable:
    """One thread's open spans and per-name totals."""

    def __init__(self) -> None:
        self.stack: list[list] = []        # [name, seconds covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.flops: dict[str, float] = defaultdict(float)
        self.nbytes: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self.root_seconds = 0.0


class Tracer:
    """Per-name span accounting, recorded only while :attr:`enabled`.

    ``enabled`` is read when a span opens, so toggling it between
    operations traces whole operations and skips others.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[tuple[str, _ThreadTable]] = []

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append((threading.current_thread().name, table))
        return table

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        table = self._table()
        frame = [name, 0.0]
        table.stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            table.stack.pop()
            table.calls[name] += 1
            table.total[name] += duration
            table.self_time[name] += duration - frame[1]
            if table.stack:
                table.stack[-1][1] += duration
            else:
                table.root_seconds += duration

    def add_work(self, name: str, flops: float, nbytes: float, items: int = 0) -> None:
        """Credit computed work (or ``items`` handled) to span ``name``."""
        if not self.enabled:
            return
        table = self._table()
        table.flops[name] += flops
        table.nbytes[name] += nbytes
        table.items[name] += items

    def reset(self) -> None:
        """Drop every total; call only while no span is open."""
        with self._lock:
            tables = [t for _, t in self._tables]
        for table in tables:
            for acc in (table.calls, table.total, table.self_time,
                        table.flops, table.nbytes, table.items):
                acc.clear()
            table.root_seconds = 0.0

    def snapshot(self) -> dict:
        """Totals merged over threads, plus each thread's root seconds."""
        merged: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                     "flops": 0.0, "bytes": 0.0, "items": 0}
        )
        roots: dict[str, float] = defaultdict(float)
        with self._lock:
            tables = list(self._tables)
        for thread, table in tables:
            roots[thread] += table.root_seconds
            for name, calls in list(table.calls.items()):
                row = merged[name]
                row["calls"] += calls
                row["total"] += table.total[name]
                row["self"] += table.self_time[name]
            for name, value in list(table.flops.items()):
                merged[name]["flops"] += value
                merged[name]["bytes"] += table.nbytes[name]
                merged[name]["items"] += table.items[name]
        return {"spans": dict(merged), "roots": dict(roots)}


# -- installation -----------------------------------------------------------------

def _wrap_kernel(tracer: Tracer, op: str, fn: Callable) -> Callable:
    def kernel(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        label, flops, nbytes = kernel_work(op, args, kwargs)
        name = "kernel." + label
        tracer.add_work(name, flops, nbytes)
        return tracer.span(name, fn, *args, **kwargs)

    return kernel


def _wrap_method(tracer: Tracer, owner: type, attr: str, name: str) -> None:
    fn = getattr(owner, attr)

    def method(self, *args: Any, **kwargs: Any) -> Any:
        return tracer.span(name, fn, self, *args, **kwargs)

    setattr(owner, attr, method)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points so calls report to ``tracer``.

    Call once per process: the wrappers replace the originals in place.
    """
    import repro.backend as backend
    import repro.backend.parallel as parallel
    import repro.backend.threaded_backend as threaded_backend
    import repro.serve.router as router_mod
    from repro.backend import REGISTRY, ModelPlan, register_kernel
    from repro.nn.module import Module
    from repro.serve import Router, Server
    from repro.serve.engine import ModelExecutor
    from repro.tensor.function import Function
    from repro.tensor.tensor import Tensor
    from repro.train.optim import SGD
    from repro.train.trainer import Trainer

    for op in REGISTRY.ops():
        for name in REGISTRY.backends(op):
            register_kernel(op, name)(_wrap_kernel(tracer, op, REGISTRY.get(op, name)))

    apply = Function.__dict__["apply"].__func__

    def traced_apply(cls, *args: Any, **kwargs: Any) -> Any:
        return tracer.span("op." + cls.__name__, apply, cls, *args, **kwargs)

    Function.apply = classmethod(traced_apply)

    call = Module.__call__

    def traced_call(self, *args: Any, **kwargs: Any) -> Any:
        return tracer.span("nn." + type(self).__name__, call, self, *args, **kwargs)

    Module.__call__ = traced_call

    _wrap_method(tracer, Tensor, "backward", "autograd.backward")
    _wrap_method(tracer, SGD, "step", "train.optim_step")
    _wrap_method(tracer, Trainer, "train_step", "train.step")
    _wrap_method(tracer, ModelExecutor, "run", "engine.run")
    _wrap_method(tracer, Server, "poll", "serve.server.poll")
    for attr in ("register", "start", "submit", "wait_result", "stop",
                 "metrics", "reset_metrics"):
        _wrap_method(tracer, Router, attr, f"serve.router.{attr}")
    _wrap_method(tracer, ModelPlan, "__init__", "plan.build")

    region = parallel.parallel_map

    def traced_parallel_map(fn, items, op: str = "region"):
        items = list(items)
        tracer.add_work("parallel.region", 0.0, 0.0, items=len(items))
        return tracer.span("parallel.region", region, fn, items, op)

    for module in (parallel, backend, threaded_backend, router_mod):
        module.parallel_map = traced_parallel_map
