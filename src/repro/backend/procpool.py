"""The ``process`` execution tier: a fork-based pool that escapes the GIL.

:class:`ProcessExecutor` implements the :class:`repro.backend.parallel.Executor`
protocol on top of :class:`concurrent.futures.ProcessPoolExecutor`.  Two
design points distinguish it from naive process offload:

**Shared-memory ndarray transport.**  Activations are the dominant payload
of every shipped task; pickling them through the call queue would spend
more time serialising than the GIL ever cost.  Instead, every ndarray
argument above :data:`SHM_MIN_BYTES` is copied once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment and crosses the
process boundary as a ``(name, shape, dtype)`` descriptor; the worker maps
it zero-copy, and ndarray *results* come back the same way.  The parent
unlinks every segment as soon as its task resolves, so segments never
outlive the region that created them.

**Explicit shippability, thread-lane fallback.**  Only functions registered
with :func:`process_safe` — module-level, importable, pure functions over
ndarrays/primitives — are ever shipped.  Everything else (closures over
shared output buffers, bound methods, tasks mutating in-process state:
i.e. every kernel shard and the serving router's drain) transparently runs on an in-process
:class:`~repro.backend.parallel.ThreadExecutor` lane.  That fallback is the
bitwise-equality story: under ``REPRO_EXECUTOR=process`` a task either runs
the *identical* in-process code path, or is a registered pure function
whose result is bit-for-bit the same wherever it executes — so the tier-1
suite passes bitwise-identically at any process count.

Worker processes are forked (fork start method where available — inherited
plan caches, kernel registries and fault planes come for free), pin their
*nested* parallelism to one worker (a shipped task must not fan out a
thread pool inside every process), and re-seed any inherited fault
injector per worker index (:meth:`repro.faults.FaultInjector.for_worker`)
so chaos runs stay deterministic per process rather than replaying the
parent's exact draw sequence in every child.
"""
from __future__ import annotations

import concurrent.futures
import importlib
import multiprocessing
import threading
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.backend.parallel import (
    Executor,
    ThreadExecutor,
    _base_num_workers,
    set_num_workers,
)
from repro.faults import active_faults, install_faults

__all__ = [
    "ProcessExecutor",
    "SHM_MIN_BYTES",
    "is_process_safe",
    "process_safe",
    "shippable_args",
]

#: ndarrays below this byte size ride the pickle path — a shared-memory
#: segment (shm_open + mmap + unlink) costs more than pickling a few KB.
SHM_MIN_BYTES = 64 * 1024

#: Primitives that may cross the process boundary as plain pickles.
_SCALAR_TYPES = (bool, int, float, complex, str, bytes, type(None))

# Registry of shippable functions, keyed by (module, qualname) — the form
# the worker resolves them from.  Identity is also tracked so a decorated
# alias (functools.wraps etc.) still qualifies.
_SAFE_LOCK = threading.Lock()
_SAFE_KEYS: set[tuple[str, str]] = set()


def process_safe(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register ``fn`` as shippable to worker processes (decorator-friendly).

    The function must be module-level and importable — workers resolve it
    by ``(module, qualname)``, never by pickling the callable — and must be
    pure over its arguments: no closure state, no in-place mutation of
    argument arrays (a worker sees shared-memory *copies*, so a mutation
    would be silently invisible to the parent).
    """
    qualname = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", "")
    if not module or not qualname or "." in qualname or "<" in qualname:
        raise ValueError(
            f"process_safe requires a module-level function, got {fn!r}"
        )
    with _SAFE_LOCK:
        _SAFE_KEYS.add((module, qualname))
    return fn


def is_process_safe(fn: Callable[..., Any]) -> bool:
    """Whether :func:`process_safe` registered ``fn`` (by module + qualname)."""
    key = (getattr(fn, "__module__", ""), getattr(fn, "__qualname__", ""))
    with _SAFE_LOCK:
        return key in _SAFE_KEYS


def shippable_args(args: Sequence[Any]) -> bool:
    """Whether every argument can cross the boundary (ndarray / primitives)."""
    return all(_shippable_value(a) for a in args)


def _shippable_value(value: Any) -> bool:
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, _SCALAR_TYPES):
        return True
    if isinstance(value, slice):
        return all(isinstance(p, (int, type(None)))
                   for p in (value.start, value.stop, value.step))
    if isinstance(value, tuple):
        return all(_shippable_value(v) for v in value)
    return False


# ---------------------------------------------------------------------------
# Encoding: ndarrays <-> shared-memory descriptors
# ---------------------------------------------------------------------------

def _encode_value(value: Any, segments: list) -> Any:
    """Encode one argument/result for the queue, spilling big arrays to shm.

    ``segments`` collects every :class:`SharedMemory` created here; the
    caller owns their lifecycle (the parent unlinks argument segments when
    the task resolves; the parent unlinks result segments after copying
    out).
    """
    if isinstance(value, np.ndarray):
        if value.nbytes >= SHM_MIN_BYTES:
            shm = shared_memory.SharedMemory(create=True, size=value.nbytes)
            staged = np.ndarray(value.shape, dtype=value.dtype, buffer=shm.buf)
            staged[...] = value
            segments.append(shm)
            return ("shm", shm.name, value.shape, value.dtype.str)
        return ("arr", value)
    if isinstance(value, tuple):
        return ("tup", tuple(_encode_value(v, segments) for v in value))
    return ("raw", value)


def _decode_value(encoded: Any, attached: list) -> Any:
    """Decode one encoded value, mapping shm descriptors zero-copy.

    ``attached`` collects the mapped segments so the caller can close (and,
    on the parent side, unlink) them once the arrays are no longer needed;
    decoded shm arrays are *views* into those segments and must be copied
    before the segment is released.
    """
    kind, payload = encoded[0], encoded[1:]
    if kind == "shm":
        name, shape, dtype = payload
        shm = shared_memory.SharedMemory(name=name)
        attached.append(shm)
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    if kind == "arr":
        return payload[0]
    if kind == "tup":
        return tuple(_decode_value(v, attached) for v in payload[0])
    return payload[0]


def _release(segments: Sequence, unlink: bool) -> None:
    for shm in segments:
        try:
            shm.close()
            if unlink:
                shm.unlink()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


# ---------------------------------------------------------------------------
# Worker-side entry points (module-level: resolvable without pickling code)
# ---------------------------------------------------------------------------

_WORKER_INDEX = 0


def _worker_init(counter) -> None:
    """Per-process initializer: claim an index, pin nested parallelism, re-seed.

    Nested parallelism is pinned to one worker because the process tier
    *is* the fan-out — a shipped task spinning up a thread pool inside
    every worker process would oversubscribe the host by ``workers^2``.
    The inherited fault injector (fork copies the parent's installed one)
    is replaced with a per-worker derivation so each process draws an
    independent — but still seed-deterministic — fault sequence.
    """
    global _WORKER_INDEX
    with counter.get_lock():
        counter.value += 1
        _WORKER_INDEX = int(counter.value)
    set_num_workers(1)
    inherited = active_faults()
    if inherited is not None:
        install_faults(inherited.for_worker(_WORKER_INDEX))


def _invoke(module: str, qualname: str, encoded_args: tuple) -> Any:
    """Run one shipped task inside a worker: resolve, map, call, encode."""
    fn = getattr(importlib.import_module(module), qualname)
    attached: list = []
    try:
        args = tuple(_decode_value(a, attached) for a in encoded_args)
        result = fn(*args)
        result_segments: list = []
        encoded = _encode_value(result, result_segments)
        # Result segments are closed here but NOT unlinked: the parent maps
        # them, copies out, and unlinks.  Argument segments are only closed
        # (the parent owns and unlinks them).
        _release(result_segments, unlink=False)
        return encoded
    finally:
        _release(attached, unlink=False)


# ---------------------------------------------------------------------------
# The executor tier
# ---------------------------------------------------------------------------

class ProcessExecutor(Executor):
    """``REPRO_EXECUTOR=process``: shippable tasks fan out across processes.

    The pool is created lazily on the first *shipped* submission (selecting
    the tier costs nothing until a task actually qualifies) and sized like
    the thread pool (``REPRO_NUM_WORKERS`` else usable CPUs).  Tasks that
    do not qualify — unregistered callables, closure arguments — run on the
    embedded in-process thread lane with identical semantics to the
    ``thread`` tier.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        self._requested_workers = max_workers
        self._thread_lane = ThreadExecutor()
        self._lock = threading.Lock()
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_workers: int | None = None
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            self._ctx = multiprocessing.get_context()

    # -- pool management -------------------------------------------------------

    def _workers(self) -> int:
        return self._requested_workers or _base_num_workers()

    def _get_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        workers = self._workers()
        with self._lock:
            if self._pool is None or self._pool_workers != workers:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                counter = self._ctx.Value("i", 0)
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=self._ctx,
                    initializer=_worker_init,
                    initargs=(counter,),
                )
                self._pool_workers = workers
            return self._pool

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            pool, self._pool, self._pool_workers = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def describe(self) -> dict:
        info = super().describe()
        info["start_method"] = self._ctx.get_start_method()
        return info

    # -- shipping --------------------------------------------------------------

    def can_ship(self, fn: Callable[..., Any], args: Sequence[Any]) -> bool:
        """Whether ``fn(*args)`` qualifies for cross-process execution."""
        return is_process_safe(fn) and shippable_args(args)

    def _ship(self, fn: Callable[..., Any], args: tuple) -> concurrent.futures.Future:
        segments: list = []
        try:
            encoded = tuple(_encode_value(a, segments) for a in args)
            raw = self._get_pool().submit(
                _invoke, fn.__module__, fn.__qualname__, encoded
            )
        except BaseException:
            _release(segments, unlink=True)
            raise
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_running_or_notify_cancel()

        def _resolve(done: concurrent.futures.Future) -> None:
            _release(segments, unlink=True)
            try:
                payload = done.result()
            except BaseException as exc:
                future.set_exception(exc)
                return
            attached: list = []
            try:
                decoded = _materialize(_decode_value(payload, attached))
                future.set_result(decoded)
            except BaseException as exc:  # pragma: no cover - decode teardown
                future.set_exception(exc)
            finally:
                _release(attached, unlink=True)

        raw.add_done_callback(_resolve)
        return future

    # -- Executor protocol -----------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> concurrent.futures.Future:
        if self.can_ship(fn, args):
            try:
                return self._ship(fn, args)
            except BrokenProcessPool:
                # A dead pool (OOM-killed worker, torn-down fork server)
                # degrades to in-process execution rather than failing the
                # task; the next submission rebuilds the pool lazily.
                self.shutdown(wait=False)
        return self._thread_lane.submit(fn, *args)

    def map_region(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        run: Callable[[int, Any], Any],
    ) -> list[concurrent.futures.Future]:
        if is_process_safe(fn) and all(_shippable_value(t) for t in tasks):
            try:
                return [self._ship(fn, (item,)) for item in tasks]
            except BrokenProcessPool:
                self.shutdown(wait=False)
        return self._thread_lane.map_region(fn, tasks, run)


def _materialize(value: Any) -> Any:
    """Copy decoded shm views into process-owned arrays (segments die next)."""
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    if isinstance(value, tuple):
        return tuple(_materialize(v) for v in value)
    return value


# The kernel tile partials are the canonical shippable workloads: pure
# module-level contractions over (ndarray, ndarray, slice), so their
# results are bitwise tier-invariant by construction.
def _register_kernel_partials() -> None:
    from repro.backend import numpy_backend

    for name in ("dense_fwd_partial", "dense_gradw_partial", "pull_gemm_partial"):
        process_safe(getattr(numpy_backend, name))


_register_kernel_partials()
