"""The environment every result is stamped with, and the stamp comparison.

Two results are comparable only when every field outside
:data:`UNCOMPARED` is equal: same interpreter, numpy and BLAS, same
backend, executor and worker settings, same usable CPU count.
"""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

#: Fields that identify a run but do not make two runs incomparable.
UNCOMPARED = ("git_sha", "git_dirty")

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def affinity_cpus() -> int:
    """CPUs this process may run on (the scheduler affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _git(root: Path) -> tuple[str | None, bool | None]:
    """(sha, dirty) of the checkout at ``root``, or (None, None) when it is
    not a git repository.  Only ``root/.git`` is consulted, never a parent."""
    git_dir = root / ".git"
    if not git_dir.exists():
        return None, None
    env = dict(os.environ, GIT_DIR=str(git_dir), GIT_WORK_TREE=str(root))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], env=env, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], env=env,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def _blas() -> dict:
    import numpy as np

    info: dict = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):  # numpy without dict-mode show_config
        info = {"name": None, "version": None}
    info["threads"] = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    return info


def env_stamp(root: Path) -> dict:
    """Everything that can change a measurement, for the checkout at ``root``."""
    import numpy as np
    from repro.backend import env_stamp as backend_stamp

    sha, dirty = _git(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "backend": backend_stamp(),
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "REPRO_EXECUTOR": os.environ.get("REPRO_EXECUTOR"),
        "REPRO_NUM_WORKERS": os.environ.get("REPRO_NUM_WORKERS"),
        "REPRO_PRECISION": os.environ.get("REPRO_PRECISION"),
        "affinity_cpus": affinity_cpus(),
        "machine": platform.machine(),
    }


def stamp_differences(a: dict, b: dict) -> list[str]:
    """Names of the comparable fields on which two stamps differ."""
    keys = (set(a) | set(b)) - set(UNCOMPARED)
    return sorted(k for k in keys if a.get(k) != b.get(k))


def check_worker_setting() -> str | None:
    """An error message when ``REPRO_NUM_WORKERS`` exceeds the usable CPUs."""
    raw = os.environ.get("REPRO_NUM_WORKERS", "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        return f"REPRO_NUM_WORKERS={raw!r} is not an integer"
    if workers > affinity_cpus():
        return (f"REPRO_NUM_WORKERS={workers} exceeds the {affinity_cpus()} "
                "usable CPUs; oversubscribed runs are not comparable")
    return None
