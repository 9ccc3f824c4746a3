"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-scc --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` installs the per-layer wrappers (before any model is built)
and prints the per-layer metrics instead.  ``--workload all`` runs every
workload in turn, each in a fresh interpreter.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it are a human-readable report; ``--out``
also writes the full result, stamped with the environment, as JSON.

The exit code is non-zero when a correctness check fails, and when the
program under test cannot be imported (``src/repro`` missing).

BLAS runs one thread unless its thread variables are set: on a host of a
few shared CPUs, a multi-threaded GEMM waits on its slowest thread, and
the run then times the scheduler rather than the program.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-scc", "infer-b16", "serve-open")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the stamped full result here")
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so set-up and memory are clean."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out is not None:
            cmd += ["--out", str(args.out.with_name(f"{args.out.stem}-{name}.json"))]
        print(f"=== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, timeout=600).returncode)
    return worst


def main(argv: list[str]) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under test: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import envstamp
    import report
    from spans import Tracer, install
    from workloads import WORKLOADS

    problem = envstamp.check_worker_setting()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    import repro  # noqa: F401  (the set-up clock starts with repro imported)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    started = time.perf_counter()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    result = report.build(args.workload, outcome, traced=bool(args.trace))
    result["seed"] = args.seed
    result["seconds"] = args.seconds
    result["run_s"] = time.perf_counter() - started
    result["env"] = envstamp.env_stamp(ROOT)

    report.print_human(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps(report.contract_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
