"""Compare two sets of stamped results (``run.py --out``) metric by metric.

Usage::

    python3 perfbench/compare.py --base parent-*.json --new change-*.json

Each side's runs must all be of one workload and trace mode, and every
run on both sides must carry the same environment stamp apart from the git
fields; otherwise the comparison is refused (exit code 2).  For each metric
it prints both medians, the base's quartile spread as a share of its median
and the change in the metric's "worse" direction against its bound from
``BENCHMARK.json``.  A change is ``worse`` only beyond the bound, and
``unresolved`` when the base's own spread exceeds the bound.  Exit code 1
when any bounded metric is worse.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import envstamp
import measure

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text()) for p in paths]


def refusal(base: list[dict], new: list[dict]) -> str | None:
    """Why the two sets cannot be compared, or ``None`` when they can."""
    runs = base + new
    kinds = {(r["workload"], r["trace"]) for r in runs}
    if len(kinds) != 1:
        return f"runs mix workloads or trace modes: {sorted(kinds)}"
    first = runs[0]["env"]
    for run in runs[1:]:
        diff = envstamp.stamp_differences(first, run["env"])
        if diff:
            return f"environment stamps differ in {diff}"
    return None


def compare(base: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    trace = base[0]["trace"]
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    lines, worse_any = [], False
    for metric in metrics:
        name = metric["name"]
        a = [r["values"][name] for r in base]
        b = [r["values"][name] for r in new]
        ma, mb = measure.median(a), measure.median(b)
        spread = measure.iqr_share(a) if len(a) >= 2 else float("nan")
        sign = 1.0 if metric["better"] == "lower" else -1.0
        change = sign * (mb - ma) / ma if ma else 0.0
        bound = metric.get("bound")
        verdict = ""
        if bound is not None:
            if spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict, worse_any = "worse", True
            else:
                verdict = "within bound"
        lines.append(f"{name:40s} base {ma:12.5g}  new {mb:12.5g}  "
                     f"worse-by {change:+.3f}  base-iqr {spread:.3f}  {verdict}")
    return lines, worse_any


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    why = refusal(base, new)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    lines, worse = compare(base, new)
    print(f"# {base[0]['workload']}: {len(base)} base runs, {len(new)} new runs")
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
