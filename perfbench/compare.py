"""Compare two sets of benchmark records against the bounds in BENCHMARK.json.

Usage::

    python3 perfbench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a record file written by
``run.py`` or a directory of them.  Untraced records are grouped by
workload; for every workload x end-to-end metric one row shows each side's
median, quartiles and sample count, the relative change, and a verdict:

* ``better``     -- every B run beats every A run, or the medians differ by
  more than A's own quartile spread in B's favour and B wins at least nine
  tenths of all (a, b) pairs;
* ``no worse``   -- B's median is within the metric's bound of A's;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's quartile spread exceeds the bound.

The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per untraced record under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace"):
            continue
        per_metric = grouped.setdefault(record["workload"], {})
        for metric, entry in record["metrics"].items():
            per_metric.setdefault(metric, []).append(float(entry["value"]))
    return grouped


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    lower = better == "lower"

    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    if all(beats(y, x) for x in a for y in b):
        return "better"
    spread_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else float("inf")
    spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else float("inf")
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    worse_share = (qb[1] - qa[1]) / abs(qa[1]) * (1 if lower else -1)
    if worse_share > bound:
        return "worse"
    wins = sum(beats(y, x) for x in a for y in b) / (len(a) * len(b))
    if -worse_share > spread_a and wins >= 0.9:
        return "better"
    return "no worse"


def compare(a_path: Path, b_path: Path, spec: Dict) -> Tuple[List[str], bool]:
    a, b = load(a_path), load(b_path)
    lines = [
        f"{'workload':24s} {'metric':38s} {'A median [q1, q3] n':36s} "
        f"{'B median [q1, q3] n':36s} {'change':>8s}  verdict"
    ]
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a or workload not in b:
            lines.append(f"{workload:24s} (missing on {'A' if workload not in a else 'B'})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                lines.append(f"{workload:24s} {name:38s} (no samples)")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            result = verdict(va, vb, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            change = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else float("nan")
            cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] {len(va)}"
            cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {len(vb)}"
            lines.append(
                f"{workload:24s} {name + ' (' + metric['unit'] + ')':38s} "
                f"{cell_a:36s} {cell_b:36s} {change:+7.2f}%  {result}"
            )
    return lines, any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent records (file or directory)")
    parser.add_argument("b", type=Path, help="change records (file or directory)")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    lines, any_worse = compare(args.a, args.b, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
