"""Repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_default --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off (the
bounded ones are in calibrated seconds, the raw ones are printed too);
``--trace 1`` runs untraced and traced repetitions in alternating pairs and
reports the per-layer split (see ``spans.py``).  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment fingerprint, per-repetition samples, and for traced runs the
spans) is written under ``.perfbench_out/``; ``compare.py`` diffs two sets
of records.  The exit code is 1 when any output fails a correctness check
and 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        harness.setup_probe(args.workload, args.seed, args.size)
        return 0

    record = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        size=args.size, out_dir=Path(args.out),
    )
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} size={record['size']}: "
          f"{record['repetitions']} untraced + {record['traced_repetitions']} "
          f"traced repetitions")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for metric, entry in record["metrics"].items():
        n = len(record["samples"].get(metric, []))
        print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}  (n={n})")
    print(f"  {'failed_ratio':34s} {record['failed_ratio']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} {record['unit']}s)")
    for error in record["errors"]:
        print("  error: " + error.strip().splitlines()[-1])
    bounded = harness.LAYER_METRICS if args.trace else harness.E2E_METRICS
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in bounded},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
