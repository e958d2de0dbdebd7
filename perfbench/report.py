"""Run every workload untraced and traced, print every metric, save all.

    python3 perfbench/report.py --seed 0 --seconds 24 --out perfbench/baseline_seed0.json

Prints each run's metrics by name and unit with its correctness check
(the same output as run.py) and writes the results, without spans, to
``--out``.  Exits 1 if any checked cell failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    results = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.measure(name, args.seed, args.seconds, trace)
            run.save(result)
            run.report(result, run.load_metric_specs(trace))
            result.pop("spans", None)
            results.append(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return 1 if any(r["ops_failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
