#!/usr/bin/env python3
"""Compare benchmark results saved with `run.py --out`.

    python3 perfbench/compare.py --base base-*.json --new new-*.json

Prints, per workload and metric, each side's median and quartiles, the
change of the medians, and in how many (base, new) pairs the new side was
better; an end-to-end median worse than its bound in BENCHMARK.json is
marked.  Results whose environments differ (interpreter, library versions,
mpmath backend, cores, CPU model) are flagged: their timings are not
comparable, and the exit code is 3.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

COMPARABLE = ("python", "numpy", "scipy", "mpmath", "mpmath_backend", "nproc", "cpu_model")
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def environment_differences(results: list[dict]) -> list[str]:
    out = []
    for key in COMPARABLE:
        seen = sorted({str(r["environment"].get(key)) for r in results})
        if len(seen) > 1:
            out.append(f"{key}: {' vs '.join(seen)}")
    return out


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)

    differences = environment_differences(base + new)
    for line in differences:
        print(f"ENVIRONMENT DIFFERS, timings not comparable: {line}")

    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print(f"{workload}: results on one side only")
            continue
        print(f"{workload}: {len(b)} base, {len(n)} new results; "
              f"failed {sum(r['failed'] for r in b)} -> {sum(r['failed'] for r in n)}")
        for metric in b[0]["metrics"]:
            bv = [r["metrics"][metric]["value"] for r in b if metric in r["metrics"]]
            nv = [r["metrics"][metric]["value"] for r in n if metric in r["metrics"]]
            if not bv or not nv:
                continue
            spec = METRICS.get(metric, {})
            sign = 1 if spec.get("better") == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x in bv for y in nv)
            mb, mn = statistics.median(bv), statistics.median(nv)
            worse = -sign * (mn - mb) / abs(mb) if mb else 0.0
            flag = " WORSE THAN BOUND" if "bound" in spec and worse > spec["bound"] else ""
            change = f"{(mn - mb) / abs(mb):+.1%}" if mb else "n/a"
            print(f"  {metric:<42} {summary(bv):>34} -> {summary(nv):<34} {change:>8} "
                  f"new better in {wins}/{len(bv) * len(nv)} pairs{flag}")
    return 3 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
