#!/usr/bin/env python3
"""Compare two `bench/suite.py` result files.

    python3 bench/compare.py base.json new.json

For each workload and end-to-end metric it prints both sides' medians
and quartiles over their untraced runs and the change of the median,
signed so that a positive change is worse. The verdict uses the metric's
bound from BENCHMARK.json:

- unresolved: either side's spread (distance between quartiles, as a
  share of its median) is wider than the bound, unless every new run is
  better than every base run;
- REGRESSION: the new median is worse than the base median by more than
  the bound;
- better: the new median is better by more than the base runs' spread;
- unchanged: otherwise.

Per-layer metrics from the traced runs are listed side by side, without
a verdict. The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from common import SPEC, quartiles


def _values(results: dict, workload: str, metric: str, trace: int) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in results["runs"]
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    change = sign * (nmed - bmed) / bmed
    base_spread = (bq3 - bq1) / bmed
    new_spread = (nq3 - nq1) / nmed
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(base_spread, new_spread) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "REGRESSION", change
    if change < -base_spread or all_better:
        return "better", change
    return "unchanged", change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    regressed = False
    for w in SPEC["workloads"]:
        name = w["name"]
        print(f"== {name}")
        print(f"   {'metric':34s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} "
              f"{'change':>8s} {'bound':>6s}  verdict")
        for m in SPEC["end_to_end"]:
            b, n = _values(base, name, m["name"], 0), _values(new, name, m["name"], 0)
            if not b or not n:
                print(f"   {m['name']:34s} missing from {'base' if not b else 'new'}")
                continue
            result, change = verdict(b, n, m["better"], m["bound"])
            regressed |= result == "REGRESSION"
            bq, nq = quartiles(b), quartiles(n)
            print(f"   {m['name']:34s} {bq[1]:12.6g} [{bq[0]:9.4g}, {bq[2]:9.4g}] "
                  f"{nq[1]:12.6g} [{nq[0]:9.4g}, {nq[2]:9.4g}] {change:+8.3f} {m['bound']:6.2f}  "
                  f"{result} ({len(b)} vs {len(n)} runs, {m['unit']})")
        for m in SPEC["per_layer"]:
            b, n = _values(base, name, m["name"], 1), _values(new, name, m["name"], 1)
            if b and n:
                print(f"     {m['name']:44s} {statistics.median(b):14.6g} -> {statistics.median(n):14.6g} {m['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
