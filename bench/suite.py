#!/usr/bin/env python3
"""Run every workload over several seeds and print every metric.

    python3 bench/suite.py --seeds 1,2,3 --out results.json

Each run is a separate `bench/run.py` process of BENCHMARK.json's
`run_seconds` (the default of `run.py`), started one at a time, so `peak_rss_mb` and `setup_s`
belong to that run alone. For each workload the untraced runs give the
end-to-end metrics (median and quartiles over the seeds, with sample
counts), and one traced run on the first seed gives the per-layer
metrics. The combined results file is the input of `bench/compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from common import HERE, ROOT, SPEC, quartiles, work_dir


def _run(workload: str, seed: int, trace: int, out: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _samples(result: dict, metric: str) -> int:
    extra = result["extra"]
    return extra[metric]["samples"] if metric in extra else result["samples"][metric]


def _print_workload(name: str, runs: list[dict]) -> None:
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    print(f"== {name}: {plain[0]['why']}")
    print(f"   seeds {[r['seed'] for r in plain]}; instances (seed {plain[0]['seed']}): "
          f"{json.dumps(plain[0]['properties'], sort_keys=True)}")
    print(f"   {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit   samples")
    for metric, first in {**plain[0]["metrics"], **plain[0]["extra"]}.items():
        having = [r for r in plain if metric in r["metrics"] or metric in r["extra"]]
        q1, med, q3 = quartiles([{**r["metrics"], **r["extra"]}[metric]["value"] for r in having])
        samples = sum(_samples(r, metric) for r in having)
        beyond = sum(r["extra"][metric]["beyond"] for r in having if "beyond" in r["extra"].get(metric, {}))
        print(f"   {metric:40s} {med:12.6g} {q1:12.6g} {q3:12.6g}  {first['unit']:6s} "
              f"{len(having)} runs, {samples} samples" + (f", {beyond} beyond it" if beyond else ""))
    rates = [r["error_rate"] for r in plain]
    print(f"   {'error_rate':40s} {statistics.median(rates):12.6g} {min(rates):12.6g} {max(rates):12.6g}  ratio  "
          f"{sum(r['attempted'] for r in plain)} queries, {sum(r['failed'] for r in plain)} failed")
    for d in plain[0].get("known_defects", ()):
        print(f"   known defect [{'OPEN' if d['open'] else 'fixed'}] {d['input']}: "
              f"observed {d['observed']}, want exit {d['want']}")
    for r in plain:
        for p in r["problems"]:
            print(f"   FAILED seed {r['seed']}: {p}")
    for r in traced:
        print(f"   per-layer (traced run, seed {r['seed']}, {r['spans']} spans):")
        for metric, m in r["metrics"].items():
            print(f"     {metric:44s} {m['value']:14.6g} {m['unit']}")
        print(f"   stress check: {r['stress_check']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds for the untraced runs")
    ap.add_argument("--out", help="write all results to this JSON file (input of bench/compare.py)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    with work_dir("suite-") as scratch:
        for w in SPEC["workloads"]:
            name = w["name"]
            plan = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
            here = [_run(name, seed, trace, os.path.join(scratch, f"{name}-{seed}-{trace}.json"))
                    for seed, trace in plan]
            _print_workload(name, here)
            runs += here
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"benchmark": SPEC, "python": platform.python_version(), "runs": runs}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
