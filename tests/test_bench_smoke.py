"""The benchmark's smoke run: every workload at a tiny size, untraced and
traced, must emit every metric BENCHMARK.json names and answer correctly.
This catches public-API changes that would break the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
