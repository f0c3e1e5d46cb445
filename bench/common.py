"""Things the benchmark's scripts share: where the checkout is, the
benchmark definition, the scratch directory and quartiles."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

RUN_SECONDS = SPEC["run_seconds"]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@contextmanager
def work_dir(prefix: str):
    """A fresh directory under `.bench_work/` in the checkout, removed on
    exit together with `.bench_work/` itself once that is empty."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=work_root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
