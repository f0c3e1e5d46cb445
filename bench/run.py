#!/usr/bin/env python3
"""Run one seeded covgame benchmark workload and print its metrics.

    python3 bench/run.py --workload product --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --smoke

Runs from the root of a checkout against `src/covgame`, in one process
and one thread, as a closed loop with a single client: each query starts
when the previous one has returned. `--trace 0` runs the corpus in
rounds of consecutive slices of about a second each while `--seconds`
(default: BENCHMARK.json's `run_seconds`) allows, and reports the
end-to-end metrics; `--trace 1` runs the corpus once untraced and once
with every layer's public functions wrapped, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output is
the JSON result. `--smoke` runs every workload at a tiny size in both
modes and checks that every metric named in BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from common import END_TO_END, HERE, PER_LAYER, ROOT, RUN_SECONDS, SPEC, work_dir

SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "covgame", "__init__.py")):
    sys.exit("bench: src/covgame not found; run from the root of a covgame checkout")
sys.path.insert(0, SRC)

import covgame as cg  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Log  # noqa: E402

clock = time.perf_counter

DEFAULT_SEED = 0
SETUP_REPS = 5
EXPECTED = os.path.join(HERE, "expected", f"seed{DEFAULT_SEED}.json")
CHILD_ENV = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}

_GAME_PRODUCT = ("game_cover.coverage_value_game", "game_cover.max_coverage_game")
_GRAPH_PRODUCT = ("graph_cover.coverage_value_graph", "graph_cover.max_coverage_graph")
_GADGETS = ("sat_to_graph", "qbf_to_game", "vc_to_game", "hampath_to_bounded")

# ---------------------------------------------------------------------------
# running the corpus


def _run_pass(tasks, log: Log) -> list:
    answers = []
    for task in tasks:
        try:
            answers.append(task(log))
        except Exception as exc:  # a solver exception is a failed query, not a crash
            log.fail(f"{type(exc).__name__} escaped a solver: {exc}")
            answers.append(["raised", type(exc).__name__])
    return answers


def _timed_pass(tasks) -> tuple[float, Log, list]:
    gc.collect()
    log = Log()
    start = clock()
    answers = _run_pass(tasks, log)
    return clock() - start, log, answers


def _timed_rounds(tasks, slices: int, seconds: float) -> tuple[list[list[float]], list[Log], list]:
    """Run the corpus in rounds until `seconds` is up, always at least
    one. A round runs the corpus in order as `slices` consecutive slices,
    each timed on its own, so a run gives many wall-time samples even
    when a whole pass is long. Returns each slice's times, one log per
    slice run and the first round's answers in corpus order."""
    n = len(tasks)
    parts = [range(n * i // slices, n * (i + 1) // slices) for i in range(slices)]
    times: list[list[float]] = [[] for _ in parts]
    logs: list[Log] = []
    answers: list = [None] * len(tasks)
    start = clock()
    while True:
        round_start = clock()
        for part, part_times in zip(parts, times):
            took, log, got = _timed_pass([tasks[i] for i in part])
            part_times.append(took)
            logs.append(log)
            if len(part_times) == 1:
                for i, answer in zip(part, got):
                    answers[i] = answer
        now = clock()
        if now - start + (now - round_start) > seconds:
            return times, logs, answers


def _set_up(workload_cls, seed, smoke, workdir, reps):
    """Build the workload `reps` times; each time counts a fresh
    interpreter importing covgame plus generating the instances and
    writing the model files. Returns the last build and the median."""
    times = []
    workload = None
    for _ in range(reps):
        workload = None
        gc.collect()
        start = clock()
        subprocess.run(
            [sys.executable, "-c", "import covgame"],
            cwd=ROOT, env=CHILD_ENV, check=True, stdout=subprocess.DEVNULL,
        )
        workload = workload_cls(seed, smoke, workdir)
        workload.build()
        times.append(clock() - start)
    return workload, statistics.median(times)


def _p99(times: list[float]) -> tuple[float, int]:
    """The 99th percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(times)
    idx = max(0, math.ceil(len(ordered) * 0.99) - 1)
    return ordered[idx], len(ordered) - 1 - idx


def _subprocess_probe(workload) -> tuple[list[float], int]:
    """Sequential `python -m covgame.cli solve` children, one at a time.
    Returns their wall times and how many outputs differ from the
    in-process output of the same call."""
    calls = [c for c in workload.calls if c.kind == "solve"][: workload.size["subprocess"]]
    times = []
    mismatches = 0
    for call in calls:
        start = clock()
        done = subprocess.run(
            [sys.executable, "-m", "covgame.cli", *call.argv],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=60,
        )
        times.append(clock() - start)
        expected = workload.first_out[workload.calls.index(call)]
        mismatches += done.stdout != expected
    return times, mismatches


def _check_expected(workload, answers) -> list[str]:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload.name)
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return [f"no expected answers recorded for {workload.name}"]
    want = recorded["answers"]
    got = json.loads(json.dumps(answers))
    if len(want) != len(got):
        return [f"expected {len(want)} answers, got {len(got)}"]
    return [
        f"answer {i}: {g} differs from the recorded {w}"
        for i, (w, g) in enumerate(zip(want, got))
        if w != g
    ]


def _record_expected(workload, answers) -> None:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[workload.name] = {"seed": DEFAULT_SEED, "answers": answers}
    os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


# ---------------------------------------------------------------------------
# traced run


class LayerCounters:
    """Counts taken at layer boundaries during the traced pass."""

    def __init__(self):
        self.game_product_calls: list = []
        self.graph_product_calls: list = []
        self.value_gap = 0
        self.strategy_moves = 0
        self.witness_steps = 0
        self.input_bytes = 0
        self.format_errors = 0
        self.gadget_vertices = 0
        self.exit_2 = 0
        self.uncaught = 0

    def hooks(self) -> dict:
        hooks = {
            "game_cover.coverage_value_game": self._game_value,
            "game_cover.max_coverage_game": self._game_product,
            "game_cover.bounded_coverage_game": self._strategy,
            "graph_cover.coverage_value_graph": self._graph_product,
            "graph_cover.max_coverage_graph": self._graph_product,
            "graph_cover.bounded_coverage_graph": self._witness,
            "formats.loads": self._loads,
            "cli.main": self._cli,
        }
        hooks.update({f"reductions.{name}": self._gadget for name in _GADGETS})
        return hooks

    def _strategy(self, args, kwargs, result, error):
        if result is not None and result.strategy is not None:
            self.strategy_moves += len(result.strategy.moves)

    def _game_product(self, args, kwargs, result, error):
        self.game_product_calls.append(args[0])
        self._strategy(args, kwargs, result, error)

    def _game_value(self, args, kwargs, result, error):
        self._game_product(args, kwargs, result, error)
        if result is not None:
            self.value_gap += len(args[0].ap) - result.value

    def _witness(self, args, kwargs, result, error):
        if result is not None and result.witness is not None:
            self.witness_steps += len(result.witness) - 1

    def _graph_product(self, args, kwargs, result, error):
        self.graph_product_calls.append(args[0])
        self._witness(args, kwargs, result, error)

    def _loads(self, args, kwargs, result, error):
        self.input_bytes += len(args[0].encode("utf-8"))
        self.format_errors += isinstance(error, cg.FormatError)

    def _gadget(self, args, kwargs, result, error):
        if result is not None:
            self.gadget_vertices += result.model.n

    def _cli(self, args, kwargs, result, error):
        if result == 2 or (isinstance(error, SystemExit) and error.code == 2):
            self.exit_2 += 1
        elif error is not None and not isinstance(error, SystemExit):
            self.uncaught += 1


def _product_states(models: list) -> int:
    """Sum over solver calls of the reachable (vertex, covered) product
    size, counted by the benchmark's own BFS."""
    sizes: dict[int, int] = {}
    total = 0
    for g in models:
        size = sizes.get(id(g))
        if size is None:
            start = (g.initial, g.labels[g.initial])
            seen = {start}
            todo = [start]
            for v, b in todo:
                for u in g.succ[v]:
                    s = (u, b | g.labels[u])
                    if s not in seen:
                        seen.add(s)
                        todo.append(s)
            size = sizes[id(g)] = len(seen)
        total += size
    return total


def _layer_metrics(tr: Tracer, counters: LayerCounters, wall: float, base_wall: float, out_bytes: int) -> dict:
    own = tr.self_times()
    layer_self = tr.layer_self(wall)
    cli_self = [own[i] for i, rec in enumerate(tr.spans) if rec[0] == "cli.main"]
    game_states = _product_states(counters.game_product_calls)
    graph_states = _product_states(counters.graph_product_calls)
    game_product_s = tr.busy(*_GAME_PRODUCT)
    graph_product_s = tr.busy(*_GRAPH_PRODUCT)
    oracle_fns = {rec[0] for rec in tr.spans if rec[0].startswith("oracle.")}
    values = {
        "cli.calls": tr.calls("cli.main"),
        "cli.busy_s": tr.busy("cli.main"),
        "cli.self_s": layer_self["cli"],
        "cli.self_ms_p50": statistics.median(cli_self) * 1000 if cli_self else 0.0,
        "cli.output_bytes": out_bytes,
        "cli.exit_2": counters.exit_2,
        "cli.uncaught": counters.uncaught,
        "formats.loads_calls": tr.calls("formats.loads"),
        "formats.loads_s": tr.busy("formats.loads"),
        "formats.input_bytes": counters.input_bytes,
        "formats.format_errors": counters.format_errors,
        "model.validate_calls": tr.calls("model.validate", "model.require_valid"),
        "model.validate_s": tr.busy("model.validate", "model.require_valid"),
        "model.compile_system_s": tr.busy("model.compile_system"),
        "model.patch_self_loops_s": tr.busy("model.patch_self_loops"),
        "game_cover.coverage_value_game_s": tr.busy("game_cover.coverage_value_game"),
        "game_cover.max_coverage_game_s": tr.busy("game_cover.max_coverage_game"),
        "game_cover.strategy_covers_s": tr.busy("game_cover.strategy_covers"),
        "game_cover.bounded_coverage_game_s": tr.busy("game_cover.bounded_coverage_game"),
        "game_cover.end_component_s": tr.busy("game_cover.min_cover_end_component"),
        "game_cover.min_safety_value_s": tr.busy("game_cover.min_safety_value"),
        "game_cover.verify_end_component_witness_s": tr.busy("game_cover.verify_end_component_witness"),
        "game_cover.recurrence_s": tr.busy("game_cover.is_controllably_recurrent_game"),
        "game_cover.product_states": game_states,
        "game_cover.states_per_s": game_states / game_product_s if game_product_s else 0.0,
        "game_cover.value_gap": counters.value_gap,
        "game_cover.strategy_moves": counters.strategy_moves,
        "graph_cover.coverage_value_graph_s": tr.busy("graph_cover.coverage_value_graph"),
        "graph_cover.max_coverage_graph_s": tr.busy("graph_cover.max_coverage_graph"),
        "graph_cover.bounded_coverage_graph_s": tr.busy("graph_cover.bounded_coverage_graph"),
        "graph_cover.recurrence_s": tr.busy(
            "graph_cover.is_controllably_recurrent_graph", "graph_cover.max_coverage_recurrent_graph"
        ),
        "graph_cover.product_states": graph_states,
        "graph_cover.states_per_s": graph_states / graph_product_s if graph_product_s else 0.0,
        "graph_cover.witness_steps": counters.witness_steps,
        "oracle.calls": tr.calls(*oracle_fns),
        "oracle.brute_force_s": tr.busy(*oracle_fns),
        "reductions.parse_s": tr.busy(
            "reductions.parse_dimacs", "reductions.parse_qdimacs", "reductions.parse_edge_list"
        ),
        "reductions.gadget_s": tr.busy(*(f"reductions.{n}" for n in _GADGETS)),
        "reductions.gadget_vertices": counters.gadget_vertices,
        "python.gc_collections": tr.gc_collections,
        "python.gc_s": tr.gc_s,
        "trace.wall_s": wall,
        "trace.overhead": wall / base_wall,
    }
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_s"] = seconds
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items() if name in values}


def _stress_check(name: str, metrics: dict) -> str:
    """Does the traced run show the workload stressing what it claims?"""
    v = {k: m["value"] for k, m in metrics.items()}
    wall = v["trace.wall_s"]
    if name == "product":
        share = (v["game_cover.self_s"] + v["graph_cover.self_s"]) / wall
        return f"game_cover+graph_cover self share {share:.3f} (want >= 0.90): {'ok' if share >= 0.9 else 'NOT MET'}"
    if name == "cli_corpus":
        shares = {layer: v[f"{layer}.self_s"] for layer in (*LAYERS, "bench")}
        top = max(shares, key=shares.get)
        return f"largest self share {top} {shares[top] / wall:.3f} (want cli): {'ok' if top == 'cli' else 'NOT MET'}"
    states = v["game_cover.product_states"] + v["graph_cover.product_states"]
    return f"product states counted {states} (want 0): {'ok' if states == 0 else 'NOT MET'}"


# ---------------------------------------------------------------------------
# one run


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        record: bool = False, say=print) -> dict:
    with work_dir(f"{name}-") as workdir:
        return _run_in(WORKLOADS[name], seed, seconds, trace, smoke, record, workdir, say)


def _run_in(workload_cls, seed, seconds, trace, smoke, record, workdir, say) -> dict:
    name = workload_cls.name
    workload, setup_s = _set_up(workload_cls, seed, smoke, workdir, 1 if trace else SETUP_REPS)
    tasks = workload.tasks()
    result: dict = {"workload": name, "seed": seed, "trace": int(trace), "why": workload.why}

    if trace:
        # untraced passes before and after the traced one; their mean wall
        # time is the base of trace.overhead
        before = _timed_pass(tasks)
        counters = LayerCounters()
        tr = Tracer(counters.hooks())
        bytes_before = getattr(workload, "output_bytes", 0)
        traced_log = Log()
        gc.collect()
        tr.install()
        try:
            start = clock()
            traced_answers = _run_pass(tasks, traced_log)
            wall = clock() - start
        finally:
            tr.uninstall()
        out_bytes = getattr(workload, "output_bytes", 0) - bytes_before
        after = _timed_pass(tasks)
        answers = before[2]
        if traced_answers != answers:
            traced_log.fail("traced answers differ from untraced answers")
        logs = [before[1], traced_log, after[1]]
        rounds = 3
        metrics = _layer_metrics(tr, counters, wall, (before[0] + after[0]) / 2, out_bytes)
        result["stress_check"] = _stress_check(name, metrics)
        result["spans"] = len(tr.spans)
    else:
        slice_times, logs, answers = _timed_rounds(tasks, workload.size["slices"], seconds)
        rounds = len(slice_times[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = [t for log in logs for t in log.times]
        values = {
            "setup_s": setup_s,
            # the corpus's time: each slice at its median over the rounds
            "wall_s": sum(statistics.median(ts) for ts in slice_times),
            "query_p50_ms": statistics.median(times) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items() if k in values}
        result["samples"] = {"setup_s": SETUP_REPS, "wall_s": len(logs), "query_p50_ms": len(times),
                             "peak_rss_mb": 1}
        result["extra"] = {}

    problems = [p for log in logs for p in log.problems]
    attempted = sum(len(log.times) for log in logs)
    gate_start = clock()
    problems += workload.gate(answers)
    if seed == DEFAULT_SEED and not smoke and not record:
        problems += _check_expected(workload, answers)
    result["gate_s"] = clock() - gate_start

    if name == "cli_corpus":
        defects = workload.defect_probe()
        result["known_defects"] = defects
        if not trace:
            p99, beyond = _p99(times)
            result["extra"]["query_p99_ms"] = {
                "value": p99 * 1000, "unit": "ms", "samples": len(times), "beyond": beyond}
            sub, mismatches = _subprocess_probe(workload)
            result["extra"]["cli_subprocess_ms"] = {
                "value": statistics.median(sub) * 1000, "unit": "ms", "samples": len(sub)}
            if mismatches:
                problems.append(f"{mismatches} subprocess outputs differ from in-process")
        # as if the defect inputs were part of every round
        open_defects = sum(d["open"] for d in defects) * rounds
        with_defects = attempted + len(defects) * rounds
        result.setdefault("extra", {})["error_rate_with_known_defects"] = {
            "value": (len(problems) + open_defects) / with_defects, "unit": "ratio", "samples": with_defects}

    result.update(
        correct=not problems,
        attempted=attempted,
        failed=len(problems),
        error_rate=len(problems) / attempted,
        rounds=rounds,
        unchecked=workload.unchecked,
        problems=problems[:20],
        properties=workload.properties(answers),
        metrics=metrics,
    )
    if record and not problems and not smoke:
        _record_expected(workload, answers)
        say(f"recorded expected answers for {name} seed {seed} in {os.path.relpath(EXPECTED, ROOT)}")
    _report(result, say)
    return result


def _report(result: dict, say) -> None:
    say(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: {result['why']}")
    say(f"  instances: {json.dumps(result['properties'], sort_keys=True)}")
    say(f"  {result['rounds']} round(s), {result['attempted']} queries, {result['failed']} failed, "
        f"error_rate {result['error_rate']:.4f}, {result['unchecked']} oracle checks over budget, "
        f"gate {result['gate_s']:.2f} s")
    for name, m in {**result["metrics"], **result.get("extra", {})}.items():
        detail = [f"n={m['samples']}"] if "samples" in m else []
        detail += [f"{m['beyond']} beyond"] if "beyond" in m else []
        say(f"  {name:44s} {m['value']:14.6g} {m['unit']}" + (f" ({', '.join(detail)})" if detail else ""))
    for d in result.get("known_defects", ()):
        state = "OPEN" if d["open"] else "fixed"
        say(f"  known defect [{state}] {d['input']}: observed {d['observed']}, want exit {d['want']}")
    if "stress_check" in result:
        say(f"  stress check: {result['stress_check']}")
    for p in result["problems"]:
        say(f"  FAILED: {p}")


def _final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


# ---------------------------------------------------------------------------
# smoke


def smoke() -> int:
    """Tiny run of every workload in both modes; every metric BENCHMARK.json
    names must be emitted as a finite number."""
    ok = True
    for w in SPEC["workloads"]:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            result = run(w["name"], DEFAULT_SEED, 0, bool(trace), smoke=True, say=lambda *_: None)
            missing = [
                k for k in wanted
                if not (k in result["metrics"] and math.isfinite(result["metrics"][k]["value"]))
            ]
            good = not missing and result["correct"]
            ok &= good
            print(f"smoke {w['name']:10s} trace {trace}: {'ok' if good else 'FAILED'} "
                  f"({len(result['metrics'])} metrics, {result['attempted']} queries)")
            if not good:
                print(f"  missing or not finite {missing}, problems {result['problems']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload, checking the metric set")
    ap.add_argument("--record-expected", action="store_true",
                    help=f"store this run's answers as the expected answers for seed {DEFAULT_SEED}")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.record_expected and args.seed != DEFAULT_SEED:
        ap.error(f"expected answers are recorded for seed {DEFAULT_SEED} only")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), record=args.record_expected)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
