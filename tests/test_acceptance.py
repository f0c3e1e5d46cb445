"""Acceptance suite: one test per criterion, exact tolerances, seeded
corpora. Each test prints a single PASS line with its corpus size."""

import gc
import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from covgame import (
    LabeledGraph,
    UndirectedGraph,
    bounded_coverage_game,
    bounded_coverage_graph,
    coverage_value_game,
    coverage_value_graph,
    cover_of,
    formats,
    hampath_to_bounded,
    is_controllably_recurrent_game,
    max_coverage_game,
    max_coverage_graph,
    max_coverage_recurrent_graph,
    min_cover_end_component,
    oracle,
    path_check,
    qbf_to_game,
    sat_to_graph,
    vc_to_game,
)
from covgame.cli import main as cli_main
from genmodels import (
    random_cnf,
    random_digraph,
    random_game,
    random_graph,
    random_qbf,
    random_recurrent_game,
    random_strongly_connected_graph,
)

GRAPH_CORPUS = 1000
GAME_CORPUS = 500
SC_CORPUS = 300
RECURRENT_CORPUS = 200
CNF_CORPUS = 500
QBF_CORPUS = 200
DIGRAPH_CORPUS = 200
K_RANGE = range(7)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# shared corpus runs (criteria 1-3 and 7-9 all read these records)


@pytest.fixture(scope="module")
def graph_records():
    rng = random.Random(20260808)
    records = []
    for _ in range(GRAPH_CORPUS):
        g = random_graph(rng)
        per_m = []
        for m in range(min(3, len(g.ap)) + 1):
            omax = oracle.brute_force_graph(g, m)
            amax = max_coverage_graph(g, m)
            saturated = bounded_coverage_graph(g, m, m * g.n)
            ks = [
                (k, oracle.brute_force_graph(g, m, k), bounded_coverage_graph(g, m, k))
                for k in K_RANGE
            ]
            per_m.append((m, omax, amax, saturated, ks))
        records.append((g, per_m))
    return records


@pytest.fixture(scope="module")
def game_records():
    rng = random.Random(20260809)
    records = []
    for _ in range(GAME_CORPUS):
        g = random_game(rng)
        horizon = g.n * (len(g.ap) + 1)
        per_m = []
        for m in range(min(3, len(g.ap)) + 1):
            omax = oracle.brute_force_game(g, m)
            amax = max_coverage_game(g, m)
            saturated = bounded_coverage_game(g, m, horizon)
            ks = [
                (k, oracle.brute_force_game(g, m, k), bounded_coverage_game(g, m, k))
                for k in K_RANGE
            ]
            per_m.append((m, omax, amax, saturated, ks))
        records.append((g, per_m))
    return records


def exhaustive_playout_depth(g, strategy, m):
    """Longest play over every adversary line before the goal is met;
    None when some line fails (cycle below m, missing move, budget out)."""
    budget = strategy.budget
    b0 = g.labels[g.initial]
    start = (g.initial, b0) if budget is None else (g.initial, b0, budget)
    MISSING, GRAY = object(), object()
    memo = {}

    def walk(node):
        v, b = node[0], node[1]
        if b.bit_count() >= m:
            return 0
        if budget is not None and node[2] == 0:
            return None
        got = memo.get(node, MISSING)
        if got is GRAY:
            return None
        if got is not MISSING:
            return got
        memo[node] = GRAY
        if g.owner[v] == 1:
            pick = strategy.choose(v, b)
            if pick is None or pick not in g.succ[v]:
                memo[node] = None
                return None
            nexts = [pick]
        else:
            nexts = g.succ[v]
        worst = 0
        for u in nexts:
            child = (
                (u, b | g.labels[u])
                if budget is None
                else (u, b | g.labels[u], node[2] - 1)
            )
            down = walk(child)
            if down is None:
                memo[node] = None
                return None
            worst = max(worst, down)
        memo[node] = worst + 1
        return worst + 1

    return walk(start)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_graph_oracle_equivalence(graph_records):
    queries = 0
    for g, per_m in graph_records:
        for m, omax, amax, _, ks in per_m:
            assert amax.decision == omax
            queries += 1
            for k, ok_, ans in ks:
                assert ans.decision == ok_
                queries += 1
    report(f"1 (graphs vs oracle): PASS on {len(graph_records)} graphs, {queries} queries")


def test_criterion_2_game_oracle_equivalence(game_records):
    queries = 0
    for g, per_m in game_records:
        for m, omax, amax, _, ks in per_m:
            assert amax.decision == omax
            queries += 1
            for k, ok_, ans in ks:
                assert ans.decision == ok_
                queries += 1
    report(f"2 (games vs oracle): PASS on {len(game_records)} games, {queries} queries")


def test_criterion_3_strategy_soundness(game_records):
    playouts = 0
    for g, per_m in game_records:
        if len(g.player_vertices(2)) > 5:
            continue
        for m, _, amax, _, ks in per_m:
            if amax.decision:
                assert exhaustive_playout_depth(g, amax.strategy, m) is not None
                playouts += 1
            for _, _, ans in ks:
                if ans.decision and ans.strategy is not None:
                    assert exhaustive_playout_depth(g, ans.strategy, m) is not None
                    playouts += 1
    assert playouts > 0
    report(f"3 (strategy soundness): PASS, {playouts} strategies played out exhaustively")


def _ladder_graph(n: int, seed: int) -> LabeledGraph:
    """Strongly connected ring with random chords and eight propositions."""
    rng = random.Random(seed)
    succ = []
    for v in range(n):
        row = {(v + 1) % n}
        if rng.random() < 0.3:
            row.add(rng.randrange(n))
        succ.append(tuple(sorted(row)))
    return LabeledGraph(
        tuple(f"p{i}" for i in range(8)),
        tuple(f"v{i}" for i in range(n)),
        tuple(succ),
        tuple(rng.getrandbits(8) for _ in range(n)),
        0,
    )


def test_criterion_4_recurrent_fast_path():
    rng = random.Random(20260810)
    for _ in range(SC_CORPUS):
        g = random_strongly_connected_graph(rng)
        assert max_coverage_recurrent_graph(g) == coverage_value_graph(g).value

    sizes = [20_000, 60_000, 200_000]
    measured = []
    for n in sizes:
        g = _ladder_graph(n, seed=n)
        best = float("inf")
        for _ in range(3):
            gc.disable()
            t0 = time.perf_counter()
            max_coverage_recurrent_graph(g)
            best = min(best, time.perf_counter() - t0)
            gc.enable()
        measured.append((g.n + g.edge_count(), best))
    times = [t for _, t in measured]
    assert times == sorted(times), f"not monotone: {measured}"
    per_unit = [t / size for size, t in measured]
    spread = max(per_unit) / min(per_unit)
    assert spread <= 3.0, f"super-linear scaling: {measured}"
    report(
        f"4 (recurrent fast path): PASS on {SC_CORPUS} graphs; "
        f"ladder {sizes} within {spread:.2f}x of linear"
    )


def test_criterion_5_end_component_equivalence():
    rng = random.Random(20260811)
    for _ in range(RECURRENT_CORPUS):
        g = random_recurrent_game(rng)
        _, count = min_cover_end_component(g)
        assert coverage_value_game(g).value == count
    report(f"5 (lemma equivalence): PASS on {RECURRENT_CORPUS} recurrent games")


def _all_undirected_graphs(max_n: int):
    for n in range(2, max_n + 1):
        names = tuple(f"u{i}" for i in range(n))
        pairs = list(itertools.combinations(names, 2))
        for bits in range(1, 1 << len(pairs)):
            yield UndirectedGraph(
                names, tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
            )


def test_criterion_6_reduction_correctness():
    rng = random.Random(20260812)
    for _ in range(CNF_CORPUS):
        phi = random_cnf(rng, max_vars=5, max_clauses=8)
        res = sat_to_graph(phi)
        assert coverage_value_graph(res.model).value == oracle.maxsat_brute(phi) + 1

    for _ in range(QBF_CORPUS):
        phi = random_qbf(rng, max_vars=4, max_clauses=6)
        res = qbf_to_game(phi)
        assert (
            max_coverage_game(res.model, res.target_m).decision
            == oracle.qbf_eval_brute(phi)
        )

    vc_checked = 0
    extras = [
        UndirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))),
        UndirectedGraph(
            ("a", "b", "c", "d"),
            tuple(itertools.combinations(("a", "b", "c", "d"), 2)),
        ),
        UndirectedGraph(("c", "x", "y", "z"), (("c", "x"), ("c", "y"), ("c", "z"))),
        UndirectedGraph(
            ("c", "x", "y", "z", "w"),
            (("c", "x"), ("c", "y"), ("c", "z"), ("c", "w")),
        ),
    ]
    for h in itertools.chain(_all_undirected_graphs(5), extras):
        res = vc_to_game(h)
        assert (
            coverage_value_game(res.model).value
            == oracle.min_vertex_cover_brute(h) + 1
        )
        assert is_controllably_recurrent_game(res.model)[0]
        vc_checked += 1

    for _ in range(DIGRAPH_CORPUS):
        h = random_digraph(rng, max_v=7)
        start = h.vertices[rng.randrange(len(h.vertices))]
        res = hampath_to_bounded(h, start)
        assert (
            bounded_coverage_graph(res.model, res.target_m, res.k).decision
            == oracle.hampath_brute(h, start)
        )
    report(
        f"6 (reductions): PASS on {CNF_CORPUS} CNFs, {QBF_CORPUS} QBFs, "
        f"{vc_checked} vertex-cover graphs, {DIGRAPH_CORPUS} digraphs"
    )


def test_criterion_7_witness_bounds(graph_records, game_records):
    checked = 0
    for g, per_m in graph_records:
        for m, _, amax, _, ks in per_m:
            if amax.decision:
                assert path_check(g, amax.witness)
                assert cover_of(g, amax.witness).bit_count() >= m
                assert len(amax.witness) - 1 <= m * g.n
                checked += 1
            for k, _, ans in ks:
                if ans.decision:
                    assert path_check(g, ans.witness)
                    assert cover_of(g, ans.witness).bit_count() >= m
                    assert len(ans.witness) - 1 <= k
                    checked += 1
    for g, per_m in game_records:
        for m, _, amax, _, ks in per_m:
            if amax.decision:
                depth = exhaustive_playout_depth(g, amax.strategy, m)
                assert depth is not None and depth <= m * g.n
                checked += 1
            for k, _, ans in ks:
                if ans.decision and ans.strategy is not None:
                    assert ans.strategy.budget <= k
                    checked += 1
    report(f"7 (witness bounds): PASS on {checked} witnesses")


def test_criterion_8_monotone_and_saturation(graph_records, game_records):
    checks = 0
    for records, horizon_of in (
        (graph_records, lambda g, m: m * g.n),
        (game_records, lambda g, m: g.n * (len(g.ap) + 1)),
    ):
        for g, per_m in records:
            max_decisions = [amax.decision for _, _, amax, _, _ in per_m]
            for low, high in zip(max_decisions, max_decisions[1:]):
                assert low or not high  # nonincreasing in m
            for m, _, amax, saturated, ks in per_m:
                bounded = [ans.decision for _, _, ans in ks]
                for low, high in zip(bounded, bounded[1:]):
                    assert high or not low  # nondecreasing in k
                if any(bounded):
                    assert amax.decision
                assert saturated.decision == amax.decision
                checks += 1
    report(f"8 (monotonicity and saturation): PASS on {checks} (model, m) pairs")


def test_criterion_9_cli_determinism(graph_records, game_records, tmp_path):
    runs = 0
    for i, (g, per_m) in enumerate(itertools.chain(graph_records, game_records)):
        path = tmp_path / f"model{i}.cov"
        path.write_text(formats.dumps(g))
        m = min(2, len(g.ap))
        argv = ["solve", str(path), "--m", str(m), "--json"]
        outputs = []
        for _ in range(2):
            sink = io.StringIO()
            with redirect_stdout(sink):
                cli_main(list(argv))
            outputs.append(sink.getvalue())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # stays machine-readable
        runs += 1
    report(f"9 (CLI determinism): PASS, {runs} models solved twice byte-identically")
