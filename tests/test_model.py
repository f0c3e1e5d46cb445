"""Model types, validation, compilation, and serialization."""

import json
import random
import sys
import tracemalloc

import pytest

from covgame import (
    FormatError,
    InvalidModelError,
    LabeledGameGraph,
    LabeledGraph,
    MOutOfRangeError,
    NotDeterministicError,
    SystemAutomaton,
    bounded_coverage_game,
    bounded_coverage_graph,
    compile_system,
    cover_of,
    coverage_value_game,
    coverage_value_graph,
    formats,
    mask_names,
    max_coverage_game,
    max_coverage_graph,
    model,
    oracle,
    strategy_covers,
    game_to_graph,
    patch_self_loops,
    path_check,
    require_valid,
    validate,
)
from covgame import TesterStrategy as Strategy  # a Test* name would be collected
from genmodels import random_game, random_graph, random_system


class TestValidation:
    def test_triangle_is_clean(self, triangle):
        assert validate(triangle).ok

    def test_sink_reported_non_total(self):
        g = LabeledGraph.make(
            ["p"], [("a", ["p"]), ("s", [])], [("a", "s")], "a"
        )
        report = validate(g)
        assert not report.ok
        assert report.has("non-total", "s")

    def test_missing_owner_reported(self):
        g = LabeledGameGraph.make_game(
            ["p"],
            [("a", ["p"], 1), ("b", [], 2), ("c", [], None)],
            [("a", "b"), ("b", "c"), ("c", "a")],
            "a",
        )
        report = validate(g)
        assert report.has("missing-owner", "c")

    def test_dangling_edge_and_bad_initial(self):
        g = LabeledGraph(("p",), ("a",), ((0, 7),), (1,), 3)
        report = validate(g)
        assert report.has("dangling-edge")
        assert report.has("bad-initial")

    def test_solvers_refuse_invalid_models(self):
        g = LabeledGraph.make(["p"], [("a", []), ("s", [])], [("a", "s")], "a")
        with pytest.raises(InvalidModelError):
            require_valid(g)

    def test_system_totality(self):
        sys_ok = SystemAutomaton.make(
            ["p"], ["q0"], ["a"], [("q0", "a", "q0")], "q0", {"q0": ["p"]}
        )
        assert validate(sys_ok).ok
        sys_bad = SystemAutomaton.make(
            ["p"], ["q0", "q1"], ["a"], [("q0", "a", "q1")], "q0", {}
        )
        assert validate(sys_bad).has("non-total", "q1,a")


class TestCompileSystem:
    def test_one_state_self_loop(self):
        sys = SystemAutomaton.make(
            ["p"], ["q"], ["a"], [("q", "a", "q")], "q", {"q": ["p"]}
        )
        game = compile_system(sys)
        assert game.n == 2
        assert game.owner == (1, 2)
        assert game.labels == (1, 1)
        assert game.succ == ((1,), (0,))

    def test_deterministic_toggle(self):
        sys = SystemAutomaton.make(
            ["p", "q"],
            ["q0", "q1"],
            ["a"],
            [("q0", "a", "q1"), ("q1", "a", "q0")],
            "q0",
            {"q0": ["p"], "q1": ["q"]},
        )
        game = compile_system(sys)
        assert game.n == 4
        for v in game.player_vertices(2):
            assert len(game.succ[v]) == 1

    def test_nondeterministic_fanout(self):
        sys = SystemAutomaton.make(
            ["p"],
            ["q", "r"],
            ["a"],
            [("q", "a", "q"), ("q", "a", "r"), ("r", "a", "r")],
            "q",
            {"q": ["p"]},
        )
        game = compile_system(sys)
        pair = game.id_of["(q,a)"]
        assert len(game.succ[pair]) == 2

    def test_vertex_count_and_alternation(self):
        rng = random.Random(7)
        for _ in range(40):
            sys = random_system(rng)
            game = compile_system(sys)
            nq, na = sys.n, len(sys.alphabet)
            assert game.n == nq + nq * na
            for v, u in game.edges():
                assert game.owner[v] != game.owner[u]  # plays alternate
            # labels are copied onto the letter half
            for q in range(nq):
                for a in range(na):
                    assert game.labels[nq + q * na + a] == sys.labels[q]

    def test_deterministic_system_reduces_to_graph(self):
        rng = random.Random(11)
        for _ in range(60):
            sys = random_system(rng, deterministic=True)
            game = compile_system(sys)
            graph = game_to_graph(game)
            assert (
                coverage_value_graph(graph).value
                == coverage_value_game(game).value
            )


class TestGameToGraph:
    def test_rejects_nondeterministic(self, adversarial_game):
        with pytest.raises(NotDeterministicError) as err:
            game_to_graph(adversarial_game)
        assert err.value.vertex == "v0"

    def test_preserves_structure(self):
        g = LabeledGameGraph.make_game(
            ["p"],
            [("a", ["p"], 1), ("b", [], 2)],
            [("a", "b"), ("b", "b")],
            "a",
        )
        graph = game_to_graph(g)
        assert graph.succ == g.succ
        assert graph.labels == g.labels
        assert not isinstance(graph, LabeledGameGraph)


class TestPaths:
    def test_cover_union(self, triangle):
        assert cover_of(triangle, (0, 1, 2)) == 0b111
        assert cover_of(triangle, (0,)) == triangle.labels[0]

    def test_path_check(self, triangle):
        assert path_check(triangle, (0, 1, 2))
        assert not path_check(triangle, (0, 2))  # no a -> c edge
        assert not path_check(triangle, (1, 2))  # wrong start
        assert not path_check(triangle, ())


class TestSerialization:
    def test_round_trip_all_kinds(self):
        rng = random.Random(23)
        for _ in range(40):
            for model in (random_graph(rng), random_game(rng), random_system(rng)):
                again = formats.parse_obj(formats.render_obj(model))
                assert again == model

    def test_kind_inference(self, triangle, adversarial_game):
        assert formats.sniff_kind(formats.render_obj(triangle)) == "graph"
        assert formats.sniff_kind(formats.render_obj(adversarial_game)) == "game"

    def test_metadata_ignored(self, triangle):
        obj = formats.render_obj(triangle)
        obj["metadata"] = {"anything": 1}
        assert formats.parse_obj(obj) == triangle

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            formats.parse_obj({"vertices": []})
        with pytest.raises(FormatError):
            formats.parse_obj(
                {"vertices": [{"id": "a", "props": ["nope"]}], "ap": [], "initial": "a"}
            )
        with pytest.raises(FormatError):
            formats.loads("not json")

    def test_bool_owner_rejected(self, adversarial_game):
        obj = formats.render_obj(adversarial_game)
        for owner in (True, 1.0, 2.0):  # equal to a player id, but not an int
            obj["vertices"][0]["owner"] = owner
            with pytest.raises(FormatError):
                formats.parse_obj(obj)

    def test_dot_export_shapes(self, adversarial_game, triangle):
        dot = formats.to_dot(adversarial_game)
        assert "diamond" in dot and "box" in dot
        assert "diamond" not in formats.to_dot(triangle)


class TestPatchSelfLoops:
    def test_patches_sinks(self):
        g = LabeledGraph.make(["p"], [("a", ["p"]), ("s", [])], [("a", "s")], "a")
        fixed, patched = patch_self_loops(g)
        assert patched == ("s",)
        assert validate(fixed).ok
        assert fixed.succ[1] == (1,)

    def test_noop_when_total(self, triangle):
        fixed, patched = patch_self_loops(triangle)
        assert fixed == triangle
        assert patched == ()

    def test_patches_system(self):
        sys = SystemAutomaton.make(
            ["p"], ["q0", "q1"], ["a"], [("q0", "a", "q1")], "q0", {}
        )
        fixed, patched = patch_self_loops(sys)
        assert patched == ("q1",)
        assert validate(fixed).ok


def _traced_lines(fn) -> int:
    """The line events Python traces while fn() runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(before)
    return count


def _ring_parts(k: int):
    """k propositions and a ring of k vertices, vertex i labeled p_i."""
    ap = [f"p{i}" for i in range(k)]
    names = [f"v{i}" for i in range(k)]
    return ap, names, list(zip(names, names[1:] + names[:1]))


def _make_graph(k: int):
    ap, names, edges = _ring_parts(k)
    return lambda: LabeledGraph.make(ap, [(v, [p]) for v, p in zip(names, ap)], edges, "v0")


def _make_game(k: int):
    ap, names, edges = _ring_parts(k)
    return lambda: LabeledGameGraph.make_game(
        ap, [(v, [p], 1) for v, p in zip(names, ap)], edges, "v0"
    )


def _make_system(k: int):
    ap, names, edges = _ring_parts(k)
    return lambda: SystemAutomaton.make(
        ap, names, ["a"], [(q, "a", r) for q, r in edges], "v0", {q: [p] for q, p in zip(names, ap)}
    )


def _read_strategy(k: int):
    ap, names, edges = _ring_parts(k)
    g = _make_game(k)()
    obj = {
        "kind": "strategy",
        "entries": [{"vertex": q, "covered": [p], "choose": r} for (q, r), p in zip(edges, ap)],
    }
    return lambda: Strategy.from_obj(g, obj)


class TestPropositionIndex:
    @pytest.mark.parametrize("build", [_make_graph, _make_game, _make_system, _read_strategy])
    def test_names_resolve_in_constant_work_per_item(self, build):
        # the name -> bit index is built once per call, so the work per
        # item stays flat as items and propositions grow together; an
        # index rebuilt per item costs about |AP| lines each
        small, large = _traced_lines(build(1000)), _traced_lines(build(4000))
        assert large / 4000 < 1.25 * small / 1000, (small, large)

    def test_parse_peaks_within_twice_the_model(self):
        # the index holds one small int per name: with a mask per name,
        # |AP| masks of up to |AP| bits, parsing a ring with one
        # proposition per vertex peaked at 2.45x the parsed model
        n = 20_000
        text = json.dumps({
            "initial": "v0",
            "edges": [[f"v{i}", f"v{(i + 1) % n}"] for i in range(n)],
            "vertices": [{"id": f"v{i}", "props": [f"p{i}"]} for i in range(n)],
        })
        tracemalloc.start()
        try:
            parsed = formats.loads(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed.n == n and peak < 2 * held, (held, peak)

    def test_unknown_names_still_raise(self):
        with pytest.raises(FormatError, match="unknown proposition 'q'"):
            LabeledGraph.make(["p"], [("a", ["q"])], [("a", "a")], "a")
        with pytest.raises(FormatError, match="unknown proposition 'q'"):
            SystemAutomaton.make(["p"], ["s"], ["a"], [("s", "a", "s")], "s", {"s": ["q"]})
        g = _make_game(2)()
        obj = {"kind": "strategy", "entries": [{"vertex": "v0", "covered": ["q"], "choose": "v1"}]}
        with pytest.raises(FormatError, match="unknown proposition 'q'"):
            Strategy.from_obj(g, obj)

    def test_mask_names_ignores_bits_past_the_universe(self):
        assert model._bits(0b101001) == [0b1, 0b1000, 0b100000]
        assert model._bits(1 << 70 | 1) == [1, 1 << 70]
        assert model._bits(0) == []
        ap = ["p", "q", "r"]
        assert mask_names(ap, 0b101) == ("p", "r")
        assert mask_names(ap, 0b111 | 1 << 3 | 1 << 40) == ("p", "q", "r")
        assert mask_names(ap, 1 << 3) == ()
        assert mask_names([], 0b11) == ()


def target_calls(graph, game):
    """Every public solver or checker that takes a target m or a step
    bound k, as name -> call with that one argument varied."""
    idle = Strategy({})
    return {
        "max_coverage_game m": lambda x: max_coverage_game(game, x),
        "bounded_coverage_game m": lambda x: bounded_coverage_game(game, x, 2),
        "bounded_coverage_game k": lambda x: bounded_coverage_game(game, 1, x),
        "strategy_covers m": lambda x: strategy_covers(game, idle, x),
        "max_coverage_graph m": lambda x: max_coverage_graph(graph, x),
        "bounded_coverage_graph m": lambda x: bounded_coverage_graph(graph, x, 2),
        "bounded_coverage_graph k": lambda x: bounded_coverage_graph(graph, 1, x),
        "brute_force_game m": lambda x: oracle.brute_force_game(game, x),
        "brute_force_game k": lambda x: oracle.brute_force_game(game, 1, x),
        "brute_force_graph m": lambda x: oracle.brute_force_graph(graph, x),
        "brute_force_graph k": lambda x: oracle.brute_force_graph(graph, 1, x),
    }


class TestTargets:
    @pytest.mark.parametrize("bad", [1.5, 2.5, 1.0, True, False, "1"])
    def test_non_integer_targets_are_refused(self, triangle, triangle_game, bad):
        for name, call in target_calls(triangle, triangle_game).items():
            with pytest.raises(MOutOfRangeError):
                call(bad)
            call(1)  # the same call with an integer is answered

    def test_a_fractional_budget_gives_no_strategy(self, triangle_game):
        # a strategy with budget 2.5 would not read back from its own JSON
        with pytest.raises(MOutOfRangeError):
            bounded_coverage_game(triangle_game, 1, 2.5)
        ans = bounded_coverage_game(triangle_game, 1, 2)
        obj = ans.strategy.to_obj(triangle_game)
        assert Strategy.from_obj(triangle_game, obj) == ans.strategy
