"""The recurrence check against its earlier definition, and the forward
sweeps it makes: a whole-arena attractor answers a model whose attractor
holds every vertex, and only the callers that need the reachable set
pay for a sweep."""

import json
import random
import re

import pytest

from covgame import (
    PLAYER1,
    LabeledGameGraph,
    LabeledGraph,
    NotRecurrentError,
    cli,
    formats,
    game_cover,
    graph_cover,
    is_controllably_recurrent_game,
    is_controllably_recurrent_graph,
    max_coverage_recurrent_graph,
)
from covgame.game_cover import _recurrence
from covgame.model import _reachable
from genmodels import (
    random_game,
    random_graph,
    random_recurrent_game,
    random_strongly_connected_graph,
)


def reference_return_check(g):
    """The earlier definition: the tester's attractor of the initial
    vertex over the whole arena, then a BFS into a hashed set; the stray
    is the smallest reached vertex outside the attractor."""
    tester = [not isinstance(g, LabeledGameGraph) or g.owner[v] == PLAYER1 for v in range(g.n)]
    attractor, grew = {g.initial}, True
    while grew:
        grew = False
        for v in range(g.n):
            if v not in attractor and (any if tester[v] else all)(u in attractor for u in g.succ[v]):
                attractor.add(v)
                grew = True
    seen, order = {g.initial}, [g.initial]
    for v in order:
        for u in g.succ[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
    return order, attractor, min((v for v in seen if v not in attractor), default=None)


def with_unreached(g, back: bool, sink: bool):
    """`g` plus vertices no play reaches: `back` has an edge to the
    initial vertex (inside the attractor), `sink` only a self-loop
    (outside it). Both are tester vertices in a game."""
    extra = [("back", (g.initial,))] * back + [("sink", (g.n + back,))] * sink
    fields = dict(
        names=g.names + tuple(name for name, _ in extra),
        succ=g.succ + tuple(row for _, row in extra),
        labels=g.labels + (0,) * len(extra),
    )
    if isinstance(g, LabeledGameGraph):
        return LabeledGameGraph(g.ap, initial=g.initial, owner=g.owner + (PLAYER1,) * len(extra), **fields)
    return LabeledGraph(g.ap, initial=g.initial, **fields)


def corpus():
    rng = random.Random(2026)
    makers = (
        lambda: random_graph(rng, 8, 3),
        lambda: random_game(rng, 8, 3),
        lambda: random_recurrent_game(rng, 8, 3),
        lambda: random_strongly_connected_graph(rng, 8, 3),
    )
    for _ in range(150):
        for make in makers:
            g = make()
            yield g
            yield with_unreached(g, True, False)
            yield with_unreached(g, True, True)


def test_return_check_matches_the_earlier_definition():
    seen = dict.fromkeys(["recurrent", "not recurrent", "fast", "unreached inside", "unreached outside"], 0)
    for g in corpus():
        order, attractor, stray = reference_return_check(g)
        want = (stray is None, stray)
        assert _recurrence(g) == (stray, None if len(attractor) == g.n else order)
        assert is_controllably_recurrent_game(g) == want
        if not isinstance(g, LabeledGameGraph):
            assert is_controllably_recurrent_graph(g) == want
            if stray is None:
                union = 0
                for v in order:
                    union |= g.labels[v]
                assert max_coverage_recurrent_graph(g) == union.bit_count()
            else:
                with pytest.raises(NotRecurrentError, match=re.escape(repr(g.names[stray]))):
                    max_coverage_recurrent_graph(g)
        unreached = set(range(g.n)) - set(order)
        seen["recurrent" if stray is None else "not recurrent"] += 1
        seen["fast"] += len(attractor) == g.n
        seen["unreached inside"] += bool(unreached & attractor)
        seen["unreached outside"] += bool(unreached - attractor)
    assert min(seen.values()) >= 50, seen


def test_reachable_lists_each_vertex_once_in_bfs_order():
    for g in corpus():
        order = _reachable(g.succ, g.initial)
        assert order == reference_return_check(g)[0]
        assert len(order) == len(set(order))


def test_graph_verdict_has_its_own_function():
    assert is_controllably_recurrent_graph.__module__ == "covgame.graph_cover"
    assert is_controllably_recurrent_graph.__name__ == "is_controllably_recurrent_graph"


@pytest.fixture
def sweeps(monkeypatch):
    calls = []

    def counted(succ, start):
        calls.append(start)
        return _reachable(succ, start)

    monkeypatch.setattr(game_cover, "_reachable", counted)
    monkeypatch.setattr(graph_cover, "_reachable", counted)
    return calls


def test_full_attractor_makes_no_sweep(sweeps, triangle, triangle_game, tmp_path, capsys):
    assert is_controllably_recurrent_graph(triangle) == (True, None)
    assert is_controllably_recurrent_game(triangle) == (True, None)
    assert is_controllably_recurrent_game(triangle_game) == (True, None)
    path = tmp_path / "game.cov"
    path.write_text(formats.dumps(triangle_game), encoding="utf-8")
    assert cli.main(["recurrent", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["recurrent"]
    assert sweeps == []


def test_callers_of_the_reachable_set_sweep_once(sweeps, triangle, tmp_path, capsys):
    assert max_coverage_recurrent_graph(triangle) == 3
    assert len(sweeps) == 1
    # the attractor of a misses z, yet no play reaches z: the sweep that
    # finds no stray also gives the label union
    pair = LabeledGraph.make(
        ["p", "q"], [("a", ["p"]), ("b", ["q"]), ("z", [])], [("a", "b"), ("b", "a"), ("z", "z")], "a"
    )
    sweeps.clear()
    assert max_coverage_recurrent_graph(pair) == 2
    assert len(sweeps) == 1
    sweeps.clear()
    path = tmp_path / "triangle.cov"
    path.write_text(formats.dumps(triangle), encoding="utf-8")
    assert cli.main(["recurrent", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3
    assert len(sweeps) == 1


def test_a_stray_costs_one_sweep(sweeps, branch_graph, adversarial_game):
    assert is_controllably_recurrent_graph(branch_graph)[0] is False
    assert is_controllably_recurrent_game(adversarial_game)[0] is False
    with pytest.raises(NotRecurrentError):
        max_coverage_recurrent_graph(branch_graph)
    assert len(sweeps) == 3
