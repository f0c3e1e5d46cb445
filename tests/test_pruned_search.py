"""Property tests: the product searches agree with the brute-force
oracles on small seeded random graphs and games."""

import random

from hypothesis import given, settings, strategies as st

from covgame import (
    PLAYER1,
    bounded_coverage_game,
    bounded_coverage_graph,
    coverage_value_game,
    coverage_value_graph,
    max_coverage_game,
    max_coverage_graph,
    min_safety_value,
    oracle,
    strategy_covers,
)
from covgame.game_cover import _Traps, _confined, _safety_bound
from covgame.graph_cover import _reach_labels
from covgame.model import _reachable
from genmodels import random_game, random_graph

seeds = given(st.integers(min_value=0, max_value=2**32 - 1))
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@examples
@seeds
def test_reach_labels_match_oracle(seed):
    g = random_graph(random.Random(seed), 8, 4)
    reach = _reach_labels(g)
    want = oracle._props_reachable(g)
    for v in _reachable(g.succ, g.initial):
        assert reach[v] == want[v]


@examples
@seeds
def test_graph_search_matches_oracle(seed):
    g = random_graph(random.Random(seed), 7, 4)
    value = coverage_value_graph(g)
    assert oracle.brute_force_graph(g, value.value)
    if value.value < len(g.ap):
        assert not oracle.brute_force_graph(g, value.value + 1)
    for m in range(len(g.ap) + 1):
        ans = max_coverage_graph(g, m)
        assert ans.decision == oracle.brute_force_graph(g, m)
        if ans.decision:
            # shortest: no path with one edge fewer covers m
            w = ans.witness
            assert len(w) == 1 or not oracle.brute_force_graph(g, m, len(w) - 2)
        for k in range(5):
            bounded = bounded_coverage_graph(g, m, k)
            assert bounded.decision == oracle.brute_force_graph(g, m, k)


@examples
@seeds
def test_game_search_matches_oracle(seed):
    g = random_game(random.Random(seed), 6, 3)
    for m in range(len(g.ap) + 1):
        ans = max_coverage_game(g, m)
        assert ans.decision == oracle.brute_force_game(g, m)
        if ans.decision:
            assert strategy_covers(g, ans.strategy, m)


@examples
@seeds
def test_bounded_game_value_matches_oracle(seed):
    g = random_game(random.Random(seed), 6, 3)
    for k in range(6):
        value = bounded_coverage_game(g, 0, k).value
        assert value == max(m for m in range(len(g.ap) + 1) if oracle.brute_force_game(g, m, k))
        ans = bounded_coverage_game(g, value, k)
        assert ans.decision and strategy_covers(g, ans.strategy, value)


def oracle_value(g):
    return max(m for m in range(len(g.ap) + 1) if oracle.brute_force_game(g, m))


@examples
@seeds
def test_safety_bound_caps_the_value(seed):
    g = random_game(random.Random(seed), 6, 3)
    ub = _safety_bound(_Traps(g))
    assert oracle_value(g) <= ub
    # greedy, so never below the cheapest confining set
    assert min_safety_value(g)[0] <= ub <= len(g.ap)


@examples
@seeds
def test_confined_sets_confine_the_play(seed):
    g = random_game(random.Random(seed), 6, 3)
    traps = _Traps(g)
    for props in range(1 << len(g.ap)):
        vs = _confined(traps, props)
        if vs is None:
            continue
        assert g.initial in vs
        assert set(_reachable([[u for u in row if u in vs] for row in g.succ], g.initial)) == vs
        for v in vs:
            assert g.labels[v] & ~props == 0
            inside = [u for u in g.succ[v] if u in vs]
            if g.owner[v] == PLAYER1:
                assert len(inside) == len(g.succ[v])
            else:
                assert inside


@examples
@seeds
def test_game_value_matches_oracle(seed):
    g = random_game(random.Random(seed), 6, 3)
    ans = coverage_value_game(g)
    assert ans.value == oracle_value(g)
    assert strategy_covers(g, ans.strategy, ans.value)
