"""Property tests: the product searches agree with the brute-force
oracles on small seeded random graphs and games."""

import random

from hypothesis import given, settings, strategies as st

from covgame import (
    bounded_coverage_game,
    bounded_coverage_graph,
    coverage_value_graph,
    max_coverage_game,
    max_coverage_graph,
    oracle,
    strategy_covers,
)
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
