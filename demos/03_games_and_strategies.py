#!/usr/bin/env python3
# Coverage games: the tester (player 1) picks edges at its vertices, the
# system (player 2) at its own, and the tester wants to maximize the
# number of distinct propositions visited. Solving runs a reachability
# game on the (vertex, covered-set) product; the winning strategy's
# memory is exactly the covered set.
#
# Run with:  python demos/03_games_and_strategies.py

from covgame import (
    LabeledGameGraph,
    bounded_coverage_game,
    coverage_value_game,
    max_coverage_game,
    strategy_covers,
)

# The system chooses which absorbing branch the play enters, so only one
# of the two goals can ever be guaranteed.
branchy = LabeledGameGraph.make_game(
    ap=["p", "q"],
    vertices=[("v0", [], 2), ("a", ["p"], 1), ("b", ["q"], 1)],
    edges=[("v0", "a"), ("v0", "b"), ("a", "a"), ("b", "b")],
    initial="v0",
)
print("force 1 goal:", max_coverage_game(branchy, 1).decision)
print("force 2 goals:", max_coverage_game(branchy, 2).decision)
print("game value:", coverage_value_game(branchy).value)

# A game the tester fully controls behaves like a plain graph.
loop = LabeledGameGraph.make_game(
    ap=["p", "q", "r"],
    vertices=[("a", ["p"], 1), ("b", ["q"], 1), ("c", ["r"], 1)],
    edges=[("a", "b"), ("b", "c"), ("c", "a")],
    initial="a",
)
ans = coverage_value_game(loop)
print("all-tester triangle value:", ans.value)

# Strategies map (vertex, covered set) to the edge to play; replaying
# them against every adversary line certifies the answer.
entries = ans.strategy.to_obj(loop)["entries"]
for entry in entries:
    print("  at", entry["vertex"], "with", entry["covered"], "->", entry["choose"])
print("strategy survives all playouts:", strategy_covers(loop, ans.strategy, 3))

# Bounded coverage ranks the states of the product capped at the budget
# by the fewest rounds in which the tester forces each coverage level;
# the highest level whose rank at the initial state fits the budget is
# the exact value the tester can guarantee within it.
mixed = LabeledGameGraph.make_game(
    ap=["p", "q", "r"],
    vertices=[
        ("hub", [], 1),
        ("sys", [], 2),
        ("x", ["p"], 1),
        ("y", ["q"], 1),
        ("z", ["r"], 1),
    ],
    edges=[
        ("hub", "sys"),
        ("sys", "x"),
        ("sys", "y"),
        ("x", "hub"),
        ("y", "hub"),
        ("hub", "z"),
        ("z", "hub"),
    ],
    initial="hub",
)
for k in (2, 4, 8):
    ans = bounded_coverage_game(mixed, 3, k)
    print(f"k={k}: decision={ans.decision} guaranteed-within-budget={ans.value}")
