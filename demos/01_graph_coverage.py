#!/usr/bin/env python3
# Coverage on labeled graphs: decide whether m coverage goals can be
# visited, compute the exact value, and extract witness paths.
#
# Run with:  python demos/01_graph_coverage.py

from covgame import (
    LabeledGraph,
    bounded_coverage_graph,
    coverage_value_graph,
    cover_of,
    mask_names,
    max_coverage_graph,
    path_check,
    validate,
)

# A triangle whose three vertices carry three distinct coverage goals.
triangle = LabeledGraph.make(
    ap=["p", "q", "r"],
    vertices=[("a", ["p"]), ("b", ["q"]), ("c", ["r"])],
    edges=[("a", "b"), ("b", "c"), ("c", "a")],
    initial="a",
)

print("validation:", validate(triangle).summary())

# Can a single path visit all three goals?
ans = max_coverage_graph(triangle, 3)
names = [triangle.names[v] for v in ans.witness]
print("m=3 decision:", ans.decision, "witness:", " -> ".join(names))
print("witness checks out:", path_check(triangle, ans.witness))
print("witness covers:", mask_names(triangle.ap, cover_of(triangle, ans.witness)))

# The exact coverage value, found by binary search over m.
print("coverage value:", coverage_value_graph(triangle).value)

# Bounded time: k counts steps (edges), so a prefix of k+1 vertices.
print("m=3 within 2 steps:", bounded_coverage_graph(triangle, 3, 2).decision)
print("m=3 within 1 step: ", bounded_coverage_graph(triangle, 3, 1).decision)

# Branching without reconvergence caps the value: the two goals below
# sit in different absorbing branches, so no single path sees both.
branch = LabeledGraph.make(
    ap=["p", "q"],
    vertices=[("s", []), ("t", ["p"]), ("u", ["q"])],
    edges=[("s", "t"), ("s", "u"), ("t", "t"), ("u", "u")],
    initial="s",
)
print("branch graph value:", coverage_value_graph(branch).value)

# Witnesses are never longer than m * |V|: cycles that add no new
# proposition can always be spliced out.
big = max_coverage_graph(branch, 1)
print("steps used:", len(big.witness) - 1, "<=", 1 * branch.n)
