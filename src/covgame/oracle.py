"""Brute-force reference answers, used by the test suite and the
`verify` subcommand.

Nothing here shares code with the solver modules: graphs are answered by
explicit path enumeration, games by plain minimax over the bounded
exploration tree (no label-repeat cutoff, no memoization), end
components and confining sets by trying every vertex set, and the
reductions' source problems by exhaustive enumeration. Budgets abort
with BudgetExceededError; an oracle is never silently approximate.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceededError, FormatError
from .model import PLAYER1, LabeledGameGraph, LabeledGraph, check_target, require_valid

DEFAULT_BUDGET = 50_000_000


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError("oracle expansion budget exhausted")


def _unwound(search, *args):
    """`search(*args)`, reporting recursion deeper than the interpreter
    allows as an exhausted budget, so the searches can stay recursive."""
    try:
        return search(*args)
    except RecursionError:
        raise BudgetExceededError("oracle recursion too deep for the interpreter") from None


def brute_force_graph(
    g: LabeledGraph, m: int, k: int | None = None, budget: int = DEFAULT_BUDGET
) -> bool:
    """Enumerate paths from the initial vertex up to min(k, m * |V|)
    edges and report whether any prefix covers >= m propositions.

    A step that lands on a (vertex, covered) pair already on the current
    path is skipped: splicing out that cycle yields a shorter path with
    identical coverage, which the enumeration reaches anyway. That keeps
    the search finite without any cross-branch state.
    """
    require_valid(g)
    check_target(g, m, k)
    depth = m * g.n if k is None else min(k, m * g.n)
    succ, labels = g.succ, g.labels
    b0 = labels[g.initial]
    if b0.bit_count() >= m:
        return True
    bud = _Budget(budget)
    on_path = {(g.initial, b0)}

    def extend(v: int, b: int, left: int) -> bool:
        bud.spend()
        if left == 0:
            return False
        for u in succ[v]:
            nb = b | labels[u]
            if nb.bit_count() >= m:
                return True
            key = (u, nb)
            if key in on_path:
                continue
            on_path.add(key)
            if extend(u, nb, left - 1):
                return True
            on_path.discard(key)
        return False

    return _unwound(extend, g.initial, b0, depth)


def _reach(rows, start: int) -> set[int]:
    """Vertices reachable from `start` along `rows`, by depth-first search."""
    seen, stack = {start}, [start]
    while stack:
        for u in rows[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _union(g: LabeledGraph, vs) -> int:
    mask = 0
    for v in vs:
        mask |= g.labels[v]
    return mask


def _props_reachable(g: LabeledGraph) -> list[int]:
    """Per-vertex union of all labels graph-reachable from it."""
    return [_union(g, _reach(g.succ, v)) for v in range(g.n)]


def brute_force_game(
    g: LabeledGameGraph, m: int, k: int | None = None, budget: int = DEFAULT_BUDGET
) -> bool:
    """Plain minimax over the depth-k exploration tree: player-1 nodes
    take the best successor, player-2 nodes the worst, leaves score the
    covered set. Unbounded queries use depth |V| * (|AP| + 1), which is
    past the point where extra budget can change the outcome.

    The only shortcuts are exactness-preserving: a branch whose covered
    set already has m propositions is a yes, and a branch from which even
    collecting every graph-reachable proposition would stay below m is a
    no. Successors are tried most-coverage-first at player-1 nodes and
    least-coverage-first at player-2 nodes, which only reorders the
    any/all evaluation. No label-repeat cutoff, no memoization.
    """
    require_valid(g)
    check_target(g, m, k)
    depth = g.n * (len(g.ap) + 1) if k is None else k
    succ, labels, owner = g.succ, g.labels, g.owner
    potential = _props_reachable(g)
    bud = _Budget(budget)
    eager = [
        sorted(row, key=lambda u: (-labels[u].bit_count(), u)) for row in succ
    ]
    stingy = [
        sorted(row, key=lambda u: (labels[u].bit_count(), u)) for row in succ
    ]

    def wins(v: int, b: int, left: int) -> bool:
        bud.spend()
        if b.bit_count() >= m:
            return True
        if left == 0:
            return False
        if (b | potential[v]).bit_count() < m:
            return False
        if owner[v] == PLAYER1:
            return any(wins(u, b | labels[u], left - 1) for u in eager[v])
        return all(wins(u, b | labels[u], left - 1) for u in stingy[v])

    return _unwound(wins, g.initial, labels[g.initial], depth)


def _confining_covers(g: LabeledGameGraph, budget: int, connected: bool):
    """Label-union sizes of the vertex sets through the initial vertex
    that player 1 cannot leave, in which player 2 always has a move and,
    if `connected`, every vertex reaches every other along inside edges.
    Tries every vertex set, one budget unit each."""
    require_valid(g)
    bud = _Budget(budget)
    others = [v for v in range(g.n) if v != g.initial]
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            bud.spend()
            vs = {g.initial, *combo}
            inside = {v: [u for u in g.succ[v] if u in vs] for v in vs}
            if not all(
                row and (g.owner[v] != PLAYER1 or len(row) == len(g.succ[v]))
                for v, row in inside.items()
            ):
                continue
            if not connected or all(_reach(inside, v) == vs for v in vs):
                yield _union(g, vs).bit_count()


def min_cover_end_component_brute(
    g: LabeledGameGraph, budget: int = DEFAULT_BUDGET
) -> int | None:
    """Fewest distinct propositions on an end component (a strongly
    connected confining set) through the initial vertex, by trying every
    vertex set; None when no end component contains it."""
    return min(_confining_covers(g, budget, True), default=None)


def min_safety_brute(g: LabeledGameGraph, budget: int = DEFAULT_BUDGET) -> int:
    """Fewest distinct propositions on a vertex set through the initial
    vertex that the system can confine the play to, by trying every
    vertex set (the whole vertex set always confines)."""
    return min(_confining_covers(g, budget, False))


# ---------------------------------------------------------------------------
# source problems for the reductions


def maxsat_brute(phi, budget: int = DEFAULT_BUDGET) -> int:
    """Maximum number of simultaneously satisfiable clauses, by trying
    every assignment."""
    phi.check()
    bud = _Budget(budget)
    best = 0
    for bits in range(1 << phi.num_vars):
        bud.spend()
        sat = 0
        for clause in phi.clauses:
            for lit in clause:
                if (bits >> (abs(lit) - 1) & 1) == (lit > 0):
                    sat += 1
                    break
        best = max(best, sat)
    return best


def qbf_eval_brute(phi, budget: int = DEFAULT_BUDGET) -> bool:
    """Truth of a prenex QBF by recursive expansion of the prefix."""
    phi.check()
    bud = _Budget(budget)
    prefix = phi.prefix
    clauses = phi.matrix.clauses

    def ev(i: int, bits: int) -> bool:
        bud.spend()
        if i == len(prefix):
            return all(
                any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause)
                for clause in clauses
            )
        q, var = prefix[i]
        hi = ev(i + 1, bits | (1 << (var - 1)))
        if q == "e" and hi:
            return True
        if q == "a" and not hi:
            return False
        return ev(i + 1, bits)

    return _unwound(ev, 0, 0)


def min_vertex_cover_brute(h, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest vertex cover, by checking subsets in ascending size."""
    bud = _Budget(budget)
    for size in range(len(h.vertices) + 1):
        for combo in itertools.combinations(h.vertices, size):
            bud.spend()
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in h.edges):
                return size
    raise AssertionError("the full vertex set always covers")


def hampath_brute(h, start: str, budget: int = DEFAULT_BUDGET) -> bool:
    """Is there a Hamiltonian path from `start`? Depth-first search over
    simple paths."""
    if start not in h.vertices:
        raise FormatError(f"unknown start vertex {start!r}")
    adj: dict[str, list[str]] = {v: [] for v in h.vertices}
    for a, b in h.edges:
        if b not in adj[a]:
            adj[a].append(b)
    n = len(h.vertices)
    bud = _Budget(budget)

    def dfs(v: str, visited: set[str]) -> bool:
        bud.spend()
        if len(visited) == n:
            return True
        for u in adj[v]:
            if u not in visited:
                visited.add(u)
                if dfs(u, visited):
                    return True
                visited.discard(u)
        return False

    return _unwound(dfs, start, {start})
