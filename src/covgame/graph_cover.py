"""Exact coverage solvers for labeled graphs.

Searches run over (vertex, covered-set) product states, explored breadth
first with successors in ascending vertex id, so decisions and witnesses
are deterministic and witnesses come out shortest-first. The covered set
only grows along a path, hence the product is finite and a state first
reached at some depth dominates every later arrival.

The search is pruned by a reachable-label bound: with R[v] the label
union of the vertices reachable from v, no path through (v, b) covers
more than |b | R[v]|. A state whose bound cannot beat the best coverage
found so far, or cannot reach the target m of a decision query, is
never enqueued. Pruning keeps every answer and witness exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRecurrentError
from .game_cover import _return_check
from .model import LabeledGraph, _reachable, check_target, cover_of, require_valid


@dataclass(frozen=True)
class GraphAnswer:
    """Outcome of a graph coverage query.

    For decision queries `value` stays None; coverage_value_graph fills
    it with the attained maximum. `witness` is a vertex-id path starting
    at the initial vertex, present on every yes answer.
    """

    decision: bool
    value: int | None = None
    witness: tuple[int, ...] | None = None


def _reach_labels(g) -> list[int]:
    """R[v], the label union of the vertices reachable from v (v
    included), for every v reachable from the initial vertex.

    One iterative Tarjan pass, linear in |V| + |E|. Components complete
    sinks first, so when a component completes, the unions of the
    components its edges leave to are final, and its own union is its
    labels plus those.
    """
    succ = g.succ
    reach = list(g.labels)
    num = [0] * g.n  # discovery order from 1; 0 = unvisited
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    v = g.initial
    count = num[v] = low[v] = 1
    on_stack[v] = True
    stack.append(v)
    frames = [(v, iter(succ[v]))]
    while frames:
        v, rest = frames[-1]
        for u in rest:
            if not num[u]:
                count += 1
                num[u] = low[u] = count
                on_stack[u] = True
                stack.append(u)
                frames.append((u, iter(succ[u])))
                break
            if on_stack[u]:
                low[v] = min(low[v], num[u])
            else:
                reach[v] |= reach[u]
        else:
            frames.pop()
            if low[v] == num[v]:
                members = []
                union = 0
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    union |= reach[w]
                    if w == v:
                        break
                for w in members:
                    reach[w] = union
            if frames:
                p = frames[-1][0]
                low[p] = min(low[p], low[v])
                reach[p] |= reach[v]
    return reach


def _product_search(g, m, cap):
    """BFS the (vertex, covered) product, at most `cap` edges deep (no
    cap when None). Returns the coverage of the first state of greatest
    coverage and the path to it. The parent map doubles as the seen set.

    A decision query (m set) stops at the first state covering >= m; a
    value query (m None) stops at R[v_in], the most any path can cover.
    A state (v, b) is not enqueued when |b | R[v]| cannot exceed the
    best coverage found so far, or, for a decision, is below m: nothing
    after it can change the answer, so the pruned search finds the same
    first best state as the full one. For a decision that fails, the
    returned coverage may then be below the true maximum."""
    labels, succ = g.labels, g.succ
    reach = _reach_labels(g)
    start = (g.initial, labels[g.initial])
    parent = {start: None}
    best, most = start, start[1].bit_count()
    target = reach[g.initial].bit_count() if m is None else m
    floor = most if m is None else max(most, m - 1)
    frontier = [start]
    depth = 0
    while most < target and frontier and (cap is None or depth < cap):
        depth += 1
        nxt = []
        for state in frontier:
            v, b = state
            for u in succ[v]:
                c = b | labels[u]
                if (c | reach[u]).bit_count() <= floor:
                    continue
                s = (u, c)
                if s in parent:
                    continue
                parent[s] = state
                count = c.bit_count()
                if count > most:
                    best, most = s, count
                    if most >= target:
                        return most, _path(parent, best)
                    floor = max(floor, most)
                nxt.append(s)
        frontier = nxt
    return most, _path(parent, best)


def _path(parent, state):
    path = []
    while state is not None:
        path.append(state[0])
        state = parent[state]
    path.reverse()
    return tuple(path)


def _decide(g, m, cap):
    most, witness = _product_search(g, m, cap)
    return GraphAnswer(True, witness=witness) if most >= m else GraphAnswer(False)


def max_coverage_graph(g: LabeledGraph, m: int) -> GraphAnswer:
    """Can some path from the initial vertex visit >= m distinct
    propositions? Witnesses are at most m * |V| edges long."""
    require_valid(g)
    check_target(g, m)
    return _decide(g, m, None)


def bounded_coverage_graph(g: LabeledGraph, m: int, k: int) -> GraphAnswer:
    """Can >= m propositions be covered within k steps (k+1 vertices)?

    The search depth is capped at min(k, m * |V|): a witness cycling
    without new coverage can always be shortened, so nothing longer is
    ever needed.
    """
    require_valid(g)
    check_target(g, m, k)
    return _decide(g, m, min(k, m * g.n))


def coverage_value_graph(g: LabeledGraph) -> GraphAnswer:
    """Largest m for which max_coverage_graph says yes, with a witness
    attaining it. One product BFS, which stops early once a state covers
    every proposition on the reachable vertices."""
    require_valid(g)
    most, witness = _product_search(g, None, None)
    return GraphAnswer(True, value=most, witness=witness)


def is_controllably_recurrent_graph(g: LabeledGraph) -> tuple[bool, int | None]:
    """The verdict, and the smallest reachable vertex with no path back to
    the initial vertex: recurrence of the game the tester owns entirely."""
    stray = _return_check(g)
    return stray is None, stray


def max_coverage_recurrent_graph(g: LabeledGraph) -> int:
    """Coverage value of a controllably recurrent graph, in linear time.

    Under recurrence every reachable vertex sits inside the strongly
    connected component of the initial vertex, so one path can sweep the
    whole reachable set and the value is just its label-union size.
    Otherwise NotRecurrentError names the smallest stray vertex.
    """
    stray = _return_check(g)
    if stray is not None:
        raise NotRecurrentError(
            f"vertex {g.names[stray]!r} is reachable but cannot return to the initial vertex"
        )
    return cover_of(g, _reachable(g.succ, g.initial)).bit_count()
