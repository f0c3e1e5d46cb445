"""Exact coverage solvers for labeled graphs.

Searches run over (vertex, covered-set) product states, explored breadth
first with successors in ascending vertex id, so decisions and witnesses
are deterministic and witnesses come out shortest-first. The covered set
only grows along a path, hence the product is finite and a state first
reached at some depth dominates every later arrival.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRecurrentError
from .model import (
    LabeledGraph,
    _predecessors,
    _reachable,
    check_target,
    cover_of,
    require_valid,
)


@dataclass(frozen=True)
class GraphAnswer:
    """Outcome of a graph coverage query.

    For decision queries `value` stays None; coverage_value_graph fills
    it with the attained maximum. `witness` is a vertex-id path starting
    at the initial vertex, absent for no-instances and in witnessless
    (low-memory) mode.
    """

    decision: bool
    value: int | None = None
    witness: tuple[int, ...] | None = None


def _product_search(g, target, cap, want_witness):
    """BFS the (vertex, covered) product, at most `cap` edges deep (no
    cap when None), stopping at the first state covering >= `target`.
    Returns the coverage of the first state of greatest coverage and the
    path to it (None unless want_witness). The parent map doubles as the
    seen set."""
    labels, succ = g.labels, g.succ
    start = (g.initial, labels[g.initial])
    parent = {start: None}
    best, most = start, start[1].bit_count()
    frontier = [start]
    depth = 0
    while most < target and frontier and (cap is None or depth < cap):
        depth += 1
        nxt = []
        for state in frontier:
            v, b = state
            for u in succ[v]:
                s = (u, b | labels[u])
                if s in parent:
                    continue
                parent[s] = state
                count = s[1].bit_count()
                if count > most:
                    best, most = s, count
                    if most >= target:
                        return most, _path(parent, best) if want_witness else None
                nxt.append(s)
        frontier = nxt
    return most, _path(parent, best) if want_witness else None


def _path(parent, state):
    path = []
    while state is not None:
        path.append(state[0])
        state = parent[state]
    path.reverse()
    return tuple(path)


def _decide(g, m, cap, want_witness):
    most, witness = _product_search(g, m, cap, want_witness)
    return GraphAnswer(True, witness=witness) if most >= m else GraphAnswer(False)


def max_coverage_graph(g: LabeledGraph, m: int, *, want_witness: bool = True) -> GraphAnswer:
    """Can some path from the initial vertex visit >= m distinct
    propositions? Witnesses are at most m * |V| edges long."""
    require_valid(g)
    check_target(g, m)
    return _decide(g, m, None, want_witness)


def bounded_coverage_graph(
    g: LabeledGraph, m: int, k: int, *, want_witness: bool = True
) -> GraphAnswer:
    """Can >= m propositions be covered within k steps (k+1 vertices)?

    The search depth is capped at min(k, m * |V|): a witness cycling
    without new coverage can always be shortened, so nothing longer is
    ever needed.
    """
    require_valid(g)
    check_target(g, m, k)
    return _decide(g, m, min(k, m * g.n), want_witness)


def coverage_value_graph(g: LabeledGraph, *, want_witness: bool = True) -> GraphAnswer:
    """Largest m for which max_coverage_graph says yes, with a witness
    attaining it. One product BFS, which stops early once a state covers
    every proposition on the reachable vertices."""
    require_valid(g)
    union = cover_of(g, _reachable(g.succ, g.initial))
    most, witness = _product_search(g, union.bit_count(), None, want_witness)
    return GraphAnswer(True, value=most, witness=witness)


def _forward_backward(g: LabeledGraph) -> tuple[set[int], set[int]]:
    """Vertices reachable from the initial vertex, and vertices that can
    reach it. Both by plain BFS, linear in |V| + |E|."""
    return _reachable(g.succ, g.initial), _reachable(_predecessors(g.succ), g.initial)


def is_controllably_recurrent_graph(g: LabeledGraph) -> tuple[bool, int | None]:
    """Does every vertex reachable from the initial vertex admit a path
    back to it? Returns the verdict and the smallest stray vertex id."""
    require_valid(g)
    fwd, bwd = _forward_backward(g)
    stray = [v for v in fwd if v not in bwd]
    if stray:
        return False, min(stray)
    return True, None


def max_coverage_recurrent_graph(g: LabeledGraph) -> int:
    """Coverage value of a controllably recurrent graph, in linear time.

    Under recurrence every reachable vertex sits inside the strongly
    connected component of the initial vertex, so one path can sweep the
    whole reachable set and the value is just its label-union size.
    """
    require_valid(g)
    fwd, bwd = _forward_backward(g)
    for v in fwd:
        if v not in bwd:
            raise NotRecurrentError(
                f"vertex {g.names[v]!r} is reachable but cannot return to the initial vertex"
            )
    return cover_of(g, fwd).bit_count()
