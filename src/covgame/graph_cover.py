"""Exact coverage solvers for labeled graphs.

A path that enters a strongly connected component can visit all of it
and leave from any of its vertices. So the unbounded queries search the
condensation, found by one iterative Tarjan pass from the initial
vertex: states are (component, covered-set) pairs, and entering
component C sets the covered set b to b | L(C), the labels of C joined
in. Their witness is a tour of the chain of components found, at most
m * |V| edges long but not in general shortest.

A step bound needs shortest paths, so bounded queries search the
(vertex, covered-set) product instead, and their witnesses are shortest.
Both run the same search, breadth first with successors in ascending id,
so answers are deterministic. The covered set only grows along a path,
hence the search is finite, and a state first reached at some depth
dominates every later arrival.

The search is pruned by a reachable-label bound: with R(u) the label
union of everything reachable from u, no path through (u, b) covers
more than |b | R(u)|. A state whose bound cannot beat the best coverage
found so far, or cannot reach the target m of a decision query, is
never enqueued. Pruning keeps every answer exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRecurrentError
from .game_cover import _recurrence
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


def _condense(g):
    """The strongly connected components that the initial vertex
    reaches, by one iterative Tarjan pass, linear in |V| + |E|.

    Returns (comp, cover, reach, outs). comp[v] is the id of v's
    component, or -1 when the initial vertex does not reach v. For
    component c, cover[c] is its label union L(c), outs[c] lists in
    ascending order the components its edges leave to, and reach[c] is
    R(c), the label union of every vertex reachable from c.

    Components complete sinks first, so every edge that leaves a
    component goes to a smaller id, whose reach is final by then. A
    visited vertex with no component yet is still on the Tarjan stack.
    `exits` is a stack like it: the ids that edges leaving an unfinished
    component lead to, above the height its root's frame recorded, so a
    component takes its own off the top when it completes.
    """
    succ, labels = g.succ, g.labels
    num = [0] * g.n  # discovery order from 1; 0 = unvisited
    low = [0] * g.n
    comp = [-1] * g.n
    stack: list[int] = []
    exits: list[int] = []
    cover: list[int] = []
    reach: list[int] = []
    outs: list[list[int]] = []
    v = g.initial
    count = num[v] = low[v] = 1
    stack.append(v)
    frames = [(v, iter(succ[v]), 0)]
    while frames:
        v, rest, mark = frames[-1]
        for u in rest:
            if not num[u]:
                count += 1
                num[u] = low[u] = count
                stack.append(u)
                frames.append((u, iter(succ[u]), len(exits)))
                break
            c = comp[u]
            if c >= 0:
                exits.append(c)
            elif num[u] < low[v]:
                low[v] = num[u]
        else:
            frames.pop()
            if low[v] == num[v]:
                c = len(cover)
                own = 0
                while True:
                    w = stack.pop()
                    comp[w] = c
                    own |= labels[w]
                    if w == v:
                        break
                out = exits[mark:]
                del exits[mark:]
                if len(out) > 1:  # one exit needs no dedupe or sort
                    out = sorted(set(out))
                union = own
                for d in out:
                    union |= reach[d]
                cover.append(own)
                reach.append(union)
                outs.append(out)
            if frames:
                if comp[v] >= 0:
                    exits.append(comp[v])
                else:
                    p = frames[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
    return comp, cover, reach, outs


def _product_search(succ, labels, reach, v, m, cap):
    """BFS the (node, covered) product of the labeled table `succ` from
    node v, at most `cap` edges deep (no cap when None), with successors
    in table order. Returns the coverage of the first state of greatest
    coverage and the node path to it. The parent map doubles as the seen
    set. `reach[u]` is the label union of the nodes reachable from u.

    A decision query (m set) stops at the first state covering >= m; a
    value query (m None) stops at reach[v], the most any path can cover.
    A state (u, b) is not enqueued when |b | reach[u]| cannot exceed the
    best coverage found so far, or, for a decision, is below m: nothing
    after it can change the answer, so the pruned search finds the same
    first best state as the full one. For a decision that fails, the
    returned coverage may then be below the true maximum."""
    start = (v, labels[v])
    parent = {start: None}
    best, most = start, start[1].bit_count()
    target = reach[v].bit_count() if m is None else m
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


def _unbounded(g, m):
    """Search the condensation for m (None: the value). Returns the
    coverage found and a tour covering it, or covering m when m is set;
    no tour for a decision that fails."""
    comp, cover, reach, outs = _condense(g)
    most, chain = _product_search(outs, cover, reach, comp[g.initial], m, None)
    target = most if m is None else m
    return most, (_tour(g, comp, cover, chain, target) if most >= target else None)


def _tour(g, comp, cover, chain, m):
    """A path from the initial vertex through the components of `chain`
    in turn that covers m propositions. Inside each component it takes
    breadth-first legs to the nearest vertex with an uncovered label
    while the component adds labels, then a leg to an edge into the next
    component, and it stops as soon as it covers m. A collection leg
    gains a proposition and an exit leg adds none before its last edge,
    so the tour is at most m * |V| edges long."""
    labels, succ = g.labels, g.succ
    v = g.initial
    path = [v]
    b = labels[v]
    for c, d in zip(chain, chain[1:] + (None,)):
        while cover[c] & ~b and b.bit_count() < m:
            path += _leg(g, comp, v, None, ~b)
            v = path[-1]
            b |= labels[v]
        if b.bit_count() >= m:
            break
        for u in succ[v]:  # an edge out, as from a singleton, needs no search
            if comp[u] == d:
                path.append(u)
                break
        else:
            path += _leg(g, comp, v, d, 0)
        v = path[-1]
        b |= labels[v]
    return tuple(path)


def _leg(g, comp, v, goal, mask):
    """The shortest path from v, within v's component, to a vertex of
    component `goal` or to a vertex of v's own component that carries a
    label in `mask`; v itself is left out."""
    succ, labels = g.succ, g.labels
    c = comp[v]
    parent = {v: None}
    queue = [v]
    for x in queue:
        for u in succ[x]:
            if u in parent:
                continue
            parent[u] = x
            e = comp[u]
            if e == goal or (e == c and labels[u] & mask):
                leg = []
                while u != v:
                    leg.append(u)
                    u = parent[u]
                leg.reverse()
                return leg
            if e == c:
                queue.append(u)


def max_coverage_graph(g: LabeledGraph, m: int) -> GraphAnswer:
    """Can some path from the initial vertex visit >= m distinct
    propositions? Decided on the condensation; the witness is a tour of
    the chain of components found, at most m * |V| edges long but not in
    general shortest."""
    require_valid(g)
    check_target(g, m)
    witness = _unbounded(g, m)[1]
    return GraphAnswer(witness is not None, witness=witness)


def bounded_coverage_graph(g: LabeledGraph, m: int, k: int) -> GraphAnswer:
    """Can >= m propositions be covered within k steps (k+1 vertices)?

    A breadth-first search of the (vertex, covered) product, so the
    witness is a shortest path. The search depth is capped at
    min(k, m * |V|): a witness cycling without new coverage can always be
    shortened, so nothing longer is ever needed.
    """
    require_valid(g)
    check_target(g, m, k)
    comp, _, reach, _ = _condense(g)
    # a vertex the search never reaches (comp -1) reads any reach
    reach = [reach[c] for c in comp]
    most, witness = _product_search(g.succ, g.labels, reach, g.initial, m, min(k, m * g.n))
    return GraphAnswer(True, witness=witness) if most >= m else GraphAnswer(False)


def coverage_value_graph(g: LabeledGraph) -> GraphAnswer:
    """Largest m for which max_coverage_graph says yes, with a tour
    attaining it. One search of the condensation, which stops early once
    a state covers every proposition on the reachable vertices."""
    require_valid(g)
    most, witness = _unbounded(g, None)
    return GraphAnswer(True, value=most, witness=witness)


def is_controllably_recurrent_graph(g: LabeledGraph) -> tuple[bool, int | None]:
    """The verdict, and the smallest reachable vertex with no path back to
    the initial vertex: recurrence of the game the tester owns entirely."""
    stray = _recurrence(g)[0]
    return stray is None, stray


def max_coverage_recurrent_graph(g: LabeledGraph) -> int:
    """Coverage value of a controllably recurrent graph, in linear time.

    Under recurrence every reachable vertex sits inside the strongly
    connected component of the initial vertex: this is the condensation
    search with one component, so one path can sweep the whole reachable
    set and the value is just its label-union size.
    Otherwise NotRecurrentError names the smallest stray vertex, in its
    message and as its `vertex`. The label union reuses the check's
    forward sweep when it made one.
    """
    stray, reached = _recurrence(g)
    if stray is not None:
        name = g.names[stray]
        message = f"vertex {name!r} is reachable but cannot return to the initial vertex"
        raise NotRecurrentError(message, name)
    return cover_of(g, reached or _reachable(g.succ, g.initial)).bit_count()
