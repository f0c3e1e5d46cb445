"""Solvers for labeled game graphs.

Maximal coverage is a reachability game on the lazy (vertex, covered)
product: the tester wins iff the initial product state lies in the
player-1 attractor of the states whose covered set is large enough. A
strategy moves each tester state a play reaches to the successor it
entered through, with the covered set as its memory.
First `_safety_bound` caps the value at the cover ub of a region the
system can confine the play to, so a decision at m > ub is NO with no
product. In a decision at m, states covering >= m are winning leaves,
seeded into the attractor and never expanded, and a state (v, b) is a
losing leaf when v lies in Trap(P), the trap among the vertices labeled
within some P ⊇ b with |P| = m - 1 (`_Traps`). The states covering
m - 1 are leaves as well: one more proposition wins, so (v, b) is won
exactly when v lies outside Trap(b), and the tester's moves there are
the causes of the attractor pass that found Trap(b). A trap pass seeds
its attractor with the vertices of the label classes outside P; passes
are memoized per query and shared with the bound. A covered set whose
candidate sets P number more than |AP|^3 gets no losing leaves. Past
the bound's |AP| + 1 passes and the live test's |AP|, each pass drops
d = |used| - (m - 1) live propositions from the used ones, so a decision
takes at most C(|live|, d) + 2|AP| + 1 passes. The value is the first
YES among the decisions at t = ub, ub - 1, ..., |L(v_in)| + 1.

Bounded coverage is that game within k steps: its answer is the
attractor rank of the initial state, the fewest rounds in which the
tester forces the goal. One pass per goal {covered >= t} over the
product capped at k steps gives the value, the largest t ranked within k.
Each tester move steps one rank down, so a bounded strategy too has the
covered set as its only memory.

End components and minimal safety need no product. Restricted to the
vertices labeled within a proposition set P, one linear pass of
attractor and reachability sweeps finds the maximal end component (or
trap) through the initial vertex; `_cheapest` searches P from both
ends, in at most 2^(min(k, |AP|)+1) passes for k distinct label sets.

Controllable recurrence is the tester's attractor of the initial vertex,
one linear pass with no product; a forward sweep runs only when that
attractor misses a vertex. A plain LabeledGraph is the game the tester
owns entirely, so graph recurrence in graph_cover is this check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ApCapExceededError, FormatError, NotRecurrentError
from .model import (
    DEFAULT_AP_CAP,
    PLAYER1,
    LabeledGameGraph,
    LabeledGraph,
    _is_int,
    _masker,
    _predecessors,
    _reachable,
    check_target,
    cover_of,
    mask_names,
    path_from_names,
    require_valid,
)


@dataclass
class TesterStrategy:
    """Finite-memory tester strategy.

    Memoryless on the product: the memory is the set of covered
    propositions, and `moves` maps (vertex, covered) -> successor. A
    bounded strategy sets `budget`: every play it allows covers the
    target within that many steps.
    """

    moves: dict
    budget: int | None = None

    def choose(self, vertex: int, covered: int):
        return self.moves.get((vertex, covered))

    def to_obj(self, g: LabeledGameGraph) -> dict:
        entries = []
        for key in sorted(self.moves):
            entries.append({
                "vertex": g.names[key[0]],
                "covered": list(mask_names(g.ap, key[1])),
                "choose": g.names[self.moves[key]],
            })
        obj = {"kind": "strategy", "entries": entries}
        if self.budget is not None:
            obj["budget"] = self.budget
        return obj

    @classmethod
    def from_obj(cls, g: LabeledGameGraph, obj: dict) -> "TesterStrategy":
        """Inverse of to_obj; a malformed or repeated entry raises
        FormatError. Other entry keys are ignored."""
        budget = obj.get("budget")
        if budget is not None and not (_is_int(budget) and budget >= 0):
            raise FormatError("strategy budget must be a non-negative integer")
        fields = ("vertex", "covered", "choose")
        entries = obj.get("entries", [])
        if not isinstance(entries, list):
            raise FormatError("strategy entries must be a list")
        moves, mask = {}, _masker(g.ap)
        for entry in entries:
            if not isinstance(entry, dict) or not all(f in entry for f in fields):
                raise FormatError(f"strategy entry {entry!r} needs {', '.join(fields)}")
            covered = entry["covered"]
            if not isinstance(covered, list) or not all(isinstance(p, str) for p in covered):
                raise FormatError("strategy entry: covered must be a list of names")
            v, pick = path_from_names(g, (entry["vertex"], entry["choose"]))
            key = (v, mask(covered))
            if key in moves:
                raise FormatError(f"strategy entry {entry!r} repeats an earlier entry's key")
            moves[key] = pick
        return cls(moves, budget)


@dataclass(frozen=True)
class GameAnswer:
    """Outcome of a game coverage query. `value` is set by value queries
    and by the bounded solver (the largest coverage the tester forces
    within k steps); every yes answer carries its strategy."""

    decision: bool
    value: int | None = None
    strategy: TesterStrategy | None = None


@dataclass(frozen=True)
class EndComponent:
    """Strongly connected, player-1 closed vertex set with its label union."""

    vertices: tuple[int, ...]
    props: int

    def prop_count(self) -> int:
        return self.props.bit_count()


def _check_game(g: LabeledGameGraph, ap_cap: int) -> None:
    require_valid(g)
    if len(g.ap) > ap_cap:
        raise ApCapExceededError(
            f"|AP|={len(g.ap)} exceeds the product cap of {ap_cap}"
        )


# ---------------------------------------------------------------------------
# the (vertex, covered) product


class _Product:
    """Reachable part of the (vertex, covered) product, built breadth
    first from (v_in, L(v_in)); only reachable states are materialized,
    and leaves are never expanded.

    State i is the pair (vert[i], cov[i]); state 0 is the initial state.
    The lookup key of a state is the integer cov * n + v, so no tuple is
    made per state; `index` maps keys to states. Predecessor rows are
    filled during the build, in ascending source order, and `pending`
    holds each state's out-degree.

    One dict lookup per state finds the leaf vertices of its covered
    set b (see `_Leaves`): all of V when |b| >= `settled`, else those
    that `confined(b)` proves confined below the caller's goal. A leaf
    enters the attractor only as a seed, so an unseeded leaf is a losing
    one. With a depth `cap` the states at BFS distance `cap` are leaves
    too; each state appears once, at its shortest distance.
    """

    __slots__ = ("vert", "cov", "pred", "pending", "player1", "index")

    def __init__(self, g: LabeledGameGraph, settled: int, cap: int | None = None, confined=None):
        n, labels, succ = g.n, g.labels, g.succ
        v0 = g.initial
        vert, cov = [v0], [labels[v0]]
        index = {labels[v0] * n + v0: 0}
        pred: list[list[int]] = [[]]
        leaves = _Leaves(n, settled, confined)
        lo, hi, depth = 0, 1, 0  # the states of BFS depth `depth` are lo .. hi - 1
        while lo < hi and depth != cap:
            for i, v in enumerate(vert[lo:hi], lo):
                b = cov[i]
                if v in leaves[b]:
                    continue
                for u in succ[v]:
                    c = b | labels[u]
                    key = c * n + u
                    j = index.get(key)
                    if j is None:
                        index[key] = len(vert)
                        vert.append(u)
                        cov.append(c)
                        pred.append([i])
                    else:
                        pred[j].append(i)
            lo, hi, depth = hi, len(vert), depth + 1
        degree = [len(row) for row in succ]
        player1 = [who == PLAYER1 for who in g.owner]
        self.vert = vert
        self.cov = cov
        self.pred = pred
        self.pending = [degree[v] for v in vert]
        self.player1 = [player1[v] for v in vert]
        self.index = index

    def __len__(self) -> int:
        return len(self.vert)


class _Leaves(dict):
    """Covered set b -> its leaf vertices, filled on first use: all of V
    when |b| >= `settled`, otherwise `confined(b)`, or none without
    `confined`."""

    def __init__(self, n: int, settled: int, confined):
        super().__init__()
        self.n, self.settled, self.confined = n, settled, confined

    def __missing__(self, b: int) -> Iterable[int]:
        if b.bit_count() >= self.settled:
            leaf: Iterable[int] = range(self.n)
        elif self.confined is None:
            leaf = ()
        else:
            leaf = self.confined(b)
        self[b] = leaf
        return leaf


def _attractor(pending, pred, player1, seeds):
    """Player-1 attractor of `seeds`: per node, the node that pulled it
    in (None outside; a seed holds itself). `pending` holds each node's
    successor count and is consumed. The queue runs in rank order, the
    rank being the fewest rounds in which player 1 forces a seed: a
    player-1 node enters through its lowest-ranked successor and a
    player-2 node through its highest. So a node ranks one above its
    puller (`_rank`), and at a player-1 node the puller, its cause, is a
    winning move."""
    via: list[int | None] = [None] * len(pred)
    queue = list(seeds)
    for i in queue:
        via[i] = i
    for j in queue:
        for i in pred[j]:
            if via[i] is not None:
                continue
            if not player1[i]:
                pending[i] -= 1
                if pending[i]:
                    continue
            via[i] = j
            queue.append(i)
    return via


def _rank(via, i: int) -> float:
    """Node i's rank: its chain of pullers down to a seed is that long
    (infinite outside the attractor)."""
    if via[i] is None:
        return math.inf
    rank = 0
    while via[i] != i:
        i, rank = via[i], rank + 1
    return rank


def _strategy(
    g: LabeledGameGraph, prod: _Product, via, m: int, exits: dict, budget: int | None = None
) -> TesterStrategy:
    """The tester's moves at the states that the plays from the initial
    state reach before covering m: one walk takes the attractor's cause
    at a tester state and every successor at a system state. `exits[b]`
    holds the moves from a decision's leaves covering b, |b| = m - 1.
    A tester state counts as walked once it holds a move, so `seen`
    holds system states only. Each move steps down one attractor rank,
    so a bounded game's moves need no steps-left key: every play stays
    within the initial state's rank, at most the game's `budget`."""
    n, labels, succ, owner = g.n, g.labels, g.succ, g.owner
    vert, index = prod.vert, prod.index
    moves, seen = {}, set()
    todo = [(g.initial, labels[g.initial])]
    while todo:
        v, b = todo.pop()
        if b.bit_count() >= m:
            continue
        if owner[v] == PLAYER1:
            if (v, b) in moves:
                continue
            u = moves[(v, b)] = exits[b][v] if b in exits else vert[via[index[b * n + v]]]
            todo.append((u, b | labels[u]))
        elif (key := b * n + v) not in seen:
            seen.add(key)
            todo += [(u, b | labels[u]) for u in succ[v]]
    return TesterStrategy(moves, budget)


def _decide(traps: "_Traps", m: int) -> GameAnswer:
    """The decision at m over the product whose states covering >= m
    are winning leaves and whose confined states are losing ones. The
    states covering m - 1 are leaves as well: one more proposition wins,
    so (v, b) is won exactly when v lies outside Trap(b), and that
    trap's pass holds the tester's moves from there."""
    prod = _Product(traps.g, m - 1, None, lambda b: traps.confined(b, m))
    vert = prod.vert
    seeds: list[int] = []
    layer: dict[int, list[int]] = {}  # covered set b with |b| = m - 1 -> its states
    for i, b in enumerate(prod.cov):
        c = b.bit_count()
        if c >= m:
            seeds.append(i)
        elif c == m - 1:
            layer.setdefault(b, []).append(i)
    exits: dict[int, list[int]] = {}  # b -> causes of Trap(b)'s pass
    for b, states in layer.items():
        trap, exits[b] = traps.escape(b)
        seeds += [i for i in states if vert[i] not in trap]
    via = _attractor(prod.pending, prod.pred, prod.player1, seeds)
    if via[0] is None:
        return GameAnswer(False)
    return GameAnswer(True, strategy=_strategy(traps.g, prod, via, m, exits))


def max_coverage_game(g: LabeledGameGraph, m: int, *, ap_cap: int = DEFAULT_AP_CAP) -> GameAnswer:
    """Can the tester force >= m distinct propositions to be visited,
    no matter how the system plays? Above the safety bound, NO at once."""
    _check_game(g, ap_cap)
    check_target(g, m)
    traps = _Traps(g)
    if m > _safety_bound(traps):
        return GameAnswer(False)
    return _decide(traps, m)


def coverage_value_game(g: LabeledGameGraph, *, ap_cap: int = DEFAULT_AP_CAP) -> GameAnswer:
    """Largest enforceable coverage: the first YES among the decisions
    at t = ub, ub - 1, ..., |L(v_in)| + 1 below the safety bound ub, or
    |L(v_in)| with the empty strategy when every one says NO."""
    _check_game(g, ap_cap)
    traps = _Traps(g)
    base = g.labels[g.initial].bit_count()
    for t in range(_safety_bound(traps), base, -1):
        ans = _decide(traps, t)
        if ans.decision:
            return GameAnswer(True, value=t, strategy=ans.strategy)
    return GameAnswer(True, value=base, strategy=TesterStrategy({}))


# ---------------------------------------------------------------------------
# bounded coverage


def bounded_coverage_game(
    g: LabeledGameGraph, m: int, k: int, *, ap_cap: int = DEFAULT_AP_CAP
) -> GameAnswer:
    """Largest coverage the tester can force within k steps, decided
    against m: the first t = |AP|, |AP| - 1, ..., |L(v_in)| + 1 whose
    attractor of {covered >= t} ranks the initial state within the cap,
    on the product capped there, else |L(v_in)|. The cap is
    min(k, |V| * (|AP| + 1)), as coverage saturates past that. A play
    meets each state no earlier than its distance, so a winning play
    within the cap leaves only from states below it, all expanded.
    The strategy keys each move by (v, b) alone, with the cap as its
    budget: a tester move steps to a state one rank lower and a system
    state ranks one above its highest successor, so every play's rank
    falls from the initial state's, which is within the cap.
    """
    _check_game(g, ap_cap)
    check_target(g, m, k)
    full = len(g.ap)
    cap = min(k, g.n * (full + 1))
    prod = _Product(g, full, cap)
    by_count: list[list[int]] = [[] for _ in range(full + 1)]
    for i, b in enumerate(prod.cov):
        by_count[b.bit_count()].append(i)
    value, seeds, via = g.labels[g.initial].bit_count(), [], None
    for t in range(full, value, -1):
        if not by_count[t]:
            continue
        seeds += by_count[t]
        via = _attractor(list(prod.pending), prod.pred, prod.player1, seeds)
        if _rank(via, 0) <= cap:
            value = t
            break
    if value < m:
        return GameAnswer(False, value=value)
    return GameAnswer(True, value=value, strategy=_strategy(g, prod, via, m, {}, cap))


def strategy_covers(g: LabeledGameGraph, strategy: TesterStrategy, m: int) -> bool:
    """Exhaustively play every adversary line against the strategy and
    check that each one reaches >= m covered propositions, within the
    strategy's step budget if it has one.

    One depth-first search over the (vertex, covered) states records, in
    post-order, each state's longest play to m. A play that revisits a
    state before the goal would cycle below m forever, so any such
    cycle, or a missing or illegal tester move, fails the check; with a
    budget, so does an initial state whose longest play exceeds it. The
    cost is one visit per (v, b) state, whatever the budget.
    """
    require_valid(g)
    check_target(g, m)
    n, labels, succ, owner = g.n, g.labels, g.succ, g.owner
    OPEN = -1
    longest: dict[int, int] = {}  # state key b * n + v -> its longest play to m, or OPEN
    stack: list[tuple] = [(g.initial, labels[g.initial], None)]
    while stack:
        v, b, nexts = stack.pop()
        key = b * n + v
        if nexts is not None:  # every successor is done
            longest[key] = 1 + max(longest[(b | labels[u]) * n + u] for u in nexts)
            continue
        if key in longest:
            if longest[key] == OPEN:
                return False  # a cycle below the goal
            continue
        if b.bit_count() >= m:
            longest[key] = 0
            continue
        if owner[v] == PLAYER1:
            pick = strategy.choose(v, b)
            if pick is None or pick not in succ[v]:
                return False
            nexts = (pick,)
        else:
            nexts = succ[v]
        longest[key] = OPEN
        stack.append((v, b, nexts))
        stack += [(u, b | labels[u], None) for u in nexts]
    start = labels[g.initial] * n + g.initial
    return strategy.budget is None or longest[start] <= strategy.budget


# ---------------------------------------------------------------------------
# recurrence and end components


def is_controllably_recurrent_game(g: LabeledGraph) -> tuple[bool, int | None]:
    """Can the tester force a return to the initial vertex from every
    vertex reachable in the underlying graph? Returns the verdict and
    the smallest reachable vertex outside the return attractor. A plain
    LabeledGraph is the game the tester owns entirely: it is recurrent
    iff every reachable vertex has a path back."""
    stray = _return_check(g)
    return stray is None, stray


def _return_check(g: LabeledGraph) -> int | None:
    """The smallest vertex reachable from the initial vertex that lies
    outside the tester's attractor of it, or None when there is none.
    Linear in |V| + |E|. A stray lies outside the attractor, so the
    forward sweep runs only when some vertex does."""
    require_valid(g)
    inside = _attractor(*_arena(g), [g.initial])
    if None not in inside:
        return None
    return min([v for v in _reachable(g.succ, g.initial) if inside[v] is None], default=None)


def _arena(g: LabeledGraph):
    """The attractor kernel's input over the game graph itself: out-degrees
    (consumed by the kernel), predecessor rows and player-1 flags. A plain
    LabeledGraph is the game in which the tester owns every vertex."""
    if isinstance(g, LabeledGameGraph):
        player1 = [who == PLAYER1 for who in g.owner]
    else:
        player1 = [True] * g.n
    return [len(row) for row in g.succ], _predecessors(g.succ), player1


def _trap(g: LabeledGameGraph, arena, outside: list[int]) -> tuple[set[int], list[int]]:
    """The vertices from which the system keeps the play off `outside`
    forever, the complement of the player-1 attractor of `outside`, and
    that attractor's causes. `arena` is built once per query; its
    degrees are copied per call."""
    degree, pred, player1 = arena
    via = _attractor(list(degree), pred, player1, outside)
    return {v for v, u in enumerate(via) if u is None}, via


class _Traps:
    """Trap(P), the trap among the vertices labeled within proposition
    set P, and the causes of its pass, memoized for one query. A pass
    seeds its attractor with the vertex lists of the label classes
    outside P. Propositions on no vertex leave that vertex set
    unchanged, so the key drops them."""

    def __init__(self, g: LabeledGameGraph):
        self.g, self.arena, self.memo, self.causes = g, _arena(g), {}, {}
        self.classes: dict[int, list[int]] = {}  # label -> its vertices
        for v, b in enumerate(g.labels):
            self.classes.setdefault(b, []).append(v)
        self.used = 0
        for b in self.classes:
            self.used |= b
        self.live: list[tuple[int, set[int]]] | None = None

    def outside(self, props: int) -> list[int]:
        """The vertices labeled outside `props`."""
        return [v for b, vs in self.classes.items() if b & ~props for v in vs]

    def __call__(self, props: int) -> set[int]:
        key = props & self.used
        trap = self.memo.get(key)
        if trap is None:
            trap, self.causes[key] = _trap(self.g, self.arena, self.outside(key))
            self.memo[key] = trap
        return trap

    def escape(self, b: int) -> tuple[set[int], list[int]]:
        """Trap(b) and the causes of a pass that found it, for a covered
        set b one proposition short of a decision's goal: b's own pass,
        or, when b misses a proposition p that is not live, the live
        test's pass of `used` - {p}, whose trap is empty as Trap(b) is.
        So each pass made here is a live-test pass or one of the walks'."""
        for p in _bits(self.used & ~b):
            if not self(self.used & ~p):
                b = self.used & ~p
                break
        trap = self(b)
        return trap, self.causes[b & self.used]

    def confined(self, b: int, m: int) -> Iterable[int]:
        """Vertices from which the system keeps the cover of a play that
        has covered b below m: the union of Trap(P) over P ⊇ b with
        |P| = m - 1, unused propositions padding P.

        Trap(P) lies within Trap(used - {p}) for each p outside P, so only
        the `live` propositions, whose co-singleton trap is not empty, are
        worth dropping, d = |used ∪ b| - (m - 1) of them; d is one number
        per decision, as covered sets lie within `used`. When the
        C(|free|, d) sets P, free being the live propositions outside b,
        exceed |AP|^3 the leaf set is empty, so one covered set's walk
        looks at no more than |AP|^3 sets. Otherwise a depth-first walk
        from P = used drops free propositions, bounds each set's trap by
        the traps of the sets above it, skips a set whose bound adds
        nothing to the union, and returns the whole union. Each fresh
        pass is Trap(used - D) for a D ⊆ live with |D| = d."""
        memo, used = self.memo, self.used
        drop = (used | b).bit_count() - (m - 1)
        if drop <= 0:
            return range(self.g.n)
        if self.live is None:
            self.live = [(p, top) for p in _bits(used) if (top := self(used & ~p))]
        free = [(p, top) for p, top in self.live if not b & p]
        if math.comb(len(free), drop) > len(self.g.ap) ** 3:
            return ()
        union: set[int] = set()
        stack: list[tuple[int, int, set[int] | None, int]] = [(used, 0, None, drop)]
        while stack:
            props, start, within, left = stack.pop()
            for j in range(start, len(free) - left + 1):
                p, top = free[j]
                child = props & ~p
                trap = memo.get(child)
                if trap is not None:
                    bound = trap
                elif within is None:
                    bound = top
                else:
                    bound = within & top
                if bound <= union:
                    continue
                if left > 1:
                    stack.append((child, j + 1, bound, left - 1))
                    continue
                if trap is None:
                    trap = self(child)
                union |= trap
        return union


def _confined(traps: _Traps, props: int) -> set[int] | None:
    """The part of the trap among the vertices labeled within `props`
    that the initial vertex reaches inside it; None if it is outside."""
    g = traps.g
    trap = traps(props)
    return set(_reachable(_inside(g.succ, trap), g.initial)) if g.initial in trap else None


def _safety_bound(traps: _Traps) -> int:
    """Greedy upper bound on the value in |AP| + 1 linear passes: from
    P = AP, drop each proposition whose loss keeps v_in in the trap of
    the vertices labeled within P; the system confines every play to
    the `_confined` set of the final P, so no tester covers more."""
    g = traps.g
    props = (1 << len(g.ap)) - 1
    for bit in _bits(props & ~g.labels[g.initial]):
        if g.initial in traps(props & ~bit):
            props &= ~bit
    return cover_of(g, _confined(traps, props)).bit_count()


def _inside(succ, vs: set[int]) -> list[list[int]]:
    """Successor rows restricted to the edges between vertices of `vs`."""
    return [[u for u in row if u in vs] if v in vs else [] for v, row in enumerate(succ)]


def _end_component_within(g: LabeledGameGraph, arena, outside: list[int]) -> set[int] | None:
    """The maximal end component through the initial vertex that avoids
    `outside`, or None. Alternates the trap with the initial vertex's
    strongly connected component in it until the trap is strongly
    connected (a trap is its own trap). Every end component through the
    initial vertex survives each round, and each further round removes
    a vertex."""
    v0 = g.initial
    while v0 in (trap := _trap(g, arena, outside)[0]):
        inside = _inside(g.succ, trap)
        vs = set(_reachable(inside, v0)).intersection(_reachable(_predecessors(inside), v0))
        if vs == trap:
            return vs
        outside = [v for v in range(g.n) if v not in vs]
    return None


def _cheapest(g: LabeledGameGraph, test, ap_cap: int):
    """The hit of `test` with the fewest propositions (ties to the smaller
    mask), or None. `test(P)` is the answer among the vertices labeled
    within P, or None; a hit at P stays one at every superset of P.

    Two walks take one pass each in turn, and the first to finish
    decides. Upward: the unions of L(v_in) with the label sets of the
    hit at P = AP (which holds every other hit), by size; its first hit
    is the cheapest. Downward: drop one proposition at a time from the
    union of a hit; a chain of such drops reaches every cheapest hit.
    With k distinct label sets over j further propositions the upward
    walk ends within 2^min(k, j) passes, the pair within twice that, and
    ap_cap caps that exponent."""
    tried: dict[int, set[int] | None] = {}

    def run(props):
        if props not in tried:
            tried[props] = test(props)
        return tried[props]

    best = run((1 << len(g.ap)) - 1)
    if best is None:
        return None
    base, top = g.labels[g.initial], cover_of(g, best)
    atoms = {g.labels[v] & ~base for v in best} - {0}
    if min(len(atoms), j := (top & ~base).bit_count()) > ap_cap:
        raise ApCapExceededError(
            f"{len(atoms)} distinct label sets and {j} propositions exceed the cap of {ap_cap}"
        )
    key, up, queued = _size_first(top), [_size_first(base)], {base}
    down = [top & ~bit for bit in _bits(top & ~base)]
    while True:
        props = heapq.heappop(up)[1]
        if _size_first(props) >= key:
            return best  # every cheaper set has failed
        if (hit := run(props)) is not None:
            return hit
        for atom in atoms:
            if (wider := props | atom) not in queued:
                queued.add(wider)
                heapq.heappush(up, _size_first(wider))
        while down and down[-1] in tried:
            down.pop()
        if not down:
            return best
        if (hit := run(down.pop())) is not None:
            mask = cover_of(g, hit)
            down += [mask & ~bit for bit in _bits(mask & ~base)]
            if _size_first(mask) < key:
                best, key = hit, _size_first(mask)


def _size_first(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask


def _bits(mask: int) -> list[int]:
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _is_end_component(g: LabeledGameGraph, vs: set[int]) -> bool:
    """Strongly connected (an inside move everywhere, so singletons need
    a self-loop) and closed under every player-1 edge. Both sweeps stay
    inside vs and list each vertex once, so their sizes decide."""
    inside = _inside(g.succ, vs)
    for v in vs:
        if not inside[v] or (g.owner[v] == PLAYER1 and len(inside[v]) != len(g.succ[v])):
            return False
    pivot, size = min(vs), len(vs)
    return len(_reachable(inside, pivot)) == size == len(_reachable(_predecessors(inside), pivot))


def verify_end_component_witness(
    g: LabeledGameGraph, vertices: Iterable[int], m: int
) -> bool:
    """Check a no-certificate: a valid end component through the initial
    vertex whose label union stays below m. Polynomial time."""
    require_valid(g)
    vs = set(vertices)
    if not all(isinstance(v, int) and 0 <= v < g.n for v in vs) or g.initial not in vs:
        return False
    return _is_end_component(g, vs) and cover_of(g, vs).bit_count() < m


def min_cover_end_component(
    g: LabeledGameGraph, *, ap_cap: int = DEFAULT_AP_CAP
) -> tuple[EndComponent, int]:
    """End component through the initial vertex with the fewest distinct
    propositions: the maximal one among the vertices labeled within the
    cheapest proposition set that has one. Without any the game cannot
    be controllably recurrent (nothing confines the play), so this
    raises NotRecurrentError after one pass. On controllably recurrent
    games the count equals the coverage value."""
    require_valid(g)
    traps = _Traps(g)
    ec = _cheapest(
        g, lambda props: _end_component_within(g, traps.arena, traps.outside(props)), ap_cap
    )
    if ec is None:
        raise NotRecurrentError("no end component contains the initial vertex")
    mask = cover_of(g, ec)
    return EndComponent(tuple(sorted(ec)), mask), mask.bit_count()


def min_safety_value(
    g: LabeledGameGraph, *, ap_cap: int = DEFAULT_AP_CAP
) -> tuple[int, tuple[int, ...]]:
    """Fewest distinct propositions the system can confine the play to,
    and a confining set: the part reachable from the initial vertex of
    the trap among the vertices labeled within the cheapest proposition
    set whose trap holds it. On controllably recurrent games this equals
    the minimal end-component cover."""
    require_valid(g)
    traps = _Traps(g)
    vs = _cheapest(g, lambda props: _confined(traps, props), ap_cap)
    return cover_of(g, vs).bit_count(), tuple(sorted(vs))
