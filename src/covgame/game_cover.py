"""Solvers for labeled game graphs.

Maximal coverage is a reachability game on the lazy (vertex, covered)
product: the tester wins iff the initial product state lies in the
player-1 attractor of the states whose covered set is large enough. The
goals {covered >= t} are nested, so one incremental attractor yields
every level, and the successor through which each tester state entered
gives a finite-memory strategy whose memory is exactly the covered set.
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
are memoized per query and shared with the bound. A decision whose
candidate sets P number more than |AP|^3 finds no losing leaves and
expands the states covering m - 1, so it takes at most
|AP|^3 + 2|AP| + 1 passes either way. The value is the first YES among
the decisions at t = ub, ub - 1, ..., |L(v_in)| + 1.

Bounded coverage runs the same attractor on the product layered by
depth up to the step budget; on that acyclic game the entry level of
the initial state is the minimax value of the budgeted play.

End components and minimal safety need no product. Restricted to the
vertices labeled within a proposition set P, one linear pass of
attractor and reachability sweeps finds the maximal end component (or
trap) through the initial vertex; `_cheapest` searches P from both
ends, in at most 2^(min(k, |AP|)+1) passes for k distinct label sets.

Controllable recurrence is the tester's attractor of the initial vertex,
one linear pass with no product; a forward sweep runs only when that
attractor misses a vertex or the caller wants the reachable set. A plain
LabeledGraph is the game the tester owns entirely, so graph recurrence
in graph_cover is this check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    ApCapExceededError,
    FormatError,
    NotRecurrentError,
)
from .model import (
    DEFAULT_AP_CAP,
    PLAYER1,
    LabeledGameGraph,
    LabeledGraph,
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
    propositions, plus the remaining step budget for bounded queries.
    `moves` maps (vertex, covered) -> successor, or with `budget` set,
    (vertex, covered, remaining) -> successor.
    """

    moves: dict
    budget: int | None = None

    def choose(self, vertex: int, covered: int, remaining: int | None = None):
        if self.budget is None:
            return self.moves.get((vertex, covered))
        return self.moves.get((vertex, covered, remaining))

    def to_obj(self, g: LabeledGameGraph) -> dict:
        entries = []
        for key in sorted(self.moves):
            entry = {
                "vertex": g.names[key[0]],
                "covered": list(mask_names(g.ap, key[1])),
                "choose": g.names[self.moves[key]],
            }
            if self.budget is not None:
                entry["remaining"] = key[2]
            entries.append(entry)
        obj = {"kind": "strategy", "entries": entries}
        if self.budget is not None:
            obj["budget"] = self.budget
        return obj

    @classmethod
    def from_obj(cls, g: LabeledGameGraph, obj: dict) -> "TesterStrategy":
        """Inverse of to_obj; a malformed entry raises FormatError."""
        budget = obj.get("budget")
        if budget is not None and not (_is_int(budget) and budget >= 0):
            raise FormatError("strategy budget must be a non-negative integer")
        fields = ("vertex", "covered", "choose") + (() if budget is None else ("remaining",))
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
            if budget is not None:
                if not _is_int(entry["remaining"]):
                    raise FormatError("strategy entry: remaining must be an integer")
                key += (entry["remaining"],)
            moves[key] = pick
        return cls(moves, budget)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class GameAnswer:
    """Outcome of a game coverage query. `value` is set by value queries
    and by the bounded solver (root minimax value); the strategy is
    present on yes answers unless suppressed."""

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
    made per state. Predecessor rows are filled during the build, in
    ascending source order, and `pending` holds each state's out-degree.
    The states of BFS depth d are layers[d] .. layers[d + 1] - 1.

    One dict lookup per state finds the leaf vertices of its covered
    set b (see `_Leaves`): all of V when |b| >= `settled`, else those
    that `confined(b)` proves confined below the caller's goal. A leaf
    enters the attractor only as a seed, so an unseeded leaf is a losing
    one.

    With a depth `cap` the product is layered: each depth has its own
    key index, so a pair reached at two depths is two states, every edge
    joins depth d to d + 1, and the states at depth `cap` are leaves.
    """

    __slots__ = ("vert", "cov", "pred", "pending", "player1", "layers", "cap")

    def __init__(self, g: LabeledGameGraph, settled: int, cap: int | None = None, confined=None):
        n, labels, succ = g.n, g.labels, g.succ
        v0 = g.initial
        vert, cov = [v0], [labels[v0]]
        index = {labels[v0] * n + v0: 0}
        pred: list[list[int]] = [[]]
        layers = [0, 1]
        leaves = _Leaves(n, settled, confined)
        while layers[-2] < layers[-1] and len(layers) - 2 != cap:
            if cap is not None:
                index = {}  # layered: the next depth's states are all new
            for i, v in enumerate(vert[layers[-2]:], layers[-2]):
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
            layers.append(len(vert))
        degree = [len(row) for row in succ]
        player1 = [who == PLAYER1 for who in g.owner]
        self.vert = vert
        self.cov = cov
        self.pred = pred
        self.pending = [degree[v] for v in vert]
        self.player1 = [player1[v] for v in vert]
        self.layers = layers
        self.cap = cap

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


def _attractor(pending, pred, player1, levels, stop):
    """Nested player-1 attractor, computed incrementally.

    `pending` holds each node's successor count and is consumed.
    `levels` yields (level, seeds) pairs from the highest level down; the
    targets are nested, so each level extends the previous attractor,
    keeping the pending successor counters of player-2 nodes. Stops
    after the level at which node `stop` enters. Returns the entry level
    per node (None = the adversary avoids every target processed) and,
    per player-1 node that entered by propagation, its cause: the
    earlier-entered successor that pulled it in. Moving to the cause
    strictly decreases the entry order, so it is a winning strategy.
    """
    entered: list[int | None] = [None] * len(pred)
    cause = [-1] * len(pred)
    for level, seeds in levels:
        queue = [i for i in seeds if entered[i] is None]
        for i in queue:
            entered[i] = level
        for j in queue:
            for i in pred[j]:
                if entered[i] is not None:
                    continue
                if player1[i]:
                    cause[i] = j
                else:
                    pending[i] -= 1
                    if pending[i]:
                        continue
                entered[i] = level
                queue.append(i)
        if entered[stop] is not None:
            break
    return entered, cause


def _cause_strategy(prod: _Product, entered, cause, m: int) -> TesterStrategy:
    """The cause move of every player-1 state covering < m that entered
    the attractor by propagation (seeds have no cause), keyed (v, b) or,
    on a layered product, (v, b, steps left)."""
    vert, cov, layers, cap = prod.vert, prod.cov, prod.layers, prod.cap
    moves = {}
    for d in range(len(layers) - 1):
        left = () if cap is None else (cap - d,)
        for i in range(layers[d], layers[d + 1]):
            if cause[i] >= 0 and cov[i].bit_count() < m:
                moves[(vert[i], cov[i]) + left] = vert[cause[i]]
    return TesterStrategy(moves, cap)


def _decide(traps: "_Traps", m: int, want_strategy: bool) -> GameAnswer:
    """The decision at m over the product whose states covering >= m
    are winning leaves and whose confined states are losing ones. When
    the decision's walks run, the states covering m - 1 are leaves as
    well: one more proposition wins, so (v, b) is won exactly when v
    lies outside Trap(b), and that trap's pass holds the tester's moves
    from there."""
    last = m - 1 if traps.walks(traps.used.bit_count() - (m - 1)) else m
    prod = _Product(traps.g, last, None, lambda b: traps.confined(b, m))
    vert = prod.vert
    seeds: list[int] = []
    layer: dict[int, list[int]] = {}  # covered set b with |b| = m - 1 -> its states
    for i, b in enumerate(prod.cov):
        c = b.bit_count()
        if c >= m:
            seeds.append(i)
        elif c == last:
            layer.setdefault(b, []).append(i)
    for b, states in layer.items():
        trap = traps.escape(b)[0]
        seeds += [i for i in states if vert[i] not in trap]
    entered, cause = _attractor(prod.pending, prod.pred, prod.player1, [(m, seeds)], 0)
    if entered[0] is None:
        return GameAnswer(False)
    if not want_strategy:
        return GameAnswer(True)
    strategy = _cause_strategy(prod, entered, cause, m)
    for b, states in layer.items():
        strategy.moves.update(traps.escape_moves(b, [vert[i] for i in states if entered[i] is not None]))
    return GameAnswer(True, strategy=strategy)


def max_coverage_game(
    g: LabeledGameGraph,
    m: int,
    *,
    want_strategy: bool = True,
    ap_cap: int = DEFAULT_AP_CAP,
) -> GameAnswer:
    """Can the tester force >= m distinct propositions to be visited,
    no matter how the system plays? Above the safety bound, NO at once."""
    _check_game(g, ap_cap)
    check_target(g, m)
    traps = _Traps(g)
    if m > _safety_bound(traps):
        return GameAnswer(False)
    return _decide(traps, m, want_strategy)


def coverage_value_game(
    g: LabeledGameGraph,
    *,
    want_strategy: bool = True,
    ap_cap: int = DEFAULT_AP_CAP,
) -> GameAnswer:
    """Largest enforceable coverage: the first YES among the decisions
    at t = ub, ub - 1, ..., |L(v_in)| + 1 below the safety bound ub, or
    |L(v_in)| with the empty strategy when every one says NO."""
    _check_game(g, ap_cap)
    traps = _Traps(g)
    base = g.labels[g.initial].bit_count()
    for t in range(_safety_bound(traps), base, -1):
        ans = _decide(traps, t, want_strategy)
        if ans.decision:
            return GameAnswer(True, value=t, strategy=ans.strategy)
    return GameAnswer(True, value=base, strategy=TesterStrategy({}) if want_strategy else None)


# ---------------------------------------------------------------------------
# bounded coverage


def bounded_coverage_game(
    g: LabeledGameGraph,
    m: int,
    k: int,
    *,
    want_strategy: bool = True,
    ap_cap: int = DEFAULT_AP_CAP,
) -> GameAnswer:
    """Minimax value of the exploration tree capped at k steps, decided
    against m: the nested attractor over the product layered by depth,
    whose states at the depth cap or covering all of AP are leaves.

    The depth cap is min(k, |V| * (|AP| + 1)): coverage saturates past
    that, so deeper budgets cannot change the value.
    """
    _check_game(g, ap_cap)
    check_target(g, m, k)
    full = len(g.ap)
    cap = min(k, g.n * (full + 1))
    prod = _Product(g, full, cap)
    by_count: list[list[int]] = [[] for _ in range(full + 1)]
    for i, b in enumerate(prod.cov):
        by_count[b.bit_count()].append(i)
    # goals {covered >= t}, t = |AP| down to the root's entry level
    levels = ((t, by_count[t]) for t in range(full, -1, -1))
    entered, cause = _attractor(prod.pending, prod.pred, prod.player1, levels, 0)
    value = entered[0]
    if value < m:
        return GameAnswer(False, value=value)
    strategy = _cause_strategy(prod, entered, cause, m) if want_strategy else None
    return GameAnswer(True, value=value, strategy=strategy)


def strategy_covers(g: LabeledGameGraph, strategy: TesterStrategy, m: int) -> bool:
    """Exhaustively play every adversary line against the strategy and
    check that each one reaches >= m covered propositions.

    A play that revisits a (vertex, covered) pair before the goal would
    cycle below m forever, so any such cycle, a missing tester move, or
    an exhausted step budget fails the check.
    """
    require_valid(g)
    check_target(g, m)
    labels, succ, owner = g.labels, g.succ, g.owner
    start: tuple
    if strategy.budget is None:
        start = (g.initial, labels[g.initial])
    else:
        start = (g.initial, labels[g.initial], strategy.budget)

    def moves_from(node):
        v, b = node[0], node[1]
        if b.bit_count() >= m:
            return []
        if strategy.budget is not None and node[2] == 0:
            return None
        if owner[v] == PLAYER1:
            pick = strategy.choose(v, b, None if strategy.budget is None else node[2])
            if pick is None or pick not in succ[v]:
                return None
            nexts = [pick]
        else:
            nexts = list(succ[v])
        if strategy.budget is None:
            return [(u, b | labels[u]) for u in nexts]
        return [(u, b | labels[u], node[2] - 1) for u in nexts]

    GRAY, BLACK = 1, 2
    color: dict = {}
    stack = [(start, False)]
    while stack:
        node, leaving = stack.pop()
        if leaving:
            color[node] = BLACK
            continue
        state = color.get(node)
        if state == BLACK:
            continue
        if state == GRAY:
            return False  # cycle below the goal
        nexts = moves_from(node)
        if nexts is None:
            return False
        color[node] = GRAY
        stack.append((node, True))
        for child in nexts:
            if color.get(child) == GRAY:
                return False
            stack.append((child, False))
    return True


# ---------------------------------------------------------------------------
# recurrence and end components


def is_controllably_recurrent_game(g: LabeledGraph) -> tuple[bool, int | None]:
    """Can the tester force a return to the initial vertex from every
    vertex reachable in the underlying graph? Returns the verdict and
    the smallest reachable vertex outside the return attractor. A plain
    LabeledGraph is the game the tester owns entirely: it is recurrent
    iff every reachable vertex has a path back."""
    stray = _return_check(g)[1]
    return stray is None, stray


def _return_check(g: LabeledGraph, want_reach: bool = False) -> tuple[list[int] | None, int | None]:
    """The vertices reachable from the initial vertex in BFS order, and
    the smallest of them outside the tester's attractor of the initial
    vertex (None when there is none). Linear in |V| + |E|. A stray lies
    outside the attractor, so the forward sweep runs only when some vertex
    does, or when `want_reach` is set; otherwise reach is None."""
    require_valid(g)
    inside, _ = _attractor(*_arena(g), [(0, [g.initial])], g.initial)
    if not want_reach and None not in inside:
        return None, None
    reach = _reachable(g.succ, g.initial)
    return reach, min([v for v in reach if inside[v] is None], default=None)


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
    entered, cause = _attractor(list(degree), pred, player1, [(0, outside)], g.initial)
    return {v for v, level in enumerate(entered) if level is None}, cause


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

    def walks(self, drop: int) -> bool:
        """Whether the walks that drop `drop` >= 1 `live` propositions
        from `used` run: the C(|live|, drop) sets they range over number
        at most |AP|^3. A proposition is live when the trap of `used`
        without it is not empty; the live test takes |used| passes."""
        if self.live is None:
            self.live = [(p, top) for p in _bits(self.used) if (top := self(self.used & ~p))]
        return math.comb(len(self.live), drop) <= len(self.g.ap) ** 3

    def escape(self, b: int) -> tuple[set[int], list[int]]:
        """Trap(b) and the causes of a pass that found it, for a covered
        set b one proposition short of a decision's goal: b's own pass,
        or, when b misses a proposition p that is not live, the live
        test's pass of `used` - {p}, whose trap is empty as Trap(b) is.
        So the passes made here are among the walks' sets."""
        for p in _bits(self.used & ~b):
            if not self(self.used & ~p):
                b = self.used & ~p
                break
        trap = self(b)
        return trap, self.causes[b & self.used]

    def escape_moves(self, b: int, starts: list[int]) -> dict:
        """Tester moves keyed (v, b) that take every play from `starts`,
        vertices outside Trap(b), to a vertex labeled outside b: the
        causes of `escape(b)`'s pass, from each vertex labeled within b
        that they and the system reach first."""
        labels, succ, player1 = self.g.labels, self.g.succ, self.arena[2]
        cause = self.escape(b)[1]
        moves, seen, todo = {}, set(starts), list(starts)
        for v in todo:
            if player1[v]:
                moves[(v, b)] = cause[v]
                nexts: Iterable[int] = (cause[v],)
            else:
                nexts = succ[v]
            for u in nexts:
                if not labels[u] & ~b and u not in seen:
                    seen.add(u)
                    todo.append(u)
        return moves

    def confined(self, b: int, m: int) -> Iterable[int]:
        """Vertices from which the system keeps the cover of a play that
        has covered b below m: the union of Trap(P) over P ⊇ b with
        |P| = m - 1, unused propositions padding P.

        Trap(P) lies within Trap(used - {p}) for each p outside P, so only
        the `live` propositions, whose co-singleton trap is not empty, are
        worth dropping, d = |used ∪ b| - (m - 1) of them; d is one number
        per decision, as covered sets lie within `used`. When the
        C(|live|, d) sets P exceed |AP|^3 the leaf set is empty, so the
        walks of a decision take at most |AP|^3 fresh passes. Otherwise
        a depth-first walk from P = used drops live propositions outside
        b, bounds each set's trap by the traps of the sets above it,
        skips a set whose bound adds nothing to the union, and returns
        the whole union."""
        memo, used = self.memo, self.used
        drop = (used | b).bit_count() - (m - 1)
        if drop <= 0:
            return range(self.g.n)
        if not self.walks(drop):
            return ()
        free = [(p, top) for p, top in self.live if not b & p]
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
