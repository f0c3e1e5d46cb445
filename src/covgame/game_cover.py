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
exactly when v lies outside Trap(b). A trap pass returns one list, the
pullers of its attractor pass (`_trap`): v lies in the trap iff its
puller is None, and outside it a tester state covering m - 1 moves to
its puller. One trap layer per decision, a bit-parallel greatest
fixpoint over every P = used - D with |D| = d = |used| - (m - 1)
(`_Traps.layer`), decides each new state's leaf with one AND; a layer
too large is refused, and each covered set then parks Trap(b) alone.
Trap passes are memoized per query, one pullers list per proposition
set: the bound makes |AP| + 1, and a decision one per covered set at
m - 1 that its strategy visits (with its layer refused, one per covered
set it classifies). The value is the first YES among the decisions at
t = ub, ub - 1, ..., |L(v_in)| + 1.

The attractor grows with the product, in the manner of Liu and Smolka's
local fixed points with the build kept breadth first (`_Product`): each
new state is classified once as a seed, a parked losing leaf or a state
to expand; a seed, and each edge added into the attractor, pulls the
edge's source in at once, and a decision stops building when the initial
state enters. The decisions of a value query share one product: lowering
the goal re-classifies only the parked leaves, and as every covered
set parks at least Trap(b), a state once expanded needs no second look
(`coverage_value_game`), so each (v, b) is built once per query.

Bounded coverage is that game within k steps: its answer is the
attractor rank of the initial state, the fewest rounds in which the
tester forces the goal. Goals t = ub, ub - 1, ... each build a fresh
product capped at k steps under t's losing leaves, attract nothing
while they build, and rank it by one attractor pass from the states
covering >= t: the value is the first t ranked within k. Each tester
move steps one rank down, so a bounded strategy too has the covered set
as its only memory.

End components and minimal safety need no product. Restricted to the
vertices labeled within a proposition set P, one linear pass of
attractor and reachability sweeps finds the maximal end component (or
trap) through the initial vertex; `_cheapest` searches P from both
ends, in at most 2^(min(k, |AP|)+1) passes for k distinct label sets.
The proposition cap is fixed at DEFAULT_AP_CAP = 30: the product solvers
refuse |AP| > 30, and `_cheapest` min(k, |AP|) > 30 (ApCapExceededError).

Controllable recurrence is the tester's attractor of the initial vertex,
one linear pass with no product (`_recurrence`); a forward sweep runs
only when that attractor misses a vertex, and is returned with the
stray. A plain LabeledGraph is the game the tester owns entirely, so
graph recurrence in graph_cover is this check, and its recurrent fast
path reuses that sweep for its label union.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ApCapExceededError, FormatError, NotRecurrentError
from .model import (
    DEFAULT_AP_CAP,
    PLAYER1,
    LabeledGameGraph,
    LabeledGraph,
    _bits,
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


def _check_game(g: LabeledGameGraph) -> None:
    require_valid(g)
    if len(g.ap) > DEFAULT_AP_CAP:
        raise ApCapExceededError(f"|AP|={len(g.ap)} exceeds the product cap of {DEFAULT_AP_CAP}")


# ---------------------------------------------------------------------------
# the (vertex, covered) product


class _Product:
    """Reachable part of the (vertex, covered) product, built breadth
    first from (v_in, L(v_in)) and attracted while it is built.

    State i is the pair (vert[i], cov[i]); state 0 is the initial state.
    The lookup key of a state is the integer cov * n + v, so no tuple is
    made per state; `index` maps keys to states. Predecessor rows are
    filled as edges are added. `pending[i]` counts the successors that
    must be attracted before state i is (one at a tester state, all at a
    system state), and `via[i]` is the state that pulled i in (None
    outside; a seed holds itself).

    `grow(leaves)` classifies each new state once by the rule `leaves`
    (`_Leaves`): it is seeded, parked as a leaf, or expanded. A seed, and
    each edge added into a state already attracted, pulls the edge's
    source at once through `_attract`, so `via` always holds the
    attractor of the product built so far, and the build stops when
    state 0 enters. An expanded tester state stops expanding once it is
    pulled in: its move is known. After a NO, `grow` with a lower goal's
    rule resumes the same product: only the parked states are classified
    again (seeded, left parked or expanded), and each (v, b) is built
    once per product.
    """

    __slots__ = ("g", "need", "vert", "cov", "pred", "pending", "via", "index", "parked")

    def __init__(self, traps: "_Traps"):
        g = self.g = traps.g
        v0, b0 = g.initial, g.labels[g.initial]
        self.need, self.vert, self.cov, self.pred = traps.arena[0], [v0], [b0], [[]]
        self.pending, self.via = [self.need[v0]], [None]
        self.index = {b0 * g.n + v0: 0}
        self.parked = [0]  # state 0 is classified by the first `grow`

    def __len__(self) -> int:
        return len(self.vert)

    def grow(self, leaves: "_Leaves", cap: int | None = None) -> bool:
        """Classify the parked states by `leaves`, then expand breadth
        first, `cap` levels deep at most, until state 0 is attracted or
        nothing is left to expand; True iff state 0 is attracted. Every
        state appears once, at its shortest distance when the build
        starts from state 0."""
        n, labels, succ = self.g.n, self.g.labels, self.g.succ
        need, vert, cov, pred = self.need, self.vert, self.cov, self.pred
        pending, via, index = self.pending, self.via, self.index
        level, seeds, parked = [], [], []
        for i in self.parked:
            trap, mask, won = leaves[cov[i]]
            if trap[vert[i]] & mask:
                parked.append(i)
            elif won:
                via[i] = i
                seeds.append(i)
            else:
                level.append(i)
        self.parked = parked
        _attract(via, pending, pred, seeds)
        depth = 0
        while level and via[0] is None and depth != cap:
            grown = []
            for i in level:
                b = cov[i]
                for u in succ[vert[i]]:
                    c = b | labels[u]
                    key = c * n + u
                    j = index.get(key)
                    if j is None:
                        j = index[key] = len(vert)
                        vert.append(u)
                        cov.append(c)
                        pred.append([i])
                        pending.append(need[u])
                        via.append(None)
                        trap, mask, won = leaves[c]
                        if trap[u] & mask:
                            parked.append(j)
                            continue
                        if not won:
                            grown.append(j)
                            continue
                        via[j] = j
                    else:
                        pred[j].append(i)
                        if via[j] is None:
                            continue
                    # the edge i -> j leads into the attractor: pull i
                    pending[i] -= 1
                    if pending[i]:
                        continue
                    via[i] = j
                    _attract(via, pending, pred, [i])
                    if via[0] is not None:
                        return True
                    break
            level, depth = grown, depth + 1
        return via[0] is not None


class _Leaves(dict):
    """Covered set b -> (trap, mask, won), filled on first use: a new
    state (v, b) is parked when trap[v] & mask is nonzero, else seeded
    when `won`, else expanded.

    Below m, `trap` is the trap layer of d = |used| - (m - 1), built on
    first use, and `mask` holds the D disjoint from b, so v is parked iff
    it lies in Trap(P) for some P ⊇ b with |P| = m - 1, which keeps the
    play below m; at |b| = m - 1 that is Trap(b). With the layer
    refused, each covered set parks Trap(b), the vertices without a
    puller in its own pass. Either way every covered set parks at least
    Trap(b), as a value query's resumed product needs. With `seed`, the
    rule of a decision: the states covering >= m are seeds, and so are
    those covering m - 1 left unparked, as one more proposition wins.
    Without it, the rule of a bounded game, whose ranks must be minimal:
    those are expanded, as that proposition is still a step away, and
    the states covering >= m are parked, to be seeded after the build."""

    def __init__(self, traps: "_Traps", m: int, seed: bool):
        super().__init__()
        self.traps, self.m, self.seed = traps, m, seed
        self.ones, self.layer = b"\1" * traps.g.n, None

    def __missing__(self, b: int) -> tuple[Sequence[int], int, bool]:
        k, m, traps = b.bit_count(), self.m, self.traps
        if k >= m:
            rule = (self.ones, int(not self.seed), self.seed)
        else:
            if self.layer is None:
                self.layer = traps.layer(traps.used.bit_count() - (m - 1))
            trap, avoiding = self.layer
            won = self.seed and k == m - 1
            if trap is None:  # refused: Trap(b) alone
                rule = ([u is None for u in traps(b)], 1, won)
            else:
                rule = (trap, avoiding(b), won)
        self[b] = rule
        return rule


def _attract(via, pending, pred, queue: list[int]) -> None:
    """Grow the attractor recorded in `via` from the nodes of `queue`,
    which have just entered it: a predecessor enters once its `pending`
    count of successors still to attract (consumed here) reaches zero,
    pulled in by the node that brought it there. The queue runs in
    order, so from seeds alone it runs in rank order, the rank being the
    fewest rounds in which player 1 forces a seed: a player-1 node enters
    through its lowest-ranked successor and a player-2 node through its
    highest. So a node ranks one above its puller (`_rank`), and at a
    player-1 node the puller, its cause, is a winning move."""
    for j in queue:
        for i in pred[j]:
            if via[i] is not None:
                continue
            pending[i] -= 1
            if pending[i]:
                continue
            via[i] = j
            queue.append(i)


def _attractor(pending, pred, seeds) -> list[int | None]:
    """Player-1 attractor of `seeds`: per node, the node that pulled it
    in (None outside; a seed holds itself). `pending` is consumed."""
    via: list[int | None] = [None] * len(pred)
    for i in seeds:
        via[i] = i
    _attract(via, pending, pred, list(seeds))
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
    prod: _Product, m: int, traps: "_Traps | None" = None, budget: int | None = None
) -> TesterStrategy:
    """The tester's moves at the states that the plays from the initial
    state reach before covering m: one walk takes the attractor's cause
    at a tester state and every successor at a system state. In a
    decision, given its `traps`, a tester state covering m - 1 moves to
    its puller in Trap(b)'s pass (`_Traps`), one attractor rank nearer a
    vertex labeled outside b: one pass per such covered set the walk
    visits. A tester state counts as walked once it holds a move, so
    `seen` holds system states only. Each move steps down one attractor
    rank, so a bounded game's moves need no steps-left key: every play
    stays within the initial state's rank, at most the game's
    `budget`."""
    g = prod.g
    n, labels, succ, owner = g.n, g.labels, g.succ, g.owner
    vert, via, index = prod.vert, prod.via, prod.index
    moves, seen = {}, set()
    todo = [(g.initial, labels[g.initial])]
    while todo:
        v, b = todo.pop()
        if b.bit_count() >= m:
            continue
        if owner[v] == PLAYER1:
            if (v, b) in moves:
                continue
            if traps is not None and b.bit_count() == m - 1:
                u = traps(b)[v]
            else:
                u = vert[via[index[b * n + v]]]
            moves[(v, b)] = u
            todo.append((u, b | labels[u]))
        elif (key := b * n + v) not in seen:
            seen.add(key)
            todo += [(u, b | labels[u]) for u in succ[v]]
    return TesterStrategy(moves, budget)


def _decide(traps: "_Traps", prod: _Product, m: int) -> GameAnswer:
    """The decision at m, attracted while `prod` grows under the leaf
    rule of m (`_Leaves`); a YES carries the strategy of that attractor."""
    if not prod.grow(_Leaves(traps, m, True)):
        return GameAnswer(False)
    return GameAnswer(True, strategy=_strategy(prod, m, traps))


def max_coverage_game(g: LabeledGameGraph, m: int) -> GameAnswer:
    """Can the tester force >= m distinct propositions to be visited,
    no matter how the system plays? Above the safety bound, NO at once."""
    _check_game(g)
    check_target(g, m)
    traps = _Traps(g)
    if m > _safety_bound(traps):
        return GameAnswer(False)
    return _decide(traps, _Product(traps), m)


def coverage_value_game(g: LabeledGameGraph) -> GameAnswer:
    """Largest enforceable coverage: the first YES among the decisions
    at t = ub, ub - 1, ..., |L(v_in)| + 1 below the safety bound ub, or
    |L(v_in)| with the empty strategy when every one says NO.

    The decisions share one product. A NO builds all of it that its goal
    allows, and the next goal t resumes it: of the parked states, those
    that win at t are seeded, those still confined below t stay parked,
    and the rest are expanded. That is exact. Parked states are lost at
    their goal, so an attractor over the rest derives only true wins,
    and what t + 1 attracted is won at t too. A state expanded at one
    goal is never classified again, which loses no seed because every
    covered set parks at least Trap(b), its layer refused or not: an
    expanded (v, b) has v outside Trap(b), so from goal |b| + 1 down the
    tester leaves Trap(b) through seeded or expanded states, and the
    attractor derives it."""
    _check_game(g)
    traps = _Traps(g)
    ub, base = _safety_bound(traps), g.labels[g.initial].bit_count()
    prod = _Product(traps) if ub > base else None
    for t in range(ub, base, -1):
        ans = _decide(traps, prod, t)
        if ans.decision:
            return GameAnswer(True, value=t, strategy=ans.strategy)
    return GameAnswer(True, value=base, strategy=TesterStrategy({}))


# ---------------------------------------------------------------------------
# bounded coverage


def bounded_coverage_game(g: LabeledGameGraph, m: int, k: int) -> GameAnswer:
    """Largest coverage the tester can force within k steps, decided
    against m: the first t = ub, ub - 1, ..., |L(v_in)| + 1 below the
    safety bound ub (the unbounded value's bound, so the bounded one's
    too) whose attractor of {covered >= t} ranks the initial state within
    the cap, min(k, |V| * (|AP| + 1)), as coverage saturates past that;
    else |L(v_in)|.
    Each goal builds a fresh product capped there under its bounded leaf
    rule (`_Leaves`), then runs one FIFO attractor from the parked
    states covering >= t. The ranks are exact within the cap: a parked
    state below t is trapped below t, so no winning play passes it, and
    a play meets each state no earlier than its distance, so every state
    a winning play within the cap leaves from is expanded.
    The strategy keys each move by (v, b) alone, with the cap as its
    budget: a tester move steps to a state one rank lower and a system
    state ranks one above its highest successor, so every play's rank
    falls from the initial state's, which is within the cap.
    """
    _check_game(g)
    check_target(g, m, k)
    traps, cap = _Traps(g), min(k, g.n * (len(g.ap) + 1))
    base = value = g.labels[g.initial].bit_count()
    for t in range(_safety_bound(traps), base, -1):
        prod = _Product(traps)
        prod.grow(_Leaves(traps, t, False), cap)
        seeds = [i for i in prod.parked if prod.cov[i].bit_count() >= t]
        prod.via = _attractor(prod.pending, prod.pred, seeds)
        if _rank(prod.via, 0) <= cap:
            value = t
            break
    if value < m:
        return GameAnswer(False, value=value)
    strategy = _strategy(prod, m, None, cap) if value > base else TesterStrategy({}, cap)
    return GameAnswer(True, value=value, strategy=strategy)


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
    stray = _recurrence(g)[0]
    return stray is None, stray


def _recurrence(g: LabeledGraph) -> tuple[int | None, list[int] | None]:
    """The smallest vertex reachable from the initial vertex that lies
    outside the tester's attractor of it (None when there is none), and
    the reachable set in BFS order, swept only when the attractor misses
    some vertex (else None). Linear in |V| + |E|."""
    require_valid(g)
    inside = _attractor(*_arena(g), [g.initial])
    if None not in inside:
        return None, None
    reached = _reachable(g.succ, g.initial)
    return min([v for v in reached if inside[v] is None], default=None), reached


def _arena(g: LabeledGraph):
    """The attractor kernel's input over the game graph itself: per
    vertex, the successors that must be attracted before it is (one at a
    tester vertex, all at a system vertex; the kernel consumes them), and
    predecessor rows. A plain LabeledGraph is the game in which the
    tester owns every vertex."""
    pred = _predecessors(g.succ)
    if not isinstance(g, LabeledGameGraph):
        return [1] * g.n, pred
    return [1 if who == PLAYER1 else len(row) for who, row in zip(g.owner, g.succ)], pred


def _trap(arena, outside: list[int]) -> list[int | None]:
    """The player-1 attractor of `outside`, as `_attractor`'s pullers.
    The trap, the vertices from which the system keeps the play off
    `outside` forever, is where the puller is None; at a tester vertex
    outside it, the puller is a move one attractor rank nearer
    `outside`. `arena` is built once per query; its counts are copied
    per call."""
    need, pred = arena
    return _attractor(list(need), pred, outside)


_LAYER_BITS = 1 << 26
"""The most bits a trap layer may hold, (|V| + |used|) * C(|used|, d) for
its ints and its `_omits` masks: 8 MB, built in 19-37 ms with a peak of
14 MB. Refusing a layer that prunes costs far more: on
`sparse_random_game(4, 150, 20)` at m = 9..13, whose layers hold 21-31
million bits, decisions took 27-302 ms with the layer and 0.76-15 s
with it refused at 2^24, parking Trap(b) alone. A layer that prunes
nothing costs its build: no decision on the tests' wide games took over
29 ms at 2^26, against 7 ms at 2^24."""


class _Traps:
    """Trap(P), the trap among the vertices labeled within proposition
    set P, as the pullers of its pass (`_trap`), memoized for one query:
    v lies in Trap(P) iff its puller is None. A pass seeds its attractor
    with the vertex lists of the label classes outside P. Propositions on
    no vertex leave that vertex set unchanged, so the key drops them."""

    def __init__(self, g: LabeledGameGraph):
        self.g, self.arena, self.memo = g, _arena(g), {}
        self.classes: dict[int, list[int]] = {}  # label -> its vertices
        for v, b in enumerate(g.labels):
            self.classes.setdefault(b, []).append(v)
        self.used = 0
        for b in self.classes:
            self.used |= b

    def outside(self, props: int) -> list[int]:
        """The vertices labeled outside `props`."""
        return [v for b, vs in self.classes.items() if b & ~props for v in vs]

    def __call__(self, props: int) -> list[int | None]:
        key = props & self.used
        via = self.memo.get(key)
        if via is None:
            via = self.memo[key] = _trap(self.arena, self.outside(key))
        return via

    def layer(self, d: int) -> tuple[list[int], Callable[[int], int]] | tuple[None, None]:
        """The trap layer of d: per vertex v an int with one bit per
        d-subset D of the used propositions, set iff v lies in
        Trap(used - D), and the function from a covered set b to the mask
        of the D disjoint from b. One FIFO greatest fixpoint builds it,
        every D at once: bit D starts set where L(v) misses D, v keeps the
        AND of its successors' bits where its arena count is 1 (a tester
        vertex, or a system vertex with one successor: AND and OR agree)
        and their OR elsewhere, and a vertex whose int shrinks appends its
        predecessor row, as in `_attract`. A layer holding more than
        _LAYER_BITS bits, its ints and the masks of `_omits`, is
        refused: (None, None)."""
        g, props = self.g, _bits(self.used)
        size = math.comb(len(props), d)
        if (g.n + len(props)) * size > _LAYER_BITS:
            return None, None
        omit, full = dict(zip(props, _omits(len(props), d))), (1 << size) - 1

        def avoiding(b: int) -> int:
            mask = full
            for bit in _bits(b):
                mask &= omit[bit]
            return mask

        start = {b: avoiding(b) for b in self.classes}
        x = [start[b] for b in g.labels]
        (need, pred), succ = self.arena, g.succ
        todo = [v for v in range(g.n) if x[v]]
        for v in todo:
            old = new = x[v]
            if need[v] == 1:
                for u in succ[v]:
                    new &= x[u]
            else:
                new = 0
                for u in succ[v]:
                    new |= x[u]
                new &= old
            if new != old:
                x[v] = new
                todo += pred[v]
        return x, avoiding


def _omits(k: int, d: int) -> list[int]:
    """Over the d-subsets of range(k) in colex order, per element p the
    bitmask of the subsets that omit p. The d-subsets of range(i) list
    those of range(i - 1) first, then the (d - 1)-subsets of range(i - 1)
    with i - 1 added, so each mask joins its two halves, and the mask of
    i - 1 is the first half whole; only the sizes that can still reach d
    are kept."""
    rows = {0: (1, [])}  # j -> (count, masks) over the j-subsets of range(i)
    for i in range(1, k + 1):
        empty, grown = (0, [0] * (i - 1)), {}
        for j in range(max(0, d - k + i), min(d, i) + 1):
            (c0, m0), (c1, m1) = rows.get(j, empty), rows.get(j - 1, empty)
            grown[j] = (c0 + c1, [a | b << c0 for a, b in zip(m0, m1)] + [(1 << c0) - 1])
        rows = grown
    return rows[d][1]


def _confined(traps: _Traps, props: int) -> set[int] | None:
    """The part of the trap among the vertices labeled within `props`
    that the initial vertex reaches inside it; None if it is outside."""
    g, via = traps.g, traps(props)
    return set(_reachable(_inside(g.succ, via), g.initial)) if via[g.initial] is None else None


def _safety_bound(traps: _Traps) -> int:
    """Greedy upper bound on the value in |AP| + 1 linear passes: from
    P = AP, drop each proposition whose loss keeps v_in in the trap of
    the vertices labeled within P; the system confines every play to
    the `_confined` set S of the final P, so no tester covers more.

    The cover of S is P itself, so no sweep of S is needed. It lies
    within P, and holds L(v_in). A kept p outside L(v_in) failed its
    test: v_in was outside Trap(P' - p) for the P' ⊇ P of that moment.
    Were p missing from S's labels, S, a trap labeled within P - p,
    would lie inside Trap(P' - p), and v_in with it."""
    g = traps.g
    props = (1 << len(g.ap)) - 1
    for bit in _bits(props & ~g.labels[g.initial]):
        if traps(props & ~bit)[g.initial] is None:
            props &= ~bit
    return props.bit_count()


def _inside(succ, via) -> list[list[int]]:
    """Successor rows restricted to the edges within the trap of the
    pullers `via`, the vertices whose puller is None."""
    return [[u for u in row if via[u] is None] if via[v] is None else [] for v, row in enumerate(succ)]


def _end_component_within(g: LabeledGameGraph, arena, outside: list[int]) -> set[int] | None:
    """The maximal end component through the initial vertex that avoids
    `outside`, or None. Alternates the trap with the initial vertex's
    strongly connected component in it until the trap is strongly
    connected (a trap is its own trap). Every end component through the
    initial vertex survives each round, and each further round removes
    a vertex."""
    v0 = g.initial
    while (via := _trap(arena, outside))[v0] is None:
        inside = _inside(g.succ, via)
        vs = set(_reachable(inside, v0)).intersection(_reachable(_predecessors(inside), v0))
        if len(vs) == via.count(None):
            return vs
        outside = [v for v in range(g.n) if v not in vs]
    return None


def _cheapest(g: LabeledGameGraph, test):
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
    a walk whose exponent exceeds DEFAULT_AP_CAP, fixed at 30, is refused."""
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
    if min(len(atoms), j := (top & ~base).bit_count()) > DEFAULT_AP_CAP:
        raise ApCapExceededError(
            f"{len(atoms)} distinct label sets and {j} propositions"
            f" exceed the cap of {DEFAULT_AP_CAP}"
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


def verify_end_component_witness(
    g: LabeledGameGraph, vertices: Iterable[int], m: int
) -> bool:
    """Check a no-certificate: a valid end component through the initial
    vertex whose label union stays below m. Polynomial time: vs is an
    end component iff the maximal one within it is vs itself, and each
    round of that search but the last shrinks its candidate."""
    require_valid(g)
    vs = set(vertices)
    if not all(isinstance(v, int) and 0 <= v < g.n for v in vs) or g.initial not in vs:
        return False
    outside = [v for v in range(g.n) if v not in vs]
    return cover_of(g, vs).bit_count() < m and _end_component_within(g, _arena(g), outside) == vs


def min_cover_end_component(g: LabeledGameGraph) -> tuple[EndComponent, int]:
    """End component through the initial vertex with the fewest distinct
    propositions: the maximal one among the vertices labeled within the
    cheapest proposition set that has one. Without any the game cannot
    be controllably recurrent (nothing confines the play), so this
    raises NotRecurrentError after one pass. On controllably recurrent
    games the count equals the coverage value."""
    require_valid(g)
    traps = _Traps(g)
    ec = _cheapest(g, lambda props: _end_component_within(g, traps.arena, traps.outside(props)))
    if ec is None:
        raise NotRecurrentError("no end component contains the initial vertex")
    mask = cover_of(g, ec)
    return EndComponent(tuple(sorted(ec)), mask), mask.bit_count()


def min_safety_value(g: LabeledGameGraph) -> tuple[int, tuple[int, ...]]:
    """Fewest distinct propositions the system can confine the play to,
    and a confining set: the part reachable from the initial vertex of
    the trap among the vertices labeled within the cheapest proposition
    set whose trap holds it. On controllably recurrent games this equals
    the minimal end-component cover."""
    require_valid(g)
    traps = _Traps(g)
    vs = _cheapest(g, lambda props: _confined(traps, props))
    return cover_of(g, vs).bit_count(), tuple(sorted(vs))
