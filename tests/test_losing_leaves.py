"""Losing leaves: a game decision at m stops at states (v, b) from which
the system can confine the play to m - 1 propositions. These tests hold
the pruned solvers to an unpruned product, to the brute-force oracle
and to an independent confinement check."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from covgame import (
    PLAYER1,
    LabeledGameGraph,
    coverage_value_game,
    max_coverage_game,
    oracle,
    strategy_covers,
)
from covgame import game_cover
from covgame.game_cover import _Product, _Traps
from genmodels import random_game, random_recurrent_game, sparse_random_game, wide_games

seeds = given(st.integers(min_value=0, max_value=2**32 - 1))
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def unpruned_decision(g, m) -> bool:
    """The decision at m on the full product, built and attracted here
    without the solver's code: only the states covering >= m are leaves,
    they are the seeds, and the attractor is iterated to its fixpoint."""
    start = (g.initial, g.labels[g.initial])
    order, seen, succ = [start], {start}, {}
    for state in order:
        v, b = state
        succ[state] = [] if b.bit_count() >= m else [(u, b | g.labels[u]) for u in g.succ[v]]
        for s in succ[state]:
            if s not in seen:
                seen.add(s)
                order.append(s)
    won = {s for s in order if s[1].bit_count() >= m}
    grew = True
    while grew:
        grew = False
        for s in order:
            pick = any if g.owner[s[0]] == PLAYER1 else all
            if s not in won and succ[s] and pick(t in won for t in succ[s]):
                won.add(s)
                grew = True
    return start in won


def check_against_references(g):
    ans = coverage_value_game(g)
    assert strategy_covers(g, ans.strategy, ans.value)
    for m in range(len(g.ap) + 1):
        decision = max_coverage_game(g, m)
        assert decision.decision == unpruned_decision(g, m) == oracle.brute_force_game(g, m)
        assert decision.decision == (m <= ans.value)
        if decision.decision:
            assert strategy_covers(g, decision.strategy, m)


@examples
@seeds
def test_random_games_match_unpruned_and_oracle(seed):
    check_against_references(random_game(random.Random(seed), 6, 4))


@examples
@seeds
def test_recurrent_games_match_unpruned_and_oracle(seed):
    check_against_references(random_recurrent_game(random.Random(seed), 7, 4))


def confined_within(g, props: int) -> set[int]:
    """Independent greatest fixpoint: the vertices labeled within `props`
    from which the system keeps the play among them forever."""
    keep = {v for v in range(g.n) if g.labels[v] & ~props == 0}
    while True:
        drop = {
            v for v in keep
            if (any if g.owner[v] == PLAYER1 else all)(u not in keep for u in g.succ[v])
        }
        if not drop:
            return keep
        keep -= drop


def parked(g, traps, b: int, m: int) -> set[int]:
    """The vertices a decision at m parks at covered set b."""
    trap, mask, _ = game_cover._Leaves(traps, m, True)[b]
    return {v for v in range(g.n) if trap[v] & mask}


def within_used(traps) -> list[int]:
    """The sets within the used propositions, where every covered set
    lies; a decision's m stays within their count, the safety bound's
    ceiling."""
    used = game_cover._bits(traps.used)
    return [sum(s) for k in range(len(used) + 1) for s in itertools.combinations(used, k)]


@examples
@seeds
def test_losing_leaves_are_confined_below_m(seed):
    g = random_game(random.Random(seed), 8, 4)
    full = (1 << len(g.ap)) - 1
    traps = _Traps(g)
    for m in range(1, traps.used.bit_count() + 1):
        for b in within_used(traps):
            if b.bit_count() >= m:
                continue
            supersets = subsets_between(b, full, m)
            for v in parked(g, traps, b, m):
                # some P ⊇ b with |P| < m holds v in a trap of its own
                assert any(v in confined_within(g, p) for p in supersets), (b, m, v)


def subsets_between(b: int, full: int, below: int) -> list[int]:
    """Every P with b ⊆ P ⊆ full and |P| < below."""
    return [
        b | sum(extra)
        for size in range(below - b.bit_count())
        for extra in itertools.combinations(game_cover._bits(full & ~b), size)
    ]


@examples
@seeds
def test_leaf_sets_are_complete(seed):
    g = random_game(random.Random(seed), 8, 4)
    full = (1 << len(g.ap)) - 1
    traps = _Traps(g)
    for m in range(1, traps.used.bit_count() + 1):
        for b in within_used(traps):
            if b.bit_count() >= m:
                continue
            want = set().union(*(confined_within(g, p) for p in subsets_between(b, full, m)))
            assert parked(g, traps, b, m) == want, (b, m)


def layer_game(seed: int):
    """A random game with multi-proposition labels, and at random a
    proposition on no vertex and one on every vertex, whose co-singleton
    trap is empty."""
    rng = random.Random(seed)
    g = random_game(rng, 7, 4)
    ap, labels = list(g.ap), list(g.labels)
    if rng.random() < 0.5:
        ap.append("unused")
    if rng.random() < 0.5:
        labels = [b | 1 << len(ap) for b in labels]
        ap.append("everywhere")
    return LabeledGameGraph(tuple(ap), g.names, g.succ, tuple(labels), g.initial, g.owner)


def colex(k: int, d: int) -> list[tuple[int, ...]]:
    """The d-subsets of range(k), in the order of a layer's bits."""
    return sorted(itertools.combinations(range(k), d), key=lambda s: s[::-1])


@examples
@seeds
def test_layers_match_trap_passes(seed):
    g = layer_game(seed)
    traps = _Traps(g)
    used = game_cover._bits(traps.used)
    full = (1 << len(g.ap)) - 1

    def trap(props: int) -> set[int]:
        via = game_cover._trap(traps.arena, traps.outside(props))
        return {v for v, u in enumerate(via) if u is None}

    for m in range(1, len(used) + 1):
        d = len(used) - (m - 1)
        layer, _ = traps.layer(d)
        for bit, drop in enumerate(colex(len(used), d)):
            inside = trap(traps.used & ~sum(used[i] for i in drop))
            assert all((layer[v] >> bit & 1) == (v in inside) for v in range(g.n)), (m, drop)
        for b in within_used(traps):
            if b.bit_count() < m:
                want = set().union(*(trap(p) for p in subsets_between(b, full, m) if p.bit_count() == m - 1))
                assert parked(g, traps, b, m) == want, (b, m)


def lost_proposition_game():
    """The system picks between a p0 self-loop and a cycle over p1..p8,
    and p9..p15 sit on an unreachable vertex. The safety bound reads 8,
    so the value query decides the goals 8 down to 1 on one product. A
    state expanded at one goal is never classified again, so the p0
    loop, inside Trap({p0}), must stay parked at every goal, or the goal
    of 1 finds no seed there and the value reads 0."""
    ap = [f"p{i}" for i in range(16)]
    cycle = [f"c{i}" for i in range(1, 9)]
    return LabeledGameGraph.make_game(
        ap,
        [("v", [], 2), ("a", ["p0"], 2)] + [(c, [f"p{i}"], 2) for i, c in enumerate(cycle, 1)]
        + [("d", ap[9:], 2)],
        [("v", "a"), ("v", "c1"), ("a", "a"), ("d", "d")] + list(zip(cycle, cycle[1:] + cycle[:1])),
        "v",
    )


@pytest.mark.parametrize("refused", [False, True], ids=["layers", "refused"])
def test_value_keeps_a_proposition_past_a_refused_covered_set(monkeypatch, refused):
    # with every layer refused, each covered set still parks Trap(b)
    if refused:
        monkeypatch.setattr(game_cover, "_LAYER_BITS", 0)
    g = lost_proposition_game()
    ans = coverage_value_game(g)
    assert ans.value == max(m for m in range(len(g.ap) + 1) if oracle.brute_force_game(g, m)) == 1
    assert strategy_covers(g, ans.strategy, ans.value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@seeds
def test_refused_layers_match_unpruned_and_oracle(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(game_cover, "_LAYER_BITS", 0)
        check_against_references(random_game(random.Random(seed), 6, 4))


def side_trap_cycle(k: int = 30):
    """The tester's cycle v0 -> c0 -> ... -> c_{k-1} -> v0, one proposition
    per c_i, where each c_i may also step to a system vertex s_i with
    c_i's label and a self-loop: every co-singleton trap holds some s_i,
    so every proposition is live, and the layers of most d are refused."""
    ap = [f"p{i}" for i in range(k)]
    cs, ss = [f"c{i}" for i in range(k)], [f"s{i}" for i in range(k)]
    return LabeledGameGraph.make_game(
        ap,
        [("v0", [], 1)] + [(c, [p], 1) for c, p in zip(cs, ap)] + [(s, [p], 2) for s, p in zip(ss, ap)],
        list(zip(["v0"] + cs, cs + ["v0"])) + list(zip(cs, ss)) + [(s, s) for s in ss],
        "v0",
    )


def pass_bound(g, m) -> int:
    """C(|live|, d) + 2|AP| + 1 for the decision at m, a ceiling on its
    trap passes, |live| counting the used propositions whose co-singleton
    trap is not empty. The safety bound makes |AP| + 1 passes; past
    those, a decision with its trap layer built makes one per covered
    set at m - 1 that its strategy visits, and one with its layer
    refused one per covered set it classifies."""
    traps = _Traps(g)
    live = [p for p in game_cover._bits(traps.used) if None in traps(traps.used & ~p)]
    drop = traps.used.bit_count() - (m - 1)
    return math.comb(len(live), max(drop, 0)) + 2 * len(g.ap) + 1


def test_wide_games_bound_their_trap_passes(monkeypatch):
    passes = []
    trap = game_cover._trap
    monkeypatch.setattr(game_cover, "_trap", lambda *a: passes.append(a) or trap(*a))
    games = dict(wide_games(30, 30), side_traps=side_trap_cycle(30))
    for name, g in games.items():
        k = len(g.ap)
        ub = game_cover._safety_bound(_Traps(g))
        for m in range(1, k + 1):
            bound = pass_bound(g, m)
            passes.clear()
            ans = max_coverage_game(g, m)
            # these games stay within C(|live|, d) + 2|AP| + 1 passes,
            # and within |AP|^3 + 2|AP| + 1, which is tighter here, though
            # their refused layers take a pass per covered set
            assert len(passes) <= bound, (name, m, len(passes), bound)
            assert len(passes) <= k**3 + 2 * k + 1, (name, m, len(passes))
            # every pass goes through _trap, so the count above is real
            assert m > ub or passes, (name, m)
            if m == 15:
                assert ans.decision == (name != "star")
                assert not ans.decision or strategy_covers(g, ans.strategy, 15)


def record_products(monkeypatch) -> list:
    built = []

    class Recorded(_Product):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(game_cover, "_Product", Recorded)
    return built


def watch_state_0(monkeypatch, built: list) -> list:
    """The size of the last recorded product at the end of each
    attractor pass over it that leaves state 0 attracted."""
    sizes = []
    attract = game_cover._attract

    def watched(via, *rest):
        attract(via, *rest)
        if built and via is built[-1].via and via[0] is not None:
            sizes.append(len(via))

    monkeypatch.setattr(game_cover, "_attract", watched)
    return sizes


def expanded(prod) -> set[int]:
    """The cover sizes of the states the product expanded."""
    return {prod.cov[i].bit_count() for row in prod.pred for i in row}


def batch_attractor(g, prod) -> set[int]:
    """The attractor of the seeds of `prod` over the edges it holds, by
    fixpoint iteration: a tester state enters with one successor inside,
    a system state with all of its successors, built and inside."""
    out: list[list[int]] = [[] for _ in prod.vert]
    for j, row in enumerate(prod.pred):
        for i in row:
            out[i].append(j)
    won = {i for i, j in enumerate(prod.via) if j == i}
    grew = True
    while grew:
        grew = False
        for i, v in enumerate(prod.vert):
            if i in won or not out[i]:
                continue
            if g.owner[v] == PLAYER1:
                enters = any(j in won for j in out[i])
            else:
                enters = len(out[i]) == len(g.succ[v]) and all(j in won for j in out[i])
            if enters:
                won.add(i)
                grew = True
    return won


def check_grown_product(g, prod, sizes: list, won: bool):
    """Each (v, b) once; the attractor kept while building is the one of
    the product built; a win adds no state after state 0 enters."""
    assert len(set(zip(prod.vert, prod.cov))) == len(prod)
    assert {i for i, j in enumerate(prod.via) if j is not None} == batch_attractor(g, prod)
    assert (prod.via[0] is not None) == won
    if won:
        assert sizes and sizes[0] == len(prod), (sizes[:1], len(prod))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@seeds
def test_exact_decisions_expand_nothing_past_m_minus_1(seed):
    rng = random.Random(seed)
    g = random_game(rng, 8, 4) if seed % 2 else random_recurrent_game(rng, 7, 4)
    ub = game_cover._safety_bound(_Traps(g))
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = record_products(monkeypatch)
        sizes = watch_state_0(monkeypatch, built)
        for m in range(1, len(g.ap) + 1):
            built.clear()
            sizes.clear()
            ans = max_coverage_game(g, m)
            # a decision at m <= ub builds one product, and none above
            assert len(built) == (m <= ub), (m, ub)
            for prod in built:
                assert all(c < m - 1 for c in expanded(prod)), (m, expanded(prod))
                check_grown_product(g, prod, sizes, ans.decision)


def test_values_grow_one_product(monkeypatch):
    # on these games about one value in seven lies below the safety
    # bound, so its query resumes the product after one or more NOs
    built = record_products(monkeypatch)
    sizes = watch_state_0(monkeypatch, built)
    resumed = 0
    for seed in range(150):
        g = sparse_random_game(seed, 24, 5)
        ub = game_cover._safety_bound(_Traps(g))
        base = g.labels[g.initial].bit_count()
        built.clear()
        sizes.clear()
        ans = coverage_value_game(g)
        assert unpruned_decision(g, ans.value), seed
        assert ans.value == len(g.ap) or not unpruned_decision(g, ans.value + 1), seed
        assert strategy_covers(g, ans.strategy, ans.value), seed
        assert len(built) == (ub > base), seed
        for prod in built:
            check_grown_product(g, prod, sizes, ans.value > base)
            assert all(c < ub - 1 for c in expanded(prod)), seed
        resumed += base < ans.value < ub
    assert resumed >= 15, resumed


def test_wide_decisions_expand_nothing_past_m_minus_1(monkeypatch):
    # every proposition of the side-trap cycle is live, so from m = 5 to
    # 27 the empty covered set has C(30, 31 - m) > 30^3 candidate sets P,
    # and from m = 8 to 24 the layers exceed _LAYER_BITS and are
    # refused; the states covering m - 1 are leaves all the same
    g = side_trap_cycle(30)
    built = record_products(monkeypatch)
    for m in range(5, 28):
        assert math.comb(30, 31 - m) > 30**3
        assert ((g.n + 30) * math.comb(30, 31 - m) > game_cover._LAYER_BITS) == (8 <= m <= 24)
        built.clear()
        ans = max_coverage_game(g, m)
        assert ans.decision == unpruned_decision(g, m)
        assert len(built) == 1 and all(c < m - 1 for c in expanded(built[0])), m


def test_decisions_meet_their_pass_bound(monkeypatch):
    passes = []
    trap = game_cover._trap
    monkeypatch.setattr(game_cover, "_trap", lambda *a: passes.append(a) or trap(*a))
    built = 0
    for g, ms in [(side_trap_cycle(30), range(5, 28)), (sparse_random_game(1, 200, 14), range(15))]:
        used = _Traps(g).used.bit_count()
        for m in ms:
            bound = pass_bound(g, m)
            passes.clear()
            ans = max_coverage_game(g, m)
            assert len(passes) <= bound, (m, len(passes), bound)
            if (g.n + used) * math.comb(used, used - (m - 1)) > game_cover._LAYER_BITS:
                continue  # a refused layer: a pass per covered set
            # with its layer built, a decision passes only for the safety
            # bound and for the covered sets at m - 1 its strategy visits
            moves = ans.strategy.moves if ans.decision else {}
            exits = {b for _, b in moves if b.bit_count() == m - 1}
            assert len(passes) <= len(g.ap) + 1 + len(exits), (m, len(passes))
            built += 1
    assert built >= 15, built


def test_sparse_value_builds_a_small_product(monkeypatch):
    # C(|live|, d) > 14^3 candidate sets P at m = 7..9, but one trap
    # layer per goal parks every covered set's full union, and no state
    # covering m - 1 is expanded, so the value stays small
    built = record_products(monkeypatch)
    g = sparse_random_game(1, 200, 14)
    ans = coverage_value_game(g)
    assert len(built) == 1 and 0 < len(built[0]) < 20_000
    assert strategy_covers(g, ans.strategy, ans.value)


def test_value_builds_each_state_once(monkeypatch):
    # the decisions at 12, 11 and 10 built 127,597 states in three
    # products, 45,562 of them distinct; one resumed product builds each
    # (v, b) once
    built = record_products(monkeypatch)
    g = sparse_random_game(4, 200, 12)
    ans = coverage_value_game(g)
    assert ans.value == 10 and strategy_covers(g, ans.strategy, 10)
    assert len(built) == 1
    prod = built[0]
    assert len(set(zip(prod.vert, prod.cov))) == len(prod) <= 45_562


def test_wide_strategies_cover_at_every_m():
    # leaves at m - 1 start most plays here: their moves come from the
    # traps' passes, and each play must still reach m
    games = dict(wide_games(30, 30), side_traps=side_trap_cycle(30))
    for name, g in games.items():
        value = coverage_value_game(g)
        assert strategy_covers(g, value.strategy, value.value), name
        for m in range(len(g.ap) + 1):
            ans = max_coverage_game(g, m)
            assert ans.decision == (m <= value.value), (name, m)
            assert not ans.decision or strategy_covers(g, ans.strategy, m), (name, m)
