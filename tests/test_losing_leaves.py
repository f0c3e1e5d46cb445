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


@examples
@seeds
def test_losing_leaves_are_confined_below_m(seed):
    g = random_game(random.Random(seed), 8, 4)
    full = (1 << len(g.ap)) - 1
    for m in range(1, len(g.ap) + 1):
        traps = _Traps(g)
        for b in range(full + 1):
            if b.bit_count() >= m:
                continue
            leaves = traps.confined(b, m)
            supersets = subsets_between(b, full, m)
            for v in leaves:
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
    for m in range(1, len(g.ap) + 1):
        traps = _Traps(g)
        for b in range(full + 1):
            if b.bit_count() >= m:
                continue
            leaves = set(traps.confined(b, m))
            drop = (traps.used | b).bit_count() - (m - 1)
            free = [p for p, _ in traps.live or () if not b & p]
            if drop > 0 and math.comb(len(free), drop) > len(g.ap) ** 3:
                continue  # the size test turns this covered set's walk down
            want = set().union(*(confined_within(g, p) for p in subsets_between(b, full, m)))
            assert leaves == want, (b, m)


def side_trap_cycle(k: int = 30):
    """The tester's cycle v0 -> c0 -> ... -> c_{k-1} -> v0, one proposition
    per c_i, where each c_i may also step to a system vertex s_i with
    c_i's label and a self-loop: every co-singleton trap holds some s_i,
    so the walks have every proposition to drop."""
    ap = [f"p{i}" for i in range(k)]
    cs, ss = [f"c{i}" for i in range(k)], [f"s{i}" for i in range(k)]
    return LabeledGameGraph.make_game(
        ap,
        [("v0", [], 1)] + [(c, [p], 1) for c, p in zip(cs, ap)] + [(s, [p], 2) for s, p in zip(ss, ap)],
        list(zip(["v0"] + cs, cs + ["v0"])) + list(zip(cs, ss)) + [(s, s) for s in ss],
        "v0",
    )


def pass_bound(g, m) -> int:
    """C(|live|, d) + 2|AP| + 1 for the decision at m: the walks and the
    m - 1 layer make at most C(|live|, d) fresh passes, the live test
    |AP| and the safety bound |AP| + 1."""
    traps = _Traps(g)
    live = [p for p in game_cover._bits(traps.used) if traps(traps.used & ~p)]
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
            # a decision promises C(|live|, d) + 2|AP| + 1 passes; these
            # games also stay within |AP|^3 + 2|AP| + 1, which is tighter
            # here, though the per-set cap does not promise it
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
    # 27 the C(30, 31 - m) candidate sets of the empty covered set exceed
    # 30^3; the states covering m - 1 are leaves all the same
    g = side_trap_cycle(30)
    built = record_products(monkeypatch)
    for m in range(5, 28):
        assert math.comb(30, 31 - m) > 30**3
        built.clear()
        ans = max_coverage_game(g, m)
        assert ans.decision == unpruned_decision(g, m)
        assert len(built) == 1 and all(c < m - 1 for c in expanded(built[0])), m


def test_decisions_meet_their_pass_bound(monkeypatch):
    passes = []
    trap = game_cover._trap
    monkeypatch.setattr(game_cover, "_trap", lambda *a: passes.append(a) or trap(*a))
    for g, ms in [(side_trap_cycle(30), range(5, 28)), (sparse_random_game(1, 200, 14), range(15))]:
        for m in ms:
            bound = pass_bound(g, m)
            passes.clear()
            max_coverage_game(g, m)
            assert len(passes) <= bound, (m, len(passes), bound)


def test_sparse_value_builds_a_small_product(monkeypatch):
    # C(|live|, d) > 14^3 at m = 7..9, but the size test is per covered
    # set and no state covering m - 1 is expanded, so the value stays small
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
