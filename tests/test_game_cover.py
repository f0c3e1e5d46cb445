"""Game solvers: attractor reachability, bounded minimax, recurrence,
end components, and minimal safety."""

import gc
import random
import sys
import time

import pytest

from covgame import (
    ApCapExceededError,
    PLAYER1,
    PLAYER2,
    LabeledGameGraph,
    NotRecurrentError,
    bounded_coverage_game,
    coverage_value_game,
    coverage_value_graph,
    cover_of,
    game_to_graph,
    is_controllably_recurrent_game,
    max_coverage_game,
    min_cover_end_component,
    min_safety_value,
    oracle,
    strategy_covers,
    verify_end_component_witness,
)
from covgame import TesterStrategy as Strategy  # a Test* name would be collected
from covgame import game_cover
from covgame.game_cover import _Leaves, _Product, _Traps
from genmodels import (
    diamond_game,
    random_game,
    random_recurrent_game,
    sparse_random_game,
    wide_games,
)
from test_acceptance import exhaustive_playout_depth


def plain_product(g, goal, cap=None):
    """The product as the bounded solver builds it at `goal`: the states
    covering >= goal and the losing leaves below it are parked, the rest
    are expanded up to BFS depth `cap`, and nothing is attracted."""
    traps = _Traps(g)
    prod = _Product(traps)
    prod.grow(_Leaves(traps, goal, False), cap)
    return prod


def erase_owners_to_graph(g):
    """All-player-1 view of a game, as a plain graph."""
    all_p1 = LabeledGameGraph(g.ap, g.names, g.succ, g.labels, g.initial, (1,) * g.n)
    return game_to_graph(all_p1)


class TestMaxCoverageGame:
    def test_adversarial_branch(self, adversarial_game):
        # frozen via minimax over the two-move game tree
        assert max_coverage_game(adversarial_game, 1).decision
        assert not max_coverage_game(adversarial_game, 2).decision

    def test_tester_owned_branch_still_splits(self, adversarial_game):
        g = adversarial_game
        mine = LabeledGameGraph(g.ap, g.names, g.succ, g.labels, g.initial, (1, 1, 1))
        assert max_coverage_game(mine, 1).decision
        assert not max_coverage_game(mine, 2).decision  # branch labels stay disjoint

    def test_m_zero_empty_strategy(self, adversarial_game):
        ans = max_coverage_game(adversarial_game, 0)
        assert ans.decision
        assert ans.strategy.moves == {}

    def test_ap_cap(self, adversarial_game):
        with pytest.raises(ApCapExceededError):
            max_coverage_game(adversarial_game, 1, ap_cap=1)

    def test_oracle_agreement(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_game(rng)
            for m in range(min(3, len(g.ap)) + 1):
                assert (
                    max_coverage_game(g, m).decision
                    == oracle.brute_force_game(g, m)
                )


def refuse_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was built")

    monkeypatch.setattr(game_cover, "_Product", refuse)


def dodging_ring(n: int) -> LabeledGameGraph:
    """n system vertices on a ring (n even), each stepping one or two
    ahead. Even vertices carry p0..p3 in turn and odd ones nothing, so
    the system can dodge any set of propositions on the odd cycle: every
    trap holds all odd vertices, and the safety bound is 0."""
    ap = ("p0", "p1", "p2", "p3")
    succ = tuple(tuple(sorted(((v + 1) % n, (v + 2) % n))) for v in range(n))
    labels = tuple(0 if v % 2 else 1 << (v // 2 % 4) for v in range(n))
    return LabeledGameGraph(ap, tuple(f"v{v}" for v in range(n)), succ, labels, 1, (PLAYER2,) * n)


class TestSafetyBound:
    def test_no_product_above_the_bound(self, monkeypatch):
        rng = random.Random(23)
        games = [random_game(rng, 8, 4) for _ in range(200)]
        bounds = [game_cover._safety_bound(game_cover._Traps(g)) for g in games]
        refuse_product(monkeypatch)
        for g, ub in zip(games, bounds):
            for m in range(ub + 1, len(g.ap) + 1):
                assert not max_coverage_game(g, m).decision

    def test_value_product_stops_at_the_bound(self, built_products):
        built = built_products
        rng = random.Random(29)
        for g in (random_game(rng, 8, 4) for _ in range(200)):
            built.clear()
            ub = game_cover._safety_bound(game_cover._Traps(g))
            value = coverage_value_game(g).value
            assert value <= ub
            # the decisions at ub, ub - 1, ... share one product; none runs
            # when ub is the initial cover
            assert len(built) == (ub > g.labels[g.initial].bit_count())
            for prod in built:
                # only states covering fewer than ub propositions are expanded
                assert all(prod.cov[i].bit_count() < ub for row in prod.pred for i in row)

    def test_bound_costs_its_trap_passes_on_large_games(self):
        # |AP| + 1 trap passes on a 100,000-vertex ring whose traps keep
        # most of V; the work around the passes is linear as well, so the
        # bound reads about 9 passes, where work quadratic in a trap, such
        # as building its vertex mask with sum(1 << v ...), reads about 30.
        # A pass is timed as its attractor plus the trap's vertex set: the
        # factor 3 was set for that unit, and the pullers alone cost less.
        g = dodging_ring(100_000)
        arena = game_cover._arena(g)
        outside = game_cover._Traps(g).outside(0b1110)
        passes, bounds = [], []
        gc.disable()  # a full collection costs the heap, not the work
        try:
            for _ in range(9):  # CPU time: other processes do not count
                start = time.process_time()
                via = game_cover._trap(arena, outside)
                {v for v, u in enumerate(via) if u is None}
                passes.append(time.process_time() - start)
                start = time.process_time()
                assert game_cover._safety_bound(game_cover._Traps(g)) == 0
                bounds.append(time.process_time() - start)
        finally:
            gc.enable()
        assert min(bounds) < 3 * (len(g.ap) + 1) * min(passes)

    def test_zero_value_game_needs_no_product(self, monkeypatch):
        g = sparse_random_game(0)
        refuse_product(monkeypatch)
        ans = coverage_value_game(g)
        assert ans.value == 0 and strategy_covers(g, ans.strategy, 0)
        for m in range(1, len(g.ap) + 1):
            assert not max_coverage_game(g, m).decision


class TestCoverageValueGame:
    def test_examples(self, adversarial_game, triangle_game):
        assert coverage_value_game(adversarial_game).value == 1
        assert coverage_value_game(triangle_game).value == 3

    def test_all_player1_matches_graph(self):
        rng = random.Random(59)
        for _ in range(50):
            g = random_game(rng)
            mine = LabeledGameGraph(
                g.ap, g.names, g.succ, g.labels, g.initial, (1,) * g.n
            )
            assert (
                coverage_value_game(mine).value
                == coverage_value_graph(erase_owners_to_graph(g)).value
            )

    def test_adversary_only_hurts(self):
        rng = random.Random(61)
        for _ in range(50):
            g = random_game(rng)
            assert (
                coverage_value_game(g).value
                <= coverage_value_graph(erase_owners_to_graph(g)).value
            )

    def test_forced_player2_matches_erased_graph(self):
        # with every system vertex down to one successor, ownership is
        # irrelevant and game_to_graph preserves the value
        rng = random.Random(63)
        for _ in range(50):
            g = random_game(rng)
            succ = tuple(
                row if g.owner[v] == 1 else row[:1]
                for v, row in enumerate(g.succ)
            )
            forced = LabeledGameGraph(
                g.ap, g.names, succ, g.labels, g.initial, g.owner
            )
            assert (
                coverage_value_game(forced).value
                == coverage_value_graph(game_to_graph(forced)).value
            )


@pytest.fixture
def built_products(monkeypatch):
    """Every `_Product` the solvers build, in order."""
    built = []

    class Recorded(_Product):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(game_cover, "_Product", Recorded)
    return built


class TestBoundedCoverageGame:
    def test_triangle_as_game(self, triangle_game):
        assert bounded_coverage_game(triangle_game, 3, 2).decision
        assert not bounded_coverage_game(triangle_game, 3, 1).decision

    def test_adversarial_one_step(self, adversarial_game):
        assert bounded_coverage_game(adversarial_game, 1, 1).decision

    def test_oracle_agreement(self):
        rng = random.Random(67)
        for _ in range(60):
            g = random_game(rng)
            for m in range(min(3, len(g.ap)) + 1):
                for k in range(7):
                    assert (
                        bounded_coverage_game(g, m, k).decision
                        == oracle.brute_force_game(g, m, k)
                    )

    def test_value_is_the_attractor_rank(self, built_products):
        # the system at r picks the head of a five-step tester chain to
        # the only label; every state lies within two steps of r, so the
        # capped product is whole from k = 2, yet the tester needs six
        chain = [f"a{i}" for i in range(5)]
        g = LabeledGameGraph.make_game(
            ["p"],
            [("r", [], 2)] + [(a, [], 1) for a in chain] + [("goal", ["p"], 1)],
            [("r", a) for a in chain] + list(zip(chain, chain[1:] + ["goal"])) + [("goal", "goal")],
            "r",
        )
        for k in range(10):
            built_products.clear()
            ans = bounded_coverage_game(g, 1, k)
            assert ans.value == (1 if k >= 6 else 0)
            assert ans.decision == oracle.brute_force_game(g, 1, k)
            if ans.decision:
                assert strategy_covers(g, ans.strategy, 1)
            # each (vertex, covered) pair is one state, whatever the budget
            assert [len(p) for p in built_products] == [1 if k == 0 else 6 if k == 1 else 7]

    def test_budget_builds_no_more_than_the_product(self, built_products):
        # past the depth that reaches every state, each goal's capped
        # product is its whole product, not one copy of it per depth
        for seed, sizes in ((0, [1188]), (1, [573, 220])):
            g = sparse_random_game(seed, 64, 6)
            for k in (20, 200):
                built_products.clear()
                bounded_coverage_game(g, len(g.ap), k)
                assert [len(p) for p in built_products] == sizes
            ub = game_cover._safety_bound(_Traps(g))
            assert sizes == [len(plain_product(g, ub - i)) for i in range(len(sizes))]

    def test_trap_leaves_prune_the_product(self, built_products):
        # the goals below the safety bound park their losing leaves: the
        # unpruned product capped at 20 steps held 3,382,610 states
        bounded_coverage_game(sparse_random_game(1, 200, 16), 0, 20)
        assert sum(len(p) for p in built_products) <= 200_000

    def test_deep_budgets_saturate_to_attractor(self):
        # the bounded minimax agrees with the oracle at a short budget and
        # with the attractor once the budget passes saturation
        rng = random.Random(424242)
        for _ in range(60):
            g = random_game(rng, max_v=5, max_ap=2)
            horizon = g.n * (len(g.ap) + 1)
            for m in range(len(g.ap) + 1):
                assert (
                    bounded_coverage_game(g, m, 7).decision
                    == oracle.brute_force_game(g, m, 7)
                )
                assert (
                    bounded_coverage_game(g, m, horizon).decision
                    == max_coverage_game(g, m).decision
                )

    def test_solver_leaves_recursion_limit_alone(self, monkeypatch):
        # solvers are pure: a deep budget must not touch process state
        def refuse(limit):
            raise AssertionError("a solver changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 3000
        props = {0: ["p"], n // 3: ["q"], 2 * n // 3: ["r"]}
        g = LabeledGameGraph.make_game(
            ["p", "q", "r"],
            [(f"v{i}", props.get(i, []), 1) for i in range(n)],
            [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)],
            "v0",
        )
        ans = bounded_coverage_game(g, 3, 3 * n)
        assert ans.value == 3
        assert strategy_covers(g, ans.strategy, 3)


def reached_tester_states(g, strategy, m) -> int:
    """The distinct tester states (v, b) that the plays from the initial
    state reach under `strategy` before covering m or running out of
    steps: a depth-first walk that follows the strategy at tester states
    and every successor at system states."""
    start = (g.initial, g.labels[g.initial], strategy.budget)
    seen, stack, tester = {start}, [start], set()
    while stack:
        v, b, left = stack.pop()
        if b.bit_count() >= m or left == 0:
            continue
        if g.owner[v] == PLAYER1:
            tester.add((v, b))
            nexts = [strategy.choose(v, b)]
        else:
            nexts = g.succ[v]
        for u in nexts:
            child = (u, b | g.labels[u], None if left is None else left - 1)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(tester)


class TestStrategies:
    def test_unbounded_strategy_sound(self):
        rng = random.Random(73)
        checked = 0
        for _ in range(80):
            g = random_game(rng)
            for m in range(min(3, len(g.ap)) + 1):
                ans = max_coverage_game(g, m)
                if ans.decision:
                    assert strategy_covers(g, ans.strategy, m)
                    checked += 1
        assert checked > 50

    def test_bounded_strategy_sound(self):
        rng = random.Random(79)
        checked = 0
        for _ in range(60):
            g = random_game(rng)
            m = rng.randint(0, min(3, len(g.ap)))
            k = rng.randint(0, 6)
            ans = bounded_coverage_game(g, m, k)
            if ans.decision:
                assert strategy_covers(g, ans.strategy, m)
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize(
        "make",
        [lambda rng: random_game(rng, 8, 4), lambda rng: random_recurrent_game(rng, 7, 4)],
        ids=["random", "recurrent"],
    )
    def test_strategies_hold_only_reached_moves(self, make):
        rng = random.Random(97)
        for _ in range(60):
            g = make(rng)
            value = coverage_value_game(g)
            answers = [(value.value, value)]
            for m in range(len(g.ap) + 1):
                answers.append((m, max_coverage_game(g, m)))
                answers += [(m, bounded_coverage_game(g, m, k)) for k in range(7)]
            for m, ans in answers:
                if ans.decision:
                    assert strategy_covers(g, ans.strategy, m)
                    assert len(ans.strategy.moves) == reached_tester_states(g, ans.strategy, m)

    def test_sparse_decision_strategy_is_small(self):
        # the product holds 2,294 tester states here, 449 of them won,
        # and the plays from the initial state reach 44 of them
        g = sparse_random_game(4)
        strategy = max_coverage_game(g, 7).strategy
        assert len(strategy.moves) == reached_tester_states(g, strategy, 7) == 44

    @pytest.mark.parametrize("d, tester_chains", [(8, True), (12, False)])
    def test_diamond_strategy_has_one_move_per_state(self, d, tester_chains):
        # plays reach each chain vertex after up to 2^d numbers of steps;
        # a move keyed by the steps left would be emitted once per count
        g = diamond_game(d, tester_chains)
        assert g.n == 2**d + d
        ans = bounded_coverage_game(g, 1, g.n)
        assert ans.value == 1 and ans.strategy.budget == g.n
        assert len(ans.strategy.moves) == (2**d - 1 if tester_chains else 0)
        longest = 2**d - 1 + d
        assert strategy_covers(g, Strategy(ans.strategy.moves, longest), 1)
        assert not strategy_covers(g, Strategy(ans.strategy.moves, longest - 1), 1)

    def test_budgeted_check_agrees_with_playouts(self):
        # bounded strategies with some moves redirected or dropped, at
        # budgets around the cap and just below the longest play: the
        # check passes exactly when every play, stepped with its steps
        # left, covers m within the budget
        rng = random.Random(101)
        verdicts = []
        for _ in range(60):
            g = random_game(rng, 8, 4)
            deepest = g.n * (len(g.ap) + 1)
            for m in range(1, len(g.ap) + 1):
                for k in (2, 4, 8):
                    ans = bounded_coverage_game(g, m, k)
                    if not (ans.decision and ans.strategy.moves):
                        continue
                    moves = dict(ans.strategy.moves)
                    for v, b in list(moves):
                        if rng.random() < 0.3:
                            moves[(v, b)] = rng.choice(g.succ[v])
                        elif rng.random() < 0.05:
                            del moves[(v, b)]
                    cap = ans.strategy.budget
                    longest = exhaustive_playout_depth(g, Strategy(moves), m) or 1
                    for budget in (None, cap - 1, cap, min(cap + 3, deepest), longest - 1):
                        strategy = Strategy(moves, budget)
                        depth = exhaustive_playout_depth(g, strategy, m)
                        want = depth is not None and (budget is None or depth <= budget)
                        assert strategy_covers(g, strategy, m) == want
                        verdicts.append(want)
        assert verdicts.count(True) > 50 and verdicts.count(False) > 50

    def test_broken_strategy_detected(self, adversarial_game):
        from covgame import TesterStrategy

        # the tester never moves: fails unless the goal is trivially met
        idle = TesterStrategy({})
        assert strategy_covers(adversarial_game, idle, 1)  # player 2 must move anyway
        g = LabeledGameGraph.make_game(
            ["p"],
            [("a", [], 1), ("b", ["p"], 1)],
            [("a", "a"), ("a", "b"), ("b", "b")],
            "a",
        )
        assert not strategy_covers(g, idle, 1)
        good = max_coverage_game(g, 1).strategy
        assert strategy_covers(g, good, 1)

    def test_strategies_are_deterministic(self):
        rng = random.Random(83)
        for _ in range(30):
            g = random_game(rng)
            m = min(2, len(g.ap))
            a1 = max_coverage_game(g, m)
            a2 = max_coverage_game(g, m)
            if a1.decision:
                assert a1.strategy.moves == a2.strategy.moves


class TestProduct:
    def test_size_bound_and_laziness(self):
        rng = random.Random(89)
        for _ in range(40):
            g = random_game(rng)
            traps = _Traps(g)
            used = traps.used.bit_count()
            for goal in range(1, used + 2):
                prod = plain_product(g, goal)
                assert len(prod) <= g.n * 2 ** len(g.ap)
                for v, b in zip(prod.vert, prod.cov):
                    # only states whose covered set absorbed the vertex label
                    assert b & g.labels[v] == g.labels[v]
                parked = set(prod.parked)
                for j, row in enumerate(prod.pred):
                    for i in row:
                        # monotone covered component along every edge
                        assert prod.cov[i] & prod.cov[j] == prod.cov[i]
                        # states covering >= goal are leaves, never expanded,
                        # and so are the parked losing leaves
                        assert prod.cov[i].bit_count() < goal and i not in parked
                for i in parked:
                    v, b = prod.vert[i], prod.cov[i]
                    # parked below the goal: the system confines the play
                    # within some P ⊇ b of goal - 1 used propositions
                    assert b.bit_count() >= goal or any(
                        traps(p)[v] is None
                        for p in range(traps.used + 1)
                        if p & b == b and p & ~traps.used == 0 and p.bit_count() == goal - 1
                    )
            for cap in (0, 1, 3):
                prod = plain_product(g, used, cap)
                parked = set(prod.parked)
                # each (v, b) appears once
                assert len(set(zip(prod.vert, prod.cov))) == len(prod)
                # depth by BFS parent: the first predecessor found the state
                depth = [0]
                for j in range(1, len(prod)):
                    assert prod.pred[j][0] < j
                    depth.append(depth[prod.pred[j][0]] + 1)
                # no state lies deeper than the cap; cap 0 expands nothing
                assert max(depth) <= cap
                assert cap or len(prod) == 1
                out = [0] * len(prod)
                for j, row in enumerate(prod.pred):
                    for i in row:
                        out[i] += 1
                        # states at the cap and parked ones are leaves
                        assert depth[i] < cap and i not in parked
                        # every edge joins depth d to a depth of at most d + 1
                        assert depth[j] <= depth[i] + 1
                for i, v in enumerate(prod.vert):
                    # every other state is expanded, along all its edges;
                    # the states covering all used propositions are parked
                    assert i in parked or prod.cov[i].bit_count() < used
                    if depth[i] < cap and i not in parked:
                        assert out[i] == len(g.succ[v])


class TestRecurrenceGame:
    def test_adversarial_not_recurrent(self, adversarial_game):
        ok, stray = is_controllably_recurrent_game(adversarial_game)
        assert not ok
        assert stray == adversarial_game.id_of["a"]

    def test_triangle_game_recurrent(self, triangle_game):
        assert is_controllably_recurrent_game(triangle_game) == (True, None)

    def test_player2_choice_breaks_recurrence(self):
        # the system can hold the play away from the initial vertex
        g = LabeledGameGraph.make_game(
            ["p"],
            [("a", ["p"], 1), ("b", [], 2)],
            [("a", "b"), ("b", "b"), ("b", "a")],
            "a",
        )
        ok, stray = is_controllably_recurrent_game(g)
        assert not ok
        assert stray == g.id_of["b"]


class TestEndComponents:
    def test_verify_examples(self, triangle_game):
        assert verify_end_component_witness(triangle_game, (0, 1, 2), 4)
        assert not verify_end_component_witness(triangle_game, (0, 1, 2), 3)  # 3 < 4 only
        # dropping a vertex breaks player-1 closure
        assert not verify_end_component_witness(triangle_game, (0, 1), 4)

    def test_singleton_needs_self_loop(self):
        g = LabeledGameGraph.make_game(
            ["p"],
            [("a", [], 1), ("b", ["p"], 1)],
            [("a", "b"), ("b", "b"), ("b", "a")],
            "a",
        )
        assert not verify_end_component_witness(g, (0,), 1)
        loops = LabeledGameGraph.make_game(
            ["p"], [("a", [], 1)], [("a", "a")], "a"
        )
        assert verify_end_component_witness(loops, (0,), 1)

    def test_min_cover_triangle(self, triangle_game):
        ec, count = min_cover_end_component(triangle_game)
        assert ec.vertices == (0, 1, 2)
        assert count == 3

    def test_min_cover_refuses_unconfinable(self, adversarial_game):
        with pytest.raises(NotRecurrentError):
            min_cover_end_component(adversarial_game)

    def test_refusal_takes_one_pass(self, monkeypatch):
        # a path through 20 labels into an unlabeled sink: no end component
        # contains the initial vertex, which one pass over the whole game
        # shows; 2^20 proposition sets need not be tried
        passes = []
        search = game_cover._end_component_within
        monkeypatch.setattr(
            game_cover, "_end_component_within", lambda *a: passes.append(a) or search(*a)
        )
        k = 20
        chain = [f"a{i}" for i in range(k)] + ["sink"]
        g = LabeledGameGraph.make_game(
            [f"p{i}" for i in range(k)],
            [("v0", [], 1)] + [(a, [f"p{i}"], 1) for i, a in enumerate(chain[:k])]
            + [("sink", [], 1)],
            list(zip(["v0"] + chain, chain + ["sink"])),
            "v0",
        )
        with pytest.raises(NotRecurrentError):
            min_cover_end_component(g)
        assert len(passes) == 1

    @pytest.mark.parametrize("name, want", [("two", 30), ("cycle", 30), ("star", 1)])
    def test_wide_games_take_few_passes(self, monkeypatch, name, want):
        # 30 propositions: walking every proposition set would take 2^30
        # passes; the two walks need about two per proposition
        tried = []
        outside = game_cover._Traps.outside
        monkeypatch.setattr(
            game_cover._Traps, "outside", lambda self, props: tried.append(props) or outside(self, props)
        )
        g = wide_games()[name]
        start = time.perf_counter()
        ec, count = min_cover_end_component(g)
        value, confined = min_safety_value(g)
        assert time.perf_counter() - start < 1.0
        assert len(tried) <= 2 * 2 * 31
        assert count == value == want
        assert verify_end_component_witness(g, ec.vertices, count + 1)
        assert cover_of(g, confined).bit_count() == want

    def test_ap_cap_bounds_the_walk(self):
        # the cap applies to the smaller of the distinct label sets and the
        # propositions the walk ranges over, not to |AP|
        wide = wide_games(40, 40)
        assert min_cover_end_component(wide["two"])[1] == 40
        assert min_safety_value(wide["two"])[0] == 40
        for solve in (min_cover_end_component, min_safety_value):
            with pytest.raises(ApCapExceededError):
                solve(wide["cycle"])
        assert min_cover_end_component(wide["cycle"], ap_cap=40)[1] == 40

    def test_certificates_verify(self):
        rng = random.Random(97)
        for _ in range(25):
            g = random_recurrent_game(rng, max_v=6, max_ap=3)
            ec, count = min_cover_end_component(g)
            assert verify_end_component_witness(g, ec.vertices, count + 1)
            assert not verify_end_component_witness(g, ec.vertices, count)

    def test_lemma_equivalence_on_recurrent_games(self):
        rng = random.Random(101)
        for _ in range(40):
            g = random_recurrent_game(rng, max_v=6, max_ap=3)
            _, count = min_cover_end_component(g)
            assert count == coverage_value_game(g).value


class TestMinSafety:
    def test_examples(self, triangle_game, adversarial_game):
        assert min_safety_value(triangle_game)[0] == 3
        # the system confines the play to one branch: hub plus one label
        assert min_safety_value(adversarial_game)[0] == 1

    def test_equals_min_end_component_on_recurrent(self):
        rng = random.Random(103)
        for _ in range(30):
            g = random_recurrent_game(rng, max_v=6, max_ap=3)
            _, count = min_cover_end_component(g)
            assert min_safety_value(g)[0] == count
