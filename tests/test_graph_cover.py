"""Graph coverage solvers against worked examples and the path oracle."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from covgame import (
    PLAYER1,
    InvalidModelError,
    LabeledGameGraph,
    LabeledGraph,
    MOutOfRangeError,
    NotRecurrentError,
    bounded_coverage_graph,
    cover_of,
    coverage_value_graph,
    is_controllably_recurrent_game,
    is_controllably_recurrent_graph,
    max_coverage_graph,
    max_coverage_recurrent_graph,
    oracle,
    path_check,
)
from genmodels import random_graph, random_strongly_connected_graph


class TestMaxCoverage:
    def test_triangle_full_cover(self, triangle):
        ans = max_coverage_graph(triangle, 3)
        assert ans.decision
        assert ans.witness == (0, 1, 2)

    def test_branch_graph_cannot_join_labels(self, branch_graph):
        # frozen via oracle.brute_force_graph over all paths to depth m*|V|=6
        assert oracle.brute_force_graph(branch_graph, 2) is False
        assert not max_coverage_graph(branch_graph, 2).decision
        assert max_coverage_graph(branch_graph, 1).decision

    def test_m_zero_trivial_witness(self, branch_graph):
        ans = max_coverage_graph(branch_graph, 0)
        assert ans.decision
        assert ans.witness == (branch_graph.initial,)
        assert len(ans.witness) - 1 == 0

    def test_m_out_of_range(self, triangle):
        with pytest.raises(MOutOfRangeError):
            max_coverage_graph(triangle, 4)
        with pytest.raises(MOutOfRangeError):
            max_coverage_graph(triangle, -1)

    def test_invalid_model_refused(self):
        g = LabeledGraph.make(["p"], [("a", []), ("s", [])], [("a", "s")], "a")
        with pytest.raises(InvalidModelError):
            max_coverage_graph(g, 1)


class TestCoverageValue:
    def test_examples(self, triangle, branch_graph):
        assert coverage_value_graph(triangle).value == 3
        # frozen via assignment-free path enumeration: only one branch is taken
        assert coverage_value_graph(branch_graph).value == 1
        loop = LabeledGraph.make([], [("v", [])], [("v", "v")], "v")
        assert coverage_value_graph(loop).value == 0

    def test_value_bounds(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng)
            ans = coverage_value_graph(g)
            reachable = 0
            seen = {g.initial}
            queue = [g.initial]
            for v in queue:
                reachable |= g.labels[v]
                for u in g.succ[v]:
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
            assert g.labels[g.initial].bit_count() <= ans.value
            assert ans.value <= reachable.bit_count()
            assert cover_of(g, ans.witness).bit_count() >= ans.value


class TestBoundedCoverage:
    def test_triangle_steps(self, triangle):
        assert bounded_coverage_graph(triangle, 3, 2).decision
        assert not bounded_coverage_graph(triangle, 3, 1).decision

    def test_negative_k_rejected(self, triangle):
        with pytest.raises(MOutOfRangeError):
            bounded_coverage_graph(triangle, 1, -1)

    def test_agreement_with_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            g = random_graph(rng)
            for m in range(min(3, len(g.ap)) + 1):
                for k in range(7):
                    assert (
                        bounded_coverage_graph(g, m, k).decision
                        == oracle.brute_force_graph(g, m, k)
                    )

    def test_exhaustive_two_vertex_family(self):
        # every total two-vertex graph over a two-proposition universe
        import itertools

        ap = ("p0", "p1")
        rows = [(0,), (1,), (0, 1)]
        for r0, r1, l0, l1, init in itertools.product(
            rows, rows, range(4), range(4), range(2)
        ):
            g = LabeledGraph(ap, ("v0", "v1"), (r0, r1), (l0, l1), init)
            for m in range(3):
                assert (
                    max_coverage_graph(g, m).decision
                    == oracle.brute_force_graph(g, m)
                )
                for k in range(5):
                    assert (
                        bounded_coverage_graph(g, m, k).decision
                        == oracle.brute_force_graph(g, m, k)
                    )


class TestWitnessDiscipline:
    def test_witnesses_check_and_respect_bounds(self):
        rng = random.Random(29)
        for _ in range(150):
            g = random_graph(rng)
            for m in range(min(3, len(g.ap)) + 1):
                ans = max_coverage_graph(g, m)
                if ans.decision:
                    assert path_check(g, ans.witness)
                    assert cover_of(g, ans.witness).bit_count() >= m
                    assert len(ans.witness) - 1 <= m * g.n
                k = rng.randint(0, 6)
                bans = bounded_coverage_graph(g, m, k)
                if bans.decision:
                    assert path_check(g, bans.witness)
                    assert cover_of(g, bans.witness).bit_count() >= m
                    assert len(bans.witness) - 1 <= k

    def test_deterministic_witnesses(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng)
            m = min(2, len(g.ap))
            assert max_coverage_graph(g, m) == max_coverage_graph(g, m)


class TestMonotonicity:
    def test_in_m_and_k(self):
        rng = random.Random(37)
        for _ in range(60):
            g = random_graph(rng)
            top = min(3, len(g.ap))
            decisions = [max_coverage_graph(g, m).decision for m in range(top + 1)]
            for lo, hi in zip(decisions, decisions[1:]):
                assert lo or not hi  # yes at m implies yes below
            m = rng.randint(0, top)
            bounded = [bounded_coverage_graph(g, m, k).decision for k in range(7)]
            for lo, hi in zip(bounded, bounded[1:]):
                assert hi or not lo  # yes at k implies yes above
            if any(bounded):
                assert max_coverage_graph(g, m).decision

    def test_saturation(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_graph(rng)
            m = rng.randint(0, min(3, len(g.ap)))
            assert (
                bounded_coverage_graph(g, m, m * g.n).decision
                == max_coverage_graph(g, m).decision
            )


class TestRecurrence:
    def test_triangle_recurrent(self, triangle):
        assert is_controllably_recurrent_graph(triangle) == (True, None)

    def test_branch_not_recurrent(self, branch_graph):
        ok, stray = is_controllably_recurrent_graph(branch_graph)
        assert not ok
        assert stray == branch_graph.id_of["t"]

    def test_unreachable_scc_is_ignored(self):
        g = LabeledGraph.make(
            ["p", "q"],
            [("a", ["p"]), ("b", []), ("x", ["q"]), ("y", [])],
            [("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")],
            "a",
        )
        assert is_controllably_recurrent_graph(g) == (True, None)

    def test_fast_path_examples(self, triangle):
        assert max_coverage_recurrent_graph(triangle) == 3
        one = LabeledGraph.make(["p"], [("v", ["p"])], [("v", "v")], "v")
        assert max_coverage_recurrent_graph(one) == 1

    def test_fast_path_refuses_non_recurrent(self, branch_graph):
        with pytest.raises(NotRecurrentError):
            max_coverage_recurrent_graph(branch_graph)

    def test_fast_path_equals_value(self):
        rng = random.Random(43)
        for _ in range(80):
            g = random_strongly_connected_graph(rng)
            assert max_coverage_recurrent_graph(g) == coverage_value_graph(g).value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), connected=st.booleans())
def test_recurrence_matches_reachability(seed, connected):
    """Verdict, stray and fast-path value against forward and backward
    reachability from the oracle, and against the all-tester game."""
    rng = random.Random(seed)
    g = random_strongly_connected_graph(rng) if connected else random_graph(rng, 8, 4)
    back = [[] for _ in range(g.n)]
    for v, u in g.edges():
        back[u].append(v)
    fwd = oracle._reach(g.succ, g.initial)
    stray = min(fwd - oracle._reach(back, g.initial), default=None)
    want = (stray is None, stray)
    game = LabeledGameGraph(g.ap, g.names, g.succ, g.labels, g.initial, (PLAYER1,) * g.n)
    assert is_controllably_recurrent_graph(g) == want
    assert is_controllably_recurrent_game(game) == want
    assert is_controllably_recurrent_game(g) == want
    if stray is None:
        assert max_coverage_recurrent_graph(g) == oracle._union(g, fwd).bit_count()
    else:
        with pytest.raises(NotRecurrentError, match=re.escape(repr(g.names[stray]))):
            max_coverage_recurrent_graph(g)
