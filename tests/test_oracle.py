"""The brute-force oracles themselves, on hand-checkable instances."""

import pytest

from covgame import (
    BudgetExceededError,
    CnfFormula,
    Digraph,
    LabeledGameGraph,
    QbfFormula,
    UndirectedGraph,
    oracle,
)


class TestGraphOracle:
    def test_triangle(self, triangle):
        assert oracle.brute_force_graph(triangle, 3, 2)
        assert not oracle.brute_force_graph(triangle, 3, 1)
        assert oracle.brute_force_graph(triangle, 0, 0)

    def test_unbounded_uses_witness_length_bound(self, branch_graph):
        assert oracle.brute_force_graph(branch_graph, 1) is True
        assert oracle.brute_force_graph(branch_graph, 2) is False

    def test_budget_aborts(self, triangle):
        with pytest.raises(BudgetExceededError):
            oracle.brute_force_graph(triangle, 3, 2, budget=1)


class TestGameOracle:
    def test_adversarial_branch(self, adversarial_game):
        assert not oracle.brute_force_game(adversarial_game, 2)
        assert oracle.brute_force_game(adversarial_game, 1)

    def test_all_player1_triangle(self, triangle_game):
        assert oracle.brute_force_game(triangle_game, 3)

    def test_budget_aborts(self, triangle_game):
        with pytest.raises(BudgetExceededError):
            oracle.brute_force_game(triangle_game, 3, budget=2)

    def test_deep_recursion_is_budget_error(self):
        # one recursion per step: a 3,000-step path is deeper than the interpreter allows
        n = 3000
        g = LabeledGameGraph.make_game(
            ["p", "q"],
            [(f"v{i}", ["p"] if i == n - 1 else [], 1) for i in range(n)],
            [(f"v{i}", f"v{min(i + 1, n - 1)}") for i in range(n)],
            "v0",
        )
        with pytest.raises(BudgetExceededError):
            oracle.brute_force_game(g, 1)

    def test_deterministic(self, adversarial_game):
        runs = {oracle.brute_force_game(adversarial_game, 2) for _ in range(3)}
        assert runs == {False}


class TestSourceProblems:
    def test_maxsat(self):
        assert oracle.maxsat_brute(CnfFormula.of(1, [(1,), (-1,)])) == 1
        assert oracle.maxsat_brute(CnfFormula.of(2, [(1, 2), (-1,), (-2,)])) == 2

    def test_qbf(self):
        assert not oracle.qbf_eval_brute(QbfFormula.of([("a", 1)], CnfFormula.of(1, [(1,)])))
        assert oracle.qbf_eval_brute(QbfFormula.of([("e", 1)], CnfFormula.of(1, [(1,)])))
        phi = QbfFormula.of(
            [("a", 1), ("e", 2)], CnfFormula.of(2, [(1, 2), (-1, -2)])
        )
        assert oracle.qbf_eval_brute(phi)  # echo the universal choice

    def test_min_vertex_cover(self):
        k3 = UndirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        assert oracle.min_vertex_cover_brute(k3) == 2
        star = UndirectedGraph(("c", "x", "y"), (("c", "x"), ("c", "y")))
        assert oracle.min_vertex_cover_brute(star) == 1
        assert oracle.min_vertex_cover_brute(UndirectedGraph(("a",), ())) == 0

    def test_hampath(self):
        line = Digraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        assert oracle.hampath_brute(line, "a")
        assert not oracle.hampath_brute(line, "b")
        assert oracle.hampath_brute(Digraph(("a",), ()), "a")


class TestEndComponentOracles:
    def test_examples(self, triangle_game, adversarial_game):
        assert oracle.min_cover_end_component_brute(triangle_game) == 3
        assert oracle.min_cover_end_component_brute(adversarial_game) is None
        assert oracle.min_safety_brute(triangle_game) == 3
        assert oracle.min_safety_brute(adversarial_game) == 1

    def test_budget_aborts(self, triangle_game):
        with pytest.raises(BudgetExceededError):
            oracle.min_cover_end_component_brute(triangle_game, budget=1)
        with pytest.raises(BudgetExceededError):
            oracle.min_safety_brute(triangle_game, budget=1)
