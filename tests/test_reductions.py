"""Gadget generators cross-validated against the brute-force oracles."""

import random
import sys

import pytest

from covgame import (
    CnfFormula,
    Digraph,
    EmptyEdgeSetError,
    FormatError,
    QbfFormula,
    UndirectedGraph,
    bounded_coverage_graph,
    coverage_value_game,
    coverage_value_graph,
    formats,
    hampath_to_bounded,
    is_controllably_recurrent_game,
    max_coverage_game,
    oracle,
    parse_dimacs,
    parse_edge_list,
    parse_qdimacs,
    qbf_to_game,
    sat_to_graph,
    validate,
    vc_to_game,
)
from covgame import reductions
from genmodels import random_cnf, random_digraph, random_qbf, random_undirected


class TestSatGadget:
    def test_two_variable_example(self):
        phi = CnfFormula.of(2, [(1, 2), (-1, -2)])
        res = sat_to_graph(phi)
        assert res.model.n == 7  # x1, x2, terminal, and four chain vertices
        assert res.target_m == 3
        assert coverage_value_graph(res.model).value == oracle.maxsat_brute(phi) + 1

    def test_complementary_units(self):
        phi = CnfFormula.of(1, [(1,), (-1,)])
        res = sat_to_graph(phi)
        assert coverage_value_graph(res.model).value == 2  # maxsat 1 + 1

    def test_vertex_count_formula(self):
        rng = random.Random(7)
        for _ in range(60):
            phi = random_cnf(rng)
            res = sat_to_graph(phi)
            # count distinct (variable, polarity, clause) chain vertices directly
            chain = sum(
                len({i for i, cl in enumerate(phi.clauses) if v in cl})
                + len({i for i, cl in enumerate(phi.clauses) if -v in cl})
                for v in range(1, phi.num_vars + 1)
            )
            assert res.model.n == (phi.num_vars + 1) + chain

    def test_unused_variables_are_linear(self):
        # 20,000 variable vertices, the terminal and one chain vertex; an
        # empty chain is one edge, so the build runs a bounded number of
        # lines per variable
        phi = parse_dimacs("p cnf 20000 1\n1 0\n")
        res, lines = lines_run(sat_to_graph, phi)
        assert res.model.n == 20_002
        assert res.model.succ[res.model.id_of["x20000"]] == (res.model.id_of["x_end"],)
        assert coverage_value_graph(res.model).value == 2
        assert lines < 40 * phi.num_vars

    def test_gadgets_validate_and_match_maxsat(self):
        rng = random.Random(11)
        for _ in range(120):
            phi = random_cnf(rng)
            res = sat_to_graph(phi)
            assert validate(res.model).ok
            assert (
                coverage_value_graph(res.model).value
                == oracle.maxsat_brute(phi) + 1
            )

    def test_satisfiable_iff_target_reached(self):
        rng = random.Random(13)
        for _ in range(60):
            phi = random_cnf(rng, max_vars=4, max_clauses=5)
            res = sat_to_graph(phi)
            satisfiable = oracle.maxsat_brute(phi) == len(phi.clauses)
            decided = coverage_value_graph(res.model).value >= res.target_m
            assert satisfiable == decided


def lines_run(fn, *args):
    """fn(*args) and the number of lines run in covgame.reductions
    meanwhile: a count of the work that does not depend on the machine."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename == reductions.__file__ else None

    sys.settrace(enter)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
    return out, lines


class TestQbfGadget:
    def test_spec_examples(self):
        trivially_true = QbfFormula.of([("e", 1)], CnfFormula.of(1, [(1,), (1,)]))
        res = qbf_to_game(trivially_true)
        assert coverage_value_game(res.model).value >= res.target_m

        forall_false = QbfFormula.of([("a", 1)], CnfFormula.of(1, [(1,)]))
        res = qbf_to_game(forall_false)
        assert coverage_value_game(res.model).value < res.target_m

        mixed = QbfFormula.of(
            [("e", 1), ("a", 2)], CnfFormula.of(2, [(1, 2), (1, -2)])
        )
        res = qbf_to_game(mixed)
        assert max_coverage_game(res.model, res.target_m).decision

    def test_truth_matches_game(self):
        rng = random.Random(17)
        for _ in range(80):
            phi = random_qbf(rng)
            res = qbf_to_game(phi)
            assert validate(res.model).ok
            assert (
                oracle.qbf_eval_brute(phi)
                == max_coverage_game(res.model, res.target_m).decision
            )

    def test_owner_assignment(self):
        phi = QbfFormula.of(
            [("e", 1), ("a", 2)], CnfFormula.of(2, [(1, -2), (-1, 2)])
        )
        g = qbf_to_game(phi).model
        assert g.owner[g.id_of["x1"]] == 1
        assert g.owner[g.id_of["x2"]] == 2
        assert g.owner[g.id_of["x_end"]] == 2
        for v in range(g.n):
            if "_t_" in g.names[v] or "_f_" in g.names[v]:
                assert g.owner[v] == 1

    def test_closing_the_loop_breaks_game_recurrence_only(self):
        # wiring the terminal back to the first variable makes the
        # underlying graph strongly connected, but the system owns the
        # terminal and never takes that edge, so the tester still cannot
        # force a return
        from covgame import (
            LabeledGameGraph,
            LabeledGraph,
            is_controllably_recurrent_graph,
        )

        phi = QbfFormula.of(
            [("e", 1), ("a", 2)], CnfFormula.of(2, [(1, -2), (-1, 2)])
        )
        g = qbf_to_game(phi).model
        succ = list(g.succ)
        end = g.id_of["x_end"]
        succ[end] = tuple(sorted(set(succ[end]) | {g.id_of["x1"]}))
        looped = LabeledGameGraph(
            g.ap, g.names, tuple(succ), g.labels, g.initial, g.owner
        )
        underlying = LabeledGraph(g.ap, g.names, tuple(succ), g.labels, g.initial)
        assert is_controllably_recurrent_graph(underlying)[0]
        ok, stray = is_controllably_recurrent_game(looped)
        assert not ok
        assert stray is not None  # everything funnels into the held terminal


class TestVertexCoverGadget:
    def test_known_graphs(self):
        from covgame import min_cover_end_component

        k3 = UndirectedGraph(("u", "v", "w"), (("u", "v"), ("v", "w"), ("u", "w")))
        res = vc_to_game(k3)
        assert coverage_value_game(res.model).value == 3  # min cover 2
        assert is_controllably_recurrent_game(res.model)[0]
        assert min_cover_end_component(res.model)[1] == 3

        single = UndirectedGraph(("u", "v"), (("u", "v"),))
        assert coverage_value_game(vc_to_game(single).model).value == 2

        star = UndirectedGraph(
            ("c", "l1", "l2", "l3"), (("c", "l1"), ("c", "l2"), ("c", "l3"))
        )
        assert coverage_value_game(vc_to_game(star).model).value == 2

    def test_empty_edges_rejected(self):
        with pytest.raises(EmptyEdgeSetError):
            vc_to_game(UndirectedGraph(("u",), ()))

    def test_random_graphs_match_brute_cover(self):
        rng = random.Random(19)
        for _ in range(40):
            h = random_undirected(rng)
            res = vc_to_game(h)
            assert validate(res.model).ok
            assert is_controllably_recurrent_game(res.model)[0]
            assert (
                coverage_value_game(res.model).value
                == oracle.min_vertex_cover_brute(h) + 1
            )

    def test_isolated_vertices_recorded(self):
        h = UndirectedGraph(("a", "b", "c"), (("a", "b"),))
        res = vc_to_game(h)
        assert res.metadata["isolated"] == ["c"]


class TestHampathGadget:
    def test_path_graph(self):
        h = Digraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        res = hampath_to_bounded(h, "a")
        assert (res.target_m, res.k) == (3, 2)
        assert bounded_coverage_graph(res.model, res.target_m, res.k).decision

    def test_fork_has_no_hampath(self):
        h = Digraph(("a", "b", "c"), (("a", "b"), ("a", "c")))
        res = hampath_to_bounded(h, "a")
        assert not bounded_coverage_graph(res.model, res.target_m, res.k).decision
        assert set(res.metadata["patched_sinks"]) == {"b", "c"}

    def test_bidirected_triangle(self):
        pairs = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")]
        h = Digraph(("a", "b", "c"), tuple(pairs))
        for start in "abc":
            res = hampath_to_bounded(h, start)
            assert bounded_coverage_graph(res.model, res.target_m, res.k).decision

    def test_random_digraphs_match_brute(self):
        rng = random.Random(23)
        for _ in range(60):
            h = random_digraph(rng)
            start = h.vertices[rng.randrange(len(h.vertices))]
            res = hampath_to_bounded(h, start)
            assert validate(res.model).ok
            assert (
                bounded_coverage_graph(res.model, res.target_m, res.k).decision
                == oracle.hampath_brute(h, start)
            )

    def test_unknown_start_rejected(self):
        with pytest.raises(FormatError):
            hampath_to_bounded(Digraph(("a",), ()), "z")


class TestGadgetInterchange:
    def test_outputs_parse_back(self):
        phi = CnfFormula.of(2, [(1, 2), (-1, -2)])
        res = sat_to_graph(phi)
        obj = res.to_obj()
        assert obj["metadata"]["reduction"] == "sat"
        assert formats.parse_obj(obj) == res.model


class TestParsers:
    def test_dimacs(self):
        phi = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
        assert phi == CnfFormula.of(3, [(1, -2), (2, 3)])

    def test_dimacs_without_preamble(self):
        phi = parse_dimacs("1 -2 0 2 0")
        assert phi.num_vars == 2
        assert phi.clauses == ((1, -2), (2,))

    def test_dimacs_rejects_empty_clause(self):
        with pytest.raises(FormatError):
            parse_dimacs("p cnf 1 1\n0\n")

    def test_qdimacs(self):
        phi = parse_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n")
        assert phi.prefix == (("e", 1), ("a", 2))
        assert phi.matrix.clauses == ((1, 2), (-1, -2))

    def test_qdimacs_free_variables_outermost(self):
        phi = parse_qdimacs("p cnf 2 1\na 2 0\n1 2 0\n")
        assert phi.prefix == (("e", 1), ("a", 2))

    def test_edge_list(self):
        h = parse_edge_list("a b\nb c # chord\nlonely\n", directed=False)
        assert h.vertices == ("a", "b", "c", "lonely")
        assert h.edges == (("a", "b"), ("b", "c"))
        with pytest.raises(FormatError):
            parse_edge_list("a b c\n", directed=True)
