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
from covgame.reductions import _Normalized, _normalize
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
            # restrict to formulas the gadget takes verbatim
            pos = {v: 0 for v in range(1, phi.num_vars + 1)}
            neg = {v: 0 for v in range(1, phi.num_vars + 1)}
            for clause in phi.clauses:
                for lit in clause:
                    (pos if lit > 0 else neg)[abs(lit)] += 1
            if not all(pos[v] and neg[v] for v in pos):
                continue
            res = sat_to_graph(phi)
            # count distinct (variable, polarity, clause) chain vertices directly
            chain = sum(
                len({i for i, cl in enumerate(phi.clauses) if v in cl})
                + len({i for i, cl in enumerate(phi.clauses) if -v in cl})
                for v in pos
            )
            assert res.model.n == (phi.num_vars + 1) + chain

    def test_normalization_offset(self):
        # x2 occurs only positively: forced true, its clauses credited up front
        phi = CnfFormula.of(2, [(1, 2), (-1,), (2,)])
        res = sat_to_graph(phi)
        assert res.metadata["offset"] == 3
        assert res.metadata["trivial"]
        assert coverage_value_graph(res.model).value == oracle.maxsat_brute(phi) + 1

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


def rescan_normalize(prefix, clauses) -> _Normalized:
    """The earlier elimination, kept as the reference: it rescans every
    clause and variable after each elimination, so it is quadratic.

    Existential variables take the helpful polarity: their clauses are
    removed and counted as satisfied. Universal variables take the
    hostile polarity: their literals are struck, and a clause struck
    empty falsifies the whole formula. Scanning is left to right, so the
    result is deterministic.
    """
    live = {i: list(cl) for i, cl in enumerate(clauses, 1)}
    order = list(prefix)
    satisfied: list[int] = []
    forced: dict[int, bool] = {}
    contradiction = False
    while not contradiction:
        pos: dict[int, list[int]] = {var: [] for _, var in order}
        neg: dict[int, list[int]] = {var: [] for _, var in order}
        for idx, lits in live.items():
            for lit in lits:
                side = pos if lit > 0 else neg
                if abs(lit) in side:
                    side[abs(lit)].append(idx)
        pick = None
        for q, var in order:
            if not pos[var] or not neg[var]:
                pick = (q, var)
                break
        if pick is None:
            break
        q, var = pick
        order.remove(pick)
        posx, negx = sorted(set(pos[var])), sorted(set(neg[var]))
        if not posx and not negx:
            forced[var] = True  # vacuous either way
            continue
        if q == "e":
            value = bool(posx)  # pick the polarity that satisfies something
            forced[var] = value
            for idx in posx if value else negx:
                del live[idx]
                satisfied.append(idx)
        else:
            value = not posx  # the adversary satisfies nothing
            forced[var] = value
            struck = -var if value else var
            for idx in negx if value else posx:
                live[idx] = [lit for lit in live[idx] if lit != struck]
                if not live[idx]:
                    contradiction = True
    return _Normalized(order, live, sorted(satisfied), forced, contradiction)


def with_unused_variables(rng, prefix, clauses):
    """The same matrix with extra declared variables that no clause
    uses, slotted into the prefix at random places."""
    n = len(prefix)
    extra = rng.randint(1, 6)
    prefix = list(prefix)
    for var in range(n + 1, n + extra + 1):
        prefix.insert(rng.randint(0, len(prefix)), (rng.choice("ea"), var))
    return prefix, clauses


class TestNormalization:
    def test_matches_the_rescanning_elimination(self):
        rng = random.Random(41)
        for trial in range(1500):
            if trial % 2:
                phi = random_qbf(rng, 6, 8)
                prefix, clauses = list(phi.prefix), phi.matrix.clauses
            else:
                phi = random_cnf(rng, 6, 8)
                prefix = [("e", var) for var in range(1, phi.num_vars + 1)]
                clauses = phi.clauses
            if rng.random() < 0.7:
                prefix, clauses = with_unused_variables(rng, prefix, clauses)
            assert _normalize(prefix, clauses) == rescan_normalize(prefix, clauses)

    def test_contradiction_stops_before_later_variables(self):
        # x1 is universal and one-sided: striking it empties clause 1, so
        # the vacuous x3 and the one-sided x2 after it stay in the prefix
        prefix = [("a", 1), ("e", 2), ("e", 3)]
        clauses = ((1,), (2, 1))
        norm = _normalize(prefix, clauses)
        assert norm.contradiction and norm.order == [("e", 2), ("e", 3)]
        assert norm == rescan_normalize(prefix, clauses)

    def test_unused_variables_are_linear(self):
        # rescanning the prefix after each elimination would run about
        # n^2 / 2 lines; the linear elimination runs about 15 per variable
        n = 3000
        norm, lines = lines_run(_normalize, [("e", var) for var in range(1, n + 1)], ((1,),))
        assert norm.satisfied == [1] and norm.forced[n] is True
        assert lines < 40 * n
        res = sat_to_graph(parse_dimacs("p cnf 20000 1\n1 0\n"))
        assert res.metadata["eliminated"]["x20000"] is True


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
