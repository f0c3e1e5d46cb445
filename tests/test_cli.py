"""Command-line front end: exit codes, output schemas, and pipelines."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from covgame import (
    LabeledGameGraph,
    LabeledGraph,
    SystemAutomaton,
    bounded_coverage_game,
    bounded_coverage_graph,
    coverage_value_game,
    coverage_value_graph,
    formats,
    is_controllably_recurrent_game,
    max_coverage_game,
    max_coverage_graph,
)
from covgame.cli import _parser, main
from genmodels import wide_games

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEMO_MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_model(tmp_path, model, name="model.cov"):
    return write(tmp_path, formats.dumps(model), name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def triangle_file(tmp_path, triangle):
    return write_model(tmp_path, triangle, "triangle.cov")


@pytest.fixture
def game_file(tmp_path, adversarial_game):
    return write_model(tmp_path, adversarial_game, "game.cov")


class TestSolve:
    def test_yes_and_witness(self, capsys, triangle_file):
        code, out = run_cli(capsys, "solve", triangle_file, "--m", "3")
        assert code == 0
        assert "a -> b -> c" in out

    def test_no_exit_one(self, capsys, game_file):
        code, out = run_cli(capsys, "solve", game_file, "--m", "2")
        assert code == 1
        assert "no" in out

    def test_value_query(self, capsys, triangle_file):
        code, out = run_cli(capsys, "solve", triangle_file, "--value", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3
        assert payload["witness"]["kind"] == "path"

    def test_game_strategy_payload(self, capsys, game_file):
        code, out = run_cli(capsys, "solve", game_file, "--m", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["kind"] == "strategy"

    def test_missing_m_is_usage_error(self, capsys, triangle_file):
        code = main(["solve", triangle_file])
        assert code == 2

    def test_invalid_model_exit_two(self, capsys, tmp_path):
        g = LabeledGraph.make(["p"], [("a", []), ("s", [])], [("a", "s")], "a")
        path = write_model(tmp_path, g)
        assert main(["solve", path, "--m", "1"]) == 2

    def test_patch_self_loops_recorded(self, capsys, tmp_path):
        g = LabeledGraph.make(["p"], [("a", []), ("s", ["p"])], [("a", "s")], "a")
        path = write_model(tmp_path, g)
        witness = write(tmp_path, json.dumps({"kind": "path", "m": 1, "vertices": ["a", "s"]}),
                        "witness.json")
        # from s the play never gets back to a, so only recurrent answers NO
        for argv, expected in (
            (["solve", path, "--m", "1"], 0),
            (["bounded", path, "--m", "1", "--k", "1"], 0),
            (["recurrent", path], 1),
            (["verify", path, "--m", "1"], 0),
            (["certify", path, "--witness", witness], 0),
        ):
            code, out = run_cli(capsys, *argv, "--patch-self-loops", "--json")
            assert code == expected, argv
            assert json.loads(out)["patched"] == ["s"], argv
        # a system whose state r has no transition
        sys_model = SystemAutomaton.make(
            ["p"], ["q", "r"], ["a"], [("q", "a", "r")], "q", {"r": ["p"]}
        )
        path = write_model(tmp_path, sys_model, "system.cov")
        code, out = run_cli(capsys, "compile", path, "--patch-self-loops")
        assert code == 0 and json.loads(out)["patched"] == ["r"]
        assert isinstance(formats.loads(out), LabeledGameGraph)
        code, out = run_cli(capsys, "export-dot", path, "--patch-self-loops")
        assert code == 0 and out.startswith("digraph")
        assert "  // patched: r" in out.splitlines()

    def test_system_input_compiles(self, capsys, tmp_path):
        sys_model = SystemAutomaton.make(
            ["p"], ["q"], ["a"], [("q", "a", "q")], "q", {"q": ["p"]}
        )
        path = write_model(tmp_path, sys_model)
        code, out = run_cli(capsys, "solve", path, "--m", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "game" and payload["compiled"]

    def test_no_certificate_on_recurrent_game(self, capsys, tmp_path):
        # a spare proposition makes m=4 a legal but unattainable target
        g = LabeledGameGraph.make_game(
            ["p", "q", "r", "zz"],
            [("a", ["p"], 1), ("b", ["q"], 1), ("c", ["r"], 1)],
            [("a", "b"), ("b", "c"), ("c", "a")],
            "a",
        )
        path = write_model(tmp_path, g)
        code, out = run_cli(capsys, "solve", path, "--m", "4", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["certificate"]["kind"] == "end-component"
        assert sorted(payload["certificate"]["vertices"]) == ["a", "b", "c"]


class TestBounded:
    def test_exit_codes(self, capsys, triangle_file):
        assert main(["bounded", triangle_file, "--m", "3", "--k", "2"]) == 0
        capsys.readouterr()
        assert main(["bounded", triangle_file, "--m", "3", "--k", "1"]) == 1

    def test_game_value_reported(self, capsys, game_file):
        code, out = run_cli(
            capsys, "bounded", game_file, "--m", "1", "--k", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["value"] == 1


class TestRecurrent:
    def test_recurrent_graph_gets_fast_value(self, capsys, triangle_file):
        code, out = run_cli(capsys, "recurrent", triangle_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["recurrent"] and payload["value"] == 3

    def test_non_recurrent_game(self, capsys, game_file):
        code, out = run_cli(capsys, "recurrent", game_file, "--json")
        assert code == 1
        assert json.loads(out)["counterexample"] == "a"


class TestCompileAndDot:
    def test_compile_round_trips(self, capsys, tmp_path):
        sys_model = SystemAutomaton.make(
            ["p", "q"],
            ["q0", "q1"],
            ["a"],
            [("q0", "a", "q1"), ("q1", "a", "q0")],
            "q0",
            {"q0": ["p"], "q1": ["q"]},
        )
        path = write_model(tmp_path, sys_model)
        code, out = run_cli(capsys, "compile", path)
        assert code == 0
        game = formats.loads(out)
        assert isinstance(game, LabeledGameGraph)
        assert game.n == 4

    def test_compile_rejects_graph(self, capsys, triangle_file):
        assert main(["compile", triangle_file]) == 2

    def test_export_dot(self, capsys, game_file):
        code, out = run_cli(capsys, "export-dot", game_file)
        assert code == 0
        assert out.startswith("digraph") and "diamond" in out

    def test_patch_note_stays_one_comment_line(self, capsys, tmp_path):
        sys_model = SystemAutomaton.make(
            ["p"], ["q", "r\n}"], ["a"], [("q", "a", "r\n}")], "q", {"q": ["p"]}
        )
        path = write_model(tmp_path, sys_model)
        code, out = run_cli(capsys, "export-dot", path, "--patch-self-loops")
        assert code == 0
        assert out.splitlines()[1] == "  // patched: r\\n}"


class TestGadget:
    def test_sat_gadget_solves(self, capsys, tmp_path):
        dimacs = write(tmp_path, "p cnf 2 2\n1 2 0\n-1 -2 0\n", "phi.cnf")
        code, out = run_cli(capsys, "gadget", "sat", dimacs)
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["reduction"] == "sat"
        model_path = write(tmp_path, out, "gadget.cov")
        code, out = run_cli(capsys, "solve", model_path, "--value", "--json")
        assert json.loads(out)["value"] == 3

    def test_hampath_start_flag(self, capsys, tmp_path):
        edges = write(tmp_path, "a b\nb c\n", "h.edges")
        code, out = run_cli(capsys, "gadget", "hampath", edges, "--start", "b")
        payload = json.loads(out)
        assert payload["metadata"]["start"] == "b"
        assert payload["metadata"]["k"] == 2

    def test_pipe_through_shell(self, tmp_path):
        edges = write(tmp_path, "u v\nv w\nu w\n", "k3.edges")
        env = dict(os.environ, PYTHONPATH=SRC)
        pipeline = (
            f"{sys.executable} -m covgame.cli gadget vc {edges} | "
            f"{sys.executable} -m covgame.cli solve - --value --json"
        )
        proc = subprocess.run(
            pipeline, shell=True, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == 3


class TestClosedPipe:
    """A reader that stops early (`covgame ... | head`) must not make the
    CLI print a traceback; each command still returns its own code."""

    N = 6000  # enough output to overflow any pipe buffer

    def run_closed(self, argv, code):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "covgame.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == code, err
        assert "Traceback" not in err and "BrokenPipe" not in err, err

    def test_every_writer(self, tmp_path):
        names = [f"v{i}" for i in range(self.N)]
        cycle = LabeledGraph.make(
            ["p"], [(v, ["p"] if v == names[-1] else []) for v in names],
            zip(names, names[1:] + names[:1]), names[0],
        )
        graph = write_model(tmp_path, cycle, "cycle.cov")
        system = write_model(tmp_path, SystemAutomaton.make(
            ["p"], names, ["a"], zip(names, ["a"] * self.N, names[1:] + names[:1]),
            names[0], {names[-1]: ["p"]},
        ), "system.cov")
        k = 300  # the gadget's output grows with |AP| = clauses + 1 per vertex
        cnf = write(tmp_path, f"p cnf {k} {k}\n" + "".join(
            f"{i} -{i % k + 1} 0\n" for i in range(1, k + 1)), "big.cnf")
        self.run_closed(["solve", graph, "--value", "--json"], 0)
        self.run_closed(["solve", graph, "--value"], 0)
        self.run_closed(["export-dot", graph], 0)
        self.run_closed(["compile", system], 0)
        self.run_closed(["gadget", "sat", cnf], 0)


class TestCertify:
    def test_path_witness_from_solve_output(self, capsys, tmp_path, triangle_file):
        _, out = run_cli(capsys, "solve", triangle_file, "--m", "3", "--json")
        witness = write(tmp_path, out, "witness.json")
        assert main(["certify", triangle_file, "--witness", witness]) == 0

    def test_tampered_path_rejected(self, capsys, tmp_path, triangle_file):
        _, out = run_cli(capsys, "solve", triangle_file, "--m", "3", "--json")
        payload = json.loads(out)
        payload["witness"]["vertices"] = ["a", "c"]  # not an edge
        witness = write(tmp_path, json.dumps(payload), "bad.json")
        assert main(["certify", triangle_file, "--witness", witness]) == 1

    def test_path_through_a_system_choice_rejected(self, tmp_path):
        # the system picks the branch at probe, so this path proves
        # nothing: solve --m 3 says NO with an end-component certificate
        witness = {"kind": "path", "m": 3,
                   "vertices": ["home", "probe", "l", "home", "probe", "r"]}
        path = write(tmp_path, json.dumps(witness), "witness.json")
        model = str(DEMO_MODELS / "handshake.game.cov")
        assert main(["certify", model, "--witness", path]) == 1

    def test_path_through_a_forced_game(self, tmp_path):
        # a deterministic system compiles to a game in which each
        # system vertex has one successor, so its paths are plays
        system = {"ap": ["ready", "sent"], "states": ["q0", "q1"], "alphabet": ["a", "b"],
                  "transitions": [["q0", "a", "q1"], ["q0", "b", "q0"],
                                  ["q1", "a", "q1"], ["q1", "b", "q0"]],
                  "initial": "q0", "labels": {"q0": ["ready"], "q1": ["sent"]}}
        model = write(tmp_path, json.dumps(system), "det.system.cov")
        witness = {"kind": "path", "m": 2, "vertices": ["q0", "(q0,a)", "q1"]}
        path = write(tmp_path, json.dumps(witness), "witness.json")
        assert main(["certify", model, "--witness", path]) == 0

    def test_strategy_witness(self, capsys, tmp_path, game_file):
        _, out = run_cli(capsys, "solve", game_file, "--m", "1", "--json")
        witness = write(tmp_path, out, "strategy.json")
        assert main(["certify", game_file, "--witness", witness]) == 0

    def test_bounded_answers_certify(self, capsys, tmp_path, triangle_file, game_file):
        _, out = run_cli(capsys, "bounded", triangle_file, "--m", "3", "--k", "2", "--json")
        witness = write(tmp_path, out, "bounded_path.json")
        assert main(["certify", triangle_file, "--witness", witness]) == 0
        capsys.readouterr()
        _, out = run_cli(capsys, "bounded", game_file, "--m", "1", "--k", "2", "--json")
        witness = write(tmp_path, out, "bounded_strategy.json")
        assert main(["certify", game_file, "--witness", witness]) == 0

    def test_bounded_path_within_its_budget(self, capsys, tmp_path):
        model = str(DEMO_MODELS / "triangle.cov")
        _, out = run_cli(capsys, "bounded", model, "--m", "3", "--k", "2", "--json")
        payload = json.loads(out)
        assert payload["witness"]["budget"] == 2
        witness = write(tmp_path, out, "witness.json")
        assert main(["certify", model, "--witness", witness]) == 0
        capsys.readouterr()
        # a b c a b c a b c is a path covering all three, in 8 steps
        payload["witness"]["vertices"] *= 3
        witness = write(tmp_path, json.dumps(payload), "long.json")
        assert main(["certify", model, "--witness", witness]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_end_component_certificate(self, capsys, tmp_path):
        g = LabeledGameGraph.make_game(
            ["p", "q", "r", "zz"],
            [("a", ["p"], 1), ("b", ["q"], 1), ("c", ["r"], 1)],
            [("a", "b"), ("b", "c"), ("c", "a")],
            "a",
        )
        path = write_model(tmp_path, g)
        _, out = run_cli(capsys, "solve", path, "--m", "4", "--json")
        witness = write(tmp_path, out, "cert.json")
        assert main(["certify", path, "--witness", witness]) == 0
        # the same component does not certify a smaller target
        assert main(["certify", path, "--witness", witness, "--m", "3"]) == 1

    def test_end_component_certificate_on_large_game(self, capsys, tmp_path):
        # controllably recurrent by construction: every tester vertex can
        # go home, and the system only moves to tester vertices or home
        rng = random.Random(2008)
        n = 240
        names = [f"v{i}" for i in range(n)]
        ap = ["p", "q", "r", "s", "zz"]
        vertices = [("v0", [], 1)] + [
            (names[i], rng.sample(ap[:4], rng.randint(0, 1)), 2 - i % 2)
            for i in range(1, n)
        ]
        edges = [("v0", names[i]) for i in range(1, n, 2)]
        for i in range(1, n):
            targets = rng.sample(range(1, n, 2), 3)
            if i % 2 == 1:
                targets.append(0)
            edges += [(names[i], names[j]) for j in sorted(set(targets))]
        g = LabeledGameGraph.make_game(ap, vertices, edges, "v0")
        assert is_controllably_recurrent_game(g)[0]
        path = write_model(tmp_path, g)
        _, out = run_cli(capsys, "solve", path, "--value", "--json")
        m = json.loads(out)["value"] + 1
        code, out = run_cli(capsys, "solve", path, "--m", str(m), "--json")
        assert code == 1
        assert json.loads(out)["certificate"]["kind"] == "end-component"
        witness = write(tmp_path, out, "cert.json")
        assert main(["certify", path, "--witness", witness]) == 0

    @pytest.mark.parametrize("name", ["two", "cycle"])
    def test_end_component_certificate_on_wide_game(self, capsys, tmp_path, name):
        # 29 of 30 propositions on one end component: NO at m = 30, with a
        # certificate found in a few dozen passes, not 2^29
        path = write_model(tmp_path, wide_games(30, 29)[name])
        code, out = run_cli(capsys, "solve", path, "--m", "30", "--json")
        assert code == 1
        assert json.loads(out)["certificate"]["kind"] == "end-component"
        witness = write(tmp_path, out, "cert.json")
        assert main(["certify", path, "--witness", witness]) == 0


STRATEGY_GAME = {
    "ap": ["p"],
    "initial": "v0",
    "edges": [["v0", "v0"]],
    "vertices": [{"id": "v0", "props": ["p"], "owner": 1}],
}


class TestMalformedInputs:
    """Malformed input is a usage error: exit 2 and one `error:` line."""

    @staticmethod
    def assert_usage_error(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "reduction, text",
        [
            ("sat", "p cnf x 2\n1 2 0\n"),
            ("qbf", "p cnf 2 1\ne 1 x 0\n1 2 0\n"),
        ],
    )
    def test_non_integer_dimacs_token(self, capsys, tmp_path, reduction, text):
        path = write(tmp_path, text, "phi.txt")
        self.assert_usage_error(capsys, ["gadget", reduction, path])

    @pytest.mark.parametrize(
        "witness",
        [
            {"kind": "strategy", "m": 1, "entries": [{"vertex": "v0"}]},
            {"kind": "strategy", "m": 1,
             "entries": [{"vertex": "zz", "covered": [], "choose": "v0"}]},
            {"kind": "strategy", "m": 1, "budget": 2,
             "entries": [{"vertex": "v0", "covered": [], "choose": "v0", "remaining": 1},
                         {"vertex": "v0", "covered": [], "choose": "v0", "remaining": 2}]},
            {"kind": "strategy", "m": 1,
             "entries": [{"vertex": "v0", "covered": "p", "choose": "v0"}]},
            {"kind": "end-component", "m": "x", "vertices": ["v0"]},
            {"kind": "strategy", "m": 1,
             "entries": [{"vertex": ["v0"], "covered": [], "choose": "v0"}]},
            {"kind": "strategy", "m": 1, "budget": -1, "entries": []},
        ],
        ids=["missing-keys", "unknown-vertex", "repeated-budgeted-key",
             "covered-not-a-list", "string-m", "vertex-not-a-name",
             "negative-budget"],
    )
    def test_malformed_witness(self, capsys, tmp_path, witness):
        game = write(tmp_path, json.dumps(STRATEGY_GAME), "game.cov")
        path = write(tmp_path, json.dumps(witness), "witness.json")
        self.assert_usage_error(capsys, ["certify", game, "--witness", path])

    def test_truncated_witness(self, capsys, tmp_path):
        game = write(tmp_path, json.dumps(STRATEGY_GAME), "game.cov")
        witness = json.dumps({"kind": "path", "m": 1, "vertices": ["v0"]})
        path = write(tmp_path, witness[:-4], "witness.json")
        self.assert_usage_error(capsys, ["certify", game, "--witness", path])

    @pytest.mark.parametrize("first", [True, False], ids=["bad-first", "bad-last"])
    def test_repeated_strategy_key(self, capsys, tmp_path, first):
        # a second move for (home, {idle}) makes the strategy ambiguous,
        # whichever of the two entries comes first
        model = str(DEMO_MODELS / "handshake.game.cov")
        assert main(["solve", model, "--m", "2", "--json"]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        bad = {"vertex": "home", "covered": ["idle"], "choose": "home"}
        witness["entries"].insert(0 if first else len(witness["entries"]), bad)
        path = write(tmp_path, json.dumps(witness), "witness.json")
        self.assert_usage_error(capsys, ["certify", model, "--witness", path])

    @pytest.mark.parametrize(
        "witness",
        [
            {"kind": "path", "m": 1, "vertices": "ab"},
            {"kind": "end-component", "m": 3, "vertices": "ab"},
        ],
        ids=["path", "end-component"],
    )
    def test_witness_vertices_string(self, capsys, tmp_path, witness):
        # "ab" must not be read as the vertex sequence a, b
        game = {
            "ap": ["p", "q"],
            "initial": "a",
            "edges": [["a", "b"], ["b", "a"]],
            "vertices": [{"id": "a", "props": ["p"], "owner": 1},
                         {"id": "b", "props": ["q"], "owner": 1}],
        }
        model = write(tmp_path, json.dumps(game), "game.cov")
        path = write(tmp_path, json.dumps(witness), "witness.json")
        self.assert_usage_error(capsys, ["certify", model, "--witness", path])

    @pytest.mark.parametrize(
        "model",
        [
            {"ap": [], "initial": "a", "vertices": [{"id": "a"}],
             "edges": [["a", ["a"]]]},
            {"states": ["q"], "alphabet": ["x"], "initial": "q",
             "transitions": [["q", "x", ["q"]]]},
        ],
        ids=["list-edge-endpoint", "list-transition-state"],
    )
    def test_unhashable_model_component(self, capsys, tmp_path, model):
        path = write(tmp_path, json.dumps(model), "model.cov")
        self.assert_usage_error(capsys, ["solve", path, "--m", "0"])

    @pytest.mark.parametrize(
        "model",
        [
            {"vertices": 5, "initial": "a"},
            {"states": ["q"], "alphabet": ["x"], "initial": "q", "transitions": 5},
        ],
        ids=["vertices-not-a-list", "transitions-not-a-list"],
    )
    def test_model_field_not_a_list(self, capsys, tmp_path, model):
        path = write(tmp_path, json.dumps(model), "model.cov")
        self.assert_usage_error(capsys, ["solve", path, "--m", "1"])

    def test_value_with_m(self, capsys, tmp_path):
        path = write(tmp_path, json.dumps(STRATEGY_GAME), "game.cov")
        self.assert_usage_error(capsys, ["solve", path, "--value", "--m", "1"])

    def test_bool_owner(self, capsys, tmp_path):
        obj = json.loads(json.dumps(STRATEGY_GAME))
        obj["vertices"][0]["owner"] = True
        path = write(tmp_path, json.dumps(obj), "game.cov")
        self.assert_usage_error(capsys, ["solve", path, "--m", "1"])

    @pytest.mark.parametrize("budget", [-1, "2", True], ids=["negative", "string", "bool"])
    def test_path_budget_not_a_count(self, capsys, tmp_path, budget):
        witness = {"kind": "path", "m": 3, "budget": budget, "vertices": ["a", "b", "c"]}
        path = write(tmp_path, json.dumps(witness), "witness.json")
        model = str(DEMO_MODELS / "triangle.cov")
        self.assert_usage_error(capsys, ["certify", model, "--witness", path])

    @pytest.mark.parametrize(
        "model, witness",
        [
            ("triangle.cov", {"kind": "path", "vertices": ["a"]}),
            ("handshake.game.cov", {"kind": "strategy", "entries": []}),
            ("handshake.game.cov", {"kind": "end-component", "vertices": ["home"]}),
        ],
        ids=["path", "strategy", "end-component"],
    )
    @pytest.mark.parametrize("m", ["-1", "9"])
    def test_certify_m_out_of_range(self, capsys, tmp_path, model, witness, m):
        path = write(tmp_path, json.dumps(witness), "witness.json")
        model = str(DEMO_MODELS / model)
        self.assert_usage_error(capsys, ["certify", model, "--witness", path, "--m", m])

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{bad}", "--m", "1"],
            ["certify", "{triangle}", "--witness", "{bad}"],
            ["gadget", "sat", "{bad}"],
        ],
        ids=["solve", "certify", "gadget"],
    )
    @pytest.mark.parametrize(
        "data", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "deep-json"]
    )
    def test_undecodable_input(self, capsys, tmp_path, argv, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        names = {"bad": str(bad), "triangle": str(DEMO_MODELS / "triangle.cov")}
        self.assert_usage_error(capsys, [a.format(**names) for a in argv])


class TestVerify:
    def test_oracle_agrees_with_solver(self, capsys, triangle_file):
        assert main(["verify", triangle_file, "--m", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", triangle_file, "--m", "3", "--k", "1"]) == 1

    def test_long_path_exceeds_budget(self, capsys, tmp_path):
        # one oracle recursion per step: a 3,000-step path is too deep
        n = 3000
        g = LabeledGraph.make(
            ["p", "q"],
            [(f"v{i}", ["p"] if i == n - 1 else []) for i in range(n)],
            [(f"v{i}", f"v{min(i + 1, n - 1)}") for i in range(n)],
            "v0",
        )
        path = write_model(tmp_path, g)
        assert main(["verify", path, "--m", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestBudgetExceeded:
    """Inputs that would take memory beyond any answer's need: exit 3
    and one `error:` line, before anything large is built. A strategy's
    step budget is not one: its check visits each (v, b) state once."""

    @staticmethod
    def assert_budget_error(capsys, argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_strategy_budget_past_the_bounded_depth(self, capsys, tmp_path):
        # a budget far past |V| * (|AP| + 1) = 4 steps is checked like any
        # other: the empty strategy loses to the system's self-loop at s
        game = {
            "ap": ["p"],
            "initial": "s",
            "edges": [["s", "s"], ["s", "t"], ["t", "s"]],
            "vertices": [{"id": "s", "props": [], "owner": 2},
                         {"id": "t", "props": ["p"], "owner": 1}],
        }
        witness = {"kind": "strategy", "budget": 100_000_000, "entries": [], "m": 1}
        model = write(tmp_path, json.dumps(game), "game.cov")
        path = write(tmp_path, json.dumps(witness), "witness.json")
        assert main(["certify", model, "--witness", path]) == 1
        assert "witness INVALID" in capsys.readouterr().out

    def test_large_budget_on_a_winning_strategy(self, capsys, tmp_path):
        model = str(DEMO_MODELS / "handshake.game.cov")
        _, out = run_cli(capsys, "bounded", model, "--m", "2", "--k", "5", "--json")
        payload = json.loads(out)
        payload["witness"]["budget"] = 100_000_000
        path = write(tmp_path, json.dumps(payload), "witness.json")
        assert main(["certify", model, "--witness", path]) == 0
        assert "witness valid" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "reduction, text",
        [
            ("sat", "p cnf 999999999 1\n1 0\n"),
            ("sat", "999999999 0\n"),
            ("qbf", "p cnf 999999999 1\ne 1 0\n1 0\n"),
            ("qbf", "a 999999999 0\n1 0\n"),
        ],
        ids=["declared", "inferred", "qbf-free-variables", "qbf-inferred"],
    )
    def test_dimacs_variable_count_past_the_cap(self, capsys, tmp_path, reduction, text):
        path = write(tmp_path, text, "phi.txt")
        self.assert_budget_error(capsys, ["gadget", reduction, path])


class TestOneWayToAsk:
    """Every yes answer carries its witness: no keyword or flag drops it."""

    @pytest.mark.parametrize(
        "solver",
        [max_coverage_game, coverage_value_game, bounded_coverage_game,
         max_coverage_graph, bounded_coverage_graph, coverage_value_graph],
        ids=lambda f: f.__name__,
    )
    def test_no_switch_drops_the_witness(self, solver):
        params = inspect.signature(solver).parameters
        assert not [p for p in params if p.startswith("want_")]

    def test_low_memory_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(DEMO_MODELS / "triangle.cov"), "--m", "1", "--low-memory"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --low-memory" in capsys.readouterr().err

    def test_cli_uses_only_public_solver_names(self):
        tree = ast.parse(Path(SRC, "covgame", "cli.py").read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("game_cover", "graph_cover")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


class TestDeterminism:
    def test_json_output_is_stable(self, capsys, triangle_file, game_file):
        for argv in (
            ["solve", triangle_file, "--m", "2", "--json"],
            ["solve", game_file, "--m", "1", "--json"],
            ["bounded", triangle_file, "--m", "3", "--k", "2", "--json"],
        ):
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second

    def test_calls_share_no_state(self, capsys, triangle_file, game_file):
        # the parser is built once per process; no call may leak into the next
        calls = [
            ["solve", game_file, "--m", "1", "--json"],
            ["solve", game_file, "--m", "1"],
            ["solve", triangle_file, "--m", "2"],
            ["solve", triangle_file, "--value"],
            ["bounded", triangle_file, "--m", "3", "--k", "2", "--json"],
            ["recurrent", game_file],
            ["solve", triangle_file, "--value", "--json"],
        ]
        alone = []
        for argv in calls:
            _parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        assert [run_cli(capsys, *argv) for argv in calls] == alone
