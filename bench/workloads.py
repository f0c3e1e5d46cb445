"""The three benchmark workloads: seeded corpora, timed tasks and gates.

A workload builds its corpus from the seed, then hands the runner a list
of tasks. A task runs one or more queries (one public call plus the
check of its certificate; on the command line, one `cli.main` call),
timing each through the `Log`, and returns a small JSON-able answer.
`gate` re-checks the first pass's answers outside the timed region:
against the brute-force oracles on small models, against invariants
the instance family guarantees, and, for the default seed, against the
recorded expected answers.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import covgame as cg
from covgame import cli, formats, oracle

import generators as gen

clock = time.perf_counter

# Oracle calls in the gates stop at this many expansions; a model that
# needs more is reported as unchecked rather than silently passed.
ORACLE_BUDGET = 500_000


class Log:
    """Per-pass record of query times and failed checks."""

    def __init__(self):
        self.times: list[float] = []
        self.problems: list[str] = []

    @contextmanager
    def query(self):
        start = clock()
        try:
            yield
        finally:
            self.times.append(clock() - start)

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _union(g, vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= g.labels[v]
    return mask


def _witness_ok(g, path, m, k=None) -> bool:
    return (
        path is not None
        and cg.path_check(g, path)
        and cg.cover_of(g, path).bit_count() >= m
        and (k is None or len(path) - 1 <= k)
    )


def _component_value(g) -> int:
    """Coverage value of a graph from its strongly connected components,
    without the product: a path can tour every component it enters, so
    the value is the best label union along a chain of components from
    the initial vertex's."""
    reach = []
    for v in range(g.n):
        seen, todo = {v}, [v]
        for x in todo:
            for u in g.succ[x]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        reach.append(seen)
    comp = [frozenset(u for u in reach[v] if v in reach[u]) for v in range(g.n)]
    unions: dict = {}

    def chains(c):
        if c not in unions:
            own = _union(g, c)
            later = {comp[u] for v in c for u in g.succ[v]} - {c}
            unions[c] = {own} | {own | mask for d in later for mask in chains(d)}
        return unions[c]

    return max(mask.bit_count() for mask in chains(comp[g.initial]))


def _confining(g, vertices) -> bool:
    """Player 1 cannot leave the set and player 2 can always stay."""
    vs = set(vertices)
    for v in vs:
        inside = [u for u in g.succ[v] if u in vs]
        if g.owner[v] == cg.PLAYER1 and len(inside) != len(g.succ[v]):
            return False
        if not inside:
            return False
    return g.initial in vs


def _oracle_value_ok(decide, g, value) -> bool | None:
    """Does the oracle agree that `value` is exactly the coverage value?
    None when the oracle ran out of budget."""
    try:
        if not decide(g, value, budget=ORACLE_BUDGET):
            return False
        return value == len(g.ap) or not decide(g, value + 1, budget=ORACLE_BUDGET)
    except cg.BudgetExceededError:
        return None


class Workload:
    name = ""
    why = ""
    sizes: dict = {}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]
        self.workdir = workdir
        self.unchecked = 0

    def build(self) -> None:
        raise NotImplementedError

    def tasks(self) -> list:
        raise NotImplementedError

    def gate(self, answers: list) -> list[str]:
        raise NotImplementedError

    def properties(self, answers: list) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# product


class Product(Workload):
    name = "product"
    why = (
        "the (vertex, covered) product build, attractor and BFS do nearly all "
        "the work; the CLI and parsing never run"
    )
    sizes = {
        "full": {"games": 300, "game_n": 32, "game_ap": 7, "graphs": 60, "graph_n": 100, "graph_ap": 12,
                 "graph_blocks": 10, "slices": 6},
        "smoke": {"games": 4, "game_n": 12, "game_ap": 4, "graphs": 2, "graph_n": 20, "graph_ap": 5,
                  "graph_blocks": 4, "slices": 2},
    }

    def build(self):
        s = self.size
        rng = random.Random(f"product:{self.seed}")
        self.games = [gen.product_game(rng, s["game_n"], s["game_ap"]) for _ in range(s["games"])]
        self.graphs = [
            gen.product_graph(rng, s["graph_n"], s["graph_ap"], s["graph_blocks"]) for _ in range(s["graphs"])
        ]

    def tasks(self):
        return [lambda log, g=g: self._game(g, log) for g in self.games] + [
            lambda log, h=h: self._graph(h, log) for h in self.graphs
        ]

    @staticmethod
    def _game(g, log):
        with log.query():
            best = cg.coverage_value_game(g)
            if not cg.strategy_covers(g, best.strategy, best.value):
                log.fail(f"game value {best.value}: strategy does not cover")
        # a NO at value+1; at the top value a YES instead, so every game
        # contributes two queries whatever its value
        m = min(best.value + 1, len(g.ap))
        with log.query():
            decision = cg.max_coverage_game(g, m).decision
        if decision != (m == best.value):
            log.fail(f"game value {best.value}: decided {decision} at m={m}")
        return ["game", best.value, decision]

    @staticmethod
    def _graph(h, log):
        with log.query():
            best = cg.coverage_value_graph(h)
            if not _witness_ok(h, best.witness, best.value):
                log.fail(f"graph value {best.value}: witness fails path_check/cover_of")
        with log.query():
            ans = cg.max_coverage_graph(h, best.value)
            if not (ans.decision and _witness_ok(h, ans.witness, best.value)):
                log.fail(f"graph m={best.value}: no valid witness")
        # as for the games: an exhaustive NO at value+1, or a YES at |AP|
        m = min(best.value + 1, len(h.ap))
        with log.query():
            decision = cg.max_coverage_graph(h, m).decision
        if decision != (m == best.value):
            log.fail(f"graph value {best.value}: decided {decision} at m={m}")
        return ["graph", best.value, decision]

    def gate(self, answers):
        problems = []
        for g, (_, value, _) in zip(self.games, answers):
            if not _union(g, [g.initial]).bit_count() <= value <= len(g.ap):
                problems.append(f"game value {value} out of range")
        for h, (_, value, _) in zip(self.graphs, answers[len(self.games):]):
            want = _component_value(h)
            if value != want:
                problems.append(f"graph value {value}, but its components give {want}")
        rng = random.Random(f"product-oracle:{self.seed}")
        for _ in range(12):
            g = gen.small_game(rng, 6, 3)
            ok = _oracle_value_ok(oracle.brute_force_game, g, cg.coverage_value_game(g).value)
            h = gen.small_graph(rng, 6, 3)
            ok_h = _oracle_value_ok(oracle.brute_force_graph, h, cg.coverage_value_graph(h).value)
            for verdict, what in ((ok, "game"), (ok_h, "graph")):
                if verdict is None:
                    self.unchecked += 1
                elif not verdict:
                    problems.append(f"small {what}: value disagrees with the oracle")
        return problems

    def properties(self, answers):
        s = self.size
        game_values = [a[1] for a in answers[: len(self.games)]]
        graph_values = [a[1] for a in answers[len(self.games):]]
        return {
            "games": {
                "count": len(self.games),
                "V": s["game_n"],
                "E": sum(g.edge_count() for g in self.games),
                "AP": s["game_ap"],
                "values": _histogram(game_values),
                "value_gap": sum(s["game_ap"] - v for v in game_values),
            },
            "graphs": {
                "count": len(self.graphs),
                "V": s["graph_n"],
                "E": sum(h.edge_count() for h in self.graphs),
                "AP": s["graph_ap"],
                "blocks": s["graph_blocks"],
                "values": _histogram(graph_values),
                "value_gap": sum(s["graph_ap"] - v for v in graph_values),
            },
        }


def _histogram(values) -> dict:
    out: dict = {}
    for v in sorted(values):
        out[str(v)] = out.get(str(v), 0) + 1
    return out


# ---------------------------------------------------------------------------
# desk


class Desk(Workload):
    name = "desk"
    why = (
        "every game_cover/graph_cover path that builds no product: memoized "
        "bounded minimax, vertex-subset end components, linear recurrence"
    )
    sizes = {
        "full": {"cycle_n": 40_000, "bounded": 10, "bounded_n": 64, "bounded_ap": 6, "k": 20,
                 "end_components": 16, "ec_n": 15, "recurrent_n": (100_000,) + (2_000,) * 60, "slices": 8},
        "smoke": {"cycle_n": 300, "bounded": 2, "bounded_n": 12, "bounded_ap": 4, "k": 6,
                  "end_components": 2, "ec_n": 6, "recurrent_n": (500, 50, 50), "slices": 2},
    }

    def build(self):
        s = self.size
        rng = random.Random(f"desk:{self.seed}")
        self.cycle = gen.player1_cycle(rng, s["cycle_n"], 3)
        self.bounded = []
        for _ in range(s["bounded"]):
            g = gen.product_game(rng, s["bounded_n"], s["bounded_ap"])
            self.bounded.append((g, cg.LabeledGraph(g.ap, g.names, g.succ, g.labels, g.initial)))
        self.recurrent = [gen.recurrent_game(rng, s["ec_n"], 3) for _ in range(s["end_components"])]
        # one model at the ROADMAP's scale, then many mid-sized ones: their
        # linear checks cost the same on every seed and hold the query median
        self.sparse = [gen.sparse_recurrent_pair(rng, n, 8) for n in s["recurrent_n"]]

    def tasks(self):
        return (
            [self._cycle]
            + [lambda log, p=p: self._bounded(p, log) for p in self.bounded]
            + [lambda log, g=g: self._end_component(g, log) for g in self.recurrent]
            + [lambda log, p=p: self._recurrence(p, log) for p in self.sparse]
        )

    def _cycle(self, log):
        g = self.cycle
        with log.query():
            ans = cg.bounded_coverage_game(g, 3, 3 * g.n)
            if not (ans.decision and cg.strategy_covers(g, ans.strategy, 3)):
                log.fail("cycle: bounded strategy does not cover all 3 propositions")
        return ["cycle", ans.value]

    def _bounded(self, pair, log):
        g, h = pair
        nap, k = len(g.ap), self.size["k"]
        m = nap // 2
        with log.query():
            ans = cg.bounded_coverage_game(g, m, k)
            if ans.decision and not cg.strategy_covers(g, ans.strategy, m):
                log.fail(f"bounded game m={m}: strategy does not cover")
        with log.query():
            path = cg.bounded_coverage_graph(h, nap, k)
            if path.decision and not _witness_ok(h, path.witness, nap, k):
                log.fail(f"bounded graph m={nap}: witness fails its check")
        return ["bounded", ans.value, ans.decision, path.decision]

    @staticmethod
    def _end_component(g, log):
        with log.query():
            ec, count = cg.min_cover_end_component(g)
            if not cg.verify_end_component_witness(g, ec.vertices, count + 1):
                log.fail("end component fails verify_end_component_witness")
        with log.query():
            safety, confined = cg.min_safety_value(g)
            if not (_confining(g, confined) and _union(g, confined).bit_count() == safety):
                log.fail("min_safety_value set does not confine the play")
        return ["end_component", count, safety]

    @staticmethod
    def _recurrence(pair, log):
        graph, game = pair
        with log.query():
            verdict = cg.is_controllably_recurrent_graph(graph)
        with log.query():
            value = cg.max_coverage_recurrent_graph(graph)
        with log.query():
            game_verdict = cg.is_controllably_recurrent_game(game)
        if verdict != (True, None) or game_verdict != (True, None):
            log.fail("recurrent-by-construction model reported not recurrent")
        return ["recurrence", value]

    def gate(self, answers):
        problems = []
        if answers[0][1] != 3:
            problems.append(f"cycle value {answers[0][1]}, want 3")
        rest = answers[1:]
        for (g, _), (_, value, decision, _) in zip(self.bounded, rest):
            if decision != (value >= len(g.ap) // 2):
                problems.append("bounded decision disagrees with its value")
            if value > cg.coverage_value_game(g).value:
                problems.append("bounded value exceeds the unbounded game value")
        rest = rest[len(self.bounded):]
        for g, (_, count, safety) in zip(self.recurrent, rest):
            value = cg.coverage_value_game(g).value
            if not count == safety == value:
                problems.append(f"end component {count} / safety {safety} / value {value} differ")
        for (graph, _), (_, value) in zip(self.sparse, rest[len(self.recurrent):]):
            if value != _union(graph, range(graph.n)).bit_count():
                problems.append("recurrent graph value is not the label union size")
        rng = random.Random(f"desk-oracle:{self.seed}")
        for _ in range(8):
            g = gen.small_game(rng, 6, 3)
            for k in range(5):
                try:
                    want = oracle.brute_force_game(g, 2, k, budget=ORACLE_BUDGET)
                except cg.BudgetExceededError:
                    self.unchecked += 1
                    continue
                if cg.bounded_coverage_game(g, 2, k).decision != want:
                    problems.append(f"small bounded game k={k}: disagrees with the oracle")
        return problems

    def properties(self, answers):
        s = self.size
        ec = answers[1 + len(self.bounded): 1 + len(self.bounded) + len(self.recurrent)]
        return {
            "cycle": {"V": s["cycle_n"], "E": self.cycle.edge_count(), "AP": 3, "k": 3 * s["cycle_n"]},
            "bounded": {"count": len(self.bounded), "V": s["bounded_n"], "AP": s["bounded_ap"],
                        "k": s["k"], "values": _histogram([a[1] for a in answers[1:1 + len(self.bounded)]])},
            "end_components": {"count": len(self.recurrent), "V": sorted({g.n for g in self.recurrent}),
                               "AP": 3, "values": _histogram([a[1] for a in ec])},
            "recurrence": {"count": len(self.sparse), "V": sorted(set(s["recurrent_n"])),
                           "E": sum(p[0].edge_count() for p in self.sparse), "AP": 8},
        }


# ---------------------------------------------------------------------------
# cli_corpus


# The four defects listed under hardening in ROADMAP.md. Each should exit 2
# with a FormatError message; each is run on every cli_corpus run and
# reported, outside the corpus counts.
KNOWN_DEFECTS = (
    ("gadget sat on 'p cnf x 2'", "gadget", "sat", "defect_sat.cnf", "p cnf x 2\n1 2 0\n"),
    ("gadget qbf with a non-integer quantifier token", "gadget", "qbf", "defect_qbf.qdimacs",
     "p cnf 2 1\ne 1 x 0\n1 2 0\n"),
    ("certify a strategy entry missing keys", "certify", None, "defect_strategy.json",
     json.dumps({"kind": "strategy", "m": 1, "entries": [{"vertex": "v0"}]})),
    ("'owner': true accepted as player 1", "solve", None, "defect_owner.json",
     json.dumps({"ap": ["p"], "initial": "v0", "edges": [["v0", "v0"]],
                 "vertices": [{"id": "v0", "props": ["p"], "owner": True}]})),
)


class Call:
    __slots__ = ("kind", "argv", "expect", "model", "extra", "save_to", "json_out")

    def __init__(self, kind, argv, expect=(0, 1), model=None, extra=None, save_to=None, json_out=True):
        self.kind = kind
        self.argv = argv
        self.expect = expect
        self.model = model
        self.extra = extra or {}
        self.save_to = save_to
        self.json_out = json_out


class CliCorpus(Workload):
    name = "cli_corpus"
    why = (
        "the fixed cost per command-line call dominates: argparse, parse, "
        "validate and JSON emit on models too small for the product to matter"
    )
    sizes = {
        "full": {"graphs": 40, "games": 40, "recurrent": 20, "systems": 20, "sinks": 20,
                 "gadgets": 20, "malformed": 100, "subprocess": 20, "slices": 3},
        "smoke": {"graphs": 2, "games": 2, "recurrent": 2, "systems": 2, "sinks": 1,
                  "gadgets": 1, "malformed": 22, "subprocess": 2, "slices": 2},
    }

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _model_file(self, name: str, model) -> str:
        return self._write(name, formats.dumps(model))

    def build(self):
        s = self.size
        rng = random.Random(f"cli:{self.seed}")
        calls: list[Call] = []
        add = calls.append

        def solve(kind, path, model, m, **kw):
            add(Call(kind, ["solve", path, "--m", str(m), "--json"], model=model, extra={"m": m}, **kw))

        families = [("g", gen.small_graph)] * s["graphs"] + [("h", gen.small_game)] * s["games"]
        for i, (prefix, make) in enumerate(families):
            g = make(rng)
            p = self._model_file(f"{prefix}{i}.json", g)
            for m in sorted(rng.sample(range(len(g.ap) + 1), 3)):
                solve("solve", p, g, m)
            value_out = os.path.join(self.workdir, f"{prefix}{i}.value.json")
            add(Call("solve_value", ["solve", p, "--value", "--json"], model=g, save_to=value_out))
            add(Call("certify", ["certify", p, "--witness", value_out, "--json"], expect=(0,), model=g))
            k = rng.randint(0, 6)
            m = rng.randint(1, len(g.ap))
            add(Call("bounded", ["bounded", p, "--m", str(m), "--k", str(k), "--json"], model=g,
                     extra={"m": m, "k": k}))
            add(Call("recurrent", ["recurrent", p, "--json"], model=g))
            add(Call("export_dot", ["export-dot", p], expect=(0,), model=g, json_out=False))
            if i % 4:
                add(Call("verify", ["verify", p, "--m", str(m), "--k", str(k), "--json"], model=g,
                         extra={"m": m, "k": k}))

        for i in range(s["recurrent"]):
            g = gen.recurrent_game(rng, rng.randint(3, 7), rng.randint(2, 3))
            p = self._model_file(f"r{i}.json", g)
            out = os.path.join(self.workdir, f"r{i}.solve.json")
            # m = |AP| is a no on most of these, which carries an end-component certificate
            solve("solve", p, g, len(g.ap), save_to=out)
            add(Call("certify", ["certify", p, "--witness", out, "--json"], expect=(0,), model=g))
            add(Call("recurrent", ["recurrent", p, "--json"], model=g))
            add(Call("export_dot", ["export-dot", p], expect=(0,), model=g, json_out=False))

        for i in range(s["systems"]):
            sysm = gen.small_system(rng)
            p = self._model_file(f"s{i}.json", sysm)
            game = cg.compile_system(sysm)
            solve("solve", p, game, rng.randint(0, len(sysm.ap)))
            add(Call("solve_value", ["solve", p, "--value", "--json"], model=game))
            add(Call("compile", ["compile", p, "--json"], expect=(0,), model=sysm, json_out=False))
            add(Call("export_dot", ["export-dot", p], expect=(0,), model=game, json_out=False))

        for i in range(s["sinks"]):
            g = gen.small_graph(rng)
            obj = formats.render_obj(g)
            sink = g.names[(g.initial + 1) % g.n]
            obj["edges"] = [e for e in obj["edges"] if e[0] != sink]
            p = self._write(f"sink{i}.json", json.dumps(obj))
            patched, _ = cg.patch_self_loops(formats.parse_obj(obj))
            m = rng.randint(0, len(g.ap))
            add(Call("patch", ["solve", p, "--m", str(m), "--patch-self-loops", "--json"],
                     model=patched, extra={"m": m}))

        for i in range(s["gadgets"]):
            phi = gen.small_cnf(rng)
            p = self._write(f"f{i}.cnf", gen.dimacs_text(phi))
            add(Call("gadget_sat", ["gadget", "sat", p, "--json"], expect=(0,), model=phi, json_out=True))
            q = gen.small_qbf(rng)
            p = self._write(f"q{i}.qdimacs", gen.qdimacs_text(q))
            add(Call("gadget_qbf", ["gadget", "qbf", p, "--json"], expect=(0,), model=q))
            u = gen.small_undirected(rng)
            p = self._write(f"u{i}.edges", gen.edge_list_text(u))
            add(Call("gadget_vc", ["gadget", "vc", p, "--json"], expect=(0,), model=u))
            d = gen.small_digraph(rng)
            p = self._write(f"d{i}.edges", gen.edge_list_text(d))
            start = rng.choice(d.vertices)
            add(Call("gadget_hampath", ["gadget", "hampath", p, "--start", start, "--json"],
                     expect=(0,), model=d, extra={"start": start}))

        for i in range(s["malformed"]):
            add(self._malformed(rng, i))
        self.calls = calls
        self.first_out: list[str | None] = [None] * len(calls)
        self.output_bytes = 0

        self.defects = []
        game_path = self._model_file("defect_game.json", gen.small_game(rng))
        for label, command, sub, name, text in KNOWN_DEFECTS:
            p = self._write(name, text)
            if command == "gadget":
                argv = ["gadget", sub, p, "--json"]
            elif command == "certify":
                argv = ["certify", game_path, "--witness", p, "--json"]
            else:
                argv = ["solve", p, "--m", "1", "--json"]
            self.defects.append((label, argv))

    MALFORMED = (
        "invalid_json", "not_object", "no_vertices", "dangling_edge", "unknown_prop",
        "non_total", "duplicate_vertex", "bad_owner", "m_out_of_range", "missing_file",
        "compile_graph", "system_unknown_state", "dimacs_literal", "dimacs_preamble",
        "qdimacs_late_quantifier", "edge_list_three_tokens", "vc_no_edges",
        "hampath_unknown_start", "witness_unknown_kind", "witness_invalid_json",
        "negative_k", "missing_required_flag",
    )

    def _malformed(self, rng, i) -> Call:
        """One input that must be rejected with exit 2."""
        kind = self.MALFORMED[i % len(self.MALFORMED)]
        g = gen.small_graph(rng)
        obj = formats.render_obj(g)
        good = self._model_file(f"bad{i}_base.json", g)
        name = f"bad{i}"
        if kind == "invalid_json":
            argv = ["solve", self._write(name, json.dumps(obj)[:-3]), "--m", "1", "--json"]
        elif kind == "not_object":
            argv = ["solve", self._write(name, json.dumps(obj["vertices"])), "--m", "1", "--json"]
        elif kind == "no_vertices":
            obj["vertices"] = []
            argv = ["solve", self._write(name, json.dumps(obj)), "--m", "1", "--json"]
        elif kind == "dangling_edge":
            obj["edges"].append([g.names[0], "nowhere"])
            argv = ["solve", self._write(name, json.dumps(obj)), "--m", "1", "--json"]
        elif kind == "unknown_prop":
            obj["vertices"][0]["props"] = ["not_in_ap"]
            argv = ["solve", self._write(name, json.dumps(obj)), "--m", "1", "--json"]
        elif kind == "non_total":
            sink = g.names[rng.randrange(g.n)]
            obj["edges"] = [e for e in obj["edges"] if e[0] != sink]
            argv = ["solve", self._write(name, json.dumps(obj)), "--m", "1", "--json"]
        elif kind == "duplicate_vertex":
            obj["vertices"].append(dict(obj["vertices"][0]))
            argv = ["solve", self._write(name, json.dumps(obj)), "--m", "1", "--json"]
        elif kind == "bad_owner":
            for v in obj["vertices"]:
                v["owner"] = 3
            argv = ["solve", self._write(name, json.dumps(obj)), "--m", "1", "--json"]
        elif kind == "m_out_of_range":
            argv = ["solve", good, "--m", str(len(g.ap) + 1), "--json"]
        elif kind == "missing_file":
            argv = ["solve", os.path.join(self.workdir, f"{name}.absent"), "--m", "1", "--json"]
        elif kind == "compile_graph":
            argv = ["compile", good, "--json"]
        elif kind == "system_unknown_state":
            sysobj = formats.render_obj(gen.small_system(rng))
            sysobj["transitions"].append([sysobj["states"][0], sysobj["alphabet"][0], "ghost"])
            argv = ["solve", self._write(name, json.dumps(sysobj)), "--m", "0", "--json"]
        elif kind == "dimacs_literal":
            argv = ["gadget", "sat", self._write(name, "p cnf 2 1\n1 x 0\n"), "--json"]
        elif kind == "dimacs_preamble":
            argv = ["gadget", "sat", self._write(name, "p dnf 2 1\n1 2 0\n"), "--json"]
        elif kind == "qdimacs_late_quantifier":
            argv = ["gadget", "qbf", self._write(name, "p cnf 2 1\n1 2 0\ne 1 0\n"), "--json"]
        elif kind == "edge_list_three_tokens":
            argv = ["gadget", "vc", self._write(name, "a b c\n"), "--json"]
        elif kind == "vc_no_edges":
            argv = ["gadget", "vc", self._write(name, "a\nb\n"), "--json"]
        elif kind == "hampath_unknown_start":
            argv = ["gadget", "hampath", self._write(name, "a b\nb a\n"), "--start", "zz", "--json"]
        elif kind == "witness_unknown_kind":
            argv = ["certify", good, "--witness", self._write(name, '{"kind": "banana"}'), "--json"]
        elif kind == "witness_invalid_json":
            argv = ["certify", good, "--witness", self._write(name, "{"), "--json"]
        elif kind == "negative_k":
            argv = ["verify", good, "--m", "1", "--k", "-1", "--json"]
        else:
            argv = ["bounded", good, "--m", "1", "--json"]
        return Call(f"malformed:{kind}", argv, expect=(2,), json_out=False)

    # -- running ---------------------------------------------------------

    def tasks(self):
        return [lambda log, i=i: self._call(i, log) for i in range(len(self.calls))]

    def _call(self, i, log):
        call = self.calls[i]
        code, out = run_cli(call.argv, log)
        if code not in call.expect:
            log.fail(f"{call.kind} {' '.join(call.argv[:1])}: exit {code}, want {call.expect}")
        if self.first_out[i] is None:
            self.first_out[i] = out
        elif out != self.first_out[i]:
            log.fail(f"{call.kind}: output differs between passes")
        if call.save_to:
            with open(call.save_to, "w", encoding="utf-8") as fh:
                fh.write(out)
        self.output_bytes += len(out)
        if isinstance(code, str) or not call.json_out or not out:
            return [code]
        try:
            obj = json.loads(out)
        except json.JSONDecodeError:
            log.fail(f"{call.kind}: --json output is not JSON")
            return [code]
        return [code] + [obj.get(key) for key in ("decision", "value", "recurrent", "valid")]

    # -- checking --------------------------------------------------------

    def gate(self, answers):
        problems = []
        for call, answer, out in zip(self.calls, answers, self.first_out):
            if isinstance(answer[0], str) or answer[0] == 2 or call.kind.startswith("malformed"):
                continue
            try:
                verdict = self._check(call, answer, out)
            except cg.BudgetExceededError:
                self.unchecked += 1
                continue
            if verdict is None:
                self.unchecked += 1
            elif verdict is not True:
                problems.append(f"{call.kind} {call.argv[1]}: {verdict}")
        return problems

    def _check(self, call, answer, out):
        """True, None (oracle out of budget) or a reason the output is wrong."""
        kind, model = call.kind, call.model
        is_game = isinstance(model, cg.LabeledGameGraph)
        decide = oracle.brute_force_game if is_game else oracle.brute_force_graph
        if kind in ("solve", "patch"):
            m = call.extra["m"]
            obj = json.loads(out)
            if obj["decision"] != decide(model, m, budget=ORACLE_BUDGET):
                return f"decision {obj['decision']} disagrees with the oracle at m={m}"
            return _certificate_ok(model, obj, m)
        if kind == "solve_value":
            obj = json.loads(out)
            ok = _oracle_value_ok(decide, model, obj["value"])
            if ok is False:
                return f"value {obj['value']} disagrees with the oracle"
            cert = _certificate_ok(model, obj, obj["value"])
            return ok if cert is True else cert
        if kind == "bounded":
            m, k = call.extra["m"], call.extra["k"]
            obj = json.loads(out)
            if obj["decision"] != decide(model, m, k, budget=ORACLE_BUDGET):
                return f"bounded decision disagrees with the oracle at m={m}, k={k}"
            return _certificate_ok(model, obj, m)
        if kind == "verify":
            m, k = call.extra["m"], call.extra["k"]
            solver = cg.bounded_coverage_game if is_game else cg.bounded_coverage_graph
            if answer[1] != solver(model, m, k).decision:
                return "oracle decision disagrees with the bounded solver"
            return True
        if kind == "recurrent":
            want = _recurrent(model)
            if answer[3] != want:
                return f"recurrence verdict {answer[3]}, want {want}"
            if want and not is_game:
                ok = _oracle_value_ok(oracle.brute_force_graph, model, answer[2])
                return ok if ok is None else ok or f"recurrent value {answer[2]} disagrees with the oracle"
            return True
        if kind == "certify":
            return True if answer[4] is True else "certify rejected a solver witness"
        if kind == "compile":
            game = formats.loads(out)
            want = model.n * (1 + len(model.alphabet))
            return True if game.n == want else f"compiled game has {game.n} vertices, want {want}"
        if kind == "export_dot":
            missing = [n for n in model.names if f'"{n}"' not in out]
            return True if out.startswith("digraph") and not missing else "DOT output misses vertices"
        return _gadget_ok(kind, model, call.extra, formats.loads(out), json.loads(out))

    def defect_probe(self) -> list[dict]:
        """Run the known-defect inputs once each, untimed."""
        report = []
        for label, argv in self.defects:
            code, _ = run_cli(argv, Log())
            report.append({"input": label, "argv": " ".join(argv[:2]), "observed": code,
                           "want": 2, "open": code != 2})
        return report

    def properties(self, answers):
        kinds: dict = {}
        for call in self.calls:
            key = call.kind.split(":")[0]
            kinds[key] = kinds.get(key, 0) + 1
        models = [c.model for c in self.calls if isinstance(c.model, cg.LabeledGraph)]
        return {
            "calls": len(self.calls),
            "by_kind": kinds,
            "max_V": max((m.n for m in models), default=0),
            "max_AP": max((len(m.ap) for m in models), default=0),
            "malformed_share": round(kinds.get("malformed", 0) / len(self.calls), 4),
        }


def run_cli(argv, log) -> tuple:
    """One timed in-process `cli.main` call. Returns the exit code (or the
    name of an exception that escaped) and the captured standard output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err), log.query():
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # an escaping exception is a failure to report, not to crash on
        code = type(exc).__name__
    return code, out.getvalue()


def _recurrent(g) -> bool:
    """Independent recurrence check: naive fixpoint of the set from which
    the tester can force a return to the initial vertex."""
    reach, todo = {g.initial}, [g.initial]
    while todo:
        for u in g.succ[todo.pop()]:
            if u not in reach:
                reach.add(u)
                todo.append(u)
    game = isinstance(g, cg.LabeledGameGraph)
    back = {g.initial}
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in back:
                continue
            hits = [u in back for u in g.succ[v]]
            if (all(hits) if game and g.owner[v] == cg.PLAYER2 else any(hits)):
                back.add(v)
                changed = True
    return reach <= back


def _certificate_ok(model, obj, m):
    witness, cert = obj.get("witness"), obj.get("certificate")
    if witness and witness["kind"] == "path":
        if not _witness_ok(model, cg.path_from_names(model, witness["vertices"]), m):
            return "witness path fails path_check/cover_of"
    elif witness and witness["kind"] == "strategy":
        strategy = cg.TesterStrategy.from_obj(model, witness)
        if not cg.strategy_covers(model, strategy, m):
            return "strategy fails strategy_covers"
    if cert and not cg.verify_end_component_witness(
        model, cg.path_from_names(model, cert["vertices"]), m
    ):
        return "end-component certificate fails verify_end_component_witness"
    return True


def _gadget_ok(kind, source, extra, model, obj):
    meta = obj["metadata"]
    if kind == "gadget_sat":
        ok = cg.coverage_value_graph(model).value == oracle.maxsat_brute(source) + 1
    elif kind == "gadget_qbf":
        ok = (cg.coverage_value_game(model).value >= meta["target_m"]) == oracle.qbf_eval_brute(source)
    elif kind == "gadget_vc":
        ok = cg.coverage_value_game(model).value == oracle.min_vertex_cover_brute(source) + 1
    else:
        n = len(source.vertices)
        ok = cg.bounded_coverage_graph(model, n, n - 1).decision == oracle.hampath_brute(
            source, extra["start"]
        )
    return True if ok else f"{kind} model breaks its reduction property"


WORKLOADS = {w.name: w for w in (Product, Desk, CliCorpus)}
