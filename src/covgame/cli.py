"""Command-line front end.

Exit codes: 0 = decision true / success, 1 = decision false, 2 = usage
or validation error, 3 = search budget exceeded. `-` reads the model
from standard input; machine-readable output under --json is stable
across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import formats, oracle
from .errors import BudgetExceededError, CoverageError, FormatError, NotRecurrentError
from .game_cover import (
    GameAnswer,
    TesterStrategy,
    bounded_coverage_game,
    coverage_value_game,
    is_controllably_recurrent_game,
    max_coverage_game,
    min_cover_end_component,
    strategy_covers,
    verify_end_component_witness,
)
from .graph_cover import (
    bounded_coverage_graph,
    coverage_value_graph,
    max_coverage_graph,
    max_coverage_recurrent_graph,
)
from .model import (
    PLAYER1,
    LabeledGameGraph,
    SystemAutomaton,
    _is_int,
    check_target,
    compile_system,
    cover_of,
    mask_names,
    patch_self_loops,
    path_check,
    path_from_names,
)
from .reductions import (
    hampath_to_bounded,
    parse_dimacs,
    parse_edge_list,
    parse_qdimacs,
    qbf_to_game,
    sat_to_graph,
    vc_to_game,
)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def _load_model(args):
    model = formats.loads(_read_text(args.model))
    patched: tuple[str, ...] = ()
    if args.patch_self_loops:
        model, patched = patch_self_loops(model)
    return model, patched


def _load_playable(args):
    """The model of solve/bounded/recurrent/certify/verify, with a system
    compiled to its game, and the output header recording what was done."""
    model, patched = _load_model(args)
    out: dict = {"command": args.subcommand}
    if isinstance(model, SystemAutomaton):
        model = compile_system(model)
        out["compiled"] = True
    if patched:
        out["patched"] = list(patched)
    out["kind"] = "game" if isinstance(model, LabeledGameGraph) else "graph"
    return model, out


def _write(text: str) -> None:
    """Write to stdout. When the reader has closed the pipe, stdout is
    pointed at os.devnull, so the flush at exit stays quiet, and the
    command goes on to return its own exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, obj: dict, lines: list[str]) -> None:
    if args.json:
        _write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        _write("".join(line + "\n" for line in lines))


def _witness_obj(g, ans, m: int) -> dict | None:
    """The output form of an answer's witness, a game's strategy or a
    graph's path, with the target m; None when the answer carries none."""
    if isinstance(ans, GameAnswer):
        if ans.strategy is None:
            return None
        obj = ans.strategy.to_obj(g)
    elif ans.witness is None:
        return None
    else:
        obj = {
            "kind": "path",
            "vertices": [g.names[v] for v in ans.witness],
            "covered": list(mask_names(g.ap, cover_of(g, ans.witness))),
            "steps": len(ans.witness) - 1,
        }
    obj["m"] = m
    return obj


def _ec_obj(g, ec, m: int) -> dict:
    return {
        "kind": "end-component",
        "vertices": [g.names[v] for v in ec.vertices],
        "props": list(mask_names(g.ap, ec.props)),
        "m": m,
    }


def _witness_lines(obj) -> list[str]:
    if obj is None:
        return []
    if obj["kind"] == "path":
        covered = ", ".join(obj["covered"]) or "(none)"
        return [
            "witness: " + " -> ".join(obj["vertices"]),
            f"covered: {covered} ({obj['steps']} steps)",
        ]
    if obj["kind"] == "strategy":
        lines = [f"strategy ({len(obj['entries'])} moves):"]
        for entry in obj["entries"]:
            covered = "{" + ",".join(entry["covered"]) + "}"
            lines.append(f"  at {entry['vertex']} with {covered} -> {entry['choose']}")
        return lines
    vertices = ", ".join(obj["vertices"])
    props = ", ".join(obj["props"]) or "(none)"
    return [f"no-certificate: end component {{{vertices}}} covering only {props}"]


def _no_certificate(g, m):
    """End-component certificate for a NO answer on a recurrent game,
    where the cheapest end component covers exactly the value."""
    if not isinstance(g, LabeledGameGraph) or not is_controllably_recurrent_game(g)[0]:
        return None
    ec, count = min_cover_end_component(g)
    return _ec_obj(g, ec, m) if count < m else None


def _cmd_solve(args) -> int:
    if args.value == (args.m is not None):
        raise FormatError("use --m or --value, not both" if args.value else "--m is required here")
    model, out = _load_playable(args)
    is_game = isinstance(model, LabeledGameGraph)
    if args.value:
        ans = coverage_value_game(model) if is_game else coverage_value_graph(model)
        out["value"] = ans.value
        out["witness"] = _witness_obj(model, ans, ans.value)
        _emit(args, out, [f"value: {ans.value}"] + _witness_lines(out["witness"]))
        return 0
    m = out["m"] = args.m
    ans = max_coverage_game(model, m) if is_game else max_coverage_graph(model, m)
    out["decision"] = ans.decision
    out["witness"] = _witness_obj(model, ans, m)
    out["certificate"] = None if ans.decision else _no_certificate(model, m)
    lines = [f"decision: {'yes' if ans.decision else 'no'}"]
    lines.extend(_witness_lines(out["witness"]))
    lines.extend(_witness_lines(out["certificate"]))
    _emit(args, out, lines)
    return 0 if ans.decision else 1


def _cmd_bounded(args) -> int:
    model, out = _load_playable(args)
    m = args.m
    out.update(m=m, k=args.k)
    if isinstance(model, LabeledGameGraph):
        ans = bounded_coverage_game(model, m, args.k)
    else:
        ans = bounded_coverage_graph(model, m, args.k)
    witness = _witness_obj(model, ans, m)
    if ans.value is not None:
        out["value"] = ans.value
    if witness is not None and witness["kind"] == "path":
        out["steps_used"] = witness["steps"]
        witness["budget"] = args.k
    out["decision"] = ans.decision
    out["witness"] = witness
    lines = [f"decision: {'yes' if ans.decision else 'no'}"]
    lines.extend(_witness_lines(witness))
    _emit(args, out, lines)
    return 0 if ans.decision else 1


def _cmd_recurrent(args) -> int:
    model, out = _load_playable(args)
    if isinstance(model, LabeledGameGraph):
        stray = is_controllably_recurrent_game(model)[1]
        stray = None if stray is None else model.names[stray]
    else:
        try:  # the fast path runs the one check, and names its stray
            out["value"], stray = max_coverage_recurrent_graph(model), None
        except NotRecurrentError as exc:
            stray = exc.vertex
    out["recurrent"], out["counterexample"] = stray is None, stray
    lines = [f"controllably recurrent: {'yes' if stray is None else 'no'}"]
    if stray is not None:
        lines.append(f"counterexample: {stray} cannot be forced back")
    if "value" in out:
        lines.append(f"value (component fast path): {out['value']}")
    _emit(args, out, lines)
    return 0 if stray is None else 1


def _cmd_compile(args) -> int:
    model, patched = _load_model(args)
    if not isinstance(model, SystemAutomaton):
        raise FormatError("compile expects a system model")
    obj = formats.render_obj(compile_system(model))
    if patched:
        obj["patched"] = list(patched)
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_gadget(args) -> int:
    text = _read_text(args.instance)
    if args.reduction == "sat":
        result = sat_to_graph(parse_dimacs(text))
    elif args.reduction == "qbf":
        result = qbf_to_game(parse_qdimacs(text))
    elif args.reduction == "vc":
        result = vc_to_game(parse_edge_list(text, directed=False))
    else:
        h = parse_edge_list(text, directed=True)
        start = args.start if args.start is not None else (h.vertices or ("?",))[0]
        result = hampath_to_bounded(h, start)
    _write(json.dumps(result.to_obj(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_certify(args) -> int:
    model, out = _load_playable(args)
    obj = formats.decode(_read_text(args.witness))
    if isinstance(obj, dict) and "witness" in obj and isinstance(obj["witness"], dict):
        inner = obj["witness"]
    elif isinstance(obj, dict) and "certificate" in obj and isinstance(obj["certificate"], dict):
        inner = obj["certificate"]
    else:
        inner = obj
    if not isinstance(inner, dict) or "kind" not in inner:
        raise FormatError("witness file does not contain a checkable object")
    m = args.m if args.m is not None else inner.get("m")
    if m is not None:
        if not _is_int(m):
            raise FormatError(f"witness target m={m!r} is not an integer")
        check_target(model, m)
    kind = inner["kind"]
    if kind == "path":
        path = _witness_vertices(model, inner)
        budget = inner.get("budget")
        if budget is not None and not (_is_int(budget) and budget >= 0):
            raise FormatError("path budget must be a non-negative integer")
        valid = path_check(model, path) and _forced(model, path)
        if valid and budget is not None:
            valid = len(path) - 1 <= budget
        if valid and m is not None:
            valid = cover_of(model, path).bit_count() >= m
    elif kind == "strategy":
        if not isinstance(model, LabeledGameGraph):
            raise FormatError("a strategy witness needs a game model")
        if m is None:
            raise FormatError("certifying a strategy needs --m")
        strategy = TesterStrategy.from_obj(model, inner)
        valid = strategy_covers(model, strategy, m)
    elif kind == "end-component":
        if not isinstance(model, LabeledGameGraph):
            raise FormatError("an end-component certificate needs a game model")
        if m is None:
            raise FormatError("certifying an end component needs --m")
        vertices = _witness_vertices(model, inner)
        valid = verify_end_component_witness(model, vertices, m)
    else:
        raise FormatError(f"unknown witness kind {kind!r}")
    out.update(witness_kind=kind, m=m, valid=valid)
    _emit(args, out, [f"witness {'valid' if valid else 'INVALID'}"])
    return 0 if valid else 1


def _forced(model, path) -> bool:
    """A path certifies a game only where the system cannot leave it:
    every player-2 vertex the path leaves has exactly one successor."""
    if not isinstance(model, LabeledGameGraph):
        return True
    return all(model.owner[v] == PLAYER1 or len(model.succ[v]) == 1 for v in path[:-1])


def _witness_vertices(model, inner: dict) -> tuple[int, ...]:
    """The vertex ids a path or end-component witness lists by name."""
    names = inner.get("vertices")
    if not isinstance(names, list):
        raise FormatError(f"{inner['kind']} witness: vertices must be a list of names")
    return path_from_names(model, names)


def _cmd_export_dot(args) -> int:
    model, patched = _load_model(args)
    # JSON escapes keep a name with a line break inside the comment
    names = json.dumps(", ".join(patched), ensure_ascii=False)[1:-1]
    note = f"\n  // patched: {names}" if patched else ""
    _write(formats.to_dot(model).replace("\n", note + "\n", 1))
    return 0


def _cmd_verify(args) -> int:
    model, out = _load_playable(args)
    if isinstance(model, LabeledGameGraph):
        decision = oracle.brute_force_game(model, args.m, args.k)
    else:
        decision = oracle.brute_force_graph(model, args.m, args.k)
    out.update(m=args.m, k=args.k, decision=decision)
    _emit(args, out, [f"oracle decision: {'yes' if decision else 'no'}"])
    return 0 if decision else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    shared.add_argument(
        "--patch-self-loops",
        action="store_true",
        help="add a self-loop to each sink before solving (recorded in the output)",
    )

    parser = argparse.ArgumentParser(
        prog="covgame",
        description="coverage solvers for labeled graphs and game graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", parents=[shared], help="maximal coverage")
    p.add_argument("model", help="model file in interchange format, or -")
    p.add_argument("--m", type=int, default=None, help="coverage target")
    p.add_argument("--value", action="store_true", help="compute the exact value")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounded", parents=[shared], help="coverage within k steps")
    p.add_argument("model")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_bounded)

    p = sub.add_parser("recurrent", parents=[shared], help="controllable recurrence")
    p.add_argument("model")
    p.set_defaults(func=_cmd_recurrent)

    p = sub.add_parser("compile", parents=[shared], help="system to tester/system game")
    p.add_argument("model")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("gadget", parents=[shared], help="hardness-reduction generators")
    p.add_argument("reduction", choices=("sat", "qbf", "vc", "hampath"))
    p.add_argument("instance", help="DIMACS / QDIMACS / edge-list file, or -")
    p.add_argument("--start", default=None, help="start vertex for hampath")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("certify", parents=[shared], help="re-check a witness")
    p.add_argument("model")
    p.add_argument("--witness", required=True, help="witness JSON (or a solve output)")
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("export-dot", parents=[shared], help="Graphviz export")
    p.add_argument("model")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("verify", parents=[shared], help="brute-force oracle spot check")
    p.add_argument("model")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
