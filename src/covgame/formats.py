"""Interchange parsing, rendering, and DOT export.

The interchange format is JSON. Graphs and games carry `ap`, `vertices`
(objects with `id`, `props`, and for games `owner`), `edges`, `initial`;
systems carry `states`, `alphabet`, `transitions`, `initial`, `labels`,
and optionally `ap`. Unknown top-level keys (such as the `metadata`
block emitted by gadget generators) are ignored on parse.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError
from .model import (
    PLAYER1,
    PLAYER2,
    LabeledGameGraph,
    LabeledGraph,
    SystemAutomaton,
    _is_int,
    compile_system,
    mask_names,
)


def sniff_kind(obj: dict) -> str:
    """Infer the model kind from the fields present."""
    if "states" in obj:
        return "system"
    vertices = obj.get("vertices")
    if isinstance(vertices, list) and any(
        isinstance(v, dict) and "owner" in v for v in vertices
    ):
        return "game"
    return "graph"


def parse_obj(obj: Any):
    """Build a model from a decoded interchange object."""
    if not isinstance(obj, dict):
        raise FormatError("model must be a JSON object")
    kind = sniff_kind(obj)
    if kind == "system":
        return _parse_system(obj)
    return _parse_graph(obj, game=kind == "game")


def _prop_list(value, where: str) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise FormatError(f"{where}: props must be a list of names")
    return value


def _collect_ap(obj: dict, prop_lists) -> list[str]:
    ap = obj.get("ap")
    if ap is not None:
        if not isinstance(ap, list) or not all(isinstance(p, str) for p in ap):
            raise FormatError("ap must be a list of proposition names")
        if len(set(ap)) != len(ap):
            raise FormatError("duplicate proposition in ap")
        return ap
    return list(dict.fromkeys(p for props in prop_lists for p in props))


def _parse_graph(obj: dict, game: bool):
    raw = obj.get("vertices")
    if not isinstance(raw, list) or not raw:
        raise FormatError("model needs a non-empty vertices list")
    entries = []
    for item in raw:
        if not isinstance(item, dict) or "id" not in item:
            raise FormatError("each vertex needs an id")
        name = item["id"]
        if not isinstance(name, str):
            raise FormatError("vertex ids must be strings")
        props = _prop_list(item.get("props"), f"vertex {name}")
        owner = item.get("owner")
        if owner is not None and not (_is_int(owner) and owner in (PLAYER1, PLAYER2)):
            raise FormatError(f"vertex {name}: owner must be 1 or 2")
        entries.append((name, props, owner))
    ap = _collect_ap(obj, (props for _, props, _ in entries))
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError("edges must be a list of [src, dst] pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise FormatError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    initial = obj.get("initial")
    if not isinstance(initial, str):
        raise FormatError("initial must name a vertex")
    if game:
        return LabeledGameGraph.make_game(ap, entries, pairs, initial)
    return LabeledGraph.make(ap, [(n, p) for n, p, _ in entries], pairs, initial)


def _parse_system(obj: dict) -> SystemAutomaton:
    states = obj.get("states")
    alphabet = obj.get("alphabet")
    if not isinstance(states, list) or not states:
        raise FormatError("system needs a non-empty states list")
    if not isinstance(alphabet, list):
        raise FormatError("system needs an alphabet list")
    labels = obj.get("labels", {})
    if not isinstance(labels, dict):
        raise FormatError("system labels must map states to prop lists")
    label_map = {q: _prop_list(props, f"state {q}") for q, props in labels.items()}
    ap = _collect_ap(obj, label_map.values())
    transitions = obj.get("transitions", [])
    if not isinstance(transitions, list):
        raise FormatError("transitions must be a list of [state, letter, state] triples")
    trios = []
    for t in transitions:
        if not (isinstance(t, (list, tuple)) and len(t) == 3):
            raise FormatError(f"bad transition entry {t!r}")
        trios.append((t[0], t[1], t[2]))
    initial = obj.get("initial")
    if not isinstance(initial, str):
        raise FormatError("initial must name a state")
    return SystemAutomaton.make(ap, states, alphabet, trios, initial, label_map)


def render_obj(model) -> dict:
    """Canonical interchange object; parse_obj(render_obj(m)) == m."""
    if isinstance(model, SystemAutomaton):
        return {
            "ap": list(model.ap),
            "states": list(model.states),
            "alphabet": list(model.alphabet),
            "transitions": [
                [model.states[q], model.alphabet[a], model.states[r]]
                for q, a, r in model.transitions
            ],
            "initial": model.states[model.initial],
            "labels": {
                q: list(mask_names(model.ap, model.labels[i]))
                for i, q in enumerate(model.states)
            },
        }
    vertices = []
    for v in range(model.n):
        entry: dict[str, Any] = {
            "id": model.names[v],
            "props": list(model.label_names(v)),
        }
        if isinstance(model, LabeledGameGraph):
            entry["owner"] = model.owner[v]
        vertices.append(entry)
    return {
        "ap": list(model.ap),
        "vertices": vertices,
        "edges": [[model.names[v], model.names[u]] for v, u in model.edges()],
        "initial": model.names[model.initial],
    }


def decode(text: str) -> Any:
    """Decoded JSON; malformed text raises FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None


def loads(text: str):
    return parse_obj(decode(text))


def dumps(model) -> str:
    return json.dumps(render_obj(model), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(*parts: str) -> str:
    """One DOT string of `parts`, escaped and joined by the `\\n` escape."""
    return '"%s"' % "\\n".join(p.replace("\\", "\\\\").replace('"', '\\"') for p in parts)


def to_dot(model) -> str:
    """Graphviz text: box = player 1, diamond = player 2, plain ellipse
    for graphs; labels show the vertex name with its props as a suffix.
    Systems are compiled to their tester/system game first."""
    if isinstance(model, SystemAutomaton):
        model = compile_system(model)
    start, names = "__initial__", set(model.names)
    while start in names:
        start += "'"
    lines = ["digraph coverage_model {", "  rankdir=LR;"]
    lines.append(f'  {_dot_quote(start)} [shape=point, label=""];')
    lines.append(f"  {_dot_quote(start)} -> {_dot_quote(model.names[model.initial])};")
    for v in range(model.n):
        props = ",".join(model.label_names(v))
        text = _dot_quote(model.names[v], *([f"{{{props}}}"] if props else []))
        shape = "ellipse"
        if isinstance(model, LabeledGameGraph):
            shape = "box" if model.owner[v] == PLAYER1 else "diamond"
        lines.append(f"  {_dot_quote(model.names[v])} [shape={shape}, label={text}];")
    for v, u in model.edges():
        lines.append(f"  {_dot_quote(model.names[v])} -> {_dot_quote(model.names[u])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
