"""Labeled graphs, labeled game graphs, and input-driven systems.

Vertices and atomic propositions are referred to by string name at the
boundary and by dense integer id internally; input order fixes the id
assignment, so witnesses are reproducible. A proposition set is a bit
mask over the ordered universe, which keeps products over 2^AP cheap and
makes their memory cost explicit.

All model types are immutable after construction and safe to share
between concurrent solver calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import (
    FormatError,
    InvalidModelError,
    MOutOfRangeError,
    NotDeterministicError,
)

PLAYER1 = 1
PLAYER2 = 2

# Everything downstream of the product construction is exponential in
# |AP|; the cap keeps that blow-up a conscious decision.
DEFAULT_AP_CAP = 30


def mask_names(ap: Sequence[str], mask: int) -> tuple[str, ...]:
    """Proposition names selected by a bit mask, in universe order."""
    return tuple(ap[i] for i in range(len(ap)) if mask >> i & 1)


def names_mask(ap: Sequence[str], props: Iterable[str]) -> int:
    """Bit mask for a collection of proposition names."""
    return _masker(ap)(props)


def _masker(ap: Sequence[str]):
    """names_mask over `ap` with the name -> bit index built once, for
    callers that mask one collection per vertex, state or entry."""
    bit = {name: 1 << i for i, name in enumerate(ap)}

    def mask(props: Iterable[str]) -> int:
        out = 0
        for name in props:
            try:
                out |= bit[name]
            except KeyError:
                raise FormatError(f"unknown proposition {name!r}") from None
        return out

    return mask


def _is_int(x) -> bool:
    """An int that is not a bool: JSON's true decodes to one."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate()."""

    kind: str
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def has(self, kind: str, subject: str | None = None) -> bool:
        return any(
            v.kind == kind and (subject is None or v.subject == subject)
            for v in self.violations
        )

    def summary(self) -> str:
        return "ok" if self.ok else "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class LabeledGraph:
    """Finite directed graph with an initial vertex and proposition labels.

    `succ` holds ascending successor ids per vertex (also the order in
    which solvers explore them), `labels` one bit mask per vertex. Every
    vertex is expected to have at least one outgoing edge; use validate()
    to check rather than relying on construction.
    """

    ap: tuple[str, ...]
    names: tuple[str, ...]
    succ: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    initial: int

    @classmethod
    def make(
        cls,
        ap: Sequence[str],
        vertices: Sequence[tuple[str, Iterable[str]]],
        edges: Iterable[tuple[str, str]],
        initial: str,
    ) -> "LabeledGraph":
        """Build from name-based parts: vertices as (name, props) pairs."""
        names, succ, labels, init = _resolve_parts(ap, vertices, edges, initial)
        return cls(tuple(ap), names, succ, labels, init)

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def id_of(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, row in enumerate(self.succ):
            for u in row:
                yield v, u

    def edge_count(self) -> int:
        return sum(len(row) for row in self.succ)

    def label_names(self, v: int) -> tuple[str, ...]:
        return mask_names(self.ap, self.labels[v])


@dataclass(frozen=True)
class LabeledGameGraph(LabeledGraph):
    """Labeled graph whose vertices are split between the tester
    (player 1) and the system (player 2).

    `owner` holds PLAYER1 or PLAYER2 per vertex; None marks a vertex the
    input failed to assign, which validate() reports as missing-owner.
    """

    owner: tuple[int | None, ...] = ()

    @classmethod
    def make_game(
        cls,
        ap: Sequence[str],
        vertices: Sequence[tuple[str, Iterable[str], int | None]],
        edges: Iterable[tuple[str, str]],
        initial: str,
    ) -> "LabeledGameGraph":
        names, succ, labels, init = _resolve_parts(
            ap, [(name, props) for name, props, _ in vertices], edges, initial
        )
        owner = tuple(o for _, _, o in vertices)
        return cls(tuple(ap), names, succ, labels, init, owner)

    def player_vertices(self, player: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.owner[v] == player)


@dataclass(frozen=True)
class SystemAutomaton:
    """Total input-driven system: the tester picks letters, the system
    resolves the nondeterminism among enabled transitions."""

    ap: tuple[str, ...]
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, int, int], ...]  # (state, letter, state) ids
    initial: int
    labels: tuple[int, ...]

    @classmethod
    def make(
        cls,
        ap: Sequence[str],
        states: Sequence[str],
        alphabet: Sequence[str],
        transitions: Iterable[tuple[str, str, str]],
        initial: str,
        labels: dict[str, Iterable[str]],
    ) -> "SystemAutomaton":
        state_id = _index_names(states, "state")
        letter_id = _index_names(alphabet, "letter")
        trans = set()
        for q, a, r in transitions:
            trans.add((
                _name_id(state_id, q, "transition state"),
                _name_id(letter_id, a, "transition letter"),
                _name_id(state_id, r, "transition state"),
            ))
        init = _name_id(state_id, initial, "initial state")
        for name in labels:
            if name not in state_id:
                raise FormatError(f"label for unknown state {name!r}")
        mask = _masker(ap)
        label_masks = tuple(mask(labels.get(q, ())) for q in states)
        return cls(
            tuple(ap),
            tuple(states),
            tuple(alphabet),
            tuple(sorted(trans)),
            init,
            label_masks,
        )

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def delta(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Successor states per (state, letter), ascending."""
        out: dict[tuple[int, int], list[int]] = {}
        for q, a, r in self.transitions:
            out.setdefault((q, a), []).append(r)
        return {key: tuple(sorted(set(row))) for key, row in out.items()}

    @property
    def deterministic(self) -> bool:
        return all(
            len(self.delta.get((q, a), ())) == 1
            for q in range(self.n)
            for a in range(len(self.alphabet))
        )


Model = LabeledGraph | LabeledGameGraph | SystemAutomaton


def _index_names(names: Sequence[str], what: str) -> dict[str, int]:
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise FormatError(f"{what} names must be strings, not {name!r}")
        if name in index:
            raise FormatError(f"duplicate {what} {name!r}")
        index[name] = i
    return index


def _name_id(index: dict[str, int], name, what: str) -> int:
    """The id of `name`; FormatError unless it is a string in `index`
    (a name read from JSON may be any value, even an unhashable one)."""
    i = index.get(name) if isinstance(name, str) else None
    if i is None:
        raise FormatError(f"unknown {what} {name!r}")
    return i


def _resolve_parts(ap, vertices, edges, initial):
    names = tuple(name for name, _ in vertices)
    vid = _index_names(names, "vertex")
    mask = _masker(ap)
    labels = tuple(mask(props) for _, props in vertices)
    rows: list[set[int]] = [set() for _ in names]
    for src, dst in edges:
        rows[_name_id(vid, src, "edge endpoint")].add(_name_id(vid, dst, "edge endpoint"))
    init = _name_id(vid, initial, "initial vertex")
    succ = tuple(tuple(sorted(row)) for row in rows)
    return names, succ, labels, init


# ---------------------------------------------------------------------------
# validation


def validate(model: Model) -> ValidationReport:
    """Report every structural invariant violation; empty report = valid."""
    if isinstance(model, SystemAutomaton):
        return ValidationReport(tuple(_system_violations(model)))
    return ValidationReport(tuple(_graph_violations(model)))


def _graph_violations(g: LabeledGraph):
    n = g.n
    nap = len(g.ap)
    succ, labels = g.succ, g.labels
    if not 0 <= g.initial < n:
        yield Violation("bad-initial", str(g.initial))
    # every bound is checked at C speed first; the vertices are walked
    # one by one only when some bound fails, to name each culprit
    edges = [*chain.from_iterable(succ)]
    rows_ok = (
        len(succ) == len(labels) == n
        and all(succ)
        and 0 <= min(edges, default=0)
        and max(edges, default=0) < n
        and 0 <= min(labels, default=0)
        and max(labels, default=0) >> nap == 0
    )
    for v in range(0 if rows_ok else n):
        if not succ[v]:
            yield Violation("non-total", g.names[v])
        for u in succ[v]:
            if not 0 <= u < n:
                yield Violation("dangling-edge", f"{g.names[v]}->{u}")
        if labels[v] >> nap:
            yield Violation("bad-label", g.names[v])
    if isinstance(g, LabeledGameGraph):
        owner = g.owner
        if len(owner) == n and owner.count(PLAYER1) + owner.count(PLAYER2) == n:
            return
        if len(owner) != n:
            for v in range(len(owner), n):
                yield Violation("missing-owner", g.names[v])
            owner = owner[:n]
        for v, who in enumerate(owner):
            if who is None:
                yield Violation("missing-owner", g.names[v])
            elif who not in (PLAYER1, PLAYER2):
                yield Violation("bad-owner", g.names[v])


def _system_violations(sys: SystemAutomaton):
    n = sys.n
    if not sys.alphabet:
        yield Violation("empty-alphabet", "")
    if not 0 <= sys.initial < n:
        yield Violation("bad-initial", str(sys.initial))
    for q, a, r in sys.transitions:
        if not (0 <= q < n and 0 <= a < len(sys.alphabet) and 0 <= r < n):
            yield Violation("bad-transition", f"{q},{a},{r}")
    for q in range(n):
        if sys.labels[q] >> len(sys.ap):
            yield Violation("bad-label", sys.states[q])
        for a in range(len(sys.alphabet)):
            if not sys.delta.get((q, a)):
                yield Violation("non-total", f"{sys.states[q]},{sys.alphabet[a]}")


def require_valid(model: Model) -> None:
    """Raise InvalidModelError unless the model passes validation."""
    report = validate(model)
    if not report.ok:
        raise InvalidModelError(report)


def check_target(g: LabeledGraph, m: int, k: int | None = None) -> None:
    """Raise MOutOfRangeError unless 0 <= m <= |AP| and k is None or >= 0."""
    if not 0 <= m <= len(g.ap):
        raise MOutOfRangeError(f"m={m} outside 0..{len(g.ap)}")
    if k is not None and k < 0:
        raise MOutOfRangeError(f"k={k} must be >= 0")


# ---------------------------------------------------------------------------
# system-tester compilation


def compile_system(sys: SystemAutomaton) -> LabeledGameGraph:
    """Compile a system into the tester/system game.

    Player 1 vertices are the states (the tester picks the next letter),
    player 2 vertices are (state, letter) pairs (the system picks among
    the enabled successors). Both halves carry the state's labels, so
    coverage in the game matches coverage over the system's runs.
    """
    require_valid(sys)
    n = sys.n
    nletters = len(sys.alphabet)
    names = list(sys.states)
    used = set(names)
    for q in range(n):
        for a in range(nletters):
            name = f"({sys.states[q]},{sys.alphabet[a]})"
            while name in used:
                name += "'"
            names.append(name)
            used.add(name)

    def pair_id(q: int, a: int) -> int:
        return n + q * nletters + a

    succ: list[tuple[int, ...]] = [
        tuple(pair_id(q, a) for a in range(nletters)) for q in range(n)
    ]
    labels = list(sys.labels)
    owner: list[int] = [PLAYER1] * n
    for q in range(n):
        for a in range(nletters):
            succ.append(sys.delta.get((q, a), ()))
            labels.append(sys.labels[q])
            owner.append(PLAYER2)
    return LabeledGameGraph(
        sys.ap,
        tuple(names),
        tuple(succ),
        tuple(labels),
        sys.initial,
        tuple(owner),
    )


def game_to_graph(g: LabeledGameGraph) -> LabeledGraph:
    """Erase ownership from a game whose player-2 vertices are all forced.

    Raises NotDeterministicError naming the first (lowest-id) player-2
    vertex whose out-degree is not exactly one.
    """
    require_valid(g)
    for v in range(g.n):
        if g.owner[v] == PLAYER2 and len(g.succ[v]) != 1:
            raise NotDeterministicError(g.names[v])
    return LabeledGraph(g.ap, g.names, g.succ, g.labels, g.initial)


# ---------------------------------------------------------------------------
# paths


def cover_of(g: LabeledGraph, path: Sequence[int]) -> int:
    """Union of the labels along a vertex-id sequence, as a mask."""
    mask = 0
    for v in path:
        mask |= g.labels[v]
    return mask


def path_check(g: LabeledGraph, path: Sequence[int]) -> bool:
    """True iff `path` starts at the initial vertex and follows edges."""
    if not path or path[0] != g.initial:
        return False
    return all(u in g.succ[v] for v, u in zip(path, path[1:]))


def _reachable(succ: Sequence[Sequence[int]], start: int) -> list[int]:
    """Nodes reachable from `start` along `succ` rows, once each, in BFS order."""
    seen = [False] * len(succ)
    seen[start] = True
    queue = [start]
    for v in queue:
        for u in succ[v]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return queue


def _predecessors(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Predecessor rows of a successor table, in ascending source order."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, row in enumerate(succ):
        for u in row:
            pred[u].append(v)
    return pred


def path_from_names(g: LabeledGraph, names: Iterable[str]) -> tuple[int, ...]:
    return tuple(_name_id(g.id_of, name, "vertex") for name in names)


# ---------------------------------------------------------------------------
# preprocessing


def patch_self_loops(model: Model) -> tuple[Model, tuple[str, ...]]:
    """Add a self-loop wherever totality fails, returning the patched
    model and the names of the patched vertices.

    Patching changes the coverage semantics of sinks (the play may now
    stall there), so solvers never do this silently; callers opt in.
    """
    if isinstance(model, SystemAutomaton):
        extra = [
            (q, a, q)
            for q in range(model.n)
            for a in range(len(model.alphabet))
            if not model.delta.get((q, a))
        ]
        patched = tuple(sorted({model.states[q] for q, _, _ in extra}))
        fixed = replace(model, transitions=tuple(sorted({*model.transitions, *extra})))
    else:
        sinks = [v for v in range(model.n) if not model.succ[v]]
        patched = tuple(model.names[v] for v in sinks)
        fixed = replace(model, succ=tuple(row or (v,) for v, row in enumerate(model.succ)))
    return (fixed, patched) if patched else (model, ())
