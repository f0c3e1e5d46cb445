"""Hardness-reduction gadgets, usable both as instance generators and as
cross-validation targets for the solvers.

sat / qbf build the clause-chain gadget: one vertex per surviving
variable, a chain of clause-labeled vertices per truth value, and a
shared absorbing terminal; choosing a branch at a variable vertex is
choosing its assignment. vc builds the edge-choice game in which the
system names an endpoint of whichever edge the tester probes. hampath
relabels a digraph with one proposition per vertex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import BudgetExceededError, EmptyEdgeSetError, FormatError
from .formats import render_obj
from .model import PLAYER1, PLAYER2, LabeledGameGraph, LabeledGraph, patch_self_loops

# The most variables a DIMACS or QDIMACS input may declare or use: the
# gadgets and the free-variable prefix hold a few objects per variable.
DIMACS_VAR_CAP = 100_000


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; clauses are tuples of signed ints."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, num_vars, clauses) -> "CnfFormula":
        return cls(num_vars, tuple(tuple(cl) for cl in clauses))

    def check(self) -> None:
        if self.num_vars < 0:
            raise FormatError("negative variable count")
        for pos, clause in enumerate(self.clauses, 1):
            if not clause:
                raise FormatError(f"clause {pos} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise FormatError(f"clause {pos}: literal {lit} out of range")


@dataclass(frozen=True)
class QbfFormula:
    """Prenex QBF: quantifier prefix over a CNF matrix. Quantifiers are
    'e' / 'a'; the prefix must bind each matrix variable exactly once."""

    prefix: tuple[tuple[str, int], ...]
    matrix: CnfFormula

    @classmethod
    def of(cls, prefix, matrix) -> "QbfFormula":
        return cls(tuple((q, v) for q, v in prefix), matrix)

    def check(self) -> None:
        self.matrix.check()
        for q, _ in self.prefix:
            if q not in ("e", "a"):
                raise FormatError(f"unknown quantifier {q!r}")
        bound = sorted(var for _, var in self.prefix)
        if bound != list(range(1, self.matrix.num_vars + 1)):
            raise FormatError("prefix must bind exactly the matrix variables, once each")


@dataclass(frozen=True)
class UndirectedGraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Digraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class GadgetResult:
    """Generated model plus the reduction's parameters and provenance."""

    model: LabeledGraph | LabeledGameGraph
    target_m: int | None
    k: int | None
    metadata: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj = render_obj(self.model)
        meta = dict(self.metadata)
        if self.target_m is not None:
            meta["target_m"] = self.target_m
        if self.k is not None:
            meta["k"] = self.k
        obj["metadata"] = meta
        return obj


# ---------------------------------------------------------------------------
# clause-chain normalization shared by sat and qbf


@dataclass
class _Normalized:
    order: list[tuple[str, int]]  # surviving prefix, both polarities occur
    live: dict[int, list[int]]  # surviving clauses by original 1-based index
    satisfied: list[int]  # clause indices satisfied during elimination
    forced: dict[int, bool]
    contradiction: bool


def _normalize(prefix, clauses) -> _Normalized:
    """Eliminate one-sided variables to fixpoint.

    Existential variables take the helpful polarity: their clauses are
    removed and counted as satisfied. Universal variables take the
    hostile polarity: their literals are struck, and a clause struck
    empty falsifies the whole formula. Each round eliminates the first
    one-sided variable in prefix order, so the result is deterministic.

    Occurrence counts only fall, so a one-sided variable stays one: a
    heap of prefix positions yields each round's pick, and the whole
    elimination is linear in the formula up to the heap's log factor.
    """
    live = {i: list(cl) for i, cl in enumerate(clauses, 1)}
    at = {var: k for k, (_, var) in enumerate(prefix)}
    occurs: dict[int, list[int]] = {}  # literal -> clause indices, one per occurrence
    for idx, lits in live.items():
        for lit in lits:
            if abs(lit) in at:
                occurs.setdefault(lit, []).append(idx)
    count = {lit: len(ids) for lit, ids in occurs.items()}
    ready = [k for k, (_, var) in enumerate(prefix) if not count.get(var) or not count.get(-var)]
    heapq.heapify(ready)
    gone: set[int] = set()
    satisfied: list[int] = []
    forced: dict[int, bool] = {}
    contradiction = False
    while ready and not contradiction:
        k = heapq.heappop(ready)
        if k in gone:
            continue
        gone.add(k)
        q, var = prefix[k]
        posx = sorted({i for i in occurs.get(var, ()) if i in live})
        negx = sorted({i for i in occurs.get(-var, ()) if i in live})
        if not posx and not negx:
            forced[var] = True  # vacuous either way
            continue
        if q == "e":
            value = bool(posx)  # pick the polarity that satisfies something
            forced[var] = value
            for idx in posx if value else negx:
                for lit in live.pop(idx):
                    if abs(lit) in at and at[abs(lit)] not in gone:
                        count[lit] -= 1
                        if not count[lit]:
                            heapq.heappush(ready, at[abs(lit)])
                satisfied.append(idx)
        else:
            value = not posx  # the adversary satisfies nothing
            forced[var] = value
            struck = -var if value else var
            for idx in negx if value else posx:
                live[idx] = [lit for lit in live[idx] if lit != struck]
                if not live[idx]:
                    contradiction = True
    order = [entry for k, entry in enumerate(prefix) if k not in gone]
    return _Normalized(order, live, sorted(satisfied), forced, contradiction)


def _chain_model(norm: _Normalized, total_clauses: int, game: bool):
    """Assemble the chain gadget over the surviving prefix.

    The proposition universe is C1..Cm plus the variables' shared mark X.
    Clauses satisfied during normalization are credited on the entry
    vertex, so the headline coverage properties hold for the original
    formula, not the reduced one. A contradiction or an empty matrix
    collapses to the single absorbing terminal.
    """
    ap = tuple(f"C{i}" for i in range(1, total_clauses + 1)) + ("X",)
    bonus = () if norm.contradiction else tuple(f"C{i}" for i in norm.satisfied)
    if norm.contradiction or not norm.order:
        vertices = [("x_end", ("X",) + bonus, PLAYER2)]
        edges = [("x_end", "x_end")]
        initial = "x_end"
        return _assemble(ap, vertices, edges, initial, game)

    sides: dict[int, set[int]] = {}  # literal -> clauses holding it
    for i, lits in norm.live.items():
        for lit in lits:
            sides.setdefault(lit, set()).add(i)
    occurrences = {
        var: (sorted(sides.get(var, ())), sorted(sides.get(-var, ()))) for _, var in norm.order
    }

    vertices: list[tuple[str, tuple[str, ...], int]] = []
    edges: list[tuple[str, str]] = []
    var_names = [f"x{var}" for _, var in norm.order] + ["x_end"]
    for pos, (q, var) in enumerate(norm.order):
        here, after = var_names[pos], var_names[pos + 1]
        props = ("X",) + bonus if pos == 0 else ("X",)
        owner = PLAYER1 if q == "e" else PLAYER2
        vertices.append((here, props, owner))
        for tag, side in (("t", occurrences[var][0]), ("f", occurrences[var][1])):
            chain = [f"x{var}_{tag}_{i}" for i in side]
            for name, idx in zip(chain, side):
                vertices.append((name, (f"C{idx}",), PLAYER1))
            edges.append((here, chain[0]))
            edges.extend(zip(chain, chain[1:]))
            edges.append((chain[-1], after))
    vertices.append(("x_end", ("X",), PLAYER2))
    edges.append(("x_end", "x_end"))
    return _assemble(ap, vertices, edges, var_names[0], game)


def _assemble(ap, vertices, edges, initial, game):
    if game:
        return LabeledGameGraph.make_game(ap, vertices, edges, initial)
    return LabeledGraph.make(ap, [(n, p) for n, p, _ in vertices], edges, initial)


def _norm_metadata(norm: _Normalized) -> dict:
    return {
        "offset": len(norm.satisfied),
        "satisfied_by_elimination": [f"C{i}" for i in norm.satisfied],
        "eliminated": {f"x{var}": value for var, value in sorted(norm.forced.items())},
        "trivial": norm.contradiction or not norm.order,
    }


def sat_to_graph(phi: CnfFormula) -> GadgetResult:
    """Clause-chain graph whose coverage value is maxsat(phi) + 1; phi is
    satisfiable iff the value reaches target_m = clauses + 1."""
    phi.check()
    prefix = tuple(("e", var) for var in range(1, phi.num_vars + 1))
    norm = _normalize(prefix, phi.clauses)
    assert not norm.contradiction  # existential elimination never empties a clause
    model = _chain_model(norm, len(phi.clauses), game=False)
    meta = {
        "reduction": "sat",
        "variables": phi.num_vars,
        "clauses": len(phi.clauses),
        "property": "coverage value equals maxsat + 1",
    }
    meta.update(_norm_metadata(norm))
    return GadgetResult(model, len(phi.clauses) + 1, None, meta)


def qbf_to_game(phi: QbfFormula) -> GadgetResult:
    """Clause-chain game: the tester assigns existential variables, the
    system universal ones. phi is true iff the tester can force coverage
    of target_m = clauses + 1 propositions."""
    phi.check()
    norm = _normalize(phi.prefix, phi.matrix.clauses)
    model = _chain_model(norm, len(phi.matrix.clauses), game=True)
    meta = {
        "reduction": "qbf",
        "variables": phi.matrix.num_vars,
        "clauses": len(phi.matrix.clauses),
        "contradiction": norm.contradiction,
        "property": "formula true iff game coverage value >= target_m",
    }
    meta.update(_norm_metadata(norm))
    return GadgetResult(model, len(phi.matrix.clauses) + 1, None, meta)


# ---------------------------------------------------------------------------
# vertex cover


def vc_to_game(h: UndirectedGraph) -> GadgetResult:
    """Edge-choice game whose coverage value is min-vertex-cover + 1.

    The tester probes edges from the hub; the system answers with one
    endpoint; every answer returns to the hub, so the result is
    controllably recurrent. The endpoints the system is willing to show
    form a vertex cover, hence the value.
    """
    if not h.edges:
        raise EmptyEdgeSetError("vertex-cover gadget needs at least one edge")
    if "$" in h.vertices:
        raise FormatError("'$' is reserved for the gadget's hub proposition")
    ap = tuple(h.vertices) + ("$",)
    vertices: list[tuple[str, tuple[str, ...], int]] = [("vin", ("$",), PLAYER1)]
    edges: list[tuple[str, str]] = []
    for i, (a, b) in enumerate(h.edges, 1):
        vertices.append((f"e{i}", ("$",), PLAYER2))
        vertices.append((f"e{i}_1", (a,), PLAYER1))
        vertices.append((f"e{i}_2", (b,), PLAYER1))
        edges.append(("vin", f"e{i}"))
        edges.append((f"e{i}", f"e{i}_1"))
        edges.append((f"e{i}", f"e{i}_2"))
        edges.append((f"e{i}_1", "vin"))
        edges.append((f"e{i}_2", "vin"))
    model = LabeledGameGraph.make_game(ap, vertices, edges, "vin")
    touched = {v for e in h.edges for v in e}
    meta = {
        "reduction": "vertex-cover",
        "edges": len(h.edges),
        "isolated": [v for v in h.vertices if v not in touched],
        "property": "coverage value equals minimum vertex cover + 1",
    }
    return GadgetResult(model, None, None, meta)


# ---------------------------------------------------------------------------
# hamiltonian path


def hampath_to_bounded(h: Digraph, start: str) -> GadgetResult:
    """Bounded-coverage instance: one proposition per vertex, m = |V|,
    k = |V| - 1, so a yes needs |V| distinct vertices in |V| - 1 steps,
    i.e. a Hamiltonian path from `start`. Sinks get self-loops to keep
    the model total; with k = |V| - 1 the loops cannot help."""
    if not h.vertices:
        raise FormatError("hamiltonian-path gadget needs at least one vertex")
    if start not in h.vertices:
        raise FormatError(f"unknown start vertex {start!r}")
    n = len(h.vertices)
    graph = LabeledGraph.make(h.vertices, [(v, (v,)) for v in h.vertices], h.edges, start)
    model, sinks = patch_self_loops(graph)
    meta = {
        "reduction": "hampath",
        "start": start,
        "patched_sinks": list(sinks),
        "property": "bounded decision true iff a Hamiltonian path from start exists",
    }
    return GadgetResult(model, n, n - 1, meta)


# ---------------------------------------------------------------------------
# source-problem parsers


def _dimacs_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"bad {what} {tok!r}") from None


def _scan_dimacs(text: str, quantified: bool):
    """Preamble, `e`/`a` quantifier lines (QDIMACS only, before the
    first clause) and zero-terminated clauses. The variable count is the
    declared one, else the largest variable used; above DIMACS_VAR_CAP
    it raises BudgetExceededError."""
    declared = None
    prefix: list[tuple[str, int]] = []
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "c%":
            continue
        if line[0] == "p":
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise FormatError(f"bad preamble {line!r}")
            declared = _dimacs_int(parts[2], "variable count")
            continue
        if line[0] in "ea":
            if not quantified:
                raise FormatError("quantifier lines found; parse as QDIMACS instead")
            if clauses or current:
                raise FormatError("quantifier line after the first clause")
            for tok in line[1:].split():
                var = _dimacs_int(tok, "variable")
                if var == 0:
                    break
                if var < 0:
                    raise FormatError("quantifier lines take positive variables")
                prefix.append((line[0], var))
            continue
        for tok in line.split():
            lit = _dimacs_int(tok, "literal")
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    num_vars = declared
    if num_vars is None:
        used = {abs(l) for cl in clauses for l in cl} | {v for _, v in prefix}
        num_vars = max(used, default=0)
    if num_vars > DIMACS_VAR_CAP:
        raise BudgetExceededError(f"{num_vars} variables exceed the cap of {DIMACS_VAR_CAP}")
    return prefix, CnfFormula(num_vars, tuple(clauses))


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF; the preamble is optional and clause counts
    are taken from the clauses actually present."""
    _, phi = _scan_dimacs(text, quantified=False)
    phi.check()
    return phi


def parse_qdimacs(text: str) -> QbfFormula:
    """QDIMACS: `e`/`a` quantifier lines (in order) before the clauses;
    unbound variables become outermost existentials."""
    prefix, matrix = _scan_dimacs(text, quantified=True)
    bound = {var for _, var in prefix}
    free = [("e", var) for var in range(1, matrix.num_vars + 1) if var not in bound]
    phi = QbfFormula(tuple(free + prefix), matrix)
    phi.check()
    return phi


def parse_edge_list(text: str, *, directed: bool):
    """Plain edge list: one `src dst` pair per line; a line with a single
    token declares an isolated vertex; `#` starts a comment."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    seen = set()

    def note(v: str) -> None:
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) == 1:
            note(toks[0])
        elif len(toks) == 2:
            note(toks[0])
            note(toks[1])
            edges.append((toks[0], toks[1]))
        else:
            raise FormatError(f"bad edge-list line {raw!r}")
    cls = Digraph if directed else UndirectedGraph
    return cls(tuple(vertices), tuple(edges))
