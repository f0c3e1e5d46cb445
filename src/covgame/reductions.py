"""Hardness-reduction gadgets, usable both as instance generators and as
cross-validation targets for the solvers.

sat / qbf build the clause-chain gadget: one vertex per variable of the
prefix, a chain of clause-labeled vertices per truth value, and a
shared absorbing terminal; choosing a branch at a variable vertex is
choosing its assignment. No preprocessing runs first. vc builds the edge-choice game in which the
system names an endpoint of whichever edge the tester probes. hampath
relabels a digraph with one proposition per vertex.
"""

from __future__ import annotations

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
# clause chains shared by sat and qbf


def _chain_model(prefix, clauses, game: bool):
    """Assemble the chain gadget over the whole prefix.

    Each variable vertex, owned by the tester for an existential and by
    the system for a universal, branches into a true chain and a false
    chain: the clause vertices holding that literal, in clause order,
    ending at the next variable vertex (the last at the absorbing
    terminal). A literal that occurs in no clause gives an empty chain,
    one edge straight to the next variable. The proposition universe is
    C1..Cm plus the variables' shared mark X.
    """
    ap = tuple(f"C{i}" for i in range(1, len(clauses) + 1)) + ("X",)
    holders: dict[int, list[int]] = {}  # literal -> clauses holding it
    for i, lits in enumerate(clauses, 1):
        for lit in dict.fromkeys(lits):
            holders.setdefault(lit, []).append(i)

    vertices: list[tuple[str, tuple[str, ...], int]] = []
    edges: list[tuple[str, str]] = []
    var_names = [f"x{var}" for _, var in prefix] + ["x_end"]
    for (q, var), here, after in zip(prefix, var_names, var_names[1:]):
        vertices.append((here, ("X",), PLAYER1 if q == "e" else PLAYER2))
        for tag, lit in (("t", var), ("f", -var)):
            chain = [here]
            for i in holders.get(lit, ()):
                chain.append(f"x{var}_{tag}_{i}")
                vertices.append((chain[-1], (f"C{i}",), PLAYER1))
            edges.extend(zip(chain, chain[1:] + [after]))
    vertices.append(("x_end", ("X",), PLAYER2))
    edges.append(("x_end", "x_end"))
    if game:
        return LabeledGameGraph.make_game(ap, vertices, edges, var_names[0])
    return LabeledGraph.make(ap, [(n, p) for n, p, _ in vertices], edges, var_names[0])


def sat_to_graph(phi: CnfFormula) -> GadgetResult:
    """Clause-chain graph whose coverage value is maxsat(phi) + 1; phi is
    satisfiable iff the value reaches target_m = clauses + 1."""
    phi.check()
    prefix = [("e", var) for var in range(1, phi.num_vars + 1)]
    meta = {
        "reduction": "sat",
        "variables": phi.num_vars,
        "clauses": len(phi.clauses),
        "property": "coverage value equals maxsat + 1",
    }
    model = _chain_model(prefix, phi.clauses, game=False)
    return GadgetResult(model, len(phi.clauses) + 1, None, meta)


def qbf_to_game(phi: QbfFormula) -> GadgetResult:
    """Clause-chain game: the tester assigns existential variables, the
    system universal ones. phi is true iff the tester can force coverage
    of target_m = clauses + 1 propositions."""
    phi.check()
    meta = {
        "reduction": "qbf",
        "variables": phi.matrix.num_vars,
        "clauses": len(phi.matrix.clauses),
        "property": "formula true iff game coverage value >= target_m",
    }
    model = _chain_model(phi.prefix, phi.matrix.clauses, game=True)
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
