"""Seeded instance generators for the covgame benchmark.

Every generator takes a `random.Random` built from the run's seed, so
the same seed always yields the same inputs. Structure is controlled
where it drives solver cost (reachability, label balance, owner split),
which keeps the work per corpus steady from seed to seed while the
instances themselves still change.
"""

from __future__ import annotations

import random

from covgame import (
    PLAYER1,
    PLAYER2,
    CnfFormula,
    Digraph,
    LabeledGameGraph,
    LabeledGraph,
    QbfFormula,
    SystemAutomaton,
    UndirectedGraph,
    is_controllably_recurrent_game,
)


def _names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _cycle_successor(rng: random.Random, n: int) -> list[int]:
    """Successor of each vertex on a shuffled Hamiltonian cycle."""
    order = list(range(n))
    rng.shuffle(order)
    nxt = [0] * n
    for i, v in enumerate(order):
        nxt[v] = order[(i + 1) % n]
    return nxt


def _cycle_with_chords(rng: random.Random, n: int, degree: int) -> list[set[int]]:
    """A shuffled Hamiltonian cycle (so every vertex reaches every other)
    plus random chords up to `degree` successors per vertex."""
    rows = [{u} for u in _cycle_successor(rng, n)]
    for row in rows:
        while len(row) < min(degree, n):
            row.add(rng.randrange(n))
    return rows


def _balanced_labels(rng: random.Random, n: int, nap: int) -> tuple[int, ...]:
    """Half of the vertices carry one proposition each, assigned round
    robin, so every proposition occurs about n / (2 |AP|) times."""
    labels = [0] * n
    for i, v in enumerate(rng.sample(range(n), n // 2)):
        labels[v] = 1 << (i % nap)
    return tuple(labels)


def product_game(rng: random.Random, n: int, nap: int, degree: int = 3) -> LabeledGameGraph:
    """Strongly connected random game with balanced labels and an exact
    half/half owner split; its value still ranges over 1..|AP|."""
    rows = _cycle_with_chords(rng, n, degree)
    owners = [PLAYER1] * (n // 2) + [PLAYER2] * (n - n // 2)
    rng.shuffle(owners)
    return LabeledGameGraph(
        _names("p", nap),
        _names("v", n),
        tuple(tuple(sorted(row)) for row in rows),
        _balanced_labels(rng, n, nap),
        rng.randrange(n),
        tuple(owners),
    )


def product_graph(
    rng: random.Random, n: int, nap: int, blocks: int, props_per_block: int = 3
) -> LabeledGraph:
    """A chain of choices between strongly connected blocks. The vertices
    are dealt into `blocks` blocks, each a shuffled cycle plus one chord
    per vertex. Every block after the first gets two edges from random
    earlier blocks, so all blocks are reachable but a path can enter only
    some of them. Half of each block's vertices carry one of the block's
    `props_per_block` propositions, so the value (the best union along a
    chain of blocks) spreads below |AP| and the searches above it are
    exhaustive NOs."""
    order = list(range(n))
    rng.shuffle(order)
    members = [order[b::blocks] for b in range(blocks)]
    rows: list[set[int]] = [set() for _ in range(n)]
    for vs in members:
        for i, v in enumerate(vs):
            rows[v].update((vs[(i + 1) % len(vs)], rng.choice(vs)))
    for j in range(1, blocks):
        for _ in range(2):
            rows[rng.choice(members[rng.randrange(j)])].add(rng.choice(members[j]))
    labels = [0] * n
    for vs in members:
        props = rng.sample(range(nap), props_per_block)
        for i, v in enumerate(rng.sample(vs, len(vs) // 2)):
            labels[v] = 1 << props[i % props_per_block]
    return LabeledGraph(
        _names("p", nap),
        _names("v", n),
        tuple(tuple(sorted(row)) for row in rows),
        tuple(labels),
        members[0][0],
    )


def player1_cycle(rng: random.Random, n: int, nap: int) -> LabeledGameGraph:
    """A single player-1 cycle with each proposition on one seeded vertex."""
    labels = [0] * n
    for p, v in enumerate(rng.sample(range(1, n), nap)):
        labels[v] = 1 << p
    return LabeledGameGraph(
        _names("p", nap),
        _names("v", n),
        tuple(((v + 1) % n,) for v in range(n)),
        tuple(labels),
        0,
        (PLAYER1,) * n,
    )


def recurrent_game(rng: random.Random, n: int, nap: int) -> LabeledGameGraph:
    """Controllably recurrent game of exactly n vertices, by rejection
    sampling random games biased with return edges to the initial vertex."""
    while True:
        rows = []
        for v in range(n):
            row = set(rng.sample(range(n), rng.randint(1, 3)))
            if v and rng.random() < 0.6:
                row.add(0)
            rows.append(tuple(sorted(row)))
        g = LabeledGameGraph(
            _names("p", nap),
            _names("v", n),
            tuple(rows),
            tuple(rng.getrandbits(nap) if rng.random() < 0.4 else 0 for _ in range(n)),
            0,
            tuple(rng.choice((PLAYER1, PLAYER2)) for _ in range(n)),
        )
        if is_controllably_recurrent_game(g)[0]:
            return g


def sparse_recurrent_pair(
    rng: random.Random, n: int, nap: int
) -> tuple[LabeledGraph, LabeledGameGraph]:
    """A large strongly connected graph (a Hamiltonian cycle plus one
    chord per vertex, 1% of vertices labeled) and a game on it whose
    player-2 vertices keep only their cycle edge. The tester can always
    follow the cycle home, so both are controllably recurrent by
    construction."""
    nxt = _cycle_successor(rng, n)
    chord = [rng.randrange(n) for _ in range(n)]
    labels = tuple(
        1 << rng.randrange(nap) if rng.random() < 0.01 else 0 for _ in range(n)
    )
    owners = tuple(rng.choice((PLAYER1, PLAYER2)) for _ in range(n))
    names = _names("v", n)
    ap = _names("p", nap)
    rows = tuple(tuple(sorted({nxt[v], chord[v]})) for v in range(n))
    game_rows = tuple(
        row if owners[v] == PLAYER1 else (nxt[v],) for v, row in enumerate(rows)
    )
    return (
        LabeledGraph(ap, names, rows, labels, 0),
        LabeledGameGraph(ap, names, game_rows, labels, 0, owners),
    )


# ---------------------------------------------------------------------------
# small models for the command-line corpus


def small_graph(rng: random.Random, max_v: int = 8, max_ap: int = 4) -> LabeledGraph:
    n = rng.randint(3, max_v)
    nap = rng.randint(2, max_ap)
    succ = tuple(
        tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n))))) for _ in range(n)
    )
    return LabeledGraph(
        _names("p", nap),
        _names("v", n),
        succ,
        tuple(rng.getrandbits(nap) for _ in range(n)),
        rng.randrange(n),
    )


def small_game(rng: random.Random, max_v: int = 7, max_ap: int = 4) -> LabeledGameGraph:
    g = small_graph(rng, max_v, max_ap)
    owner = tuple(rng.choice((PLAYER1, PLAYER2)) for _ in range(g.n))
    return LabeledGameGraph(g.ap, g.names, g.succ, g.labels, g.initial, owner)


def small_system(rng: random.Random) -> SystemAutomaton:
    nq = rng.randint(2, 3)
    na = rng.randint(1, 2)
    nap = rng.randint(1, 3)
    transitions = set()
    for q in range(nq):
        for a in range(na):
            for r in rng.sample(range(nq), rng.randint(1, 2)):
                transitions.add((q, a, r))
    return SystemAutomaton(
        _names("p", nap),
        _names("q", nq),
        _names("s", na),
        tuple(sorted(transitions)),
        rng.randrange(nq),
        tuple(rng.getrandbits(nap) for _ in range(nq)),
    )


def small_cnf(rng: random.Random, max_vars: int = 5, max_clauses: int = 7) -> CnfFormula:
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula.of(n, clauses)


def small_qbf(rng: random.Random) -> QbfFormula:
    matrix = small_cnf(rng, 4, 5)
    order = list(range(1, matrix.num_vars + 1))
    rng.shuffle(order)
    return QbfFormula(tuple((rng.choice("ea"), v) for v in order), matrix)


def small_undirected(rng: random.Random) -> UndirectedGraph:
    n = rng.randint(2, 6)
    vs = _names("u", n)
    edges = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    return UndirectedGraph(vs, tuple(edges or [(vs[0], vs[1])]))


def small_digraph(rng: random.Random) -> Digraph:
    n = rng.randint(2, 6)
    vs = _names("u", n)
    edges = [(vs[i], vs[j]) for i in range(n) for j in range(n) if i != j and rng.random() < 0.35]
    return Digraph(vs, tuple(edges))


def dimacs_text(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in phi.clauses]
    return "\n".join(lines) + "\n"


def qdimacs_text(phi: QbfFormula) -> str:
    lines = [f"p cnf {phi.matrix.num_vars} {len(phi.matrix.clauses)}"]
    lines += [f"{q} {v} 0" for q, v in phi.prefix]
    lines += [" ".join(map(str, clause)) + " 0" for clause in phi.matrix.clauses]
    return "\n".join(lines) + "\n"


def edge_list_text(h) -> str:
    lines = list(h.vertices) + [f"{a} {b}" for a, b in h.edges]
    return "\n".join(lines) + "\n"
