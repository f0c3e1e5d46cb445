"""Seeded random instance generators shared across the test suite."""

from __future__ import annotations

import random

from covgame import (
    CnfFormula,
    Digraph,
    LabeledGameGraph,
    LabeledGraph,
    QbfFormula,
    SystemAutomaton,
    UndirectedGraph,
    is_controllably_recurrent_game,
)


def random_graph(rng: random.Random, max_v: int = 6, max_ap: int = 3) -> LabeledGraph:
    n = rng.randint(1, max_v)
    nap = rng.randint(1, max_ap) if rng.random() > 0.05 else 0
    labels = tuple(rng.getrandbits(nap) for _ in range(n))
    succ = tuple(
        tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
        for _ in range(n)
    )
    return LabeledGraph(
        tuple(f"p{i}" for i in range(nap)),
        tuple(f"v{i}" for i in range(n)),
        succ,
        labels,
        rng.randrange(n),
    )


def random_game(rng: random.Random, max_v: int = 6, max_ap: int = 3) -> LabeledGameGraph:
    g = random_graph(rng, max_v, max_ap)
    owner = tuple(rng.choice((1, 2)) for _ in range(g.n))
    return LabeledGameGraph(g.ap, g.names, g.succ, g.labels, g.initial, owner)


def random_strongly_connected_graph(
    rng: random.Random, max_v: int = 8, max_ap: int = 3
) -> LabeledGraph:
    """A shuffled Hamiltonian cycle plus random chords: strongly
    connected by construction."""
    n = rng.randint(1, max_v)
    nap = rng.randint(1, max_ap)
    order = list(range(n))
    rng.shuffle(order)
    rows: list[set[int]] = [set() for _ in range(n)]
    for i, v in enumerate(order):
        rows[v].add(order[(i + 1) % n])
    for _ in range(rng.randint(0, 2 * n)):
        rows[rng.randrange(n)].add(rng.randrange(n))
    return LabeledGraph(
        tuple(f"p{i}" for i in range(nap)),
        tuple(f"v{i}" for i in range(n)),
        tuple(tuple(sorted(row)) for row in rows),
        tuple(rng.getrandbits(nap) for _ in range(n)),
        rng.randrange(n),
    )


def random_block_graph(
    rng: random.Random, max_blocks: int = 4, max_v: int = 3, max_ap: int = 4
) -> LabeledGraph:
    """Blocks drawn by random_strongly_connected_graph, each joined to
    later blocks by one or two forward edges, under one shuffled vertex
    numbering and fresh labels. So the blocks are the graph's strongly
    connected components, and the initial vertex, in the first block,
    reaches them along several chains."""
    blocks = [random_strongly_connected_graph(rng, max_v) for _ in range(rng.randint(2, max_blocks))]
    rows: list[set[int]] = []
    spans = []
    for block in blocks:
        span = range(len(rows), len(rows) + block.n)
        rows += [{span.start + u for u in row} for row in block.succ]
        spans.append(span)
    n = len(rows)
    for span in spans[:-1]:
        for _ in range(rng.randint(1, 2)):
            rows[rng.choice(span)].add(rng.randrange(span.stop, n))
    ids = list(range(n))
    rng.shuffle(ids)
    succ: list[tuple[int, ...]] = [()] * n
    for v, row in enumerate(rows):
        succ[ids[v]] = tuple(sorted(ids[u] for u in row))
    nap = rng.randint(1, max_ap)
    return LabeledGraph(
        tuple(f"p{i}" for i in range(nap)),
        tuple(f"v{i}" for i in range(n)),
        tuple(succ),
        tuple(rng.getrandbits(nap) for _ in range(n)),
        ids[rng.choice(spans[0])],
    )


def random_recurrent_game(
    rng: random.Random, max_v: int = 8, max_ap: int = 4
) -> LabeledGameGraph:
    """Rejection-sample controllably recurrent games, biasing the raw
    draws with extra return edges so the rejection loop stays short."""
    while True:
        g = random_game(rng, max_v, max_ap)
        rows = [set(row) for row in g.succ]
        for v in range(g.n):
            if v != g.initial and rng.random() < 0.6:
                rows[v].add(g.initial)
        candidate = LabeledGameGraph(
            g.ap,
            g.names,
            tuple(tuple(sorted(row)) for row in rows),
            g.labels,
            g.initial,
            g.owner,
        )
        if is_controllably_recurrent_game(candidate)[0]:
            return candidate


def sparse_random_game(seed: int, n: int = 200, nap: int = 12) -> LabeledGameGraph:
    """Three random successors per vertex, one random proposition on
    about half of the vertices, random owners; initial vertex v0. At
    n=200, |AP|=12, seed 0 its value is 0, yet its full (vertex,
    covered) product holds 438,756 states."""
    rng = random.Random(seed)
    succ = tuple(tuple(sorted(rng.sample(range(n), 3))) for _ in range(n))
    labels = tuple(1 << rng.randrange(nap) if rng.random() < 0.5 else 0 for _ in range(n))
    owner = tuple(rng.choice((1, 2)) for _ in range(n))
    return LabeledGameGraph(
        tuple(f"p{i}" for i in range(nap)),
        tuple(f"v{i}" for i in range(n)),
        succ,
        labels,
        0,
        owner,
    )


def random_system(
    rng: random.Random,
    max_states: int = 4,
    max_letters: int = 2,
    max_ap: int = 3,
    deterministic: bool = False,
) -> SystemAutomaton:
    nq = rng.randint(1, max_states)
    na = rng.randint(1, max_letters)
    nap = rng.randint(0, max_ap)
    transitions = []
    for q in range(nq):
        for a in range(na):
            fanout = 1 if deterministic else rng.randint(1, 2)
            for r in rng.sample(range(nq), min(fanout, nq)):
                transitions.append((q, a, r))
    return SystemAutomaton(
        tuple(f"p{i}" for i in range(nap)),
        tuple(f"q{i}" for i in range(nq)),
        tuple(f"s{i}" for i in range(na)),
        tuple(sorted(set(transitions))),
        rng.randrange(nq),
        tuple(rng.getrandbits(nap) for _ in range(nq)),
    )


def random_cnf(rng: random.Random, max_vars: int = 5, max_clauses: int = 8) -> CnfFormula:
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula.of(n, clauses)


def random_qbf(rng: random.Random, max_vars: int = 4, max_clauses: int = 6) -> QbfFormula:
    matrix = random_cnf(rng, max_vars, max_clauses)
    order = list(range(1, matrix.num_vars + 1))
    rng.shuffle(order)
    prefix = tuple((rng.choice("ea"), var) for var in order)
    return QbfFormula(prefix, matrix)


def random_undirected(rng: random.Random, max_v: int = 6) -> UndirectedGraph:
    n = rng.randint(2, max_v)
    vertices = tuple(f"u{i}" for i in range(n))
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.45
    ]
    if not edges:
        edges = [(vertices[0], vertices[1])]
    return UndirectedGraph(vertices, tuple(edges))


def random_digraph(rng: random.Random, max_v: int = 7) -> Digraph:
    n = rng.randint(1, max_v)
    vertices = tuple(f"u{i}" for i in range(n))
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.3
    ]
    return Digraph(vertices, tuple(edges))


def wide_games(k: int = 30, used: int = 30) -> dict[str, LabeledGameGraph]:
    """Tester-owned games over k propositions whose end components carry
    many of them; `used` <= k of them appear on any vertex.

    - two: v0 <-> v1, and v1 carries every used proposition;
    - cycle: v0 -> c1 -> ... -> c_used -> v0, one proposition per c_i;
    - star: the system leaves its unlabeled hub into one of `used`
      labeled loops, so its cheapest end component carries one.
    """
    ap = [f"p{i}" for i in range(k)]
    cs = [f"c{i}" for i in range(1, used + 1)]
    return {
        "two": LabeledGameGraph.make_game(
            ap, [("v0", [], 1), ("v1", ap[:used], 1)], [("v0", "v1"), ("v1", "v0")], "v0"
        ),
        "cycle": LabeledGameGraph.make_game(
            ap,
            [("v0", [], 1)] + [(c, [p], 1) for c, p in zip(cs, ap)],
            list(zip(["v0"] + cs, cs + ["v0"])),
            "v0",
        ),
        "star": LabeledGameGraph.make_game(
            ap,
            [("v0", [], 2)] + [(c, [p], 1) for c, p in zip(cs, ap)],
            [("v0", c) for c in cs] + [(c, "v0") for c in cs],
            "v0",
        ),
    }


def diamond_game(d: int, tester_chains: bool = True) -> LabeledGameGraph:
    """d system "diamonds" in a row, n = 2^d + d: hub i moves to hub
    i + 1 either directly or through a chain of 2^i vertices, owned by
    the tester or (tester_chains=False) by the system. So the plays
    reach hub i after 2^i distinct numbers of steps, and the longest
    play to the last hub, the one vertex labeled p, takes 2^d - 1 + d."""
    owner = 1 if tester_chains else 2
    vertices, edges = [], []
    for i in range(d):
        hub, chain = f"h{i}", [f"c{i}_{j}" for j in range(2**i)]
        vertices += [(hub, [], 2)] + [(c, [], owner) for c in chain]
        edges += [(hub, f"h{i + 1}"), (hub, chain[0])] + list(zip(chain, chain[1:] + [f"h{i + 1}"]))
    vertices.append((f"h{d}", ["p"], 2))
    edges.append((f"h{d}", f"h{d}"))
    return LabeledGameGraph.make_game(["p"], vertices, edges, "h0")
