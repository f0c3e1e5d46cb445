"""Loops that stay linear in their input on large inputs: the trap
layer's fixpoint, the proposition-name walk of a mask and the inferred
proposition universe of a parsed model. Each check compares two
measurements in one process: CPU time, min of 5, with the collector off
(a full collection costs the heap, not the work)."""

import gc
import json
import time

from covgame import LabeledGameGraph, formats, game_cover, mask_names
from covgame.model import PLAYER1


def _best(fn) -> float:
    best = float("inf")
    gc.disable()
    try:
        for _ in range(5):  # CPU time: other processes do not count
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
    finally:
        gc.enable()
    return best


def _tester_cycle(n: int) -> LabeledGameGraph:
    """A player-1 cycle of n vertices with one of three propositions on
    each of three vertices spread around it."""
    labels = [0] * n
    for p in range(3):
        labels[(p + 1) * n // 4] = 1 << p
    return LabeledGameGraph(
        ("p0", "p1", "p2"),
        tuple(f"v{v}" for v in range(n)),
        tuple(((v + 1) % n,) for v in range(n)),
        tuple(labels),
        0,
        (PLAYER1,) * n,
    )


def test_layer_costs_a_few_trap_passes_on_a_cycle():
    # every bit of layer(1) clears around the whole cycle, one vertex
    # behind the other: a few passes' work, where a set worklist that
    # pops each refill late re-walks the cycle, hundreds of passes here
    g = _tester_cycle(40_000)
    traps = game_cover._Traps(g)
    outside = traps.outside(0)
    assert traps.layer(1)[0] == [0] * g.n
    layer = _best(lambda: traps.layer(1))
    trap = _best(lambda: game_cover._trap(traps.arena, outside))
    assert layer < 10 * trap, (layer, trap)


def test_mask_names_costs_the_set_bits_not_the_universe():
    # the same 4,000 single-bit masks over 1,000 and over 16,000 names: a
    # walk over the universe reads over ten times longer on the second
    masks = [1 << (i % 1000) for i in range(4000)]
    small, large = [f"p{i}" for i in range(1000)], [f"p{i}" for i in range(16_000)]
    assert [mask_names(large, m) for m in masks] == [mask_names(small, m) for m in masks]
    t_small = _best(lambda: [mask_names(small, m) for m in masks])
    t_large = _best(lambda: [mask_names(large, m) for m in masks])
    assert t_large < 4 * t_small, (t_small, t_large)


def test_inferred_ap_costs_no_more_than_a_given_one():
    # a ring of 8,000 vertices, each on its own proposition: inferring
    # ap by list membership reads over ten times the given-ap parse
    n = 8000
    obj = {
        "initial": "v0",
        "vertices": [{"id": f"v{i}", "props": [f"p{i}"]} for i in range(n)],
        "edges": [[f"v{i}", f"v{(i + 1) % n}"] for i in range(n)],
    }
    inferred = json.dumps(obj)
    given = json.dumps({"ap": [f"p{i}" for i in range(n)], **obj})
    assert formats.loads(inferred) == formats.loads(given)
    t_inferred, t_given = _best(lambda: formats.loads(inferred)), _best(lambda: formats.loads(given))
    assert t_inferred < 3 * t_given, (t_given, t_inferred)
