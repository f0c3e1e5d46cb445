"""Property tests: the proposition-set end-component and safety searches
agree with the vertex-subset oracles on small seeded random games, and
the end-component witness check agrees with its earlier definition."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from covgame import (
    NotRecurrentError,
    PLAYER1,
    cover_of,
    min_cover_end_component,
    min_safety_value,
    oracle,
    verify_end_component_witness,
)
from covgame.model import _predecessors, _reachable
from genmodels import random_game, random_recurrent_game

games = given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
examples = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def make_game(seed, recurrent):
    make = random_recurrent_game if recurrent else random_game
    return make(random.Random(seed), 8, 4)


@examples
@games
def test_end_component_matches_oracle(seed, recurrent):
    g = make_game(seed, recurrent)
    want = oracle.min_cover_end_component_brute(g)
    if want is None:
        with pytest.raises(NotRecurrentError):
            min_cover_end_component(g)
        return
    ec, count = min_cover_end_component(g)
    assert count == want == ec.prop_count()
    assert verify_end_component_witness(g, ec.vertices, count + 1)
    assert not verify_end_component_witness(g, ec.vertices, count)


@examples
@games
def test_safety_matches_oracle(seed, recurrent):
    g = make_game(seed, recurrent)
    value, confined = min_safety_value(g)
    assert value == oracle.min_safety_brute(g)
    vs = set(confined)
    assert g.initial in vs
    assert cover_of(g, confined).bit_count() == value
    for v in vs:
        inside = [u for u in g.succ[v] if u in vs]
        assert inside
        if g.owner[v] == PLAYER1:
            assert len(inside) == len(g.succ[v])


def reference_is_end_component(g, vs: set[int]) -> bool:
    """The earlier definition, checked on vs directly: strongly connected
    (an inside move everywhere, so singletons need a self-loop) and
    closed under every player-1 edge. Both sweeps stay inside vs and list
    each vertex once, so their sizes decide."""
    inside = [[u for u in row if u in vs] if v in vs else [] for v, row in enumerate(g.succ)]
    for v in vs:
        if not inside[v] or (g.owner[v] == PLAYER1 and len(inside[v]) != len(g.succ[v])):
            return False
    pivot, size = min(vs), len(vs)
    return len(_reachable(inside, pivot)) == size == len(_reachable(_predecessors(inside), pivot))


def reference_witness(g, vs: set[int], m: int) -> bool:
    return g.initial in vs and reference_is_end_component(g, vs) and cover_of(g, vs).bit_count() < m


@examples
@games
def test_witness_check_matches_its_earlier_definition(seed, recurrent):
    g = make_game(seed, recurrent)
    rng = random.Random(seed)
    subsets = [{v for v in range(g.n) if rng.random() < 0.5} for _ in range(6)]
    subsets += [s | {g.initial} for s in subsets] + [s - {g.initial} for s in subsets]
    subsets += [{v} for v in range(g.n)] + [set(range(g.n))]
    try:
        subsets.append(set(min_cover_end_component(g)[0].vertices))
    except NotRecurrentError:
        pass
    for vs in subsets:
        if not vs:
            continue
        for m in range(len(g.ap) + 2):
            assert verify_end_component_witness(g, vs, m) == reference_witness(g, vs, m), (sorted(vs), m)
    # each vertex as the initial one, alone: without a self-loop it is
    # never an end component, whatever m
    for v in range(g.n):
        h = dataclasses.replace(g, initial=v)
        for m in range(len(g.ap) + 2):
            got = verify_end_component_witness(h, {v}, m)
            assert got == reference_witness(h, {v}, m), (v, m)
            assert v in g.succ[v] or not got, (v, m)
