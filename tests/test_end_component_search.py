"""Property tests: the proposition-set end-component and safety searches
agree with the vertex-subset oracles on small seeded random games."""

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
