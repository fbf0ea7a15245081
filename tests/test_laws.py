"""Algebraic laws of the passes, as property tests over generated inputs."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from smlc.circuit import Bouquet, Circuit, ConstLeaf, regular
from smlc.generators import det_bouquet, distinct_perms, random_regular_circuit
from smlc.passes import compose, merge_summands, project, reverse
from smlc.poly import expand_bouquet, invert_perm
from smlc.serialize import bouquet_from_obj, bouquet_to_obj, dumps, loads

laws = settings(derandomize=True, deadline=None, max_examples=40)

seeds = st.integers(0, 2**32 - 1)


def perms(n):
    return st.permutations(range(1, n + 1)).map(tuple)


@st.composite
def regular_circuits(draw, n, sigma):
    return random_regular_circuit(sigma, draw(seeds), draw(st.integers(2 * n - 1, 60)))


@st.composite
def full_degree_circuits(draw):
    n = draw(st.integers(1, 5))
    return draw(regular_circuits(n, draw(perms(n))))


@st.composite
def bouquets(draw):
    """A determinant bouquet, or random summands over a small pool of orders
    (so some share one) with zero summands mixed in; either sign."""
    n = draw(st.integers(1, 4))
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        seed = draw(seeds)
        k = draw(st.integers(1, min(3, math.factorial(n))))
        summands = det_bouquet(n, distinct_perms(n, k, random.Random(seed)), seed).summands
        return Bouquet(n, summands, sign)
    pool = draw(st.lists(perms(n), min_size=1, max_size=3))
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        sigma = draw(st.sampled_from(pool))
        if draw(st.integers(0, 4)) == 0:
            summands.append(regular(Circuit(n, (ConstLeaf(0),), 0), sigma))
        else:
            summands.append(draw(regular_circuits(n, sigma)))
    return Bouquet(n, tuple(summands), sign)


@st.composite
def bouquets_and_perms(draw):
    b = draw(bouquets())
    return b, draw(perms(b.n))


@st.composite
def nested_keep_sets(draw):
    """A bouquet, a keep set A of its rows and a keep set B of A's ranks."""
    b = draw(bouquets())
    outer = draw(st.lists(st.integers(1, b.n), min_size=1, unique=True))
    inner = draw(st.lists(st.integers(1, len(outer)), min_size=1, unique=True))
    return b, outer, inner


@laws
@given(full_degree_circuits())
def test_reverse_is_an_involution(rc):
    assert reverse(reverse(rc)) == rc


@laws
@given(bouquets_and_perms())
def test_compose_then_inverse_restores_bouquet(case):
    b, tau = case
    assert compose(compose(b, tau), invert_perm(tau)) == b


@laws
@given(bouquets())
def test_merge_is_idempotent(b):
    once = merge_summands(b)
    assert merge_summands(once) == once


@laws
@given(bouquets())
def test_serialize_round_trip_is_identity(b):
    assert bouquet_from_obj(loads(dumps(bouquet_to_obj(b)))) == b


@laws
@given(nested_keep_sets())
def test_nested_projection_equals_composed_keep_set(case):
    b, outer, inner = case
    # rank j of the outer keep set is its j-th smallest element
    composed = [sorted(outer)[j - 1] for j in inner]
    twice = project(project(b, outer), inner)
    assert expand_bouquet(twice).terms == expand_bouquet(project(b, composed)).terms
