"""Algebraic laws of the passes, as property tests over generated inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import det_bouquets, perms, regular_circuits

from smlc.circuit import Bouquet, Circuit, ConstLeaf, regular
from smlc.passes import compose, merge_summands, project, reverse
from smlc.poly import expand_bouquet, invert_perm
from smlc.serialize import bouquet_from_obj, bouquet_to_obj, dumps, loads

laws = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def full_degree_circuits(draw):
    return draw(regular_circuits(draw(st.integers(1, 5))))


@st.composite
def bouquets(draw):
    """A determinant bouquet, or random summands over a small pool of orders
    (so some share one) with zero summands mixed in; either sign."""
    n = draw(st.integers(1, 4))
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return Bouquet(n, draw(det_bouquets(n)).summands, sign)
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
