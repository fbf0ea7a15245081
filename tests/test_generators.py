"""Generators: determinant circuits and bouquets."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import assert_computes_det, perms, seeds

from smlc.circuit import VarLeaf
from smlc.generators import (
    DP_MAX_N,
    SPLIT_DRAWS,
    NeedAtLeastOneTermPerBucket,
    det_bouquet,
    det_regular_circuit,
    distinct_perms,
    dp_det_bouquet,
    seeded_det_bouquet,
)
from smlc.poly import NotAPermutation, TooLarge, expand, expand_bouquet, random_perm, reference_det


def test_det_n1_is_single_leaf():
    rc = det_regular_circuit(1, (1,))
    assert tuple(rc.circuit.nodes) == (VarLeaf(1, 1),)


def test_det_identity_matches_reference():
    rc = det_regular_circuit(2, (1, 2))
    assert expand(rc.circuit).terms == reference_det(2).terms


def test_det_arbitrary_order_matches_reference():
    rc = det_regular_circuit(4, (3, 1, 4, 2))
    assert expand(rc.circuit).terms == reference_det(4).terms
    assert rc.sigma == (3, 1, 4, 2)


def test_det_matches_reference_for_many_orders():
    rng = random.Random(21)
    for n in range(1, 6):
        for _ in range(20):
            sigma = random_perm(n, rng)
            rc = det_regular_circuit(n, sigma)
            assert expand(rc.circuit).terms == reference_det(n).terms


def test_det_too_large():
    with pytest.raises(TooLarge):
        det_regular_circuit(9, tuple(range(1, 10)))


def test_bouquet_k1_identical_to_det_circuit():
    b = det_bouquet(3, [(2, 1, 3)], seed=17)
    rc = det_regular_circuit(3, (2, 1, 3))
    assert b.summands[0].circuit == rc.circuit


def test_bouquet_small_examples():
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=7)
    assert expand_bouquet(b).terms == reference_det(3).terms
    b2 = det_bouquet(2, [(1, 2), (2, 1)], seed=7)
    assert all(len(expand(rc.circuit)) == 1 for rc in b2.summands)
    assert expand_bouquet(b2).terms == reference_det(2).terms


def test_bouquet_sums_for_all_small_shapes():
    rng = random.Random(23)
    for n in range(2, 6):
        for k in range(1, min(4, math.factorial(n)) + 1):
            sigmas = distinct_perms(n, k, rng)
            b = det_bouquet(n, sigmas, seed=rng.randrange(2**32))
            assert expand_bouquet(b).terms == reference_det(n).terms
            assert [rc.sigma for rc in b.summands] == sigmas


def test_bouquet_needs_one_term_per_bucket():
    with pytest.raises(NeedAtLeastOneTermPerBucket):
        det_bouquet(2, [(1, 2), (2, 1), (1, 2)], seed=0)
    # the DP splits row 1's n columns, so it takes at most n orders
    with pytest.raises(NeedAtLeastOneTermPerBucket):
        dp_det_bouquet(3, distinct_perms(3, 4, random.Random(0)), seed=0)
    assert len(dp_det_bouquet(3, distinct_perms(3, 3, random.Random(0)), seed=0).summands) == 3


@pytest.mark.parametrize(("n", "k"), [(4, 24), (5, 120)])
def test_bouquet_with_one_term_per_order_is_the_determinant(n, k):
    # a random split fills k buckets with k terms with probability k!/k^k
    b = seeded_det_bouquet(n, k, seed=1)
    assert len(b.summands) == k
    assert all(len(expand(rc.circuit)) == 1 for rc in b.summands)
    assert expand_bouquet(b).terms == reference_det(n).terms


def test_dp_bouquet_with_one_column_per_order_is_the_determinant():
    sigmas = distinct_perms(7, 7, random.Random(7))
    assert expand_bouquet(dp_det_bouquet(7, sigmas, seed=7)).terms == reference_det(7).terms


def test_split_stops_drawing_after_split_draws(monkeypatch):
    draws = []

    class Counting(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr("smlc.generators.random.Random", Counting)
    b = det_bouquet(4, list(itertools.permutations(range(1, 5))), seed=1)
    assert len(draws) == SPLIT_DRAWS * 24
    assert expand_bouquet(b).terms == reference_det(4).terms


@pytest.mark.parametrize("make", [det_bouquet, dp_det_bouquet])
def test_bouquet_rejects_duplicate_orders(make):
    with pytest.raises(ValueError, match="pairwise distinct"):
        make(3, [(1, 2, 3), (1, 2, 3)], seed=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: det_regular_circuit(0, ()),
        lambda: det_bouquet(0, [()], seed=0),
        lambda: dp_det_bouquet(0, [()], seed=0),
    ],
    ids=["det_regular_circuit", "det_bouquet", "dp_det_bouquet"],
)
def test_determinant_generators_reject_empty_grid(build):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build()


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: det_regular_circuit(n, ()),
        lambda n: det_bouquet(n, [(1,)], seed=0),
        lambda n: dp_det_bouquet(n, [()], seed=0),
        lambda n: distinct_perms(n, 1, random.Random(0)),
    ],
    ids=["det_regular_circuit", "det_bouquet", "dp_det_bouquet", "distinct_perms"],
)
def test_generators_reject_negative_grid_first(build, n):
    # before the order length check, and before math.factorial sees n
    with pytest.raises(ValueError) as err:
        build(n)
    assert str(err.value) == "n must be >= 1"


@pytest.mark.parametrize("make", [det_bouquet, dp_det_bouquet])
def test_bouquet_rejects_empty_order_list(make):
    with pytest.raises(ValueError, match="sigmas"):
        make(2, [], seed=0)


@st.composite
def _orders(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(3, n)))
    return n, draw(st.lists(perms(n), min_size=k, max_size=k, unique=True))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_orders(), seeds)
def test_dp_bouquet_sums_to_the_determinant(orders, seed):
    n, sigmas = orders
    b = dp_det_bouquet(n, sigmas, seed)
    assert [rc.sigma for rc in b.summands] == sigmas
    assert all(rc.degree == n for rc in b.summands)
    assert expand_bouquet(b).terms == reference_det(n).terms


@pytest.mark.parametrize(("n", "k"), [(9, 1), (9, 3), (12, 2)])
def test_dp_bouquet_is_the_determinant_beyond_the_reference(n, k):
    b = dp_det_bouquet(n, distinct_perms(n, k, random.Random(n + k)), seed=k)
    assert_computes_det(b, seed=5)
    if k == 1:
        assert_computes_det(b.summands[0].circuit, seed=5)


def test_dp_bouquet_refuses_a_large_grid_before_building(monkeypatch):
    def nothing(*args):
        raise AssertionError("work started")

    monkeypatch.setattr("smlc.generators.check_permutation", nothing)
    monkeypatch.setattr("smlc.generators.Builder", nothing)
    with pytest.raises(TooLarge, match=f"limited to n <= {DP_MAX_N}, got 17"):
        dp_det_bouquet(DP_MAX_N + 1, [tuple(range(1, DP_MAX_N + 2))], seed=0)


@pytest.mark.parametrize(
    ("make", "detail"),
    [
        (lambda: det_bouquet(3, [(1, 2, 3, 4)], 0), "(1, 2, 3, 4) is not a permutation of [1..3]"),
        (lambda: dp_det_bouquet(3, [(1, 2, 3, 4)], 0), "(1, 2, 3, 4) is not a permutation of [1..3]"),
        (lambda: det_bouquet(4, [(1, 2, 3)], 0), "(1, 2, 3) is not a permutation of [1..4]"),
        (lambda: det_regular_circuit(3, (1, 2, 3, 4)), "(1, 2, 3, 4) is not a permutation of [1..3]"),
    ],
)
def test_order_of_wrong_length_names_the_grid(make, detail):
    with pytest.raises(NotAPermutation) as err:
        make()
    assert str(err.value) == detail


def test_det_rejects_non_int_order_entry():
    # 1.0 == 1, so only the type tells this order from a permutation
    with pytest.raises(NotAPermutation) as err:
        det_regular_circuit(2, (1.0, 2))
    assert str(err.value) == "(1.0, 2) is not a permutation of [1..2]"
