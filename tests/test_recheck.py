"""Passes that skip re-inference must agree with it on randomized inputs, and
`recheck.random_regular_circuit`, which draws the random circuits of the
properties here and of criteria 1 and 7, keeps its shape and its draws."""

import hashlib
import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st
from recheck import (
    assert_bouquet_rechecks,
    assert_rechecks,
    det_bouquets,
    perms,
    random_regular_circuit,
    regular_circuits,
)

from smlc.circuit import Bouquet, Circuit, ConstLeaf, Mul, VarLeaf, regular, validate
from smlc.passes import compose, merge_summands, project, reverse
from smlc.pipeline import reduce_to_single
from smlc.poly import random_perm
from smlc.serialize import circuit_to_obj, dumps

checks = settings(derandomize=True, deadline=None, max_examples=30)

# determinant bouquets over 2 to 5 rows
small_det_bouquets = st.integers(2, 5).flatmap(det_bouquets)

ZEROS = Bouquet(3, (regular(Circuit(3, (ConstLeaf(0),), 0), (2, 3, 1)),))


@checks
@given(
    st.one_of(
        st.integers(1, 6).flatmap(regular_circuits),
        small_det_bouquets.flatmap(lambda b: st.sampled_from(b.summands)),
    )
)
def test_reverse_output_rechecks(rc):
    assert_rechecks(reverse(rc))


@checks
@given(small_det_bouquets, st.data())
def test_compose_output_rechecks(b, data):
    assert_bouquet_rechecks(compose(b, data.draw(perms(b.n))))


@checks
@given(st.data())
def test_merge_output_rechecks(data):
    n = data.draw(st.integers(1, 5))
    pool = data.draw(st.lists(perms(n), min_size=2, max_size=2))
    count = data.draw(st.integers(1, 5))
    summands = [data.draw(regular_circuits(n, data.draw(st.sampled_from(pool)))) for _ in range(count)]
    summands.insert(data.draw(st.integers(0, count)), regular(Circuit(n, (ConstLeaf(0),), 0), pool[0]))
    assert_bouquet_rechecks(merge_summands(Bouquet(n, tuple(summands))))


@checks
@given(small_det_bouquets)
def test_project_output_rechecks(b):
    for size in range(1, b.n + 1):
        for keep in itertools.combinations(range(1, b.n + 1), size):
            assert_bouquet_rechecks(project(b, keep))


@checks
@given(small_det_bouquets)
@example(ZEROS)
def test_reduce_output_rechecks(b):
    single, _ = reduce_to_single(b, verify="off")
    assert_rechecks(single)
    if b is ZEROS:
        assert single.degree == 0


def test_minimal_budget_is_left_comb():
    n = 4
    rc = random_regular_circuit((1, 2, 3, 4), 5, 2 * n - 1)
    nodes = rc.circuit.nodes
    assert len(nodes) == 2 * n - 1
    assert sum(isinstance(nd, Mul) for nd in nodes) == n - 1
    assert sum(isinstance(nd, VarLeaf) for nd in nodes) == n
    assert rc.degree == n


def test_random_circuit_deterministic_per_seed():
    a = random_regular_circuit((2, 4, 1, 5, 3), 123, 60)
    b = random_regular_circuit((2, 4, 1, 5, 3), 123, 60)
    assert (a.circuit, a.sigma, a.degree) == (b.circuit, b.sigma, b.degree)


def test_random_circuit_always_valid_and_within_budget():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        budget = rng.randint(2 * n - 1, 120)
        sigma = random_perm(n, rng)
        rc = random_regular_circuit(sigma, rng.randrange(2**32), budget)
        assert len(rc.circuit.nodes) <= budget
        assert rc.degree == n
        validate(rc.circuit)


def test_random_circuit_draws_are_pinned():
    # the derandomized properties and criteria 1 and 7 see these circuits
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(50):
        n = rng.randint(1, 6)
        rc = random_regular_circuit(random_perm(n, rng), rng.randrange(2**32), rng.randint(2 * n - 1, 60))
        line = dumps(circuit_to_obj(rc.circuit)) + dumps(list(rc.sigma)) + str(rc.degree) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == "e4aa49f7629fd0b8b685965e9c36e7433c467a42959da526044783e742de54c7"
