"""Passes that skip re-inference must agree with it on randomized inputs."""

import itertools
import math
import random

from recheck import assert_bouquet_rechecks, assert_rechecks

from smlc.circuit import Bouquet, Circuit, ConstLeaf, regular
from smlc.generators import det_bouquet, distinct_perms, random_regular_circuit
from smlc.passes import compose, merge_summands, project, reverse
from smlc.pipeline import reduce_to_single
from smlc.poly import random_perm


def _random_rc(rng, n, sigma=None):
    seed, budget = rng.randrange(2**32), rng.randint(2 * n - 1, 80)
    return random_regular_circuit(sigma or random_perm(n, rng), seed, budget)


def _det_bouquets(seed, count):
    # det_bouquet inputs with n <= 5 and up to three distinct orders
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(3, math.factorial(n)))
        yield det_bouquet(n, distinct_perms(n, k, rng), rng.randrange(2**32))


def test_reverse_output_rechecks():
    rng = random.Random(61)
    for _ in range(60):
        rc = _random_rc(rng, rng.randint(1, 6))
        assert_rechecks(reverse(rc))
    for b in _det_bouquets(62, 20):
        for rc in b.summands:
            assert_rechecks(reverse(rc))


def test_compose_output_rechecks():
    rng = random.Random(63)
    for b in _det_bouquets(64, 30):
        assert_bouquet_rechecks(compose(b, random_perm(b.n, rng)))


def test_merge_output_rechecks():
    rng = random.Random(65)
    for _ in range(30):
        n = rng.randint(1, 5)
        pool = [random_perm(n, rng) for _ in range(2)]
        summands = [_random_rc(rng, n, rng.choice(pool)) for _ in range(rng.randint(1, 5))]
        summands.insert(rng.randint(0, len(summands)), regular(Circuit(n, (ConstLeaf(0),), 0), pool[0]))
        assert_bouquet_rechecks(merge_summands(Bouquet(n, tuple(summands))))


def test_project_output_rechecks():
    rng = random.Random(66)
    for b in _det_bouquets(67, 20):
        for size in range(1, b.n + 1):
            keep = rng.sample(range(1, b.n + 1), size)
            assert_bouquet_rechecks(project(b, keep))
    b = next(_det_bouquets(68, 1))
    for size in range(1, b.n + 1):
        for keep in itertools.combinations(range(1, b.n + 1), size):
            assert_bouquet_rechecks(project(b, keep))


def test_reduce_output_rechecks():
    for b in _det_bouquets(69, 30):
        single, _ = reduce_to_single(b, verify="off")
        assert_rechecks(single)
    zeros = Bouquet(3, (regular(Circuit(3, (ConstLeaf(0),), 0), (2, 3, 1)),))
    single, _ = reduce_to_single(zeros, verify="off")
    assert_rechecks(single)
    assert single.degree == 0
