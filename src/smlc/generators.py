"""Instance generators: determinant circuits, random regular circuits, bouquets.

Determinant circuits are built term by term from the Leibniz sum, so they are
factorial-sized and capped at n <= 8.  That is fine for an oracle-checked
toolkit: the transformations under test are size-preserving up to a constant,
so exercising them on small exact instances is what matters.

Every generator is deterministic for a fixed seed and returns circuits that
already passed `regular` against their declared order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuit import ADD, CONST, MUL, VAR, Bouquet, Builder, Circuit, RegularCircuit, regular
from .poly import (
    REFERENCE_MAX_N,
    TooLarge,
    check_permutation,
    random_perm,
    sign_of_permutation,
)

__all__ = [
    "GenConfig",
    "NeedAtLeastOneTermPerBucket",
    "det_regular_circuit",
    "det_bouquet",
    "sparse_term_bouquet",
    "random_regular_circuit",
    "distinct_perms",
]

# Upper bound on the expanded term count of a random circuit, so generated
# instances always stay within the default exact-oracle budget.
_EXPANSION_GUARD = 50_000


class NeedAtLeastOneTermPerBucket(Exception):
    """Fewer terms than summands requested."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random generators.

    size_budget is an upper bound on the node count; the minimum useful value
    is 2n-1 (one variable per row joined by products).
    """

    n: int
    seed: int
    size_budget: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.size_budget < 2 * self.n - 1:
            raise ValueError(f"size_budget must be >= {2 * self.n - 1}")


def _check_grid(n: int) -> None:
    # first, so a negative n never reaches math.factorial or the order checks
    if n < 1:
        raise ValueError("n must be >= 1")


def _signed_term(b: Builder, sigma: tuple[int, ...], pi: tuple[int, ...]) -> int:
    # left-comb product of one variable per row, multiplied in sigma order,
    # wrapped in a -1 factor for odd pi
    acc = b.leaf(VAR, sigma[0], pi[sigma[0] - 1])
    for pos in range(1, len(sigma)):
        row = sigma[pos]
        acc = b.emit(MUL, acc, b.leaf(VAR, row, pi[row - 1]))
    if sign_of_permutation(pi) < 0:
        acc = b.emit(MUL, b.leaf(CONST, -1), acc)
    return acc


def _det_terms_circuit(
    n: int, sigma: tuple[int, ...], perms: Sequence[tuple[int, ...]]
) -> RegularCircuit:
    b = Builder()
    acc = _signed_term(b, sigma, perms[0])
    for pi in perms[1:]:
        acc = b.emit(ADD, acc, _signed_term(b, sigma, pi))
    return regular(Circuit(n, b.nodes(), acc), sigma)


def det_regular_circuit(n: int, sigma: Iterable[int]) -> RegularCircuit:
    """Full determinant circuit, regular w.r.t. sigma, built from all n! signed terms."""
    _check_grid(n)
    if n > REFERENCE_MAX_N:
        raise TooLarge(f"determinant generator limited to n <= {REFERENCE_MAX_N}, got {n}")
    sigma = check_permutation(sigma, n)
    perms = list(itertools.permutations(range(1, n + 1)))
    return _det_terms_circuit(n, sigma, perms)


def _bucket_split(
    count: int, k: int, rng: random.Random
) -> list[list[int]]:
    # random assignment of `count` items to k buckets, resampled until none is empty
    if count < k:
        raise NeedAtLeastOneTermPerBucket(f"{count} terms cannot fill {k} buckets")
    while True:
        buckets: list[list[int]] = [[] for _ in range(k)]
        for idx in range(count):
            buckets[rng.randrange(k)].append(idx)
        if all(buckets):
            return buckets


def det_bouquet(n: int, sigmas: Sequence[Iterable[int]], seed: int) -> Bouquet:
    """Split the n! determinant terms into one regular summand per order.

    The summands' expansions sum to the determinant polynomial; summand i is
    regular w.r.t. sigmas[i].  With a single order this reproduces
    det_regular_circuit exactly.
    """
    _check_grid(n)
    if n > REFERENCE_MAX_N:
        raise TooLarge(f"determinant generator limited to n <= {REFERENCE_MAX_N}, got {n}")
    sigmas = [check_permutation(s, n) for s in sigmas]
    if not sigmas:
        raise ValueError("det_bouquet needs at least one summand order in sigmas")
    if math.factorial(n) < len(sigmas):
        raise NeedAtLeastOneTermPerBucket(
            f"{math.factorial(n)} terms cannot fill {len(sigmas)} buckets"
        )
    if len(set(sigmas)) != len(sigmas):
        raise ValueError("summand orders must be pairwise distinct")
    perms = list(itertools.permutations(range(1, n + 1)))
    rng = random.Random(seed)
    buckets = _bucket_split(len(perms), len(sigmas), rng)
    summands = tuple(
        _det_terms_circuit(n, sigma, [perms[i] for i in bucket])
        for sigma, bucket in zip(sigmas, buckets)
    )
    return Bouquet(n=n, summands=summands)


def sparse_term_bouquet(
    n: int, sigmas: Sequence[Iterable[int]], terms: int, seed: int
) -> Bouquet:
    """Bouquet summing a random sample of `terms` distinct signed determinant terms.

    Large-n stress fodder: the result is NOT the determinant polynomial (it is
    a strict sub-sum for terms < n!), but every summand is a genuine regular
    circuit, so structural passes can be exercised at grid sizes where the
    full determinant would be astronomically large.
    """
    _check_grid(n)
    sigmas = [check_permutation(s, n) for s in sigmas]
    rng = random.Random(seed)
    sample: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    if n <= REFERENCE_MAX_N and terms >= math.factorial(n):
        sample = list(itertools.permutations(range(1, n + 1)))
    else:
        while len(sample) < terms:
            pi = random_perm(n, rng)
            if pi not in seen:
                seen.add(pi)
                sample.append(pi)
    buckets = _bucket_split(len(sample), len(sigmas), rng)
    summands = tuple(
        _det_terms_circuit(n, sigma, [sample[i] for i in bucket])
        for sigma, bucket in zip(sigmas, buckets)
    )
    return Bouquet(n=n, summands=summands)


def distinct_perms(n: int, k: int, rng: random.Random) -> list[tuple[int, ...]]:
    """k pairwise distinct random permutations of [1..n]."""
    _check_grid(n)
    if k > math.factorial(n):
        raise ValueError(f"cannot draw {k} distinct permutations of [1..{n}]")
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(out) < k:
        pi = random_perm(n, rng)
        if pi not in seen:
            seen.add(pi)
            out.append(pi)
    return out


def random_regular_circuit(config: GenConfig, sigma: Iterable[int]) -> RegularCircuit:
    """Random full-degree regular circuit w.r.t. sigma within the size budget.

    Grows top-down over position spans: a span either splits multiplicatively
    at a random point, or (budget permitting) becomes a sum of two circuits
    over the same span.  A tight budget degenerates to the minimal left-comb
    product of one variable per row.  Expanded term counts are capped so the
    exact oracle can always afford the result.
    """
    sigma = check_permutation(sigma, config.n)
    rng = random.Random(config.seed)
    b = Builder()

    def build(lo: int, hi: int, budget: int, term_cap: int) -> tuple[int, int]:
        span = hi - lo + 1
        minimal = 2 * span - 1
        spend = min(0.9, 0.35 + budget / 50)  # deep budgets should get used
        if span == 1:
            if budget >= 3 and rng.random() < spend:
                if term_cap >= 2 and rng.random() < 0.7:
                    sub = rng.randint(1, budget - 2)
                    left, tl = build(lo, hi, sub, term_cap - 1)
                    right, tr = build(lo, hi, budget - 1 - sub, term_cap - tl)
                    return b.emit(ADD, left, right), tl + tr
                scale = b.leaf(CONST, rng.choice((-3, -2, -1, 2, 3)))
                child, tc = build(lo, hi, budget - 2, term_cap)
                return b.emit(MUL, scale, child), tc
            return b.leaf(VAR, sigma[lo - 1], rng.randint(1, config.n)), 1
        if budget >= minimal + 2 and rng.random() < 0.1:
            # scalar factor above a full-span subcircuit
            scale = b.leaf(CONST, rng.choice((-2, -1, 2)))
            child, tc = build(lo, hi, budget - 2, term_cap)
            return b.emit(MUL, scale, child), tc
        if budget >= 2 * minimal + 1 and term_cap >= 2 and rng.random() < spend:
            sub = rng.randint(minimal, budget - 1 - minimal)
            left, tl = build(lo, hi, sub, term_cap - 1)
            right, tr = build(lo, hi, budget - 1 - sub, term_cap - tl)
            return b.emit(ADD, left, right), tl + tr
        split = hi - 1 if budget == minimal else rng.randint(lo, hi - 1)
        lmin = 2 * (split - lo + 1) - 1
        rmin = 2 * (hi - split) - 1
        extra_l = rng.randint(0, budget - 1 - lmin - rmin)
        left, tl = build(lo, split, lmin + extra_l, max(1, math.isqrt(term_cap)))
        right, tr = build(split + 1, hi, budget - 1 - lmin - extra_l, term_cap // tl)
        return b.emit(MUL, left, right), tl * tr

    root, _ = build(1, config.n, config.size_budget, _EXPANSION_GUARD)
    return regular(Circuit(config.n, b.nodes(), root), sigma)
