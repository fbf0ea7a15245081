"""Instance generators: determinant circuits, random regular circuits, bouquets.

Leibniz determinant circuits (`det_bouquet`) are built from the n! signed
terms, so they are capped at n <= 8.  They make the inputs of all three
benchmark workloads, whose digests and `final_gates` compare across changes
only while the same nodes come out in the same order; that is why they stay
beside Nisan's subset DP (`dp_det_bouquet`), which has about n * 2^n gates
and goes up to n = 16, where the reduction does real work.

The Leibniz terms are emitted in bulk from a leaf table and one table of all
n! signs (`_det_terms_circuit`, `_leibniz_signs`).  Leaves are numbered where
they are first used, and that numbering is part of the output: the wire
bytes and every digest over them depend on it, and
`tests/test_generator_bytes.py` pins them.

Every generator is deterministic for a fixed seed and returns circuits that
already passed `regular` against their declared order.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import getitem, itemgetter
from typing import Callable, Iterable, Sequence

from .circuit import ADD, CONST, MUL, VAR, Bouquet, Builder, Circuit, RegularCircuit, _is_int, regular
from .poly import (
    REFERENCE_MAX_N,
    TooLarge,
    check_permutation,
    random_perm,
    sign_of_permutation,
)

__all__ = [
    "NeedAtLeastOneTermPerBucket",
    "det_regular_circuit",
    "det_bouquet",
    "dp_det_bouquet",
    "random_regular_circuit",
    "distinct_perms",
    "seeded_det_bouquet",
]

DP_MAX_N = 16  # a subset-DP summand at n = 16 has about a million gates

# Random splits of the terms that `_split_orders` tries before it repairs the
# last one.  With k buckets close to the number of terms almost every draw
# leaves a bucket empty (k = terms = 24 succeeds with probability 24!/24^24),
# so the draws are capped.  Every split the tests and the benchmark pin took at
# most 10 draws.
SPLIT_DRAWS = 100

# Upper bound on the expanded term count of a random circuit, so generated
# instances always stay within the default exact-oracle budget.
_EXPANSION_GUARD = 50_000


class NeedAtLeastOneTermPerBucket(Exception):
    """Fewer terms than summands requested."""


def _check_grid(n: int, **counts: int) -> None:
    # ints first (JSON would write a bool n as true), then each >= 1, n first; before any order check
    sizes = {"n": n, **counts}
    for name, value in sizes.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


def _check_perm_count(n: int, k: int) -> None:
    # k > n! is refused; the running product of n! stops once it reaches k
    _check_grid(n, k=k)
    count = 1
    for m in range(2, n + 1):
        if count >= k:
            return
        count *= m
    if k > count:
        raise ValueError(f"cannot draw {k} distinct permutations of [1..{n}]")


def _leibniz_signs(n: int) -> list[int]:
    """The signs of all n! permutations of [1..n], in itertools.permutations order.

    The m-th permutation's Lehmer code is m's factorial-base digits, and the
    digits sum to its inversion count, so its sign is (-1) to that sum.  In
    the order of itertools the leading digit d fixes a block of (n-1)!
    consecutive permutations, so each block is the table for n-1, flipped
    for odd d.
    """
    signs = [1]
    for size in range(2, n + 1):
        flipped = [-s for s in signs]
        signs = [s for d in range(size) for s in (flipped if d % 2 else signs)]
    return signs


def _det_terms_circuit(
    n: int, sigma: tuple[int, ...], perms: Sequence[tuple[int, ...]], signs: Sequence[int]
) -> RegularCircuit:
    """The sum of the signed Leibniz terms sign * prod_row x[row, pi(row)].

    Each term is a left-comb product of one variable per row, multiplied in
    sigma order, times the leaf -1 when its sign is negative; each term after
    the first is joined to the sum so far by one addition.  Equal leaves are
    shared, and a leaf is numbered where it is first used.  So node ids
    depend on the order of `perms`, and the output is byte-stable: the
    golden digests, the benchmark's determinism digests and its `final_gates`
    all rest on this numbering.

    Leaf ids come from a table indexed by (position of the row in sigma,
    column).  A term whose leaves all exist already, the -1 leaf included
    when its sign is negative, is appended to the arrays in one go: its n-1
    products, its -1 factor and its addition.  A term that needs a new leaf
    is emitted node by node, so its new leaves get their first-use ids.
    """
    b = Builder()
    op, a, bb, emit = b.op, b.a, b.b, b.emit
    # pi's columns in sigma order, as a tuple (a slice, so also for n = 1)
    columns_of = itemgetter(*(row - 1 for row in sigma)) if n > 1 else itemgetter(slice(0, 1))
    table: list[list[int | None]] = [[None] * (n + 1) for _ in range(n)]
    even_tail = [MUL] * (n - 1) + [ADD]
    odd_tail = [MUL] * n + [ADD]
    neg: int | None = None
    acc = -1
    for pi, sign in zip(perms, signs):
        cols = columns_of(pi)
        ids = list(map(getitem, table, cols))
        # node by node where a leaf is new (and for n = 1, where the term is
        # a bare leaf with no products to append)
        if n == 1 or None in ids or (sign < 0 and neg is None):
            term = -1
            for pos, col in enumerate(cols):
                leaf = ids[pos]
                if leaf is None:
                    leaf = table[pos][col] = emit(VAR, sigma[pos], col)
                term = leaf if term < 0 else emit(MUL, term, leaf)
            if sign < 0:
                if neg is None:
                    neg = emit(CONST, -1, 0)
                term = emit(MUL, neg, term)
            acc = term if acc < 0 else emit(ADD, acc, term)
            continue
        # the products left to right, then the -1 factor if odd, then the
        # sum; acc is always the newest node, so the term starts at acc + 1
        last = acc + n - 1
        a.append(ids[0])
        a.extend(range(acc + 1, last))
        del ids[0]
        bb.extend(ids)
        if sign > 0:
            op.extend(even_tail)
            a.append(acc)
            bb.append(last)
            acc = last + 1
        else:
            op.extend(odd_tail)
            a.extend((neg, acc))
            bb.extend((last, last + 1))
            acc = last + 2
    return regular(Circuit(n, b.nodes(), acc), sigma)


def det_regular_circuit(n: int, sigma: Iterable[int]) -> RegularCircuit:
    """Full determinant circuit, regular w.r.t. sigma, built from all n! signed terms:
    the one summand of det_bouquet with the single order sigma."""
    return det_bouquet(n, [sigma], 0).summands[0]


def _split_orders(
    n: int, sigmas: Sequence[Iterable[int]], seed: int, limit: int, count: Callable[[int], int]
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Check a bouquet's grid and orders, and split count(n) terms into one bucket per order.

    In this order: n is an int >= 1 and at most limit, each order is a permutation,
    there is one, there are no more orders than terms, and no two are equal.  Each
    term goes to a random bucket, redrawn until none is empty, at most SPLIT_DRAWS
    times; then the last draw's buckets with spare terms fill its empty ones.  One
    order draws nothing.
    """
    _check_grid(n)
    if n > limit:
        raise TooLarge(f"determinant generator limited to n <= {limit}, got {n}")
    sigmas = [check_permutation(s, n) for s in sigmas]
    if not sigmas:
        raise ValueError("a determinant bouquet needs at least one summand order in sigmas")
    k, terms = len(sigmas), count(n)
    if terms < k:
        raise NeedAtLeastOneTermPerBucket(f"{terms} terms cannot fill {k} buckets")
    if len(set(sigmas)) != k:
        raise ValueError("summand orders must be pairwise distinct")
    rng = random.Random(seed)
    buckets = [list(range(terms))]
    for _ in range(SPLIT_DRAWS if k > 1 else 0):
        buckets = [[] for _ in range(k)]
        for idx in range(terms):
            buckets[rng.randrange(k)].append(idx)
        if all(buckets):
            break
    empty = [bucket for bucket in buckets if not bucket]
    for bucket in buckets:
        while empty and len(bucket) > 1:
            empty.pop().append(bucket.pop())
    return sigmas, buckets


def det_bouquet(n: int, sigmas: Sequence[Iterable[int]], seed: int) -> Bouquet:
    """Split the n! determinant terms into one regular summand per order.

    The summands' expansions sum to the determinant polynomial; summand i is
    regular w.r.t. sigmas[i].  det_regular_circuit is the single-order case.
    """
    sigmas, buckets = _split_orders(n, sigmas, seed, REFERENCE_MAX_N, math.factorial)
    perms = list(itertools.permutations(range(1, n + 1)))
    signs = _leibniz_signs(n)
    summands = tuple(
        _det_terms_circuit(n, sigma, [perms[i] for i in bucket], [signs[i] for i in bucket])
        for sigma, bucket in zip(sigmas, buckets)
    )
    return Bouquet(n=n, summands=summands)


def dp_det_bouquet(n: int, sigmas: Sequence[Iterable[int]], seed: int) -> Bouquet:
    """det_n as one subset-DP summand per order (Nisan, STOC 1991), for n <= DP_MAX_N.

    Row 1's n columns are split as det_bouquet splits its terms, after its
    checks and before any node is built, so at most n orders fit.  Summand i
    places the rows in sigmas[i] order, row 1 in bucket i only.  A state is
    the set of used columns, as a bitmask; its node sums the signed placements
    reaching it.  Column c multiplies by x[row, c], negated when an odd number
    of used columns exceed c (the column sequence's inversions); sgn(sigma)
    goes once on position 1.  Each product is (state) * (literal): regular.
    """
    summands = []
    for sigma, bucket in zip(*_split_orders(n, sigmas, seed, DP_MAX_N, lambda n: n)):
        b = Builder()
        negated = sign_of_permutation(sigma) < 0
        layer = {0: -1}  # used columns (bit c - 1 for column c) -> node id; -1 before the first row
        for row in sigma:
            nxt: dict[int, int] = {}
            for used, acc in layer.items():
                for c in bucket if row == 1 else range(n):
                    if used >> c & 1:
                        continue
                    literal = b.leaf(VAR, row, c + 1)
                    if negated if acc < 0 else (used >> c).bit_count() % 2:
                        # leaf hash-conses any triple: one negated literal per (row, column)
                        literal = b.leaf(MUL, b.leaf(CONST, -1), literal)
                    term = literal if acc < 0 else b.emit(MUL, acc, literal)
                    state = used | 1 << c
                    nxt[state] = term if state not in nxt else b.emit(ADD, nxt[state], term)
            layer = nxt
        (root,) = layer.values()
        summands.append(regular(Circuit(n, b.nodes(), root), sigma))
    return Bouquet(n=n, summands=tuple(summands))


def distinct_perms(n: int, k: int, rng: random.Random) -> list[tuple[int, ...]]:
    """k pairwise distinct random permutations of [1..n]."""
    _check_perm_count(n, k)
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(out) < k:
        pi = random_perm(n, rng)
        if pi not in seen:
            seen.add(pi)
            out.append(pi)
    return out


def seeded_det_bouquet(n: int, k: int, seed: int) -> Bouquet:
    """det_bouquet(n, distinct_perms(n, k, Random(seed)), seed), as `smlc gen bouquet` writes it.

    k > n! is refused first, as in distinct_perms, and an n that det_bouquet
    refuses (n > REFERENCE_MAX_N) gets no orders drawn.
    """
    _check_perm_count(n, k)
    sigmas = distinct_perms(n, k, random.Random(seed)) if n <= REFERENCE_MAX_N else []
    return det_bouquet(n, sigmas, seed)


def random_regular_circuit(sigma: Sequence[int], seed: int, size_budget: int) -> RegularCircuit:
    """Random full-degree regular circuit w.r.t. sigma with at most size_budget nodes.

    n is len(sigma), and sigma must be a permutation of [1..n].  The minimum
    budget is 2n-1 (one variable per row joined by products).  Grows top-down
    over position spans: a span either splits multiplicatively at a random
    point, or (budget permitting) becomes a sum of two circuits over the same
    span.  A tight budget degenerates to the minimal left-comb product of one
    variable per row.  Expanded term counts are capped so the exact oracle can
    always afford the result.  Deterministic for a fixed seed.
    """
    n = len(sigma)
    _check_grid(n, size_budget=size_budget)
    if size_budget < 2 * n - 1:
        raise ValueError(f"size_budget must be >= {2 * n - 1}")
    sigma = check_permutation(sigma, n)
    rng = random.Random(seed)
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
            return b.leaf(VAR, sigma[lo - 1], rng.randint(1, n)), 1
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

    root, _ = build(1, n, size_budget, _EXPANSION_GUARD)
    return regular(Circuit(n, b.nodes(), root), sigma)
