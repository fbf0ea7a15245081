"""What the tests share: independent references, strategies, the random
circuit generator and a CLI driver.

The passes carry (sigma, degree) over without calling `regular`, and only a
verified reduction re-runs it, after each step and at step 0 when no step
follows; `assert_rechecks` checks that claim on what the passes return.
`random_regular_circuit` lives here, not in the package, because only the
tests draw random regular circuits; `regular_circuits` is its strategy.
`eval_mod`, `poly_add`, `poly_scaled`, `poly_mul` and `expand_nodes` work
term by term on `SparsePoly` values with none of `poly`'s code; `join` puts two circuits under the gate whose `expand`
they are compared with.  `assert_computes_det` checks that a circuit or
bouquet computes the determinant of its grid size: exactly against the
Leibniz reference where that exists, above it at seeded points against
elimination mod PRIME.  `read_outcome` is what a bouquet reader makes of a
text: the `Bouquet`, or the class and message of what it raised.
"""

import io
import math
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import strategies as st

from smlc import cli
from smlc.circuit import ADD, CONST, MUL, VAR, Bouquet, Builder, Circuit, Nodes, regular
from smlc.generators import seeded_det_bouquet
from smlc.poly import (
    PRIME,
    REFERENCE_MAX_N,
    SparsePoly,
    det_mod,
    eval_points,
    expand,
    expand_bouquet,
    reference_det,
    trial_point,
)
from smlc.serialize import bouquet_from_obj, loads


def assert_rechecks(rc):
    """Inference on rc's circuit reproduces the (sigma, degree) rc carries."""
    again = regular(rc.circuit, rc.sigma)
    assert (again.sigma, again.degree) == (rc.sigma, rc.degree)


def assert_bouquet_rechecks(bouquet):
    for rc in bouquet.summands:
        assert_rechecks(rc)


def grid(n):
    """Every (row, col) of the n x n grid, row by row."""
    return [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]


def assert_computes_det(doc, seed, trials=3):
    """doc computes det_d, d its grid size: exactly up to REFERENCE_MAX_N, else at seeded points."""
    d = doc.n
    if d <= REFERENCE_MAX_N:
        poly = expand_bouquet(doc) if isinstance(doc, Bouquet) else expand(doc)
        assert poly.terms == reference_det(d).terms
        return
    indices = range(1, d + 1)
    points = [trial_point(grid(d), seed, t) for t in range(trials)]
    matrices = [[[point[r, c] for c in indices] for r in indices] for point in points]
    assert eval_points(doc, points) == [det_mod(matrix) for matrix in matrices]


def eval_mod(poly, assignment):
    """Value of a SparsePoly at the assignment, mod PRIME."""
    total = 0
    for mono, coeff in poly.terms.items():
        term = coeff % PRIME
        for row, col in mono:
            term = term * (assignment[(row, col)] % PRIME) % PRIME
        total = (total + term) % PRIME
    return total


def _nonzero(n, terms):
    return SparsePoly(n, {mono: coeff for mono, coeff in terms.items() if coeff})


def poly_add(a, b):
    terms = dict(a.terms)
    for mono, coeff in b.terms.items():
        terms[mono] = terms.get(mono, 0) + coeff
    return _nonzero(a.n, terms)


def poly_scaled(a, factor):
    return _nonzero(a.n, {mono: factor * coeff for mono, coeff in a.terms.items()})


def poly_mul(a, b):
    """a * b over every pair of terms; the two monomials of a pair must use distinct rows."""
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            rows = [row for row, _ in ma + mb]
            assert len(set(rows)) == len(rows), f"{ma} * {mb} reuses a row"
            mono = tuple(sorted(ma + mb))
            terms[mono] = terms.get(mono, 0) + ca * cb
    return _nonzero(a.n, terms)


def expand_nodes(circuit):
    """The circuit's polynomial, one fresh SparsePoly per node, no operand reused."""
    n, nodes = circuit.n, circuit.nodes
    polys = []
    for op, a, b in zip(nodes.op, nodes.a, nodes.b):
        if op == CONST:
            polys.append(_nonzero(n, {(): a}))
        elif op == VAR:
            polys.append(SparsePoly(n, {((a, b),): 1}))
        elif op == ADD:
            polys.append(poly_add(polys[a], polys[b]))
        else:
            assert op == MUL
            polys.append(poly_mul(polys[a], polys[b]))
    return polys[circuit.root]


def join(op, first, second):
    """first and second under one new ADD or MUL gate.  second's child ids move
    past first's nodes; under MUL its rows also move past first's grid, so the
    two factors share no row and the product is over first.n + second.n rows."""
    x, y = first.nodes, second.nodes
    offset, shift = len(x), first.n if op == MUL else 0
    ya = tuple(v + offset if o < VAR else v + shift if o == VAR else v for o, v in zip(y.op, y.a))
    yb = tuple(v + offset if o < VAR else v for o, v in zip(y.op, y.b))
    nodes = Nodes(x.op + y.op + (op,), x.a + ya + (first.root,), x.b + yb + (second.root + offset,))
    return Circuit(first.n + (second.n if op == MUL else 0), nodes, offset + len(y))


def c(n, *nodes, root=None):
    """A circuit over n rows from node objects; its root is the last node unless given."""
    return Circuit(n=n, nodes=tuple(nodes), root=len(nodes) - 1 if root is None else root)


def project_terms(poly, keep):
    """The terms of poly after projection onto keep, as a substitution: dropped
    rows pin their diagonal variable to 1 and the rest of their row and column
    to 0; kept rows and columns are renamed by rank."""
    keep_set = set(keep)
    rank = {v: i + 1 for i, v in enumerate(sorted(keep_set))}
    out = {}
    for mono, coeff in poly.terms.items():
        renamed = []
        dead = False
        for r, c in mono:
            if r in keep_set and c in keep_set:
                renamed.append((rank[r], rank[c]))
            elif r not in keep_set and c == r:
                continue
            else:
                dead = True
                break
        if dead:
            continue
        key = tuple(sorted(renamed))
        out[key] = out.get(key, 0) + coeff
    return {m: c for m, c in out.items() if c}


def longest_monotone_len(seq):
    """Length of the longest increasing or decreasing subsequence, by a quadratic DP."""
    best = 1
    for sign in (1, -1):
        vals = [sign * x for x in seq]
        dp = [1] * len(vals)
        for i in range(len(vals)):
            for j in range(i):
                if vals[j] < vals[i]:
                    dp[i] = max(dp[i], dp[j] + 1)
        best = max(best, max(dp))
    return best


def det_of_matrix(matrix):
    """Determinant of a square integer matrix, summed over the Leibniz reference terms."""
    total = 0
    for mono, coeff in reference_det(len(matrix)).terms.items():
        for r, col in mono:
            coeff *= matrix[r - 1][col - 1]
        total += coeff
    return total


seeds = st.integers(0, 2**32 - 1)


def perms(n):
    return st.permutations(range(1, n + 1)).map(tuple)


# Upper bound on the expanded term count of a random circuit, so generated
# instances always stay within the exact oracle's fixed poly.TERM_BUDGET.
_EXPANSION_GUARD = 50_000


def random_regular_circuit(sigma, seed, size_budget):
    """Random full-degree regular circuit w.r.t. sigma with at most size_budget nodes.

    n is len(sigma).  The callers pass a permutation of [1..n] and a budget
    of at least 2n-1 (one variable per row joined by products) unchecked;
    the closing `regular` checks what comes out.  Grows top-down over
    position spans: a span either splits multiplicatively at a random point,
    or (budget permitting) becomes a sum of two circuits over the same
    span.  A tight budget degenerates to the minimal left-comb product of one
    variable per row.  Expanded term counts are capped so the exact oracle can
    always afford the result.  Deterministic for a fixed seed.
    """
    n = len(sigma)
    rng = random.Random(seed)
    b = Builder()

    def build(lo, hi, budget, term_cap):
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


@st.composite
def regular_circuits(draw, n, sigma=None):
    """A random full-degree regular circuit over n rows, w.r.t. sigma or a drawn order."""
    sigma = sigma or draw(perms(n))
    return random_regular_circuit(sigma, draw(seeds), draw(st.integers(2 * n - 1, 60)))


@st.composite
def det_bouquets(draw, n):
    """A Leibniz determinant bouquet over n rows with 1 to 3 distinct orders."""
    k = draw(st.integers(1, min(3, math.factorial(n))))
    return seeded_det_bouquet(n, k, draw(seeds))


CliRun = namedtuple("CliRun", "code out err")


def run_cli(args, stdin=""):
    """`smlc ARGS` in-process with stdin read from a string: its exit code,
    stdout and stderr; argparse's SystemExit is read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def read_whole(text):
    """The canonical bouquet reader: the whole document decoded, then converted."""
    return bouquet_from_obj(loads(text))


def read_outcome(read, text):
    """read(text), or the class and message of the exception it raised."""
    try:
        return read(text)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
