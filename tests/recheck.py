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
elimination mod PRIME.  `cases` draws the regularity checker's inputs: a
summand from `summands`, left intact or broken by one of `MUTATIONS`.
`outcome` is what a call makes: its value, or the class and message of what
it raised.  `spy` records the calls a test patches in.  A helper that two
test modules use is defined here, once.
"""

import io
import math
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

from hypothesis import strategies as st

from smlc import cli
from smlc.circuit import (
    ADD,
    CONST,
    MUL,
    VAR,
    Add,
    Bouquet,
    Builder,
    Circuit,
    ConstLeaf,
    Mul,
    Nodes,
    VarLeaf,
    regular,
)
from smlc.generators import seeded_det_bouquet
from smlc.poly import (
    PRIME,
    REFERENCE_MAX_N,
    SparsePoly,
    det_mod,
    eval_points,
    expand,
    expand_bouquet,
    random_perm,
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
    ya = [v + offset if o < VAR else v + shift if o == VAR else v for o, v in zip(y.op, y.a)]
    yb = [v + offset if o < VAR else v for o, v in zip(y.op, y.b)]
    nodes = Nodes([*x.op, *y.op, op], [*x.a, *ya, first.root], [*x.b, *yb, second.root + offset])
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


@st.composite
def summands(draw):
    """A random, determinant or constant summand, over a grid with up to two
    rows it does not read (so its degree may be below n)."""
    kind = draw(st.sampled_from(("random", "det", "const")))
    n = draw(st.integers(1, 5 if kind == "random" else 4))
    if kind == "random":
        rc = draw(regular_circuits(n))
    elif kind == "det":
        rc = draw(st.sampled_from(draw(det_bouquets(n)).summands))
    else:
        rc = regular(Circuit(n, (ConstLeaf(draw(st.integers(-2, 2))),), 0), draw(perms(n)))
    extra = draw(st.integers(0, 2))
    return replace(rc.circuit, n=n + extra), rc.sigma + tuple(range(n + 1, n + extra + 1))


def _pick(draw, circuit, kinds):
    # (id, node) of a drawn node of one of `kinds`, or (None, None)
    picks = [(vid, node) for vid, node in enumerate(circuit.nodes) if isinstance(node, kinds)]
    return draw(st.sampled_from(picks)) if picks else (None, None)


def _put(circuit, vid, node):
    nodes = list(circuit.nodes)
    nodes[vid] = node
    return replace(circuit, nodes=tuple(nodes))


def intact(draw, circuit, sigma):
    return circuit, sigma


def swap_mul_children(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, Mul)
    if vid is None:
        return circuit, sigma
    return _put(circuit, vid, Mul(node.right, node.left)), sigma


def move_leaf_row(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, VarLeaf)
    if vid is None:
        return circuit, sigma
    row = draw(st.integers(1, circuit.n))
    return _put(circuit, vid, VarLeaf(row, node.col)), sigma


def variable_out_of_range(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, VarLeaf)
    if vid is None:
        return circuit, sigma
    # one draw over every (field, value) pair, just past the grid first: the
    # draws favour early entries, and with separate field and value draws no
    # col = n+1 came up in a run
    pairs = [(f, v) for v in (circuit.n + 1, 0, -1) for f in ("col", "row")]
    field, bad = draw(st.sampled_from(pairs))
    leaf = VarLeaf(bad, node.col) if field == "row" else VarLeaf(node.row, bad)
    return _put(circuit, vid, leaf), sigma


def non_int_row(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, VarLeaf)
    if vid is None:
        return circuit, sigma
    row = draw(st.sampled_from((float(node.row), str(node.row))))
    return _put(circuit, vid, VarLeaf(row, node.col)), sigma


def bad_child_reference(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, (Add, Mul))
    if vid is None:
        return circuit, sigma
    ref = draw(st.sampled_from((vid, vid + 1, -1, -2)))
    gate = type(node)(ref, node.right) if draw(st.booleans()) else type(node)(node.left, ref)
    return _put(circuit, vid, gate), sigma


def sigma_wrong_length(draw, circuit, sigma):
    longer = draw(st.sampled_from(((len(sigma) + 1,), sigma[:1])))
    return circuit, draw(st.sampled_from((sigma[:-1], sigma + longer)))


def sigma_not_a_permutation(draw, circuit, sigma):
    p = draw(st.integers(0, len(sigma) - 1))
    value = draw(st.sampled_from((0, len(sigma) + 1, sigma[p - 1], float(sigma[p]))))
    return circuit, sigma[:p] + (value,) + sigma[p + 1 :]


def swap_sigma_positions(draw, circuit, sigma):
    if len(sigma) < 2:
        return circuit, sigma
    p, q = draw(st.lists(st.integers(0, len(sigma) - 1), min_size=2, max_size=2, unique=True))
    swapped = list(sigma)
    swapped[p], swapped[q] = sigma[q], sigma[p]
    return circuit, tuple(swapped)


def rewire_child(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, draw(st.sampled_from((Add, Mul))))
    if vid is None:
        return circuit, sigma
    ref = draw(st.integers(0, vid - 1))
    gate = type(node)(ref, node.right) if draw(st.booleans()) else type(node)(node.left, ref)
    return _put(circuit, vid, gate), sigma


def empty_grid(draw, circuit, sigma):
    return replace(circuit, n=0), draw(st.sampled_from((sigma, ())))


def other_root(draw, circuit, sigma):
    return replace(circuit, root=draw(st.integers(-1, len(circuit.nodes)))), sigma


def non_int_constant(draw, circuit, sigma):
    vid, node = _pick(draw, circuit, ConstLeaf)
    if vid is None:
        return circuit, sigma
    value = draw(st.sampled_from((float(node.value), node.value + 0.5, str(node.value))))
    return _put(circuit, vid, ConstLeaf(value)), sigma


def non_int_reference(draw, circuit, sigma):
    # a float indexes no list, and a bool indexes node 0 or 1
    vid, node = _pick(draw, circuit, (Add, Mul))
    if vid is None:
        return circuit, sigma
    ref = draw(st.sampled_from((float(node.left), False, True)))
    gate = type(node)(ref, node.right) if draw(st.booleans()) else type(node)(node.left, ref)
    return _put(circuit, vid, gate), sigma


def non_int_root(draw, circuit, sigma):
    root = draw(st.sampled_from((float(circuit.root), False, True)))
    return replace(circuit, root=root), sigma


def foreign_node(draw, circuit, sigma):
    vid = draw(st.integers(0, len(circuit.nodes) - 1))
    # an object of no node class fails when the circuit converts it, so the
    # case is a function that builds it, called inside the check
    return (lambda: _put(circuit, vid, object())), sigma


MUTATIONS = (
    intact,
    swap_mul_children,
    move_leaf_row,
    variable_out_of_range,
    non_int_row,
    bad_child_reference,
    sigma_wrong_length,
    sigma_not_a_permutation,
    swap_sigma_positions,
    rewire_child,
    empty_grid,
    other_root,
    non_int_constant,
    non_int_reference,
    non_int_root,
    foreign_node,
)


@st.composite
def cases(draw):
    """A (circuit, sigma) pair: a drawn summand, left intact or broken in one drawn way."""
    circuit, sigma = draw(summands())
    mutate = draw(st.sampled_from(MUTATIONS))
    return mutate(draw, circuit, sigma)


def sample_det_bouquets():
    """Three seeded Leibniz determinant bouquets, n = 3, 5 and 6."""
    return [seeded_det_bouquet(n, k, seed) for n, k, seed in ((3, 2, 1), (5, 3, 7), (6, 2, 2))]


def sample_random_bouquets():
    """Three bouquets of random regular summands, n = 4, 6 and 8; they compute no determinant."""
    rng = random.Random(17)
    out = []
    for n, k in ((4, 3), (6, 3), (8, 2)):
        summands = tuple(
            random_regular_circuit(
                seed=rng.randrange(2**32),
                size_budget=rng.randint(2 * n - 1, 80),
                sigma=random_perm(n, rng),
            )
            for _ in range(k)
        )
        out.append(Bouquet(n, summands))
    return out


def over_budget_circuit():
    """n = 11: two products of three 11-variable row sums under one Mul (131 nodes).

    Each product has 11^3 = 1331 terms, so the last Mul would need 1331^2,
    which exceeds TERM_BUDGET = 10^6, while every earlier node is small.
    """
    nodes = []

    def push(node):
        nodes.append(node)
        return len(nodes) - 1

    def row_sum(row):
        acc = push(VarLeaf(row, 1))
        for col in range(2, 12):
            acc = push(Add(acc, push(VarLeaf(row, col))))
        return acc

    def product(rows):
        acc = row_sum(rows[0])
        for row in rows[1:]:
            acc = push(Mul(acc, row_sum(row)))
        return acc

    root = push(Mul(product((1, 2, 3)), product((4, 5, 6))))
    return Circuit(11, tuple(nodes), root)


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


def outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def spy(monkeypatch, owner, name):
    """Patch owner.name to record each call's arguments, then call through; return the record."""
    calls, original = [], getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls
