"""Test helpers that recheck library results by an independent route.

`compose`, `reverse`, `merge_summands` and `project` build their results
from the input's (sigma, degree) without calling `regular`.  The tests check
that claim here instead of in the library.

`eval_mod` evaluates an expanded polynomial term by term, reducing mod PRIME
at every operation, so it shares no code with `poly.eval_points`.

`poly_add`, `poly_scaled` and `poly_mul` are the polynomial arithmetic the
tests need, written term by term on `SparsePoly` values without any of
`poly`'s code; `expand_nodes` builds a fresh polynomial at every node from
them, a reference for `poly.expand`, which reuses the dicts of dead operands.

`assert_computes_det` checks that a circuit or bouquet computes the
determinant of its grid size: exactly against the Leibniz reference where
that exists, and above it at seeded points against elimination mod PRIME.
"""

from smlc.circuit import ADD, CONST, MUL, VAR, Bouquet, regular
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


def assert_rechecks(rc):
    """Inference on rc's circuit reproduces the (sigma, degree) rc carries."""
    again = regular(rc.circuit, rc.sigma)
    assert (again.sigma, again.degree) == (rc.sigma, rc.degree)


def assert_bouquet_rechecks(bouquet):
    for rc in bouquet.summands:
        assert_rechecks(rc)


def assert_computes_det(doc, seed, trials=3):
    """doc computes det_d, d its grid size: exactly up to REFERENCE_MAX_N, else at seeded points."""
    d = doc.n
    if d <= REFERENCE_MAX_N:
        poly = expand_bouquet(doc) if isinstance(doc, Bouquet) else expand(doc)
        assert poly.terms == reference_det(d).terms
        return
    indices = range(1, d + 1)
    points = [trial_point([(r, c) for r in indices for c in indices], seed, t) for t in range(trials)]
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
