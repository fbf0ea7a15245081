"""Test helpers that recheck library results by an independent route.

`compose`, `reverse`, `merge_summands` and `project` build their results
from the input's (sigma, degree) without calling `regular`.  The tests check
that claim here instead of in the library.

`eval_mod` evaluates an expanded polynomial term by term, reducing mod PRIME
at every operation, so it shares no code with `poly.eval_points`.
"""

from smlc.circuit import regular
from smlc.poly import PRIME


def assert_rechecks(rc):
    """Inference on rc's circuit reproduces the (sigma, degree) rc carries."""
    again = regular(rc.circuit, rc.sigma)
    assert (again.sigma, again.degree) == (rc.sigma, rc.degree)


def assert_bouquet_rechecks(bouquet):
    for rc in bouquet.summands:
        assert_rechecks(rc)


def eval_mod(poly, assignment):
    """Value of a SparsePoly at the assignment, mod PRIME."""
    total = 0
    for mono, coeff in poly.terms.items():
        term = coeff % PRIME
        for row, col in mono:
            term = term * (assignment[(row, col)] % PRIME) % PRIME
        total = (total + term) % PRIME
    return total
