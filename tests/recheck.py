"""Test helper: re-run full regularity inference on a pass output.

`compose`, `reverse`, `merge_summands` and `project` build their results
from the input's (sigma, degree) without calling `regular`.  The tests check
that claim here instead of in the library.
"""

from smlc.circuit import regular


def assert_rechecks(rc):
    """Inference on rc's circuit reproduces the (sigma, degree) rc carries."""
    again = regular(rc.circuit, rc.sigma)
    assert (again.sigma, again.degree) == (rc.sigma, rc.degree)


def assert_bouquet_rechecks(bouquet):
    for rc in bouquet.summands:
        assert_rechecks(rc)
