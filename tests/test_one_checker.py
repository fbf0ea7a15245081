"""The one checker (`circuit._sweep`) against an independent reference.

The reference is the frozenset typing check and the (start, length) propagation
that `validate` and `infer_order` were before they became views of one
bitmask sweep, plus the root check of `regular`.  `regular`,
`infer_order`, `validate` and `stats(...)["degree"]` must equal it
in value, or raise the same exception class with the same message.
"""

import tracemalloc

from hypothesis import example, given, settings

from smlc.circuit import (
    Add,
    AddMismatch,
    BadChildRef,
    Circuit,
    CircuitError,
    ConstLeaf,
    Mul,
    MulOverlap,
    NotContiguous,
    RootNotPrefix,
    VariableOutOfRange,
    VarLeaf,
    WrongAdjacency,
    infer_order,
    stats,
    validate,
)
from test_regular_sweep import OVERLAP_BEHIND_BAD_ADJACENCY, cases, outcome, via_regular


def ref_validate(circuit):
    n = circuit.n
    if n < 1:
        raise CircuitError(f"grid size must be positive, got {n}")
    if not (0 <= circuit.root < len(circuit.nodes)):
        raise BadChildRef(circuit.root, circuit.root)

    sets = []
    for vid, node in enumerate(circuit.nodes):
        if isinstance(node, ConstLeaf):
            sets.append(frozenset())
        elif isinstance(node, VarLeaf):
            row, col = node.row, node.col
            if not (isinstance(row, int) and isinstance(col, int)) or not (
                1 <= row <= n and 1 <= col <= n
            ):
                raise VariableOutOfRange(vid, row, col, n)
            sets.append(frozenset((node.row,)))
        else:
            for ref in (node.left, node.right):
                if not (0 <= ref < vid):
                    raise BadChildRef(vid, ref)
            left, right = sets[node.left], sets[node.right]
            if isinstance(node, Add):
                if left != right:
                    raise AddMismatch(vid)
                sets.append(left)
            else:
                if left & right:
                    raise MulOverlap(vid)
                sets.append(left | right)
    return tuple(sets)


def _end(iv):
    return iv[0] + iv[1] - 1


def ref_infer_order(circuit, sigma):
    sets = ref_validate(circuit)
    n = circuit.n
    sigma = tuple(sigma)
    if not all(isinstance(row, int) for row in sigma) or sorted(sigma) != list(range(1, n + 1)):
        raise CircuitError(f"sigma {sigma} is not a permutation of [1..{n}]")
    position = {row: p for p, row in enumerate(sigma, start=1)}

    intervals = []
    for vid, node in enumerate(circuit.nodes):
        if isinstance(node, ConstLeaf):
            intervals.append(None)
        elif isinstance(node, VarLeaf):
            intervals.append((position[node.row], 1))
        elif isinstance(node, Add):
            intervals.append(intervals[node.left])
        else:
            li, ri = intervals[node.left], intervals[node.right]
            if li is None:
                intervals.append(ri)
            elif ri is None:
                intervals.append(li)
            elif _end(li) + 1 == ri[0]:
                intervals.append((li[0], li[1] + ri[1]))
            elif _end(ri) + 1 == li[0]:
                raise WrongAdjacency(vid)
            else:
                raise NotContiguous(vid, sets[vid])
    return sigma, tuple(intervals)


def ref_regular(circuit, sigma):
    sigma, intervals = ref_infer_order(circuit, sigma)
    root_iv = intervals[circuit.root]
    if root_iv is not None and root_iv[0] != 1:
        raise RootNotPrefix(*root_iv)
    return sigma, 0 if root_iv is None else root_iv[1]


# a row or col just past the grid, which the derandomized draws may miss
EDGE_ROW = (Circuit(2, (VarLeaf(3, 1),), 0), (1, 2))
EDGE_COL = (Circuit(2, (VarLeaf(1, 1), VarLeaf(2, 3), Mul(0, 1)), 2), (1, 2))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cases())
@example(OVERLAP_BEHIND_BAD_ADJACENCY)
@example(EDGE_ROW)
@example(EDGE_COL)
def test_every_view_agrees_with_the_reference(case):
    views = (
        (via_regular, ref_regular),
        (infer_order, lambda c, s: ref_infer_order(c, s)[1]),
        (lambda c, s: validate(c), lambda c, s: ref_validate(c)),
        (lambda c, s: stats(c)["degree"], lambda c, s: len(ref_validate(c)[c.root])),
    )
    for view, reference in views:
        assert outcome(view, *case) == outcome(reference, *case)


def test_no_per_row_cost_without_an_order():
    # one leaf on a 20000-row grid: a per-row table of masks would take 25 MB
    circuit = Circuit(20000, (VarLeaf(1, 1),), 0)
    for check in (validate, stats):
        tracemalloc.start()
        try:
            check(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (check.__name__, peak)
