"""Strategies over the regularity checker's inputs, and how an outcome is read.

The inputs are generated summands, each either left intact or broken in one
way, so both the accepting sweep and the error reporting behind it are
exercised; an outcome is the (sigma, degree) accepted, or the exception class
and message.  `test_one_checker.py` runs these cases against an independent
reference.
"""

from dataclasses import replace

from hypothesis import strategies as st
from recheck import det_bouquets, perms, regular_circuits

from smlc.circuit import (
    Add,
    Circuit,
    ConstLeaf,
    Mul,
    VarLeaf,
    regular,
)


def outcome(check, circuit, sigma):
    try:
        if callable(circuit):  # a circuit whose construction raises (see foreign_node)
            circuit = circuit()
        return "ok", check(circuit, sigma)
    except Exception as exc:  # the exception class and message are the outcome
        return type(exc), str(exc)


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
    # an object of no node class fails when the circuit converts it, so it is
    # built inside the outcome wrapper
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
    circuit, sigma = draw(summands())
    mutate = draw(st.sampled_from(MUTATIONS))
    return mutate(draw, circuit, sigma)


def via_regular(circuit, sigma):
    rc = regular(circuit, sigma)
    assert rc.circuit is circuit
    return rc.sigma, rc.degree


# x3 * x2 is adjacent in the wrong order; accepting it as if it were in the
# right one would let x1*x2 times it pass as a degree-2 prefix, but the
# factors overlap in row 2
OVERLAP_BEHIND_BAD_ADJACENCY = (
    Circuit(3, (VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1), VarLeaf(3, 3), Mul(3, 1), Mul(2, 4)), 5),
    (1, 2, 3),
)
