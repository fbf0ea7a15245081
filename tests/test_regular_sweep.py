"""`regular` agrees with the named path (`infer_order`, then the root check).

The inputs are generated summands, each either left intact or broken in one
way, so both the accepting sweep and the error reporting behind it are
compared: the same (sigma, degree), or the same exception class and message.
"""

import math
import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from smlc.circuit import (
    Add,
    Circuit,
    ConstLeaf,
    Mul,
    RootNotPrefix,
    VarLeaf,
    infer_order,
    regular,
)
from smlc.generators import det_bouquet, distinct_perms, random_regular_circuit

sweeps = settings(derandomize=True, deadline=None, max_examples=400)

seeds = st.integers(0, 2**32 - 1)


def named_path(circuit, sigma):
    root_iv = infer_order(circuit, sigma)[circuit.root]
    if root_iv is not None and root_iv[0] != 1:
        raise RootNotPrefix(*root_iv)
    return tuple(sigma), 0 if root_iv is None else root_iv[1]


def outcome(check, circuit, sigma):
    try:
        if callable(circuit):  # a circuit whose construction raises (see foreign_node)
            circuit = circuit()
        return "ok", check(circuit, sigma)
    except Exception as exc:  # the exception class and message are the outcome
        return type(exc), str(exc)


class SubMul(Mul):
    __slots__ = ()


class Foreign:
    """A node-like object of no circuit type, with child fields."""

    def __init__(self, left, right):
        self.left, self.right = left, right


@st.composite
def summands(draw):
    """A random, determinant or constant summand, over a grid with up to two
    rows it does not read (so its degree may be below n)."""
    kind = draw(st.sampled_from(("random", "det", "const")))
    n = draw(st.integers(1, 5 if kind == "random" else 4))
    if kind == "random":
        sigma = tuple(draw(st.permutations(range(1, n + 1))))
        circuit = random_regular_circuit(
            sigma, draw(seeds), draw(st.integers(2 * n - 1, 60))
        ).circuit
    elif kind == "det":
        seed = draw(seeds)
        k = draw(st.integers(1, min(3, math.factorial(n))))
        bouquet = det_bouquet(n, distinct_perms(n, k, random.Random(seed)), seed)
        rc = bouquet.summands[draw(st.integers(0, k - 1))]
        circuit, sigma = rc.circuit, rc.sigma
    else:
        sigma = tuple(draw(st.permutations(range(1, n + 1))))
        circuit = Circuit(n, (ConstLeaf(draw(st.integers(-2, 2))),), 0)
    extra = draw(st.integers(0, 2))
    return replace(circuit, n=n + extra), sigma + tuple(range(n + 1, n + extra + 1))


def _pick(draw, circuit, kinds):
    ids = [vid for vid, node in enumerate(circuit.nodes) if isinstance(node, kinds)]
    return draw(st.sampled_from(ids)) if ids else None


def _put(circuit, vid, node):
    nodes = list(circuit.nodes)
    nodes[vid] = node
    return replace(circuit, nodes=tuple(nodes))


def intact(draw, circuit, sigma):
    return circuit, sigma


def swap_mul_children(draw, circuit, sigma):
    vid = _pick(draw, circuit, Mul)
    if vid is None:
        return circuit, sigma
    node = circuit.nodes[vid]
    return _put(circuit, vid, Mul(node.right, node.left)), sigma


def move_leaf_row(draw, circuit, sigma):
    vid = _pick(draw, circuit, VarLeaf)
    if vid is None:
        return circuit, sigma
    row = draw(st.integers(1, circuit.n))
    return _put(circuit, vid, VarLeaf(row, circuit.nodes[vid].col)), sigma


def variable_out_of_range(draw, circuit, sigma):
    vid = _pick(draw, circuit, VarLeaf)
    if vid is None:
        return circuit, sigma
    node = circuit.nodes[vid]
    # one draw over every (field, value) pair, just past the grid first: the
    # draws favour early entries, and with separate field and value draws no
    # col = n+1 came up in a run
    pairs = [(f, v) for v in (circuit.n + 1, 0, -1) for f in ("col", "row")]
    field, bad = draw(st.sampled_from(pairs))
    leaf = VarLeaf(bad, node.col) if field == "row" else VarLeaf(node.row, bad)
    return _put(circuit, vid, leaf), sigma


def non_int_row(draw, circuit, sigma):
    vid = _pick(draw, circuit, VarLeaf)
    if vid is None:
        return circuit, sigma
    node = circuit.nodes[vid]
    row = draw(st.sampled_from((float(node.row), str(node.row))))
    return _put(circuit, vid, VarLeaf(row, node.col)), sigma


def bad_child_reference(draw, circuit, sigma):
    vid = _pick(draw, circuit, (Add, Mul))
    if vid is None:
        return circuit, sigma
    node = circuit.nodes[vid]
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
    vid = _pick(draw, circuit, draw(st.sampled_from((Add, Mul))))
    if vid is None:
        return circuit, sigma
    node = circuit.nodes[vid]
    ref = draw(st.integers(0, vid - 1))
    gate = type(node)(ref, node.right) if draw(st.booleans()) else type(node)(node.left, ref)
    return _put(circuit, vid, gate), sigma


def empty_grid(draw, circuit, sigma):
    return replace(circuit, n=0), draw(st.sampled_from((sigma, ())))


def other_root(draw, circuit, sigma):
    return replace(circuit, root=draw(st.integers(-1, len(circuit.nodes)))), sigma


def foreign_node(draw, circuit, sigma):
    vid = draw(st.integers(0, len(circuit.nodes) - 1))
    node = circuit.nodes[vid]
    left, right = (node.left, node.right) if isinstance(node, (Add, Mul)) else (0, 0)
    kind = draw(st.sampled_from((object, Foreign, SubMul)))
    if kind is object:
        # a node without child fields fails when the circuit converts it, so
        # it is built inside the outcome wrapper
        return (lambda: _put(circuit, vid, object())), sigma
    return _put(circuit, vid, kind(left, right)), sigma


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


@sweeps
@given(cases())
@example(OVERLAP_BEHIND_BAD_ADJACENCY)
def test_regular_agrees_with_named_path(case):
    circuit, sigma = case
    assert outcome(via_regular, circuit, sigma) == outcome(named_path, circuit, sigma)
