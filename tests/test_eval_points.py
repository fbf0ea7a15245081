"""eval_points against a node-by-node reference evaluator, as property tests,
and its summand-major sweep: any iterable of points, the point-major order of
MissingAssignment, and one compiled summand alive at a time."""

import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import det_bouquets, grid, outcome, regular_circuits

from smlc.circuit import (
    Add,
    Bouquet,
    Circuit,
    ConstLeaf,
    Mul,
    RegularCircuit,
    VarLeaf,
    regular,
    validate,
    variables_of,
)
from smlc.generators import det_bouquet, seeded_det_bouquet
from smlc.pipeline import VerificationFailed, reduce_to_single
from smlc.poly import (
    ADD_MOD,
    CONST,
    MUL_MOD,
    PRIME,
    MissingAssignment,
    _compile,
    eval_bouquet,
    eval_circuit,
    eval_points,
    expand_bouquet,
    reference_det,
    trial_point,
)

props = settings(derandomize=True, deadline=None, max_examples=200)

def reference_eval(circuit, assignment):
    """One isinstance dispatch per node, per point: the evaluator eval_points replaced."""
    values = []
    for node in circuit.nodes:
        if isinstance(node, ConstLeaf):
            values.append(node.value % PRIME)
        elif isinstance(node, VarLeaf):
            key = (node.row, node.col)
            if key not in assignment:
                raise MissingAssignment(node.row, node.col)
            values.append(assignment[key] % PRIME)
        elif isinstance(node, Add):
            values.append((values[node.left] + values[node.right]) % PRIME)
        else:
            values.append(values[node.left] * values[node.right] % PRIME)
    return values[circuit.root]


def reference_points(doc, points):
    if isinstance(doc, Circuit):
        return [reference_eval(doc, point) for point in points]
    out = []
    for point in points:
        total = 0
        for rc in doc.summands:
            total = (total + reference_eval(rc.circuit, point)) % PRIME
        out.append(total * doc.sign % PRIME)
    return out


big_ints = st.one_of(
    st.integers(-3 * PRIME, 3 * PRIME),
    st.sampled_from((-1, 0, 1, PRIME - 1, PRIME, PRIME + 1, -PRIME, 2 * PRIME)),
)


@st.composite
def dags(draw, n):
    """Any DAG of leaves and gates, set-multilinear or not: big and negative
    constants, and few enough choices that equal subtrees recur."""
    nodes = []
    for vid in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("const", "var", "gate") if vid else ("const", "var")))
        if kind == "const":
            nodes.append(ConstLeaf(draw(big_ints)))
        elif kind == "var":
            nodes.append(VarLeaf(draw(st.integers(1, n)), draw(st.integers(1, n))))
        else:
            gate = draw(st.sampled_from((Add, Mul)))
            refs = st.integers(max(0, vid - 4), vid - 1)
            nodes.append(gate(draw(refs), draw(refs)))
    return Circuit(n, tuple(nodes), draw(st.integers(0, len(nodes) - 1)))


def duplicated(draw, circuit):
    """The same polynomial with every node stored twice; each gate reads
    either copy of each child, so structurally equal nodes abound."""
    nodes = []
    for node in circuit.nodes:
        if isinstance(node, (Add, Mul)):
            left = 2 * node.left + draw(st.integers(0, 1))
            right = 2 * node.right + draw(st.integers(0, 1))
            node = type(node)(left, right)
        nodes.extend((node, node))
    return Circuit(circuit.n, tuple(nodes), 2 * circuit.root + draw(st.integers(0, 1)))


@st.composite
def docs(draw):
    """A circuit or a bouquet of either sign, over an n-row grid."""
    n = draw(st.integers(1, 4))
    source = draw(st.sampled_from(("random", "det", "dag")))
    if source == "random":
        circuits = [draw(regular_circuits(n)).circuit for _ in range(draw(st.integers(1, 3)))]
    elif source == "det":
        circuits = [rc.circuit for rc in draw(det_bouquets(n)).summands]
    else:
        circuits = [draw(dags(n)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        circuits = [duplicated(draw, c) for c in circuits]
    if draw(st.booleans()):
        return circuits[0]
    sign = draw(st.sampled_from((1, -1)))
    # regularity plays no part in evaluation, so a DAG is wrapped unchecked
    identity = tuple(range(1, n + 1))
    return Bouquet(n, tuple(RegularCircuit(c, identity, 0) for c in circuits), sign)


@st.composite
def points_for(draw, n, drop=False):
    """Between 0 and 4 points over the whole grid, with values out of [0, PRIME)
    too; with drop, one variable is missing from one point."""
    keys = grid(n)
    points = [
        {key: draw(big_ints) for key in keys} for _ in range(draw(st.integers(0, 4)))
    ]
    if drop and points:
        del draw(st.sampled_from(points))[draw(st.sampled_from(keys))]
    return points


@props
@given(st.data())
def test_eval_points_matches_reference(data):
    doc = data.draw(docs())
    points = data.draw(points_for(doc.n))
    got = eval_points(doc, points)
    assert got == reference_points(doc, points)
    if isinstance(doc, Circuit):
        assert [eval_circuit(doc, p) for p in points] == got
    else:
        assert [eval_bouquet(doc, p) for p in points] == got


@props
@given(st.data())
def test_missing_variable_names_the_same_leaf(data):
    doc = data.draw(docs())
    points = data.draw(points_for(doc.n, drop=True))
    got = outcome(eval_points, doc, points)
    assert got == outcome(reference_points, doc, points)
    assert isinstance(got, list) or got[0] is MissingAssignment  # no other error passes


def test_congruent_constants_share_gates():
    # 1, PRIME + 1 and 1 - PRIME are one field element, so each scales x[1,1]
    # through the same value-numbered product; PRIME + 2 is a different one
    consts = (1, PRIME + 1, 1 - PRIME, PRIME + 2)
    nodes = [ConstLeaf(v) for v in consts] + [VarLeaf(1, 1)]
    nodes += [Mul(i, 4) for i in range(4)] + [Add(5, 6), Add(9, 7), Add(10, 8)]
    circuit = Circuit(1, tuple(nodes), len(nodes) - 1)
    points = [{(1, 1): v} for v in (3, PRIME - 1, -PRIME - 2, 2 * PRIME + 5)]
    for doc in (circuit, Bouquet(1, (RegularCircuit(circuit, (1,), 0),), -1)):
        assert eval_points(doc, points) == reference_points(doc, points)


# values at the edges of the field and outside it, for the ceiling tests
EDGE_VALUES = (PRIME - 1, PRIME - 2, -1, -PRIME - 2, 3 * PRIME, 3 * PRIME - 1, -3 * PRIME + 1)


def edge_points(keys):
    rng = random.Random(len(keys))
    return [{key: rng.choice(EDGE_VALUES) for key in keys} for _ in range(12)]


def test_squaring_chain_is_reduced_below_the_ceiling():
    # 40 squarings of x11 * (-1) would need 61 * 2**40 bits unreduced
    nodes = [VarLeaf(1, 1), ConstLeaf(-1), Mul(0, 1)]
    nodes += [Mul(len(nodes) - 1 + i, len(nodes) - 1 + i) for i in range(40)]
    circuit = Circuit(1, tuple(nodes), len(nodes) - 1)
    program, _ = _compile(circuit)
    assert MUL_MOD in [op for op, _, _ in program]
    points = edge_points([(1, 1)])
    assert eval_points(circuit, points) == reference_points(circuit, points)


def test_long_addition_chain_is_reduced_below_the_ceiling():
    # x11 + x12 + (-1) + x11 + ... : 3,000 sums, each adding a bit to the bound
    nodes = [VarLeaf(1, 1), VarLeaf(1, 2), ConstLeaf(-1)]
    nodes.append(Add(0, 1))
    for i in range(2999):
        nodes.append(Add(len(nodes) - 1, i % 3))
    circuit = Circuit(2, tuple(nodes), len(nodes) - 1)
    program, _ = _compile(circuit)
    assert ADD_MOD in [op for op, _, _ in program]
    points = edge_points([(1, 1), (1, 2)])
    for doc in (circuit, Bouquet(2, (RegularCircuit(circuit, (1, 2), 0),) * 2, -1)):
        assert eval_points(doc, points) == reference_points(doc, points)


def test_constants_congruent_to_minus_one_share_a_slot_holding_minus_one():
    consts = (-1, PRIME - 1, 2 * PRIME - 1, -PRIME - 1)
    nodes = [ConstLeaf(v) for v in consts] + [VarLeaf(1, 1)]
    nodes += [Mul(i, 4) for i in range(4)] + [Add(5, 6), Add(9, 7), Add(10, 8)]
    circuit = Circuit(1, tuple(nodes), len(nodes) - 1)
    program, _ = _compile(circuit)
    assert [slot for slot in program if slot[0] == CONST] == [(CONST, -1, 0)]
    # the four products x11 * c are one slot, so the root is 4 * (-x11)
    assert len(program) == 6
    points = edge_points([(1, 1)])
    assert eval_points(circuit, points) == reference_points(circuit, points)
    assert eval_points(circuit, points) == [-4 * p[1, 1] % PRIME for p in points]


def _structure(circuit):
    # structural key of every node: equal keys compute the same polynomial
    keys = []
    for node in circuit.nodes:
        if isinstance(node, ConstLeaf):
            keys.append(("const", node.value))
        elif isinstance(node, VarLeaf):
            keys.append(("var", node.row, node.col))
        else:
            keys.append((type(node).__name__, keys[node.left], keys[node.right]))
    return keys


def _rewire_a_twin(rc):
    """rc with the right child of the later of two structurally equal Mul
    nodes replaced by another node of the same index set, so the two differ
    in one operand and the circuit stays regular; None if it has no twins."""
    circuit = rc.circuit
    keys = _structure(circuit)
    sets = validate(circuit)
    first = set()
    for vid, node in enumerate(circuit.nodes):
        if type(node) is not Mul:
            continue
        if keys[vid] not in first:
            first.add(keys[vid])
            continue
        for other in range(vid):
            if sets[other] == sets[node.right] and keys[other] != keys[node.right]:
                nodes = list(circuit.nodes)
                nodes[vid] = Mul(node.left, other)
                return regular(Circuit(circuit.n, tuple(nodes), circuit.root), rc.sigma)
    return None


def test_value_numbering_keeps_rewired_twins_apart():
    n = 4
    b = det_bouquet(n, [(1, 2, 3, 4), (4, 2, 3, 1)], 3)
    rewired = _rewire_a_twin(b.summands[1])
    assert rewired is not None
    broken = Bouquet(n, (b.summands[0], rewired), b.sign)
    assert expand_bouquet(broken).terms != reference_det(n).terms
    with pytest.raises(VerificationFailed) as info:
        reduce_to_single(broken, verify="random", seed=0)
    assert info.value.step == 0


def test_points_may_be_any_iterable():
    # every summand sweeps all the points, so a generator is read once, up front
    b = seeded_det_bouquet(5, 3, 1)
    assert len(b.summands) == 3
    points = [trial_point(grid(5), 1, t) for t in range(3)]
    assert eval_points(b, (point for point in points)) == eval_points(b, points)


def test_missing_variable_is_the_first_points_across_summands():
    # point 0 lacks a variable only summand 1 reads, point 1 one only summand
    # 0 reads: a point-by-point evaluation meets point 0's first
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], 5)
    first, second = (variables_of(rc.circuit) for rc in b.summands)
    only_1, only_0 = min(second - first), min(first - second)
    points = [{key: 1 for key in grid(3) if key != gone} for gone in (only_1, only_0)]
    with pytest.raises(MissingAssignment, match=re.escape("x[%d,%d]" % only_1)):
        eval_points(b, points)


def _peak(doc, points):
    """The traced peak of eval_points(doc, points), above what is already held."""
    gc.collect()
    tracemalloc.start()
    try:
        eval_points(doc, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("n, k, seed", [(7, 3, 1), (6, 3, 2), (7, 2, 3)])
def test_one_compiled_summand_is_alive_at_a_time(n, k, seed):
    # a bouquet peaks at about its largest summand's own peak, not at the sum
    # of its compiled programs (1.45-2.05x when all were compiled up front)
    b = seeded_det_bouquet(n, k, seed)
    points = [trial_point(grid(n), seed, t) for t in range(4)]
    whole = _peak(b, points)
    largest = max(_peak(rc.circuit, points) for rc in b.summands)
    assert whole <= 1.25 * largest, (whole, largest)
