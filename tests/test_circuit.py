"""Typing validation, interval inference, stats, and serialization round-trips."""

import random

import pytest
from recheck import c, run_cli

from smlc.circuit import (
    ADD,
    CONST,
    VAR,
    Add,
    AddMismatch,
    BadChildRef,
    Bouquet,
    Circuit,
    CircuitError,
    ConstLeaf,
    Mul,
    MulOverlap,
    Nodes,
    NotContiguous,
    RootNotPrefix,
    VariableOutOfRange,
    VarLeaf,
    WrongAdjacency,
    gate_count,
    infer_order,
    regular,
    stats,
    validate,
)
from smlc.generators import det_bouquet, det_regular_circuit, seeded_det_bouquet
from smlc.passes import PassError, compose, monotone_subsequence, project
from smlc.poly import NotAPermutation, random_perm
from smlc.serialize import (
    ParseError,
    bouquet_from_obj,
    bouquet_to_obj,
    circuit_from_obj,
    circuit_to_obj,
    dumps,
    loads,
)


# --- validate -------------------------------------------------------------

def test_single_var_leaf():
    sets = validate(c(3, VarLeaf(2, 3)))
    assert sets == (frozenset({2}),)


def test_mul_overlap_same_row():
    circuit = c(2, VarLeaf(1, 1), VarLeaf(1, 2), Mul(0, 1))
    with pytest.raises(MulOverlap) as err:
        validate(circuit)
    assert err.value.node_id == 2


def test_left_comb_product_index_set():
    # x[1,1] * x[2,2] * x[3,3], multiplied left to right
    circuit = c(3, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1), VarLeaf(3, 3), Mul(2, 3))
    sets = validate(circuit)
    assert sets[4] == frozenset({1, 2, 3})
    assert sets[2] == frozenset({1, 2})


def test_add_mismatch():
    circuit = c(2, VarLeaf(1, 1), VarLeaf(2, 2), Add(0, 1))
    with pytest.raises(AddMismatch):
        validate(circuit)


def test_bad_child_ref_forward():
    circuit = c(2, VarLeaf(1, 1), Mul(0, 5), root=1)
    with pytest.raises(BadChildRef):
        validate(circuit)


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        validate(c(2, VarLeaf(3, 1)))
    with pytest.raises(VariableOutOfRange):
        validate(c(2, VarLeaf(1, 0)))


def test_const_has_empty_set_and_const_product_allowed():
    circuit = c(2, ConstLeaf(2), ConstLeaf(3), Mul(0, 1))
    assert validate(circuit) == (frozenset(), frozenset(), frozenset())


# --- infer_order ----------------------------------------------------------

def test_infer_mul_identity_order():
    circuit = c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1))
    assert infer_order(circuit, (1, 2))[2] == (1, 2)


def test_infer_mul_reversed_order_is_wrong_adjacency():
    # under sigma=(2,1) the left child sits at position 2, right at position 1
    circuit = c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1))
    with pytest.raises(WrongAdjacency):
        infer_order(circuit, (2, 1))


def test_constant_factor_inherits_interval():
    circuit = c(1, ConstLeaf(3), VarLeaf(1, 1), Mul(0, 1))
    intervals = infer_order(circuit, (1,))
    assert intervals[2] == (1, 1)
    assert intervals[0] is None


def test_gap_is_not_contiguous():
    circuit = c(3, VarLeaf(1, 1), VarLeaf(3, 3), Mul(0, 1))
    with pytest.raises(NotContiguous) as err:
        infer_order(circuit, (1, 2, 3))
    assert err.value.index_set == frozenset({1, 3})


def test_add_children_share_interval():
    circuit = c(2, VarLeaf(1, 1), VarLeaf(1, 2), Add(0, 1), VarLeaf(2, 1), Mul(2, 3))
    intervals = infer_order(circuit, (1, 2))
    assert intervals[2] == (1, 1)
    assert intervals[4] == (1, 2)


def test_regular_requires_prefix_root():
    with pytest.raises(RootNotPrefix):
        regular(c(2, VarLeaf(2, 1)), (1, 2))
    # same leaf is fine when its row comes first in the order
    regular(c(2, VarLeaf(2, 1)), (2, 1))


def test_regularity_completeness_on_det_circuits():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(50):
            sigma = random_perm(n, rng)
            rc = det_regular_circuit(n, sigma)  # regular() runs inside
            assert rc.sigma == sigma


# --- non-int fields ----------------------------------------------------------


class SubInt(int):
    """An int subclass, which is not an int to the package."""


@pytest.mark.parametrize(
    ("row", "col"), [(1.5, 1), (1.0, 1), ("1", 1), (1, 1.0), (1, 2.5), (1, "2")]
)
def test_non_int_variable_field_is_out_of_range(row, col):
    circuit = c(2, VarLeaf(row, col), VarLeaf(2, 2), Mul(0, 1))
    detail = f"node 0: variable x[{row},{col}] outside [1..2]^2"
    for check in (validate, lambda cc: infer_order(cc, (1, 2)), lambda cc: regular(cc, (1, 2))):
        with pytest.raises(VariableOutOfRange) as err:
            check(circuit)
        assert str(err.value) == detail
    # the wire parser and the --sigma option reject the same fields: exit 2
    assert run_cli(["check-regular", "--sigma", "1,2"], dumps(circuit_to_obj(circuit))).code == 2


@pytest.mark.parametrize("sigma", [(1.0, 2), (1, 2.0), ("1", 2), (2, 1.5)])
def test_non_int_sigma_entry_is_not_a_permutation(sigma):
    circuit = c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1))
    detail = f"sigma {sigma} is not a permutation of [1..2]"
    for check in (infer_order, regular):
        with pytest.raises(CircuitError) as err:
            check(circuit, sigma)
        assert str(err.value) == detail
    args = ["check-regular", "--sigma", ",".join(map(repr, sigma))]
    assert run_cli(args, dumps(circuit_to_obj(circuit))).code == 2


def _det2():
    return det_bouquet(2, [(1, 2)], 0)


@pytest.mark.parametrize(
    ("make", "error"),
    [
        (lambda: det_bouquet(2, [(True, 2)], 0), NotAPermutation),
        (lambda: compose(_det2(), (2, True)), NotAPermutation),
        (lambda: project(_det2(), [True, 2]), PassError),
        (lambda: Bouquet(2, _det2().summands, sign=True), ValueError),
        (lambda: regular(c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)), (True, 2)), CircuitError),
        (lambda: regular(c(2, VarLeaf(True, 1), VarLeaf(2, 2), Mul(0, 1)), (1, 2)), VariableOutOfRange),
        (lambda: validate(c(2, VarLeaf(1, 1), VarLeaf(2, True))), VariableOutOfRange),
        (lambda: det_bouquet(True, [(1,)], 0), ValueError),
        (lambda: regular(c(True, VarLeaf(1, 1)), (1,)), CircuitError),
        (lambda: seeded_det_bouquet(3, True, 1), ValueError),
        (lambda: monotone_subsequence([True, 2]), PassError),
    ],
    ids=[
        "det_bouquet", "compose", "project", "sign", "sigma", "row", "col",
        "n", "circuit_n", "k", "sequence_entry",
    ],
)
def test_bool_is_not_an_int(make, error):
    # True passes as 1 in-process but serializes as true, which the parser rejects
    with pytest.raises(error):
        make()


@pytest.mark.parametrize(
    ("make", "value", "error"),
    [
        (lambda n: det_bouquet(n, [(1, 2)], 0), 2.0, ValueError),
        (lambda n: det_bouquet(n, [(1, 2)], 0), "2", ValueError),
        (lambda n: regular(c(n, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)), (1, 2)), 2.0, CircuitError),
        (lambda n: regular(c(n, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)), (1, 2)), "2", CircuitError),
        (lambda k: seeded_det_bouquet(3, k, 1), 1.5, ValueError),
        (lambda k: seeded_det_bouquet(3, k, 1), "2", ValueError),
        (lambda entry: monotone_subsequence([entry, 2]), 1.5, PassError),
        (lambda entry: monotone_subsequence([entry, "b"]), "a", PassError),
    ],
    ids=[
        "n-float", "n-str", "circuit_n-float", "circuit_n-str", "k-float", "k-str",
        "sequence_entry-float", "sequence_entry-str",
    ],
)
def test_float_or_str_size_is_a_typed_error(make, value, error):
    # never a bare TypeError from range(), randint() or a comparison
    with pytest.raises(error, match=r"must be (an int|ints), got"):
        make(value)


@pytest.mark.parametrize(
    "make",
    [_det2, lambda: compose(_det2(), (2, 1)), lambda: Bouquet(2, _det2().summands, sign=-1)],
    ids=["det_bouquet", "compose", "sign"],
)
def test_written_bouquets_parse_back(make):
    bouquet = make()
    assert bouquet_from_obj(loads(dumps(bouquet_to_obj(bouquet)))) == bouquet


@pytest.mark.parametrize(
    ("make", "error"),
    [
        (lambda: regular(c(2, VarLeaf(SubInt(1), 1), VarLeaf(2, 2), Mul(0, 1)), (1, 2)), VariableOutOfRange),
        (lambda: validate(c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(SubInt(0), 1))), BadChildRef),
        (lambda: regular(c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)), (SubInt(1), 2)), CircuitError),
        (lambda: compose(_det2(), (SubInt(2), 1)), NotAPermutation),
        (lambda: project(_det2(), [SubInt(1)]), PassError),
    ],
    ids=["row", "child", "sigma", "compose", "project"],
)
def test_int_subclass_is_not_an_int(make, error):
    with pytest.raises(error):
        make()


X11_X22 = (VarLeaf(1, 1), VarLeaf(2, 2))


@pytest.mark.parametrize(
    ("circuit", "error", "message"),
    [
        (c(2, ConstLeaf(0.5)), CircuitError, "node 0: constant 0.5 is not an int"),
        (c(2, ConstLeaf("3")), CircuitError, "node 0: constant '3' is not an int"),
        (c(2, *X11_X22, Mul(0.0, 1)), BadChildRef, "node 2 references invalid child id 0.0"),
        (c(2, *X11_X22, Mul(0, 1.0)), BadChildRef, "node 2 references invalid child id 1.0"),
        (c(2, *X11_X22, Add(False, 0)), BadChildRef, "node 2 references invalid child id False"),
        (c(2, *X11_X22, Mul(0, 1), root=2.0), BadChildRef, "node 2.0 references invalid child id 2.0"),
        (c(2, *X11_X22, Mul(0, 1), root=True), BadChildRef, "node True references invalid child id True"),
        (
            Circuit(2, Nodes((VAR, ADD), (1, 0), (1, 5)), 1),
            BadChildRef,
            "node 1 references invalid child id 5",
        ),
    ],
    ids=[
        "const-float", "const-str", "left-float", "right-float", "left-bool", "root-float", "root-bool",
        "add-right-past-gate",
    ],
)
def test_bad_constant_reference_or_root_is_a_typed_error(circuit, error, message):
    # never a bare TypeError or IndexError from a list index, nor a bool read as node 0 or 1
    for check in (validate, stats, lambda cc: infer_order(cc, (1, 2)), lambda cc: regular(cc, (1, 2))):
        with pytest.raises(error) as err:
            check(circuit)
        assert str(err.value) == message


# --- stats ----------------------------------------------------------------

def test_stats_single_leaf():
    st = stats(c(2, VarLeaf(1, 2)))
    assert (st["size"], st["depth"], st["degree"]) == (1, 0, 1)
    st0 = stats(c(2, ConstLeaf(9)))
    assert (st0["size"], st0["depth"], st0["degree"]) == (1, 0, 0)


def test_stats_two_leaf_product():
    st = stats(c(2, VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)))
    assert (st["size"], st["depth"], st["degree"]) == (3, 1, 2)


@pytest.mark.parametrize("op", [7, -1, None])
def test_unknown_opcode_is_a_typed_error(op):
    # not read as a constant, which no writer or oracle could then handle
    circuit = Circuit(2, Nodes((CONST, op), (1, 5), (0, 0)), 1)
    for check in (validate, stats, lambda cc: regular(cc, (1, 2))):
        with pytest.raises(CircuitError) as err:
            check(circuit)
        assert str(err.value) == f"node 1: unknown opcode {op!r}"


class SubMul(Mul):
    __slots__ = ()


class Product:
    """An object with child fields, of no node class."""

    def __init__(self, left, right):
        self.left, self.right = left, right


@pytest.mark.parametrize("node", [SubMul(0, 1), Product(0, 1), (0, 1), None])
def test_only_the_four_node_classes_convert(node):
    with pytest.raises(TypeError) as err:
        c(2, VarLeaf(1, 1), VarLeaf(2, 2), node)
    assert str(err.value) == f"node 2 is a {type(node).__name__}, not a node class"


def test_stats_det2_generator():
    rc = det_regular_circuit(2, (1, 2))
    st = stats(rc.circuit)
    # 4 shared leaves + 1 sign constant + 2 term products + 1 sign product + 1 sum
    assert st["degree"] == 2
    assert st["size"] == len(rc.circuit.nodes) == 9
    assert gate_count(rc.circuit) == 4


# --- serialization --------------------------------------------------------

def test_bouquet_sign_defaults_to_plus_one():
    from smlc.generators import det_bouquet

    b = det_bouquet(2, [(1, 2)], seed=0)
    obj = bouquet_to_obj(b)
    del obj["sign"]
    assert bouquet_from_obj(obj).sign == 1


def _doc(*nodes):
    return {"n": 2, "nodes": list(nodes), "root": 0}


VAR = {"id": 0, "op": "var", "row": 1, "col": 1}


class SubDict(dict):
    pass


@pytest.mark.parametrize(
    "doc, message",
    [
        (_doc(7), "node 0 is not an object"),
        (_doc({"op": "var", "row": 1, "col": 1}), "missing field 'id'"),
        (_doc({**VAR, "id": True}), "field 'id': expected int, got bool"),
        (_doc({**VAR, "id": None}), "field 'id': expected int, got NoneType"),
        (_doc({**VAR, "id": 1}), "node 0: id 1 out of order (ids must be dense, 0-based)"),
        (_doc(VAR, {**VAR, "id": 0}), "node 1: id 0 out of order (ids must be dense, 0-based)"),
        (_doc({"id": 0, "row": 1, "col": 1}), "missing field 'op'"),
        (_doc({**VAR, "op": 3}), "field 'op': expected str, got int"),
        (
            _doc(VAR, {"id": 1, "op": "mul", "left": 0.0, "right": 0}),
            "field 'left': expected int, got float",
        ),
        (_doc(VAR, {"id": 1, "op": "add", "left": 0}), "missing field 'right'"),
        (_doc({**VAR, "row": "1"}), "field 'row': expected int, got str"),
        (_doc({**VAR, "col": False}), "field 'col': expected int, got bool"),
        (
            _doc(VAR, {"id": 1, "op": "mul", "left": 0, "right": 1}),
            "node 1: forward or invalid child reference 1",
        ),
        (
            _doc(VAR, {"id": 1, "op": "add", "left": -1, "right": 0}),
            "node 1: forward or invalid child reference -1",
        ),
        (_doc({"id": 0, "op": "const", "value": "1.5"}), "node 0: bad decimal constant '1.5'"),
        (_doc({"id": 0, "op": "const", "value": 3}), "field 'value': expected str, got int"),
        (_doc({"id": 0, "op": "mul", "left": 0, "right": 1}), "node 0: forward or invalid child reference 0"),
        (_doc({"id": 0, "op": "const", "value": "x"}), "node 0: bad decimal constant 'x'"),
        (_doc({"id": 0, "op": "div", "left": 0, "right": 0}), "node 0: unknown op 'div'"),
        ({**_doc(VAR), "root": 5}, "root 5 out of range"),
        # int() would take each of these, and the writer would respell it
        (_doc({"id": 0, "op": "const", "value": "1_000"}), "node 0: bad decimal constant '1_000'"),
        (_doc({"id": 0, "op": "const", "value": " 5"}), "node 0: bad decimal constant ' 5'"),
        (_doc({"id": 0, "op": "const", "value": "+5"}), "node 0: bad decimal constant '+5'"),
        (_doc({"id": 0, "op": "const", "value": "\u0663"}), "node 0: bad decimal constant '\u0663'"),
        # exactly what JSON decodes to: a dict and an int, not a subclass of either
        (_doc({**VAR, "row": SubInt(2)}), "field 'row': expected int, got SubInt"),
        (_doc(SubDict(VAR)), "node 0 is not an object"),
    ],
)
def test_parser_names_each_fault(doc, message):
    with pytest.raises(ParseError) as err:
        circuit_from_obj(doc)
    assert str(err.value) == message


def test_const_values_survive_as_decimal_strings():
    big = 10**30 + 7
    circuit = c(1, ConstLeaf(big))
    obj = circuit_to_obj(circuit)
    assert obj["nodes"][0]["value"] == str(big)
    assert circuit_from_obj(obj).nodes.a[0] == big


def test_bouquet_grid_mismatch_rejected():
    rc = det_regular_circuit(2, (1, 2))
    with pytest.raises(ValueError):
        Bouquet(n=3, summands=(rc,))


def test_bouquet_without_summands_rejected():
    with pytest.raises(ValueError, match="bouquet needs at least one summand"):
        Bouquet(2, ())
