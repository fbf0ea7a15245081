"""The flat circuit representation: node objects are a view, built only on request.

A circuit stores its nodes as three parallel arrays (`circuit.Nodes`), packed
as bytes and int32 arrays, 9 bytes a node, when every value is an exact int
that fits, and as tuples otherwise: a constant of 2**31 or more, or below
-2**31, keeps its exact value in the tuple form.  The constructor converts
node objects of exactly the four node classes once, and iterating
`circuit.nodes` builds them again on demand, up to the checker's error at an
unknown opcode.  So the parser and the reduction build none, and both
conversions round-trip.  Equal contents compare and hash equal whatever they
were built from, values that do not pack keep their type and their errors,
and the packed form holds a node in fewer bytes than int64 fields would take.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import cases, sample_det_bouquets, sample_random_bouquets, spy, summands

from smlc import pipeline, serialize
from smlc.circuit import (
    ADD,
    CONST,
    MUL,
    VAR,
    BadChildRef,
    Bouquet,
    Builder,
    Circuit,
    CircuitError,
    ConstLeaf,
    Mul,
    Nodes,
    RegularCircuit,
    VariableOutOfRange,
    VarLeaf,
    regular,
    stats,
    validate,
)
from smlc.generators import seeded_det_bouquet
from smlc.passes import compose, merge_summands, project, reverse
from smlc.pipeline import VerificationFailed, reduce_to_single
from smlc.poly import invert_perm
from smlc.serialize import (
    bouquet_from_obj,
    bouquet_from_text,
    bouquet_to_obj,
    circuit_from_obj,
    circuit_to_obj,
    dumps,
)

x11, x22 = VarLeaf(1, 1), VarLeaf(2, 2)


@pytest.mark.parametrize("verify", ["off", "exact", "random"])
def test_parser_and_reduction_build_no_node_objects(monkeypatch, verify):
    docs = [bouquet_to_obj(b) for b in sample_det_bouquets()]
    if verify == "off":
        docs += [bouquet_to_obj(b) for b in sample_random_bouquets()]
    calls = spy(monkeypatch, Nodes, "__iter__")  # every build of node objects from a `Nodes`
    for doc in docs:
        single, _ = reduce_to_single(bouquet_from_obj(doc), verify=verify, seed=3, trials=2)
        circuit_to_obj(single.circuit)
        assert len(single.circuit.nodes) > 0
    assert calls == []
    next(iter(single.circuit.nodes))  # the counter does see a view access
    assert len(calls) == 1


@pytest.mark.parametrize(
    ("op", "message"),
    [(0.0, "node 2: unknown opcode 0.0"), (True, "node 2: unknown opcode True"), (7, "node 2: unknown opcode 7")],
)
def test_the_node_view_stops_at_an_unknown_opcode_with_the_checkers_error(op, message):
    nodes = Nodes((VAR, VAR, op), (1, 2, 0), (1, 2, 1))
    view = iter(nodes)
    assert [next(view), next(view)] == [x11, x22]  # the nodes before it, in id order
    with pytest.raises(CircuitError) as err:
        next(view)
    assert str(err.value) == message
    with pytest.raises(CircuitError) as err:
        validate(Circuit(2, nodes, 2))
    assert str(err.value) == message


def test_node_view_reads_like_a_tuple():
    nodes = (x11, x22, ConstLeaf(-1), Mul(0, 1), Mul(2, 3))
    circuit = Circuit(2, nodes, 4)
    assert tuple(circuit.nodes) == nodes and len(circuit.nodes) == 5
    assert (tuple(circuit.nodes.op), tuple(circuit.nodes.a), tuple(circuit.nodes.b)) == (
        (2, 2, 3, 0, 0),
        (1, 2, -1, 0, 2),
        (1, 2, 0, 1, 3),
    )
    assert Circuit(2, list(nodes), 4) == circuit
    assert hash(Circuit(2, list(nodes), 4)) == hash(circuit)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(cases(), summands()))
def test_objects_and_wire_round_trip(case):
    circuit, _ = case
    if callable(circuit):  # a node of no kind: it cannot be built at all
        return
    again = Circuit(circuit.n, tuple(circuit.nodes), circuit.root)
    assert again == circuit and hash(again) == hash(circuit)
    try:
        validate(circuit)
    except CircuitError:  # not well formed, so it has no wire form to compare
        return
    assert circuit_from_obj(circuit_to_obj(circuit)) == circuit


# --- the exact tier's reference ---------------------------------------------


def test_exact_tier_builds_each_reference_once(monkeypatch):
    built = spy(monkeypatch, pipeline, "reference_det")
    pipeline._det_terms.cache_clear()
    seed = 5
    bouquet = seeded_det_bouquet(6, 3, seed)
    first = reduce_to_single(bouquet, verify="exact", seed=seed)[1].to_obj()
    second = reduce_to_single(bouquet, verify="exact", seed=seed)[1].to_obj()
    assert first == second and len(first["steps"]) >= 1
    assert sorted(built) == sorted(set(built)) and (6,) in built
    with pytest.raises(TypeError):
        pipeline._det_terms(6)[()] = 1  # shared, so read-only
    flipped = Bouquet(bouquet.n, bouquet.summands, -bouquet.sign)
    with pytest.raises(VerificationFailed) as err:
        reduce_to_single(flipped, verify="exact", seed=seed)
    assert err.value.step == 0


# --- the packed form --------------------------------------------------------


def _rebuilt(nodes):
    """The same contents through each way a `Nodes` is made: node objects,
    tuples, lists and a `Builder`."""
    built = Builder()
    for op, a, b in zip(nodes.op, nodes.a, nodes.b):
        built.emit(op, a, b)
    fields = (nodes.op, nodes.a, nodes.b)
    return [
        Nodes.of(tuple(nodes)),
        Nodes(*map(tuple, fields)),
        Nodes(*map(list, fields)),
        built.nodes(),
    ]


def _assert_one_content(nodes):
    for other in _rebuilt(nodes):
        assert other == nodes and hash(other) == hash(nodes)


def test_equal_contents_compare_and_hash_equal_from_every_source():
    b = seeded_det_bouquet(5, 3, 4)
    tau = (2, 3, 1, 5, 4)
    rows = [rc.circuit.nodes for rc in b.summands]
    parsed = [rc.circuit.nodes for rc in bouquet_from_text(dumps(bouquet_to_obj(b))).summands]
    assert parsed == rows and [hash(x) for x in parsed] == [hash(x) for x in rows]
    assert circuit_from_obj(circuit_to_obj(b.summands[0].circuit)).nodes == rows[0]
    back = compose(compose(b, tau), invert_perm(tau))
    assert [rc.circuit.nodes for rc in back.summands] == rows
    full = b.summands[0]
    assert reverse(reverse(full)).circuit.nodes == full.circuit.nodes
    same = Bouquet(5, (full, full))
    outputs = [
        compose(b, tau).summands[1].circuit.nodes,
        reverse(full).circuit.nodes,
        project(b, [1, 3, 4]).summands[0].circuit.nodes,
        merge_summands(same).summands[0].circuit.nodes,
        reduce_to_single(Bouquet(5, b.summands, -1), verify="off")[0].circuit.nodes,  # the sign wrap
    ]
    for nodes in rows + outputs:
        _assert_one_content(nodes)


class _Id(int):
    """An int subclass: the checker refuses it, so packing must not turn it into an int."""


@pytest.mark.parametrize(
    ("fields", "error"),
    [
        (((VAR, VAR, MUL), (True, 2, 0), (1, 2, 1)), VariableOutOfRange),  # a bool row
        (((VAR, VAR, MUL), (1, 2, 0), (1, 2, _Id(1))), BadChildRef),  # an int-subclass child
        (((VAR, VAR, ADD), (1, 1, 0), (1, 2, 1)), None),  # exact ints, for contrast
    ],
)
def test_values_that_do_not_pack_keep_their_type_and_error(fields, error):
    nodes = Nodes(*fields)
    assert [list(map(type, field)) for field in (nodes.op, nodes.a, nodes.b)] == [
        list(map(type, field)) for field in fields
    ]
    if error is None:
        validate(Circuit(2, nodes, 2))
        return
    with pytest.raises(error):
        validate(Circuit(2, nodes, 2))
    with pytest.raises(error):
        validate(Circuit(2, Nodes.of(tuple(nodes)), 2))


def test_a_constant_past_int64_keeps_its_value():
    big = 10**30
    circuit = Circuit(1, Nodes((CONST, VAR, MUL), (big, 1, 0), (0, 1, 1)), 2)
    assert circuit.nodes.a[0] == big and regular(circuit, (1,)).degree == 1
    doc = {"n": 1, "summands": [{"sigma": [1], "circuit": circuit_to_obj(circuit)}]}
    for read in (bouquet_from_obj, lambda obj: bouquet_from_text(dumps(obj))):
        assert read(doc).summands[0].circuit == circuit


@pytest.mark.parametrize("value", [2**31 - 1, -(2**31), 2**31, -(2**31) - 1])
def test_a_constant_at_the_int32_boundary_keeps_its_value_and_packs_only_inside(monkeypatch, value):
    packs = -(2**31) <= value < 2**31
    c, v, m, a = CONST, VAR, MUL, ADD
    rc = regular(Circuit(2, Nodes((c, v, v, m, m), (value, 1, 2, 1, 0), (0, 1, 2, 2, 3)), 4), (1, 2))
    packed = regular(Circuit(2, (x11, x22, Mul(0, 1)), 2), (1, 2))
    doc = bouquet_to_obj(Bouquet(2, (rc,)))
    whole_reads = spy(monkeypatch, serialize, "loads")
    as_built = ((c, v, v, m, m), (value, 1, 2, 1, 0), (0, 1, 2, 2, 3))
    outputs = [
        (rc, as_built),
        (bouquet_from_obj(doc), as_built),
        (bouquet_from_text(dumps(doc)), as_built),  # read whole where the value does not pack
        (compose(Bouquet(2, (rc,)), (2, 1)), ((c, v, v, m, m), (value, 2, 1, 1, 0), (0, 1, 2, 2, 3))),
        (reverse(rc), ((c, v, v, m, m), (value, 1, 2, 2, 3), (0, 1, 2, 1, 0))),
        (project(Bouquet(2, (rc,)), [1]), ((v, c, m), (1, value, 1), (1, 0, 0))),
        (
            merge_summands(Bouquet(2, (rc, packed))),
            ((c, v, v, m, m, v, v, m, a), (value, 1, 2, 1, 0, 1, 2, 5, 4), (0, 1, 2, 2, 3, 1, 2, 6, 7)),
        ),
    ]
    assert len(whole_reads) == (0 if packs else 1)
    for out, fields in outputs:
        nodes = (out if type(out) is RegularCircuit else out.summands[0]).circuit.nodes
        assert (type(nodes.a) is not tuple) is packs, fields
        assert (tuple(nodes.op), tuple(nodes.a), tuple(nodes.b)) == fields


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        (((VAR, VAR, 0.0), (1, 2, 0), (1, 2, 1)), "node 2: unknown opcode 0.0"),  # once a product
        (((VAR, VAR, 1.0), (1, 1, 0), (1, 1, 1)), "node 2: unknown opcode 1.0"),  # once an addition
        (((VAR, VAR, True), (1, 1, 0), (1, 1, 1)), "node 2: unknown opcode True"),
        (((VAR, 2.0, MUL), (1, 1, 0), (1, 1, 9)), "node 1: unknown opcode 2.0"),  # before a bad child
        (((VAR, ADD, 0.0), (1, 0, 0), (1, 5, 1)), "node 1 references invalid child id 5"),  # after one
    ],
)
def test_an_opcode_that_is_not_an_int_is_unknown_in_id_order(fields, message):
    circuit = Circuit(2, Nodes(*fields), 2)
    for check in (validate, stats, lambda cc: regular(cc, (1, 2))):
        with pytest.raises(CircuitError) as err:
            check(circuit)
        assert str(err.value) == message


def test_a_tuple_form_bouquet_keeps_its_form_and_values_through_the_passes():
    big = 10**30  # big * x[1,1] * x[2,2], which does not pack
    c, v, m, a = CONST, VAR, MUL, ADD
    rc = regular(Circuit(2, Nodes((c, v, v, m, m), (big, 1, 2, 1, 0), (0, 1, 2, 2, 3)), 4), (1, 2))
    packed = regular(Circuit(2, (x11, x22, Mul(0, 1)), 2), (1, 2))
    assert type(packed.circuit.nodes.a) is not tuple
    outputs = [
        (compose(Bouquet(2, (rc,)), (2, 1)), (c, v, v, m, m), (big, 2, 1, 1, 0), (0, 1, 2, 2, 3)),
        (reverse(rc), (c, v, v, m, m), (big, 1, 2, 2, 3), (0, 1, 2, 1, 0)),
        (project(Bouquet(2, (rc,)), [1]), (v, c, m), (1, big, 1), (1, 0, 0)),
        (
            merge_summands(Bouquet(2, (rc, packed))),
            (c, v, v, m, m, v, v, m, a),
            (big, 1, 2, 1, 0, 1, 2, 5, 4),
            (0, 1, 2, 2, 3, 1, 2, 6, 7),
        ),
        (
            merge_summands(Bouquet(2, (packed, rc))),
            (v, v, m, c, v, v, m, m, a),
            (1, 2, 0, big, 1, 2, 4, 3, 2),
            (1, 2, 1, 0, 1, 2, 5, 6, 7),
        ),
    ]
    for out, *fields in outputs:
        nodes = (out if type(out) is RegularCircuit else out.summands[0]).circuit.nodes
        assert [nodes.op, nodes.a, nodes.b] == fields  # tuples, so equal only as tuples


def _bytes_per_node(make):
    """Traced bytes that the bouquet make() returns holds, per node."""
    gc.collect()
    tracemalloc.start()
    try:
        bouquet = make()
        held = tracemalloc.get_traced_memory()[0]  # while `bouquet` is alive
    finally:
        tracemalloc.stop()
    return held / sum(len(rc.circuit.nodes) for rc in bouquet.summands)


def test_a_packed_circuit_holds_a_node_in_at_most_16_bytes():
    # a node as three tuple entries and a boxed id takes about 60 bytes, and
    # int64 fields alone 17; int32 fields take 9 (about 15 generated, 10 parsed)
    text = dumps(bouquet_to_obj(seeded_det_bouquet(7, 3, 1)))
    generated = _bytes_per_node(lambda: seeded_det_bouquet(7, 3, 1))
    parsed = _bytes_per_node(lambda: bouquet_from_text(text))
    assert generated <= 16 and parsed <= 16, (generated, parsed)


def _peak_bytes_per_node(run, nodes):
    """The traced peak of run(), per node of its input."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / nodes


def test_compose_and_reverse_peak_under_an_int64_copy_of_what_they_rewrite():
    # compose copies `a` and reverse `a` and `b`: 4 bytes a node each as int32,
    # 8 as int64, and a rebuilt list of ints about 40 (about 6 and 11 in all)
    b = seeded_det_bouquet(7, 3, 1)
    nodes = sum(len(rc.circuit.nodes) for rc in b.summands)
    composed = _peak_bytes_per_node(lambda: compose(b, (2, 3, 1, 5, 4, 7, 6)), nodes)
    reversed_ = _peak_bytes_per_node(lambda: [reverse(rc) for rc in b.summands], nodes)
    assert composed <= 8 and reversed_ <= 16, (composed, reversed_)
