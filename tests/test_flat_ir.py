"""The flat circuit representation: node objects are a view, built only on request.

A circuit stores its nodes as three parallel tuples (`circuit.Nodes`).  The
constructor converts node objects of exactly the four node classes once, and
iterating `circuit.nodes` builds them again on demand.  So the parser and the
reduction build none, and both conversions round-trip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import cases, sample_det_bouquets, sample_random_bouquets, spy, summands

from smlc import pipeline
from smlc.circuit import (
    Bouquet,
    Circuit,
    CircuitError,
    ConstLeaf,
    Mul,
    Nodes,
    VarLeaf,
    validate,
)
from smlc.generators import seeded_det_bouquet
from smlc.pipeline import VerificationFailed, reduce_to_single
from smlc.serialize import bouquet_from_obj, bouquet_to_obj, circuit_from_obj, circuit_to_obj

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


def test_node_view_reads_like_a_tuple():
    nodes = (x11, x22, ConstLeaf(-1), Mul(0, 1), Mul(2, 3))
    circuit = Circuit(2, nodes, 4)
    assert tuple(circuit.nodes) == nodes and len(circuit.nodes) == 5
    assert (circuit.nodes.op, circuit.nodes.a, circuit.nodes.b) == (
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
