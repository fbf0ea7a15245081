"""Invariants are checked where circuits enter and where a verdict is asked for.

Generators, the parser and the tests' `recheck.random_regular_circuit` run
`regular`; every pass carries (sigma, degree) over by construction.  So an
unverified reduction runs no typing or regularity sweep at all, a verified
one sweeps each live summand of the steps after the first (step 0 came
through a boundary already, and is swept only when it is also the last
check, on an input with one distinct order), and `project`'s carried
(sigma, degree) must equal what inference would find.  The bouquet reader
converts one summand at a time where the document's shape allows, and reads
the whole document, with the same outcome, where it does not.
"""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import (
    outcome,
    perms,
    read_whole,
    regular_circuits,
    sample_det_bouquets,
    sample_random_bouquets,
    spy,
)

from smlc import circuit as circuit_module
from smlc import serialize
from smlc.circuit import CONST, Bouquet, Circuit, regular, validate
from smlc.generators import seeded_det_bouquet
from smlc.passes import compose, project
from smlc.pipeline import reduce_to_single
from smlc.serialize import bouquet_from_text, bouquet_to_obj, dumps


@pytest.mark.parametrize("verify", ["off", "exact", "random"])
def test_reduce_sweeps_only_checked_steps_after_the_first(monkeypatch, verify):
    inputs = sample_det_bouquets()
    calls = spy(monkeypatch, circuit_module, "_sweep")
    for b in inputs:
        calls.clear()
        single, transcript = reduce_to_single(b, verify=verify, seed=3, trials=2)
        if verify == "off":
            assert calls == []
        else:  # one regularity sweep per summand and later step, none of the input's
            assert 1 <= len(calls) <= len(transcript.steps) * len(b.summands)
            assert all(sigma is not None for _, sigma in calls)
            assert not {id(circuit) for circuit, _ in calls} & {id(rc.circuit) for rc in b.summands}
    calls.clear()
    validate(single.circuit)  # the counter does see a sweep
    assert len(calls) == 1


def test_reduce_runs_no_sweep_on_random_summands(monkeypatch):
    inputs = sample_random_bouquets()
    calls = spy(monkeypatch, circuit_module, "_sweep")
    for b in inputs:
        reduce_to_single(b, verify="off")
    assert calls == []


@st.composite
def projections(draw):
    """A full-degree random summand, sometimes embedded in a larger grid (so
    its degree is below n and its rows are spread by a relabeling), and a
    random keep set."""
    m = draw(st.integers(1, 5))
    rc = draw(regular_circuits(m))
    n = m + draw(st.integers(0, 2))
    if n > m:
        wide = Circuit(n, rc.circuit.nodes, rc.circuit.root)
        rc = regular(wide, rc.sigma + tuple(range(m + 1, n + 1)))
        tau = draw(perms(n))
        rc = compose(Bouquet(n, (rc,)), tau).summands[0]
    keep = draw(st.sets(st.integers(1, n), min_size=1))
    return rc, keep


def test_project_carries_the_inferred_order_and_degree():
    folded = []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(projections())
    def check(case):
        rc, keep = case
        out = project(Bouquet(rc.circuit.n, (rc,)), keep).summands[0]
        again = regular(out.circuit, out.sigma)
        assert (out.sigma, out.degree) == (again.sigma, again.degree)
        folded.append(out.circuit.nodes.op[out.circuit.root] == CONST)

    check()
    # both lemma cases occur: roots folded to a constant, and surviving roots
    assert any(folded) and not all(folded)


_DOC = bouquet_to_obj(seeded_det_bouquet(3, 2, 1))
_SUMMANDS = json.dumps(_DOC["summands"])


def _with_middle_node(**fields):
    """The compact document with `fields` set on a middle node, the gate
    {"id": 8, "left": 7, "op": "mul", "right": 3}."""
    doc = json.loads(dumps(_DOC))
    nodes = doc["summands"][0]["circuit"]["nodes"]
    nodes[len(nodes) // 2].update(fields)
    return dumps(doc)


_NO_COMMA = "invalid JSON: Expecting ',' delimiter"
_MIDDLE = '{"id":8,"left":7,'

# a document -> whether the reader reads it whole, and the outcome it must share with that read
READER_CASES = {
    "summands before n": ('{"summands": %s, "n": 3}' % _SUMMANDS, True, "ok"),
    # JSON keeps the last of a repeated key
    "repeated summands": (
        '{"n": 3, "summands": %s, "summands": %s}' % (json.dumps(_DOC["summands"][:1]), _SUMMANDS),
        True,
        "ok",
    ),
    "n 3.0": ('{"n": 3.0, "summands": %s}' % _SUMMANDS, True, "field 'n': expected int, got float"),
    "sign 2": ('{"n": 3, "sign": 2, "summands": %s}' % _SUMMANDS, True, "sign must be 1 or -1"),
    "sign true": ('{"n": 3, "sign": true, "summands": %s}' % _SUMMANDS, True, "field 'sign': expected int, got bool"),
    "trailing data": (dumps(_DOC) + " {}", True, "invalid JSON: Extra data"),
    "leading BOM": ("\ufeff" + dumps(_DOC), True, "invalid JSON: Unexpected UTF-8 BOM"),
    "as written": (dumps(_DOC), False, "ok"),
    "one summand": (dumps(dict(_DOC, summands=_DOC["summands"][:1])), False, "ok"),
    # a "}," that does not end a node fails its batch: the rest of that array is read node by node
    "string holding },{": (_with_middle_node(extra="},{"), False, "ok"),
    "nested object split at },{": (_with_middle_node(extra={"list": [{"a": 1}, {"b": 2}]}), False, "ok"),
    # a batch of gates as `dumps` writes them is read as flat ints, and is
    # refused there, as by the per-node reader, by the same whole read
    "gate with a forward child": (_with_middle_node(left=11), True, "node 8: forward or invalid child reference 11"),
    "gate with a self child": (_with_middle_node(left=8), True, "node 8: forward or invalid child reference 8"),
    "gate id out of order": (_with_middle_node(id=9), True, "node 8: id 9 out of order"),
    "gate child 2**31": (_with_middle_node(right=2**31), True, "node 8: forward or invalid child reference 2147483648"),
    "gate child with a leading zero": (dumps(_DOC).replace(_MIDDLE, _MIDDLE.replace("7", "07"), 1), True, _NO_COMMA),
    "gate op sub": (_with_middle_node(op="sub"), True, "node 8: unknown op 'sub'"),
    "gate with an extra field": (_with_middle_node(extra=0), False, "ok"),
    "indented": (json.dumps(_DOC, indent=2), False, "ok"),
    "empty summands": ('{"n": 3, "summands": []}', True, "bouquet needs at least one summand"),
    # an array closed by "}" ends the batch reader's summand or node loop
    "summand then }": (dumps(_DOC).replace(']},{"circuit"', ']}},{"circuit"', 1), True, _NO_COMMA),
    "nodes then }": (dumps(_DOC).replace('}],"root"', '}},"root"', 1), True, _NO_COMMA),
}


@pytest.mark.parametrize("batch", [serialize._BATCH, 1], ids=["default-batch", "every-split"])
@pytest.mark.parametrize(("text", "whole", "expected"), READER_CASES.values(), ids=READER_CASES)
def test_bouquet_reader_reads_other_shapes_whole(monkeypatch, text, whole, expected, batch):
    monkeypatch.setattr(serialize, "_BATCH", batch)
    canonical = outcome(read_whole, text)
    if expected == "ok":
        assert isinstance(canonical, Bouquet)
    else:
        assert canonical[0] is serialize.ParseError and canonical[1].startswith(expected)
    reads = spy(monkeypatch, serialize, "loads")
    assert outcome(bouquet_from_text, text) == canonical
    assert len(reads) == whole


def test_bouquet_reader_reads_gate_batches_as_flat_ints(monkeypatch):
    # only batches that also hold a variable reach the per-node reader: at
    # n=7, 12,969 of 37,947 nodes
    text = dumps(bouquet_to_obj(seeded_det_bouquet(7, 3, 1)))
    whole = read_whole(text)
    batches = spy(monkeypatch, serialize, "_read_nodes")
    bouquet = bouquet_from_text(text)
    assert bouquet == whole
    assert sum(len(batch) for batch, *_ in batches) <= sum(len(rc.circuit.nodes) for rc in bouquet.summands) / 2


def _traced(read, text):
    """The traced peak of read(text), and the traced size of what it returns."""
    tracemalloc.start()
    try:
        out = read(text)
        held, peak = tracemalloc.get_traced_memory()  # while `out` is alive
    finally:
        tracemalloc.stop()
    return peak, held


def test_bouquet_reader_holds_one_node_batch_at_a_time():
    # well under the whole document's decoded nodes at the traced peak ...
    text = dumps(bouquet_to_obj(seeded_det_bouquet(6, 3, 1)))
    (peak, _), (whole, _) = (_traced(read, text) for read in (bouquet_from_text, read_whole))
    assert peak <= 0.6 * whole, (peak, whole)
    # ... and under one summand's: its peak past the Bouquet it returns is
    # about 215 KB, where each summand's decoded nodes here take 3.8 MB or more
    peak, held = _traced(bouquet_from_text, dumps(bouquet_to_obj(seeded_det_bouquet(7, 3, 1))))
    assert peak - held <= 300_000, (peak, held)
