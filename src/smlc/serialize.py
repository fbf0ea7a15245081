"""JSON wire formats for circuits and bouquets.

Circuit document:
    { "n": int,
      "nodes": [ {"id": 0, "op": "const", "value": "-1"}
               | {"id": 1, "op": "var", "row": 2, "col": 3}
               | {"id": 2, "op": "add"|"mul", "left": 0, "right": 1}, ... ],
      "root": int }

Bouquet document:
    { "n": int, "sign": 1|-1, "summands": [ {"sigma": [3,1,2], "circuit": <circuit>}, ... ] }

"sign" is the global factor of the sum; it defaults to 1 when absent, so
documents written without it parse fine.

Ids are 0-based and must equal the node's list position; child references must
point strictly backwards (forward references are rejected).  Constant values
are decimal strings (an optional "-", then ASCII digits) so readers never face
integer-width surprises.  Parsing a bouquet also checks that every summand is
over the bouquet's grid, then runs `regular` on it against its sigma.

The parser writes each node straight into the three flat arrays of
`circuit.Nodes` and builds no node objects.  Its loop reads the id, op and
operand fields by subscript, tests each with `type(value) is int` (or `str`)
and calls `_require` only when a field is missing or that test fails, so a
malformed document gets the same `ParseError` as a field-by-field check, while
a well-formed one pays for one subscript per field.
"""

from __future__ import annotations

import json
from typing import Any

from .circuit import ADD, CONST, MUL, VAR, Bouquet, Circuit, Nodes, RegularCircuit, regular
from .circuit import _is_int, decimal

__all__ = [
    "ParseError",
    "circuit_to_obj",
    "circuit_from_obj",
    "bouquet_to_obj",
    "bouquet_from_obj",
    "dumps",
    "loads",
]


class ParseError(Exception):
    """Malformed document: bad JSON, bad schema, or broken id discipline."""


# op name -> (opcode, field of operand a, field of operand b), for the nodes
# whose operands are two ints
_FIELDS = {"mul": (MUL, "left", "right"), "add": (ADD, "left", "right"), "var": (VAR, "row", "col")}
_NAMES = {op: (name, fa, fb) for name, (op, fa, fb) in _FIELDS.items()}


def circuit_to_obj(circuit: Circuit) -> dict[str, Any]:
    nodes = circuit.nodes
    out = []
    for vid, op, a, b in zip(range(len(nodes)), nodes.op, nodes.a, nodes.b):
        if op == CONST:
            out.append({"id": vid, "op": "const", "value": str(a)})
        else:
            name, fa, fb = _NAMES[op]
            out.append({"id": vid, "op": name, fa: a, fb: b})
    return {"n": circuit.n, "nodes": out, "root": circuit.root}


def _require(obj: dict, key: str, kind: type) -> Any:
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field {key!r}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def circuit_from_obj(obj: Any) -> Circuit:
    if not isinstance(obj, dict):
        raise ParseError("circuit document must be a JSON object")
    n = _require(obj, "n", int)
    raw_nodes = _require(obj, "nodes", list)
    root = _require(obj, "root", int)

    ops: list[int] = []
    lefts: list[Any] = []
    rights: list[Any] = []
    for idx, raw in enumerate(raw_nodes):
        if type(raw) is not dict:
            if not isinstance(raw, dict):
                raise ParseError(f"node {idx} is not an object")
            raw = dict(raw)  # so a subclass's __missing__ cannot fill in a field
        try:
            vid, name = raw["id"], raw["op"]
        except KeyError:
            vid = name = None
        if type(vid) is not int:
            vid = _require(raw, "id", int)
        if vid != idx:
            raise ParseError(f"node {idx}: id {raw['id']} out of order (ids must be dense, 0-based)")
        if type(name) is not str:
            name = _require(raw, "op", str)
        fields = _FIELDS.get(name)
        if fields is not None:
            op, fa, fb = fields
            try:
                left, right = raw[fa], raw[fb]
            except KeyError:
                left = right = None
            if type(left) is not int:
                left = _require(raw, fa, int)
            if type(right) is not int:
                right = _require(raw, fb, int)
            if op < VAR and not (0 <= left < idx and 0 <= right < idx):
                bad = right if 0 <= left < idx else left
                raise ParseError(f"node {idx}: forward or invalid child reference {bad}")
        elif name == "const":
            op, text = CONST, raw.get("value")
            if type(text) is not str:
                text = _require(raw, "value", str)
            try:
                left, right = decimal(text), 0
            except ValueError:
                raise ParseError(f"node {idx}: bad decimal constant {text!r}") from None
        else:
            raise ParseError(f"node {idx}: unknown op {name!r}")
        ops.append(op)
        lefts.append(left)
        rights.append(right)
    if not (0 <= root < len(ops)):
        raise ParseError(f"root {root} out of range")
    return Circuit(n, Nodes(tuple(ops), tuple(lefts), tuple(rights)), root)


def bouquet_to_obj(bouquet: Bouquet) -> dict[str, Any]:
    return {
        "n": bouquet.n,
        "sign": bouquet.sign,
        "summands": [
            {"sigma": list(rc.sigma), "circuit": circuit_to_obj(rc.circuit)}
            for rc in bouquet.summands
        ],
    }


def bouquet_from_obj(obj: Any) -> Bouquet:
    if not isinstance(obj, dict):
        raise ParseError("bouquet document must be a JSON object")
    n = _require(obj, "n", int)
    raw_summands = _require(obj, "summands", list)
    if not raw_summands:
        raise ParseError("bouquet needs at least one summand")
    sign = _require(obj, "sign", int) if "sign" in obj else 1
    if sign not in (1, -1):
        raise ParseError("sign must be 1 or -1")
    summands: list[RegularCircuit] = []
    for idx, raw in enumerate(raw_summands):
        if not isinstance(raw, dict):
            raise ParseError(f"summand {idx} is not an object")
        sigma = _require(raw, "sigma", list)
        if not all(_is_int(x) for x in sigma):
            raise ParseError(f"summand {idx}: sigma must be a list of ints")
        circuit = circuit_from_obj(_require(raw, "circuit", dict))
        if circuit.n != n:
            raise ParseError(f"summand {idx}: grid size {circuit.n} does not match bouquet n={n}")
        # regularity is a domain property, not a schema property: let
        # CircuitError propagate to the caller untouched
        summands.append(regular(circuit, tuple(sigma)))
    return Bouquet(n=n, summands=tuple(summands), sign=sign)


def dumps(obj: Any) -> str:
    """Canonical byte-stable JSON: sorted keys, compact separators.

    Callers pass freshly built trees, which hold no cycle, so none is checked.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer past int's digit limit;
    # too deep a nesting recurses
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
