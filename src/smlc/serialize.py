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

`bouquet_from_text` reads a bouquet whose "n" precedes "summands", as this
module writes it, one batch of decoded nodes at a time: from a node's start
to the first "}," at least `_BATCH` characters on, decoded as "[" + batch +
"]".  That decode fails unless every split in it lies between two top-level
nodes (a split inside a string leaves it unterminated, one inside a nested
value leaves it unclosed, one past the array's "]" leaves extra data), so a
decoded batch equals the same nodes of the whole decode; from the first
batch that fails, the rest of the array is read node by node.  Any other
shape is read whole, by `bouquet_from_obj(loads(text))`, and so is any
document the batch reader finds fault with, so its errors are the same.
The batch reader appends nodes to the empty packed fields `circuit._writable()`
gives, a bytearray and two int32 arrays, never to lists, and reads the whole
document where a value is past int32.

Ids are 0-based and must equal the node's list position; child references must
point strictly backwards (forward references are rejected).  Constant values
are decimal strings (an optional "-", then ASCII digits) so readers never face
integer-width surprises.  Parsing a bouquet also checks that every summand is
over the bouquet's grid, then runs `regular` on it against its sigma.

The parser accepts exactly what JSON decodes to: every document and node is
a `dict` and every field an `int`, `str` or `list`, not a bool or a subclass.
It appends each node straight to the flat arrays of a `circuit.Nodes` and
builds no node objects.  Its loop reads the id, op and operand fields by
subscript, tests each with `type(value) is int` (or `str`) and calls
`_require` only when a field is missing or that test fails, so a malformed
document gets the same `ParseError` as a field-by-field check, while a
well-formed one pays for one subscript per field.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, MutableSequence

from .circuit import ADD, CONST, MUL, VAR, Bouquet, Circuit, CircuitError, Nodes, RegularCircuit, regular
from .circuit import _is_int, _writable, decimal

__all__ = [
    "ParseError",
    "circuit_to_obj",
    "circuit_from_obj",
    "bouquet_to_obj",
    "bouquet_from_obj",
    "bouquet_from_text",
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
    # one int per id, shared by "id" and every reference, not one per array read
    ids = list(range(len(nodes)))
    out = []
    for vid, op, a, b in zip(ids, nodes.op, nodes.a, nodes.b):
        if op == CONST:
            out.append({"id": vid, "op": "const", "value": str(a)})
        else:
            name, fa, fb = _NAMES[op]
            if op < VAR:
                a, b = ids[a], ids[b]
            out.append({"id": vid, "op": name, fa: a, fb: b})
    return {"n": circuit.n, "nodes": out, "root": circuit.root}


def _require(obj: dict, key: str, kind: type) -> Any:
    """obj[key], exactly of type `kind`: neither a subclass nor, for int, a bool."""
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise ParseError(f"field {key!r}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def circuit_from_obj(obj: Any) -> Circuit:
    if type(obj) is not dict:
        raise ParseError("circuit document must be a JSON object")
    n = _require(obj, "n", int)
    raw_nodes = _require(obj, "nodes", list)
    root = _require(obj, "root", int)
    arrays: tuple[list, list, list] = ([], [], [])
    _read_nodes(raw_nodes, *arrays)
    return _circuit(n, arrays, root)


def _read_nodes(batch: list, ops: MutableSequence, lefts: MutableSequence, rights: MutableSequence) -> None:
    """Append the nodes of `batch`, the next elements of a "nodes" array, to the arrays."""
    for idx, raw in enumerate(batch, len(ops)):
        if type(raw) is not dict:
            raise ParseError(f"node {idx} is not an object")
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


def _circuit(n: int, arrays: tuple, root: int) -> Circuit:
    if not (0 <= root < len(arrays[0])):
        raise ParseError(f"root {root} out of range")
    return Circuit(n, Nodes(*arrays), root)  # packed, kept untested: `_read_nodes` tested every field


def bouquet_to_obj(bouquet: Bouquet) -> dict[str, Any]:
    return {
        "n": bouquet.n,
        "sign": bouquet.sign,
        "summands": [
            {"sigma": list(rc.sigma), "circuit": circuit_to_obj(rc.circuit)}
            for rc in bouquet.summands
        ],
    }


def _summand_from_obj(raw: Any, idx: int, n: int) -> RegularCircuit:
    if type(raw) is not dict:
        raise ParseError(f"summand {idx} is not an object")
    sigma = _require(raw, "sigma", list)
    if not all(_is_int(x) for x in sigma):
        raise ParseError(f"summand {idx}: sigma must be a list of ints")
    circuit = raw.get("circuit")
    if type(circuit) is not Circuit:  # as decoded, not as `_circuit_at` reads it
        circuit = circuit_from_obj(_require(raw, "circuit", dict))
    if circuit.n != n:
        raise ParseError(f"summand {idx}: grid size {circuit.n} does not match bouquet n={n}")
    # regularity is a domain property, not a schema property: let
    # CircuitError propagate to the caller untouched
    return regular(circuit, tuple(sigma))


def bouquet_from_obj(obj: Any) -> Bouquet:
    if type(obj) is not dict:
        raise ParseError("bouquet document must be a JSON object")
    n = _require(obj, "n", int)
    raw_summands = _require(obj, "summands", list)
    if not raw_summands:
        raise ParseError("bouquet needs at least one summand")
    sign = _require(obj, "sign", int) if "sign" in obj else 1
    if sign not in (1, -1):
        raise ParseError("sign must be 1 or -1")
    summands = tuple(_summand_from_obj(raw, idx, n) for idx, raw in enumerate(raw_summands))
    return Bouquet(n=n, summands=summands, sign=sign)


class _Declined(Exception):
    """The document is not in the shape `bouquet_from_text` reads in batches."""


_DECODE = json.JSONDecoder().raw_decode
_SPACE = re.compile(r"[ \t\n\r]*").match  # JSON's whitespace, as the decoder skips it
_BATCH = 16384  # characters of node text per batch, give or take a node


def bouquet_from_text(text: str) -> Bouquet:
    """`bouquet_from_obj(loads(text))`, reading one batch of nodes at a time when it can.

    A document that is not an object with "n" before a non-empty "summands"
    and no repeated key, or that fails in any way, is parsed again whole by
    the canonical path, which raises its own error in its own order: a
    malformed document costs a second parse.
    """
    try:
        fields, i = _object(text, _SPACE(text).end(), "summands", _summands_at)
        if _SPACE(text, i).end() != len(text):
            raise _Declined
        # a ValueError if "summands" is missing or "sign" is not exactly 1 or -1
        return Bouquet(n=fields.get("n"), summands=fields.get("summands", ()), sign=fields.get("sign", 1))
    except (_Declined, ValueError, OverflowError, RecursionError, ParseError, CircuitError):
        return bouquet_from_obj(loads(text))


def _object(text: str, i: int, name: str, read: Callable) -> tuple[dict[str, Any], int]:
    """The members of the object at text[i] and the index past it: member
    `name` is read by `read(text, index, members so far)`, the rest decoded."""
    fields: dict[str, Any] = {}
    if text[i : i + 1] != "{":
        raise _Declined
    sep = ","
    while sep == ",":  # i is at the object's "{" or at a ","
        key, i = _DECODE(text, _SPACE(text, i + 1).end())
        i = _SPACE(text, i).end()
        if type(key) is not str or key in fields or text[i : i + 1] != ":":
            raise _Declined
        i = _SPACE(text, i + 1).end()
        fields[key], i = read(text, i, fields) if key == name else _DECODE(text, i)
        i = _SPACE(text, i).end()
        sep = text[i : i + 1]
    if sep != "}":
        raise _Declined
    return fields, i + 1


def _summands_at(text: str, i: int, fields: dict[str, Any]) -> tuple[tuple[RegularCircuit, ...], int]:
    n = fields.get("n")
    if type(n) is not int or text[i : i + 1] != "[":
        raise _Declined
    summands: list[RegularCircuit] = []
    sep = ","
    while sep == ",":  # i is at the array's "[" or at a ","
        raw, i = _object(text, _SPACE(text, i + 1).end(), "circuit", _circuit_at)
        summands.append(_summand_from_obj(raw, len(summands), n))
        i = _SPACE(text, i).end()
        sep = text[i : i + 1]
    if sep != "]":
        raise _Declined
    return tuple(summands), i + 1


def _circuit_at(text: str, i: int, _: dict) -> tuple[Circuit, int]:
    raw, i = _object(text, i, "nodes", _nodes_at)
    return _circuit(_require(raw, "n", int), _require(raw, "nodes", tuple), _require(raw, "root", int)), i


def _nodes_at(text: str, i: int, _: dict) -> tuple[tuple, int]:
    arrays = _writable()
    if text[i : i + 1] != "[":
        raise _Declined
    while (j := text.find("},", i + 1 + _BATCH)) >= 0:  # i is at the array's "[" or at a ","
        try:
            batch = json.loads("[" + text[i + 1 : j + 1] + "]")
        except (ValueError, RecursionError):
            break
        _read_nodes(batch, *arrays)
        i = j + 1
    sep = ","
    while sep == ",":
        raw, i = _DECODE(text, _SPACE(text, i + 1).end())
        _read_nodes([raw], *arrays)
        i = _SPACE(text, i).end()
        sep = text[i : i + 1]
    if sep != "]":
        raise _Declined
    return arrays, i + 1


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
