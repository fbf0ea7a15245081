"""Set-multilinear circuit IR and its one typing and regularity checker.

A circuit is an immutable DAG over an n-row variable grid x[r,c], r,c in 1..n.
Row r is the partition class of x[r,c]: every monomial of a set-multilinear
polynomial picks at most one variable per row.  Nodes live in topological
order (children always have smaller ids), so a check or a fold is one
left-to-right sweep.

The representation is flat: `Nodes` holds three parallel arrays `op`, `a`
and `b`, of machine ints where the values fit (see `Nodes`).  Node v is a
product or sum (`op[v]` MUL or ADD) of the nodes `a[v]` and `b[v]`, the
variable x[a[v], b[v]] (VAR), or the constant `a[v]` (CONST, with `b[v]` =
0).  The parser, the generators, the checker, the passes and the oracles
read and write only these arrays.  The node classes `ConstLeaf`, `VarLeaf`,
`Add` and `Mul` are a view: `Circuit` converts exactly these four once
(`Nodes.of`; any other object is a TypeError), and iterating
`circuit.nodes` builds them; nodes are never read by indexing `circuit.nodes`.

Typing assigns each node v its index set I_v (the set of rows it covers):
constants cover nothing, a variable leaf covers its row, addition requires
identical child sets, multiplication requires disjoint child sets and takes
their union.

Regularity against a permutation sigma of [1..n] strengthens typing: every
index set must be a contiguous interval of the order (sigma(1),...,sigma(n)),
and the left factor of every product must sit immediately before the right
factor.

One left-to-right sweep, `_sweep`, checks both on int bitmasks in position
space, typing errors anywhere before regularity errors.  A field it reads that
is not exactly an int (`_is_int`) is a typed error: `BadChildRef` for a root or
child reference, `VariableOutOfRange` for a row or col, else `CircuitError`,
as is an unknown opcode (a bool or a float among them).  `validate`,
`infer_order`, `regular` (the check at trust boundaries: parsing and the
generators) and `stats` are views over it; `infer_order` and `stats` return
what `smlc check-regular` and `smlc stats` write.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import countOf

__all__ = [
    "MUL", "ADD", "VAR", "CONST",  # opcodes
    "Nodes",
    "Builder",
    "join", "negate",  # the sum and the negation of circuits
    "ConstLeaf",
    "VarLeaf",
    "Add",
    "Mul",
    "Circuit",
    "RegularCircuit",
    "Bouquet",
    "bouquet_gate_count",
    "CircuitError",
    "BadChildRef",
    "VariableOutOfRange",
    "AddMismatch",
    "MulOverlap",
    "NotContiguous",
    "WrongAdjacency",
    "RootNotPrefix",
    "validate",
    "infer_order",
    "regular",
    "stats",
    "gate_count",
    "variables_of",
    "decimal",
]


class CircuitError(Exception):
    """Base class for circuit typing and regularity errors."""


class BadChildRef(CircuitError):
    def __init__(self, node_id: int, ref: int):
        super().__init__(f"node {node_id} references invalid child id {ref}")
        self.node_id = node_id
        self.ref = ref


class VariableOutOfRange(CircuitError):
    def __init__(self, node_id: int, row: int, col: int, n: int):
        super().__init__(f"node {node_id}: variable x[{row},{col}] outside [1..{n}]^2")
        self.node_id = node_id


class AddMismatch(CircuitError):
    def __init__(self, node_id: int):
        super().__init__(f"add gate {node_id}: children cover different index sets")
        self.node_id = node_id


class MulOverlap(CircuitError):
    def __init__(self, node_id: int):
        super().__init__(f"mul gate {node_id}: children cover overlapping index sets")
        self.node_id = node_id


class NotContiguous(CircuitError):
    def __init__(self, node_id: int, index_set: frozenset[int]):
        super().__init__(
            f"gate {node_id}: index set {sorted(index_set)} is not contiguous in the given order"
        )
        self.node_id = node_id
        self.index_set = index_set


class WrongAdjacency(CircuitError):
    def __init__(self, node_id: int):
        super().__init__(
            f"mul gate {node_id}: children are adjacent but in right-before-left position order"
        )
        self.node_id = node_id


class RootNotPrefix(CircuitError):
    def __init__(self, start: int, length: int):
        super().__init__(
            f"root interval starts at position {start} (length {length}); "
            "a regular circuit must cover positions 1..degree"
        )


@dataclass(frozen=True, slots=True)
class ConstLeaf:
    value: int


@dataclass(frozen=True, slots=True)
class VarLeaf:
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class Add:
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class Mul:
    left: int
    right: int


# opcodes of the flat representation; the gates come first, so `op < VAR`
# holds exactly for gates
MUL, ADD, VAR, CONST = range(4)
_OPERANDS = "i"  # int32, the one typecode of operand arrays: `array.extend` refuses another

_CODES = {Mul: MUL, Add: ADD, VarLeaf: VAR, ConstLeaf: CONST}
_CLASSES = (Mul, Add, VarLeaf)


def _node(op: int, a, b) -> ConstLeaf | VarLeaf | Add | Mul:
    return ConstLeaf(a) if op == CONST else _CLASSES[op](a, b)


def _known(ops: Sequence) -> int:
    """How many leading opcodes are one of the four: exact ints from MUL to CONST."""
    if type(ops) is bytes and not ops.translate(None, bytes(_CODES.values())):  # all known, in C
        return len(ops)
    return next((v for v, op in enumerate(ops) if not (type(op) is int and MUL <= op <= CONST)), len(ops))


def _unknown(ops: Sequence, vid: int) -> CircuitError:
    return CircuitError(f"node {vid}: unknown opcode {ops[vid]!r}")


def _exact(values: Sequence, packed: tuple) -> bool:
    # `_is_int` on each value of a list or tuple, mapped in C (arrays and bytes take a bool)
    kind = type(values)
    return kind in packed or kind in (list, tuple) and countOf(map(type, values), int) == len(values)


def _pack(op: Sequence, a: Sequence, b: Sequence) -> tuple:
    """`op` as bytes and `a`, `b` as int32 arrays (`_OPERANDS`) when every value
    is an exact int that fits, else all three as tuples; a list or tuple is tested."""
    if _exact(op, (bytes, bytearray)) and _exact(a, (array,)) and _exact(b, (array,)):
        try:  # an opcode past a byte, an operand past int32, an array of floats
            return bytes(op), _ints(a), _ints(b)
        except (ValueError, TypeError, OverflowError, struct.error):
            pass
    return tuple(op), tuple(a), tuple(b)


def _ints(values: Sequence) -> array:
    # an `_OPERANDS` array is kept (its maker hands it over); a list or tuple goes
    # through struct, in about two thirds of the time array(_OPERANDS, values) takes
    if type(values) is array:
        return values if values.typecode == _OPERANDS else array(_OPERANDS, values)
    return array(_OPERANDS, struct.pack(f"{len(values)}{_OPERANDS}", *values))


def _writable(*parts: Nodes) -> tuple:
    """The fields of `parts` (none: empty) one after another, fresh to rewrite:
    packed (copied in C) when every part is, else lists, which `Nodes` tests."""
    packed = all(type(part.op) is bytes for part in parts)
    fields = (bytearray(), array(_OPERANDS), array(_OPERANDS)) if packed else ([], [], [])
    for part in parts:
        for field, values in zip(fields, (part.op, part.a, part.b)):
            field.extend(values)
    return fields


def _ids(ops: Sequence, code: int) -> list[int]:
    """Ids of the nodes with opcode `code`, in order, found in C by `ops.index`."""
    found = [-1]
    for _ in range(ops.count(code)):
        found.append(ops.index(code, found[-1] + 1))
    return found[1:]


@dataclass(frozen=True, slots=True, init=False)
class Nodes:
    """A circuit's nodes as three parallel arrays.

    Node v is `op[v]` with operands `a[v]` and `b[v]` (see the module
    docstring).  The constructor packs the fields once (`_pack`), 9 bytes a
    node; where a value is not an exact int or does not fit (a bool, a float,
    a constant past int32) all three stay tuples, so the checker sees what it
    was given.  Packed fields are not tested, and an int32 array is kept, not
    copied: its maker must not change it.  Readers use `zip`, `len`, indexing,
    `count` and `index` (`_ids`), alike on both forms; iteration builds node
    objects on demand, up to the checker's error at an unknown opcode, and
    nothing inside the package iterates.  Equal contents pack alike, so
    equality compares the arrays; the hash is over their contents.
    """

    op: bytes | tuple[int, ...]
    a: array | tuple[int, ...]
    b: array | tuple[int, ...]

    def __init__(self, op: Sequence, a: Sequence, b: Sequence):
        for name, value in zip(("op", "a", "b"), _pack(op, a, b)):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash((tuple(self.op), tuple(self.a), tuple(self.b)))

    @classmethod
    def of(cls, nodes: Iterable) -> Nodes:
        """Convert node objects of exactly the four node classes (any other object,
        a subclass too, is a TypeError naming its index and class).  Fields are
        kept as given, so the checker rejects what it would reject in the objects."""
        fields: tuple[list, list, list] = ([], [], [])
        for vid, node in enumerate(nodes):
            code = _CODES.get(type(node))
            if code is None:
                raise TypeError(f"node {vid} is a {type(node).__name__}, not a node class")
            if code == VAR:
                values = code, node.row, node.col
            elif code == CONST:
                values = code, node.value, 0
            else:
                values = code, node.left, node.right
            for field, value in zip(fields, values):
                field.append(value)
        return cls(*fields)

    def __len__(self) -> int:
        return len(self.op)

    def __iter__(self):
        known = _known(self.op)
        yield from map(_node, self.op[:known], self.a, self.b)
        if known < len(self.op):
            raise _unknown(self.op, known)


@dataclass(frozen=True, slots=True)
class Circuit:
    """Immutable circuit: variable grid size n, topologically ordered nodes, root id.

    `nodes` may be given as objects of the four node classes, which `Nodes.of`
    converts once.
    """

    n: int
    nodes: Nodes
    root: int

    def __post_init__(self):
        if type(self.nodes) is not Nodes:
            object.__setattr__(self, "nodes", Nodes.of(self.nodes))


class Builder:
    """Append-only flat node arrays; `leaf` shares equal leaves, `emit` never does.
    Operands must be exact ints (ids, rows, cols and constants the caller
    computed): `nodes` packs them untested, as tuples where a constant is past int32."""

    def __init__(self):
        self.op: list[int] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self._leaves: dict[tuple[int, int, int], int] = {}

    def emit(self, op: int, a: int, b: int) -> int:
        self.op.append(op)
        self.a.append(a)
        self.b.append(b)
        return len(self.op) - 1

    def leaf(self, op: int, a: int, b: int = 0) -> int:
        got = self._leaves.get((op, a, b))
        if got is None:
            got = self._leaves[op, a, b] = self.emit(op, a, b)
        return got

    def nodes(self) -> Nodes:
        try:
            return Nodes(bytes(self.op), _ints(self.a), _ints(self.b))
        except struct.error:
            return Nodes(self.op, self.a, self.b)


def join(first: Circuit, second: Circuit) -> Circuit:
    """first + second on first's grid: second's nodes follow first's, and one
    Add joins the two roots.  Second's child ids move up by len(first), one run
    of gates between two leaves at a time (ids fit int32 below 2**31 nodes)."""
    offset, nodes = len(first.nodes), second.nodes
    ops, lefts, rights = _writable(first.nodes, nodes, Nodes((ADD,), (first.root,), (second.root + offset,)))
    start = offset
    for leaf in sorted(_ids(nodes.op, VAR) + _ids(nodes.op, CONST)) + [len(nodes)]:
        stop = leaf + offset
        for field in (lefts, rights):
            field[start:stop] = array(_OPERANDS, map(offset.__add__, field[start:stop]))
        start = stop + 1
    return Circuit(first.n, Nodes(ops, lefts, rights), len(ops) - 1)


def negate(circuit: Circuit) -> Circuit:
    """-1 times the circuit: its nodes, then CONST -1 and MUL(-1, root)."""
    size = len(circuit.nodes)
    sign = Nodes((CONST, MUL), (-1, size), (0, circuit.root))
    return Circuit(circuit.n, Nodes(*_writable(circuit.nodes, sign)), size + 1)


@dataclass(frozen=True, slots=True)
class RegularCircuit:
    """A circuit, the order sigma it is regular for, and its degree.

    `circuit` is the node DAG, `sigma` the row order (sigma[p-1] is the row at
    position p) and `degree` the length of the root interval, which covers
    positions 1..degree (0 for a constant).  The constructor checks nothing:
    `regular` builds instances where circuits enter, and passes that preserve
    regularity by construction assemble their results directly.
    """

    circuit: Circuit
    sigma: tuple[int, ...]
    degree: int


@dataclass(frozen=True)
class Bouquet:
    """Ordered sum of regular summands over one n-row grid, with a global sign.

    The semantic value is sign * (sum of the summand polynomials).  The sign
    stays symbolic while the bouquet is a sum: row-permuting substitutions on
    an alternating-sign polynomial flip the value of the whole sum, and no
    single summand can absorb that flip.  It materializes as one -1 product
    gate when the bouquet is flattened to a single circuit, which is why the
    pending sign counts as one gate in size accounting (see
    `bouquet_gate_count`).

    Summands may use different orders; a summand collapsed to a constant
    (degree 0) is kept in place so positions stay stable across passes.
    """

    n: int
    summands: tuple[RegularCircuit, ...]
    sign: int = 1

    def __post_init__(self):
        if not self.summands:
            raise ValueError("bouquet needs at least one summand")
        if not _is_int(self.sign) or self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for rc in self.summands:
            if rc.circuit.n != self.n:
                raise ValueError(
                    f"summand grid size {rc.circuit.n} does not match bouquet n={self.n}"
                )


def _is_int(value) -> bool:
    """The one value rule: exactly an int, so not a bool, an int subclass or a float."""
    return type(value) is int


def decimal(text: str) -> int:
    """The int that an optional '-' and ASCII digits spell: the one integer rule for text."""
    if not (type(text) is str and text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _is_permutation(seq: Sequence, n: int) -> bool:
    """seq holds exactly 1..n as exact ints; length first, so a huge n costs nothing."""
    return len(seq) == n and all(_is_int(v) for v in seq) and sorted(seq) == list(range(1, n + 1))


def _bits(mask: int) -> list[int]:
    """0-based indices of the set bits of `mask`, low to high."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _child_error(vid: int, a, b) -> BadChildRef:
    """Gate vid's error for its first child reference that is not an int in [0, vid)."""
    return BadChildRef(vid, b if _is_int(a) and 0 <= a < vid else a)


def _sweep(circuit: Circuit, sigma: tuple[int, ...] | None) -> list[int]:
    """Check typing, and regularity w.r.t. sigma if it is given; return each node's mask.

    Bit p-1 of a mask stands for position p of sigma, or for row p when sigma
    is None or not a permutation.  A typing error raises at once, at the first
    offending node in id order; the first product whose non-empty factors are
    not adjacent left-then-right is only recorded, so that a typing error
    anywhere, and then a sigma that is not a permutation, come first.
    """
    n, nodes, root = circuit.n, circuit.nodes, circuit.root
    if not _is_int(n):
        raise CircuitError(f"grid size must be an int, got {n!r}")
    if n < 1:
        raise CircuitError(f"grid size must be positive, got {n}")
    ops, lefts, rights = nodes.op, nodes.a, nodes.b
    if not (_is_int(root) and 0 <= root < len(ops)):
        raise BadChildRef(root, root)
    # row -> bit index under sigma; without one, row r is bit r-1.  Nothing
    # per row of the grid is built without an order or for a sigma that is
    # not a permutation, so a huge n costs nothing to check.
    shift = None
    if sigma is not None and _is_permutation(sigma, n):
        shift = [0] * (n + 1)
        for p, row in enumerate(sigma):
            shift[row] = p

    ops = ops[: _known(ops)]  # stop before an unknown opcode, so earlier errors come first

    masks: list[int] = []
    append = masks.append
    bad = None  # first irregular product
    # a node's id is len(masks), one mask per earlier node, so indexing masks
    # checks a child reference's upper bound; a reference must also be an int
    # (`_is_int`, inlined) and not negative
    for op, a, b in zip(ops, lefts, rights):
        if op == MUL:
            if not (type(a) is int and type(b) is int and a >= 0 and b >= 0):
                raise _child_error(len(masks), a, b)
            try:
                lm, rm = masks[a], masks[b]
            except IndexError:
                raise _child_error(len(masks), a, b) from None
            if lm & rm:
                raise MulOverlap(len(masks))
            # every earlier mask is contiguous until the first bad product
            if not (lm << 1 & rm) and lm and rm and bad is None:
                bad = len(masks)
            append(lm | rm)
        elif op == ADD:
            if not (type(a) is int and type(b) is int and a >= 0 and b >= 0):
                raise _child_error(len(masks), a, b)
            try:
                lm, rm = masks[a], masks[b]
            except IndexError:
                raise _child_error(len(masks), a, b) from None
            if lm != rm:
                raise AddMismatch(len(masks))
            append(lm)
        elif op == VAR:  # a, b = row, col
            if not (_is_int(a) and _is_int(b) and 1 <= a <= n and 1 <= b <= n):
                raise VariableOutOfRange(len(masks), a, b, n)
            append(1 << (a - 1 if shift is None else shift[a]))
        elif _is_int(a):  # a CONST
            append(0)
        else:
            raise CircuitError(f"node {len(masks)}: constant {a!r} is not an int")
    if len(masks) < len(nodes):
        raise _unknown(nodes.op, len(masks))

    if sigma is None:
        return masks
    if shift is None:
        raise CircuitError(f"sigma {sigma} is not a permutation of [1..{n}]")
    if bad is not None:
        lm, rm = masks[lefts[bad]], masks[rights[bad]]
        if rm << 1 & lm:
            raise WrongAdjacency(bad)
        raise NotContiguous(bad, frozenset(sigma[p] for p in _bits(lm | rm)))
    return masks


def _per_mask(masks: list[int], view) -> tuple:
    """`view(mask)` for every mask, computed once per distinct mask."""
    table = {mask: view(mask) for mask in set(masks)}
    return tuple(map(table.__getitem__, masks))


def validate(circuit: Circuit) -> tuple[frozenset[int], ...]:
    """Check set-multilinear typing and return the index set of every node.

    Raises BadChildRef / VariableOutOfRange / AddMismatch / MulOverlap on the
    first offending node in id order; a variable whose row or col is not an
    int (a float 1.0 included) is out of range.  Each distinct row mask of the
    sweep becomes one frozenset.
    """
    return _per_mask(_sweep(circuit, None), lambda mask: frozenset(p + 1 for p in _bits(mask)))


def infer_order(circuit: Circuit, sigma: tuple[int, ...]) -> tuple[tuple[int, int] | None, ...]:
    """The unique interval of every node w.r.t. sigma (None for empty), or fail.

    sigma is given as 1-based images (sigma[p-1] is the row at position p).
    Typing errors come first, then a sigma that is not a permutation (an entry
    that is not an int included), then NotContiguous / WrongAdjacency at the
    first product whose factors are not adjacent runs, left child first.  A
    node's interval is the pair (start, length) of the contiguous positions it
    covers, start 1-based: the lowest set bit and the bit count of its mask.
    """
    masks = _sweep(circuit, tuple(sigma))
    return _per_mask(masks, lambda m: ((m & -m).bit_length(), m.bit_count()) if m else None)


def regular(circuit: Circuit, sigma: tuple[int, ...]) -> RegularCircuit:
    """Check that a circuit is regular w.r.t. sigma and wrap it.

    After `infer_order`'s checks this checks the root invariant: a regular
    circuit of degree d covers positions 1..d (a prefix of the order), so its
    root mask is 2^d - 1.  Only sigma and d are kept.
    """
    sigma = tuple(sigma)
    mask = _sweep(circuit, sigma)[circuit.root]
    if mask & (mask + 1):
        raise RootNotPrefix((mask & -mask).bit_length(), mask.bit_count())
    return RegularCircuit(circuit, sigma, mask.bit_count())


def stats(circuit: Circuit) -> dict[str, int]:
    """{"size": all nodes, "depth": edges on the longest leaf-to-root path, "degree", "gates"}."""
    degree = _sweep(circuit, None)[circuit.root].bit_count()
    nodes = circuit.nodes
    depths: list[int] = []
    for op, left, right in zip(nodes.op, nodes.a, nodes.b):
        depths.append(1 + max(depths[left], depths[right]) if op < VAR else 0)
    size, depth, gates = len(nodes), depths[circuit.root], gate_count(circuit)
    return {"size": size, "depth": depth, "degree": degree, "gates": gates}


def gate_count(circuit: Circuit) -> int:
    """Number of internal (add/mul) gates.

    This is the metric used by the size bookkeeping of the passes: attaching a
    sign factor costs one product gate (its constant leaf is not counted), and
    joining two summands costs one addition gate.
    """
    ops = circuit.nodes.op
    return ops.count(MUL) + ops.count(ADD)


def bouquet_gate_count(bouquet: Bouquet) -> int:
    """Total internal gates across summands, plus one for a pending -1 sign."""
    total = sum(gate_count(rc.circuit) for rc in bouquet.summands)
    return total + (1 if bouquet.sign < 0 else 0)


def variables_of(circuit: Circuit) -> set[tuple[int, int]]:
    """All (row, col) pairs appearing as variable leaves."""
    nodes = circuit.nodes
    return {(nodes.a[v], nodes.b[v]) for v in _ids(nodes.op, VAR)}
