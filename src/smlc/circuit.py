"""Set-multilinear circuit IR and its one typing and regularity checker.

A circuit is an immutable DAG over an n-row variable grid x[r,c], r,c in 1..n.
Row r is the partition class of x[r,c]: every monomial of a set-multilinear
polynomial picks at most one variable per row.  Nodes live in topological
order (children always have smaller ids), so every pass is one left-to-right
sweep.

The representation is flat: `Nodes` holds three parallel tuples `op`, `a`
and `b`.  Node v is a product or sum (`op[v]` MUL or ADD) of the nodes
`a[v]` and `b[v]`, the variable x[a[v], b[v]] (VAR), or the constant `a[v]`
(CONST, with `b[v]` = 0).  The parser, the generators, the checker, the
passes and the oracles read and write only these arrays.  The node classes
`ConstLeaf`, `VarLeaf`, `Add` and `Mul` are a view: `Circuit` converts them
once (`Nodes.of`), and indexing or iterating `circuit.nodes` builds them.

Typing assigns each node v its index set I_v (the set of rows it covers):
constants cover nothing, a variable leaf covers its row, addition requires
identical child sets, multiplication requires disjoint child sets and takes
their union.

Regularity against a permutation sigma of [1..n] strengthens typing: every
index set must be a contiguous interval of the order (sigma(1),...,sigma(n)),
and the left factor of every product must sit immediately before the right
factor.

One left-to-right sweep, `_sweep`, checks both on int bitmasks in position
space, typing errors anywhere before regularity errors.  `validate`,
`infer_order`, `regular` (the check at trust boundaries: parsing and the
generators) and `stats` are views over it.  `infer_order` and `stats` return
plain tuples and dicts, the values `smlc check-regular` and `smlc stats` write.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

__all__ = [
    "MUL", "ADD", "VAR", "CONST",  # opcodes
    "Nodes",
    "Builder",
    "ConstLeaf",
    "VarLeaf",
    "Add",
    "Mul",
    "Node",
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


Node = ConstLeaf | VarLeaf | Add | Mul

# opcodes of the flat representation; the gates come first, so `op < VAR`
# holds exactly for gates
MUL, ADD, VAR, CONST = range(4)

_CODES = {Mul: MUL, Add: ADD, VarLeaf: VAR, ConstLeaf: CONST}
_CLASSES = (Mul, Add, VarLeaf)


def _node(op: int, a, b) -> Node:
    return ConstLeaf(a) if op == CONST else _CLASSES[op](a, b)


@dataclass(frozen=True, slots=True)
class Nodes(Sequence):
    """A circuit's nodes as three parallel tuples, and a sequence of node objects.

    Node v is `op[v]` with operands `a[v]` and `b[v]` (see the module
    docstring).  `len` reads the arrays; indexing and iteration build node
    objects on demand, and nothing inside the package does either.  Equality
    and hashing compare the arrays; a tuple of node objects equals the nodes
    it converts to.
    """

    op: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    @classmethod
    def of(cls, nodes: Iterable) -> Nodes:
        """Convert node objects: a subclass of a node class counts as that class,
        any other object as a product (it needs `left`/`right`).  Fields are kept
        as given, so the checker rejects what it would reject in the objects."""
        out = Builder()
        for node in nodes:
            code = _CODES.get(type(node))
            if code is None:
                code = next((c for kind, c in _CODES.items() if isinstance(node, kind)), MUL)
            if code == VAR:
                out.emit(code, node.row, node.col)
            elif code == CONST:
                out.emit(code, node.value, 0)
            else:
                out.emit(code, node.left, node.right)
        return out.nodes()

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index: int) -> Node:
        return _node(self.op[index], self.a[index], self.b[index])

    def __iter__(self):
        return map(_node, self.op, self.a, self.b)

    def __eq__(self, other):
        if isinstance(other, Nodes):
            return (self.op, self.a, self.b) == (other.op, other.a, other.b)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented


@dataclass(frozen=True, slots=True)
class Circuit:
    """Immutable circuit: variable grid size n, topologically ordered nodes, root id.

    `nodes` may be given as node objects, which `Nodes.of` converts once.
    """

    n: int
    nodes: Nodes
    root: int

    def __post_init__(self):
        if type(self.nodes) is not Nodes:
            object.__setattr__(self, "nodes", Nodes.of(self.nodes))


class Builder:
    """Append-only flat node arrays; `leaf` shares equal leaves, `emit` never does."""

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
        return Nodes(tuple(self.op), tuple(self.a), tuple(self.b))


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
    summands: tuple[RegularCircuit, ...] = field()
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
    """An int, an int subclass included, but not a bool, which JSON would write as true/false."""
    return isinstance(value, int) and not isinstance(value, bool)


def decimal(text: str) -> int:
    """The int that an optional '-' and ASCII digits spell: the one integer rule for text."""
    if not (isinstance(text, str) and text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _is_permutation(seq: Sequence, n: int) -> bool:
    """seq holds exactly 1..n as ints, not bools; length first, so a huge n costs nothing."""
    return len(seq) == n and all(_is_int(v) for v in seq) and sorted(seq) == list(range(1, n + 1))


def _bits(mask: int) -> list[int]:
    """0-based indices of the set bits of `mask`, low to high."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


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
    if not (0 <= root < len(ops)):
        raise BadChildRef(root, root)
    # row -> bit index under sigma; without one, row r is bit r-1.  Nothing
    # per row of the grid is built without an order or for a sigma that is
    # not a permutation, so a huge n costs nothing to check.
    shift = None
    if sigma is not None and _is_permutation(sigma, n):
        shift = [0] * (n + 1)
        for p, row in enumerate(sigma):
            shift[row] = p

    masks: list[int] = []
    append = masks.append
    bad = None  # first irregular product
    for vid, op, a, b in zip(range(len(ops)), ops, lefts, rights):
        if op == MUL:
            if not (0 <= a < vid and 0 <= b < vid):
                raise BadChildRef(vid, b if 0 <= a < vid else a)
            lm, rm = masks[a], masks[b]
            if lm & rm:
                raise MulOverlap(vid)
            # every earlier mask is contiguous until the first bad product
            if not (lm << 1 & rm) and lm and rm and bad is None:
                bad = vid
            append(lm | rm)
        elif op == ADD:
            if not (0 <= a < vid and 0 <= b < vid):
                raise BadChildRef(vid, b if 0 <= a < vid else a)
            lm = masks[a]
            if lm != masks[b]:
                raise AddMismatch(vid)
            append(lm)
        elif op == VAR:  # a, b = row, col
            if not (_is_int(a) and _is_int(b) and 1 <= a <= n and 1 <= b <= n):
                raise VariableOutOfRange(vid, a, b, n)
            append(1 << (a - 1 if shift is None else shift[a]))
        else:
            append(0)

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
    return {(row, col) for op, row, col in zip(nodes.op, nodes.a, nodes.b) if op == VAR}
