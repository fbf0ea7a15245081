"""Set-multilinear circuit IR: typing validation and interval (regularity) checking.

A circuit is an immutable DAG over an n-row variable grid x[r,c], r,c in 1..n.
Row r is the partition class of x[r,c]: every monomial of a set-multilinear
polynomial picks at most one variable per row.  Nodes live in a flat list in
topological order (children always have smaller ids), so structural passes can
rebuild circuits with a single left-to-right sweep.

Typing assigns each node v its index set I_v (the set of rows it covers):
constants cover nothing, a variable leaf covers its row, addition requires
identical child sets, multiplication requires disjoint child sets and takes
their union.

Regularity against a permutation sigma of [1..n] strengthens typing: every
index set must be a contiguous interval of the order (sigma(1),...,sigma(n)),
and the left factor of every product must sit immediately before the right
factor.  `infer_order` computes the unique interval assignment or reports the
first gate that breaks it.

`regular` is the check at trust boundaries (parsing, the generators,
`project`).  It runs one left-to-right sweep over plain ints, with no index
sets and no `Interval` objects, and keeps only sigma and the degree.  Only a
circuit that the sweep rejects goes through `infer_order`, whose typed error
names the offending gate, so typing errors anywhere still come before
regularity errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ConstLeaf",
    "VarLeaf",
    "Add",
    "Mul",
    "Node",
    "Circuit",
    "Interval",
    "OrderAssignment",
    "RegularCircuit",
    "Bouquet",
    "CircuitStats",
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


@dataclass(frozen=True, slots=True)
class Circuit:
    """Immutable circuit: variable grid size n, topologically ordered nodes, root id."""

    n: int
    nodes: tuple[Node, ...]
    root: int


@dataclass(frozen=True, slots=True)
class Interval:
    """Contiguous run of positions in sigma-order, 1-based inclusive start."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True, slots=True)
class OrderAssignment:
    """Per-node interval assignment w.r.t. sigma; None marks the empty interval."""

    sigma: tuple[int, ...]
    intervals: tuple[Interval | None, ...]


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
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for rc in self.summands:
            if rc.circuit.n != self.n:
                raise ValueError(
                    f"summand grid size {rc.circuit.n} does not match bouquet n={self.n}"
                )


@dataclass(frozen=True, slots=True)
class CircuitStats:
    size: int
    depth: int
    degree: int


def validate(circuit: Circuit) -> tuple[frozenset[int], ...]:
    """Check set-multilinear typing and return the index set of every node.

    Raises BadChildRef / VariableOutOfRange / AddMismatch / MulOverlap on the
    first offending node in id order; a variable whose row or col is not an
    int (a float 1.0 included) is out of range.  Deterministic: the same
    circuit always yields the same assignment.
    """
    n = circuit.n
    if n < 1:
        raise CircuitError(f"grid size must be positive, got {n}")
    if not (0 <= circuit.root < len(circuit.nodes)):
        raise BadChildRef(circuit.root, circuit.root)

    sets: list[frozenset[int]] = []
    for vid, node in enumerate(circuit.nodes):
        if isinstance(node, ConstLeaf):
            sets.append(frozenset())
        elif isinstance(node, VarLeaf):
            row, col = node.row, node.col
            if not (isinstance(row, int) and isinstance(col, int)) or not (
                1 <= row <= n and 1 <= col <= n
            ):
                raise VariableOutOfRange(vid, row, col, n)
            sets.append(frozenset((node.row,)))
        else:
            for ref in (node.left, node.right):
                if not (0 <= ref < vid):
                    raise BadChildRef(vid, ref)
            left, right = sets[node.left], sets[node.right]
            if isinstance(node, Add):
                if left != right:
                    raise AddMismatch(vid)
                sets.append(left)
            else:
                if left & right:
                    raise MulOverlap(vid)
                sets.append(left | right)
    return tuple(sets)


def infer_order(circuit: Circuit, sigma: tuple[int, ...]) -> OrderAssignment:
    """Compute the unique interval assignment w.r.t. sigma, or fail.

    sigma is given as 1-based images (sigma[p-1] is the row at position p).
    Propagates intervals bottom-up: a product's children must occupy adjacent
    position runs with the left child first; an addition inherits its
    children's common interval.  Raises NotContiguous / WrongAdjacency at the
    first offending gate; a sigma with an entry that is not an int is not a
    permutation.
    """
    sets = validate(circuit)
    n = circuit.n
    sigma = tuple(sigma)
    if not all(isinstance(row, int) for row in sigma) or sorted(sigma) != list(range(1, n + 1)):
        raise CircuitError(f"sigma {sigma} is not a permutation of [1..{n}]")
    position = {row: p for p, row in enumerate(sigma, start=1)}

    intervals: list[Interval | None] = []
    for vid, node in enumerate(circuit.nodes):
        if isinstance(node, ConstLeaf):
            intervals.append(None)
        elif isinstance(node, VarLeaf):
            intervals.append(Interval(position[node.row], 1))
        elif isinstance(node, Add):
            # validate() guarantees equal child sets, hence equal intervals
            intervals.append(intervals[node.left])
        else:
            li, ri = intervals[node.left], intervals[node.right]
            if li is None:
                intervals.append(ri)
            elif ri is None:
                intervals.append(li)
            elif li.end + 1 == ri.start:
                intervals.append(Interval(li.start, li.length + ri.length))
            elif ri.end + 1 == li.start:
                raise WrongAdjacency(vid)
            else:
                raise NotContiguous(vid, sets[vid])
    return OrderAssignment(sigma, tuple(intervals))


def _interval_sweep(circuit: Circuit, sigma: tuple[int, ...]) -> int | None:
    """Degree of `circuit` if it is regular w.r.t. sigma with a prefix root, else None.

    One left-to-right pass over plain ints: node v covers positions
    start[v]..end[v] of the order, and start 0 is the empty interval.  Once
    every interval is contiguous, equal intervals mean equal index sets and
    adjacent ones are disjoint, so this accepts exactly what `validate`,
    `infer_order` and the root check accept.
    """
    n, nodes, root = circuit.n, circuit.nodes, circuit.root
    if n < 1 or not 0 <= root < len(nodes) or len(sigma) != n:
        return None
    position = [0] * (n + 1)
    for p, row in enumerate(sigma, start=1):
        if not 0 < row <= n or position[row]:
            return None
        position[row] = p

    start: list[int] = []
    end: list[int] = []
    for vid, node in enumerate(nodes):
        kind = type(node)
        if kind is Mul:
            left, right = node.left, node.right
            if not (0 <= left < vid and 0 <= right < vid):
                return None
            s, e = start[left], end[left]
            rs = start[right]
            if not s:
                s, e = rs, end[right]
            elif rs:
                if e + 1 != rs:
                    return None
                e = end[right]
        elif kind is Add:
            left, right = node.left, node.right
            if not (0 <= left < vid and 0 <= right < vid):
                return None
            s, e = start[left], end[left]
            if s != start[right] or e != end[right]:
                return None
        elif kind is VarLeaf:
            # a non-int row fails the position lookup; a col is never looked
            # up, so one that is not exactly an int is left to infer_order
            col = node.col
            if not (0 < node.row <= n and 0 < col <= n) or type(col) is not int:
                return None
            s = e = position[node.row]
        elif kind is ConstLeaf:
            s = e = 0
        else:
            return None
        start.append(s)
        end.append(e)
    if not start[root]:
        return 0
    return end[root] if start[root] == 1 else None


def regular(circuit: Circuit, sigma: tuple[int, ...]) -> RegularCircuit:
    """Check that a circuit is regular w.r.t. sigma and wrap it.

    On top of typing and interval inference this checks the root invariant:
    a regular circuit of degree d covers positions 1..d (a prefix of the
    order).  Only sigma and d are kept.  The check is one int-only sweep
    (`_interval_sweep`).  Only when it rejects does `infer_order` run on the
    same input: it raises the typed error that names the first offending
    gate, typing errors anywhere before regularity errors, and what it still
    accepts (a node of a subclass, or an int-subclass field) is wrapped as
    before.  A row, col or sigma entry that is not an int is rejected.
    """
    try:
        sigma = tuple(sigma)
        degree = _interval_sweep(circuit, sigma)
    except TypeError:  # a field that is not an int; infer_order reports it
        degree = None
    if degree is not None:
        return RegularCircuit(circuit, sigma, degree)
    order = infer_order(circuit, sigma)
    root_iv = order.intervals[circuit.root]
    if root_iv is not None and root_iv.start != 1:
        raise RootNotPrefix(root_iv.start, root_iv.length)
    return RegularCircuit(circuit, order.sigma, 0 if root_iv is None else root_iv.length)


def stats(circuit: Circuit) -> CircuitStats:
    """Size (all nodes), depth (edges on the longest leaf-to-root path), degree."""
    sets = validate(circuit)
    depths = [0] * len(circuit.nodes)
    for vid, node in enumerate(circuit.nodes):
        if isinstance(node, (Add, Mul)):
            depths[vid] = 1 + max(depths[node.left], depths[node.right])
    return CircuitStats(
        size=len(circuit.nodes),
        depth=depths[circuit.root],
        degree=len(sets[circuit.root]),
    )


def gate_count(circuit: Circuit) -> int:
    """Number of internal (add/mul) gates.

    This is the metric used by the size bookkeeping of the passes: attaching a
    sign factor costs one product gate (its constant leaf is not counted), and
    joining two summands costs one addition gate.
    """
    return sum(1 for node in circuit.nodes if isinstance(node, (Add, Mul)))


def bouquet_gate_count(bouquet: Bouquet) -> int:
    """Total internal gates across summands, plus one for a pending -1 sign."""
    total = sum(gate_count(rc.circuit) for rc in bouquet.summands)
    return total + (1 if bouquet.sign < 0 else 0)


def variables_of(circuit: Circuit) -> set[tuple[int, int]]:
    """All (row, col) pairs appearing as variable leaves."""
    return {(nd.row, nd.col) for nd in circuit.nodes if isinstance(nd, VarLeaf)}
