"""Structural passes over regular circuits and bouquets.

All passes are pure: each is one sweep over a circuit's flat node arrays
(`circuit.Nodes`) that builds new arrays and never mutates its input.
Regularity is checked where circuits enter (parsing and the generators), not
after every pass.  Every pass preserves it by construction and carries a
(sigma, degree) over without re-inferring: compose moves no position, reverse
mirrors every interval (a full-degree root stays a prefix), a join adds one
Add over two prefixes of one order, well typed exactly when the degrees
agree, and `project` keeps the induced order by the folding lemma (see
`project`).

The passes:

  reverse             swap the children of every product gate; the result is
                      regular w.r.t. the reversed order and computes the same
                      commutative polynomial.
  compose             substitute x[t(r),c] for x[r,c] everywhere; each
                      summand's order becomes t o sigma, and the bouquet sign
                      flips when t is odd (on an alternating-sign polynomial
                      the row relabeling flips the whole sum).
  monotone_subsequence  exact longest increasing/decreasing subsequence with
                      a deterministic tie-break, as the dict the transcript
                      records.
  project             restrict to a kept row subset by 0/1 substitution,
                      constant-fold, and rank-rename rows/columns to 1..|A|.
  merge_summands      join summands that share an order under addition gates.
  drop_last_index     projection dropping the highest row/column index.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .circuit import ADD, CONST, MUL, VAR, AddMismatch, Bouquet, Builder, Circuit, Nodes
from .circuit import RegularCircuit, RootNotPrefix, _is_int
from .poly import (
    check_permutation,
    compose_perms,
    identity_perm,
    sign_of_permutation,
)

__all__ = [
    "PassError",
    "DuplicateEntries",
    "EmptyKeepSet",
    "DegreeTooSmall",
    "reverse",
    "compose",
    "monotone_subsequence",
    "project",
    "merge_summands",
    "drop_last_index",
    "is_zero_summand",
    "distinct_orders",
]


class PassError(Exception):
    """Base class for pass-level domain errors."""


class DuplicateEntries(PassError):
    def __init__(self, value: int):
        super().__init__(f"sequence entries must be distinct; {value} repeats")


class EmptyKeepSet(PassError):
    def __init__(self):
        super().__init__("projection needs a non-empty keep set")


class DegreeTooSmall(PassError):
    def __init__(self, degree: int):
        super().__init__(f"cannot drop an index at degree {degree}; need >= 2")


# ---------------------------------------------------------------------------
# Reversal
# ---------------------------------------------------------------------------

def reverse(rc: RegularCircuit) -> RegularCircuit:
    """Swap the children of every product gate.

    The node count, ids, and the computed commutative polynomial are all
    unchanged; only the interval structure flips, so the result is regular
    w.r.t. the reversed order.  Any value set that appears as a decreasing
    run in the original order appears as an increasing run afterwards.

    The root interval 1..d mirrors to n-d+1..n, which is a prefix only when
    d is 0 or n; any other degree raises RootNotPrefix.
    """
    n, degree = rc.circuit.n, rc.degree
    if 0 < degree < n:
        raise RootNotPrefix(n - degree + 1, degree)
    ops, lefts, rights = rc.circuit.nodes.op, rc.circuit.nodes.a, rc.circuit.nodes.b
    a = tuple(y if op == MUL else x for op, x, y in zip(ops, lefts, rights))
    b = tuple(x if op == MUL else y for op, x, y in zip(ops, lefts, rights))
    flipped = Circuit(n, Nodes(ops, a, b), rc.circuit.root)
    return RegularCircuit(flipped, tuple(reversed(rc.sigma)), degree)


# ---------------------------------------------------------------------------
# Composition with a row permutation
# ---------------------------------------------------------------------------

def compose(bouquet: Bouquet, tau: Iterable[int]) -> Bouquet:
    """Relabel row r to tau(r) in every variable leaf of every summand.

    Summand i becomes regular w.r.t. tau o sigma_i.  On a bouquet computing
    the determinant this preserves the polynomial: relabeling rows by tau
    multiplies the value by sign(tau), which the bouquet sign absorbs.  On
    arbitrary polynomials it is NOT value-preserving (it genuinely permutes
    monomials), which is exactly why the determinant contract matters.
    """
    tau = check_permutation(tau, bouquet.n)
    if tau == identity_perm(bouquet.n):
        return bouquet

    summands = []
    for rc in bouquet.summands:
        nodes = rc.circuit.nodes
        rows = tuple(tau[x - 1] if op == VAR else x for op, x in zip(nodes.op, nodes.a))
        circuit = Circuit(bouquet.n, Nodes(nodes.op, rows, nodes.b), rc.circuit.root)
        summands.append(RegularCircuit(circuit, compose_perms(tau, rc.sigma), rc.degree))
    sign = bouquet.sign * sign_of_permutation(tau)
    return Bouquet(bouquet.n, tuple(summands), sign)


# ---------------------------------------------------------------------------
# Monotone subsequences
# ---------------------------------------------------------------------------

def _longest_run(seq: Sequence[int]) -> list[int]:
    # a longest increasing run by O(m^2) DP; strict improvement keeps the
    # leftmost optimum, so the chosen end and every back-pointer are fixed
    m = len(seq)
    best = [1] * m
    prev = [-1] * m
    for i in range(m):
        si = seq[i]
        for j in range(i):
            if seq[j] < si and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                prev[i] = j
    end = best.index(max(best))
    out: list[int] = []
    while end != -1:
        out.append(end)
        end = prev[end]
    out.reverse()
    return out


def monotone_subsequence(seq: Sequence[int]) -> dict[str, Any]:
    """Longest strictly monotone subsequence of a sequence of distinct integers.

    Computes both the longest increasing and the longest decreasing
    subsequence exactly and returns the longer one, preferring increasing on
    ties, as {"direction": "increasing" | "decreasing", "positions": 1-based
    indices into seq, "values": the entries there}.  For input length m it
    has at least ceil(sqrt(m)) positions.
    """
    seq = list(seq)
    if not seq:
        raise PassError("sequence must be non-empty")
    seen: set[int] = set()
    for value in seq:
        if not _is_int(value):
            raise PassError(f"sequence entries must be ints, got {value!r}")
        if value in seen:
            raise DuplicateEntries(value)
        seen.add(value)

    inc = _longest_run(seq)
    dec = _longest_run([-value for value in seq])  # decreasing in seq
    chosen, direction = (inc, "increasing") if len(inc) >= len(dec) else (dec, "decreasing")
    positions = [i + 1 for i in chosen]
    return {"direction": direction, "positions": positions, "values": [seq[i] for i in chosen]}


# ---------------------------------------------------------------------------
# Projection onto a kept row subset
# ---------------------------------------------------------------------------

def _substitute_and_fold(circuit: Circuit, rank: list[int], new_n: int) -> Circuit:
    """Apply the 0/1 substitutions for dropped rows, fold constants, rename.

    `rank[r]` is the new index of a kept row or column r, and 0 for a dropped
    one.  Dropped-row variables become 1 on the diagonal and 0 elsewhere;
    kept-row variables with a dropped column become 0.  Folding keeps the
    result well typed: products with a 0 factor collapse, unit factors
    disappear, constant-only gates fold, and a dead (zero) branch of an
    addition is dropped.  Node counts never grow.  On regular input an
    addition never meets a nonzero constant beside a live branch (see
    `project`); where one does, AddMismatch names that addition.
    """
    out = Builder()  # emits every node; only constants are shared
    emit, leaf = out.emit, out.leaf
    # per old node: its new id, or None when it folded to the constant in `value`
    ref: list[int | None] = []
    value: list[int | None] = []
    nodes = circuit.nodes
    for op, x, y in zip(nodes.op, nodes.a, nodes.b):
        new = const = None
        if op == CONST:
            const = x
        elif op == VAR:
            if not rank[x]:
                const = 1 if x == y else 0
            elif not rank[y]:
                const = 0
            else:
                new = emit(VAR, rank[x], rank[y])
        else:
            lr, rr, lv, rv = ref[x], ref[y], value[x], value[y]
            if lr is None and rr is None:
                const = lv + rv if op == ADD else lv * rv
            elif op == ADD:
                if lr is not None and rr is not None:
                    new = emit(ADD, lr, rr)
                elif lv or rv:  # a nonzero constant beside a live branch
                    raise AddMismatch(len(ref))
                else:
                    new = rr if lr is None else lr
            elif lv == 0 or rv == 0:
                const = 0
            elif lr is None:
                new = rr if lv == 1 else emit(MUL, leaf(CONST, lv), rr)
            elif rr is None:
                new = lr if rv == 1 else emit(MUL, lr, leaf(CONST, rv))
            else:
                new = emit(MUL, lr, rr)
        ref.append(new)
        value.append(const)

    root = ref[circuit.root]
    root = leaf(CONST, value[circuit.root]) if root is None else root
    return Circuit(new_n, out.nodes(), root)


def project(bouquet: Bouquet, keep: Iterable[int]) -> Bouquet:
    """Restrict a bouquet to the rows/columns in `keep` and rename by rank.

    For every dropped index j the substitution fixes x[j,j]=1 and zeroes the
    rest of row and column j; the j-th smallest kept index is then renamed to
    j.  On a degree-m determinant bouquet the result computes the determinant
    of the kept principal submatrix, renamed to degree |keep|.

    Each summand comes back regular w.r.t. its order restricted to the kept
    values, by construction (the folding lemma): a node that covers a kept
    row folds to a reference or to 0, and an addition's children cover equal
    rows, so no addition meets a nonzero constant, and a surviving root covers
    exactly the kept rows among sigma's first `degree` positions, which is a
    prefix of the induced order.  The new degree is their count, or 0 when
    the root folds to a constant; nothing is re-inferred.
    """
    keep = list(keep)
    if not keep:
        raise EmptyKeepSet()
    # ints first: sorting a mix such as ["a", 1] would raise a bare TypeError
    if not all(_is_int(v) for v in keep):
        raise PassError(f"keep set {keep} not within [1..{bouquet.n}]")
    keep_list = sorted(set(keep))
    if keep_list[0] < 1 or keep_list[-1] > bouquet.n:
        raise PassError(f"keep set {keep_list} not within [1..{bouquet.n}]")
    rank = [0] * (bouquet.n + 1)
    for i, value in enumerate(keep_list):
        rank[value] = i + 1
    new_n = len(keep_list)

    summands = []
    for rc in bouquet.summands:
        projected = _substitute_and_fold(rc.circuit, rank, new_n)
        induced = tuple(rank[v] for v in rc.sigma if rank[v])
        live = projected.nodes.op[projected.root] != CONST
        degree = sum(1 for v in rc.sigma[: rc.degree] if rank[v]) if live else 0
        summands.append(RegularCircuit(projected, induced, degree))
    return Bouquet(new_n, tuple(summands), bouquet.sign)


def drop_last_index(bouquet: Bouquet) -> Bouquet:
    """Drop the highest row/column index, lowering a determinant's degree by one."""
    if bouquet.n < 2:
        raise DegreeTooSmall(bouquet.n)
    return project(bouquet, range(1, bouquet.n))


# ---------------------------------------------------------------------------
# Summand merging
# ---------------------------------------------------------------------------

def is_zero_summand(rc: RegularCircuit) -> bool:
    nodes, root = rc.circuit.nodes, rc.circuit.root
    return nodes.op[root] == CONST and nodes.a[root] == 0


def distinct_orders(bouquet: Bouquet) -> int:
    """Number of distinct orders among non-zero summands (the k' of a bouquet)."""
    return len({rc.sigma for rc in bouquet.summands if not is_zero_summand(rc)})


def _join_add(a: RegularCircuit, b: RegularCircuit, n: int) -> RegularCircuit:
    # both roots cover the prefix 1..degree of the shared order, so the new
    # Add is well typed exactly when the degrees agree
    first, second = a.circuit.nodes, b.circuit.nodes
    offset = len(first)
    if a.degree != b.degree:
        raise AddMismatch(offset + len(second))

    def shifted(operands: tuple[int, ...]) -> tuple[int, ...]:
        # the second circuit's child ids move up by offset; leaf operands stay
        return tuple(x + offset if op < VAR else x for op, x in zip(second.op, operands))

    nodes = Nodes(
        first.op + second.op + (ADD,),
        first.a + shifted(second.a) + (a.circuit.root,),
        first.b + shifted(second.b) + (b.circuit.root + offset,),
    )
    return RegularCircuit(Circuit(n, nodes, len(nodes) - 1), a.sigma, a.degree)


def merge_summands(bouquet: Bouquet) -> Bouquet:
    """Join same-order summands under addition gates.

    Afterwards all non-zero summands carry pairwise distinct orders.  Zero
    summands are left in place (adding them to a non-constant summand would
    not even type-check) and never absorb a join.  Joining g summands costs
    g-1 addition gates; the summed polynomial is unchanged.
    """
    groups: dict[tuple[int, ...], int] = {}  # sigma -> output position
    out: list[RegularCircuit] = []
    for rc in bouquet.summands:
        if is_zero_summand(rc):
            out.append(rc)
            continue
        slot = groups.get(rc.sigma)
        if slot is None:
            groups[rc.sigma] = len(out)
            out.append(rc)
        else:
            out[slot] = _join_add(out[slot], rc, bouquet.n)
    return Bouquet(bouquet.n, tuple(out), bouquet.sign)
