"""Ground-truth polynomial oracles, independent of the circuit passes.

Everything here is deliberately brute force: exact sparse expansion over
arbitrary-precision integers, evaluation at many points, Leibniz-sum
reference determinant/permanent polynomials, the determinant of a concrete
matrix by Gaussian elimination, permutation sign (the parity of the number of
inversions), and a seeded Schwartz-Zippel equivalence test whose verdict is
the dict `smlc equiv` writes (exact equivalence is equality of two
expansions' terms).  Every modular computation is over one field, the
integers mod the fixed 61-bit Mersenne prime PRIME = 2^61 - 1.  Passes are
trusted only after they agree with these oracles.

Evaluation (`eval_points`) compiles one summand at a time into a program in
which structurally equal nodes share one slot, and sweeps it over every point
before the next; `eval_circuit` and `eval_bouquet` are its one-point forms.
The program's values are plain ints, reduced modulo PRIME only at the slots
whose static bit bound would pass REDUCE_CEILING and once per point at the
end; the results equal reduction at every operation.

A monomial is a tuple of (row, col) pairs sorted by strictly increasing row;
a polynomial (`SparsePoly`, a plain record; `expand` forms its sums and
products) maps monomials to nonzero integer coefficients.  Field elements are
plain ints in [0, PRIME).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .circuit import ADD, CONST, MUL, VAR, Bouquet, Circuit, _ids, _is_int, _is_permutation
from .circuit import validate, variables_of

# Fixed carrier for randomized identity testing.  Degree-d polynomials collide
# at a uniform random point with probability at most d / PRIME per trial.
PRIME = 2**61 - 1

TERM_BUDGET = 10**6  # terms any one node of an exact expansion may hold
DEFAULT_TRIALS = 20

Monomial = tuple[tuple[int, int], ...]
Assignment = Mapping[tuple[int, int], int]


class OracleError(Exception):
    """Base class for oracle failures."""


class BudgetExceeded(OracleError):
    """Exact expansion would exceed the term budget; instance too large."""


class TooLarge(OracleError):
    """Factorial-size reference construction refused."""


class NotAPermutation(OracleError):
    def __init__(self, seq, n: int):
        super().__init__(f"{tuple(seq)} is not a permutation of [1..{n}]")


class MissingAssignment(OracleError):
    def __init__(self, row: int, col: int):
        super().__init__(f"no value assigned for variable x[{row},{col}]")


# ---------------------------------------------------------------------------
# Permutations (1-based image tuples: pi[p-1] is the image of p)
# ---------------------------------------------------------------------------

def check_permutation(pi: Iterable[int], n: int) -> tuple[int, ...]:
    """pi as a tuple, if it is a permutation of [1..n] (ints, not bools); else NotAPermutation."""
    pi = tuple(pi)
    if not _is_permutation(pi, n):
        raise NotAPermutation(pi, n)
    return pi


def sign_of_permutation(pi: Iterable[int]) -> int:
    """Parity of pi: +1 for even, -1 for odd, by its number of inversions."""
    pi = tuple(pi)
    check_permutation(pi, len(pi))
    return -1 if sum(a > b for i, a in enumerate(pi) for b in pi[i + 1 :]) % 2 else 1


def compose_perms(tau: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """tau after sigma: position p maps to tau(sigma(p))."""
    return tuple(tau[s - 1] for s in sigma)


def invert_perm(pi: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(pi)
    for p, image in enumerate(pi, start=1):
        inv[image - 1] = p
    return tuple(inv)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


# ---------------------------------------------------------------------------
# Sparse exact polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparsePoly:
    """Exact sparse polynomial: monomial -> nonzero integer coefficient.

    Canonical by construction; two instances over the same grid are equal iff
    they represent the same polynomial.
    """

    n: int
    terms: dict[Monomial, int]

    def __len__(self) -> int:
        return len(self.terms)


def _add_into(terms: dict[Monomial, int], other: SparsePoly) -> dict[Monomial, int]:
    # add other's terms into `terms`, which the caller gives up; returns it
    for mono, coeff in other.terms.items():
        total = terms.get(mono, 0) + coeff
        if total:
            terms[mono] = total
        else:
            terms.pop(mono, None)
    return terms


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    # merge two row-sorted monomials; rows must stay distinct
    merged = sorted(a + b)
    for (r1, _), (r2, _) in zip(merged, merged[1:]):
        if r1 == r2:
            raise OracleError(f"monomial product reuses row {r1}")
    return tuple(merged)


def poly_to_text(poly: SparsePoly) -> str:
    """Canonical text form: one `coeff x[r,c] ...` line per term, monomials sorted."""
    lines = []
    for mono in sorted(poly.terms):
        parts = [str(poly.terms[mono])]
        parts.extend(f"x[{r},{c}]" for r, c in mono)
        lines.append(" ".join(parts))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Circuit expansion and evaluation
# ---------------------------------------------------------------------------

def expand(circuit: Circuit) -> SparsePoly:
    """Exact polynomial computed by the circuit.

    Works bottom-up over the node list.  Because every gate of a valid circuit
    is set-multilinear, the term count of a product is exactly the product of
    the factor term counts, which gives a precise check against TERM_BUDGET
    before any large multiplication is attempted.

    Intermediate polynomials are dropped (and their dicts reused) at their
    last reference, so long addition chains accumulate in linear rather than
    quadratic time and peak memory stays proportional to the live frontier.
    The circuit comes from outside and is validated first.
    """
    validate(circuit)
    return _expand(circuit)


def _expand(circuit: Circuit) -> SparsePoly:
    # expand for circuits known to be well typed
    n, term_budget = circuit.n, TERM_BUDGET
    nodes = circuit.nodes
    ops, lefts, rights = nodes.op, nodes.a, nodes.b
    remaining = [0] * len(ops)
    for op, left, right in zip(ops, lefts, rights):
        if op < VAR:
            remaining[left] += 1
            remaining[right] += 1
    remaining[circuit.root] += 1

    polys: list[SparsePoly | None] = [None] * len(ops)
    for vid, op, left, right in zip(range(len(ops)), ops, lefts, rights):
        if op == CONST:
            result = SparsePoly(n, {(): left} if left else {})
        elif op == VAR:
            result = SparsePoly(n, {((left, right),): 1})
        else:
            a = polys[left]
            b = polys[right]
            remaining[left] -= 1
            remaining[right] -= 1
            if op == ADD:
                # add into a dead operand's dict (the larger), else into a copy
                dead_a = remaining[left] == 0 and left != right
                dead_b = remaining[right] == 0 and left != right
                if dead_b and not (dead_a and len(a) >= len(b)):
                    a, b = b, a
                base = a.terms if dead_a or dead_b else dict(a.terms)
                result = SparsePoly(n, _add_into(base, b))
                if len(result) > term_budget:
                    raise BudgetExceeded(f"{len(result)} terms exceed budget {term_budget}")
            else:
                if len(a) * len(b) > term_budget:
                    raise BudgetExceeded(
                        f"product of {len(a)} x {len(b)} terms exceeds budget {term_budget}"
                    )
                # each pair of terms gives its own monomial: two pairs that met
                # would make a crossed pair reuse a row, which _merge_monomials refuses
                result = SparsePoly(n, {_merge_monomials(ma, mb): ca * cb
                                        for ma, ca in a.terms.items() for mb, cb in b.terms.items()})
            if remaining[left] == 0:
                polys[left] = None
            if remaining[right] == 0:
                polys[right] = None
        polys[vid] = result
    return polys[circuit.root]


def eval_points(doc: Circuit | Bouquet, points: Iterable[Assignment]) -> list[int]:
    """Value of a circuit or bouquet polynomial at each point, mod PRIME.

    Summand-major: each circuit (every summand of a bouquet) is compiled into
    a flat, value-numbered program (`_compile`), swept over every point into
    per-point totals, and dropped before the next one is compiled, so one
    program is alive at a time; a bouquet's value is sign times the sum of
    its summands' values.  Slots hold plain ints, reduced mod PRIME only where
    `_compile` marked them, and each point's total is reduced once at the
    end, so every result equals slot-by-slot modular evaluation.  A variable
    a point does not assign raises MissingAssignment before any compile, for
    the first point, then summand, then leaf in node order that lacks one, as
    a point-by-point, node-by-node evaluation would meet it.
    """
    if isinstance(doc, Bouquet):
        circuits, sign = [rc.circuit for rc in doc.summands], doc.sign
    else:
        circuits, sign = [doc], 1
    points = list(points)
    leaves = [[(c.nodes.a[v], c.nodes.b[v]) for v in _ids(c.nodes.op, VAR)] for c in circuits]
    for point in points:
        for key in itertools.chain.from_iterable(leaves):
            if key not in point:
                raise MissingAssignment(*key)
    totals = [0] * len(points)
    for circuit in circuits:
        _accumulate(circuit, points, totals)
    return [total % PRIME * sign % PRIME for total in totals]


def _accumulate(circuit: Circuit, points: list[Assignment], totals: list[int]) -> None:
    # add the circuit's unreduced value at each point into totals; the
    # program and the last point's slots die at return
    program, root = _compile(circuit)
    prime = PRIME
    for i, point in enumerate(points):
        values: list[int] = []
        append = values.append
        for op, a, b in program:
            if op == MUL:
                append(values[a] * values[b])
            elif op == ADD:
                append(values[a] + values[b])
            elif op == VAR:
                append(point[a, b] % prime)
            elif op == MUL_MOD:
                append(values[a] * values[b] % prime)
            elif op == ADD_MOD:
                append((values[a] + values[b]) % prime)
            else:
                append(a)
        totals[i] += values[root]


# Bit ceiling of the evaluator's unreduced slots (see _compile); a reduced
# value, like a variable's, is below 2**FIELD_BITS.
REDUCE_CEILING = 1024
FIELD_BITS = PRIME.bit_length()
MUL_MOD, ADD_MOD = 4, 5  # reducing gates, past the circuit's opcodes


def _compile(circuit: Circuit) -> tuple[list[tuple[int, int, int]], int]:
    """(program, root slot): the circuit as a flat list of (op, a, b) slots.

    One pass over the node arrays, with the circuit's opcodes.  Nodes are
    value-numbered: each distinct (op, operands) gets one slot, so
    structurally equal nodes are computed once.  A gate's operands are the
    slots of its children, a variable's are its row and col, and a constant
    is keyed by its value mod PRIME, so constants congruent mod PRIME share a
    slot; the slot holds the least-absolute residue, so -1 stays -1.

    Each slot also gets a static bound b, |value| < 2**b at every point:
    FIELD_BITS for a variable (point values are reduced on load), a
    constant's bit length, the operands' sum for a product and their maximum
    plus 1 for a sum.  A gate whose bound would pass REDUCE_CEILING becomes
    a reducing slot (MUL_MOD, ADD_MOD) with bound FIELD_BITS.
    """
    memo: dict[tuple[int, int, int], int] = {}
    program: list[tuple[int, int, int]] = []
    bits: list[int] = []  # slot -> static bound
    slot_of: list[int] = []  # node id -> slot
    half = PRIME // 2
    nodes = circuit.nodes
    for op, a, b in zip(nodes.op, nodes.a, nodes.b):
        if op == CONST:
            key = (CONST, a % PRIME, 0)
        elif op == VAR:
            key = (VAR, a, b)
        else:
            key = (op, slot_of[a], slot_of[b])
        slot = memo.get(key)
        if slot is None:
            slot = memo[key] = len(program)
            if op == CONST:
                value = key[1] - PRIME if key[1] > half else key[1]
                program.append((CONST, value, 0))
                bits.append(value.bit_length())
            elif op == VAR:
                program.append(key)
                bits.append(FIELD_BITS)
            else:
                left, right = bits[key[1]], bits[key[2]]
                bound = left + right if op == MUL else max(left, right) + 1
                if bound > REDUCE_CEILING:
                    program.append((MUL_MOD if op == MUL else ADD_MOD, key[1], key[2]))
                    bound = FIELD_BITS
                else:
                    program.append(key)
                bits.append(bound)
        slot_of.append(slot)
    return program, slot_of[circuit.root]


def eval_circuit(circuit: Circuit, assignment: Assignment) -> int:
    """Value of the circuit polynomial at one point, mod PRIME (see eval_points)."""
    return eval_points(circuit, [assignment])[0]


def expand_bouquet(bouquet: Bouquet) -> SparsePoly:
    """Exact polynomial of the whole bouquet: sign * sum of summand expansions.

    The summands are already regular, so they are not validated again.
    """
    terms: dict[Monomial, int] = {}
    for rc in bouquet.summands:
        _add_into(terms, _expand(rc.circuit))
    if bouquet.sign < 0:
        terms = {mono: -coeff for mono, coeff in terms.items()}
    return SparsePoly(bouquet.n, terms)


def eval_bouquet(bouquet: Bouquet, assignment: Assignment) -> int:
    """Value of sign * (sum of summands) at one point, mod PRIME (see eval_points)."""
    return eval_points(bouquet, [assignment])[0]


# ---------------------------------------------------------------------------
# Reference polynomials
# ---------------------------------------------------------------------------

REFERENCE_MAX_N = 8  # n! terms; 8! = 40320 is the desk-scale ceiling


def _leibniz(n: int, coefficient) -> SparsePoly:
    # sum over pi of coefficient(pi) * prod_i x[i, pi(i)]
    terms: dict[Monomial, int] = {}
    for pi in itertools.permutations(range(1, n + 1)):
        terms[tuple(zip(range(1, n + 1), pi))] = coefficient(pi)
    return SparsePoly(n, terms)


def reference_det(n: int) -> SparsePoly:
    """Leibniz expansion of the n x n determinant: sum over pi of sgn(pi) prod x[i,pi(i)]."""
    if n > REFERENCE_MAX_N:
        raise TooLarge(f"reference determinant limited to n <= {REFERENCE_MAX_N}, got {n}")
    return _leibniz(n, sign_of_permutation)


def det_mod(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix mod PRIME, by Gaussian elimination.

    O(n^3) field operations at any n, where reference_det is factorial: the
    value of the n x n determinant polynomial at the point x[r,c] = matrix[r-1][c-1].
    """
    prime = PRIME
    rows = [[x % prime for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det_mod needs a square matrix")
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        lead = rows[col]
        det = det * lead[col] % prime
        inv = pow(lead[col], -1, prime)
        for r in range(col + 1, n):
            factor = rows[r][col] * inv % prime
            if factor:
                rows[r] = [(a - factor * b) % prime for a, b in zip(rows[r], lead)]
    return det


def reference_perm(n: int) -> SparsePoly:
    """Permanent analogue: all n! products with coefficient +1."""
    if n > REFERENCE_MAX_N:
        raise TooLarge(f"reference permanent limited to n <= {REFERENCE_MAX_N}, got {n}")
    return _leibniz(n, lambda pi: 1)


# ---------------------------------------------------------------------------
# Equivalence checks
# ---------------------------------------------------------------------------

def trial_point(
    variables: Iterable[tuple[int, int]], seed: int, trial: int
) -> dict[tuple[int, int], int]:
    """Deterministic uniform sample in [0, PRIME-1] for each variable.

    Sub-seeded per (seed, trial) so trials are independent and reorderable.
    """
    rng = random.Random(f"{seed}:{trial}")
    return {var: rng.randrange(PRIME) for var in sorted(variables)}


def point_to_obj(point: Assignment) -> dict[str, str]:
    """A point as `smlc eval` and `smlc equiv` write it: "r,c" keys, decimal-string values."""
    return {f"{r},{c}": str(v) for (r, c), v in sorted(point.items())}


def _sampled(doc: Circuit | Bouquet) -> set[tuple[int, int]]:
    # a bouquet's summands are already regular, but a raw circuit comes from
    # outside and is validated here
    if isinstance(doc, Bouquet):
        return set().union(*(variables_of(rc.circuit) for rc in doc.summands))
    validate(doc)
    return variables_of(doc)


def equiv_random(
    a: Circuit | Bouquet,
    b: Circuit | Bouquet,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> dict[str, Any]:
    """Schwartz-Zippel identity test at `trials` seeded random points.

    Either side may be a circuit or a bouquet; each is evaluated at all the
    points in one `eval_points` call.  Returns the verdict `smlc equiv` writes:
    {"verdict": "distinct", "trial", "witness", "value_a", "value_b"} for the
    first separating trial and its point, else {"verdict": "equivalent",
    "trials", "prime"}; field elements are decimal strings.  trials and seed
    must be ints, not bools (an OracleError otherwise).
    """
    if not _is_int(trials) or trials < 1:
        raise OracleError(f"trials must be an int >= 1, got {trials!r}")
    if not _is_int(seed):
        raise OracleError(f"seed must be an int, got {seed!r}")
    variables = _sampled(a) | _sampled(b)
    points = [trial_point(variables, seed, t) for t in range(trials)]
    values = zip(eval_points(a, points), eval_points(b, points))
    for t, (va, vb) in enumerate(values):
        if va != vb:
            return {
                "verdict": "distinct",
                "trial": t,
                "witness": point_to_obj(points[t]),
                "value_a": str(va),
                "value_b": str(vb),
            }
    return {"verdict": "equivalent", "trials": trials, "prime": str(PRIME)}
