"""Oracle machinery: expansion, references, signs, evaluation, equivalence."""

import itertools
import math
import random

import pytest
from recheck import c, det_of_matrix, eval_mod, expand_nodes, grid, over_budget_circuit

from smlc import poly
from smlc.circuit import Add, Bouquet, ConstLeaf, Mul, RegularCircuit, VarLeaf
from smlc.generators import det_bouquet, det_regular_circuit
from smlc.poly import (
    PRIME,
    BudgetExceeded,
    NotAPermutation,
    OracleError,
    TooLarge,
    det_mod,
    equiv_random,
    eval_circuit,
    expand,
    expand_bouquet,
    poly_to_text,
    reference_det,
    reference_perm,
    sign_of_permutation,
    trial_point,
)


# --- expand ---------------------------------------------------------------

def test_expand_const():
    assert expand(c(1, ConstLeaf(5))).terms == {(): 5}


def test_expand_add_of_two_vars():
    circuit = c(2, VarLeaf(1, 1), VarLeaf(1, 2), Add(0, 1))
    assert expand(circuit).terms == {((1, 1),): 1, ((1, 2),): 1}


def test_expand_det3_generator_matches_reference():
    poly = expand(det_regular_circuit(3, (1, 2, 3)).circuit)
    assert len(poly) == 6
    assert all(coeff in (1, -1) for coeff in poly.terms.values())
    assert poly.terms == reference_det(3).terms


# x[1,1] * x[1,2], claimed regular: the checker refuses it, but the exact
# tier expands a bouquet's summands without checking them again
ROW_REUSED = Bouquet(2, (RegularCircuit(c(2, VarLeaf(1, 1), VarLeaf(1, 2), Mul(0, 1)), (1, 2), 2),))


@pytest.mark.parametrize(
    ("run", "error", "message"),
    [
        (
            lambda: expand(over_budget_circuit()),
            BudgetExceeded,
            "product of 1331 x 1331 terms exceeds budget 1000000",
        ),
        (lambda: expand_bouquet(ROW_REUSED), OracleError, "monomial product reuses row 1"),
    ],
    ids=["budget-exceeded", "row-reused"],
)
def test_expand_refusal_is_a_typed_error(run, error, message):
    with pytest.raises(error) as err:
        run()
    assert str(err.value) == message


def test_a_sum_past_the_term_budget_is_refused(monkeypatch):
    # each summand of x[1,1] + x[1,2] + x[1,3] is within a budget of 2 terms, and no product is taken
    monkeypatch.setattr(poly, "TERM_BUDGET", 2)
    circuit = c(3, X11, X12, Add(0, 1), X13, Add(2, 3))
    with pytest.raises(BudgetExceeded) as err:
        expand(circuit)
    assert str(err.value) == "3 terms exceed budget 2"


X11, X12, X13 = VarLeaf(1, 1), VarLeaf(1, 2), VarLeaf(1, 3)


@pytest.mark.parametrize(
    "nodes, expected",
    [
        # one gate reads node 2 twice, so it must not add into node 2's dict
        ((X11, X12, Add(0, 1), Add(2, 2)), {((1, 1),): 2, ((1, 2),): 2}),
        # Adds 3 and 4 both read node 2: the first must leave it intact
        ((X11, X12, Add(0, 1), Add(2, 0), Add(2, 1), Add(3, 4)), {((1, 1),): 3, ((1, 2),): 3}),
        # node 2 dies at Add 4 and is smaller than the still-live node 3
        (
            (X11, X12, X13, Add(0, 1), Add(3, 2), Add(4, 3)),
            {((1, 1),): 2, ((1, 2),): 2, ((1, 3),): 1},
        ),
        # a sum that cancels to zero
        ((X11, ConstLeaf(-1), Mul(1, 0), Add(0, 2)), {}),
    ],
    ids=["add-v-v", "add-read-twice", "dead-smaller-than-live", "cancel"],
)
def test_expand_addition_in_place_matches_node_by_node_reference(nodes, expected):
    circuit = c(3, *nodes)
    assert expand(circuit).terms == expected
    assert expand_nodes(circuit).terms == expected


# --- reference polynomials ------------------------------------------------

def test_reference_det_small():
    assert reference_det(1).terms == {((1, 1),): 1}
    assert reference_det(2).terms == {
        ((1, 1), (2, 2)): 1,
        ((1, 2), (2, 1)): -1,
    }
    det3 = reference_det(3)
    assert len(det3) == 6
    assert sorted(det3.terms.values()).count(1) == 3
    assert sorted(det3.terms.values()).count(-1) == 3


def test_reference_counts_and_coefficient_sums():
    for n in range(1, 7):
        det = reference_det(n)
        per = reference_perm(n)
        assert len(det) == len(per) == math.factorial(n)
        assert all(c in (1, -1) for c in det.terms.values())
        assert all(c == 1 for c in per.terms.values())
        if n >= 2:
            assert sum(det.terms.values()) == 0


def test_reference_too_large():
    with pytest.raises(TooLarge):
        reference_det(9)
    with pytest.raises(TooLarge):
        reference_perm(9)


# --- permutation sign -----------------------------------------------------

def test_sign_basics():
    assert sign_of_permutation((1,)) == 1
    assert sign_of_permutation((2, 1, 3)) == -1
    assert sign_of_permutation((2, 3, 1)) == 1  # two transpositions


def test_sign_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        sign_of_permutation((1, 1, 3))


# --- determinant facts ----------------------------------------------------

def _as_matrix(point, n):
    return [[point[(r, cc)] for cc in range(1, n + 1)] for r in range(1, n + 1)]


def test_det_mod_matches_reference_at_trial_points():
    for n in range(1, 7):
        for trial in range(4):
            point = trial_point(grid(n), seed=n, trial=trial)
            assert det_mod(_as_matrix(point, n)) == eval_mod(reference_det(n), point)


def test_det_mod_matches_reference_on_small_entries():
    # entries in {0, 1, 2} force zero pivots, row swaps and singular matrices:
    # every 2x2 and 3x3 such matrix, then random ones up to n=6
    matrices = [
        [list(cells[i * n:(i + 1) * n]) for i in range(n)]
        for n in (2, 3)
        for cells in itertools.product((0, 1, 2), repeat=n * n)
    ]
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(4, 6)
        matrices.append([[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
    singular = swapped = 0
    for matrix in matrices:
        expected = det_of_matrix(matrix) % PRIME
        assert det_mod(matrix) == expected
        singular += expected == 0
        swapped += expected != 0 and matrix[0][0] == 0
    assert singular and swapped


def test_det_mod_reduces_negative_entries_and_rejects_non_square():
    assert det_mod([[-1]]) == PRIME - 1
    assert det_mod([[0, 1], [1, 0]]) == PRIME - 1
    with pytest.raises(ValueError):
        det_mod([[1, 2]])


def test_det_mod_matches_leibniz_circuit_at_n7():
    circuit = det_regular_circuit(7, (3, 1, 7, 5, 2, 6, 4)).circuit
    for trial in range(3):
        point = trial_point(grid(7), seed=77, trial=trial)
        assert det_mod(_as_matrix(point, 7)) == eval_circuit(circuit, point)


# --- evaluation -----------------------------------------------------------

def test_eval_const():
    assert eval_circuit(c(1, ConstLeaf(7)), {}) == 7


def test_eval_det2_at_identity_matrix():
    circuit = det_regular_circuit(2, (1, 2)).circuit
    point = {(1, 1): 1, (2, 2): 1, (1, 2): 0, (2, 1): 0}
    assert eval_circuit(circuit, point) == 1


def test_eval_matches_reference_at_random_point():
    circuit = det_regular_circuit(3, (1, 2, 3)).circuit
    point = trial_point(grid(3), seed=41, trial=0)
    assert eval_circuit(circuit, point) == eval_mod(reference_det(3), point)


def test_eval_missing_assignment():
    from smlc.poly import MissingAssignment

    with pytest.raises(MissingAssignment):
        eval_circuit(c(2, VarLeaf(1, 2)), {})


# --- equivalence ----------------------------------------------------------

# x[1,1] x[2,2] + x[1,2] x[2,1], the 2 x 2 permanent
PER2 = c(
    2,
    VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1),
    VarLeaf(1, 2), VarLeaf(2, 1), Mul(3, 4),
    Add(2, 5),
)


def test_expand_is_order_free():
    a = det_regular_circuit(2, (1, 2)).circuit
    b = det_regular_circuit(2, (2, 1)).circuit
    assert expand(a).terms == expand(b).terms  # same commutative polynomial, different order


def test_expand_tells_det_from_perm():
    det = det_regular_circuit(2, (1, 2)).circuit
    assert expand(PER2).terms == reference_perm(2).terms
    assert expand(det).terms != expand(PER2).terms


def test_equiv_random_identical_and_distinct():
    det = det_regular_circuit(2, (1, 2)).circuit
    assert equiv_random(det, det, trials=5, seed=1)["verdict"] == "equivalent"
    verdict = equiv_random(det, PER2, trials=20, seed=1)
    assert verdict["verdict"] == "distinct"
    assert verdict["value_a"] != verdict["value_b"]


def test_equiv_random_distinct_pins_every_field():
    # b is the constant x[1,1] takes at trial 0, so trial 1 is the first to
    # separate the two sides
    v0 = trial_point({(1, 1)}, 3, 0)[(1, 1)]
    point = trial_point({(1, 1)}, 3, 1)
    verdict = equiv_random(c(1, VarLeaf(1, 1)), c(1, ConstLeaf(v0)), trials=4, seed=3)
    assert verdict == {
        "verdict": "distinct",
        "trial": 1,
        "witness": {"1,1": str(point[(1, 1)])},
        "value_a": str(point[(1, 1)]),
        "value_b": str(v0),
    }


def test_equiv_random_circuit_vs_bouquet():
    det = det_regular_circuit(3, (2, 1, 3)).circuit
    bouquet = det_bouquet(3, [(1, 2, 3), (3, 1, 2), (2, 3, 1)], seed=4)
    equivalent = {"verdict": "equivalent", "trials": 6, "prime": str(PRIME)}
    assert equiv_random(det, bouquet, trials=6, seed=7) == equivalent
    assert equiv_random(bouquet, det, trials=6, seed=7) == equivalent
    flipped = Bouquet(3, bouquet.summands, -1)
    verdict = equiv_random(bouquet, flipped, trials=6, seed=7)
    assert verdict["verdict"] == "distinct" and verdict["trial"] == 0
    assert int(verdict["value_a"]) == (PRIME - int(verdict["value_b"])) % PRIME


def test_equiv_random_zero_circuit_vs_const_zero():
    zero = c(1, VarLeaf(1, 1), ConstLeaf(-1), Mul(1, 0), Add(0, 2))
    assert expand(zero).terms == {}
    verdict = equiv_random(zero, c(1, ConstLeaf(0)), trials=10, seed=2)
    assert verdict == {"verdict": "equivalent", "trials": 10, "prime": str(PRIME)}


def test_equiv_random_deterministic_per_seed():
    a = det_regular_circuit(3, (1, 2, 3)).circuit
    b = det_regular_circuit(3, (3, 2, 1)).circuit
    v1 = equiv_random(a, b, trials=4, seed=99)
    v2 = equiv_random(a, b, trials=4, seed=99)
    assert v1 == v2


# --- text format ----------------------------------------------------------

def test_poly_text_golden_det2():
    text = poly_to_text(reference_det(2))
    assert text == "1 x[1,1] x[2,2]\n-1 x[1,2] x[2,1]"
