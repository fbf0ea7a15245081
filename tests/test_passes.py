"""Reversal, composition, monotone subsequences, projection, merging, dropping."""

import random

import pytest
from recheck import longest_monotone_len, poly_scaled

from smlc.circuit import (
    Add,
    AddMismatch,
    Bouquet,
    Circuit,
    ConstLeaf,
    Mul,
    RegularCircuit,
    RootNotPrefix,
    VarLeaf,
    bouquet_gate_count,
    gate_count,
    regular,
)
from smlc.generators import det_bouquet, det_regular_circuit
from smlc.passes import (
    DegreeMismatch,
    DegreeTooSmall,
    DuplicateEntries,
    EmptyKeepSet,
    PassError,
    compose,
    distinct_orders,
    drop_last_index,
    is_zero_summand,
    merge_summands,
    monotone_subsequence,
    project,
    reverse,
)
from smlc.poly import (
    NotAPermutation,
    compose_perms,
    expand,
    expand_bouquet,
    reference_det,
)


# --- reverse ---------------------------------------------------------------

def test_reverse_single_leaf():
    rc = regular(Circuit(1, (VarLeaf(1, 1),), 0), (1,))
    out = reverse(rc)
    assert out.circuit == rc.circuit and out.sigma == (1,)


def test_reverse_two_leaf_product():
    circuit = Circuit(2, (VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)), 2)
    out = reverse(regular(circuit, (1, 2)))
    assert out.sigma == (2, 1)
    assert tuple(out.circuit.nodes)[2] == Mul(1, 0)
    assert expand(circuit).terms == expand(out.circuit).terms


def test_reverse_below_full_degree_raises_root_not_prefix():
    # x[1,1]*x[2,2] covers positions 1..2 of a 3-row order; mirrored, its
    # root would cover 2..3, which is not a prefix
    rc = regular(Circuit(3, (VarLeaf(1, 1), VarLeaf(2, 2), Mul(0, 1)), 2), (1, 2, 3))
    assert rc.degree == 2
    with pytest.raises(RootNotPrefix, match="starts at position 2 \\(length 2\\)"):
        reverse(rc)


# --- compose ---------------------------------------------------------------

def test_compose_identity_is_noop():
    b = det_bouquet(3, [(1, 2, 3), (2, 3, 1)], seed=2)
    assert compose(b, (1, 2, 3)) == b


def test_compose_odd_tau_preserves_det_and_adds_one_gate():
    b = det_bouquet(2, [(1, 2), (2, 1)], seed=3)
    out = compose(b, (2, 1))
    assert expand_bouquet(out).terms == reference_det(2).terms
    assert bouquet_gate_count(out) - bouquet_gate_count(b) == 1
    assert out.sign == -1
    assert [rc.sigma for rc in out.summands] == [
        compose_perms((2, 1), rc.sigma) for rc in b.summands
    ]


def test_compose_even_tau_preserves_det_and_size():
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=4)
    out = compose(b, (2, 3, 1))
    assert expand_bouquet(out).terms == reference_det(3).terms
    assert bouquet_gate_count(out) == bouquet_gate_count(b)
    assert out.sign == 1


def test_compose_changes_single_monomial_polynomial():
    # a lone product is not sign-alternating, so row relabeling moves it
    nodes = (
        VarLeaf(1, 1), VarLeaf(2, 1), Mul(0, 1),
        VarLeaf(3, 1), Mul(2, 3),
        VarLeaf(4, 2), Mul(4, 5),
    )
    rc = regular(Circuit(4, nodes, 6), (1, 2, 3, 4))
    b = Bouquet(4, (rc,))
    out = compose(b, (1, 2, 4, 3))  # swap the last two rows
    assert expand_bouquet(out).terms != expand_bouquet(b).terms


def test_compose_rejects_non_permutation():
    b = det_bouquet(2, [(1, 2)], seed=0)
    with pytest.raises(NotAPermutation):
        compose(b, (1, 1))
    with pytest.raises(NotAPermutation, match=r"\(1, 2, 3\) is not a permutation of \[1\.\.2\]"):
        compose(b, (1, 2, 3))
    # 2.0 == 2, so only the type tells this tuple from a permutation
    with pytest.raises(NotAPermutation, match=r"\(2\.0, 1\) is not a permutation of \[1\.\.2\]"):
        compose(b, (2.0, 1))


# --- monotone subsequence ---------------------------------------------------

def test_monotone_increasing_input():
    run = monotone_subsequence((1, 2, 3))
    assert run["direction"] == "increasing"
    assert run["positions"] == [1, 2, 3]
    assert run["values"] == [1, 2, 3]


def test_monotone_mixed_input_prefers_increasing_tie():
    run = monotone_subsequence((3, 1, 4, 2))
    assert len(run["positions"]) == 2 == longest_monotone_len((3, 1, 4, 2))
    assert run["direction"] == "increasing"
    assert run["values"] == [3, 4]
    assert run["positions"] == [1, 3]


def test_monotone_decreasing_input():
    run = monotone_subsequence((5, 4, 3, 2, 1))
    assert run["direction"] == "decreasing"
    assert len(run["positions"]) == 5


def test_monotone_rejects_empty_sequence():
    with pytest.raises(PassError, match="sequence must be non-empty"):
        monotone_subsequence([])


def test_monotone_rejects_duplicates():
    with pytest.raises(DuplicateEntries):
        monotone_subsequence((1, 2, 1))


def test_monotone_floor_guarantee():
    import math

    rng = random.Random(55)
    for _ in range(200):
        m = rng.randint(1, 50)
        seq = rng.sample(range(1000), m)
        assert len(monotone_subsequence(seq)["positions"]) >= math.isqrt(m - 1) + 1


# --- project ----------------------------------------------------------------

def test_project_full_keep_is_identity_renaming():
    b = det_bouquet(3, [(1, 2, 3), (2, 1, 3)], seed=6)
    out = project(b, (1, 2, 3))
    assert expand_bouquet(out).terms == reference_det(3).terms


def test_project_det2_to_single_cell():
    b = det_bouquet(2, [(1, 2)], seed=0)
    out = project(b, (2,))
    assert out.n == 1
    assert expand_bouquet(out).terms == reference_det(1).terms  # x[1,1] after renaming


def test_project_det3_keep_13():
    b = det_bouquet(3, [(1, 2, 3), (3, 1, 2)], seed=8)
    out = project(b, (1, 3))
    assert expand_bouquet(out).terms == reference_det(2).terms
    for rc in out.summands:
        if not is_zero_summand(rc):
            assert rc.degree == 2


def test_project_induced_orders():
    b = det_bouquet(4, [(1, 2, 3, 4), (4, 2, 3, 1)], seed=9)
    out = project(b, (2, 4))
    # rank renaming: 2 -> 1, 4 -> 2; second order restricted to {4,2} reads (4,2) -> (2,1)
    assert out.summands[0].sigma == (1, 2)
    assert out.summands[1].sigma == (2, 1)


def test_project_errors():
    b = det_bouquet(2, [(1, 2)], seed=0)
    with pytest.raises(EmptyKeepSet):
        project(b, ())
    for keep in ((0, 1), (1, 3), [1.5, 2], [1.0, 2]):
        with pytest.raises(PassError) as err:
            project(b, keep)
        assert type(err.value) is PassError
        assert str(err.value) == f"keep set {list(keep)} not within [1..2]"
    # entries that do not even sort together are typed before any sorting
    with pytest.raises(PassError) as err:
        project(det_bouquet(3, [(1, 2, 3)], 0), ["a", 1])
    assert type(err.value) is PassError
    assert str(err.value) == "keep set ['a', 1] not within [1..3]"


@pytest.mark.parametrize("add", [Add(0, 1), Add(1, 0)])
@pytest.mark.parametrize("keep", [[1], [1, 2]])
def test_project_names_add_of_constant_and_live_branch(add, keep):
    # x[1,1] + 5 is not regular, but RegularCircuit takes it unchecked; the
    # fold must name the addition rather than emit it with a missing child
    circuit = Circuit(2, (VarLeaf(1, 1), ConstLeaf(5), add, VarLeaf(2, 2), Mul(2, 3)), 4)
    b = Bouquet(2, (RegularCircuit(circuit, (1, 2), 2),))
    with pytest.raises(AddMismatch) as err:
        project(b, keep)
    assert err.value.node_id == 2


def test_project_keeps_zero_summands_in_place():
    # bucket with terms that all die under the projection folds to a zero leaf
    b = det_bouquet(2, [(1, 2), (2, 1)], seed=7)
    out = project(b, (1,))
    assert len(out.summands) == 2
    assert sum(is_zero_summand(rc) for rc in out.summands) == 1
    assert expand_bouquet(out).terms == reference_det(1).terms


# --- merge ------------------------------------------------------------------

def test_merge_distinct_orders_unchanged():
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=10)
    assert merge_summands(b) == b


def test_merge_equal_orders():
    rc1 = det_regular_circuit(2, (1, 2))
    rc2 = det_regular_circuit(2, (1, 2))
    b = Bouquet(2, (rc1, rc2))
    out = merge_summands(b)
    assert len(out.summands) == 1
    assert gate_count(out.summands[0].circuit) == 2 * gate_count(rc1.circuit) + 1
    assert expand(out.summands[0].circuit).terms == poly_scaled(reference_det(2), 2).terms


def test_merge_three_summands_two_sharing():
    rc1 = det_regular_circuit(2, (1, 2))
    rc2 = det_regular_circuit(2, (2, 1))
    rc3 = det_regular_circuit(2, (1, 2))
    out = merge_summands(Bouquet(2, (rc1, rc2, rc3)))
    assert len(out.summands) == 2
    assert distinct_orders(out) == 2


def test_merge_skips_zero_summands():
    zero = regular(Circuit(2, (ConstLeaf(0),), 0), (1, 2))
    rc = det_regular_circuit(2, (1, 2))
    out = merge_summands(Bouquet(2, (zero, rc, rc)))
    assert len(out.summands) == 2
    assert is_zero_summand(out.summands[0])


def test_merge_refuses_one_order_at_two_degrees():
    # a nonzero constant is not a zero summand, so it would join the degree-2
    # summand of its order; the zero summand in between keeps its position
    five = regular(Circuit(2, (ConstLeaf(5),), 0), (1, 2))
    zero = regular(Circuit(2, (ConstLeaf(0),), 0), (1, 2))
    det = det_regular_circuit(2, (1, 2))
    with pytest.raises(DegreeMismatch, match="^summands 0 and 2 share an order but have degrees 0 and 2$"):
        merge_summands(Bouquet(2, (five, zero, det)))


# --- drop_last_index ---------------------------------------------------------

def test_drop_last_examples():
    b2 = det_bouquet(2, [(1, 2), (2, 1)], seed=11)
    out = drop_last_index(b2)
    assert expand_bouquet(out).terms == reference_det(1).terms

    b3 = det_bouquet(3, [(1, 2, 3), (2, 3, 1)], seed=12)
    assert expand_bouquet(drop_last_index(b3)).terms == reference_det(2).terms

    b4 = det_bouquet(4, [(1, 2, 3, 4), (2, 1, 4, 3)], seed=13)
    twice = drop_last_index(drop_last_index(b4))
    assert expand_bouquet(twice).terms == reference_det(2).terms


def test_drop_last_degree_too_small():
    b1 = det_bouquet(1, [(1,)], seed=0)
    with pytest.raises(DegreeTooSmall):
        drop_last_index(b1)
