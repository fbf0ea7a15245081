"""Algebraic laws of the passes and of `expand`, as property tests over generated inputs.

This file is their one home: each law is stated once, over `recheck`'s
strategies, and no unit test repeats it on seeded inputs.
"""

import json
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recheck import (
    det_bouquets,
    expand_nodes,
    join,
    perms,
    poly_add,
    poly_mul,
    outcome,
    project_terms,
    read_whole,
    regular_circuits,
)

from smlc import circuit, serialize
from smlc.circuit import ADD, MUL, Bouquet, Circuit, ConstLeaf, regular
from smlc.passes import compose, drop_last_index, merge_summands, project, reverse
from smlc.poly import (
    SparsePoly,
    compose_perms,
    expand,
    expand_bouquet,
    invert_perm,
    reference_det,
    sign_of_permutation,
)
from smlc.serialize import bouquet_from_text, bouquet_to_obj, dumps

laws = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def full_degree_circuits(draw):
    return draw(regular_circuits(draw(st.integers(1, 5))))


@st.composite
def bouquets(draw):
    """A determinant bouquet, or random summands over a small pool of orders
    (so some share one) with zero summands mixed in; either sign."""
    n = draw(st.integers(1, 4))
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return Bouquet(n, draw(det_bouquets(n)).summands, sign)
    pool = draw(st.lists(perms(n), min_size=1, max_size=3))
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        sigma = draw(st.sampled_from(pool))
        if draw(st.integers(0, 4)) == 0:
            summands.append(regular(Circuit(n, (ConstLeaf(0),), 0), sigma))
        else:
            summands.append(draw(regular_circuits(n, sigma)))
    return Bouquet(n, tuple(summands), sign)


def keep_sets(n):
    return st.lists(st.integers(1, n), min_size=1, unique=True)


@st.composite
def bouquets_and_keep_sets(draw):
    b = draw(bouquets())
    return b, draw(keep_sets(b.n))


@st.composite
def nested_keep_sets(draw):
    """A bouquet, a keep set A of its rows and a keep set B of A's ranks."""
    b, outer = draw(bouquets_and_keep_sets())
    return b, outer, draw(keep_sets(len(outer)))


@st.composite
def gate_operands(draw):
    """ADD with two full-degree circuits over one order, or MUL with two over
    their own grids (`join` moves the second's rows past the first's)."""
    op = draw(st.sampled_from((ADD, MUL)))
    if op == ADD:
        n = draw(st.integers(1, 4))
        sigma = draw(perms(n))
        return op, draw(regular_circuits(n, sigma)).circuit, draw(regular_circuits(n, sigma)).circuit
    left, right = (draw(regular_circuits(draw(st.integers(1, 3)))).circuit for _ in range(2))
    return op, left, right


@laws
@given(full_degree_circuits())
def test_reverse_is_an_involution(rc):
    assert reverse(reverse(rc)) == rc


@laws
@given(st.integers(1, 8), st.data())
def test_sign_is_multiplicative(n, data):
    # compose's bouquet sign rests on this; an iterator is read once, as a tuple
    t, s = data.draw(perms(n)), data.draw(perms(n))
    assert sign_of_permutation(compose_perms(t, s)) == sign_of_permutation(t) * sign_of_permutation(s)
    assert sign_of_permutation(iter(s)) == sign_of_permutation(s)


@laws
@given(bouquets(), st.data())
def test_compose_then_inverse_restores_bouquet(b, data):
    tau = data.draw(perms(b.n))
    assert compose(compose(b, tau), invert_perm(tau)) == b


@laws
@given(bouquets(), st.data())
def test_compose_twice_is_compose_with_the_composite(b, data):
    # arrays, orders and sign alike, not only the expansion
    t1, t2 = data.draw(perms(b.n)), data.draw(perms(b.n))
    assert compose(compose(b, t1), t2) == compose(b, compose_perms(t2, t1))


@laws
@given(bouquets())
def test_merge_is_idempotent(b):
    once = merge_summands(b)
    assert merge_summands(once) == once


@laws
@given(bouquets())
def test_serialize_round_trip_is_identity(b):
    assert bouquet_from_text(dumps(bouquet_to_obj(b))) == b


# what an edit puts in: nothing (a deletion), JSON's structure and whitespace,
# digits, a BOM, a stray letter and a node boundary
EDITS = ("", " ", "\n", "{", "}", "[", "]", ",", ":", '"', "0", "1", "-", "\ufeff", "x", "},{")


# with batches of 1 character every "}," is tried as a split
@pytest.mark.parametrize("batch", [serialize._BATCH, 1], ids=["default-batch", "every-split"])
@laws
@given(bouquets(), st.data())
def test_reading_by_summand_is_reading_the_whole_document(batch, b, data):
    # the same Bouquet, or the same error class and message, on the compact,
    # indented and key-reordered text, each with 0-3 characters edited
    obj = bouquet_to_obj(b)
    reordered = {"summands": obj["summands"], "n": obj["n"], "sign": obj["sign"]}
    for text in (dumps(obj), json.dumps(obj, indent=2), json.dumps(reordered)):
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(EDITS)) + text[at + data.draw(st.integers(0, 1)) :]
        with patch.object(serialize, "_BATCH", batch):
            assert outcome(bouquet_from_text, text) == outcome(read_whole, text)


@laws
@given(bouquets_and_keep_sets())
def test_project_is_the_polynomial_substitution(case):
    b, keep = case
    assert expand_bouquet(project(b, keep)).terms == project_terms(expand_bouquet(b), keep)


@laws
@given(nested_keep_sets())
def test_nested_projection_equals_composed_keep_set(case):
    b, outer, inner = case
    # rank j of the outer keep set is its j-th smallest element
    composed = [sorted(outer)[j - 1] for j in inner]
    twice = project(project(b, outer), inner)
    assert expand_bouquet(twice).terms == expand_bouquet(project(b, composed)).terms


PASSES = ("compose", "reverse", "merge", "project", "droplast")


@laws
@given(
    st.integers(2, 5).flatmap(det_bouquets),
    st.lists(st.sampled_from(PASSES), min_size=1, max_size=6),
    st.data(),
)
def test_pass_chains_preserve_the_determinant(b, passes, data):
    # each pass keeps the bouquet the determinant of its current grid size
    for name in passes:
        if name == "compose":
            b = compose(b, data.draw(perms(b.n)))
        elif name == "reverse":
            b = Bouquet(b.n, tuple(map(reverse, b.summands)), b.sign)
        elif name == "merge":
            b = merge_summands(b)
        elif name == "project":
            b = project(b, data.draw(keep_sets(b.n)))
        elif b.n >= 2:
            b = drop_last_index(b)
        assert expand_bouquet(b).terms == reference_det(b.n).terms


@laws
@given(gate_operands())
def test_expand_is_a_ring_homomorphism(case):
    # against a sum and a product that share no code with expand
    op, left, right = case
    joined = join(op, left, right)
    shift = left.n if op == MUL else 0
    terms = expand(right).terms
    lifted = {tuple((r + shift, c) for r, c in mono): coeff for mono, coeff in terms.items()}
    combine = poly_mul if op == MUL else poly_add
    assert expand(joined).terms == combine(expand(left), SparsePoly(joined.n, lifted)).terms


@laws
@given(gate_operands())
def test_sum_and_negation_lay_out_nodes_as_the_references(case):
    # the sum against the test-side join, and the negation against -1 times its expansion
    op, left, right = case
    if op == ADD:
        assert circuit.join(left, right) == join(ADD, left, right)
    negated = expand(circuit.negate(left)).terms
    assert negated == {mono: -coeff for mono, coeff in expand(left).terms.items()}


@laws
@given(full_degree_circuits())
def test_expand_matches_the_node_by_node_reference(rc):
    assert expand(rc.circuit).terms == expand_nodes(rc.circuit).terms
