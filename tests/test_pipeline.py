"""End-to-end reduction: normalization, iteration, transcripts."""

import random
from dataclasses import replace

import pytest
from recheck import assert_computes_det

from smlc import pipeline
from smlc.circuit import (
    ADD,
    VAR,
    Bouquet,
    Circuit,
    ConstLeaf,
    Mul,
    Nodes,
    RegularCircuit,
    VarLeaf,
    bouquet_gate_count,
    regular,
)
from smlc.generators import det_bouquet, distinct_perms, dp_det_bouquet, seeded_det_bouquet
from smlc.passes import compose, distinct_orders, is_zero_summand, merge_summands, monotone_subsequence
from smlc.passes import project, reverse
from smlc.pipeline import (
    VerificationFailed,
    ceil_sqrt,
    normalize_first,
    reduce_to_single,
)
from smlc.poly import (
    OracleError,
    equiv_random,
    expand,
    expand_bouquet,
    identity_perm,
    invert_perm,
    reference_det,
    sign_of_permutation,
)


def test_normalize_identity_is_noop():
    b = det_bouquet(3, [(1, 2, 3), (3, 1, 2)], seed=1)
    assert normalize_first(b) == (b, None)


def test_normalize_makes_first_summand_identity():
    b = det_bouquet(3, [(2, 3, 1), (1, 3, 2)], seed=2)
    out, tau = normalize_first(b)
    assert tau == (3, 1, 2)
    assert out.summands[0].sigma == (1, 2, 3)
    assert expand_bouquet(out).terms == reference_det(3).terms
    # (2,3,1) is even, so no pending sign
    assert out.sign == 1


def test_normalize_returns_the_tau_it_composed_in():
    b = det_bouquet(4, [(3, 1, 4, 2), (1, 2, 3, 4)], seed=16)
    out, tau = normalize_first(b)
    assert tau == invert_perm((3, 1, 4, 2))
    assert out == compose(b, tau)


def test_normalize_all_zero_bouquet_is_noop():
    zero = Circuit(3, (ConstLeaf(0),), 0)
    b = Bouquet(3, (regular(zero, (2, 3, 1)), regular(zero, (3, 1, 2))))
    assert normalize_first(b) == (b, None)


def test_normalize_odd_leading_order_flips_sign():
    b = det_bouquet(3, [(2, 1, 3), (1, 2, 3)], seed=3)
    assert sign_of_permutation((2, 1, 3)) == -1
    out, tau = normalize_first(b)
    assert tau == (2, 1, 3)
    assert out.sign == -1
    assert bouquet_gate_count(out) == bouquet_gate_count(b) + 1
    assert expand_bouquet(out).terms == reference_det(3).terms


def test_reduce_k1_flattens_and_keeps_degree():
    b = det_bouquet(4, [(3, 1, 4, 2)], seed=4)
    single, tr = reduce_to_single(b, verify="exact", seed=0)
    assert tr.steps == []
    assert tr.final_degree == 4
    assert single.sigma == (1, 2, 3, 4)
    assert expand(single.circuit).terms == reference_det(4).terms


def test_reduce_handles_decreasing_runs_via_reversal():
    # second order is the full reversal, so its only long run is decreasing
    b = det_bouquet(4, [(1, 2, 3, 4), (4, 3, 2, 1)], seed=6)
    single, tr = reduce_to_single(b, verify="exact", seed=0)
    step = tr.steps[0]
    assert step["subsequence"]["direction"] == "decreasing"
    assert step["summand_reversed"] is not None
    assert tr.final_degree == 4  # reversal turns the run increasing at full length
    assert expand(single.circuit).terms == reference_det(4).terms


def test_reduce_k4_still_exact():
    rng = random.Random(60)
    b = det_bouquet(5, distinct_perms(5, 4, rng), seed=14)
    single, tr = reduce_to_single(b, verify="exact", seed=2)
    assert tr.config["k_distinct"] == 4
    assert expand(single.circuit).terms == reference_det(tr.final_degree).terms
    assert tr.final_degree >= tr.es_guarantee


def _same_order_det4():
    # two summands regular w.r.t. (2, 4, 1, 3) that sum to det_4: reversing
    # the (3, 1, 4, 2) summand mirrors its order onto the first one's
    b = det_bouquet(4, [(2, 4, 1, 3), (3, 1, 4, 2)], seed=3)
    return Bouquet(4, (b.summands[0], reverse(b.summands[1])), b.sign)


def test_reduce_merges_duplicate_input_orders_first():
    single, tr = reduce_to_single(_same_order_det4(), verify="exact", seed=0)
    assert tr.config["k"] == 2
    assert tr.config["k_distinct"] == 1
    assert tr.steps == []
    assert tr.verdicts == [{"step": 0, "mode": "exact", "ok": True}]
    assert single.sigma == identity_perm(4)
    assert expand(single.circuit).terms == reference_det(4).terms


def test_reduce_detects_non_determinant_input():
    nodes = (VarLeaf(1, 1), VarLeaf(2, 1), Mul(0, 1))
    rc = regular(Circuit(2, nodes, 2), (1, 2))
    with pytest.raises(VerificationFailed) as err:
        reduce_to_single(Bouquet(2, (rc,)), verify="exact", seed=0)
    assert err.value.step == 0


@pytest.mark.parametrize(("n", "verify"), [(4, "random"), (7, "exact")])
def test_reduce_rejects_negated_determinant(n, verify):
    # -det agrees with det only on a hypersurface, so the random tier (asked
    # for directly, or reached by exact tiering down above degree 6) catches
    # the flipped sign at the first trial of step 0
    rng = random.Random(60 + n)
    b = det_bouquet(n, distinct_perms(n, 2, rng), seed=n)
    negated = Bouquet(b.n, b.summands, -b.sign)
    with pytest.raises(VerificationFailed) as err:
        reduce_to_single(negated, verify=verify, seed=0, trials=3)
    assert err.value.step == 0


@pytest.mark.parametrize("verify", ["random", "exact"])
def test_reduce_checks_degrees_beyond_the_factorial_reference(verify):
    # a DP bouquet without its first summand is not the degree-9 determinant,
    # and no degree is too large for the elimination oracle to say so
    rng = random.Random(59)
    b = dp_det_bouquet(9, distinct_perms(9, 3, rng), seed=13)
    with pytest.raises(VerificationFailed) as err:
        reduce_to_single(Bouquet(9, b.summands[1:]), verify=verify, seed=0, trials=2)
    assert err.value.step == 0


def _unmirrored_reverse(rc):
    # reports the reversed order but keeps the circuit as it is
    return RegularCircuit(rc.circuit, rc.sigma[::-1], rc.degree)


def _renoded(rc, a, b):
    nodes = rc.circuit.nodes
    return replace(rc, circuit=replace(rc.circuit, nodes=Nodes(nodes.op, a, b)))


def _add_right_reverse(rc):
    # mirrors the circuit as reverse does, then points each addition's left child at its right child
    out = reverse(rc)
    nodes = out.circuit.nodes
    lefts = tuple(y if op == ADD else x for op, x, y in zip(nodes.op, nodes.a, nodes.b))
    return _renoded(out, lefts, nodes.b)


def _resummed(bouquet, summands):
    return Bouquet(bouquet.n, tuple(summands), bouquet.sign)


def _sorted_project(bouquet, keep):
    # reports each summand's order sorted instead of the order the keep set induces
    out = project(bouquet, keep)
    return _resummed(out, (replace(rc, sigma=tuple(sorted(rc.sigma))) for rc in out.summands))


def _short_project(bouquet, keep):
    # keeps every circuit and order but records one degree fewer
    out = project(bouquet, keep)
    return _resummed(out, (replace(rc, degree=rc.degree - 1) for rc in out.summands))


def _column_swap_project(bouquet, keep):
    # swaps columns 1 and 2 in every variable of the projected bouquet, which negates the determinant
    out = project(bouquet, keep)
    if out.n < 2:
        return out
    swap = {1: 2, 2: 1}
    summands = []
    for rc in out.summands:
        nodes = rc.circuit.nodes
        cols = tuple(swap.get(c, c) if op == VAR else c for op, c in zip(nodes.op, nodes.b))
        summands.append(_renoded(rc, nodes.a, cols))
    return _resummed(out, summands)


def _unsigned_compose(bouquet, tau):
    # relabels the rows but keeps the sign, also for an odd tau
    return _resummed(bouquet, compose(bouquet, tau).summands)


def _unordered_compose(bouquet, tau):
    # relabels the rows but records each summand's order as it was
    out = compose(bouquet, tau)
    return _resummed(out, (replace(rc, sigma=old.sigma) for rc, old in zip(out.summands, bouquet.summands)))


def _lossy_merge(bouquet):
    # keeps the first summand of each order and drops the others instead of joining them
    kept, seen = [], set()
    for rc in bouquet.summands:
        if not is_zero_summand(rc):
            if rc.sigma in seen:
                continue
            seen.add(rc.sigma)
        kept.append(rc)
    return _resummed(bouquet, kept)


def _reversed_merge(bouquet):
    # joins as merge_summands does, but records each joined summand's order reversed
    out = merge_summands(bouquet)
    given = {id(rc) for rc in bouquet.summands}
    summands = (rc if id(rc) in given else replace(rc, sigma=rc.sigma[::-1]) for rc in out.summands)
    return _resummed(out, summands)


def _partial_normalize(bouquet):
    # composes the first summand alone and leaves the others' rows as they were
    out, tau = normalize_first(bouquet)
    return _resummed(out, out.summands[:1] + bouquet.summands[1:]), tau


def _unrelabeled_normalize(bouquet):
    # records the identity as the first summand's order but relabels no row
    claimed = replace(bouquet.summands[0], sigma=identity_perm(bouquet.n))
    return _resummed(bouquet, (claimed,) + bouquet.summands[1:]), None


def _one_entry_run(seq):
    # keeps only the first entry of the longest run: the run computes det_1 correctly
    run = monotone_subsequence(seq)
    return {**run, "positions": run["positions"][:1], "values": run["values"][:1]}


def _zero_counting_orders(bouquet):
    # counts the orders of the zero summands instead of the live ones, so the loop stops at once
    return len({rc.sigma for rc in bouquet.summands if is_zero_summand(rc)})


def _unchanged(value):
    # as a negation, leaves the pending -1 sign off the circuit returned; as a
    # reversal, leaves a decreasing run decreasing in its summand's order
    return value


VALUE = "differs from degree-"
STRUCTURE = "is not regular w.r.t. its order|has degree"

# (pipeline name, mutant, message, seeds); the seeds are inputs on which the
# mutant changes a summand that has not folded to 0
MUTANTS = {
    "unmirrored-reverse": ("reverse", _unmirrored_reverse, STRUCTURE, (1, 5, 6, 7, 8)),
    "add-right-reverse": ("reverse", _add_right_reverse, VALUE, (1, 5, 6, 7, 8)),
    "sorted-project": ("project", _sorted_project, STRUCTURE, (5, 10, 11)),
    "short-project": ("project", _short_project, "has degree", (1, 5, 10)),
    "column-swap-project": ("project", _column_swap_project, VALUE, (1, 5, 10)),
    "unsigned-compose": ("compose", _unsigned_compose, VALUE, (2, 4, 11)),
    "unordered-compose": ("compose", _unordered_compose, STRUCTURE, (1, 2, 3)),
    "lossy-merge": ("merge_summands", _lossy_merge, VALUE, (0, 5, 6, 10, 16)),
    "reversed-merge": ("merge_summands", _reversed_merge, STRUCTURE, (1, 5, 7, 10, 15)),
    "partial-normalize": ("normalize_first", _partial_normalize, VALUE, (1, 2, 3)),
    "unrelabeled-normalize": ("normalize_first", _unrelabeled_normalize, STRUCTURE, (1, 2, 3)),
    "one-entry-run": ("monotone_subsequence", _one_entry_run, "below ceil_sqrt", (1, 2, 3)),
    "zero-counting-orders": ("distinct_orders", _zero_counting_orders, VALUE, (1, 2, 3)),
    "unsigned-result": ("negate", _unchanged, VALUE, (2, 4, 11)),
    "unreversed-run": ("reverse", _unchanged, "is not monotone in summand", (1, 5, 6)),
}


@pytest.mark.parametrize("verify", ["exact", "random"])
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_pass_mutant_fails_verification(monkeypatch, mutant, verify):
    # a value mutant keeps every summand regular w.r.t. its recorded order and
    # degree, and a structure mutant keeps the value, so each fails only the
    # check it targets; without the mutant each input reduces with every verdict ok
    name, replacement, message, seeds = MUTANTS[mutant]
    inputs = {seed: seeded_det_bouquet(4 + seed % 3, 2 + seed // 3 % 2, seed) for seed in seeds}
    for seed, b in inputs.items():
        _, tr = reduce_to_single(b, verify=verify, seed=seed, trials=2)
        assert all(v["ok"] for v in tr.verdicts)
    monkeypatch.setattr(pipeline, name, replacement)
    for seed, b in inputs.items():
        with pytest.raises(VerificationFailed, match=message):
            reduce_to_single(b, verify=verify, seed=seed, trials=2)


@pytest.mark.parametrize("verify", ["exact", "random"])
@pytest.mark.parametrize("mutant", ["lossy-merge", "reversed-merge"])
def test_merge_of_a_zero_step_input_is_verified(monkeypatch, mutant, verify):
    # no step runs on a single-order input, so its one merge is what the
    # reduction returns, and that merge is checked for value and structure
    _, replacement, message, _ = MUTANTS[mutant]
    monkeypatch.setattr(pipeline, "merge_summands", replacement)
    with pytest.raises(VerificationFailed, match=message) as err:
        reduce_to_single(_same_order_det4(), verify=verify, seed=0)
    assert err.value.step == 0


def test_reduce_verify_off_records_nothing_checked():
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=10)
    _, tr = reduce_to_single(b, verify="off", seed=0)
    assert all(v["mode"] == "off" for v in tr.verdicts)


def test_reduce_large_dp_bouquet():
    rng = random.Random(58)
    b = dp_det_bouquet(12, distinct_perms(12, 2, rng), seed=11)
    single, tr = reduce_to_single(b, verify="off", seed=0)
    assert distinct_orders(Bouquet(tr.final_degree, (single,))) <= 1
    assert tr.final_degree >= ceil_sqrt(12)
    assert single.sigma == identity_perm(tr.final_degree)
    assert_computes_det(single.circuit, seed=0)


def test_reduce_rejects_unknown_verify_mode():
    b = det_bouquet(2, [(1, 2)], seed=0)
    with pytest.raises(ValueError):
        reduce_to_single(b, verify="sometimes")


@pytest.mark.parametrize("verify", ["random", "exact"])
@pytest.mark.parametrize("trials", [0, -3])
def test_reduce_rejects_checks_without_trials(verify, trials):
    # zero trials would record ok verdicts having evaluated nothing
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=10)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        reduce_to_single(b, verify=verify, trials=trials)
    _, tr = reduce_to_single(b, verify="off", trials=trials)
    assert tr.config["trials"] == trials


@pytest.mark.parametrize(
    "bad", [{"trials": 2.5}, {"trials": "3"}, {"trials": True}, {"seed": True}, {"seed": 1.0}]
)
def test_trials_and_seed_must_be_ints(bad):
    # both go into the transcript, and the CLI that replays it takes ints
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=10)
    for verify in ("off", "random", "exact"):
        with pytest.raises(ValueError, match="trials and seed must be ints"):
            reduce_to_single(b, verify=verify, **bad)
    if "trials" in bad:
        with pytest.raises(OracleError, match="trials must be an int >= 1"):
            equiv_random(b, b, trials=bad["trials"])
    else:  # a bool or float seed would silently draw other points than the int
        with pytest.raises(OracleError, match="seed must be an int"):
            equiv_random(b, b, seed=bad["seed"])


def test_ceil_sqrt():
    assert [ceil_sqrt(m) for m in (1, 2, 3, 4, 5, 9, 10, 16, 17)] == [
        1, 2, 2, 2, 3, 3, 4, 4, 5,
    ]
