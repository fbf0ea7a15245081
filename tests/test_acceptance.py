"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every expected value is produced by an oracle that is independent of the code
path it checks: the reference Leibniz polynomials, a standalone quadratic
monotone-subsequence scorer, and polynomial-level replays of the pipeline's
substitutions.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from recheck import (
    assert_computes_det,
    det_of_matrix,
    eval_mod,
    grid,
    longest_monotone_len,
    poly_scaled,
    project_terms,
    random_regular_circuit,
)

from smlc.circuit import (
    Bouquet,
    Circuit,
    Mul,
    VarLeaf,
    bouquet_gate_count,
    regular,
)
from smlc.generators import (
    det_bouquet,
    distinct_perms,
    dp_det_bouquet,
)
from smlc.passes import (
    compose,
    monotone_subsequence,
    project,
    reverse,
)
from smlc.pipeline import ceil_sqrt, reduce_to_single
from smlc.poly import (
    SparsePoly,
    compose_perms,
    eval_circuit,
    expand,
    expand_bouquet,
    identity_perm,
    invert_perm,
    random_perm,
    reference_det,
    sign_of_permutation,
    trial_point,
)


@contextmanager
def criterion(name, budget_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL after {time.time() - start:.1f}s")
        raise
    elapsed = time.time() - start
    print(f"[{name}] PASS in {elapsed:.1f}s (budget {budget_s}s)")
    assert elapsed < budget_s


# --- 1. reversal ------------------------------------------------------------

def test_criterion_1_reversal():
    with criterion("1 reversal", 30):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 6)
            sigma = random_perm(n, rng)
            rc = random_regular_circuit(sigma, rng.randrange(2**32), rng.randint(2 * n - 1, 300))
            rev = reverse(rc)
            assert expand(rc.circuit).terms == expand(rev.circuit).terms
            assert len(rev.circuit.nodes) == len(rc.circuit.nodes)
            assert rev.sigma == tuple(reversed(sigma))
            assert reverse(rev).circuit == rc.circuit  # involution, gate for gate


# --- 2. composition ---------------------------------------------------------

def test_criterion_2_composition():
    with criterion("2 composition", 60):
        rng = random.Random(102)
        for n in (2, 3, 4):
            ref = reference_det(n).terms
            for _ in range(10):
                k = rng.randint(1, min(3, math.factorial(n)))
                b = det_bouquet(n, distinct_perms(n, k, rng), seed=rng.randrange(2**32))
                for _ in range(10):
                    tau = random_perm(n, rng)
                    out = compose(b, tau)
                    assert expand_bouquet(out).terms == ref
                    delta = bouquet_gate_count(out) - bouquet_gate_count(b)
                    assert delta == (1 if sign_of_permutation(tau) == -1 else 0)
                    assert [rc.sigma for rc in out.summands] == [
                        tuple(tau[s - 1] for s in rc.sigma) for rc in b.summands
                    ]


# --- 3. monotone subsequences -------------------------------------------------

def test_criterion_3_monotone_subsequences():
    with criterion("3 monotone subsequences", 10):
        for pi in itertools.permutations(range(1, 6)):
            assert len(monotone_subsequence(pi)["positions"]) >= 3
        rng = random.Random(103)
        for _ in range(1000):
            m = rng.randint(1, 64)
            seq = rng.sample(range(8 * m), m)
            run = monotone_subsequence(seq)
            assert len(run["positions"]) == longest_monotone_len(seq)
            # the values are the sequence's at the positions, in the run's direction
            values = [seq[p - 1] for p in run["positions"]]
            assert run["values"] == values
            assert values == sorted(values, reverse=run["direction"] == "decreasing")


# --- 4. projection ------------------------------------------------------------

def test_criterion_4_projection():
    with criterion("4 projection", 60):
        rng = random.Random(104)
        for n in range(1, 6):
            refs = {r: reference_det(r).terms for r in range(1, n + 1)}
            for _ in range(5):
                k = rng.randint(1, min(3, math.factorial(n)))
                b = det_bouquet(n, distinct_perms(n, k, rng), seed=rng.randrange(2**32))
                for r in range(1, n + 1):
                    for keep in itertools.combinations(range(1, n + 1), r):
                        out = project(b, keep)
                        assert out.n == r
                        assert expand_bouquet(out).terms == refs[r]


# --- 5. end-to-end reduction ----------------------------------------------------

def _rename_rows(poly, tau):
    terms = {}
    for mono, coeff in poly.terms.items():
        key = tuple(sorted((tau[r - 1], c) for r, c in mono))
        terms[key] = terms.get(key, 0) + coeff
    return SparsePoly(poly.n, {m: c for m, c in terms.items() if c})


def _replay_expected_polynomial(input_bouquet, transcript):
    # polynomial-level replay of every recorded substitution; reversals and
    # merges do not change the value, compositions scale by the sign of tau
    value = expand_bouquet(input_bouquet)
    for step in transcript.steps:
        tau = step["tau_applied"]
        if tau:
            value = poly_scaled(_rename_rows(value, tau), sign_of_permutation(tau))
        keep = step["kept_indices"]
        value = SparsePoly(len(keep), project_terms(value, keep))
    if transcript.final_tau:
        value = poly_scaled(
            _rename_rows(value, transcript.final_tau), sign_of_permutation(transcript.final_tau)
        )
    return value


# (n, k, runs, verify, trials) for the large-n half of criterion 5: every
# step is verified up to n = 12 and on one run at n = 16; the unverified run
# at n = 16 still gets its output checked
LARGE_N_PLAN = [
    (9, 2, 5, "random", 20),
    (9, 3, 5, "random", 20),
    (12, 2, 2, "random", 20),
    (12, 3, 2, "random", 20),
    (16, 2, 1, "random", 2),
    (16, 3, 1, "off", 20),
]


def test_criterion_5_end_to_end():
    # Exact verification of every step at n=4, on Leibniz bouquets.  At n=9,
    # 12 and 16 the inputs are subset-DP determinant bouquets, and every
    # output must compute the determinant of its final degree: exactly up to
    # degree 8, else at seeded points by elimination mod PRIME.
    with criterion("5 end-to-end reduction", 120):
        rng = random.Random(105)
        for seed in range(20):
            b = det_bouquet(4, distinct_perms(4, 2, rng), seed=1000 + seed)
            single, tr = reduce_to_single(b, verify="exact", seed=seed)
            d = tr.final_degree
            assert d >= 2  # ceil(sqrt(4))
            assert expand(single.circuit).terms == reference_det(d).terms
            assert all(v["ok"] for v in tr.verdicts)

        for n, k, runs, verify, trials in LARGE_N_PLAN:
            bound = n
            for _ in range(k - 1):
                bound = ceil_sqrt(bound)
            for seed in range(runs):
                b = dp_det_bouquet(n, distinct_perms(n, k, rng), seed=2000 + seed)
                single, tr = reduce_to_single(b, verify=verify, seed=seed, trials=trials)
                assert tr.final_degree >= tr.es_guarantee >= bound >= 2
                assert all(v["ok"] is (None if verify == "off" else True) for v in tr.verdicts)
                # det_d with d >= 2 is not constant, so no run compares 0 with 0
                assert_computes_det(single.circuit, seed)
        print(
            "[5 note] n in {9,12,16}: subset-DP determinant bouquets; every output "
            "computes det of its final degree (exact up to degree 8, else det_mod at "
            "seeded points)"
        )


def test_replay_on_dp_sub_sums():
    # A DP bouquet without its first summand is not a determinant, so the
    # pipeline's verdicts cannot check it; the polynomial-level replay of
    # every recorded substitution can.  Most such sub-sums keep a live
    # output, so the replay compares polynomials, not 0 with 0.
    rng = random.Random(107)
    live = 0
    runs = 100
    for run in range(runs):
        n = rng.randint(4, 7)
        b = dp_det_bouquet(n, distinct_perms(n, 3, rng), seed=run)
        sub = Bouquet(n, b.summands[1:])
        single, tr = reduce_to_single(sub, verify="off", seed=run)
        output = expand(single.circuit)
        assert output.terms == _replay_expected_polynomial(sub, tr).terms
        live += any(output.terms)  # some monomial is not the empty one
    assert live >= 3 * runs // 4, f"only {live} of {runs} replays are non-constant"


# --- 6. k-monotonicity and size accounting --------------------------------------

def test_criterion_6_k_monotonicity():
    with criterion("6 k-monotonicity", 60):
        rng = random.Random(106)
        for n in (3, 4, 5, 6):
            for k in (2, 3):
                for _ in range(3):
                    b = det_bouquet(n, distinct_perms(n, k, rng), seed=rng.randrange(2**32))
                    s_in = bouquet_gate_count(b)
                    single, tr = reduce_to_single(b, verify="exact", seed=3)
                    for before, after in (s["k_before_after"] for s in tr.steps):
                        assert after <= before - 1
                    assert len(tr.steps) <= k - 1
                    assert tr.final_degree >= tr.es_guarantee
                    assert tr.epsilon_guarantee == 1 / 2 ** (k - 1)
                    assert tr.final_gates <= s_in + k
                    assert expand(single.circuit).terms == reference_det(tr.final_degree).terms


# --- 7. oracle cross-checks --------------------------------------------------------

def test_criterion_7_oracle_cross_checks():
    with criterion("7 oracle cross-checks", 30):
        rng = random.Random(107)
        for _ in range(500):
            n = rng.randint(1, 5)
            seed, budget = rng.randrange(2**32), rng.randint(2 * n - 1, 60)
            circuit = random_regular_circuit(random_perm(n, rng), seed, budget).circuit
            point = trial_point(grid(n), seed=rng.randrange(2**32), trial=0)
            assert eval_circuit(circuit, point) == eval_mod(expand(circuit), point)

        for _ in range(200):
            n = rng.randint(1, 8)
            tau, sigma = random_perm(n, rng), random_perm(n, rng)
            composed = tuple(tau[s - 1] for s in sigma)
            assert compose_perms(tau, sigma) == composed
            assert compose_perms(invert_perm(tau), tau) == identity_perm(n)
            assert sign_of_permutation(composed) == sign_of_permutation(
                tau
            ) * sign_of_permutation(sigma)

        for _ in range(200):
            n = rng.randint(2, 5)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            bm = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            ab = [
                [sum(a[i][t] * bm[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert det_of_matrix(ab) == det_of_matrix(a) * det_of_matrix(bm)

        for _ in range(200):
            n = rng.randint(1, 6)
            pi = random_perm(n, rng)
            matrix = [[1 if pi[i] == j + 1 else 0 for j in range(n)] for i in range(n)]
            # choosing column pi(i) in every row i is the only nonzero product
            assert det_of_matrix(matrix) == sign_of_permutation(pi)


# --- 8. negative control -------------------------------------------------------------

def test_criterion_8_negative_control():
    with criterion("8 negative control", 1):
        nodes = (
            VarLeaf(1, 1), VarLeaf(2, 1), Mul(0, 1),
            VarLeaf(3, 1), Mul(2, 3),
            VarLeaf(4, 2), Mul(4, 5),
        )
        rc = regular(Circuit(4, nodes, 6), (1, 2, 3, 4))
        b = Bouquet(4, (rc,))
        before = expand_bouquet(b).terms
        out = compose(b, (1, 2, 4, 3))  # swap the last two row indices
        assert expand_bouquet(out).terms != before
