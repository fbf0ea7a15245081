"""Iterative reduction of a bouquet to a single regular circuit.

Given a sum of k regular summands computing a degree-n determinant, each
iteration (1) relabels rows with `normalize_first` so the leading summand is
ordered by the identity, (2) merges same-order summands, (3) picks the first
non-identity summand, extracts an exact longest monotone run from its order
(reversing the summand first if the run is decreasing), and (4) projects the
whole bouquet onto the run's value set.  Every iteration turns one more
summand into an identity-ordered block, so the number of distinct orders
drops by at least one and at most k-1 iterations remain.  Since a monotone
run in a length-m sequence has length at least ceil(sqrt(m)), the final
degree is at least n^(1/2^(k-1)) when every run is at its floor; the
transcript, kept as the JSON it is written as, records both the running
guarantee and the lengths actually achieved.

The driver can check the bouquet each iteration hands on, right after that
iteration's normalization and merge; the last check takes in its place the
circuit returned (`_result`), so that circuit is checked, sign product and
all.  The check compares the bouquet with the determinant of the current
degree d: exactly (term-by-term expansion against the reference polynomial)
up to degree 6 under verify="exact", and otherwise by seeded random
evaluation, comparing its value at each trial point with the determinant of
that point's d x d matrix computed by elimination mod PRIME (`det_mod`),
which works at every degree.  The exact tier expands the already regular
summands without validating them again, and needs no term budget: at d <= 6
no node has more than 6^6 = 46,656 terms.  Its reference terms are built once
per degree and shared, read-only, by every later step.  One `eval_points`
call takes all of a check's trial points, and holds one compiled summand at
a time, swept over every point.  Every check also re-runs `regular`
on each non-zero summand, so a pass that breaks a summand's (sigma, degree)
but not its value still fails, except step 0 when a step follows it: its
input passed `regular` at the parser or generator.  A failed check raises
VerificationFailed: some pass broke semantics, the strongest possible error.
With verification on, at least one trial is required, so no verdict can be
recorded ok without an evaluation.  Nor can a step that breaks its degree
promise (keeping fewer than ceil_sqrt of its degree, or projecting to a degree
other than the number of rows kept) or keeps rows that are not monotone in its
target's order, which no value check sees: VerificationFailed names the step.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Any

from .circuit import CONST, Bouquet, Circuit, CircuitError, Nodes, RegularCircuit, _is_int
from .circuit import bouquet_gate_count, gate_count, negate, regular
from .passes import (
    compose,
    distinct_orders,
    is_zero_summand,
    merge_summands,
    monotone_subsequence,
    project,
    reverse,
)
from .poly import (
    DEFAULT_TRIALS,
    PRIME,
    det_mod,
    eval_points,
    expand_bouquet,
    identity_perm,
    invert_perm,
    reference_det,
    trial_point,
)

__all__ = [
    "Transcript",
    "VerificationFailed",
    "normalize_first",
    "reduce_to_single",
    "ceil_sqrt",
]

# factorial oracle ceiling for exact per-step checks; on a d-row grid a node
# over s rows has at most d^s terms, so no node or product of two nodes here
# exceeds 6^6 = 46,656 terms, far below poly.TERM_BUDGET = 10^6
EXACT_VERIFY_MAX = 6


class VerificationFailed(Exception):
    """An intermediate bouquet no longer matches the reference determinant."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"verification failed after step {step}: {detail}")
        self.step = step


@dataclass(frozen=True)
class Transcript:
    """Replayable record of one reduction run; its fields are the JSON keys it is written under.

    Each step is the dict it is written as (built in `reduce_to_single`); its
    subsequence is the dict `monotone_subsequence` returned, its sizes count
    internal gates, pending sign included, and its k counts distinct non-zero
    orders.  Identical inputs and seed reproduce the transcript bit for bit.
    epsilon_guarantee is 1/2^(k_distinct-1); es_guarantee is that bound
    instantiated (iterated ceil-sqrt of the input degree), and final_degree
    is never below it.
    """

    config: dict[str, Any]
    steps: list[dict[str, Any]]
    verdicts: list[dict[str, Any]]
    final_degree: int
    final_gates: int
    epsilon_guarantee: float
    es_guarantee: int
    final_tau: list[int] | None
    zero_summands_dropped: int

    def to_obj(self) -> dict[str, Any]:
        return dict(vars(self))


def ceil_sqrt(m: int) -> int:
    c = math.isqrt(m)
    return c if c * c == m else c + 1


def normalize_first(bouquet: Bouquet) -> tuple[Bouquet, tuple[int, ...] | None]:
    """Compose with the inverse of the leading order so it becomes the identity.

    Returns the composed bouquet and the tau it was composed with.  The
    leading order is taken from the first non-zero summand; when it is
    already the identity, or every summand is zero, there is nothing to
    compose and the result is (bouquet, None).  Adds no nodes; an odd inverse
    flips the pending bouquet sign, which counts as one gate in the size
    accounting.
    """
    ref = next((rc for rc in bouquet.summands if not is_zero_summand(rc)), None)
    if ref is None or ref.sigma == identity_perm(bouquet.n):
        return bouquet, None
    tau = invert_perm(ref.sigma)
    return compose(bouquet, tau), tau


def _result(bouquet: Bouquet) -> RegularCircuit:
    """What a reduction returns: the first non-zero summand, negated when the
    pending sign is -1, or the constant 0 when every summand is zero."""
    single = next((rc for rc in bouquet.summands if not is_zero_summand(rc)), None)
    if single is None:
        return RegularCircuit(Circuit(bouquet.n, Nodes((CONST,), (0,), (0,)), 0), identity_perm(bouquet.n), 0)
    if bouquet.sign < 0:
        return RegularCircuit(negate(single.circuit), single.sigma, single.degree)
    return single


@functools.cache
def _det_terms(d: int) -> types.MappingProxyType:
    # read-only: every later step and reduction shares this one mapping
    return types.MappingProxyType(reference_det(d).terms)


def _verify_step(
    bouquet: Bouquet,
    mode: str,
    step: int,
    seed: int,
    trials: int,
    sweep: bool,
) -> dict[str, Any]:
    if mode == "off":
        return {"step": step, "mode": "off", "ok": None}
    d = bouquet.n
    for i, rc in enumerate(bouquet.summands if sweep else ()):
        if is_zero_summand(rc):
            continue
        try:
            degree = regular(rc.circuit, rc.sigma).degree
        except CircuitError as exc:
            raise VerificationFailed(step, f"summand {i} is not regular w.r.t. its order: {exc}")
        if degree != rc.degree:
            raise VerificationFailed(step, f"summand {i} has degree {degree}, recorded {rc.degree}")
    if mode == "exact" and d <= EXACT_VERIFY_MAX:
        if expand_bouquet(bouquet).terms != _det_terms(d):
            raise VerificationFailed(step, f"expansion differs from degree-{d} determinant")
        return {"step": step, "mode": "exact", "ok": True}
    indices = range(1, d + 1)
    grid = [(r, c) for r in indices for c in indices]
    points = [trial_point(grid, seed, step * trials + t) for t in range(trials)]
    for point, value in zip(points, eval_points(bouquet, points)):
        matrix = [[point[(r, c)] for c in indices] for r in indices]
        if value != det_mod(matrix):
            raise VerificationFailed(
                step, f"random evaluation differs from degree-{d} determinant"
            )
    return {
        "step": step,
        "mode": "random",
        "ok": True,
        "trials": trials,
        "per_trial_bound": d / PRIME,
    }


def reduce_to_single(
    bouquet: Bouquet,
    verify: str = "exact",
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> tuple[RegularCircuit, Transcript]:
    """Run the full reduction and return the single regular circuit plus transcript.

    verify is one of "off", "random", "exact".  "exact" expands every
    intermediate bouquet up to degree 6 and silently tiers down to random
    evaluation above; "random" evaluates at every degree, against the
    determinant of each trial point's matrix by elimination mod PRIME.  No
    degree goes unchecked.  trials and seed must be ints, not bools, and
    trials >= 1 unless verify is "off" (a ValueError otherwise).  The caller
    promises the input computes the determinant of degree n; with verify on,
    a broken promise (or a broken pass) surfaces as VerificationFailed.
    Every summand must be the constant 0 or of degree n (a ValueError naming
    the first that is not, before any pass): a summand is homogeneous of its
    degree, so those below n sum to zero in a determinant and carry nothing.
    """
    if verify not in ("off", "random", "exact"):
        raise ValueError(f"unknown verify mode {verify!r}")
    if not (_is_int(trials) and _is_int(seed)):
        raise ValueError(f"trials and seed must be ints, got {trials!r} and {seed!r}")
    if verify != "off" and trials < 1:
        raise ValueError("trials must be >= 1")
    for i, rc in enumerate(bouquet.summands):
        if rc.degree != bouquet.n and not is_zero_summand(rc):
            raise ValueError(f"summand {i} has degree {rc.degree} below n={bouquet.n}")

    cur = bouquet
    steps: list[dict[str, Any]] = []
    verdicts: list[dict[str, Any]] = []
    guarantee = cur.n

    while True:
        k_before = distinct_orders(cur)
        gates_before = bouquet_gate_count(cur)
        cur, tau = normalize_first(cur)
        cur = merge_summands(cur)
        if k_before <= 1:  # composing and merging keep the number of orders
            single = _result(cur)  # the last check sees what is returned
            verdicts.append(_verify_step(Bouquet(cur.n, (single,)), verify, len(steps), seed, trials, True))
            break
        verdicts.append(_verify_step(cur, verify, len(steps), seed, trials, bool(steps)))

        ident = identity_perm(cur.n)
        target_idx = next(
            i
            for i, rc in enumerate(cur.summands)
            if not is_zero_summand(rc) and rc.sigma != ident
        )
        run = monotone_subsequence(cur.summands[target_idx].sigma)
        reversed_idx = None
        if run["direction"] == "decreasing":
            summands = list(cur.summands)
            summands[target_idx] = reverse(summands[target_idx])
            cur = Bouquet(cur.n, tuple(summands), cur.sign)
            reversed_idx = target_idx
        kept = sorted(run["values"])
        if verify != "off" and len(kept) < ceil_sqrt(cur.n):
            raise VerificationFailed(len(steps) + 1, f"kept {len(kept)} of {cur.n} rows, below ceil_sqrt")

        cur = project(cur, kept)
        if verify != "off" and cur.n != len(kept):
            raise VerificationFailed(len(steps) + 1, f"kept {len(kept)} rows, projected to degree {cur.n}")
        if verify != "off" and cur.summands[target_idx].sigma != identity_perm(cur.n):
            raise VerificationFailed(len(steps) + 1, f"kept {kept} is not monotone in summand {target_idx}")
        guarantee = ceil_sqrt(guarantee)
        steps.append(
            dict(
                iteration=len(steps) + 1,
                tau_applied=None if tau is None else list(tau),
                summand_reversed=reversed_idx,
                subsequence=run,
                kept_indices=kept,
                sizes_before_after=[gates_before, bouquet_gate_count(cur)],
                k_before_after=[k_before, distinct_orders(cur)],
            )
        )

    k_distinct = max(1, distinct_orders(bouquet))
    transcript = Transcript(
        config=dict(
            n=bouquet.n, k=len(bouquet.summands), k_distinct=k_distinct, verify=verify,
            seed=seed, trials=trials, pit_prime=str(PRIME),
        ),
        steps=steps,
        verdicts=verdicts,
        final_degree=cur.n,
        final_gates=gate_count(single.circuit),
        epsilon_guarantee=1.0 / 2 ** (k_distinct - 1),
        es_guarantee=guarantee,
        final_tau=None if tau is None else list(tau),
        zero_summands_dropped=sum(map(is_zero_summand, cur.summands)),
    )
    return single, transcript

