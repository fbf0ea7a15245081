#!/usr/bin/env python3
"""Benchmark for smlc: seeded reduce workloads, end-to-end metrics, per-layer trace.

Run from the repository root, for example

    python3 perfbench/run.py --workload det8-cli-off --seed 1 --seconds 20 --trace 0

One process, one thread, one instance at a time (a closed loop with one
client).  The seed makes a pool of inputs with `smlc.generators`; the loop
then cycles through the pool, at least once, until the timed calls add up
to `--seconds`.  Every output is checked against the determinant oracle
after the loop.  `--trace 1` reports the per-layer metrics instead: it sets
up under the tracer, runs untraced pool passes for half the time and traced
passes for the other half, and reports the tracing overhead from the two.
`--workload all` runs every workload in its own process.  `--smoke` runs one
pass over a tiny pool, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it are a
readable report; the full record (run context, sample counts, determinism
digest, negative control) and, in a traced run, the spans are written to
perfbench/out/.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if not (SRC / "smlc" / "__init__.py").is_file():
    sys.exit(f"perfbench: no smlc sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from smlc import cli, generators, pipeline, serialize  # noqa: E402
from smlc.circuit import Circuit, VarLeaf, gate_count  # noqa: E402
from smlc.poly import expand, reference_det  # noqa: E402

from tracing import COUNTER_UNITS, SPAN_NAMES, Tracer  # noqa: E402  (this script's directory)

TRIALS = 20
clock = time.perf_counter

# Relative order patterns, one per pool slot, cycled over the pool.  The seed
# relabels the rows of a pattern and splits the n! determinant terms between
# its summands, so every seed does the same reduction steps (same kept-set
# sizes, same reversals) and output sizes stay comparable across seeds.
DET8_PATTERNS = (
    # both steps keep a decreasing run (4, then 3), so step 1 reverses a
    # 114k-node summand; of the patterns tried, its output size varied least
    # with the term split (coefficient of variation 0.02 over 8 splits)
    ((2, 7, 6, 5, 8, 1, 3, 4), (8, 6, 7, 3, 5, 4, 1, 2), (8, 4, 5, 7, 1, 2, 3, 6)),
)
DET7_PATTERNS = (
    # two steps: an increasing run of 4, then a decreasing run of 3
    ((5, 3, 2, 1, 6, 4, 7), (2, 1, 5, 6, 7, 3, 4), (7, 4, 1, 6, 3, 2, 5)),
)
# Five slots each of n = 4, 5, 6: with 15 equally weighted slots the median
# (slot 7.5) falls inside the n=5 group and p90 (slot 13.5) inside the n=6
# group, never on the edge between two groups.
SMALL_PATTERNS = (
    ((3, 4, 1, 2), (2, 4, 3, 1)),
    ((1, 2, 3, 4), (1, 4, 3, 2), (3, 1, 4, 2)),
    ((4, 3, 1, 2), (3, 1, 2, 4)),
    ((1, 2, 4, 3), (3, 2, 1, 4), (3, 4, 2, 1)),
    ((3, 1, 4, 2), (4, 1, 2, 3)),
    ((3, 2, 4, 5, 1), (3, 2, 1, 4, 5)),
    ((3, 4, 2, 5, 1), (5, 3, 1, 2, 4), (1, 3, 4, 5, 2)),
    ((2, 3, 5, 4, 1), (2, 1, 5, 4, 3)),
    ((3, 2, 5, 1, 4), (2, 1, 4, 3, 5), (1, 5, 2, 4, 3)),
    ((3, 5, 1, 2, 4), (4, 1, 5, 3, 2)),
    ((6, 2, 1, 3, 5, 4), (2, 5, 4, 1, 6, 3), (3, 6, 1, 2, 5, 4)),
    ((2, 4, 5, 3, 1, 6), (5, 1, 3, 6, 2, 4)),
    ((3, 1, 5, 2, 6, 4), (5, 3, 4, 6, 1, 2), (5, 3, 6, 2, 4, 1)),
    ((4, 3, 2, 1, 5, 6), (3, 1, 2, 5, 4, 6)),
    ((5, 4, 6, 2, 1, 3), (4, 6, 5, 2, 3, 1), (3, 1, 4, 6, 2, 5)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    patterns: tuple
    pool: int  # distinct inputs per run
    smoke_pool: int
    verify: str
    via_cli: bool  # drive `smlc reduce` through cli.main on wire JSON


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("det8-cli-off", DET8_PATTERNS, 3, 1, "off", True),
        Workload("det7-random", DET7_PATTERNS, 8, 1, "random", False),
        Workload("small-exact", SMALL_PATTERNS, 300, len(SMALL_PATTERNS), "exact", False),
    )
}

P90_MIN_SAMPLES = 100


class CheckFailed(Exception):
    """An output failed the benchmark's independent check."""


# ---------------------------------------------------------------------------
# Timings rescaled to a reference host speed
# ---------------------------------------------------------------------------
# On a shared host the speed of a core drifts: on the 2-vCPU Xeon host this
# benchmark was written on, a fixed pure-Python loop took anywhere from 40 to
# 80 ms within half a minute, and whole minutes ran 1.5x slower than others.
# So each run also times a calibration kernel, interleaved with the timed
# calls (after every CAL_EVERY_S of timed work, for CAL_SHARE of that time),
# and reports every timing as t * CAL_REF_S / (mean kernel time of the run):
# the time it would take on a host where the kernel runs in CAL_REF_S, about
# its time on that host when idle.  The raw samples stay in the record.

CAL_REF_S = 0.0014
CAL_EVERY_S = 0.5
CAL_SHARE = 0.05
CAL_MIN_S = 0.03


def _kernel() -> float:
    """One kernel repetition: integer arithmetic only, so the cyclic
    collector never runs inside it and it measures the core, not the heap."""
    start = clock()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return clock() - start


class Stopwatch:
    """Timed samples plus calibration kernels interleaved with them."""

    def __init__(self):
        self.raw: list[float] = []
        self.kernels: list[float] = []
        self._since = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        end = clock() + max(CAL_MIN_S, CAL_SHARE * self._since)
        self.kernels.append(_kernel())
        while clock() < end:
            self.kernels.append(_kernel())
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._since += seconds
        if self._since >= CAL_EVERY_S:
            self._calibrate()

    def finish(self) -> "Stopwatch":
        if self._since:
            self._calibrate()
        return self

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.kernels) / CAL_REF_S

    def scaled(self) -> list[float]:
        return [seconds / self.slowdown for seconds in self.raw]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_pool(wl: Workload, seed: int, size: int, tracer: Tracer | None):
    """Seeded inputs: a list of (instance seed, input) and per-input setup times."""
    rng = random.Random(f"{wl.name}:{seed}")
    pool, times = [], Stopwatch()
    for idx in range(size):
        pattern = wl.patterns[idx % len(wl.patterns)]
        n = len(pattern[0])
        relabel = rng.sample(range(1, n + 1), n)
        sigmas = [tuple(relabel[row - 1] for row in sigma) for sigma in pattern]
        split_seed = rng.randrange(2**31)
        if tracer is not None:
            tracer.instance = f"setup:{idx}"
        start = clock()
        bouquet = generators.det_bouquet(n, sigmas, split_seed)
        item = serialize.dumps(serialize.bouquet_to_obj(bouquet)) if wl.via_cli else bouquet
        times.add(clock() - start)
        pool.append((split_seed, item))
    return pool, times.finish()


# ---------------------------------------------------------------------------
# One instance: the user-visible call, timed, and its raw result
# ---------------------------------------------------------------------------

def run_cli(text: str, seed: int, transcript: Path):
    transcript.unlink(missing_ok=True)
    argv = ["reduce", "--verify", "off", "--seed", str(seed), "--emit-transcript", str(transcript)]
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        start = clock()
        code = cli.main(argv)
        wall = clock() - start
        stdout = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return wall, (code, stdout, transcript.read_text() if transcript.exists() else "")


def run_inprocess(bouquet, seed: int, verify: str):
    start = clock()
    single, transcript = pipeline.reduce_to_single(bouquet, verify=verify, seed=seed, trials=TRIALS)
    return clock() - start, (single.circuit, transcript.to_obj())


def measure(wl: Workload, pool, seconds: float, tracer: Tracer | None, tag: str, transcript: Path,
            whole_passes: bool):
    """Cycle through the pool until the timed calls add up to `seconds`.

    Always at least one whole pass, so every input is run and checked; with
    `whole_passes` the last pass is completed too, so every input is run
    equally often.  Returns the timings, the raw results and the whole passes.
    """
    walls, results, count, timed = Stopwatch(), [], 0, 0.0
    while count < len(pool) or timed < seconds or (whole_passes and count % len(pool)):
        idx = count % len(pool)
        seed, item = pool[idx]
        if tracer is not None:
            tracer.instance = f"{tag}{count // len(pool)}:{idx}"
        start = clock()
        try:
            if wl.via_cli:
                wall, raw = run_cli(item, seed, transcript)
            else:
                wall, raw = run_inprocess(item, seed, wl.verify)
        except Exception as exc:  # a raising instance is a failed instance
            wall, raw = clock() - start, exc
        walls.add(wall)
        timed += wall
        results.append((idx, raw))
        count += 1
    return walls.finish(), results, count // len(pool)


# ---------------------------------------------------------------------------
# Output check, independent of the reduction's own verify modes
# ---------------------------------------------------------------------------

_REFERENCE: dict[int, dict] = {}


def oracle_error(circuit: Circuit, degree: int) -> str | None:
    """Why `circuit` is not the determinant of degree `degree`, or None."""
    if circuit.n != degree:
        return f"output grid size {circuit.n} differs from final degree {degree}"
    terms = expand(circuit).terms
    if all(not mono for mono in terms):
        return "output is constant"
    if degree not in _REFERENCE:
        _REFERENCE[degree] = reference_det(degree).terms
    if terms != _REFERENCE[degree]:
        return f"expansion differs from the degree-{degree} determinant"
    return None


def transpose_rows(circuit: Circuit, a: int = 1, b: int = 2) -> Circuit:
    """The circuit with rows a and b swapped in every variable: it computes -det."""
    swap = {a: b, b: a}
    nodes = tuple(
        VarLeaf(swap.get(node.row, node.row), node.col) if isinstance(node, VarLeaf) else node
        for node in circuit.nodes
    )
    return Circuit(circuit.n, nodes, circuit.root)


def outcome(wl: Workload, raw) -> tuple[Circuit, dict]:
    """The output circuit and transcript object of one instance, or CheckFailed."""
    if isinstance(raw, Exception):
        raise CheckFailed(f"raised {type(raw).__name__}: {raw}")
    if wl.via_cli:
        code, stdout, transcript_text = raw
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stdout.strip()[:200]}")
        return serialize.circuit_from_obj(serialize.loads(stdout)), serialize.loads(transcript_text)
    return raw


def check(wl: Workload, results) -> tuple[dict, list[str]]:
    """Check every result; return per-entry (circuit, degree, canonical bytes), failures."""
    entries: dict[int, tuple[Circuit, int, bytes]] = {}
    failures: list[str] = []
    for idx, raw in results:
        try:
            circuit, transcript = outcome(wl, raw)
            if wl.verify != "off":
                bad = [v for v in transcript["verdicts"] if v.get("ok") is not True]
                if bad:
                    raise CheckFailed(f"verdict not ok: {bad[0]}")
            degree = transcript["final_degree"]
            error = oracle_error(circuit, degree)
            if error:
                raise CheckFailed(error)
            canonical = (
                serialize.dumps(transcript) + "\n" + serialize.dumps(serialize.circuit_to_obj(circuit)) + "\n"
            ).encode()
            if idx not in entries:
                entries[idx] = (circuit, degree, canonical)
            elif entries[idx][2] != canonical:
                raise CheckFailed("output differs from an earlier run of the same input")
        except CheckFailed as exc:
            failures.append(f"input {idx}: {exc}")
    return entries, failures


def negative_control(entries) -> str:
    """Feed the checker a row-transposed output; it must reject it."""
    if not entries:
        return "not run: no checked output"
    circuit, degree, _ = entries[min(entries)]
    if degree < 2:
        return f"not run: degree {degree} has no row transposition"
    error = oracle_error(transpose_rows(circuit), degree)
    return f"rejected ({error})" if error else "ACCEPTED a row-transposed output"


# ---------------------------------------------------------------------------
# Context and reporting
# ---------------------------------------------------------------------------

def run_context(wl: Workload, args, pool_size: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = got.stdout.strip() or commit
        except OSError:  # no git program
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "smlc").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "pool": pool_size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(walls: Stopwatch, setup: Stopwatch, entries, pool_size: int) -> dict:
    scaled = walls.scaled()
    gates = sum(gate_count(circuit) for circuit, _, _ in entries.values())
    degrees = sum(degree for _, degree, _ in entries.values())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "reduce_s.p50": metric(statistics.median(scaled), "s", len(scaled)),
        "instances_per_s": metric(len(scaled) / sum(scaled), "1/s", len(scaled)),
        "setup_s": metric(statistics.median(setup.scaled()), "s", len(setup.raw)),
        "peak_rss_mb": metric(peak_mb, "MB", 1),
        "final_gates": metric(gates, "gates", pool_size),
        "final_degree": metric(degrees, "rows", pool_size),
    }


def per_layer(tracer: Tracer, passes: int, walls: Stopwatch, untraced: Stopwatch, setup: Stopwatch) -> dict:
    """Setup once plus one traced pass over the pool (pass totals / passes)."""
    at_setup, setup_counts, setup_roots = tracer.summary("setup:")
    in_passes, pass_counts, pass_roots = tracer.summary("p")
    out = {}

    def once(setup_value, passes_value):
        value = setup_value + passes_value / passes
        return int(value) if value == int(value) else value

    for name in SPAN_NAMES:
        spans = at_setup[name][0] + in_passes[name][0]
        out[f"{name}.calls"] = metric(once(at_setup[name][0], in_passes[name][0]), "count", spans)
        out[f"{name}.self_s"] = metric(once(at_setup[name][1], in_passes[name][1]), "s", spans)
    for key, unit in COUNTER_UNITS.items():
        out[key] = metric(once(setup_counts.get(key, 0), pass_counts.get(key, 0)), unit, 1 + passes)
    traced_p50 = statistics.median(walls.scaled())
    untraced_p50 = statistics.median(untraced.scaled())
    wall = sum(setup.raw) + sum(walls.raw)
    samples = len(walls.raw) + len(setup.raw)
    out["trace.overhead_s"] = metric(traced_p50 - untraced_p50, "s", len(walls.raw))
    out["trace.overhead_base_s"] = metric(untraced_p50, "s", len(untraced.raw))
    out["trace.root_over_wall"] = metric((setup_roots + pass_roots) / wall, "ratio", samples)
    return out


def report(context: dict, metrics: dict, extra: dict) -> None:
    print(" ".join(f"{key}={value}" for key, value in context.items()))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<6} (n={m['samples']})")
    for name, value in extra.items():
        print(f"  {name:<40} {value}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    pool_size = wl.smoke_pool if args.smoke else wl.pool
    seconds = 0.0 if args.smoke else float(args.seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    transcript = OUT / f"transcript-{os.getpid()}.json"
    context = run_context(wl, args, pool_size)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    pool, setup = make_pool(wl, args.seed, pool_size, tracer)
    if tracer is not None:
        tracer.uninstall()
    # the pool is the benchmark's, not the program's: keep it out of the
    # cyclic collector's scans so its size does not tax the timed calls
    gc.collect()
    gc.freeze()

    if tracer is None:
        walls, results, passes = measure(wl, pool, seconds, None, "", transcript, False)
        all_results = results
    else:
        # whole passes: per-layer figures are per pass, and the overhead
        # compares traced and untraced runs over the same mix of inputs
        untraced, untraced_results, _ = measure(wl, pool, seconds / 2, None, "", transcript, True)
        tracer.install()
        walls, results, passes = measure(wl, pool, seconds / 2, tracer, "p", transcript, True)
        tracer.uninstall()
        all_results = untraced_results + results
    transcript.unlink(missing_ok=True)

    entries, failures = check(wl, all_results)
    control = negative_control(entries)
    digest = hashlib.sha256(b"".join(entries[idx][2] for idx in sorted(entries))).hexdigest()
    attempted = len(all_results)
    context.update(instances=attempted, passes=passes)

    if tracer is None:
        metrics = end_to_end(walls, setup, entries, pool_size)
        correct = True
    else:
        metrics = per_layer(tracer, passes, walls, untraced, setup)
        tracer.write(OUT / f"spans-{stem}.jsonl")
        # root spans must account for the traced wall time within a few percent
        correct = abs(metrics["trace.root_over_wall"]["value"] - 1) <= 0.05
    correct = correct and not failures and control.startswith("rejected") and len(entries) == pool_size

    scaled = walls.scaled()
    p90 = "n/a (needs >= %d samples, have %d)" % (P90_MIN_SAMPLES, len(scaled))
    if len(scaled) >= P90_MIN_SAMPLES:
        p90 = "%.6g s (n=%d)" % (statistics.quantiles(scaled, n=10)[8], len(scaled))
    extra = {
        "reduce_s.p90": p90,
        "reduce_s.p50.unscaled": "%.6g s (n=%d)" % (statistics.median(walls.raw), len(walls.raw)),
        "host_slowdown": "%.4g setup, %.4g reduce (mean calibration kernel / %g s; n=%d, %d)"
        % (setup.slowdown, walls.slowdown, CAL_REF_S, len(setup.kernels), len(walls.kernels)),
        "failed_ratio": f"{len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})",
        "negative_control": control,
        "digest": f"sha256:{digest}",
    }
    if failures:
        extra["first_failure"] = failures[0]
    samples = {
        "setup_s": {"raw": setup.raw, "kernels": setup.kernels},
        "reduce_s": {"raw": walls.raw, "kernels": walls.kernels},
    }
    report(context, metrics, extra)
    record = {"context": context, "metrics": metrics, **extra, "failures": failures, "correct": correct,
              "samples": samples}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass over a tiny pool")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
