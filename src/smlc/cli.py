"""Command-line surface: one verb per operation over the JSON wire formats.

Verbs that transform bouquets (reverse, compose, project, merge, droplast)
read a bouquet document on stdin and write one on stdout.  `gen` emits fresh
instances, `reduce` emits the final single circuit (plus an optional
transcript file), and the oracle verbs (validate, check-regular, stats,
expand, eval, equiv) print machine-parsable result objects.

Exit codes: 0 ok, 1 domain error (typing, regularity, oracle limits), 2 parse or
usage error, 3 verification failure during reduce, 141 (128 + SIGPIPE) a closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .circuit import (
    Bouquet,
    CircuitError,
    decimal,
    infer_order,
    stats,
    validate,
    variables_of,
)
from .generators import det_regular_circuit, seeded_det_bouquet
from .passes import PassError, compose, drop_last_index, merge_summands, project, reverse
from .pipeline import VerificationFailed, reduce_to_single
from .poly import (
    DEFAULT_TRIALS,
    OracleError,
    PRIME,
    equiv_random,
    eval_circuit,
    expand,
    expand_bouquet,
    point_to_obj,
    poly_to_text,
    trial_point,
)
from .serialize import (
    ParseError,
    bouquet_from_obj,
    bouquet_from_text,
    bouquet_to_obj,
    circuit_from_obj,
    circuit_to_obj,
    dumps,
    loads,
)


def _perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(decimal, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _trials(text: str) -> int:
    # below 1 is a usage error of the verb that takes it, like any other bad value
    value = decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_text() -> str:
    # undecodable bytes are a parse error (exit 2), like bad JSON, not a ValueError (exit 1)
    try:
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None


def _read_obj() -> Any:
    return loads(_read_text())


def _read_circuit():
    return circuit_from_obj(_read_obj())


def _read_bouquet() -> Bouquet:
    return bouquet_from_text(_read_text())


def _read_doc(obj: Any):
    # expand and equiv take either wire format
    if isinstance(obj, dict) and "summands" in obj:
        return bouquet_from_obj(obj)
    return circuit_from_obj(obj)


def _emit(obj: Any) -> int:
    print(dumps(obj))
    return 0


def _cmd_gen_det(args) -> int:
    # a range, so an n the generator refuses costs nothing to refuse
    sigma = args.sigma or range(1, args.n + 1)
    rc = det_regular_circuit(args.n, sigma)
    return _emit(circuit_to_obj(rc.circuit))


def _cmd_gen_bouquet(args) -> int:
    return _emit(bouquet_to_obj(seeded_det_bouquet(args.n, args.k, args.seed)))


def _cmd_validate(args) -> int:
    circuit = _read_circuit()
    sets = validate(circuit)
    return _emit({"ok": True, "n": circuit.n, "index_sets": [sorted(s) for s in sets]})


def _cmd_check_regular(args) -> int:
    circuit = _read_circuit()
    intervals = infer_order(circuit, args.sigma)
    return _emit({"ok": True, "sigma": list(args.sigma), "intervals": intervals})


def _cmd_stats(args) -> int:
    return _emit({"ok": True, **stats(_read_circuit())})


def _cmd_reverse(args) -> int:
    b = _read_bouquet()
    out = Bouquet(b.n, tuple(reverse(rc) for rc in b.summands), b.sign)
    return _emit(bouquet_to_obj(out))


def _cmd_compose(args) -> int:
    return _emit(bouquet_to_obj(compose(_read_bouquet(), args.tau)))


def _cmd_project(args) -> int:
    return _emit(bouquet_to_obj(project(_read_bouquet(), args.keep)))


def _cmd_merge(args) -> int:
    return _emit(bouquet_to_obj(merge_summands(_read_bouquet())))


def _cmd_droplast(args) -> int:
    return _emit(bouquet_to_obj(drop_last_index(_read_bouquet())))


def _cmd_reduce(args) -> int:
    b = _read_bouquet()
    single, transcript = reduce_to_single(
        b, verify=args.verify, seed=args.seed, trials=args.trials
    )
    if args.emit_transcript:
        try:
            with open(args.emit_transcript, "w", encoding="utf-8") as fh:
                fh.write(dumps(transcript.to_obj()) + "\n")
        except OSError as exc:  # a path that cannot be written is a usage error
            return _fail(2, exc)
    return _emit(circuit_to_obj(single.circuit))


def _cmd_expand(args) -> int:
    doc = _read_doc(_read_obj())
    poly = expand_bouquet(doc) if isinstance(doc, Bouquet) else expand(doc)
    text = poly_to_text(poly)
    if text:
        print(text)
    return 0


def _cmd_eval(args) -> int:
    circuit = _read_circuit()
    validate(circuit)
    point = trial_point(variables_of(circuit), args.seed, 0)
    value = eval_circuit(circuit, point)
    return _emit(
        {
            "ok": True,
            "seed": args.seed,
            "prime": str(PRIME),
            "point": point_to_obj(point),
            "value": str(value),
        }
    )


def _cmd_equiv(args) -> int:
    doc = _read_obj()
    if not (isinstance(doc, dict) and "a" in doc and "b" in doc):
        raise ParseError('equiv expects {"a": <circuit|bouquet>, "b": <circuit|bouquet>}')
    verdict = equiv_random(_read_doc(doc["a"]), _read_doc(doc["b"]), args.trials, args.seed)
    return _emit({"ok": True, **verdict})


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser, which reports the arguments it does not know with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smlc",
        description="Transformations and oracles for regular set-multilinear circuits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

    gen = sub.add_parser("gen", help="generate instances")
    gensub = gen.add_subparsers(dest="kind", required=True)
    gd = gensub.add_parser("det", help="determinant circuit, regular w.r.t. --sigma")
    gd.add_argument("--n", type=decimal, required=True)
    gd.add_argument("--sigma", type=_perm, default=None, help="order, e.g. 3,1,4,2 (default identity)")
    gd.set_defaults(func=_cmd_gen_det)
    gb = gensub.add_parser("bouquet", help="k-summand determinant bouquet with random distinct orders")
    gb.add_argument("--n", type=decimal, required=True)
    gb.add_argument("--k", type=decimal, required=True)
    gb.add_argument("--seed", type=decimal, required=True)
    gb.set_defaults(func=_cmd_gen_bouquet)

    pv = sub.add_parser("validate", help="check set-multilinear typing of a circuit")
    pv.set_defaults(func=_cmd_validate)

    pc = sub.add_parser("check-regular", help="check regularity of a circuit w.r.t. --sigma")
    pc.add_argument("--sigma", type=_perm, required=True)
    pc.set_defaults(func=_cmd_check_regular)

    ps = sub.add_parser("stats", help="size / depth / degree of a circuit")
    ps.set_defaults(func=_cmd_stats)

    pr = sub.add_parser("reverse", help="reverse every summand of a bouquet")
    pr.set_defaults(func=_cmd_reverse)

    pp = sub.add_parser("compose", help="relabel rows by --tau")
    pp.add_argument("--tau", type=_perm, required=True)
    pp.set_defaults(func=_cmd_compose)

    pj = sub.add_parser("project", help="restrict to --keep rows and rename")
    pj.add_argument("--keep", type=_perm, required=True)
    pj.set_defaults(func=_cmd_project)

    pm = sub.add_parser("merge", help="join same-order summands")
    pm.set_defaults(func=_cmd_merge)

    pd = sub.add_parser("droplast", help="drop the highest row/column index")
    pd.set_defaults(func=_cmd_droplast)

    rd = sub.add_parser("reduce", help="reduce a bouquet to a single regular circuit")
    rd.add_argument("--verify", choices=("off", "random", "exact"), default="exact")
    rd.add_argument("--seed", type=decimal, default=0)
    rd.add_argument("--trials", type=_trials, default=DEFAULT_TRIALS)
    rd.add_argument("--emit-transcript", metavar="FILE", default=None)
    rd.set_defaults(func=_cmd_reduce)

    px = sub.add_parser("expand", help="exact expansion of a circuit or bouquet, as text")
    px.set_defaults(func=_cmd_expand)

    pe = sub.add_parser("eval", help="evaluate a circuit at a seeded random point")
    pe.add_argument("--seed", type=decimal, required=True)
    pe.set_defaults(func=_cmd_eval)

    pq = sub.add_parser("equiv", help="randomized identity test between two documents")
    pq.add_argument("--seed", type=decimal, required=True)
    pq.add_argument("--trials", type=_trials, default=DEFAULT_TRIALS)
    pq.set_defaults(func=_cmd_equiv)

    return parser


def _fail(code: int, exc: Exception) -> int:
    print(json.dumps({"ok": False, "error": type(exc).__name__, "detail": str(exc)}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except ParseError as exc:
            return _fail(2, exc)
        except VerificationFailed as exc:
            return _fail(3, exc)
        except (CircuitError, PassError, OracleError, ValueError) as exc:
            return _fail(1, exc)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
