"""CLI verbs reject ill-typed input documents with the usual exit codes."""

import io
import json
import math
import random
import tracemalloc

import pytest

from smlc import cli
from smlc.generators import distinct_perms
from smlc.poly import REFERENCE_MAX_N
from smlc.serialize import ParseError, circuit_from_obj, dumps


def _main(monkeypatch, capsys, args, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(doc)))
    code = cli.main(args)
    return code, json.loads(capsys.readouterr().out)


VAR = {"id": 0, "op": "var", "row": 1, "col": 1}


@pytest.mark.parametrize(
    "doc, error, detail",
    [
        (
            # x11 * x11
            {"n": 1, "nodes": [VAR, {"id": 1, "op": "mul", "left": 0, "right": 0}], "root": 1},
            "MulOverlap",
            "mul gate 1: children cover overlapping index sets",
        ),
        (
            {"n": 0, "nodes": [{"id": 0, "op": "const", "value": "5"}], "root": 0},
            "CircuitError",
            "grid size must be positive, got 0",
        ),
    ],
)
def test_eval_rejects_ill_typed_circuit(doc, error, detail, monkeypatch, capsys):
    code, out = _main(monkeypatch, capsys, ["eval", "--seed", "1"], doc)
    assert code == 1
    assert out == {"ok": False, "error": error, "detail": detail}


def test_summand_grid_mismatch_is_a_parse_error(monkeypatch, capsys):
    good = {"sigma": [1, 2], "circuit": {"n": 2, "nodes": [VAR], "root": 0}}
    # summand 1 is irregular too, but its grid is reported before any sweep
    other = {"sigma": [2, 1, 3], "circuit": {"n": 3, "nodes": [VAR], "root": 0}}
    bouquet = {"n": 2, "sign": 1, "summands": [good, other]}
    code, out = _main(monkeypatch, capsys, ["reduce", "--verify", "off"], bouquet)
    assert code == 2
    assert out == {
        "ok": False,
        "error": "ParseError",
        "detail": "summand 1: grid size 3 does not match bouquet n=2",
    }


BIG = 10**6
CONST = {"id": 0, "op": "const", "value": "1"}

# an integer literal past Python's default limit of 4,300 digits for int(str)
LONG_INT = "1" * 5000
LONG_CIRCUIT = '{"n": %s, "nodes": [], "root": 0}' % LONG_INT
LONG_BOUQUET = '{"n": 1, "sign": %s, "summands": [{"sigma": [1], "circuit": %s}]}' % (
    LONG_INT,
    dumps({"n": 1, "nodes": [CONST], "root": 0}),
)


@pytest.mark.parametrize(
    "args, text",
    [
        (["validate"], LONG_CIRCUIT),
        (["stats"], LONG_CIRCUIT),
        (["check-regular", "--sigma", "1"], LONG_CIRCUIT),
        (["reverse"], LONG_BOUQUET),
        (["reduce", "--verify", "off"], LONG_BOUQUET),
        (["expand"], LONG_BOUQUET),
    ],
    ids=["validate", "stats", "check-regular", "reverse", "reduce", "expand"],
)
def test_overlong_integer_is_a_parse_error(args, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(args)
    out = json.loads(capsys.readouterr().out)
    assert (code, out["ok"], out["error"]) == (2, False, "ParseError")
    assert out["detail"].startswith("invalid JSON: ")


@pytest.mark.parametrize(
    "args, doc, error, detail",
    [
        (
            ["reduce", "--verify", "off"],
            {"n": BIG, "summands": [{"sigma": [1], "circuit": {"n": BIG, "nodes": [CONST], "root": 0}}]},
            "CircuitError",
            f"sigma (1,) is not a permutation of [1..{BIG}]",
        ),
        (["gen", "det", "--n", str(BIG)], {}, "TooLarge", f"determinant generator limited to n <= 8, got {BIG}"),
        (
            ["gen", "bouquet", "--n", str(BIG), "--k", "2", "--seed", "1"],
            {},
            "TooLarge",
            f"determinant generator limited to n <= 8, got {BIG}",
        ),
    ],
)
def test_oversized_grid_is_refused_in_constant_memory(args, doc, error, detail, monkeypatch, capsys):
    # a list of all n rows would take 40 MB here
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(doc)))
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, json.loads(capsys.readouterr().out)) == (1, {"ok": False, "error": error, "detail": detail})
    assert peak < 1_000_000, peak


def test_bouquet_orders_are_drawn_without_n_factorial(monkeypatch, capsys):
    real = math.factorial

    def guarded(n):
        assert n <= REFERENCE_MAX_N, f"factorial({n}) computed"
        return real(n)

    monkeypatch.setattr(math, "factorial", guarded)
    code = cli.main(["gen", "bouquet", "--n", "1000", "--k", "2", "--seed", "1"])
    out = {"ok": False, "error": "TooLarge", "detail": "determinant generator limited to n <= 8, got 1000"}
    assert (code, json.loads(capsys.readouterr().out)) == (1, out)
    # the bound stays exact: 3! orders exist, a seventh does not
    assert len(set(distinct_perms(3, 6, random.Random(0)))) == 6
    with pytest.raises(ValueError, match=r"cannot draw 7 distinct permutations of \[1..3\]"):
        distinct_perms(3, 7, random.Random(0))
    with pytest.raises(ValueError, match="k must be >= 1"):
        distinct_perms(3, 0, random.Random(0))


@pytest.mark.parametrize(
    "n, k, error, detail",
    [
        # more orders than 9! exist: the count is refused before the size
        (9, math.factorial(9) + 1, "ValueError", f"cannot draw {math.factorial(9) + 1} distinct permutations of [1..9]"),
        # 9! orders exist, but none is drawn before n = 9 is refused
        (9, math.factorial(9), "TooLarge", "determinant generator limited to n <= 8, got 9"),
        (8, math.factorial(8) + 1, "ValueError", f"cannot draw {math.factorial(8) + 1} distinct permutations of [1..8]"),
        (0, 1, "ValueError", "n must be >= 1"),
        (3, 0, "ValueError", "k must be >= 1"),
        (3, -1, "ValueError", "k must be >= 1"),
        # the running product of n! stops at k, long before 10**6!
        (BIG, 10**30, "TooLarge", f"determinant generator limited to n <= 8, got {BIG}"),
    ],
)
def test_gen_bouquet_size_checks_come_before_any_draw(n, k, error, detail, monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("an order was drawn")

    monkeypatch.setattr("smlc.generators.random_perm", no_draws)
    tracemalloc.start()
    try:
        code = cli.main(["gen", "bouquet", "--n", str(n), "--k", str(k), "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, json.loads(capsys.readouterr().out)) == (1, {"ok": False, "error": error, "detail": detail})
    assert peak < 1_000_000, peak


# the constants test_parser_names_each_fault refuses, plus "" and a bool's spelling
NOT_DECIMAL = ["1.5", "1_000", " 5", "+5", "\u0663", "", "True"]
# every integer on argv; "{}" stands for the spelling under test
INT_ARGS = [
    ["gen", "det", "--n", "{}"],
    ["gen", "bouquet", "--n", "{}", "--k", "2", "--seed", "1"],
    ["gen", "bouquet", "--n", "3", "--k", "{}", "--seed", "1"],
    ["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "{}"],
    ["reduce", "--seed", "{}"],
    ["reduce", "--trials", "{}"],
    ["eval", "--seed", "{}"],
    ["equiv", "--seed", "{}"],
    ["equiv", "--seed", "1", "--trials", "{}"],
    ["gen", "det", "--n", "3", "--sigma", "1,{}"],
    ["check-regular", "--sigma", "1,{}"],
    ["compose", "--tau", "1,{}"],
    ["project", "--keep", "1,{}"],
]


def _wire_const(text):
    return circuit_from_obj({"n": 1, "nodes": [{"id": 0, "op": "const", "value": text}], "root": 0})


@pytest.mark.parametrize("text", NOT_DECIMAL, ids=ascii)
@pytest.mark.parametrize("args", INT_ARGS, ids=" ".join)
def test_every_integer_flag_follows_the_wire_rule(args, text, capsys):
    # on the wire the spelling is a bad constant; on argv, a usage error
    with pytest.raises(ParseError, match="bad decimal constant"):
        _wire_const(text)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.replace("{}", text) for arg in args])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


@pytest.mark.parametrize("text", ["-1", "0", "007"])
def test_canonical_spellings_mean_the_same_int_on_argv_and_wire(text, capsys):
    value = _wire_const(text).nodes.a[0]
    assert cli.main(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", text]) == 0
    out = capsys.readouterr().out
    assert cli.main(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", str(value)]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "args",
    [
        ["reduce", "--trials", "0"],
        ["reduce", "--verify", "off", "--trials", "0"],
        ["equiv", "--seed", "1", "--trials", "-1"],
    ],
    ids=" ".join,
)
def test_trials_below_one_is_the_verbs_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: smlc {args[0]} ")
    assert "argument --trials: must be >= 1" in err
