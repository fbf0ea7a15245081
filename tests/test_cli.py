"""CLI surface: pipes, exit codes, and agreement with in-process calls.

Every test drives `cli.main` in-process through `recheck.run_cli`, except the
three whose behaviour is the process boundary: the exit status and streams of
`python -m smlc`, the decoding of its stdin, and the quiet exit 141 on a
closed stdout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from recheck import over_budget_circuit, run_cli

from smlc.circuit import Bouquet, Circuit, ConstLeaf, VarLeaf, regular
from smlc.generators import det_bouquet, det_regular_circuit, seeded_det_bouquet
from smlc.passes import compose, project
from smlc.pipeline import reduce_to_single
from smlc.poly import (
    PRIME,
    equiv_random,
    expand_bouquet,
    poly_to_text,
    reference_det,
    trial_point,
)
from smlc.serialize import (
    bouquet_from_obj,
    bouquet_to_obj,
    circuit_to_obj,
    dumps,
)


# the child `python -m smlc` imports the package from this checkout's src,
# installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

# a bouquet whose lone summand is a bare product, not a determinant
NOT_A_DET = {
    "n": 2,
    "summands": [
        {
            "sigma": [1, 2],
            "circuit": {
                "n": 2,
                "nodes": [
                    {"id": 0, "op": "var", "row": 1, "col": 1},
                    {"id": 1, "op": "var", "row": 2, "col": 1},
                    {"id": 2, "op": "mul", "left": 0, "right": 1},
                ],
                "root": 2,
            },
        }
    ],
}

# exit status -> (args, stdin, error named on stdout) of a command that ends with it
EXIT_CASES = {
    0: (["gen", "det", "--n", "2"], "", None),
    1: (["gen", "det", "--n", "9"], "", "TooLarge"),
    2: (["merge", "--frobnicate"], "{}", None),
    3: (["reduce", "--verify", "exact"], dumps(NOT_A_DET), "VerificationFailed"),
}


@pytest.mark.parametrize("status", sorted(EXIT_CASES))
def test_python_m_smlc_exits_with_the_in_process_status(status):
    args, stdin, error = EXIT_CASES[status]
    proc = subprocess.run(
        [sys.executable, "-m", "smlc", *args], input=stdin, capture_output=True, text=True, env=CHILD_ENV
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(args, stdin)
    assert proc.returncode == status
    if status == 2:  # a usage error writes argparse's usage, and nothing on stdout
        assert proc.stderr.startswith("usage: smlc ") and proc.stdout == ""
    else:
        assert proc.stderr == "" and json.loads(proc.stdout).get("error") == error


@pytest.mark.parametrize("verb", ["validate", "reduce"])
def test_input_that_is_not_utf8_exits_2(verb):
    # a strict decoder raises UnicodeDecodeError, a ValueError, where the C
    # locale's surrogateescape passes the byte on to the JSON parser: exit 2 either way
    env = dict(CHILD_ENV, PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-m", "smlc", verb], input=b"\xff{}", capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (2, b"")
    line = json.loads(proc.stdout)
    assert line["error"] == "ParseError" and line["detail"].startswith("input is not UTF-8: ")


@pytest.mark.parametrize(
    ("args", "verb"),
    [
        (["merge", "--frobnicate"], "merge"),
        (["reduce", "--trials", "0"], "reduce"),
        (["gen", "det", "--n", "2", "--frobnicate"], "gen det"),
    ],
)
def test_usage_error_prints_the_verbs_usage(args, verb):
    # an unknown flag and a bad value alike: exit 2, the verb's usage and its error line
    run = run_cli(args, "{}")
    assert (run.code, run.out) == (2, "")
    assert run.err.startswith(f"usage: smlc {verb} [-h]")
    assert f"\nsmlc {verb}: error: " in run.err


def test_gen_det_expand_golden():
    gen = run_cli(["gen", "det", "--n", "2", "--sigma", "1,2"])
    assert gen.code == 0
    res = run_cli(["expand"], stdin=gen.out)
    assert res.code == 0
    assert res.out.rstrip("\n") == "1 x[1,1] x[2,2]\n-1 x[1,2] x[2,1]"


def test_gen_bouquet_with_one_term_per_order_ends():
    # 24 orders share the 4! terms: redrawing until no bucket is empty takes ~2e9 draws
    gen = run_cli(["gen", "bouquet", "--n", "4", "--k", "24", "--seed", "1"])
    assert gen.code == 0
    bouquet = bouquet_from_obj(json.loads(gen.out))
    assert len(bouquet.summands) == 24
    assert expand_bouquet(bouquet).terms == reference_det(4).terms


@pytest.mark.parametrize("verify", ["off", "random", "exact"])
def test_emitted_transcript_is_the_in_process_record(tmp_path, verify):
    gen = run_cli(["gen", "bouquet", "--n", "5", "--k", "3", "--seed", "11"])
    path = tmp_path / "transcript.json"
    red = run_cli(
        ["reduce", "--verify", verify, "--seed", "4", "--trials", "3", "--emit-transcript", str(path)],
        stdin=gen.out,
    )
    assert red.code == 0
    bouquet = bouquet_from_obj(json.loads(gen.out))
    single, transcript = reduce_to_single(bouquet, verify=verify, seed=4, trials=3)
    assert transcript.steps  # the record covers at least one step
    assert path.read_text() == dumps(transcript.to_obj()) + "\n"
    assert red.out == dumps(circuit_to_obj(single.circuit)) + "\n"


@pytest.mark.parametrize("args", [["gen", "det", "--n", "7"], ["reverse"]], ids=" ".join)
def test_closed_stdout_exits_141_quietly(args, tmp_path):
    # both outputs outgrow a pipe's buffer, so the write itself meets the closed pipe
    source = tmp_path / "b.json"
    source.write_text(dumps(bouquet_to_obj(seeded_det_bouquet(6, 2, 1))) + "\n")
    with source.open() as stdin, subprocess.Popen(
        [sys.executable, "-m", "smlc", *args],
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    ) as proc:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert (code, stderr) == (141, "")


def test_reduce_transcript_path_that_cannot_be_written_exits_2(tmp_path):
    gen = run_cli(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "7"])
    path = tmp_path / "missing" / "transcript.json"
    red = run_cli(["reduce", "--verify", "off", "--emit-transcript", str(path)], stdin=gen.out)
    assert red.code == 2
    assert red.err == ""
    (line,) = red.out.splitlines()
    assert json.loads(line)["error"] == "FileNotFoundError"


def test_reduce_verification_failure_exits_3(tmp_path):
    path = tmp_path / "transcript.json"
    red = run_cli(
        ["reduce", "--verify", "exact", "--seed", "0", "--emit-transcript", str(path)],
        stdin=dumps(NOT_A_DET),
    )
    assert red.code == 3
    assert json.loads(red.out)["error"] == "VerificationFailed"
    assert not path.exists()  # a failed reduction writes no transcript


def test_parse_error_exits_2():
    nested = "[" * 3000 + "]" * 3000  # deeper than the JSON decoder recurses
    cases = [("stats", "this is not json")] + [(verb, nested) for verb in ("validate", "reduce", "expand")]
    for verb, text in cases:
        res = run_cli([verb], stdin=text)
        assert res.code == 2, verb
        (line,) = res.out.splitlines()
        assert json.loads(line)["ok"] is False
        assert json.loads(line)["error"] == "ParseError"


def test_compose_tau_of_wrong_length_exits_1():
    blob = dumps(bouquet_to_obj(det_bouquet(3, [(1, 2, 3), (3, 1, 2)], seed=1)))
    res = run_cli(["compose", "--tau", "1,2,3,4"], stdin=blob)
    assert res.code == 1
    assert json.loads(res.out) == {
        "ok": False,
        "error": "NotAPermutation",
        "detail": "(1, 2, 3, 4) is not a permutation of [1..3]",
    }


def test_reduce_has_no_term_budget():
    # the exact tier cannot reach a term budget, so reduce takes none
    blob = dumps(bouquet_to_obj(det_bouquet(3, [(1, 2, 3), (3, 1, 2)], seed=1)))
    res = run_cli(["reduce", "--term-budget", "3"], stdin=blob)
    assert res.code == 2


def test_expand_budget_exceeded_exits_1():
    res = run_cli(["expand"], stdin=dumps(circuit_to_obj(over_budget_circuit())))
    assert res.code == 1
    assert json.loads(res.out) == {
        "ok": False,
        "error": "BudgetExceeded",
        "detail": "product of 1331 x 1331 terms exceeds budget 1000000",
    }


def test_expand_has_no_term_budget():
    # the budget is the fixed poly.TERM_BUDGET, so expand takes none
    blob = dumps(circuit_to_obj(det_regular_circuit(2, (1, 2)).circuit))
    res = run_cli(["expand", "--term-budget", "3"], stdin=blob)
    assert res.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "det", "--n", "0"],
        ["gen", "bouquet", "--n", "0", "--k", "1", "--seed", "1"],
        ["gen", "bouquet", "--n", "2", "--k", "0", "--seed", "1"],
    ],
)
def test_gen_degenerate_sizes_exit_1(args):
    res = run_cli(args)
    assert res.code == 1
    assert json.loads(res.out)["error"] == "ValueError"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "det", "--n", "-2"],
        ["gen", "bouquet", "--n", "-1", "--k", "1", "--seed", "1"],
    ],
)
def test_gen_negative_n_names_the_guard(args):
    res = run_cli(args)
    assert res.code == 1
    assert json.loads(res.out) == {
        "ok": False,
        "error": "ValueError",
        "detail": "n must be >= 1",
    }


@pytest.mark.parametrize("sign", [1.0, True])
def test_non_integer_bouquet_sign_exits_2(sign):
    det = json.loads(run_cli(["gen", "det", "--n", "3"]).out)
    bouquet = json.loads(run_cli(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "1"]).out)
    bouquet["sign"] = sign
    res = run_cli(["equiv", "--seed", "1"], stdin=json.dumps({"a": det, "b": bouquet}))
    assert res.code == 2
    assert json.loads(res.out)["error"] == "ParseError"


def test_cli_pipeline_agrees_with_in_process():
    b = det_bouquet(4, [(1, 2, 3, 4), (3, 1, 4, 2)], seed=5)
    blob = dumps(bouquet_to_obj(b))

    via_cli = run_cli(["compose", "--tau", "2,1,3,4"], stdin=blob)
    assert via_cli.code == 0
    via_api = compose(b, (2, 1, 3, 4))
    assert bouquet_from_obj(json.loads(via_cli.out)) == via_api

    projected = run_cli(["project", "--keep", "1,3"], stdin=via_cli.out)
    assert projected.code == 0
    assert bouquet_from_obj(json.loads(projected.out)) == project(via_api, (1, 3))

    text = run_cli(["expand"], stdin=projected.out)
    assert text.out.rstrip("\n") == poly_to_text(expand_bouquet(project(via_api, (1, 3))))


def test_reverse_merge_droplast_round_trip():
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=6)
    blob = dumps(bouquet_to_obj(b))
    rev = run_cli(["reverse"], stdin=blob)
    assert rev.code == 0
    rev_b = bouquet_from_obj(json.loads(rev.out))
    assert expand_bouquet(rev_b).terms == reference_det(3).terms

    merged = run_cli(["merge"], stdin=rev.out)
    assert merged.code == 0

    dropped = run_cli(["droplast"], stdin=merged.out)
    assert dropped.code == 0
    out_b = bouquet_from_obj(json.loads(dropped.out))
    assert expand_bouquet(out_b).terms == reference_det(2).terms


def test_eval_deterministic_per_seed():
    gen = run_cli(["gen", "det", "--n", "3"])
    a = run_cli(["eval", "--seed", "12"], stdin=gen.out)
    b = run_cli(["eval", "--seed", "12"], stdin=gen.out)
    c = run_cli(["eval", "--seed", "13"], stdin=gen.out)
    assert a.code == 0
    assert a.out == b.out
    assert a.out != c.out


def test_equiv_distinct_reports_first_separating_trial():
    # b is x[1,1]'s trial-0 value as a constant, so the documents agree at
    # trial 0 and first separate at trial 1
    v0 = trial_point({(1, 1)}, 5, 0)[(1, 1)]
    v1 = trial_point({(1, 1)}, 5, 1)[(1, 1)]
    leaf = {"n": 1, "nodes": [{"id": 0, "op": "var", "row": 1, "col": 1}], "root": 0}
    const = {"n": 1, "nodes": [{"id": 0, "op": "const", "value": str(v0)}], "root": 0}
    res = run_cli(["equiv", "--seed", "5", "--trials", "4"], stdin=dumps({"a": leaf, "b": const}))
    assert res.code == 0
    assert res.out == dumps(
        {
            "ok": True,
            "verdict": "distinct",
            "trial": 1,
            "witness": {"1,1": str(v1)},
            "value_a": str(v1),
            "value_b": str(v0),
        }
    ) + "\n"


def test_equiv_circuit_vs_bouquet_equivalent_output():
    det = run_cli(["gen", "det", "--n", "3", "--sigma", "2,3,1"]).out
    bouquet = run_cli(["gen", "bouquet", "--n", "3", "--k", "3", "--seed", "2"]).out
    doc = dumps({"a": json.loads(bouquet), "b": json.loads(det)})
    res = run_cli(["equiv", "--seed", "6", "--trials", "5"], stdin=doc)
    assert res.code == 0
    assert res.out == dumps(
        {"ok": True, "verdict": "equivalent", "trials": 5, "prime": str(PRIME)}
    ) + "\n"


_B3 = seeded_det_bouquet(3, 3, 2)
_DET3 = {order: det_regular_circuit(3, order).circuit for order in ((1, 2, 3), (2, 3, 1), (3, 2, 1))}
# id -> (a, b, verdict) of an `smlc equiv` document
EQUIV = {
    "equivalent": (_B3, _DET3[2, 3, 1], "equivalent"),
    "distinct": (Bouquet(3, _B3.summands, -_B3.sign), _DET3[2, 3, 1], "distinct"),
    "two-det-orders": (_DET3[1, 2, 3], _DET3[3, 2, 1], "equivalent"),
    "det-vs-bouquet": (_DET3[1, 2, 3], seeded_det_bouquet(3, 2, 9), "equivalent"),
    # x[1,1] on one row against x[1,2] on two
    "x11-vs-x12": (Circuit(1, (VarLeaf(1, 1),), 0), Circuit(2, (VarLeaf(1, 2),), 0), "distinct"),
}


@pytest.mark.parametrize(("a", "b", "verdict"), EQUIV.values(), ids=EQUIV)
def test_equiv_writes_the_in_process_verdict(a, b, verdict):
    # `smlc equiv` writes `equiv_random`'s dict after "ok": true, whichever the verdict
    wire = [bouquet_to_obj(x) if isinstance(x, Bouquet) else circuit_to_obj(x) for x in (a, b)]
    res = run_cli(["equiv", "--seed", "6", "--trials", "5"], stdin=dumps(dict(zip("ab", wire))))
    assert res.code == 0
    written = json.loads(res.out)
    assert written.pop("ok") is True and written["verdict"] == verdict
    assert written == equiv_random(a, b, trials=5, seed=6)


def test_reverse_below_full_degree_exits_1():
    summand = {
        "sigma": [1, 2, 3],
        "circuit": {
            "n": 3,
            "nodes": [
                {"id": 0, "op": "var", "row": 1, "col": 1},
                {"id": 1, "op": "var", "row": 2, "col": 2},
                {"id": 2, "op": "mul", "left": 0, "right": 1},
            ],
            "root": 2,
        },
    }
    res = run_cli(["reverse"], stdin=dumps({"n": 3, "sign": 1, "summands": [summand]}))
    assert res.code == 1
    doc = json.loads(res.out)
    assert doc["ok"] is False
    assert doc["error"] == "RootNotPrefix"


def _var(vid, row):
    return {"id": vid, "op": "var", "row": row, "col": row}


def _gate(vid, op, left, right):
    return {"id": vid, "op": op, "left": left, "right": right}


# each circuit is checked against the order 1,2,3
IRREGULAR = {
    "wrong-adjacency": (
        [_var(0, 1), _var(1, 2), _gate(2, "mul", 1, 0), _var(3, 3), _gate(4, "mul", 2, 3)],
        "WrongAdjacency",
        "mul gate 2: children are adjacent but in right-before-left position order",
    ),
    "not-contiguous": (
        [_var(0, 1), _var(1, 3), _gate(2, "mul", 0, 1), _var(3, 2), _gate(4, "mul", 2, 3)],
        "NotContiguous",
        "gate 2: index set [1, 3] is not contiguous in the given order",
    ),
    # gate 2 breaks regularity, but the typing error at gate 6 is reported
    "typing-error-wins": (
        [
            _var(0, 1),
            _var(1, 2),
            _gate(2, "mul", 1, 0),
            _var(3, 3),
            _gate(4, "mul", 2, 3),
            _var(5, 1),
            _gate(6, "add", 4, 5),
        ],
        "AddMismatch",
        "add gate 6: children cover different index sets",
    ),
    # `gen det` circuits, regular for another order
    "det-2,3,1": (
        circuit_to_obj(det_regular_circuit(3, (2, 3, 1)).circuit)["nodes"],
        "WrongAdjacency",
        "mul gate 4: children are adjacent but in right-before-left position order",
    ),
    "det-1,3,2": (
        circuit_to_obj(det_regular_circuit(3, (1, 3, 2)).circuit)["nodes"],
        "NotContiguous",
        "gate 2: index set [1, 3] is not contiguous in the given order",
    ),
}


@pytest.mark.parametrize("verb", ["reduce", "check-regular"])
@pytest.mark.parametrize("case", sorted(IRREGULAR))
def test_irregular_summand_error_golden(case, verb):
    nodes, error, detail = IRREGULAR[case]
    circuit = {"n": 3, "nodes": nodes, "root": len(nodes) - 1}
    if verb == "reduce":
        bouquet = {"n": 3, "sign": 1, "summands": [{"sigma": [1, 2, 3], "circuit": circuit}]}
        res = run_cli(["reduce", "--verify", "off"], stdin=dumps(bouquet))
    else:
        res = run_cli(["check-regular", "--sigma", "1,2,3"], stdin=dumps(circuit))
    assert res.code == 1
    assert res.out == json.dumps({"ok": False, "error": error, "detail": detail}) + "\n"


def _det4_and_constants(order):
    """det_4 on the identity order plus the constants 5 and -5 on `order`."""
    constants = tuple(regular(Circuit(4, (ConstLeaf(v),), 0), order) for v in (5, -5))
    return Bouquet(4, det_bouquet(4, [(1, 2, 3, 4)], 0).summands + constants)


# det_4 and the constants 5 and -5 on one order sum to det_4, but the constants
# are below full degree: on the identity order they broke the merge, and on
# (2, 1, 4, 3) they drove a projection, so reduce refuses them either way
@pytest.mark.parametrize("order", [(1, 2, 3, 4), (2, 1, 4, 3)])
def test_reduce_refuses_a_summand_below_full_degree(order):
    bouquet = _det4_and_constants(order)
    detail = "summand 1 has degree 0 below n=4"
    with pytest.raises(ValueError, match=f"^{detail}$"):
        reduce_to_single(bouquet, verify="off")
    for verify in ("off", "random", "exact"):
        res = run_cli(["reduce", "--verify", verify], stdin=dumps(bouquet_to_obj(bouquet)))
        assert res.code == 1
        assert res.out == json.dumps({"ok": False, "error": "ValueError", "detail": detail}) + "\n"


# the same input on one order: merge names the summands it cannot join, not
# the addition gate a join would have built
def test_merge_refuses_a_summand_below_its_orders_degree():
    text = dumps(bouquet_to_obj(_det4_and_constants((1, 2, 3, 4))))
    detail = "summands 0 and 1 share an order but have degrees 4 and 0"
    res = run_cli(["merge"], stdin=text)
    assert res.code == 1
    assert res.out == json.dumps({"ok": False, "error": "DegreeMismatch", "detail": detail}) + "\n"
