"""CLI surface: pipes, exit codes, and agreement with in-process calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smlc.generators import det_bouquet, det_regular_circuit, seeded_det_bouquet
from smlc.passes import compose, project
from smlc.pipeline import reduce_to_single
from smlc.poly import PRIME, expand, expand_bouquet, poly_to_text, reference_det, trial_point
from smlc.serialize import (
    bouquet_from_obj,
    bouquet_to_obj,
    circuit_from_obj,
    circuit_to_obj,
    dumps,
)

from test_poly import over_budget_circuit


# the child `python -m smlc` imports the package from this checkout's src,
# installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def run(args, stdin="", timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "smlc", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=timeout,
    )


def test_gen_det_expand_golden():
    gen = run(["gen", "det", "--n", "2", "--sigma", "1,2"])
    assert gen.returncode == 0
    out = run(["expand"], stdin=gen.stdout)
    assert out.returncode == 0
    assert out.stdout.rstrip("\n") == "1 x[1,1] x[2,2]\n-1 x[1,2] x[2,1]"


def test_gen_bouquet_with_one_term_per_order_ends():
    # 24 orders share the 4! terms: redrawing until no bucket is empty takes ~2e9 draws
    gen = run(["gen", "bouquet", "--n", "4", "--k", "24", "--seed", "1"], timeout=60)
    assert gen.returncode == 0
    bouquet = bouquet_from_obj(json.loads(gen.stdout))
    assert len(bouquet.summands) == 24
    assert expand_bouquet(bouquet).terms == reference_det(4).terms


def test_gen_det_stats():
    gen = run(["gen", "det", "--n", "3"])
    st = run(["stats"], stdin=gen.stdout)
    doc = json.loads(st.stdout)
    assert doc["ok"] is True
    assert doc["degree"] == 3


def test_validate_reports_index_sets():
    gen = run(["gen", "det", "--n", "2"])
    out = run(["validate"], stdin=gen.stdout)
    doc = json.loads(out.stdout)
    assert doc["ok"] is True
    assert doc["index_sets"][-1] == [1, 2]


def test_check_regular_mismatch_exits_1():
    gen = run(["gen", "det", "--n", "2", "--sigma", "1,2"])
    ok = run(["check-regular", "--sigma", "1,2"], stdin=gen.stdout)
    assert ok.returncode == 0
    bad = run(["check-regular", "--sigma", "2,1"], stdin=gen.stdout)
    assert bad.returncode == 1
    doc = json.loads(bad.stdout)
    assert doc["ok"] is False
    assert doc["error"] in ("NotContiguous", "WrongAdjacency")


def test_gen_bouquet_reduce_exact():
    gen = run(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "7"])
    assert gen.returncode == 0
    red = run(["reduce", "--verify", "exact", "--seed", "7"], stdin=gen.stdout)
    assert red.returncode == 0
    circuit = circuit_from_obj(json.loads(red.stdout))
    assert expand(circuit).terms == reference_det(circuit.n).terms


def test_reduce_emits_transcript(tmp_path):
    gen = run(["gen", "bouquet", "--n", "4", "--k", "2", "--seed", "3"])
    path = tmp_path / "transcript.json"
    red = run(
        ["reduce", "--verify", "exact", "--seed", "3", "--emit-transcript", str(path)],
        stdin=gen.stdout,
    )
    assert red.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["config"]["verify"] == "exact"
    assert doc["final_degree"] >= 2
    for step in doc["steps"]:
        assert set(step) == {
            "iteration",
            "tau_applied",
            "summand_reversed",
            "subsequence",
            "kept_indices",
            "sizes_before_after",
            "k_before_after",
        }


@pytest.mark.parametrize("verify", ["off", "random", "exact"])
def test_emitted_transcript_is_the_in_process_record(tmp_path, verify):
    gen = run(["gen", "bouquet", "--n", "5", "--k", "3", "--seed", "11"])
    path = tmp_path / "transcript.json"
    red = run(
        ["reduce", "--verify", verify, "--seed", "4", "--trials", "3", "--emit-transcript", str(path)],
        stdin=gen.stdout,
    )
    assert red.returncode == 0
    bouquet = bouquet_from_obj(json.loads(gen.stdout))
    single, transcript = reduce_to_single(bouquet, verify=verify, seed=4, trials=3)
    assert transcript.steps  # the record covers at least one step
    assert path.read_text() == dumps(transcript.to_obj()) + "\n"
    assert red.stdout == dumps(circuit_to_obj(single.circuit)) + "\n"


@pytest.mark.parametrize("args", [["gen", "det", "--n", "7"], ["reverse"]], ids=" ".join)
def test_closed_stdout_exits_141_quietly(args, tmp_path):
    # both outputs outgrow a pipe's buffer, so the write itself meets the closed pipe
    source = tmp_path / "b.json"
    source.write_text(dumps(bouquet_to_obj(seeded_det_bouquet(6, 2, 1))) + "\n")
    with source.open() as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "smlc", *args],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert (code, stderr) == (141, "")


def test_reduce_transcript_path_that_cannot_be_written_exits_2(tmp_path):
    gen = run(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "7"])
    path = tmp_path / "missing" / "transcript.json"
    red = run(["reduce", "--verify", "off", "--emit-transcript", str(path)], stdin=gen.stdout)
    assert red.returncode == 2
    assert red.stderr == ""
    (line,) = red.stdout.splitlines()
    assert json.loads(line)["error"] == "FileNotFoundError"


def test_reduce_verification_failure_exits_3(tmp_path):
    # a bouquet whose lone summand is a bare product, not a determinant
    doc = {
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
    path = tmp_path / "transcript.json"
    red = run(
        ["reduce", "--verify", "exact", "--seed", "0", "--emit-transcript", str(path)],
        stdin=dumps(doc),
    )
    assert red.returncode == 3
    assert json.loads(red.stdout)["error"] == "VerificationFailed"
    assert not path.exists()  # a failed reduction writes no transcript


def test_reduce_verify_random_via_cli():
    gen = run(["gen", "bouquet", "--n", "4", "--k", "2", "--seed", "21"])
    red = run(["reduce", "--verify", "random", "--seed", "21", "--trials", "6"], stdin=gen.stdout)
    assert red.returncode == 0
    circuit = circuit_from_obj(json.loads(red.stdout))
    assert expand(circuit).terms == reference_det(circuit.n).terms


def test_parse_error_exits_2():
    nested = "[" * 3000 + "]" * 3000  # deeper than the JSON decoder recurses
    cases = [("stats", "this is not json")] + [(verb, nested) for verb in ("validate", "reduce", "expand")]
    for verb, text in cases:
        out = run([verb], stdin=text)
        assert out.returncode == 2, verb
        (line,) = out.stdout.splitlines()
        assert json.loads(line)["ok"] is False
        assert json.loads(line)["error"] == "ParseError"


def test_unknown_flag_rejected():
    out = run(["merge", "--frobnicate"], stdin="{}")
    assert out.returncode == 2


def test_domain_error_exits_1():
    out = run(["gen", "det", "--n", "9"])
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"] == "TooLarge"


def test_compose_tau_of_wrong_length_exits_1():
    blob = dumps(bouquet_to_obj(det_bouquet(3, [(1, 2, 3), (3, 1, 2)], seed=1)))
    out = run(["compose", "--tau", "1,2,3,4"], stdin=blob)
    assert out.returncode == 1
    assert json.loads(out.stdout) == {
        "ok": False,
        "error": "NotAPermutation",
        "detail": "(1, 2, 3, 4) is not a permutation of [1..3]",
    }


def test_reduce_has_no_term_budget():
    # the exact tier cannot reach a term budget, so reduce takes none
    blob = dumps(bouquet_to_obj(det_bouquet(3, [(1, 2, 3), (3, 1, 2)], seed=1)))
    out = run(["reduce", "--term-budget", "3"], stdin=blob)
    assert out.returncode == 2


def test_expand_budget_exceeded_exits_1():
    out = run(["expand"], stdin=dumps(circuit_to_obj(over_budget_circuit())))
    assert out.returncode == 1
    assert json.loads(out.stdout) == {
        "ok": False,
        "error": "BudgetExceeded",
        "detail": "product of 1331 x 1331 terms exceeds budget 1000000",
    }


def test_expand_has_no_term_budget():
    # the budget is the fixed poly.TERM_BUDGET, so expand takes none
    blob = dumps(circuit_to_obj(det_regular_circuit(2, (1, 2)).circuit))
    out = run(["expand", "--term-budget", "3"], stdin=blob)
    assert out.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "det", "--n", "0"],
        ["gen", "bouquet", "--n", "0", "--k", "1", "--seed", "1"],
        ["gen", "bouquet", "--n", "2", "--k", "0", "--seed", "1"],
    ],
)
def test_gen_degenerate_sizes_exit_1(args):
    out = run(args)
    assert out.returncode == 1
    assert json.loads(out.stdout)["error"] == "ValueError"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "det", "--n", "-2"],
        ["gen", "bouquet", "--n", "-1", "--k", "1", "--seed", "1"],
    ],
)
def test_gen_negative_n_names_the_guard(args):
    out = run(args)
    assert out.returncode == 1
    assert json.loads(out.stdout) == {
        "ok": False,
        "error": "ValueError",
        "detail": "n must be >= 1",
    }


@pytest.mark.parametrize("sign", [1.0, True])
def test_non_integer_bouquet_sign_exits_2(sign):
    det = json.loads(run(["gen", "det", "--n", "3"]).stdout)
    bouquet = json.loads(run(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "1"]).stdout)
    bouquet["sign"] = sign
    out = run(["equiv", "--seed", "1"], stdin=json.dumps({"a": det, "b": bouquet}))
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"] == "ParseError"


def test_cli_pipeline_agrees_with_in_process():
    b = det_bouquet(4, [(1, 2, 3, 4), (3, 1, 4, 2)], seed=5)
    blob = dumps(bouquet_to_obj(b))

    via_cli = run(["compose", "--tau", "2,1,3,4"], stdin=blob)
    assert via_cli.returncode == 0
    via_api = compose(b, (2, 1, 3, 4))
    assert bouquet_from_obj(json.loads(via_cli.stdout)) == via_api

    projected = run(["project", "--keep", "1,3"], stdin=via_cli.stdout)
    assert projected.returncode == 0
    assert bouquet_from_obj(json.loads(projected.stdout)) == project(via_api, (1, 3))

    text = run(["expand"], stdin=projected.stdout)
    assert text.stdout.rstrip("\n") == poly_to_text(expand_bouquet(project(via_api, (1, 3))))


def test_reverse_merge_droplast_round_trip():
    b = det_bouquet(3, [(1, 2, 3), (3, 2, 1)], seed=6)
    blob = dumps(bouquet_to_obj(b))
    rev = run(["reverse"], stdin=blob)
    assert rev.returncode == 0
    rev_b = bouquet_from_obj(json.loads(rev.stdout))
    assert expand_bouquet(rev_b).terms == reference_det(3).terms

    merged = run(["merge"], stdin=rev.stdout)
    assert merged.returncode == 0

    dropped = run(["droplast"], stdin=merged.stdout)
    assert dropped.returncode == 0
    out_b = bouquet_from_obj(json.loads(dropped.stdout))
    assert expand_bouquet(out_b).terms == reference_det(2).terms


def test_eval_deterministic_per_seed():
    gen = run(["gen", "det", "--n", "3"])
    a = run(["eval", "--seed", "12"], stdin=gen.stdout)
    b = run(["eval", "--seed", "12"], stdin=gen.stdout)
    c = run(["eval", "--seed", "13"], stdin=gen.stdout)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_equiv_verdicts():
    det_a = run(["gen", "det", "--n", "3", "--sigma", "1,2,3"]).stdout
    det_b = run(["gen", "det", "--n", "3", "--sigma", "3,2,1"]).stdout
    doc = dumps({"a": json.loads(det_a), "b": json.loads(det_b)})
    out = run(["equiv", "--seed", "4", "--trials", "8"], stdin=doc)
    assert json.loads(out.stdout)["verdict"] == "equivalent"

    bouquet = run(["gen", "bouquet", "--n", "3", "--k", "2", "--seed", "9"]).stdout
    doc2 = dumps({"a": json.loads(det_a), "b": json.loads(bouquet)})
    out2 = run(["equiv", "--seed", "4", "--trials", "8"], stdin=doc2)
    assert json.loads(out2.stdout)["verdict"] == "equivalent"

    # x[1,1] vs x[1,2] must separate
    leaf = {"n": 1, "nodes": [{"id": 0, "op": "var", "row": 1, "col": 1}], "root": 0}
    doc3 = dumps({"a": leaf, "b": {"n": 2, "nodes": [{"id": 0, "op": "var", "row": 1, "col": 2}], "root": 0}})
    out3 = run(["equiv", "--seed", "4", "--trials", "8"], stdin=doc3)
    assert json.loads(out3.stdout)["verdict"] == "distinct"


def test_equiv_distinct_reports_first_separating_trial():
    # b is x[1,1]'s trial-0 value as a constant, so the documents agree at
    # trial 0 and first separate at trial 1
    v0 = trial_point({(1, 1)}, 5, 0)[(1, 1)]
    v1 = trial_point({(1, 1)}, 5, 1)[(1, 1)]
    leaf = {"n": 1, "nodes": [{"id": 0, "op": "var", "row": 1, "col": 1}], "root": 0}
    const = {"n": 1, "nodes": [{"id": 0, "op": "const", "value": str(v0)}], "root": 0}
    out = run(["equiv", "--seed", "5", "--trials", "4"], stdin=dumps({"a": leaf, "b": const}))
    assert out.returncode == 0
    assert out.stdout == dumps(
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
    det = run(["gen", "det", "--n", "3", "--sigma", "2,3,1"]).stdout
    bouquet = run(["gen", "bouquet", "--n", "3", "--k", "3", "--seed", "2"]).stdout
    doc = dumps({"a": json.loads(bouquet), "b": json.loads(det)})
    out = run(["equiv", "--seed", "6", "--trials", "5"], stdin=doc)
    assert out.returncode == 0
    assert out.stdout == dumps(
        {"ok": True, "verdict": "equivalent", "trials": 5, "prime": str(PRIME)}
    ) + "\n"


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
    out = run(["reverse"], stdin=dumps({"n": 3, "sign": 1, "summands": [summand]}))
    assert out.returncode == 1
    doc = json.loads(out.stdout)
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
}


@pytest.mark.parametrize("verb", ["reduce", "check-regular"])
@pytest.mark.parametrize("case", sorted(IRREGULAR))
def test_irregular_summand_error_golden(case, verb):
    nodes, error, detail = IRREGULAR[case]
    circuit = {"n": 3, "nodes": nodes, "root": len(nodes) - 1}
    if verb == "reduce":
        bouquet = {"n": 3, "sign": 1, "summands": [{"sigma": [1, 2, 3], "circuit": circuit}]}
        out = run(["reduce", "--verify", "off"], stdin=dumps(bouquet))
    else:
        out = run(["check-regular", "--sigma", "1,2,3"], stdin=dumps(circuit))
    assert out.returncode == 1
    assert out.stdout == json.dumps({"ok": False, "error": error, "detail": detail}) + "\n"


def test_byte_stable_outputs():
    a = run(["gen", "bouquet", "--n", "4", "--k", "3", "--seed", "99"])
    b = run(["gen", "bouquet", "--n", "4", "--k", "3", "--seed", "99"])
    assert a.stdout == b.stdout
