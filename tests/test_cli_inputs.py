"""CLI verbs reject ill-typed input documents with the usual exit codes."""

import io
import json

import pytest

from smlc import cli
from smlc.serialize import dumps


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
