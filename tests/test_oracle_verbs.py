"""The full stdout of `smlc stats`, `smlc check-regular` and `smlc validate`, byte for byte.

Each input is what `smlc gen det --n N --sigma ...` writes, in an order other
than the identity, plus one hand-written circuit with a constant node.  A
constant covers no position, so its interval is written as `null`.  The
three-row outputs are spelled out; the four-row ones, about a kilobyte each,
are pinned by the SHA-256 of the exact bytes.  The expected values are fixed
and are not regenerated by a change.
"""

import hashlib
import io

import pytest

from smlc import cli
from smlc.generators import det_regular_circuit
from smlc.serialize import circuit_to_obj, dumps

# -3 * x[2,1] * x[1,2], regular w.r.t. (2, 1)
CONSTANT_NODE = {
    "n": 2,
    "nodes": [
        {"id": 0, "op": "const", "value": "-3"},
        {"id": 1, "op": "var", "row": 2, "col": 1},
        {"id": 2, "op": "mul", "left": 0, "right": 1},
        {"id": 3, "op": "var", "row": 1, "col": 2},
        {"id": 4, "op": "mul", "left": 2, "right": 3},
    ],
    "root": 4,
}

# (source, verb) -> stdout; a source is the order of a `gen det` circuit, or "constant"
STDOUT = {
    ((2, 1), "stats"): '{"degree":2,"depth":3,"gates":4,"ok":true,"size":9}\n',
    ((2, 1), "validate"): (
        '{"index_sets":[[2],[1],[1,2],[2],[1],[1,2],[],[1,2],[1,2]],"n":2,"ok":true}\n'
    ),
    ((2, 1), "check-regular"): (
        '{"intervals":[[1,1],[2,1],[1,2],[1,1],[2,1],[1,2],null,[1,2],[1,2]],'
        '"ok":true,"sigma":[2,1]}\n'
    ),
    ((3, 1, 2), "stats"): '{"degree":3,"depth":8,"gates":20,"ok":true,"size":30}\n',
    ((3, 1, 2), "validate"): (
        '{"index_sets":[[3],[1],[1,3],[2],[1,2,3],[3],[1,3],[2],[1,2,3],[],[1,2,3],'
        "[1,2,3],[1],[1,3],[2],[1,2,3],[1,2,3],[1,2,3],[3],[1,3],[1,2,3],[1,2,3],[1],"
        '[1,3],[1,2,3],[1,2,3],[1,3],[1,2,3],[1,2,3],[1,2,3]],"n":3,"ok":true}\n'
    ),
    ((3, 1, 2), "check-regular"): (
        '{"intervals":[[1,1],[2,1],[1,2],[3,1],[1,3],[1,1],[1,2],[3,1],[1,3],null,'
        "[1,3],[1,3],[2,1],[1,2],[3,1],[1,3],[1,3],[1,3],[1,1],[1,2],[1,3],[1,3],[2,1],"
        '[1,2],[1,3],[1,3],[1,2],[1,3],[1,3],[1,3]],"ok":true,"sigma":[3,1,2]}\n'
    ),
    ((2, 3, 1), "stats"): '{"degree":3,"depth":8,"gates":20,"ok":true,"size":30}\n',
    ((2, 3, 1), "validate"): (
        '{"index_sets":[[2],[3],[2,3],[1],[1,2,3],[2],[3],[2,3],[1,2,3],[],[1,2,3],'
        "[1,2,3],[2],[2,3],[1],[1,2,3],[1,2,3],[1,2,3],[3],[2,3],[1,2,3],[1,2,3],[2,3],"
        '[1],[1,2,3],[1,2,3],[2,3],[1,2,3],[1,2,3],[1,2,3]],"n":3,"ok":true}\n'
    ),
    ((2, 3, 1), "check-regular"): (
        '{"intervals":[[1,1],[2,1],[1,2],[3,1],[1,3],[1,1],[2,1],[1,2],[1,3],null,'
        "[1,3],[1,3],[1,1],[1,2],[3,1],[1,3],[1,3],[1,3],[2,1],[1,2],[1,3],[1,3],[1,2],"
        '[3,1],[1,3],[1,3],[1,2],[1,3],[1,3],[1,3]],"ok":true,"sigma":[2,3,1]}\n'
    ),
    ((1, 3, 4, 2), "stats"): '{"degree":4,"depth":27,"gates":107,"ok":true,"size":124}\n',
    ((4, 2, 3, 1), "stats"): '{"degree":4,"depth":27,"gates":107,"ok":true,"size":124}\n',
    ("constant", "stats"): '{"degree":2,"depth":2,"gates":2,"ok":true,"size":5}\n',
    ("constant", "validate"): '{"index_sets":[[],[2],[2],[1],[1,2]],"n":2,"ok":true}\n',
    ("constant", "check-regular"): (
        '{"intervals":[null,[1,1],[1,1],[2,1],[1,2]],"ok":true,"sigma":[2,1]}\n'
    ),
}

# (order, verb) -> SHA-256 of stdout
DIGESTS = {
    ((1, 3, 4, 2), "validate"): "85726fe0623a94a099fa4c216d76a1027f6e8dde89e149dc41b60b9827c7f9e1",
    ((1, 3, 4, 2), "check-regular"): "7a913279fe292e1722de2afc128a1e1385ed6b283bf0fc3b49cdbff31b4e72db",
    ((4, 2, 3, 1), "validate"): "fa25153746b9502ff76e15a21c6159777c702aa3b1886a0b06cc079eeef289b7",
    ((4, 2, 3, 1), "check-regular"): "bc268b5236f8b949dedb8dd8e75303c4632745f029b372caeeb2c55bad3446cf",
}


def _stdout(source, verb, monkeypatch, capsys):
    if source == "constant":
        doc, sigma = CONSTANT_NODE, (2, 1)
    else:
        doc, sigma = circuit_to_obj(det_regular_circuit(len(source), source).circuit), source
    args = [verb, "--sigma", ",".join(map(str, sigma))] if verb == "check-regular" else [verb]
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(doc)))
    assert cli.main(args) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


@pytest.mark.parametrize(("source", "verb"), list(STDOUT))
def test_oracle_verb_stdout_is_pinned(source, verb, monkeypatch, capsys):
    assert _stdout(source, verb, monkeypatch, capsys) == STDOUT[source, verb]


@pytest.mark.parametrize(("source", "verb"), list(DIGESTS))
def test_oracle_verb_stdout_digest_is_pinned(source, verb, monkeypatch, capsys):
    got = _stdout(source, verb, monkeypatch, capsys).encode()
    assert hashlib.sha256(got).hexdigest() == DIGESTS[source, verb]
