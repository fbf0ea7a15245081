"""Tests of the benchmark itself, in smoke mode.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

from smlc.circuit import Circuit, ConstLeaf  # noqa: E402
from smlc.generators import det_regular_circuit  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_spec_names_the_benchmarks_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    got = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert "negative_control                         rejected" in got.stdout


def test_checker_accepts_the_determinant_and_rejects_corruptions():
    det = det_regular_circuit(3, (2, 3, 1)).circuit
    assert run.oracle_error(det, 3) is None
    assert run.oracle_error(run.transpose_rows(det), 3) is not None
    assert run.oracle_error(Circuit(3, (ConstLeaf(1),), 0), 3) == "output is constant"
    assert run.oracle_error(det, 2) is not None


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = _bench(tmp_path, "--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert got.returncode != 0
    assert not any(line.startswith("{") for line in got.stdout.splitlines())
