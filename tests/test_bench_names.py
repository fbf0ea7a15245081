"""Every smlc name the benchmark harness in perfbench/ reaches still exists,
and the reduction's result still has the shape the harness reads off it.

The harness is not part of tier-1, so without this a deletion in the package
or a change to the reduction record would surface only when
`perfbench/run.py` runs (`--trace 1` looks up each traced function with
getattr).  This file only reads perfbench/.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from smlc.circuit import Circuit
from smlc.generators import det_bouquet
from smlc.pipeline import reduce_to_single
from smlc.poly import expand, reference_det
from smlc.serialize import dumps, loads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS_FILES = ("run.py", "test_perfbench.py")


def _resolve(module_name, name):
    # `from module import name`: an attribute, or else a submodule
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines tables and classes, nothing else
    assert tracing.LAYERS
    for layer, names in tracing.LAYERS.items():
        home = importlib.import_module(f"smlc.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"smlc.{layer}.{name}"


@pytest.mark.parametrize("filename", HARNESS_FILES)
def test_harness_imports_resolve(filename):
    tree = ast.parse((PERFBENCH / filename).read_text())
    modules = {}  # local name -> smlc module imported under it
    used = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "smlc":
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                used += 1
                if isinstance(value, type(ast)):
                    modules[alias.asname or alias.name] = value
    assert used, f"{filename} imports nothing from smlc"
    # attributes read off an imported module, e.g. `serialize.dumps`
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"


@pytest.mark.parametrize("verify", ["off", "random", "exact"])
def test_reduction_result_has_the_shape_the_harness_reads(verify):
    # run.py keeps (single.circuit, transcript.to_obj()), reads "ok" off each
    # verdict dict and checks the circuit against the determinant of
    # "final_degree"; tracing.py counts len(transcript.steps)
    bouquet = det_bouquet(4, [(1, 2, 3, 4), (3, 1, 4, 2), (2, 4, 1, 3)], seed=5)
    single, transcript = reduce_to_single(bouquet, verify=verify, seed=1, trials=2)
    obj = transcript.to_obj()
    assert isinstance(single.circuit, Circuit)
    assert obj["verdicts"] and all(type(v) is dict for v in obj["verdicts"])
    assert all(v["ok"] is (None if verify == "off" else True) for v in obj["verdicts"])
    degree = obj["final_degree"]
    assert type(degree) is int and degree == single.circuit.n
    assert expand(single.circuit).terms == reference_det(degree).terms
    assert len(transcript.steps) == len(obj["steps"]) >= 1
    assert loads(dumps(obj)) == obj  # the harness compares records by their JSON
