"""Every smlc name the benchmark harness in perfbench/ reaches still exists.

The harness is not part of tier-1, so without this a deletion in the package
would surface only when `perfbench/run.py` runs (`--trace 1` looks up each
traced function with getattr).  This file only reads perfbench/.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
