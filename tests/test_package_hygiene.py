"""Package hygiene, read off the source with `ast`: every name a module
exports exists, every exported function has a caller outside its module, no
module keeps an import it does not use, no private top-level helper outlives
its last caller, text becomes an int only through `circuit.decimal`, and a
value counts as an int only by `circuit._is_int`.

Deleting a type or a helper tends to leave an `__all__` entry, an import or
the helper it called behind, and deleting the last caller of a function
leaves its export behind; these checks catch all four.  The package is the
tool, not its test kit: every public function has a caller in the package
or the benchmark, and one that only the tests call lives under `tests/`.  Every name has one
spelling, in its submodule: `__init__.py` is its docstring alone, and the
tests and the benchmark import from the top-level package only submodules.
Each test-side helper is defined once: one that two test modules use lives
in `tests/recheck.py`, no test module imports another, and no two top-level
functions under `tests/` have the same body.  No comparison there has the
same expression on both sides, and no `pytest.raises` takes `Exception` or
`BaseException`: either checks nothing.  No `+` in the package or in
`tests/recheck.py` has a node array (`.op`, `.a` or `.b`) as an operand:
those are bytes or int32 arrays, or tuples where a value does not pack, and
adding one form to another raises only on such rare inputs.  Every `array`
or `bytearray` call in the package is in `circuit`, the one module that lays
out node storage, and every `array` call names its typecode as
`circuit._OPERANDS`, never by a literal, so the packed form is defined in one
place and every operand array can extend another.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smlc"
MODULES = sorted(PACKAGE.glob("*.py"))


@functools.cache
def _tree(path):
    # parsed once per test run: the checks only read the trees
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize(
    "path", [path for path in MODULES if _exports(_tree(path))], ids=lambda path: path.name
)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(f"smlc.{path.stem}")
    missing = [name for name in _exports(_tree(path)) if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names {missing} that do not exist"


def test_package_init_is_its_docstring():
    body = _tree(PACKAGE / "__init__.py").body
    assert len(body) == 1 and isinstance(body[0], ast.Expr), "__init__.py binds names"
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_tests_and_benchmark_import_only_submodules_from_the_package():
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
        for root in ("tests", "perfbench")
        for path in (ROOT / root).rglob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module == "smlc" and not node.level
        for alias in node.names
        if not (PACKAGE / f"{alias.name}.py").exists()
    ]
    assert not offenders, f"names imported from smlc rather than its submodules: {offenders}"


def _referenced(tree):
    # names read, and attributes looked up, anywhere in the tree
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller_outside_its_module():
    # searched: the package's other modules, the tests and the benchmark
    sources = [path for root in ("src", "tests", "perfbench") for path in (ROOT / root).rglob("*.py")]
    references = {path: _referenced(_tree(path)) for path in sources}
    stale = []
    for path in MODULES:
        tree = _tree(path)
        exported = set(_exports(tree))
        outside = set().union(*(names for other, names in references.items() if other != path))
        stale += [
            f"{path.name}: {node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported - outside
        ]
    assert not stale, f"exported functions nothing outside their module calls: {stale}"


# public functions that only the tests call for now, each until the ROADMAP item named lands
AWAITING_A_TOOL_CALLER = {
    "dp_det_bouquet",  # item 14's `gen bouquet --dp` and item 8's benchmark workload
    "reference_perm",  # item 2's permanent oracle
}


def test_every_public_function_serves_the_tool():
    # searched: the package and the benchmark, not the tests; the benchmark's
    # strings count too, because perfbench/tracing.py looks up its LAYERS by name
    used = set().union(*(_referenced(_tree(path)) for path in MODULES))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = _tree(path)
        used |= _referenced(tree)
        used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    unused = {
        node.name: path.name
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_" and node.name not in used
    }
    test_only = sorted(f"{unused[name]}: {name}" for name in unused.keys() - AWAITING_A_TOOL_CALLER)
    assert not test_only, f"public functions that only the tests call: {test_only}"
    served = sorted(AWAITING_A_TOOL_CALLER - unused.keys())
    assert not served, f"allowlisted functions that now have a caller in the tool: {served}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    tree = _tree(path)
    imported = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree):
    # top-level functions, classes and assignments named _x (dunders aside)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno


def test_every_private_helper_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    dead = sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    )
    assert not dead, f"private helpers nothing in the package uses: {dead}"


def test_one_integer_rule_for_text():
    # `circuit.decimal` is the one text-to-int rule: no other call of the
    # builtin int, and no argparse option typed `int`
    offenders = []
    for path in MODULES:
        tree = _tree(path)
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "circuit.py" and isinstance(fn, ast.FunctionDef) and fn.name == "decimal"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "int":
                offenders.append(f"{path.name}:{node.lineno}: int()")
            if isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
                for kw in node.keywords:
                    if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int":
                        offenders.append(f"{path.name}:{node.lineno}: add_argument(type=int)")
    assert not offenders, f"integers parsed outside circuit.decimal: {offenders}"


def test_one_value_rule():
    # `circuit._is_int` (exactly an int) is the one value rule: no
    # isinstance(..., int) or isinstance(..., bool), alone or in a tuple
    offenders = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id != "isinstance" or len(node.args) != 2:
                continue
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(kind, ast.Name) and kind.id in ("int", "bool") for kind in kinds):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"isinstance checks for int or bool outside circuit._is_int: {offenders}"


def _body_without_docstring(fn):
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return body


def test_no_two_test_functions_share_a_body():
    # bodies of 3 or more statements, compared as ASTs (comments and layout aside)
    first = {}
    copies = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = _body_without_docstring(node)
            if len(body) < 3:
                continue
            key = ast.dump(ast.Module(body=body, type_ignores=[]))
            where = f"{path.name}: {node.name}"
            if key in first:
                copies.append(f"{where} repeats {first[key]}")
            first.setdefault(key, where)
    assert not copies, f"functions with the same body: {copies}"


def test_no_comparison_of_an_expression_with_itself():
    # `x == x` holds for any x that compares at all, so it checks nothing
    same = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "tests").rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Compare)
        for left, right in zip([node.left, *node.comparators], node.comparators)
        if ast.dump(left) == ast.dump(right)
    ]
    assert not same, f"comparisons of an expression with itself: {same}"


def test_no_test_module_imports_another():
    # what two test modules share lives in recheck.py
    imports = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(_tree(path))
        for name in (
            [node.module or ""] if isinstance(node, ast.ImportFrom)
            else [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else []
        )
        if name.startswith("test_")
    ]
    assert not imports, f"test modules imported by another: {imports}"


def test_no_check_accepts_any_error():
    # pytest.raises(Exception) passes on any error, a broken helper's IndexError included
    broad = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises" and node.args
        and ast.unparse(node.args[0]) in ("Exception", "BaseException")
    ]
    assert not broad, f"pytest.raises of any error: {broad}"


def test_no_node_array_is_concatenated_with_plus():
    # join node arrays by building lists (`[*x.op, *y.op]`) that `Nodes` packs
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in [*MODULES, ROOT / "tests" / "recheck.py"]
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Add)
        for side in ((node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value))
        if isinstance(side, ast.Attribute) and side.attr in ("op", "a", "b")
    ]
    assert not offenders, f"node arrays joined with +: {offenders}"


def test_every_operand_array_takes_the_one_typecode():
    # `array.extend` refuses an array of another typecode, so a site with its
    # own would break the passes' copies only when its array met another; and
    # a module that makes its own node fields lays out node storage outside `circuit`
    calls = [
        (path.name, node)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("array", "array.array", "bytearray")
    ]
    outside = [f"{name}:{node.lineno}" for name, node in calls if name != "circuit.py"]
    assert not outside, f"array or bytearray calls outside circuit.py: {outside}"
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if ast.unparse(node.func) != "bytearray" and not (node.args and ast.unparse(node.args[0]) == "_OPERANDS")
    ]
    assert not offenders, f"array calls with a typecode other than circuit._OPERANDS: {offenders}"
