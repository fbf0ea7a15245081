"""Line and branch trace of the test suite over `src/smlc`, with no dependency.

    python tests/linetrace.py [pytest arguments]

runs `pytest.main` (by default `-q` on this checkout's `tests/`) under a
`sys.settrace` hook that records, in each frame of a `src/smlc` module, every
line that runs and the line that runs next.  It then prints, read off the
source with `ast`:

- each statement none of whose lines ran, by its first line;
- each `if` or `while` (a constant test aside) whose body, or whose other
  side, never ran after its test.  The body ran if a line of its first
  statement came right after a line of the test; the other side ran if any
  other line came next, or the frame returned.

Only this process is traced, so code that runs only in a child process
(`python -m smlc`) shows as never run.  The trace slows the suite several
times over and its records take memory, so a test with a time budget or a
memory bound may fail under it.  This is a report, not a gate: it prints the gaps whatever the tests do, and exits with
pytest's status.  The file name keeps pytest from collecting it.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smlc"


def _tracer(files):
    # (trace function, lines ran per file, (line, next line or 0) arcs per file)
    ran = {path: set() for path in files}
    arcs = {path: set() for path in files}
    owner = {}  # co_filename -> traced path, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            real = os.path.realpath(name)
            owner[name] = real if real in ran else None
        path = owner[name]
        if path is None:
            return None
        lines, steps = ran[path], arcs[path]
        prev = None

        def on_event(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = frame.f_lineno
                lines.add(line)
                if prev is not None:
                    steps.add((prev, line))
                prev = line
            elif event == "return" and prev is not None:
                steps.add((prev, 0))
            elif event == "exception":  # a raise is no branch taken
                prev = None
            return on_event

        return on_event

    return on_call, ran, arcs


def _span(node):
    # the lines of a statement, decorators included
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return range(start, node.end_lineno + 1)


def _gaps(tree, ran, arcs):
    # (line, what never ran) for every unrun statement and branch side
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring runs no code
        if not ran.intersection(_span(node)):
            yield node.lineno, "never ran"
            continue
        if not isinstance(node, (ast.If, ast.While)) or isinstance(node.test, ast.Constant):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = _span(node.body[0])
        if body.start in test:
            continue  # a body on the test's line cannot be told apart by lines
        after = {line for prev, line in arcs if prev in test and line not in test}
        if not after.intersection(body):
            yield node.lineno, "body never ran"
        if not after.difference(body):
            yield node.lineno, "other side never ran"


def main(argv):
    files = sorted(str(path.resolve()) for path in PACKAGE.glob("*.py"))
    on_call, ran, arcs = _tracer(files)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    count = 0
    for path in files:
        source = Path(path).read_text().splitlines()
        tree = ast.parse("\n".join(source), filename=path)
        for line, what in sorted(set(_gaps(tree, ran[path], arcs[path]))):
            print(f"{Path(path).relative_to(ROOT)}:{line}: {what}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} gaps in-process")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
