"""The statements of `src/pcfcolor` that a pytest selection never runs.

A line tracer on `sys.settrace`, with no dependency: it follows only the
frames of the package's own files and records each line they run.  The
statements are read off each file's syntax tree, leaving out those that
compile to no code (docstrings, bare annotations); a statement counts as
run when its first line ran.  Run from the repository root, with
pytest's arguments:

    python tools/line_coverage.py tests/test_solver.py -k chain

It prints each statement never run as `path:line  function  source`,
where the function is the outermost function or method around it (blank
at module level), then their number, and exits with pytest's status.
Tracing makes the selection run several times slower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pcfcolor"


def trace(run) -> "set[tuple[str, int]]":
    """Call `run()` with the tracer on: the `(path, line)` pairs run in the
    package's files, each path resolved as `SRC`'s files are."""
    prefix = str(SRC) + os.sep
    inside: dict[str, "str | None"] = {}  # a code object's file name -> its resolved path, or None
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.realpath(name)
            inside[name] = path if path.startswith(prefix) else None
        return None if inside[name] is None else local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def statements(path) -> "dict[int, tuple[str, ast.stmt]]":
    """Each statement of the file at `path` that compiles to code, by its
    first line: the name of the outermost function or method around it (""
    at module level, `Class` or `Class.method` in a class) and the
    statement itself."""
    source = Path(path).read_text()
    code = set()  # the lines that compile to some instruction
    todo = [compile(source, str(path), "exec")]
    while todo:
        co = todo.pop()
        code.update(line for _, _, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    found: dict[int, tuple[str, ast.stmt]] = {}

    def visit(node, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                continue
            docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            if child.lineno in code and not docstring:
                found.setdefault(child.lineno, (owner, child))
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (f"{owner}.{child.name}" if owner and isinstance(node, ast.ClassDef)
                         else owner or child.name)
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def unrun(ran, path) -> "list[tuple[int, str, ast.stmt]]":
    """`(line, function, statement)` for each statement of the file at
    `path` whose first line is not among the `(path, line)` pairs `ran`."""
    resolved = os.path.realpath(path)
    return [(line, owner, stmt) for line, (owner, stmt) in sorted(statements(path).items())
            if (resolved, line) not in ran]


def main(argv=None) -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))  # this tree's package, imported under the tracer
    status = []
    ran = trace(lambda: status.append(pytest.main(list(sys.argv[1:] if argv is None else argv))))
    root = SRC.parents[1]
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for line, owner, _ in unrun(ran, path):
            print(f"{path.relative_to(root)}:{line}  {owner}  {lines[line - 1].strip()}")
            total += 1
    print(f"{total} statements never run")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
