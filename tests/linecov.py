"""A line-coverage gate for pytest, standard library only.

Run the tier-1 suite with the plugin loaded, `tests` on the path:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

While the session runs, one `sys.settrace` tracer records the lines that
run in `src/followups/`, in process. At the end, every statement in a
function body of the package must have run, or be listed in
`tests/linecov_allow.txt` as `<file>:<line> <reason>`. An unrun statement
that is not listed, a listed one that ran, and an entry without a reason
each fail the session.

Only function bodies are held to it: module and class bodies run at import,
and a decorated `def` line reports its decorator's line instead, so both
are left out. So are the statements that no line event marks: docstrings
and other bare constants, `global`, `nonlocal` and the `try:` line (the
body of a `try` is counted). A statement has run when a line of its own
part fires: any line of a simple statement, or the head of a compound one.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "followups"
ALLOW = Path(__file__).with_name("linecov_allow.txt")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_UNMARKED = (ast.Try, ast.Global, ast.Nonlocal)


def function_statements(source: str) -> dict[int, range]:
    """Each function-body statement of `source`: its first line -> the lines
    whose line event shows that it ran."""
    found: dict[int, range] = {}

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and _marked(child):
                found[child.lineno] = _own_lines(child)
            if isinstance(child, _FUNCTIONS):
                visit(child, True)
            elif isinstance(child, ast.ClassDef):
                visit(child, False)
            else:
                visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def _marked(stmt: ast.stmt) -> bool:
    if isinstance(stmt, _UNMARKED):
        return False
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return False
    return not (isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)) and stmt.decorator_list)


def _own_lines(stmt: ast.stmt) -> range:
    body = getattr(stmt, "body", ())
    if body:  # a compound statement: its head
        return range(stmt.lineno, max(body[0].lineno, stmt.lineno + 1))
    return range(stmt.lineno, stmt.end_lineno + 1)


def read_allow(text: str) -> dict[str, str]:
    """`<file>:<line> <reason>` entries by `<file>:<line>`; `#` starts a comment line."""
    allowed = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where, _, reason = line.partition(" ")
        if not reason.strip():
            raise ValueError(f"{ALLOW.name}:{lineno}: {where} gives no reason")
        allowed[where] = reason.strip()
    return allowed


def unrun_statements(hits: dict[str, set[int]]) -> list[str]:
    """`<file>:<line>` of each function-body statement no line of which ran."""
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for first, lines in sorted(function_statements(path.read_text(encoding="utf-8")).items()):
            if ran.isdisjoint(lines):
                unrun.append(f"{path.name}:{first}")
    return unrun


class _Tracer:
    """Records the line events of frames running the package's files."""

    def __init__(self):
        self.hits = {str(path): set() for path in PACKAGE.glob("*.py")}
        self._local = {}  # co_filename -> local trace function, or None

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self._local.get(filename, False)
        if local is False:
            lines = self.hits.get(os.path.realpath(filename))
            local = self._local[filename] = None if lines is None else self._line_tracer(lines)
        return local

    @staticmethod
    def _line_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def pytest_configure(config):
    config.pluginmanager.register(_Gate(), "linecov-gate")


class _Gate:
    """Traces the session, then checks the unrun statements against the allow list."""

    def __init__(self):
        self.tracer = _Tracer()
        self.report: list[str] = []

    def pytest_sessionstart(self, session):
        sys.settrace(self.tracer)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        allowed = read_allow(ALLOW.read_text(encoding="utf-8"))
        unrun = unrun_statements(self.tracer.hits)
        self.report += [f"{where}: not run" for where in unrun if where not in allowed]
        self.report += [f"{where}: listed in {ALLOW.name}, but ran" for where in allowed if where not in unrun]
        if self.report:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.report:
            terminalreporter.section("linecov: function-body statements of src/followups")
            for line in self.report:
                terminalreporter.write_line(line)
        else:
            terminalreporter.write_line("linecov: every function-body statement of src/followups ran or is listed")
