"""Line coverage of src/ under the tier-1 tests, with the standard library only.

Runs the tier-1 suite in this one process under sys.settrace and prints,
file by file, the statements of src/ that never ran, then the total.  A
statement is a line that an ast statement starts on and that compiles to
code, so docstrings, blank lines and the `else:` of a block do not count.
Run it from anywhere, with no options:

    python tools/linecov.py

It takes a few times as long as the untraced suite.  Tests that run the
program in a child process cover nothing here.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _code_lines(code: types.CodeType) -> set[int]:
    """Lines that code, or any code nested in it, holds instructions for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    text = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(text, str(path), "exec"))


def main() -> int:
    files = {str(p): p for p in sorted(SRC.rglob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        # a frame outside src/ is not traced line by line
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, path in files.items():
        stmts = statements(path)
        never = sorted(stmts - ran[name])
        total += len(stmts)
        missed += len(never)
        if never:
            print(f"{path.relative_to(ROOT)}: {len(never)} never run: {', '.join(map(str, never))}")
    print(f"total: {missed} of {total} statements never run (tests exit {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
