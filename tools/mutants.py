"""Operator mutants of source files, run against tier-1, with the standard library only.

Each mutant changes one operator of one file:
- a comparison to its boundary twin (< and <=, > and >=) or its negation (== and !=);
- + and -, and * and /, in an expression or an augmented assignment.

The repository is copied to a temporary directory (without .git and
caches).  The tier-1 suite first runs once on the unmutated copy.  Then each
mutant is written into the copy in turn, and the suite runs again with
`-x -q`; a failing suite kills the mutant, a passing one lets it survive.
The script prints one line per mutant, `killed` or `survived`, with its
file:line and operator, and exits with the exit code of the unmutated run
(it runs no mutant if that run fails).  Usage, from anywhere:

    python tools/mutants.py src/submodsum/functions/coverage.py
    python tools/mutants.py --seed 3 --sample 100 src/submodsum/functions/*.py

--sample draws that many mutants with the seed; without it every mutant
runs, in file and line order.  A mutant costs up to one tier-1 run (about
a minute when it survives), so this is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _sites(node: ast.AST):
    """(op, the node before it, the node after it) for each operator of node
    that SWAPS changes."""
    if isinstance(node, ast.BinOp):
        yield node.op, node.left, node.right
    elif isinstance(node, ast.AugAssign):
        yield node.op, node.target, node.value
    elif isinstance(node, ast.Compare):
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
            yield op, left, right


def mutants(path: Path) -> list[tuple[int, int, int, str, str]]:
    """(line, start, end, old, new): the byte span of each operator token
    and the token that replaces it."""
    source = path.read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for node in ast.walk(ast.parse(source)):
        for op, left, right in _sites(node):
            if type(op) not in SWAPS:
                continue
            suffix = "=" if isinstance(node, ast.AugAssign) else ""
            old, new = SYMBOLS[type(op)] + suffix, SYMBOLS[SWAPS[type(op)]] + suffix
            # ast positions are byte offsets within a line; the token lies between the operands
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            found = re.search(rf"(?<![<>=!*/]){re.escape(old)}(?![=<>*/])".encode(), source[lo:hi])
            if found is None:
                raise SystemExit(f"{path}:{left.end_lineno}: no {old!r} token between the operands")
            out.append((left.end_lineno, lo + found.start(), lo + found.end(), old, new))
    return sorted(out)


def _run(work: Path, timeout: float | None = None) -> int | None:
    """The suite's exit code on the copy, or None past the timeout.  No
    bytecode is cached, so a mutant that keeps the file's size and mtime
    second is never read from a stale .pyc."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(TIER1, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn with the seed")
    args = parser.parse_args(argv)
    files = [f.resolve() for f in args.files]
    todo = [(f, *m) for f in files for m in mutants(f)]
    if args.sample is not None:
        todo = sorted(random.Random(args.seed).sample(todo, min(args.sample, len(todo))))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_out"))
        began = time.perf_counter()
        base = _run(work)
        # a mutant may loop forever; one that runs far past the clean suite counts as killed
        timeout = 3 * (time.perf_counter() - began) + 60
        print(f"unmutated suite: exit {base}", flush=True)
        if base != 0:
            return base
        killed = 0
        for path, line, start, end, old, new in todo:
            rel = path.relative_to(ROOT)
            source = path.read_bytes()
            (work / rel).write_bytes(source[:start] + new.encode() + source[end:])
            rc = _run(work, timeout)
            (work / rel).write_bytes(source)
            verdict = "survived" if rc == 0 else "killed" if rc is not None else "killed (timeout)"
            killed += rc != 0
            print(f"{verdict}  {rel}:{line}  {old} -> {new}", flush=True)
        print(f"{killed} of {len(todo)} mutants killed")
    return base


if __name__ == "__main__":
    sys.exit(main())
