"""Mutation runner: change one source file in one small way at a time, run tests.

Usage, from the repository root::

    python3 tools/mutants.py src/qaforge/metrics.py \\
        tests/test_metrics.py tests/test_golden.py tests/test_acceptance.py

A mutant is the file with one of these changes:

- ``compare``: a comparison operator swapped with its neighbour:
  ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``, ``is``/``is not``;
- ``boolop``: ``and`` for ``or``, or ``or`` for ``and``;
- ``not``: a ``not`` dropped;
- ``int``: an integer constant plus one.

The repository is copied into ``--workdir`` (a new temporary directory by
default) and every mutant is written into that copy, never into the working
tree. The copy, unmutated but printed back from its syntax tree as every
mutant is, must pass the tests first. A mutant survives when the given tests
all pass on it and then every test the repository collects (tier-1) passes
too; a run past ``TIMEOUT_S`` seconds counts as killed. Python writes no
bytecode in the copy, so no run can load a previous mutant's cached module.
Each survivor is printed as ``file:line: operator: change`` with the line's
source. Only the standard library is used, and the runner lives outside the
directories pytest collects.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.And: "and", ast.Or: "or",
}
IGNORED = shutil.ignore_patterns(".git", ".work", "__pycache__", ".hypothesis", ".pytest_cache")


class Mutator(ast.NodeTransformer):
    """Counts mutation sites in visiting order and applies the one at ``target``.

    With ``target`` -1 nothing changes and ``sites`` lists every site as
    ``(line, operator, change)``.
    """

    def __init__(self, target: int = -1):
        self.target = target
        self.sites: list[tuple[int, str, str]] = []

    def _site(self, node: ast.AST, operator: str, change: str) -> bool:
        self.sites.append((node.lineno, operator, change))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for position, op in enumerate(node.ops):
            swapped = SWAPS[type(op)]
            if self._site(node, "compare", f"{SYMBOLS[type(op)]} -> {SYMBOLS[swapped]}"):
                node.ops[position] = swapped()
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        flipped = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._site(node, "boolop", f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[flipped]}"):
            node.op = flipped()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "not", "not dropped"):
            return node.operand
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        value = node.value
        if type(value) is int and self._site(node, "int", f"{value} -> {value + 1}"):
            return ast.copy_location(ast.Constant(value + 1), node)
        return node


def mutant_source(source: str, target: int) -> str:
    tree = Mutator(target).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree))


def passes(workdir: Path, tests: list[str]) -> bool:
    """Whether the tests pass in the copy; a run past ``TIMEOUT_S`` fails."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(command, cwd=workdir, env=env, timeout=TIMEOUT_S,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("source", help="file to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="*", help="test files to run on each mutant")
    parser.add_argument("--workdir", type=Path, help="where to copy the repository")
    args = parser.parse_args(argv)

    source = (ROOT / args.source).read_text(encoding="utf-8")
    lines = source.splitlines()
    collector = Mutator()
    collector.visit(ast.parse(source))
    sites = collector.sites
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="mutants-"))
    copy = workdir / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    target = copy / args.source
    target.write_text(mutant_source(source, -1), encoding="utf-8")
    if not passes(copy, args.tests):
        print("the unmutated copy fails its tests; no mutant was run", file=sys.stderr)
        return 1

    survivors = []
    for index, (line, operator, change) in enumerate(sites):
        target.write_text(mutant_source(source, index), encoding="utf-8")
        survived = passes(copy, args.tests) and passes(copy, [])
        print(f"[{index + 1}/{len(sites)}] {'survived' if survived else 'killed'}: "
              f"{args.source}:{line}: {operator}: {change}", file=sys.stderr, flush=True)
        if survived:
            survivors.append((line, operator, change))
    target.write_text(source, encoding="utf-8")

    print(f"{len(sites)} mutants, {len(survivors)} survived")
    for line, operator, change in survivors:
        print(f"{args.source}:{line}: {operator}: {change}: {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
