"""No ``open()`` in ``src/qaforge`` reads in text mode.

Text mode's universal newlines end a line at a lone ``\\r`` as well as at
``\\n``, while a JSON Lines file ends a line at ``\\n`` only: the JSONL readers
split bytes (``corpus.jsonl_records``). The sources are parsed, and any
``open()`` that reads in text mode fails here, so such a reader cannot come
back. ``Path.read_text`` of a whole JSON document is left alone: there a
newline is whitespace, and a raw ``\\r`` or ``\\n`` inside a string is
invalid either way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qaforge").glob("*.py"))


def text_mode_reads(tree: ast.AST) -> list[int]:
    """The line of each ``open()`` call in ``tree`` that reads, or may read, in text mode.

    A mode that is not a string literal may read in text mode.
    """
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        mode = given[0] if given else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            lines.append(node.lineno)
        elif "b" not in mode.value and ("r" in mode.value or "+" in mode.value):
            lines.append(node.lineno)
    return lines


def test_the_check_finds_text_mode_reads():
    source = "\n".join([
        'open(path)',
        'open(path, encoding="utf-8")',
        'open(path, "r+")',
        'open(path, mode)',
        'open(path, mode="rt")',
        'open(path, "rb")',
        'open(path, "w", encoding="utf-8")',
        'open(path, mode="ab")',
    ])
    assert text_mode_reads(ast.parse(source)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_text_mode_reads(path):
    found = text_mode_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert [f"{path.name}:{line}" for line in found] == []
