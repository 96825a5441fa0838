"""Only ``errors.load_json`` in ``src/qaforge`` decodes JSON.

``load_json`` scans text with ``json``'s C scanner, ignores a leading
byte-order mark and rejects a string holding an unpaired surrogate. A reader
that called ``json.loads`` or a decoder of its own would lose all three. The
sources are parsed, and any other decode entry point outside ``errors.py``
fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qaforge").glob("*.py"))
DECODE_NAMES = {"loads", "load", "JSONDecoder", "raw_decode", "scan_once"}
# Method names that are decode entry points on any object.
DECODE_METHODS = {"JSONDecoder", "raw_decode", "scan_once"}


def json_decodes(tree: ast.AST) -> list[int]:
    """The line of each use of a ``json`` decode entry point in ``tree``.

    That is ``json.loads`` and ``json.load``, any ``JSONDecoder``,
    ``raw_decode`` or ``scan_once`` attribute, and an import of one of
    these names from ``json`` or a submodule of it.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            on_json = isinstance(node.value, ast.Name) and node.value.id == "json"
            if node.attr in DECODE_METHODS or (on_json and node.attr in DECODE_NAMES):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            from_json = node.module == "json" or node.module.startswith("json.")
            names = {alias.name for alias in node.names}
            if from_json and names & (DECODE_NAMES | {"*"}):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_json_decodes():
    source = "\n".join([
        "json.loads(text)",
        "json.load(handle)",
        "json.JSONDecoder().decode(text)",
        "decoder.raw_decode(text)",
        "scanner.scan_once(text, 0)",
        "from json import loads",
        "from json.decoder import JSONDecoder as Decoder",
        "from json import *",
        "json.dumps(value)",
        "pickle.loads(data)",
        "from json import dumps",
        "self._load(header)",
    ])
    assert json_decodes(ast.parse(source)) == [1, 2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "errors.py"], ids=lambda path: path.name
)
def test_only_load_json_decodes(path):
    found = json_decodes(ast.parse(path.read_text(encoding="utf-8")))
    assert [f"{path.name}:{line}" for line in found] == []


def test_load_json_decodes():
    source = (ROOT / "src" / "qaforge" / "errors.py").read_text(encoding="utf-8")
    assert json_decodes(ast.parse(source)) != []
