"""The public names: ``qaforge.__all__`` is what the README and the benchmark import.

The package declares one list of public names. It is the names the README's
"Library use" example imports, plus the names ``perfbench/child.py`` imports
from ``qaforge``; both are read as source, so neither list can grow without
the other.

Every function and class that ``src/qaforge`` defines is used by the code of
``src/qaforge`` or of ``perfbench/child.py``, so a path that only tests take
is found here.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qaforge

ROOT = Path(__file__).parent.parent
MODULES = ["qaforge"] + [f"qaforge.{info.name}" for info in pkgutil.iter_modules(qaforge.__path__)]


def imported_from_qaforge(source: str) -> set[str]:
    """Every name a ``from qaforge import ...`` statement of ``source`` imports."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "qaforge"
        for alias in node.names
    }


def readme_library_use() -> str:
    """The README's "Library use" section, up to the next heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_every_module_is_found():
    assert {"qaforge.corpus", "qaforge.pipeline", "qaforge.metrics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_only_the_package_declares_public_names():
    declaring = [name for name in MODULES[1:] if hasattr(importlib.import_module(name), "__all__")]
    assert declaring == []


def test_public_names_are_the_readme_and_benchmark_imports():
    example = readme_library_use().split("```python\n", 1)[1].split("```", 1)[0]
    benchmark = (ROOT / "perfbench" / "child.py").read_text(encoding="utf-8")
    expected = imported_from_qaforge(example) | imported_from_qaforge(benchmark)
    assert sorted(qaforge.__all__) == sorted(expected | {"__version__"})


def test_readme_names_every_public_name():
    section = readme_library_use()
    unnamed = [name for name in qaforge.__all__ if name != "__version__" and name not in section]
    assert unnamed == []


# Defined for readers of the README, which documents it, and checked by the
# chain-rule identity test; the pipeline itself never scores a sequence.
UNCALLED_ALLOWED = {"score_sequence"}


def defined_names(tree: ast.AST) -> set[str]:
    """The functions and classes ``tree`` defines at any depth, special methods left out."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def used_names(tree: ast.AST) -> set[str]:
    """Every name and attribute ``tree``'s code reads; docstrings and comments are not code."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_definition_has_a_caller():
    sources = sorted((ROOT / "src" / "qaforge").glob("*.py"))
    package = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    benchmark = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    defined = set().union(*map(defined_names, package))
    used = set().union(*map(used_names, [*package, benchmark]))
    assert sorted(defined - used - UNCALLED_ALLOWED) == []
