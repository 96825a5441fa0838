"""Every name a qaforge module lists in ``__all__`` resolves in that module."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import qaforge

MODULES = ["qaforge"] + [f"qaforge.{info.name}" for info in pkgutil.iter_modules(qaforge.__path__)]


def test_every_module_is_found():
    assert {"qaforge.corpus", "qaforge.pipeline", "qaforge.metrics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
