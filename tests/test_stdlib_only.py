"""qaforge runs on the standard library alone: importing it loads no third-party module."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter, so that no module a test loaded counts. What
# the interpreter loads at start-up (site hooks, say) is not qaforge's doing.
IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import qaforge
for info in pkgutil.walk_packages(qaforge.__path__, "qaforge."):
    importlib.import_module(info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_every_module_loads_only_qaforge_and_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = json.loads(result.stdout)
    assert "qaforge" in loaded
    assert [name for name in loaded if name not in {"qaforge", *sys.stdlib_module_names}] == []
