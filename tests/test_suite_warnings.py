"""The suite's warnings-as-errors filter fails a test, never the whole session."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

TESTS = Path(__file__).parent

TINY_MODULE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_is_reported_as_a_failure(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_tiny.py").write_text(TINY_MODULE, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output


def test_same_warning_from_test_code_is_still_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)
