"""The test runner's own settings, as pyproject.toml gives them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_prints_its_example(tmp_path):
    # every warning is an error, so one raised while Hypothesis reports a
    # failure would end the run in INTERNALERROR and hide the example
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING_PROPERTY)
    command = [
        sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
        "-p", "no:cacheprovider", str(test_file),
    ]
    result = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
