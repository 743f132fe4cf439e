"""Tests of the test configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_test_is_reported_as_one_failure(tmp_path):
    # warnings are errors, so a warning raised while hypothesis reports a failure would abort the session
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
