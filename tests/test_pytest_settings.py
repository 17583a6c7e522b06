"""The repository's pytest settings let a failing hypothesis test report as usual.

``filterwarnings = ["error", ...]`` in ``pyproject.toml`` turns warnings into
errors.  Hypothesis imports ``libcst`` to print a failing example as a patch;
without the one ignored ``DeprecationWarning`` that import ended the pytest run
in ``INTERNALERROR``, with no falsifying example and no later tests.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_after_it():
    pass
'''


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None, reason="hypothesis writes patches only with libcst"
)
def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED_MODULE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert output.rstrip().splitlines()[-1].startswith("1 failed, 1 passed")
