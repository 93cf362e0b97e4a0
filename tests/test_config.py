"""The suite's own pytest configuration.

``filterwarnings`` turns every warning into an error.  Hypothesis's failure
report imports ``libcst``, whose ``mypy_extensions`` import raises a
DeprecationWarning; as an error it aborted the run with INTERNALERROR after
the first failing property test, and the tests after it never ran.
"""

import pathlib
import subprocess
import sys

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # run in tmp_path, so Hypothesis's .hypothesis/patches output stays there
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    cmd = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(CONFIG), "--rootdir", str(tmp_path)]
    out = subprocess.run(cmd + ["-q", "test_property.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1
    assert "1 failed, 1 passed" in out.stdout
