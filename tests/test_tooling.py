"""The test configuration itself: a failing test must not hide the others."""

import subprocess
import sys

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path, pytestconfig):
    # a failing hypothesis test makes its plugin import libcst, whose import
    # warns; the suite's filters must keep that from aborting the session
    filters = "".join(f"\n    {f}" for f in pytestconfig.getini("filterwarnings"))
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings ={filters}\n")
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
