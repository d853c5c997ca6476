"""Every script in ``demos/`` runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # TMPDIR: the files a demo writes land in pytest's temporary directory,
    # and must be gone when it ends
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("biframekit-demo-*"))
