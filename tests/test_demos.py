"""Every script in demos/ runs to completion: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapex

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(script, tmp_path):
    src = str(Path(mapex.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
