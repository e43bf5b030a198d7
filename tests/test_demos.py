"""Every script under demos/ runs to completion and leaves no temporary files."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        TMPDIR=str(scratch),
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(scratch.iterdir()) == []
