"""Every demo script runs to completion, writes no file, and prints exactly
its stored output: the files under ``golden/demos`` are each demo's stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert not any(tmp_path.iterdir())
    assert proc.stdout == (GOLDEN / f"{demo.stem}.stdout").read_bytes()
