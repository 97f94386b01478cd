"""The six demos print exactly the output pinned in tests/data/demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_pinned():
    assert [p.stem for p in DEMOS] == sorted(
        p.stem for p in (ROOT / "tests" / "data" / "demos").glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.out").read_text()
    assert proc.stdout == want
