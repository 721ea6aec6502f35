"""Every script under demos/ runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


def test_balanced_demo_states_the_stripe_argument():
    # the band's interior agrees, its edge column differs, and (0, 1) is
    # a period perpendicular to the band direction (1, 0)
    proc = _run(ROOT / "demos" / "04_balanced_sets.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "band interior x = -2, -1 agrees: True" in lines
    assert "band edge column x = 0 differs: True" in lines
    perpendicular = [line for line in lines
                     if line.startswith("periods perpendicular to (1, 0):")]
    assert len(perpendicular) == 1 and "(0, 1)" in perpendicular[0]
