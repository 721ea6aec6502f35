"""Every script under demos/ runs to completion against the package the
tests import."""

from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = fresh_python(str(script), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_balanced_demo_states_the_stripe_argument():
    # the band's interior agrees, its edge column differs, and (0, 1) is
    # a period perpendicular to the band direction (1, 0)
    proc = fresh_python(str(ROOT / "demos" / "04_balanced_sets.py"),
                        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "band interior x = -2, -1 agrees: True" in lines
    assert "band edge column x = 0 differs: True" in lines
    perpendicular = [line for line in lines
                     if line.startswith("periods perpendicular to (1, 0):")]
    assert len(perpendicular) == 1 and "(0, 1)" in perpendicular[0]
