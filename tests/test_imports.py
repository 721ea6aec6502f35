"""A decision loads only the decision path, and every exported name
still resolves: the analysis modules load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CHECKERBOARD = {"shape": "rect 2 2", "alphabet": [0, 1],
                "allowed": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}
NOT_LOADED = ("dataclasses", "tilecraft.algebra", "tilecraft.balanced",
              "tilecraft.linalg", "fractions")
try:  # with the bare sha256 module, the input digest needs no hashlib
    import _sha256  # noqa: F401
    NOT_LOADED += ("hashlib",)
except ImportError:
    pass


def _python(code: str, *args: str) -> list[str]:
    """Standard output lines of a fresh interpreter running code."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_decide_loads_no_analysis_module(tmp_path):
    doc = tmp_path / "set.json"
    doc.write_text(json.dumps(CHECKERBOARD))
    *_, code, modules = _python(
        "import json, sys\n"
        "import tilecraft.cli\n"
        "code = tilecraft.cli.main(['decide', sys.argv[1]])\n"
        "print(code)\n"
        "print(json.dumps(sorted(sys.modules)))\n", str(doc))
    assert code == "0"
    loaded = set(json.loads(modules))
    assert {m for m in loaded if m.startswith("tilecraft")} == {
        "tilecraft", "tilecraft.grid", "tilecraft.sft", "tilecraft.serialize",
        "tilecraft.cli"}
    assert loaded.isdisjoint(NOT_LOADED)


def test_every_exported_name_resolves_on_first_use():
    lines = _python(
        "import json, sys, tilecraft\n"
        "names = tilecraft.__all__\n"
        "before = sorted(m for m in sys.modules if m.startswith('tilecraft'))\n"
        "got = {n: type(getattr(tilecraft, n)).__name__ for n in names}\n"
        "star = {}\n"
        "exec('from tilecraft import *', star)\n"
        "print(json.dumps([names, before, got, sorted(star),\n"
        "                  sorted(dir(tilecraft))]))\n")
    names, before, got, star, listed = json.loads(lines[-1])
    assert len(names) == 72 and names == sorted(set(names))
    assert before == ["tilecraft", "tilecraft.grid", "tilecraft.sft"]
    assert got["algebra"] == got["balanced"] == got["linalg"] == "module"
    assert got["LaurentPoly"] == got["Stripe"] == "type"
    assert set(star) - {"__builtins__"} == set(names)
    assert set(names) <= set(listed)


def test_lazy_names_are_the_module_objects():
    import tilecraft
    from tilecraft import algebra, balanced

    assert tilecraft.balanced_search is balanced.balanced_search
    assert tilecraft.LaurentPoly is algebra.LaurentPoly
    assert tilecraft.linalg.__name__ == "tilecraft.linalg"
    with pytest.raises(AttributeError, match="no_such_name"):
        tilecraft.no_such_name
