"""A decision loads only the decision path, and every exported name
still resolves: the analysis modules load on first use.  A fresh
interpreter imports the same package as the tests."""

import json
from pathlib import Path

import pytest

import tilecraft

from conftest import fresh_python

CHECKERBOARD = {"shape": "rect 2 2", "alphabet": [0, 1],
                "allowed": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}
NOT_LOADED = ("dataclasses", "tilecraft.algebra", "tilecraft.balanced",
              "tilecraft.linalg", "tilecraft.colorings", "tilecraft.probes",
              "tilecraft.analysis_io", "fractions")
DECIDE_PATH = {"tilecraft", "tilecraft.grid", "tilecraft.sft",
               "tilecraft.serialize", "tilecraft.cli"}
try:  # with the bare sha256 module, the input digest needs no hashlib
    import _sha256  # noqa: F401
    NOT_LOADED += ("hashlib",)
except ImportError:
    pass


def test_a_fresh_interpreter_imports_the_tested_package():
    proc = fresh_python("-c", "import tilecraft; print(tilecraft.__file__)",
                        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(
        tilecraft.__file__).resolve()


def test_decide_loads_no_analysis_module(tmp_path):
    doc = tmp_path / "set.json"
    doc.write_text(json.dumps(CHECKERBOARD))
    proc = fresh_python(
        "-c",
        "import json, sys\n"
        "import tilecraft.cli\n"
        "code = tilecraft.cli.main(['decide', sys.argv[1]])\n"
        "print(code)\n"
        "print(json.dumps(sorted(sys.modules)))\n", str(doc),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *_, code, modules = proc.stdout.splitlines()
    assert code == "0"
    loaded = set(json.loads(modules))
    assert {m for m in loaded if m.startswith("tilecraft")} == DECIDE_PATH
    assert loaded.isdisjoint(NOT_LOADED)


def test_value_imports_and_probes_load_no_moved_module():
    # importlib asks hasattr(module, "__path__") on a from-import, so the
    # moved-name lookups of grid and sft must not answer every name
    proc = fresh_python(
        "-c",
        "import json, sys\n"
        "import tilecraft.grid, tilecraft.sft\n"
        "assert not hasattr(tilecraft.grid, '__path__')\n"
        "assert not hasattr(tilecraft.sft, '__path__')\n"
        "from tilecraft.grid import Vec2\n"
        "from tilecraft.sft import decide\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.splitlines()[-1]
    assert set(json.loads(modules)).isdisjoint(NOT_LOADED)


CONFIG = {"kind": "periodic", "block": [[0, 1], [1, 0]]}
ANALYSIS_LOADS = {
    "complexity": (CONFIG, ["--shape", "2x2", "--window", "6x6"],
                   {"colorings"}),
    "annihilator": (CONFIG, [], {"colorings", "algebra", "linalg"}),
    "determinism": (CHECKERBOARD, ["--dir", "1,0"], {"colorings", "probes"}),
    "balanced": (CONFIG, ["--u", "0,1", "--n", "2", "--m", "2"],
                 {"colorings", "balanced"}),
}


@pytest.mark.parametrize("command", sorted(ANALYSIS_LOADS))
def test_each_analysis_command_loads_what_it_runs(tmp_path, command):
    doc, options, extra = ANALYSIS_LOADS[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    proc = fresh_python(
        "-c",
        "import json, sys\n"
        "import tilecraft.cli\n"
        "code = tilecraft.cli.main(sys.argv[1:])\n"
        "print(code)\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        command, str(path), *options, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *_, code, modules = proc.stdout.splitlines()
    assert code == "0"
    loaded = {m for m in json.loads(modules) if m.startswith("tilecraft")}
    assert loaded == DECIDE_PATH | {"tilecraft.analysis_io"} | {
        f"tilecraft.{m}" for m in extra}


def test_every_exported_name_resolves_on_first_use():
    proc = fresh_python(
        "-c",
        "import json, sys, tilecraft\n"
        "names = tilecraft.__all__\n"
        "before = sorted(m for m in sys.modules if m.startswith('tilecraft'))\n"
        "got = {n: type(getattr(tilecraft, n)).__name__ for n in names}\n"
        "star = {}\n"
        "exec('from tilecraft import *', star)\n"
        "print(json.dumps([names, before, got, sorted(star),\n"
        "                  sorted(dir(tilecraft))]))\n",
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names, before, got, star, listed = json.loads(
        proc.stdout.splitlines()[-1])
    assert len(names) == 59 and names == sorted(set(names))
    assert before == ["tilecraft", "tilecraft.grid", "tilecraft.sft"]
    assert got["algebra"] == got["balanced"] == got["linalg"] == "module"
    assert got["LaurentPoly"] == got["BalancedReport"] == "type"
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


# Every attribute that perfbench/workloads.py, tracing.py and record.py
# read from a tilecraft module, by module; a moved name maps to the module
# that now defines it.  If one stopped resolving, the benchmark's runs
# would fail instead of measuring.
BENCHMARK_READS = {
    "grid": {"Alphabet": None, "DiscreteDomain": None, "Vec2": None,
             "PeriodicConfig": "colorings", "WindowConfig": "colorings",
             "find_periods": "colorings", "patterns_of": "colorings"},
    "sft": {"PatternSet": None, "Empty": None, "NonEmptyPeriodic": None,
            "decide": None, "decide_with_usage": None,
            "validate_witness": None, "valid_square": None,
            "torus_search": None, "determinism_probe": "probes",
            "box_cells": "probes"},
    "balanced": {"balanced_search": None, "is_balanced": None,
                 "patterns_of": "colorings"},
    "serialize": {"pattern_set_to_json": None, "pattern_set_from_json": None,
                  "outcome_to_json": None, "canonical_json": None},
    "algebra": {"apply": None, "format_poly": None,
                "periodic_annihilator": None, "annihilator_search": None,
                "nullspace_vector": "linalg"},
    "linalg": {"nullspace_vector": None},
    "cli": {"main": None},
}


def test_every_name_the_benchmark_reads_resolves():
    from importlib import import_module

    for module, names in BENCHMARK_READS.items():
        mod = import_module(f"tilecraft.{module}")
        for name, home in names.items():
            value = getattr(mod, name)
            if home is not None:
                assert value is getattr(import_module(f"tilecraft.{home}"),
                                        name), (module, name)


def test_the_tracer_patches_only_listed_names():
    import ast

    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    (patches,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "PATCHES"]
    for module, attr, _span in patches:
        if module != "workloads":
            assert attr in BENCHMARK_READS[module], (module, attr)
