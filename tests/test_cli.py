import builtins
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tilecraft import algebra, balanced, probes, sft
from tilecraft import cli
from tilecraft.analysis_io import MAX_ELIMINATION_WORK
from tilecraft.cli import EXIT_UNWRITTEN, MAX_BOX_CELLS, MAX_PROBE_RADIUS, main
from tilecraft.grid import DiscreteDomain

CHECKERBOARD = {"shape": "rect 2 2", "alphabet": [0, 1],
                "allowed": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}
LEFT0_RIGHT1 = {"shape": "rect 2 2", "alphabet": [0, 1],
                "allowed": [[[0, 1], [0, 1]]]}
PER23 = {"kind": "periodic", "p1": [2, 0], "p2": [0, 3],
         "block": [[0, 1], [2, 3], [4, 5]]}
CONSTANT = {"kind": "periodic", "p1": [1, 0], "p2": [0, 1], "block": [[0]]}
FIVE_WINDOW = {"kind": "window",
               "rows": [[0, 0, 1, 1], [1, 0, 0, 0],
                        [0, 0, 0, 0], [0, 0, 0, 0]]}
# three colors on the 4-cell convex shape {(0,0), (1,0), (0,1), (2,1)}
CONVEX_CELLS = [[0, 0], [1, 0], [0, 1], [2, 1]]
CONVEX3 = {"shape": CONVEX_CELLS, "alphabet": [0, 1, 2],
           "allowed": [[[x, y, v] for (x, y), v in zip(CONVEX_CELLS, values)]
                       for values in [(0, 1, 0, 2), (1, 0, 1, 1),
                                      (1, 2, 1, 1), (2, 1, 2, 0)]]}
SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    rep = json.loads(out)
    rep.pop("wall_time_s", None)
    return rep


def cold(argv, env=(), **kwargs):
    """Run the command line in a fresh interpreter."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), **dict(env)}
    return subprocess.run([sys.executable, "-m", "tilecraft.cli", *argv],
                          env=env, timeout=120, **kwargs)


def test_decide_checkerboard(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f)
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"]["kind"] == "non_empty_periodic"
    assert rep["outcome"]["witness"]["values"] == [[0, 1], [1, 0]]
    assert rep["render"] == "10\n01"
    assert rep["input_digest"].startswith("sha256:")


def test_decide_empty(tmp_path, capsys):
    f = write(tmp_path, "lr.json", LEFT0_RIGHT1)
    code, out = run(capsys, "decide", f)
    assert code == 1
    assert report_of(out)["outcome"] == {"kind": "empty", "n": 3}


def test_decide_undecided(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f, "--budget", "2")
    assert code == 2
    assert report_of(out)["outcome"]["kind"] == "undecided"


def test_decide_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"bad json')
    code, out = run(capsys, "decide", str(path))
    assert code >= 3
    assert "line" in report_of(out)["error"]


def test_decide_deeply_nested_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out = run(capsys, "decide", str(path))
    assert code == 3
    assert "nested too deeply" in report_of(out)["error"]


def test_decide_deep_shape_details_are_bounded(tmp_path, capsys):
    # the schema message quotes the offending value; for a shape nested
    # 900 lists deep the report's detail must not grow with it
    deep = json.loads("[" * 900 + "]" * 900)
    f = write(tmp_path, "deep.json", {**CHECKERBOARD, "shape": deep})
    code, out = run(capsys, "decide", f)
    assert code == 3
    (detail,) = report_of(out)["error_details"]
    assert detail.startswith("$.shape: [[[")
    assert detail.endswith("...")
    assert len(detail) <= 250


@pytest.mark.parametrize("text", [
    '{"shape": "rect 1 1", "alphabet": [0, 1' + "0" * 5000
    + '], "allowed": [[[0]]]}',
    b'{"shape": "rect 1 1", "alphabet": [0], "allowed": [[[0]]]}\xff',
], ids=["overlong-integer", "not-utf8"])
def test_decide_unreadable_json_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, out = run(capsys, "decide", str(path))
    assert code == 3
    assert len(report_of(out)["error"]) < 300


def test_decide_bad_pattern_error_is_bounded(tmp_path, capsys):
    # a pattern that is neither rows of the shape nor a cell list is
    # named by its index, not quoted, so the error does not grow with it
    f = write(tmp_path, "tall.json",
              {**CHECKERBOARD, "allowed": [[[0, 1]] * 1000]})
    code, out = run(capsys, "decide", f)
    assert code == 3
    error = report_of(out)["error"]
    assert "allowed[0]" in error
    assert len(error) < 200


def test_decide_empty_rect_shape_is_schema_error(tmp_path, capsys):
    f = write(tmp_path, "bad.json", {**CHECKERBOARD, "shape": "rect 0 2"})
    code, out = run(capsys, "decide", f)
    assert code == 3
    assert report_of(out)["error_details"][0].startswith("$.shape: ")


def test_decide_repeated_pattern_cell_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "dup.json",
              {"shape": [[0, 0], [1, 0]], "alphabet": [0, 1],
               "allowed": [[[0, 0, 0], [1, 0, 1], [1, 0, 0]]]})
    code, out = run(capsys, "decide", f)
    assert code == 3
    assert "allowed[0]" in report_of(out)["error"]


def test_decide_repeated_shape_cell_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "dupshape.json",
              {"shape": [[0, 0], [0, 0], [1, 0]], "alphabet": [0, 1],
               "allowed": [[[0, 0, 0], [1, 0, 1]]]})
    code, out = run(capsys, "decide", f)
    assert code == 3
    assert "shape names a cell more than once" in report_of(out)["error"]


@pytest.mark.parametrize("argv", [
    ["complexity", "PER", "--shape", "2x2", "--window", "100000x100000"],
    ["complexity", "PER", "--shape", "501x500@-3,4", "--window", "4x4"],
    ["annihilator", "WIN", "--support", "2x2", "--window", "250001x1"],
    ["balanced", "PER", "--u", "0,1", "--n", "2", "--m", "2",
     "--window", "1x250001"],
], ids=["window", "shape", "support-window", "balanced-window"])
def test_oversized_box_is_usage_error_before_any_cell(tmp_path, capsys,
                                                     monkeypatch, argv):
    built = []
    rect = DiscreteDomain.rect
    monkeypatch.setattr(DiscreteDomain, "rect", lambda w, h, origin:
                        built.append(w * h) or rect(w, h, origin))
    files = {"PER": write(tmp_path, "p.json", PER23),
             "WIN": write(tmp_path, "w.json", FIVE_WINDOW)}
    assert main([files.get(a, a) for a in argv]) == 3
    assert MAX_BOX_CELLS == 250_000 and max(built, default=0) <= 16
    assert f"at most {MAX_BOX_CELLS} cells" in capsys.readouterr().err


def test_complexity_ragged_block_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "p.json", {"kind": "periodic", "p1": [2, 0],
                                   "p2": [0, 2], "block": [[0, 1], [1]]})
    code, out = run(capsys, "complexity", f, "--shape", "2x2",
                    "--window", "4x4")
    assert code == 3
    assert "same length" in report_of(out)["error"]


def test_complexity_dependent_periods_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "p.json", {"kind": "periodic", "p1": [2, 0],
                                   "p2": [4, 0], "block": [[0, 1]]})
    code, out = run(capsys, "complexity", f, "--shape", "2x2",
                    "--window", "4x4")
    assert code == 3
    assert "linearly independent" in report_of(out)["error"]


@pytest.mark.parametrize("doc, n_errors", [
    ({"shape": 7, "alphabet": []}, 3),
    ({"shape": "rect 2 2", "alphabet": "01", "allowed": [[[0, 1]]],
      "extra": 1}, 2),
    ({"shape": [[0, 0], [1]], "alphabet": [0, 1]}, 2),
    ({"alphabet": [], "allowed": {}}, 3),
], ids=["wrong-types", "extra-key", "short-cell", "missing-keys"])
def test_decide_schema_violations_enumerated(tmp_path, capsys, doc, n_errors):
    f = write(tmp_path, "bad.json", doc)
    code, out = run(capsys, "decide", f)
    assert code == 3
    rep = report_of(out)
    assert len(rep["error_details"]) == n_errors


def test_decide_missing_file(capsys):
    code, _ = run(capsys, "decide", "/nonexistent/nope.json")
    assert code == 3


def test_usage_error_exit(capsys):
    assert main(["decide"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--symmetry-pruning", "--parallel",
                                  "--json"])
def test_removed_decide_flags_are_usage_errors(tmp_path, capsys, flag):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    assert main(["decide", f, flag]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["determinism", "CB", "--dir", "1,0", "--k", "0"],
    ["determinism", "CB", "--dir", "1,0", "--k", "2", "--R", "1"],
    ["balanced", "CONST", "--u", "0,1", "--n", "0", "--m", "2"],
    ["balanced", "CONST", "--u", "0,1", "--n", "2", "--m", "0"],
    ["balanced", "CONST", "--u", "0,1", "--n", "2", "--m", "2",
     "--area-budget", "0"],
    ["balanced", "CONST", "--u", "0,1", "--n", "2", "--m", "2",
     "--area-budget", "-1"],
    ["balanced", "CONST", "--u", "0,1", "--n", "2", "--m", "2",
     "--area-budget", "8"],
    ["determinism", "CB", "--dir", "1,0", "--R", "51"],
    ["balanced", "CONST", "--u", "0,1", "--n", "501", "--m", "500"],
    ["decide", "CB", "--ascii"],
    ["determinism", "CB", "--dir", "1,0", "--budget", "0"],
], ids=["k0", "R_below_k", "n0", "m0", "area_budget0", "area_budget_neg",
        "area_budget8", "R51", "nm_over_box", "ascii", "determinism_budget0"])
def test_out_of_range_options_are_usage_errors(tmp_path, capsys, argv):
    files = {"CB": write(tmp_path, "cb.json", CHECKERBOARD),
             "CONST": write(tmp_path, "c.json", CONSTANT)}
    assert main([files.get(a, a) for a in argv]) == 3
    assert capsys.readouterr().out == ""


def _two_cell_set(dx):
    return {"shape": [[0, 0], [dx, 0]], "alphabet": [0, 1],
            "allowed": [[[0, 0, 0], [dx, 0, 1]]]}


@pytest.mark.parametrize("argv, guarded, message", [
    (["determinism", "CB", "--dir", "1,0", "--R", "51"],
     (probes, "classify_directions"), "a probe radius of at most 50"),
    (["balanced", "CONST", "--u", "0,1", "--n", "1", "--m", "250001"],
     (balanced, "is_balanced"), "--n x --m must be at most 250000 cells"),
    (["decide", "WIDE"], (cli, "decide_with_usage"),
     "a first square of at most 250000 cells, got side 501"),
], ids=["R51", "balanced_nm", "decide_first_square"])
def test_ceilings_exit_before_the_guarded_call(tmp_path, capsys, monkeypatch,
                                               argv, guarded, message):
    monkeypatch.setattr(*guarded, None)
    built = []
    rect = DiscreteDomain.rect
    monkeypatch.setattr(DiscreteDomain, "rect", lambda *args:
                        built.append(args) or rect(*args))
    files = {"CB": write(tmp_path, "cb.json", CHECKERBOARD),
             "CONST": write(tmp_path, "c.json", CONSTANT),
             "WIDE": write(tmp_path, "w.json", _two_cell_set(499))}
    assert main([files.get(a, a) for a in argv]) == 3
    assert (MAX_PROBE_RADIUS, MAX_BOX_CELLS) == (50, 250_000)
    assert not built
    captured = capsys.readouterr()
    assert message in captured.err + captured.out


def test_largest_probe_radius_runs(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "determinism", f, "--dir", "1,0", "--R", "50",
                    "--budget", "1")
    assert code == 0
    assert report_of(out)["outcome"]["forward"]["radius"] == 50


def test_largest_first_square_is_decided(tmp_path, capsys):
    # extent 499: the first square is 500 x 500, exactly MAX_BOX_CELLS
    f = write(tmp_path, "wide.json", _two_cell_set(498))
    code, out = run(capsys, "decide", f, "--budget", "1")
    assert code == 2
    assert report_of(out)["outcome"] == {
        "kind": "undecided", "low_complexity": True, "max_n_tried": 0,
        "max_pq_tried": 0, "nodes_used": 1}


def test_complexity_checkerboard(tmp_path, capsys):
    cb = {"kind": "periodic", "p1": [1, 1], "p2": [2, 0],
          "block": [[0, 1], [1, 0]]}
    f = write(tmp_path, "cb.json", cb)
    code, out = run(capsys, "complexity", f, "--shape", "2x2",
                    "--window", "12x12")
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"] == {"bound": 4, "count": 2, "low_complexity": True,
                              "window_cells": 144}


def test_complexity_constant(tmp_path, capsys):
    f = write(tmp_path, "c.json", CONSTANT)
    code, out = run(capsys, "complexity", f, "--shape", "3x3",
                    "--window", "9x9")
    assert report_of(out)["outcome"]["count"] == 1


def test_complexity_five_window(tmp_path, capsys):
    f = write(tmp_path, "w.json", FIVE_WINDOW)
    code, out = run(capsys, "complexity", f, "--shape", "2x2",
                    "--window", "4x4")
    rep = report_of(out)
    assert rep["outcome"]["count"] == 5
    assert not rep["outcome"]["low_complexity"]


def test_annihilator_periodic(tmp_path, capsys):
    f = write(tmp_path, "p.json", PER23)
    code, out = run(capsys, "annihilator", f)
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"]["text"] == "x^2*y^3 - x^2 - y^3 + 1"


def test_annihilator_search_window(tmp_path, capsys):
    rows = [[(i + j) % 2 for i in range(6)] for j in range(6)]
    f = write(tmp_path, "w.json", {"kind": "window", "rows": rows})
    code, out = run(capsys, "annihilator", f, "--support", "2x2",
                    "--window", "4x4@1,1")
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"]["found"]


def test_annihilator_not_found(tmp_path, capsys, de_bruijn_window):
    rows = [list(r) for r in de_bruijn_window.values]
    f = write(tmp_path, "db.json", {"kind": "window", "rows": rows})
    code, out = run(capsys, "annihilator", f, "--support", "2x2",
                    "--window", "4x4@1,1")
    assert code == 0
    assert not report_of(out)["outcome"]["found"]


def test_annihilator_periodic_scope_is_global(tmp_path, capsys):
    # the periodic check reads one block of f.c, which covers all of Z^2
    f = write(tmp_path, "p.json", PER23)
    code, out = run(capsys, "annihilator", f)
    assert code == 0
    outcome = report_of(out)["outcome"]
    assert (outcome["mode"], outcome["scope"]) == ("periodic", "global")
    assert outcome["window_cells"] == 4 * 2 * 3


def test_annihilator_search_scope_is_window(tmp_path, capsys,
                                           de_bruijn_window):
    # a search verifies f.c = 0 on its window only, found or not
    rows = [[(i + j) % 2 for i in range(6)] for j in range(6)]
    db_rows = [list(r) for r in de_bruijn_window.values]
    for name, doc_rows, found in (("w.json", rows, True),
                                  ("db.json", db_rows, False)):
        f = write(tmp_path, name, {"kind": "window", "rows": doc_rows})
        code, out = run(capsys, "annihilator", f, "--support", "2x2",
                        "--window", "4x4@1,1")
        assert code == 0
        outcome = report_of(out)["outcome"]
        assert (outcome["found"], outcome["mode"], outcome["scope"]) == (
            found, "search", "window")


def test_decide_failed_self_check_is_an_error_report(tmp_path, capsys,
                                                     monkeypatch):
    # every search "finds" the all-zero grid, which the checkerboard set
    # forbids, so the witness re-check fails: no verified verdict
    def all_zero(comp, width, height, wrap, budget):
        yield [0] * (width * height), 1
    monkeypatch.setattr(sft, "_search", all_zero)
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f)
    assert code == 2
    rep = report_of(out)
    assert rep["error"] == "the 1x1 torus witness fails re-validation"
    assert "outcome" not in rep


def test_annihilator_oversized_system_is_input_error(tmp_path, capsys,
                                                    monkeypatch):
    # 400 window cells x 400 support cells x 400 is far over the ceiling,
    # so the search must not start
    monkeypatch.setattr(algebra, "annihilator_search", None)
    rows = [[(3 * i + j * j) % 3 for i in range(40)] for j in range(40)]
    f = write(tmp_path, "w.json", {"kind": "window", "rows": rows})
    code, out = run(capsys, "annihilator", f, "--support", "20x20",
                    "--window", "20x20@19,19")
    assert code == 3
    assert MAX_ELIMINATION_WORK == 5_000_000
    assert report_of(out)["error"] == (
        "expected window cells x support cells x the smaller of the two to "
        "be at most 5000000, got 400 window and 400 support cells")


@pytest.mark.parametrize("doc, options, check, message", [
    # the periodic check reads one block of f.c; a nonzero block fails it
    (PER23, (), ("_fc_block", lambda f, c: [[1]]),
     "period difference product failed to annihilate"),
    ({"kind": "window",
      "rows": [[(i + j) % 2 for i in range(6)] for j in range(6)]},
     ("--support", "2x2", "--window", "4x4@1,1"),
     ("annihilates", lambda f, c, window: False),
     "kernel vector failed re-verification"),
], ids=["periodic", "search"])
def test_annihilator_failed_self_check_is_an_error_report(
        tmp_path, capsys, monkeypatch, doc, options, check, message):
    monkeypatch.setattr(algebra, *check)
    f = write(tmp_path, "c.json", doc)
    code, out = run(capsys, "annihilator", f, *options)
    assert code == 2
    rep = report_of(out)
    assert rep["error"] == message
    assert "outcome" not in rep


def test_determinism_two_sided(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "determinism", f, "--dir", "1,0", "--k", "2",
                    "--R", "4")
    assert code == 0
    assert report_of(out)["outcome"]["label"] == "two_sided"


def test_determinism_full_shift(tmp_path, capsys):
    full = {"shape": "rect 2 2", "alphabet": [0, 1],
            "allowed": [[[a, b], [c, d]] for a in (0, 1) for b in (0, 1)
                        for c in (0, 1) for d in (0, 1)]}
    f = write(tmp_path, "full.json", full)
    code, out = run(capsys, "determinism", f, "--dir", "1,0")
    assert report_of(out)["outcome"]["label"] == "non_deterministic"


@pytest.mark.parametrize("doc, argv, message", [
    (CHECKERBOARD, ["determinism", "--dir", "0,0"],
     "probe direction must be nonzero"),
    ({"kind": "window", "rows": [[0, 1, 0], [1, 1, 0], [0, 0, 1]]},
     ["complexity", "--shape", "2x2", "--window", "5x5"],
     "cell (3, 0) outside window (0, 0, 2, 2)"),
], ids=["zero-direction", "window-outside-config"])
def test_domain_errors_exit_4(tmp_path, capsys, doc, argv, message):
    f = write(tmp_path, "in.json", doc)
    code, out = run(capsys, argv[0], f, *argv[1:])
    assert code == 4
    rep = report_of(out)
    assert rep["error"] == message
    assert "outcome" not in rep


@pytest.mark.parametrize("doc, rect", [
    (PER23, (12, 16)),       # (4a+4) x (4c+4) for the 2x3 block
    (FIVE_WINDOW, (4, 4)),   # the window configuration's own rectangle
], ids=["periodic", "window"])
def test_balanced_default_window(tmp_path, capsys, monkeypatch, doc, rect):
    windows = []
    search = balanced.balanced_search
    monkeypatch.setattr(balanced, "balanced_search", lambda *args:
                        windows.append(args[4]) or search(*args))
    f = write(tmp_path, "c.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", balanced.NotLowComplexityWarning)
        code, _ = run(capsys, "balanced", f, "--u", "0,1", "--n", "2",
                      "--m", "2")
    assert code == 0
    assert windows == [DiscreteDomain.rect(*rect)]


def test_balanced_search_not_found(tmp_path, capsys):
    # one-cell sets are low complexity only on a one-color coloring
    stripes = {"kind": "window", "rows": [[0, 1, 0, 1]] * 4}
    f = write(tmp_path, "s.json", stripes)
    code, out = run(capsys, "balanced", f, "--u", "0,1", "--n", "2",
                    "--m", "2", "--area-budget", "1")
    assert code == 0
    assert report_of(out)["outcome"]["search"] == {"found": False}


def test_balanced_constant(tmp_path, capsys):
    f = write(tmp_path, "c.json", CONSTANT)
    code, out = run(capsys, "balanced", f, "--u", "0,1", "--n", "2",
                    "--m", "2", "--window", "10x10")
    assert code == 0
    rep = report_of(out)
    rect = rep["outcome"]["rectangle"]
    assert (rect["pattern_count"], rect["inner_pattern_count"],
            rect["edge_size"]) == (1, 1, 2)
    assert rect["balanced"]
    search = rep["outcome"]["search"]
    assert search["found"]
    r = search["report"]
    assert (r["pattern_count"], r["inner_pattern_count"], r["edge_size"]) == (1, 1, 1)
    assert r["balanced"]


def test_decide_golden_report(tmp_path, capsys):
    from pathlib import Path
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f, "--budget", "50000")
    assert code == 0
    got = json.loads(out)
    del got["wall_time_s"]
    got["command"] = ["decide", "INPUT", "--budget", "50000"]
    got["input_digest"] = "sha256:INPUT"
    expected = json.loads(
        (Path(__file__).parent / "golden"
         / "decide_checkerboard.json").read_text())
    assert got == expected


def test_annihilator_golden_report(tmp_path, capsys):
    f = write(tmp_path, "p.json", PER23)
    code, out = run(capsys, "annihilator", f)
    assert code == 0
    got = json.loads(out)
    del got["wall_time_s"]
    got["command"] = ["annihilator", "INPUT"]
    got["input_digest"] = "sha256:INPUT"
    expected = json.loads(
        (Path(__file__).parent / "golden"
         / "annihilator_per23.json").read_text())
    assert got == expected


@pytest.mark.parametrize("golden, argv", [
    ("complexity_per23_8x8", ["complexity", "--shape", "2x2",
                              "--window", "8x8"]),
    ("complexity_per23_8x3", ["complexity", "--shape", "2x2",
                              "--window", "8x3"]),
    ("balanced_per23", ["balanced", "--u", "0,1", "--n", "2", "--m", "2"]),
    ("balanced_per23_12x4", ["balanced", "--u", "0,1", "--n", "2",
                             "--m", "2", "--window", "12x4"]),
])
def test_counting_golden_reports(tmp_path, capsys, golden, argv):
    # complexity reads one shape; balanced reads the rectangle and the
    # search's sets, with the box in every lattice coset (default window)
    # and without it (12x4)
    f = write(tmp_path, "p.json", PER23)
    command, *options = argv
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", balanced.NotLowComplexityWarning)
        code, out = run(capsys, command, f, *options)
    assert code == 0
    got = json.loads(out)
    del got["wall_time_s"]
    got["command"] = [command, "INPUT", *options]
    got["input_digest"] = "sha256:INPUT"
    expected = json.loads(
        (Path(__file__).parent / "golden" / f"{golden}.json").read_text())
    assert got == expected


def test_reports_byte_identical(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    outs = []
    for _ in range(2):
        code, out = run(capsys, "decide", f, "--budget", "50000")
        rep = json.loads(out)
        del rep["wall_time_s"]
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("budget", ["0", "-3", "abc", "1e3",
                                    pytest.param("", id="empty")])
def test_bad_budget_is_input_error(tmp_path, capsys, budget):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    assert main(["decide", f, "--budget", budget]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget" in captured.err


def test_reports_ignore_the_environment(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    argvs = (["decide", f], ["determinism", f, "--dir", "1,0"])

    def reports():
        return [(code, report_of(out))
                for code, out in (run(capsys, *argv) for argv in argvs)]

    monkeypatch.delenv("TILECRAFT_BUDGET", raising=False)
    plain = reports()
    monkeypatch.setenv("TILECRAFT_BUDGET", "2")
    assert reports() == plain
    assert [code for code, _ in plain] == [0, 0]


@pytest.mark.parametrize("doc", [CHECKERBOARD, CONVEX3],
                         ids=["checkerboard", "convex3"])
@pytest.mark.parametrize("options", [["decide"],
                                     ["determinism", "--dir", "1,0"]],
                         ids=["decide", "determinism"])
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, doc, options):
    f = write(tmp_path, "set.json", doc)
    command, *rest = options
    reports = set()
    for seed in "012":
        proc = cold([command, f, *rest], {"PYTHONHASHSEED": seed},
                    capture_output=True)
        assert proc.returncode == 0, proc.stderr
        reports.add(re.sub(rb',"wall_time_s":[^,}]*', b"", proc.stdout))
    assert len(reports) == 1
    assert b"wall_time_s" not in reports.pop()


def test_a_closed_stdout_is_not_a_verdict(tmp_path):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cold(["decide", f], stdout=write_end, stderr=subprocess.PIPE,
                    text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_UNWRITTEN == 5
    assert proc.stderr == ""


def test_determinism_golden_report(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "determinism", f, "--dir", "1,0")
    assert code == 0
    got = json.loads(out)
    del got["wall_time_s"]
    got["command"] = ["determinism", "INPUT", "--dir", "1,0"]
    got["input_digest"] = "sha256:INPUT"
    expected = json.loads(
        (Path(__file__).parent / "golden"
         / "determinism_checkerboard.json").read_text())
    assert got == expected


def sha256_of(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                    reason="no /dev/stdin on this platform")
def test_decide_reads_a_pipe(tmp_path):
    data = json.dumps(CHECKERBOARD).encode()
    proc = cold(["decide", "/dev/stdin"], input=data, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["outcome"]["kind"] == "non_empty_periodic"
    assert rep["input_digest"] == sha256_of(data)


@pytest.mark.parametrize("data, code", [
    (json.dumps(CHECKERBOARD).encode(), 0),
    (b'{"shape": "rect 2 2", "alphabet": [0, 1], "allowed": [}', 3),
    (b'{"shape": "rect 2 2", "alphabet": [0, 1], "x": "\xe9"}', 3),
], ids=["valid", "malformed", "not-utf-8"])
def test_input_digest_is_the_sha256_of_the_file(tmp_path, capsys, data,
                                                code):
    path = tmp_path / "set.json"
    path.write_bytes(data)
    got, out = run(capsys, "decide", str(path))
    assert got == code
    assert report_of(out)["input_digest"] == sha256_of(data)


# the messages the command line gave when it read the file in text mode
@pytest.mark.parametrize("data, message", [
    (b'{"shape": "rect 2 2",\r\n "alphabet": [0, 1],\r\n "allowed": [}\r\n',
     "line 3 column 14: Expecting value"),
    (b'{"shape": "rect 2 2",\r "alphabet": [0, 1],\r "allowed": [}\r',
     "line 3 column 14: Expecting value"),
    (b'{\r\n\r"a":\n\r\n 1,\r\r "b": }', "line 7 column 7: Expecting value"),
    (b'\xef\xbb\xbf{"shape": "rect 2 2", "alphabet": [0, 1]}',
     "line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (b'{"shape": "rect 2 2", "alphabet": [0, 1], "x": "\xe9"}',
     "'utf-8' codec can't decode byte 0xe9 in position 48: "
     "invalid continuation byte"),
], ids=["crlf", "bare-cr", "mixed-newlines", "utf-8-bom", "not-utf-8"])
def test_parse_errors_read_as_in_text_mode(tmp_path, capsys, data, message):
    path = tmp_path / "set.json"
    path.write_bytes(data)
    code, out = run(capsys, "decide", str(path))
    assert code == 3
    assert report_of(out)["error"] == f"{path}: {message}"


@pytest.mark.parametrize("doc, argv", [
    (CHECKERBOARD, ["decide"]),
    (PER23, ["complexity", "--shape", "2x2", "--window", "8x8"]),
    (PER23, ["annihilator"]),
    (CHECKERBOARD, ["determinism", "--dir", "1,0"]),
    (PER23, ["balanced", "--u", "0,1", "--n", "2", "--m", "2"]),
], ids=["decide", "complexity", "annihilator", "determinism", "balanced"])
def test_each_command_opens_its_input_once(tmp_path, capsys, monkeypatch,
                                           doc, argv):
    f = write(tmp_path, "input.json", doc)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    command, *options = argv
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", balanced.NotLowComplexityWarning)
        code, out = run(capsys, command, f, *options)
    monkeypatch.undo()
    assert code == 0, out
    assert opened.count(f) == 1


@pytest.mark.parametrize("doc, argv", [
    (CHECKERBOARD, ["decide", "--budget", "1e3"]),
    (CHECKERBOARD, ["determinism", "--dir", "1,0", "--k", "two"]),
    (CHECKERBOARD, ["determinism", "--dir", "1,0", "--R", "4.0"]),
    (CHECKERBOARD, ["determinism", "--dir", "1,0", "--budget", "1e3"]),
    (PER23, ["balanced", "--u", "0,1", "--n", "2.5", "--m", "2"]),
    (PER23, ["balanced", "--u", "0,1", "--n", "2", "--m", "x"]),
    (PER23, ["balanced", "--u", "0,1", "--n", "2", "--m", "2",
             "--area-budget", "six"]),
], ids=["decide-budget", "k", "R", "determinism-budget", "n", "m",
        "area-budget"])
def test_non_integer_options_name_no_function(tmp_path, capsys, doc, argv):
    f = write(tmp_path, "input.json", doc)
    command, *options = argv
    assert main([command, f, *options]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a positive integer" in captured.err
    assert "_positive_int" not in captured.err


@pytest.mark.parametrize("doc, argv, line", [
    (PER23, ["balanced", "--u", "0,1", "--n", "2", "--m", "2"],
     "tilecraft: warning: NotLowComplexityWarning: coloring has 6 > 4 "
     "patterns on the 2x2 rectangle; balanced set may not exist\n"),
    ({"kind": "window", "rows": [[0] * 3] * 3},
     ["annihilator", "--support", "2x2", "--window", "2x2@1,1"],
     "tilecraft: warning: ZeroSeriesWarning: coloring is the zero series "
     "on the window\n"),
], ids=["not-low-complexity", "zero-series"])
def test_a_warning_is_one_stderr_line(tmp_path, doc, argv, line):
    f = write(tmp_path, "input.json", doc)
    command, *options = argv
    proc = cold([command, f, *options], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == line
    assert ".py:" not in proc.stderr
    json.loads(proc.stdout)
