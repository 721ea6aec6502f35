import json

import pytest

from tilecraft.cli import main

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


def test_decide_empty_rect_shape_is_schema_error(tmp_path, capsys):
    f = write(tmp_path, "bad.json", {**CHECKERBOARD, "shape": "rect 0 2"})
    code, out = run(capsys, "decide", f)
    assert code == 3
    assert report_of(out)["error_details"][0].startswith("$.shape: ")


def test_complexity_ragged_block_is_input_error(tmp_path, capsys):
    f = write(tmp_path, "p.json", {"kind": "periodic", "p1": [2, 0],
                                   "p2": [0, 2], "block": [[0, 1], [1]]})
    code, out = run(capsys, "complexity", f, "--shape", "2x2",
                    "--window", "4x4")
    assert code == 3
    assert "same length" in report_of(out)["error"]


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


def test_reports_byte_identical(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    outs = []
    for _ in range(2):
        code, out = run(capsys, "decide", f, "--budget", "50000")
        rep = json.loads(out)
        del rep["wall_time_s"]
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_ascii_mode(tmp_path, capsys):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f, "--ascii")
    assert code == 0
    assert "10\n01" in out


def test_env_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILECRAFT_BUDGET", "2")
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f)
    assert code == 2
    assert report_of(out)["budget"]["limit"] == 2


@pytest.mark.parametrize("budget", ["0", "-3", "abc"])
def test_bad_budget_is_input_error(tmp_path, capsys, budget):
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "decide", f, "--budget", budget)
    assert code == 3
    assert "budget" in report_of(out)["error"]


@pytest.mark.parametrize("budget", ["abc", "0", pytest.param("", id="empty")])
def test_bad_env_budget_is_input_error(tmp_path, capsys, monkeypatch, budget):
    monkeypatch.setenv("TILECRAFT_BUDGET", budget)
    f = write(tmp_path, "cb.json", CHECKERBOARD)
    code, out = run(capsys, "determinism", f, "--dir", "1,0")
    assert code == 3
    assert "budget" in report_of(out)["error"]
