"""Build the input pools and record their reference outcomes.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``.  Run it only at a commit whose
outcomes are trusted: every later run of the benchmark is checked
against what it records.  The pools come from fixed seeds, so a re-run
at the same commit reproduces the file except for the recorded
analysis costs, which are wall times and only order the pool.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import platform
import random
import statistics
import sys
import time
import warnings
from pathlib import Path

import workloads as wl
from run import source_facts

CENSUS_BUDGET = 20_000
CENSUS_POOLS = (  # name, colors, w, h, max patterns, pool size, group
    ("c3_2x2", (0, 1, 2), 2, 2, 4, 2000, 4),
    ("bin3x2", (0, 1), 3, 2, 6, 2000, 4),
    ("bin3x3", (0, 1), 3, 3, 9, 1000, 4),
)
PROBE_BUDGET = 400_000
ORBITS = 6                 # orbit sets; each is probed in all 8 directions
WALK_ITEMS = 24
ANALYSIS_ITEMS = 30
INVALID_DOCS = (
    {"shape": 7, "alphabet": []},
    {"shape": "rect 2 2", "alphabet": "01", "allowed": [[[0, 1]]],
     "extra": 1},
    {"shape": [[0, 0], [1]], "alphabet": [0, 1]},
    {"alphabet": [], "allowed": {}},
)


def index_of(colors, values) -> int:
    pos = {c: d for d, c in enumerate(colors)}
    i = 0
    for v in values:
        i = i * len(colors) + pos[v]
    return i


def census(tc) -> dict:
    sft = tc.sft
    codes = []
    for idx in wl.binary_2x2_sets():
        ps = wl.pattern_set(tc, (0, 1), 2, 2, wl.decode_tuples((0, 1), 4, idx))
        codes.append(wl.outcome_code(tc, sft.decide(ps, CENSUS_BUDGET)))
    pools = []
    for name, colors, w, h, most, size, group in CENSUS_POOLS:
        rng = random.Random(f"census-pool:{name}")
        n_patterns = len(colors) ** (w * h)
        seen, items = set(), []
        while len(items) < size:
            idx = tuple(sorted(rng.sample(range(n_patterns),
                                          rng.randint(1, most))))
            if idx in seen:
                continue
            seen.add(idx)
            ps = wl.pattern_set(tc, colors, w, h,
                                wl.decode_tuples(colors, w * h, idx))
            outcome, nodes = sft.decide_with_usage(ps, CENSUS_BUDGET)
            items.append([list(idx), wl.outcome_code(tc, outcome), nodes])
        items.sort(key=lambda it: (it[2], it[0]))
        pools.append({"name": name, "colors": list(colors), "w": w, "h": h,
                      "group": group, "items": items})
    return {"budget": CENSUS_BUDGET, "bin2x2": codes, "pools": pools}


def orbit_forced_at(tc, config, u, k) -> bool:
    """Exact forcing on the orbit of a periodic coloring (criterion 5)."""
    Vec2 = tc.grid.Vec2
    box = tc.sft.box_cells(u, k)
    phases = [Vec2(i, j) for j in range(config.span_y)
              for i in range(config.span_x)]
    for d1 in phases:
        for d2 in phases:
            if d1 != d2 and all(config.color_at(n - d1) == config.color_at(n - d2)
                                for n in box.cells):
                if config.color_at(-d1) != config.color_at(-d2):
                    return False
    return True


def probe(tc) -> dict:
    g, sft = tc.grid, tc.sft
    dirs = [g.Vec2(*d) for d in wl.DIRECTIONS]

    def entry(colors, w, h, tuples, u, k, radius):
        ps = wl.pattern_set(tc, colors, w, h, tuples)
        rep = sft.determinism_probe(ps, u, k, radius, PROBE_BUDGET)
        idx = sorted(index_of(colors, t) for t in tuples)
        return [list(colors), w, h, idx, list(u), rep.verdict, rep.nodes_used]

    rng = random.Random("probe-pool:orbit")
    orbit, seen = [], set()
    while len(seen) < ORBITS:
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        block = [[rng.choice([0, 1, 2]) for _ in range(p)] for _ in range(q)]
        c = g.PeriodicConfig.from_block(block)
        key = json.dumps(block)
        if (c.span_x, c.span_y, c.shear) != (p, q, 0) or key in seen:
            continue
        if not all(orbit_forced_at(tc, c, u, 4) for u in dirs):
            continue
        seen.add(key)
        pats = g.patterns_of(c, g.DiscreteDomain.rect(p + 1, q + 1),
                             g.DiscreteDomain.rect(4 * (p + 1), 4 * (q + 1)))
        colors = tuple(sorted({v for pat in pats for v in pat.values}))
        tuples = [pat.values for pat in pats]
        orbit += [entry(colors, p + 1, q + 1, tuples, u, 4, 8) for u in dirs]

    rng = random.Random("probe-pool:walk")
    all2 = list(itertools.product((0, 1), repeat=4))
    walk, seen, excluded = [], set(), 0
    while len(walk) < WALK_ITEMS:
        tuples = sorted(rng.sample(all2, rng.randint(5, 8)))
        u = rng.choice(dirs)
        key = (tuple(tuples), u)
        if key in seen:
            continue
        seen.add(key)
        item = entry((0, 1), 2, 2, tuples, u, 2, 4)
        # some 7- and 8-pattern sets stay unresolved after 20M nodes at
        # radius 4; the class holds the draws the budget resolves
        if item[5] == "inconclusive":
            excluded += 1
            continue
        walk.append(item)

    out = {"budget": PROBE_BUDGET, "walk_draws_inconclusive": excluded}
    for name, items, k, radius in (("orbit", orbit, 4, 8),
                                   ("walk", walk, 2, 4)):
        items.sort(key=lambda it: (it[6], it[3], it[4]))
        out[name] = {"k": k, "radius": radius, "items": items}
    return out


def analysis(tc) -> dict:
    rng = random.Random("analysis-pool")
    items = []
    for trial in range(ANALYSIS_ITEMS):
        w, h, k = rng.randint(1, 4), rng.randint(1, 4), rng.choice((2, 3))
        block = [[rng.randrange(k) for _ in range(w)] for _ in range(h)]
        u = list(rng.choice(wl.BALANCED_DIRECTIONS))
        # window configurations as in criterion 7: half noise, half periodic
        ww, wh = rng.randint(3, 6), rng.randint(3, 6)
        sw, sh = rng.randint(1, min(3, ww)), rng.randint(1, min(3, wh))
        if trial % 2 == 0:
            rows = [[rng.randint(0, 1) for _ in range(ww)] for _ in range(wh)]
        else:
            bp, bq = rng.randint(1, 2), rng.randint(1, 2)
            base = [[rng.randint(0, 2) for _ in range(bp)] for _ in range(bq)]
            rows = [[base[j % bq][i % bp] for i in range(ww)] for j in range(wh)]
        items.append([block, u, rows, [sw, sh], None, None])
    for raw in items:
        single = wl.Analysis(tc, 0, {"analysis": [raw]})
        (item,) = single.items
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = single.run(item)
            times.append(time.perf_counter() - t0)
        raw[4] = single.summary(result)
        raw[5] = round(statistics.median(times) * 1e3, 3)
    items.sort(key=lambda it: it[5])
    return items


def cli(tc) -> dict:
    wl.OUT.mkdir(parents=True, exist_ok=True)
    path = wl.OUT / "record-invalid.json"
    invalid = []
    for doc in INVALID_DOCS:
        path.write_text(json.dumps(doc), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tc.cli.main(["decide", str(path)])
        details = json.loads(buf.getvalue().strip().splitlines()[-1]).get(
            "error_details", [])
        if code != 3 or len(details) < 2:
            raise SystemExit(f"not an enumerated schema error: {doc!r}")
        invalid.append([doc, len(details)])
    path.unlink()
    return {"invalid": invalid}


def main() -> int:
    if not wl.ensure_src_on_path():
        print("src/tilecraft not found", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    tc = wl.Tilecraft()
    ref = {
        "recorded_at": {"commit": source_facts()["commit"],
                        "python": platform.python_version()},
        "census": census(tc),
        "probe": probe(tc),
        "analysis": analysis(tc),
        "cli": cli(tc),
    }
    bad = [it for p in ref["census"]["pools"] for it in p["items"]
           if it[1] == "U"]
    bad += [c for c in ref["census"]["bin2x2"] if c == "U"]
    bad += [it for cls in ("orbit", "walk") for it in ref["probe"][cls]["items"]
            if it[5] == "inconclusive"]
    print(f"walk draws left out as inconclusive at the budget: "
          f"{ref['probe']['walk_draws_inconclusive']}")
    print(f"undecided or inconclusive pool entries: {len(bad)}")
    path = Path(wl.__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
