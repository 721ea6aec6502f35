"""The four benchmark workloads: input construction, operations and checks.

Every workload is a closed loop with one client.  A plan holds the
inputs of one pass in run order; run.py times ``run`` on each input,
then calls ``check`` outside the timed interval, and calls ``end_pass``
after the last input of a pass.  Inputs come from the pools in
``reference.json``, which also holds the outcome each input gave at the
commit where the pools were recorded.

In ``census`` a seed draws one input from each group of ``group``
neighbouring entries of each sampled pool.  The pools are sorted by
their recorded cost, so two seeds run different inputs with nearly the
same mix of cheap and costly ones.  The probe and analysis costs are
heavy-tailed (a probe takes from 0.3 ms to 0.6 s), so there a sample
would change the mean by more than the bounds allow: every seed runs
the whole pool, in an order the seed draws.  Warm-up runs the cheapest
pool entries, so set-up time does not depend on the seed.

The library is reached through module attributes at call time
(``self.tc.sft.decide_with_usage``), so the tracer can wrap those
attributes for a traced run and the untraced run calls the library
directly.

Every plan can also be built on ``seedcode/tilecraft``, a frozen copy
of the package as it was when the benchmark was added.  run.py times a
fixed part of such a plan, its ``yard``, between chunks of timed
operations, as the yardstick for the machine's speed at that moment.
"""

from __future__ import annotations

import importlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SEED_SRC = HERE / "seedcode"
SEED_PACKAGE = "tilecraft_seed"  # the seed copy's in-process module name

MODULES = ("sft", "grid", "algebra", "linalg", "balanced", "serialize", "cli")

DIRECTIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1), (1, 2), (2, 1), (-1, -2),
              (-2, -1))
BALANCED_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (2, -1))

CENSUS_WARMUP = 200        # census sets decided before timing starts
PROBE_WARMUP = 4
ANALYSIS_WARMUP = 2

PERIOD_BOUND = 3           # find_periods Chebyshev bound
BALANCED_SIDE = 2          # balanced_search n = m
AREA_BUDGET = 3            # balanced_search area_budget

CLI_PER_KIND = 4           # CLI inputs of each kind in one pass
CLI_TIMEOUT_S = 120

# the yardstick items: fixed, so they do not depend on the seed
CENSUS_YARD_STEP = 25      # every 25th binary 2x2 set
PROBE_YARD = (("orbit", 0), ("orbit", 8), ("walk", 0), ("walk", 5))
ANALYSIS_YARD = (0, 10, 20)
CLI_YARD_SET = 1237        # index of a non-empty binary 2x2 set


class Tilecraft:
    """Freshly imported tilecraft modules, one attribute per module.

    ``seed=True`` imports the frozen copy under seedcode/ as
    ``tilecraft_seed``, beside the program's package.
    """

    def __init__(self, seed: bool = False):
        package = SEED_PACKAGE if seed else "tilecraft"
        self.src = SEED_SRC if seed else SRC
        for name in [m for m in sys.modules
                     if m == package or m.startswith(package + ".")]:
            del sys.modules[name]
        if seed:
            init = SEED_SRC / "tilecraft" / "__init__.py"
            spec = importlib.util.spec_from_file_location(
                package, init, submodule_search_locations=[str(init.parent)])
            module = importlib.util.module_from_spec(spec)
            sys.modules[package] = module
            spec.loader.exec_module(module)
        else:
            importlib.import_module(package)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{package}.{name}"))


def ensure_src_on_path() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (SRC / "tilecraft" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def load_reference() -> dict:
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stratified(n: int, group: int, rng: random.Random) -> list[int]:
    """One index from each run of ``group`` consecutive pool indices."""
    return [g + rng.randrange(min(group, n - g)) for g in range(0, n, group)]


def decode_tuples(colors, length: int, indices) -> list[tuple[int, ...]]:
    """Value tuples for pattern indices in itertools.product order."""
    k = len(colors)
    out = []
    for i in indices:
        vals = [0] * length
        for j in range(length - 1, -1, -1):
            i, d = divmod(i, k)
            vals[j] = colors[d]
        out.append(tuple(vals))
    return out


def binary_2x2_sets() -> list[list[int]]:
    """All 2,517 binary 2x2 sets with at most 4 patterns, as index lists."""
    return [list(c) for size in range(5)
            for c in itertools.combinations(range(16), size)]


def pattern_set(tc: Tilecraft, colors, w: int, h: int, tuples, shift: int = 0):
    return tc.sft.PatternSet.from_value_tuples(
        tc.grid.Alphabet.of([c + shift for c in colors]),
        tc.grid.DiscreteDomain.rect(w, h),
        [tuple(v + shift for v in t) for t in tuples])


def outcome_code(tc: Tilecraft, outcome) -> str:
    """'E<n>' for Empty, 'P<p>x<q>' for a witness, 'U' otherwise."""
    if isinstance(outcome, tc.sft.Empty):
        return f"E{outcome.n}"
    if isinstance(outcome, tc.sft.NonEmptyPeriodic):
        return f"P{outcome.witness.p}x{outcome.witness.q}"
    return "U"


class Plan:
    """Defaults for a workload without pass-level checks or per-pass inputs."""

    warm: list  # inputs run untimed before the first pass
    yard: list  # the yardstick's inputs, the same for every seed

    def warm_up(self) -> None:
        for item in self.warm:
            self.run(item)

    def end_pass(self) -> set[int]:
        return set()

    def next_pass(self) -> None:
        pass


# ---------------------------------------------------------------------------
# census


class Census(Plan):
    """decide_with_usage over the 2x2 scan plus seeded samples.

    Pass number s decides every set with its colors shifted by s.  The
    shift keeps the order of the colors, so the search, the node count
    and the outcome (after shifting back) are those of pass 0, while no
    two passes hand the program equal inputs: a cache keyed by pattern
    set never hits, as in a real census where each set is decided once.
    """

    name = "census"

    def __init__(self, tc: Tilecraft, seed: int, ref: dict):
        self.tc = tc
        r = ref["census"]
        self.budget = r["budget"]
        rng = random.Random(seed)
        specs = [((0, 1), 2, 2, decode_tuples((0, 1), 4, idx), code)
                 for idx, code in zip(binary_2x2_sets(), r["bin2x2"])]
        for pool in r["pools"]:
            items = pool["items"]
            colors = tuple(pool["colors"])
            length = pool["w"] * pool["h"]
            for i in stratified(len(items), pool["group"], rng):
                idx, code, _nodes = items[i]
                specs.append((colors, pool["w"], pool["h"],
                              decode_tuples(colors, length, idx), code))
        self.warm = specs[:CENSUS_WARMUP]
        self.yard = self._build(specs[:len(r["bin2x2"]):CENSUS_YARD_STEP], 0)
        rng.shuffle(specs)
        self.specs = specs
        self.shift = 0
        self.items = self._build(specs, 0)
        self.rows: list = [None] * len(self.items)
        self.first_report: bytes | None = None
        self.first_rows: list | None = None

    def _build(self, specs, shift):
        return [(pattern_set(self.tc, colors, w, h, tuples, shift), code)
                for colors, w, h, tuples, code in specs]

    def warm_up(self) -> None:
        # a shift no timed pass uses, so warm-up leaves nothing to reuse
        for ps, _ in self._build(self.warm, -1):
            self.tc.sft.decide_with_usage(ps, self.budget)

    def op_name(self, item) -> str:
        return "census"

    def run(self, item):
        return self.tc.sft.decide_with_usage(item[0], self.budget)

    def check(self, i: int, item, result) -> bool:
        ps, code = item
        outcome, _nodes = result
        row = self.tc.serialize.outcome_to_json(outcome)
        if "witness" in row:
            row["witness"]["values"] = [[v - self.shift for v in r]
                                        for r in row["witness"]["values"]]
        self.rows[i] = row
        if outcome_code(self.tc, outcome) != code:
            return False
        if isinstance(outcome, self.tc.sft.NonEmptyPeriodic):
            return self.tc.sft.validate_witness(ps, outcome.witness)
        return True

    def end_pass(self) -> set[int]:
        """Indices whose row differs from pass 0's byte-identical report."""
        report = self.tc.serialize.canonical_json(self.rows).encode()
        if self.first_report is None:
            self.first_report, self.first_rows = report, list(self.rows)
            return set()
        if report == self.first_report:
            return set()
        return {i for i, (a, b) in enumerate(zip(self.rows, self.first_rows))
                if a != b} or set(range(len(self.rows)))

    def next_pass(self) -> None:
        self.shift += 1
        self.items = self._build(self.specs, self.shift)
        self.rows = [None] * len(self.items)


# ---------------------------------------------------------------------------
# probe


class Probe(Plan):
    """determinism_probe on criterion-5 orbit sets and walk-path sets."""

    name = "probe"

    def __init__(self, tc: Tilecraft, seed: int, ref: dict):
        self.tc = tc
        r = ref["probe"]
        self.budget = r["budget"]
        items = []
        for cls in ("orbit", "walk"):
            pool = r[cls]
            for colors, w, h, idx, u, verdict, _nodes in pool["items"]:
                ps = pattern_set(tc, colors, w, h,
                                 decode_tuples(colors, w * h, idx))
                items.append((cls, ps, tc.grid.Vec2(*u), pool["k"],
                              pool["radius"], verdict))
        self.warm = items[:PROBE_WARMUP]
        first = {"orbit": 0, "walk": len(r["orbit"]["items"])}
        self.yard = [items[first[cls] + i] for cls, i in PROBE_YARD]
        random.Random(seed).shuffle(items)
        self.items = items

    def op_name(self, item) -> str:
        return f"probe.{item[0]}"

    def run(self, item):
        _cls, ps, u, k, radius, _verdict = item
        return self.tc.sft.determinism_probe(ps, u, k, radius, self.budget)

    def check(self, i: int, item, result) -> bool:
        return result.verdict != "inconclusive" and result.verdict == item[5]


# ---------------------------------------------------------------------------
# analysis


class Analysis(Plan):
    """Annihilator, period, pattern and balanced kernels; sft is not used.

    One operation is the bundle on one PeriodicConfig followed by
    annihilator_search on one WindowConfig.
    """

    name = "analysis"

    def __init__(self, tc: Tilecraft, seed: int, ref: dict):
        self.tc = tc
        g = tc.grid
        self.window20 = g.DiscreteDomain.rect(20, 20)
        self.window24 = g.DiscreteDomain.rect(24, 24)
        self.shape3 = g.DiscreteDomain.rect(3, 3)
        items = []
        for block, u, rows, (sw, sh), expected, _cost in ref["analysis"]:
            c = g.PeriodicConfig.from_block(block)
            bwin = g.DiscreteDomain.rect(4 * c.span_x + 4, 4 * c.span_y + 4)
            wc = g.WindowConfig.from_rows(rows)
            support = g.DiscreteDomain.rect(sw, sh)
            wwin = g.DiscreteDomain.rect(len(rows[0]) - sw + 1,
                                         len(rows) - sh + 1,
                                         g.Vec2(sw - 1, sh - 1))
            items.append((c, g.Vec2(*u), bwin, wc, wwin, support, expected))
        self.warm = items[:ANALYSIS_WARMUP]
        self.yard = [items[i] for i in ANALYSIS_YARD]
        random.Random(seed).shuffle(items)
        self.items = items

    def op_name(self, item) -> str:
        return "analysis"

    def run(self, item):
        c, u, bwin, wc, wwin, support, _expected = item
        alg, grid = self.tc.algebra, self.tc.grid
        cert = alg.periodic_annihilator(c)
        values = alg.apply(cert.poly, c, self.window20)
        periods = grid.find_periods(c, None, PERIOD_BOUND)
        patterns = grid.patterns_of(c, self.shape3, self.window24)
        found = self.tc.balanced.balanced_search(
            c, BALANCED_SIDE, BALANCED_SIDE, u, bwin, AREA_BUDGET)
        wcert = alg.annihilator_search(wc, wwin, support)
        return cert, values, periods, patterns, found, wcert

    def summary(self, result) -> dict:
        """The outcome fields compared against the reference."""
        cert, _values, periods, patterns, found, wcert = result
        fmt = self.tc.algebra.format_poly
        return {
            "poly": fmt(cert.poly),
            "periods": len(periods),
            "patterns": len(patterns),
            "balanced": None if found is None else
            [[[v.x, v.y] for v in found.domain.cells],
             [found.orientation.x, found.orientation.y]],
            "window_poly": None if wcert is None else fmt(wcert.poly),
        }

    def check(self, i: int, item, result) -> bool:
        c, _u, _bwin, wc, wwin, _support, expected = item
        cert, values, _periods, _patterns, _found, wcert = result
        if any(values.values()):
            return False
        if wcert is not None and any(
                self.tc.algebra.apply(wcert.poly, wc, wwin).values()):
            return False
        return self.summary(result) == expected


# ---------------------------------------------------------------------------
# cli


def cli_env(src: Path = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def cli_decide(path: str, env: dict) -> tuple[int, str, int]:
    """One cold ``python -m tilecraft.cli decide FILE``.

    Returns the exit code, the standard output and the child's own peak
    RSS in KiB, which wait4 gives when it reaps the child.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "tilecraft.cli", "decide", path],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read().decode()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, stdout, usage.ru_maxrss


class Cli(Plan):
    """Cold CLI decisions on a fixed mix of valid and invalid documents."""

    name = "cli"

    def __init__(self, tc: Tilecraft, seed: int, ref: dict):
        self.tc = tc
        self.env = cli_env(tc.src)
        self.maxrss_kib = 0  # largest peak RSS of a checked child
        rng = random.Random(seed)
        codes = ref["census"]["bin2x2"]
        sets = binary_2x2_sets()
        nonempty = [i for i, c in enumerate(codes) if c.startswith("P")]
        empty = [i for i, c in enumerate(codes) if c.startswith("E")]
        indir = OUT / f"cli-inputs-{tc.src.name}"
        indir.mkdir(parents=True, exist_ok=True)
        docs = []
        for i in rng.sample(nonempty, CLI_PER_KIND) + rng.sample(
                empty, CLI_PER_KIND):
            ps = pattern_set(tc, (0, 1), 2, 2, decode_tuples((0, 1), 4, sets[i]))
            text = json.dumps(tc.serialize.pattern_set_to_json(ps))
            docs.append(("valid", text, codes[i]))
        for doc, n_details in rng.sample(ref["cli"]["invalid"], CLI_PER_KIND):
            docs.append(("invalid", json.dumps(doc), n_details))
        for i in rng.sample(range(len(sets)), CLI_PER_KIND):
            ps = pattern_set(tc, (0, 1), 2, 2, decode_tuples((0, 1), 4, sets[i]))
            text = json.dumps(tc.serialize.pattern_set_to_json(ps))
            docs.append(("malformed", text[:rng.randrange(1, len(text))], None))
        rng.shuffle(docs)
        items = []
        for n, (kind, text, expected) in enumerate(docs):
            path = indir / f"input{n}.json"
            path.write_text(text, encoding="utf-8")
            items.append((kind, str(path), expected))
        self.items = items
        self.warm = items[:1]
        ps = pattern_set(tc, (0, 1), 2, 2,
                         decode_tuples((0, 1), 4, sets[CLI_YARD_SET]))
        path = indir / "yard.json"
        path.write_text(json.dumps(tc.serialize.pattern_set_to_json(ps)),
                        encoding="utf-8")
        self.yard = [("valid", str(path), codes[CLI_YARD_SET])]

    def op_name(self, item) -> str:
        return f"cli.{item[0]}"

    def run(self, item):
        return cli_decide(item[1], self.env)

    def check(self, i: int, item, result) -> bool:
        kind, _path, expected = item
        code, stdout, maxrss_kib = result
        self.maxrss_kib = max(self.maxrss_kib, maxrss_kib)
        report = json.loads(stdout.strip().splitlines()[-1])
        if kind == "invalid":
            return code == 3 and len(report.get("error_details", ())) == expected
        if kind == "malformed":
            return code == 3 and "line" in report.get("error", "")
        outcome = report["outcome"]
        if expected.startswith("E"):
            return (code == 1 and outcome["kind"] == "empty"
                    and f"E{outcome['n']}" == expected)
        w = outcome.get("witness", {})
        return (code == 0 and outcome["kind"] == "non_empty_periodic"
                and f"P{w.get('p')}x{w.get('q')}" == expected)


PLANS = {plan.name: plan for plan in (Census, Probe, Analysis, Cli)}
