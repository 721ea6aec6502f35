"""Spans around public tilecraft calls, and the per-layer metrics.

The tracer replaces module attributes with wrappers for the length of a
traced run, so calls the library makes through its own module globals
(``annihilates`` calling ``apply``, ``balanced_search`` calling
``patterns_of``, ``annihilator_search`` calling ``nullspace_vector``)
are recorded as child spans.  Calls to private functions are not
wrapped.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

# (module, attribute, span name); the span name's prefix is the layer
PATCHES = (
    ("sft", "decide_with_usage", "sft.decide_with_usage"),
    ("sft", "determinism_probe", "sft.determinism_probe"),
    ("sft", "valid_square", "sft.valid_square"),
    ("sft", "torus_search", "sft.torus_search"),
    ("sft", "validate_witness", "sft.validate_witness"),
    ("grid", "patterns_of", "grid.patterns_of"),
    ("grid", "find_periods", "grid.find_periods"),
    ("balanced", "patterns_of", "grid.patterns_of"),
    ("algebra", "apply", "algebra.apply"),
    ("algebra", "periodic_annihilator", "algebra.periodic_annihilator"),
    ("algebra", "annihilator_search", "algebra.annihilator_search"),
    ("algebra", "nullspace_vector", "linalg.nullspace_vector"),
    ("linalg", "nullspace_vector", "linalg.nullspace_vector"),
    ("balanced", "balanced_search", "balanced.balanced_search"),
    ("balanced", "is_balanced", "balanced.is_balanced"),
    ("serialize", "pattern_set_from_json", "serialize.pattern_set_from_json"),
    ("serialize", "outcome_to_json", "serialize.outcome_to_json"),
    ("serialize", "canonical_json", "serialize.canonical_json"),
    ("workloads", "cli_decide", "cli.decide_subprocess"),
)

# span fields
ID, PARENT, OP, NAME, DEPTH, START, END = range(7)

SUITE_CENSUS_ITEMS = 1200
SUITE_PROBE_ITEMS = 12     # per probe class
SUITE_ANALYSIS_ITEMS = 12
CLI_REPEATS = 3


class Tracer:
    """Records spans [id, parent, op, name, depth, start_ns, end_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []
        self.paused = False  # while the yardstick runs

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, self._op, name, len(self._stack), 0, 0]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def begin_op(self, name: str) -> list:
        self._op += 1
        return self._open(name)

    def end_op(self, span: list) -> None:
        self._close(span)

    def install(self, tc: wl.Tilecraft) -> None:
        for module, attr, name in PATCHES:
            mod = wl if module == "workloads" else getattr(tc, module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id parent op name depth start_ns end_ns\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_ms_by_layer(spans: list[list], first: int = 0) -> dict[str, float]:
    """Self time per layer of the spans inside operations, in ms.

    A span's self time is its duration minus the durations of its
    children; operation spans themselves belong to the benchmark.
    """
    child = {}
    for s in spans[first:]:
        if s[PARENT] >= 0:
            child[s[PARENT]] = child.get(s[PARENT], 0) + s[END] - s[START]
    out: dict[str, float] = {}
    for s in spans[first:]:
        if s[DEPTH] == 0:
            continue
        layer = s[NAME].split(".")[0]
        own = s[END] - s[START] - child.get(s[ID], 0)
        out[layer] = out.get(layer, 0.0) + own / 1e6
    return out


def _durations(spans, name: str, depth: int | None = 1, parent_name=None):
    """Durations (ns) of the named spans, by depth and parent span name."""
    names = {s[ID]: s[NAME] for s in spans}
    out = []
    for s in spans:
        if s[NAME] != name or (depth is not None and s[DEPTH] != depth):
            continue
        if parent_name is not None and names.get(s[PARENT]) != parent_name:
            continue
        out.append(s[END] - s[START])
    return out


def _mean(values, scale: float) -> float:
    return sum(values) / len(values) / scale


def _suite_ops(tracer: Tracer, plan, items, checked: list[bool]) -> list:
    """Run items as traced suite operations; append each check's verdict."""
    results = []
    for i, item in enumerate(items):
        span = tracer.begin_op("suite." + plan.op_name(item))
        result = plan.run(item)
        tracer.end_op(span)
        checked.append(plan.check(i, item, result))
        results.append(result)
    return results


def _subprocess_ms(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=wl.ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True,
                   timeout=wl.CLI_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3


def interpreter_ms(repeats: int = CLI_REPEATS) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return statistics.median(_subprocess_ms([sys.executable, "-c", "pass"],
                                            wl.cli_env())
                             for _ in range(repeats))


def cli_probe(path: str) -> dict[str, float]:
    """Medians of the in-process CLI timings of fresh subprocesses."""
    script = str(Path(__file__).resolve().parent / "cli_probe.py")
    runs = []
    for _ in range(CLI_REPEATS):
        proc = subprocess.run([sys.executable, script, path], cwd=wl.ROOT,
                              env=wl.cli_env(), capture_output=True, text=True,
                              check=True, timeout=wl.CLI_TIMEOUT_S)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in runs)
            for key in ("import_ms", "first_call_ms", "warm_call_ms")}


def layer_suite(tc: wl.Tilecraft, seed: int, ref: dict,
                tracer: Tracer) -> tuple[dict[str, float], int, int]:
    """One fixed-size traced pass over every layer on its home inputs.

    The first SUITE_CENSUS_ITEMS census sets, the first SUITE_PROBE_ITEMS
    probes of each class,
    the first SUITE_ANALYSIS_ITEMS bundles and one CLI input of each
    kind, all as drawn by the seed; so ``sft.nodes`` repeats exactly for
    a seed.  Returns the per-layer metrics (without trace.overhead_frac)
    and the number of suite operations attempted and failed.
    """
    first = len(tracer.spans)
    m: dict[str, float] = {}
    checked: list[bool] = []

    census = wl.Census(tc, seed, ref)
    del census.items[SUITE_CENSUS_ITEMS:]
    decided = _suite_ops(tracer, census, census.items, checked)
    nodes = sum(used for _, used in decided)
    decide_ns = sum(_durations(tracer.spans[first:], "sft.decide_with_usage"))

    # budget 1 stops each search after its first node or two, so the call
    # costs the compilation of one search at the certificate's size
    mark = len(tracer.spans)
    sft = tc.sft
    for ps, code in census.items:
        span = tracer.begin_op("suite.sft_setup")
        if code[0] == "E":
            sft.valid_square(ps, int(code[1:]), 1)
        else:
            p, q = map(int, code[1:].split("x"))
            sft.torus_search(ps, p, q, 1)
        tracer.end_op(span)
    setup = tracer.spans[mark:]
    m["sft.setup_us"] = _mean(_durations(setup, "sft.valid_square")
                              + _durations(setup, "sft.torus_search"), 1e3)
    m["sft.validate_us"] = _mean(_durations(tracer.spans[first:],
                                            "sft.validate_witness", None), 1e3)

    probe = wl.Probe(tc, seed, ref)
    items = ([it for it in probe.items if it[0] == "orbit"][:SUITE_PROBE_ITEMS]
             + [it for it in probe.items if it[0] == "walk"][:SUITE_PROBE_ITEMS])
    mark = len(tracer.spans)
    reports = _suite_ops(tracer, probe, items, checked)
    spans = tracer.spans[mark:]
    nodes += sum(rep.nodes_used for rep in reports)
    probe_ns = {cls: _durations(spans, "sft.determinism_probe",
                                parent_name=f"suite.probe.{cls}")
                for cls in ("orbit", "walk")}
    m["sft.nodes"] = nodes
    m["sft.nodes_per_s"] = nodes / ((decide_ns + sum(map(sum, probe_ns.values())))
                                    / 1e9)
    m["sft.probe_enum_ms"] = _mean(probe_ns["orbit"], 1e6)
    m["sft.probe_walk_ms"] = _mean(probe_ns["walk"], 1e6)

    analysis = wl.Analysis(tc, seed, ref)
    mark = len(tracer.spans)
    results = _suite_ops(tracer, analysis,
                         analysis.items[:SUITE_ANALYSIS_ITEMS], checked)
    spans = tracer.spans[mark:]
    m["grid.patterns_of_ms"] = _mean(_durations(spans, "grid.patterns_of"), 1e6)
    m["grid.find_periods_ms"] = _mean(_durations(spans, "grid.find_periods"),
                                      1e6)
    cell_terms = sum(len(analysis.window20) * len(r[0].poly.terms)
                     for r in results)
    m["algebra.apply_ns_per_term"] = sum(_durations(spans, "algebra.apply")) \
        / cell_terms
    m["algebra.periodic_annihilator_ms"] = _mean(
        _durations(spans, "algebra.periodic_annihilator"), 1e6)
    m["algebra.annihilator_search_ms"] = _mean(
        _durations(spans, "algebra.annihilator_search"), 1e6)
    m["linalg.nullspace_ms"] = _mean(
        _durations(spans, "linalg.nullspace_vector", None), 1e6)
    m["balanced.search_ms"] = _mean(
        _durations(spans, "balanced.balanced_search"), 1e6)

    ser = tc.serialize
    docs = [ser.pattern_set_to_json(ps) for ps, _ in census.items]
    mark = len(tracer.spans)
    for doc in docs:
        span = tracer.begin_op("suite.serialize_parse")
        ser.pattern_set_from_json(doc)
        tracer.end_op(span)
    m["serialize.parse_us"] = _mean(
        _durations(tracer.spans[mark:], "serialize.pattern_set_from_json"), 1e3)
    span = tracer.begin_op("suite.serialize_emit")
    ser.canonical_json([ser.outcome_to_json(o) for o, _ in decided])
    tracer.end_op(span)
    m["serialize.emit_ms"] = (span[END] - span[START]) / 1e6

    cli = wl.Cli(tc, seed, ref)
    kinds = {}
    for item in cli.items:
        kinds.setdefault(item[0], item)
    _suite_ops(tracer, cli, list(kinds.values()), checked)
    m["cli.interpreter_ms"] = interpreter_ms()
    valid = kinds["valid"][1]
    for key, value in cli_probe(valid).items():
        m[f"cli.{key}"] = value

    for layer, ms in sorted(self_ms_by_layer(tracer.spans, first).items()):
        m[f"{layer}.self_ms"] = ms
    return m, len(checked), checked.count(False)
