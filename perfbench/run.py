"""Benchmark runner for tilecraft: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads: census, probe, analysis, cli (see workloads.py).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of a
traced run.  Earlier lines give each metric with its sample count, and
the run's metadata, which is also written to perfbench/out/.

Only this process and its children are measured: nothing traces the
whole machine or drops caches.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import tracing
import workloads as wl

SETUP_REPEATS = 5
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
CHUNK_YARDS = 2            # a chunk of operations lasts two yardstick times
# (set-up s, yardstick ms) of the seed copy on the machine the benchmark
# was built on (2-core Xeon VM at 2.1 GHz, Python 3.11.7): the speed that
# timings are scaled to
YARD_REF = {
    "census": (0.23, 10.0),
    "probe": (0.068, 12.0),
    "analysis": (0.062, 39.5),
    "cli": (0.2, 135.0),
}
END_TO_END = ("ops_per_s", "op_ms_p50", "op_ms_tail", "ok_frac", "setup_s",
              "peak_rss_mb")

UNITS = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
    "sft.nodes": "count", "sft.nodes_per_s": "1/s", "sft.setup_us": "us",
    "sft.validate_us": "us", "sft.probe_enum_ms": "ms",
    "sft.probe_walk_ms": "ms", "grid.patterns_of_ms": "ms",
    "grid.find_periods_ms": "ms", "algebra.apply_ns_per_term": "ns",
    "algebra.periodic_annihilator_ms": "ms",
    "algebra.annihilator_search_ms": "ms", "linalg.nullspace_ms": "ms",
    "balanced.search_ms": "ms", "serialize.parse_us": "us",
    "serialize.emit_ms": "ms", "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms", "cli.first_call_ms": "ms",
    "cli.warm_call_ms": "ms", "trace.overhead_frac": "frac",
    **{f"{layer}.self_ms": "ms" for layer in wl.MODULES},
}


class Yardstick:
    """The seed copy's plan timed on its fixed ``yard`` inputs.

    The shared machine this runs on changes speed by up to 2x, in phases
    of seconds to minutes, and the change is not the same for all code.
    The seed copy running the same workload slows down as the program
    does, so an operation's time divided by the yardstick's time around
    it hardly depends on the phase.
    """

    def __init__(self, plan, ref_ms: float):
        self.plan = plan
        self.ref_ns = ref_ms * 1e6
        self.samples: list[int] = []

    def time_ns(self, tracer=None) -> int:
        """One run over the yard; the tracer records none of its calls."""
        if tracer:
            tracer.paused = True
        t0 = time.perf_counter_ns()
        try:
            for item in self.plan.yard:
                self.plan.run(item)
        finally:
            self.samples.append(time.perf_counter_ns() - t0)
            if tracer:
                tracer.paused = False
        return self.samples[-1]


class Measurement:
    """Latencies and failures of the operations in whole passes.

    ``raw[i]`` holds input i's latency in each pass, and ``scaled[i]``
    the same latencies at the reference speed: each times the yardstick's
    reference time over the mean of the yardstick times just before and
    just after the operation's chunk.
    """

    def __init__(self, n: int):
        self.raw: list[list[int]] = [[] for _ in range(n)]
        self.scaled: list[list[float]] = [[] for _ in range(n)]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, other: "Measurement") -> None:
        for mine, theirs in zip(self.raw + self.scaled,
                                other.raw + other.scaled):
            mine += theirs
        self.passes += other.passes
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def ops(self) -> int:
        return sum(map(len, self.raw))

    def medians_ns(self, scaled: bool = True) -> list[float]:
        """Each input's median latency over the passes."""
        return [statistics.median(v)
                for v in (self.scaled if scaled else self.raw)]


def measure(plan, yard: Yardstick, seconds: float, tracer=None) -> Measurement:
    """Whole passes over the plan's inputs until ``seconds`` have passed.

    Only ``plan.run`` is timed; checks run between operations.  The
    yardstick runs whenever the operations since its last run took
    CHUNK_YARDS of its times.
    """
    m = Measurement(len(plan.items))
    start = time.perf_counter()
    chunk: list[tuple[int, int]] = []
    chunk_ns = 0
    before = yard.time_ns(tracer)

    def close_chunk() -> None:
        nonlocal before, chunk_ns
        after = yard.time_ns(tracer)
        speed = 2 * yard.ref_ns / (before + after)
        for i, ns in chunk:
            m.raw[i].append(ns)
            m.scaled[i].append(ns * speed)
        chunk.clear()
        chunk_ns = 0
        before = after

    while True:
        failed: set[int] = set()
        for i, item in enumerate(plan.items):
            span = tracer.begin_op("op." + plan.op_name(item)) if tracer else None
            t0 = time.perf_counter_ns()
            try:
                result = plan.run(item)
            except Exception:  # a raising operation is a failed one
                m.errors.append(traceback.format_exc(limit=3))
                failed.add(i)
                continue
            finally:
                ns = time.perf_counter_ns() - t0
                if span:
                    tracer.end_op(span)
                chunk.append((i, ns))
                chunk_ns += ns
            try:
                if not plan.check(i, item, result):
                    failed.add(i)
            except Exception:  # a check that cannot read the output fails it
                m.errors.append(traceback.format_exc(limit=3))
                failed.add(i)
            if chunk_ns >= CHUNK_YARDS * before:
                close_chunk()
        failed |= plan.end_pass()
        m.passes += 1
        m.attempted += len(plan.items)
        m.failed += len(failed)
        if time.perf_counter() - start >= seconds:
            if chunk:
                close_chunk()
            return m
        plan.next_pass()


def tail(latencies_ns: list[float]) -> tuple[float, float, int]:
    """(ms, percentile, samples beyond): highest percentile with 10 beyond."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond] / 1e6, 100.0 * (n - beyond) / n, beyond


def set_up(workload: str, seed: int, ref: dict, repeats: int):
    """Set up the seed copy and the program in turn, ``repeats`` times.

    One set-up is a fresh import, input construction and warm-up.  The
    program's set-ups are scaled to the reference speed by the seed
    copy's set-ups before and after each; the last of each is kept.
    Returns the program's modules and plan, the yardstick, the program's
    set-up seconds, raw and scaled, and the seed copy's set-up seconds.
    """
    def one(seed_copy: bool):
        t0 = time.perf_counter()
        tc = wl.Tilecraft(seed=seed_copy)
        plan = wl.PLANS[workload](tc, seed, ref)
        plan.warm_up()
        return tc, plan, time.perf_counter() - t0

    seed_s, raw = [], []
    _, seed_plan, s = one(True)
    seed_s.append(s)
    for _ in range(repeats):
        tc, plan, s = one(False)
        raw.append(s)
        _, seed_plan, s = one(True)
        seed_s.append(s)
    ref_s, yard_ms = YARD_REF[workload]
    scaled = [s * 2 * ref_s / (a + b)
              for s, a, b in zip(raw, seed_s, seed_s[1:])]
    return tc, plan, Yardstick(seed_plan, yard_ms), raw, scaled, seed_s


def peak_rss_mb(plan) -> float:
    """Peak RSS of this process, or of the largest program child in cli."""
    if plan.name == "cli":
        return plan.maxrss_kib / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_facts() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(wl.SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(wl.SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                text=True, check=True, timeout=60).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not wl.ensure_src_on_path():
        print(f"no tilecraft package under {wl.SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # expected warnings of sampled inputs
    ref = wl.load_reference()

    tc, plan, yard, setup_raw, setup_scaled, setup_seed = set_up(
        args.workload, args.seed, ref, 1 if args.trace else SETUP_REPEATS)
    # the reference pools and other set-up data are the benchmark's, not
    # the program's: keep them out of the collections timed operations pay
    gc.collect()
    gc.freeze()
    if args.trace:
        run = measure(plan, yard, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(tc)
        try:
            traced = measure(plan, yard, args.seconds / 2, tracer)
            workload_self_ms = {
                layer: ms / traced.ops() for layer, ms in
                tracing.self_ms_by_layer(tracer.spans).items()}
            metrics, suite_attempted, suite_failed = tracing.layer_suite(
                tc, args.seed, ref, tracer)
        finally:
            tracer.uninstall()
        metrics["trace.overhead_frac"] = (sum(traced.medians_ns())
                                          / sum(run.medians_ns()) - 1)
        run.add(traced)
        attempted = run.attempted + suite_attempted
        failed = run.failed + suite_failed
        tracer.write(wl.OUT / f"spans-{args.workload}.jsonl")
        names = [n for n in UNITS if n not in END_TO_END]
    else:
        run = measure(plan, yard, args.seconds)
        attempted, failed = run.attempted, run.failed
        med = run.medians_ns()
        metrics = {
            "ops_per_s": len(med) / (sum(med) / 1e9),
            "op_ms_p50": statistics.median(med) / 1e6,
            "op_ms_tail": tail(med)[0],
            "ok_frac": 1 - failed / attempted,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb(plan),
        }
        workload_self_ms = {}
        names = list(END_TO_END)

    raw_med = run.medians_ns(scaled=False)
    _, tail_pct, beyond = tail(raw_med)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **source_facts(),
        "cli.interpreter_ms": metrics.get("cli.interpreter_ms")
        or tracing.interpreter_ms(),
        "loadavg": os.getloadavg(),
        "ops": run.ops(), "passes": run.passes,
        "inputs_per_pass": len(plan.items),
        "op_ms_tail_percentile": tail_pct, "op_ms_tail_beyond": beyond,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "yardstick_runs": len(yard.samples),
        "yardstick_ms_median": statistics.median(yard.samples) / 1e6,
        "yardstick_ms_min": min(yard.samples) / 1e6,
        "yardstick_ref_ms": yard.ref_ns / 1e6,
        "unscaled": {"ops_per_s": len(raw_med) / (sum(raw_med) / 1e9),
                     "op_ms_p50": statistics.median(raw_med) / 1e6,
                     "op_ms_tail": tail(raw_med)[0],
                     "setup_s": statistics.median(setup_raw)},
        "setup_s_samples": setup_raw,
        "seed_copy_setup_s_samples": setup_seed,
        "workload_self_ms_per_op": workload_self_ms,
    }
    for name in names:
        note = ""
        if name == "op_ms_tail":
            note = (f"p{tail_pct:.3f}: {beyond} of {len(plan.items)} "
                    "inputs beyond")
        elif name in ("ops_per_s", "op_ms_p50"):
            note = (f"median of {run.passes} passes for each of "
                    f"{len(plan.items)} inputs ({run.ops()} ops)")
        elif name == "ok_frac":
            note = f"fail_frac {failed / attempted:.6g} = {failed}/{attempted}"
        elif name == "setup_s":
            note = f"median of {len(setup_raw)} set-ups"
        if name in meta["unscaled"]:
            note += f"; unscaled {meta['unscaled'][name]:.6g}"
        print(f"{args.workload:9s} {name:32s} {metrics[name]:14.6g} "
              f"{UNITS[name]:6s} {note}")
    for err in run.errors[:5]:
        print(err, file=sys.stderr)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }
    wl.OUT.mkdir(parents=True, exist_ok=True)
    with open(wl.OUT / f"run-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"metadata": meta, **result}, fh, indent=1)
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
