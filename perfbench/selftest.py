"""Quick-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for one second untraced and once traced, and checks
that the last output line has exactly the result keys, that every
metric named in BENCHMARK.json is emitted with its unit, that all
outputs were correct, and that ``sft.nodes`` is identical across the
traced runs (they share one seed, and the layer pass does not depend on
the workload).  Finally it runs the benchmark in a directory holding
only BENCHMARK.json and the benchmark's files, where it must fail
without printing a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SEED = 7


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc, problems: list[str], label: str) -> dict | None:
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        problems.append(f"{label}: {result.get('failed')} operations failed")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    nodes = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run(bench["command"] + [
                "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace)], ROOT)
            result = result_of(proc, problems, label)
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                                f" {[n for n in want if got.get(n) != want[n]]}")
            if trace:
                nodes[workload] = result["metrics"]["sft.nodes"]["value"]
            print(f"ok {label}")
    if len(set(nodes.values())) > 1:
        problems.append(f"sft.nodes differs between runs: {nodes}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bench["command"] + ["--workload", "census", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare directory: the benchmark did not fail")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
