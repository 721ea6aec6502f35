"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/prove.py --runs 10 [--workloads census,cli]
                               [--first-seed 1] [--out FILE]

For every workload and end-to-end metric it prints the median of the
runs and the distance between the first and third quartiles as a share
of the median, next to the metric's bound from BENCHMARK.json.  A
spread at or above a third of the bound is flagged (setup_s is exempt).
With ``--out`` the per-run values, the summary and the commit, Python
version and core count are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds", str(args.seconds),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed",
                      file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name != "setup_s" and spread >= bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{workload:9s} {name:12s} median {med:12.6g} "
                  f"spread {spread:7.4f} bound {bounds[name]:5.3f}{flag}")
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
        report[workload] = summary
    if args.out:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from run import source_facts
        meta = {"runs": args.runs, "first_seed": args.first_seed,
                "seconds": args.seconds, "nproc": os.cpu_count(),
                "python": platform.python_version(), **source_facts()}
        Path(args.out).write_text(
            json.dumps({"metadata": meta, "workloads": report}, indent=1)
            + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
