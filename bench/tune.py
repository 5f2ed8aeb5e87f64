"""Measure the benchmark's own spread and write it to tuning.json.

    python3 bench/tune.py

Runs ``bench/run.py --trace 0`` on SEEDS for each workload of BENCHMARK.json,
with its ``run_seconds``, one run at a time, and appends the set to the list
in tuning.json.  A set keeps, per workload, every run's end-to-end metrics
and its per-invocation wall and set-up times, and for each metric the median
of the runs and their spread, IQR / median.  Comparing the medians of two
sets shows how far the same code drifts between sets.  Takes about 7 minutes
per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TUNING_PATH = HERE / "tuning.json"
SEEDS = range(501, 511)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(name, seconds):
    runs = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{name} seed {seed}: a check failed")
        with open(ROOT / ".bench_work" / f"{name}-seed{seed}-trace0.json",
                  encoding="utf-8") as fh:
            record = json.load(fh)
        runs.append({
            "seed": seed,
            "finished": time.strftime("%H:%M:%S"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "invocation_wall_s": [r["wall_s"] for r in record["runs"]],
            "setup_s": record["setup_s"],
        })
        print(name, seed, runs[-1]["metrics"], flush=True)
    names = runs[0]["metrics"]
    summary = {k: {"median": statistics.median(r["metrics"][k] for r in runs),
                   "spread": spread([r["metrics"][k] for r in runs])} for k in names}
    return {"summary": summary, "runs": runs}


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sets = []
    if TUNING_PATH.exists():
        with open(TUNING_PATH, encoding="utf-8") as fh:
            sets = json.load(fh)
    new = {"started": time.strftime("%Y-%m-%d %H:%M:%S"), "machine": platform.machine(),
           "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"], "workloads": {}}
    sets.append(new)
    for name in (w["name"] for w in bench["workloads"]):
        new["workloads"][name] = run_set(name, bench["run_seconds"])
        with open(TUNING_PATH, "w", encoding="utf-8") as fh:
            json.dump(sets, fh, indent=1)
            fh.write("\n")
        for metric, s in new["workloads"][name]["summary"].items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
