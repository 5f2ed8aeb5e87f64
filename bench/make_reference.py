"""Regenerate reference.json, the stored answer of the deep workload's check.

    python3 bench/make_reference.py

Runs the deep workload's command in-process on N_SEEDS seeds from 1000 and
stores the mean of ``rsum`` and its seed-to-seed standard deviation.  The
check accepts ``rsum`` within TOL_SDS of those deviations of the mean, so a
correct program fails it with negligible probability on any seed.  The
program's own ``stderr_sum`` is not used: it is known to be miscalibrated.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_PATH, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
N_SEEDS = 24
TOL_SDS = 6.0
FIRST_SEED = 1000


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from misodof import cli

    deep = WORKLOADS["deep"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + N_SEEDS))
    rsums = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "deep.csv"
        for seed in seeds:
            if cli.main(deep.argv(seed, out)) != 0:
                raise SystemExit(f"deep workload failed on seed {seed}")
            with open(out, encoding="utf-8") as fh:
                rsums.append(float(next(csv.DictReader(fh))["rsum"]))
            print(f"seed {seed}: rsum {rsums[-1]!r}", flush=True)
    sd = statistics.stdev(rsums)
    reference = {"deep": {
        "argv": deep.argv("<seed>", "<out>"),
        "seeds": seeds,
        "rsum_mean": statistics.fmean(rsums),
        "rsum_sd": sd,
        "tolerance_sds": TOL_SDS,
        "tolerance": TOL_SDS * sd,
    }}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    print(json.dumps(reference["deep"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
