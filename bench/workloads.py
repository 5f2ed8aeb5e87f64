"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``misodof`` CLI invocation, run closed loop: the next
invocation starts only after the previous one has exited.  A check never
trusts a number the program reports about itself (such as ``stderr_sum``);
it compares the output against theory or against the stored reference in
``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SWEEP_SAMPLES = 100_000
SWEEP_POINTS = 9                 # --snr-db 40:5:80
DEEP_SAMPLES = 3_000_000
ORACLE_SAMPLES = 1_000_000       # the CLI default of `oracles --samples`
ORACLE_BOUND_BATCHES = 100       # batches of the conditional-bounds check
ORACLE_BOUND_SAMPLES = 100_000   # samples per batch: min(samples, 100_000)

# Sum DoF of each scheme at alpha = 0.5: the slope of the sum rate in log2 P.
SUM_DOF = {"tdma": 1.0, "zf": 1.0, "mat": 4.0 / 3.0, "rszf": 1.5, "proposed": 5.0 / 3.0}
SLOPE_TOL = 0.08
LOG2_10 = math.log2(10.0)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def fit_slope(x, y):
    """Least-squares slope of y against x."""
    n = len(x)
    x_mean = sum(x) / n
    y_mean = sum(y) / n
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    sxx = sum((a - x_mean) ** 2 for a in x)
    return sxy / sxx


def _csv_rows(output):
    return list(csv.DictReader(io.StringIO(output.decode("utf-8"))))


def check_sweep(output):
    checks = {"rows_finite": False, **{f"slope.{s}": False for s in SUM_DOF}}
    try:
        rows = _csv_rows(output)
        points = [(r["scheme"], float(r["snr_db"]), float(r["rsum"])) for r in rows]
    except (UnicodeDecodeError, csv.Error, KeyError, TypeError, ValueError):
        return checks
    checks["rows_finite"] = (len(points) == SWEEP_POINTS * len(SUM_DOF)
                             and all(math.isfinite(p[2]) for p in points))
    if not checks["rows_finite"]:
        return checks
    for scheme, dof in SUM_DOF.items():
        mine = [(db, rsum) for s, db, rsum in points if s == scheme]
        if len(mine) != SWEEP_POINTS:
            continue
        slope = fit_slope([db / 10.0 * LOG2_10 for db, _ in mine], [r for _, r in mine])
        checks[f"slope.{scheme}"] = abs(slope - dof) <= SLOPE_TOL
    return checks


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["deep"]


def check_deep(output):
    checks = {"rsum_finite": False, "rsum_near_reference": False}
    try:
        rows = _csv_rows(output)
        rsum = float(rows[0]["rsum"]) if len(rows) == 1 else math.nan
    except (UnicodeDecodeError, csv.Error, KeyError, TypeError, ValueError):
        return checks
    checks["rsum_finite"] = math.isfinite(rsum)
    ref = load_reference()
    checks["rsum_near_reference"] = abs(rsum - ref["rsum_mean"]) <= ref["tolerance"]
    return checks


_ROTATION = re.compile(r"^rotation-identity: (\d+)/(\d+) pass ", re.M)
_EXP_LOG = re.compile(r"^exp-log-constant: .* pass$", re.M)
_BOUNDS = re.compile(r"^conditional-bounds: (\d+)/(\d+) batches pass ", re.M)


def check_oracles(output):
    text = output.decode("utf-8", errors="replace")
    rotation = _ROTATION.search(text)
    bounds = _BOUNDS.search(text)
    return {
        "rotation_pass": bool(rotation) and rotation[1] == rotation[2],
        "exp_log_pass": bool(_EXP_LOG.search(text)),
        "bounds_pass": bool(bounds) and bounds[1] == bounds[2],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple                  # CLI arguments except --seed, --samples, --workers, --out
    samples: int | None             # --samples, for commands that write a CSV
    workers: int | None             # --workers, for commands that take it
    implied_samples: int            # channel samples the inputs imply
    check: Callable[[bytes], dict]  # output bytes -> {check name: passed}
    expected_spans: tuple           # spans the traced run must record

    @property
    def writes_csv(self):
        return self.samples is not None

    def argv(self, seed, out=None, samples=None, workers=None):
        argv = [*self.command, "--seed", str(seed)]
        if self.writes_csv:
            argv += ["--samples", str(samples or self.samples),
                     "--workers", str(workers or self.workers), "--out", str(out)]
        return argv

    def check_names(self):
        """Names of every check; a check reports all its names, failing, on empty output."""
        return ["exit_0", *self.check(b"")]

    def evaluate(self, exit_code, output):
        """Outcome of every check; a non-zero exit fails all of them."""
        if exit_code != 0:
            return {name: False for name in self.check_names()}
        return {"exit_0": True, **self.check(output)}


_RATE_SPANS = ("cli.main", "rates.rate_scheme", "mc.estimate", "mc.block_rng",
               "channel.sample_batch", "mc.integrand")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep",
            command=("rates", "--scheme", "all", "--alpha", "0.5", "--snr-db", "40:5:80"),
            samples=SWEEP_SAMPLES, workers=1,
            implied_samples=SWEEP_POINTS * len(SUM_DOF) * SWEEP_SAMPLES,
            check=check_sweep,
            expected_spans=_RATE_SPANS,
        ),
        Workload(
            name="deep",
            command=("rates", "--scheme", "proposed", "--alpha", "0.5", "--snr-db", "60:5:60"),
            samples=DEEP_SAMPLES, workers=2,
            implied_samples=DEEP_SAMPLES,
            check=check_deep,
            expected_spans=_RATE_SPANS,
        ),
        Workload(
            name="oracles",
            command=("oracles",),
            samples=None, workers=None,
            implied_samples=ORACLE_SAMPLES + ORACLE_BOUND_BATCHES * ORACLE_BOUND_SAMPLES,
            check=check_oracles,
            expected_spans=("cli.main", "oracles.rotation_quadrature", "oracles.exp_log_mean",
                            "oracles.bounds_check", "mc.estimate", "mc.block_rng",
                            "channel.sample_batch", "mc.integrand"),
        ),
    )
}


def count_checks(outcomes):
    """(attempted, failed) over a list of {check name: passed} dicts."""
    attempted = sum(len(o) for o in outcomes)
    failed = sum(not ok for o in outcomes for ok in o.values())
    return attempted, failed
