"""misodof benchmark: run one workload closed loop and print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep|deep|oracles --seed N --seconds S --trace 0|1

``--trace 0`` times a fresh interpreter importing ``misodof.cli``, then spawns
the CLI as a child process, one invocation at a time, for about S seconds,
and reports the end-to-end metrics.  ``--trace 1`` calls ``misodof.cli.main``
in this process, alternating untraced and traced runs, and reports the
per-layer metrics.  Every output is checked.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics;
a fuller record, with the spans of the last traced run, goes to
``.bench_work/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS, count_checks, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_INVOCATION = 2  # set-up timings taken before each invocation
MIN_REPS = 3              # invocations per untraced run, even when they overrun --seconds
DEADLINE_S = 165.0        # a run must end within 180 s; stop starting work after this

END_TO_END_UNITS = {
    "wall_s": "s", "samples_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MiB", "setup_s": "s",
}

# Loads every rates code path before the first timed in-process run.
WARM_UP = ["rates", "--scheme", "all", "--alpha", "0.5", "--snr-db", "40:5:40",
           "--samples", "1000", "--seed", "0"]


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    output: bytes


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait_timed(cmd, deadline, stdout, stderr):
    """Run ``cmd`` to completion: (wall seconds, exit code, rusage).

    The child is killed if it is still running at ``deadline``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def time_setup(tmp, deadline):
    """(wall seconds, exit code) of a fresh interpreter importing misodof.cli."""
    with open(tmp / "setup.err", "wb") as err:
        wall, code, _ = _wait_timed([sys.executable, "-c", "import misodof.cli"],
                                    deadline, subprocess.DEVNULL, err)
    return wall, code


def run_child(workload, seed, tmp, deadline):
    out = tmp / "out.csv"
    out.unlink(missing_ok=True)
    with open(tmp / "stdout", "wb") as stdout, open(tmp / "stderr", "wb") as stderr:
        wall, code, usage = _wait_timed(
            [sys.executable, "-m", "misodof.cli", *workload.argv(seed, out)],
            deadline, stdout, stderr)
    if workload.writes_csv:
        output = out.read_bytes() if out.exists() else b""
    else:
        output = (tmp / "stdout").read_bytes()
    return Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, exit_code=code, output=output)


def _checked(workload, exit_code, output, first_sha):
    """Checks of one invocation; later invocations must repeat the first output."""
    outcome = workload.evaluate(exit_code, output)
    if first_sha is not None:
        outcome["same_output"] = sha256(output) == first_sha
    return outcome


def _keep_going(done, elapsed, per_item, seconds, deadline, minimum):
    if time.monotonic() > deadline:
        return False
    if done < minimum:
        return True
    return elapsed + per_item <= seconds


def run_end_to_end(workload, seed, seconds, tmp, deadline):
    time_setup(tmp, deadline)   # untimed: fills the bytecode cache
    setups, runs, shas, outcomes, rounds = [], [], [], [], []
    start = time.monotonic()
    while _keep_going(len(runs), time.monotonic() - start,
                      statistics.median(rounds) if rounds else 0.0,
                      seconds, deadline, MIN_REPS):
        # Set-up is timed between invocations, not all at once, so that both
        # sample the same stretch of a machine whose speed drifts.
        round_start = time.monotonic()
        setups += [time_setup(tmp, deadline) for _ in range(SETUP_PER_INVOCATION)]
        run = run_child(workload, seed, tmp, deadline)
        outcomes.append(_checked(workload, run.exit_code, run.output, shas[0] if shas else None))
        runs.append(run)
        shas.append(sha256(run.output))
        rounds.append(time.monotonic() - round_start)
    outcomes.append({"setup_import": all(code == 0 for _, code in setups)})
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_s": wall,
        "samples_per_s": workload.implied_samples / wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(w for w, _ in setups),
    }
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in metrics.items()}
    record = {
        "setup_s": [w for w, _ in setups],
        "runs": [{k: v for k, v in asdict(r).items() if k != "output"} for r in runs],
        "output_sha256": shas,
    }
    return metrics, outcomes, record


def _in_process(main, argv, workload, out):
    """Call ``main(argv)`` in this process: (wall seconds, its result, output bytes)."""
    out.unlink(missing_ok=True)
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        result = main(argv)
    wall = time.perf_counter() - start
    if workload.writes_csv:
        output = out.read_bytes() if out.exists() else b""
    else:
        output = captured.getvalue().encode("utf-8")
    return wall, result, output


def run_traced(workload, seed, seconds, tmp, deadline):
    sys.path.insert(0, str(SRC))
    import misodof
    from misodof import cli

    if Path(misodof.__file__).resolve().parent != (SRC / "misodof").resolve():
        raise tracing.TraceError(f"imported misodof from {misodof.__file__}, not {SRC}")
    out = tmp / "out.csv"
    argv = workload.argv(seed, out)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([*WARM_UP, "--out", str(tmp / "warm.csv")])

    outcomes, shas = [], []

    def check(code, output):
        outcomes.append(_checked(workload, code, output, shas[0] if shas else None))
        shas.append(sha256(output))

    def traced(argv):
        wall, (code, tracer), output = _in_process(tracing.traced_main, argv, workload, out)
        check(code, output)
        tracing.check_expected(tracer.spans, workload.expected_spans)
        return wall, tracer

    start = time.monotonic()
    serial = (workload.workers or 1) == 1
    self_ms = []
    if not serial:
        # Self time is defined only where children do not overlap, so take it
        # from a serial run; its output must match the parallel runs' bytes.
        _, tracer = traced(workload.argv(seed, out, workers=1))
        self_ms.append(tracing.mc_self_ms_per_block(tracer.spans))

    walls, traced_walls, layers = [], [], []
    while _keep_going(len(walls), time.monotonic() - start,
                      statistics.mean(walls) + statistics.mean(traced_walls) if walls else 0.0,
                      seconds, deadline, 1):
        wall, code, output = _in_process(cli.main, argv, workload, out)
        check(code, output)
        walls.append(wall)
        wall, tracer = traced(argv)
        traced_walls.append(wall)
        layers.append(tracing.layer_metrics(tracer.spans))
        if serial:
            self_ms.append(tracing.mc_self_ms_per_block(tracer.spans))

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["mc.self_ms_per_block"] = statistics.median(self_ms)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics = {name: {"value": metrics[name], "unit": unit}
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
    record = {
        "untraced_wall_s": walls,
        "traced_wall_s": traced_walls,
        "output_sha256": shas,
        "spans": [asdict(s) for s in tracer.spans],
    }
    return metrics, outcomes, record


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed):
    return {
        "commit": _git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "misodof" / "cli.py").is_file():
        print(f"error: no misodof sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 63   # the CLI takes seeds in [0, 2**64)
    env = environment(seed)

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = run_traced if args.trace else run_end_to_end
        try:
            metrics, outcomes, record = run(workload, seed, args.seconds, Path(tmp), deadline)
        except tracing.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    attempted, failed = count_checks(outcomes)
    record_path = WORK / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "env": env, "metrics": metrics,
                   "checks": outcomes, **record}, fh, indent=1)
        fh.write("\n")

    print("env: " + json.dumps(env))
    print(f"output sha256: {record['output_sha256'][0]} ({len(set(record['output_sha256']))} "
          f"distinct over {len(record['output_sha256'])} outputs)")
    for name, metric in metrics.items():
        print(f"{workload.name} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name} failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
