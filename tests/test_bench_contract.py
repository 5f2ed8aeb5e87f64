"""The benchmark's contract with the program, checked from the program's side.

``bench/workloads.py`` parses what the ``misodof`` commands print and write,
and ``bench/tracing.py`` patches names of ``misodof.cli`` and ``misodof.mc``;
both are loaded here by file path, unedited, so a change under ``src/`` that
breaks either one fails this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from misodof import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")
WORKLOADS = workloads.WORKLOADS


@pytest.mark.parametrize("seed", [0, 5, 31337])
def test_oracles_output_passes_the_bench_checks(seed, capsys):
    workload = WORKLOADS["oracles"]
    code = cli.main(workload.argv(seed) + ["--samples", "100000"])
    outcome = workload.evaluate(code, capsys.readouterr().out.encode())
    assert all(outcome.values()), outcome


def test_sweep_output_passes_the_bench_checks(tmp_path):
    workload = WORKLOADS["sweep"]
    out = tmp_path / "sweep.csv"
    code = cli.main(workload.argv(4242, out))
    outcome = workload.evaluate(code, out.read_bytes())
    assert all(outcome.values()), outcome


def test_deep_output_passes_the_bench_checks(tmp_path):
    # the full 3M-sample proposed-scheme cell on 2 workers: an rsum outside
    # the band of bench/reference.json fails here
    workload = WORKLOADS["deep"]
    out = tmp_path / "deep.csv"
    code = cli.main(workload.argv(4242, out))
    outcome = workload.evaluate(code, out.read_bytes())
    assert all(outcome.values()), outcome


@pytest.mark.parametrize("name", ["oracles", "sweep"])
def test_traced_run_records_every_expected_span(name, tmp_path):
    # the bench's --trace 1 path: every patched name still exists and is
    # called; sweep's rates command runs 1000 samples, oracles its default
    workload = WORKLOADS[name]
    code, tracer = tracing.traced_main(workload.argv(1, tmp_path / "out.csv", samples=1000))
    assert code == 0
    tracing.check_expected(tracer.spans, workload.expected_spans)
