"""Derived metrics and checks of the benchmark, on synthetic spans and on
tiny traced runs."""

import pytest

import tracing
from misodof import mc
from tracing import Span, TraceError, check_expected, layer_metrics, self_time, traced_main
from workloads import WORKLOADS, check_oracles, check_sweep, count_checks

TINY_SWEEP = ["rates", "--scheme", "all", "--alpha", "0.5", "--snr-db", "40:5:45",
              "--samples", "20000", "--seed", "3"]  # 2 SNRs x 5 schemes x 3 blocks


def _span(id, start, end, parent=None, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, thread=0)


def test_self_time_subtracts_direct_children():
    parent = _span(0, 0.0, 10.0)
    spans = [
        parent,
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 4.0, 5.0, parent=0),
        _span(3, 4.5, 4.8, parent=2),    # grandchild: not subtracted again
        _span(4, 8.0, 9.5, parent=0),
        _span(5, 0.0, 10.0),             # not a child
    ]
    assert self_time(parent, spans) == pytest.approx(10.0 - 2.0 - 1.0 - 1.5)
    assert self_time(spans[2], spans) == pytest.approx(0.7)
    assert self_time(spans[1], spans) == pytest.approx(2.0)


def test_failed_frac_counts_every_check_of_a_failed_exit():
    sweep = WORKLOADS["sweep"]
    failed_run = sweep.evaluate(3, b"")
    assert set(failed_run) == set(sweep.check_names())
    assert not any(failed_run.values())
    passing = {"exit_0": True, "rows_finite": True}
    assert count_checks([failed_run, passing]) == (len(failed_run) + 2, len(failed_run))
    assert count_checks([passing]) == (2, 0)


def _sweep_csv(slopes):
    lines = ["snr_db,scheme,rsum"]
    for scheme, slope in slopes.items():
        for k in range(9):
            db = 40.0 + 5.0 * k
            lines.append(f"{db:g},{scheme},{slope * db / 10.0 * 3.321928094887362 + 1.0!r}")
    return ("\n".join(lines) + "\n").encode()


def test_sweep_check_flags_only_the_wrong_slope():
    slopes = {"tdma": 1.0, "zf": 1.0, "mat": 4 / 3, "rszf": 1.5, "proposed": 5 / 3}
    assert all(check_sweep(_sweep_csv(slopes)).values())
    slopes["mat"] = 1.0
    checks = check_sweep(_sweep_csv(slopes))
    assert [name for name, ok in checks.items() if not ok] == ["slope.mat"]
    assert not any(check_sweep(b"not,a\ncsv").values())


def test_oracle_check_needs_every_line_to_pass():
    good = (b"rotation-identity: 1000/1000 pass (max err 1e-11)\n"
            b"exp-log-constant: quadrature -0.8 vs mc -0.8 (|diff| 1e-4, 5*se 9e-3) pass\n"
            b"conditional-bounds: 100/100 batches pass (min upper margin 0.03, ...)\n")
    assert all(check_oracles(good).values())
    bad = good.replace(b"100/100", b"99/100")
    assert check_oracles(bad) == {"rotation_pass": True, "exp_log_pass": True,
                                  "bounds_pass": False}


def test_tiny_sweep_layer_counts(tmp_path):
    code, tracer = traced_main([*TINY_SWEEP, "--workers", "1", "--out", str(tmp_path / "s.csv")])
    assert code == 0
    check_expected(tracer.spans, WORKLOADS["sweep"].expected_spans)
    with pytest.raises(TraceError, match="oracles.bounds_check"):
        check_expected(tracer.spans, WORKLOADS["oracles"].expected_spans)
    m = layer_metrics(tracer.spans)
    assert m["channel.sample_batch.calls"] == 30
    assert m["channel.draws_per_distinct_block"] == 10.0
    assert m["rates.rate_scheme.calls"] == m["mc.estimate.calls"] == 10
    assert m["mc.blocks"] == 30
    for scheme in tracing.SCHEMES:
        assert m[f"rates.integrand.{scheme}.ms_per_block"] > 0.0
    assert m["oracles.bounds_check.s"] == 0.0
    assert 0.0 < m["mc.parallel_efficiency"] <= 1.0
    assert 0.0 < m["cli.self_s"]
    assert 0.0 < tracing.mc_self_ms_per_block(tracer.spans)
    assert set(m) | {"mc.self_ms_per_block", "trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_pool_thread_spans_are_adopted_by_their_estimate(tmp_path):
    deep = WORKLOADS["deep"]
    code, tracer = traced_main(deep.argv(3, tmp_path / "d.csv", samples=4 * 8192, workers=2))
    assert code == 0
    m = layer_metrics(tracer.spans)
    assert m["channel.draws_per_distinct_block"] == 1.0
    assert m["mc.blocks"] == 4
    assert m["rates.integrand.proposed.ms_per_block"] > 0.0
    assert m["rates.integrand.tdma.ms_per_block"] == 0.0


def test_tracing_restores_the_program(tmp_path):
    original = mc.sample_batch
    traced_main([*TINY_SWEEP, "--out", str(tmp_path / "s.csv")])
    assert mc.sample_batch is original


def test_missing_attribute_is_an_error(monkeypatch, tmp_path):
    monkeypatch.delattr(mc, "block_rng")
    with pytest.raises(TraceError, match="block_rng"):
        traced_main([*TINY_SWEEP, "--out", str(tmp_path / "s.csv")])
