import json
import os
import threading
from collections import Counter

import numpy as np
import pytest

from misodof import cli, mc, oracles, rates
from misodof.channel import CsitConfig
from misodof.mc import NonFiniteSampleError
from misodof.rates import RateResult
from misodof.regions import Scheme


def _run(args):
    return cli.main(args)


class TestRegionCommand:
    def test_main_region_json(self, tmp_path):
        out = tmp_path / "region.json"
        assert _run(["region", "--alpha", "0.5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["alpha"] == 0.5
        assert any(abs(v[0] - 5 / 6) < 1e-9 and abs(v[1] - 5 / 6) < 1e-9
                   for v in data["vertices"])
        assert {"coeffs": [1.0, 2.0], "bound": 2.5} in data["inequalities"]

    def test_alpha_truncated_with_warning(self, tmp_path, capsys):
        out = tmp_path / "region.json"
        assert _run(["region", "--alpha", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert json.loads(out.read_text())["alpha"] == 1.0

    def test_negative_alpha_exits_2(self, tmp_path):
        assert _run(["region", "--alpha", "-1", "--out", str(tmp_path / "x.json")]) == 2

    def test_beta_region(self, tmp_path):
        out = tmp_path / "region.json"
        assert _run(["region", "--alpha", "0.5", "--beta", "0.5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["sym"] == pytest.approx(2 / 3)
        assert data["corners"] == [[1.0, 0.5], [0.5, 1.0]]

    def test_common_message_region(self, tmp_path):
        out = tmp_path / "region.json"
        assert _run(["region", "--alpha", "0.5", "--common-message", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [0.5, 0.5, 0.5] in data["vertices"]
        assert all(len(v) == 3 for v in data["vertices"])

    def test_beta_and_common_message_conflict(self, tmp_path):
        code = _run(["region", "--alpha", "0.5", "--beta", "0.5",
                     "--common-message", "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestRatesCommand:
    def _rates_args(self, out, workers=1, samples=4000, seed=9):
        return ["rates", "--scheme", "all", "--alpha", "0.5",
                "--snr-db", "10:10:30", "--samples", str(samples),
                "--seed", str(seed), "--workers", str(workers), "--out", str(out)]

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert _run(self._rates_args(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("snr_db,scheme,alpha,r1,r2,rsum,stderr_sum,"
                            "r_c,r_p1,r_p2,r_mimo1,r_mimo2,r_eta1,r_eta2")
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "tdma"
        assert float(first[5]) == pytest.approx(float(first[3]) + float(first[4]))

    def test_worker_count_invariance(self, tmp_path):
        outs = []
        for w in (1, 8):
            out = tmp_path / f"rates_{w}.csv"
            assert _run(self._rates_args(out, workers=w)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(self._rates_args(out1)) == 0
        assert _run(self._rates_args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stderr_shrinks_with_samples(self, tmp_path):
        small, large = tmp_path / "s.csv", tmp_path / "l.csv"
        assert _run(["rates", "--scheme", "proposed", "--alpha", "0.5",
                     "--snr-db", "20:10:20", "--samples", "1000", "--seed", "3",
                     "--out", str(small)]) == 0
        assert _run(["rates", "--scheme", "proposed", "--alpha", "0.5",
                     "--snr-db", "20:10:20", "--samples", "100000", "--seed", "3",
                     "--out", str(large)]) == 0
        se_small = float(small.read_text().splitlines()[1].split(",")[6])
        se_large = float(large.read_text().splitlines()[1].split(",")[6])
        assert 5.0 < se_small / se_large < 20.0

    def test_malformed_range_exits_2(self, tmp_path):
        code = _run(["rates", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db", "10:20", "--samples", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        code = _run(["rates", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db", "30:-5:10", "--samples", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_scheme_exits_2(self, tmp_path):
        code = _run(["rates", "--scheme", "dirty", "--alpha", "0.5",
                     "--snr-db", "10:10:20", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_non_finite_exits_3(self, tmp_path, monkeypatch):
        def broken(scheme, cfgs, mc_cfg):
            return [RateResult(r1=float("nan"), r2=1.0, se_r1=0.0, se_r2=0.0)] * len(cfgs)

        monkeypatch.setattr(cli, "rate_scheme", broken)
        code = _run(["rates", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db", "10:10:20", "--samples", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_manifest_hash_tracks_numeric_flags(self, tmp_path):
        def manifest_for(extra, name):
            out = tmp_path / name
            args = ["rates", "--scheme", "zf", "--alpha", "0.5",
                    "--snr-db", "10:10:20", "--samples", "500",
                    "--out", str(out)] + extra
            assert _run(args) == 0
            return json.loads((tmp_path / (name + ".manifest.json")).read_text())

        base = manifest_for(["--seed", "1", "--workers", "1"], "base.csv")
        same = manifest_for(["--seed", "1", "--workers", "4"], "same.csv")
        other = manifest_for(["--seed", "2"], "other.csv")
        assert base["config_hash"] == same["config_hash"]
        assert base["config_hash"] != other["config_hash"]
        assert base["version"] == "0.1.0"
        # the worker count is recorded, outside the hash
        assert (base["workers"], same["workers"]) == (1, 4)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MISO_DOF_SEED", "77")
        out = tmp_path / "env.csv"
        assert _run(["rates", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db", "10:10:10", "--samples", "500",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["seed"] == 77


class TestSlopesCommand:
    def test_proposed_slope(self, tmp_path):
        out = tmp_path / "slope.json"
        assert _run(["slopes", "--scheme", "proposed", "--alpha", "0.5",
                     "--snr-db-range", "40:80", "--points", "5",
                     "--samples", "20000", "--seed", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["theory"] == pytest.approx(5 / 3)
        assert abs(data["slope"] - 5 / 3) < 0.08
        assert data["slope_ci95"] >= 0.0

    def test_zf_slope_near_one(self, tmp_path):
        out = tmp_path / "slope.json"
        assert _run(["slopes", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db-range", "40:80", "--points", "5",
                     "--samples", "20000", "--seed", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["slope"] - 1.0) < 0.08

    @pytest.mark.parametrize("scheme", ["zf", "proposed"])
    def test_full_csit_slope_holds_at_extreme_snr(self, scheme, tmp_path):
        # At alpha 1 the zero-forced leakage stays at the noise level however
        # high P goes, so each user keeps one DoF.  Projecting the rounded
        # sum h_hat + h_tilde loses that above ~250 dB (slope 1.845).
        out = tmp_path / "slope.json"
        assert _run(["slopes", "--scheme", scheme, "--alpha", "1",
                     "--snr-db-range", "200:360", "--samples", "20000", "--seed", "0",
                     "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["slope"] - 2.0) < 0.08

    def test_manifest_records_workers_outside_hash(self, tmp_path):
        manifests = []
        for workers in ("1", "4"):
            out = tmp_path / f"slope{workers}.json"
            assert _run(["slopes", "--scheme", "zf", "--alpha", "0.5", "--points", "3",
                         "--samples", "500", "--seed", "1", "--workers", workers,
                         "--out", str(out)]) == 0
            manifests.append(json.loads((tmp_path / (out.name + ".manifest.json")).read_text()))
        assert [m["workers"] for m in manifests] == [1, 4]
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
        assert manifests[0]["seed"] == 1

    def test_too_few_points_exits_2(self, tmp_path):
        code = _run(["slopes", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db-range", "40:80", "--points", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_malformed_range_exits_2(self, tmp_path):
        code = _run(["slopes", "--scheme", "zf", "--alpha", "0.5",
                     "--snr-db-range", "80:40", "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestOraclesCommand:
    def test_default_run_passes(self, capsys):
        assert _run(["oracles", "--samples", "100000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "rotation-identity: 1000/1000 pass" in out
        assert "conditional-bounds: 100/100 batches pass" in out

    def test_injected_fault_exits_1(self, capsys):
        # 0 and 4 are rejected by the quadrature config; 64 is accepted but
        # every quadrature runs out of panels, including the bound check's
        for panels in ("0", "4", "64"):
            assert _run(["oracles", "--max-panels", panels, "--samples", "10000"]) == 1, panels
            out = capsys.readouterr().out
            assert "FAIL" in out, panels
        assert "conditional-bounds: FAIL" in out
        # at 64 panels no rotation pair converges: no maximum error is claimed,
        # and the capped per-pair lines leave room for every later check
        assert "rotation-identity: 0/1000 pass (1000 did not converge)\n" in out
        assert "max err" not in out
        fail_lines = [line for line in out.splitlines() if line.startswith("FAIL: ")]
        assert fail_lines[20] == "FAIL: ... and 980 more rotation identity failures"
        assert fail_lines[21].startswith("FAIL: exp-log constant: ")
        assert fail_lines[22].startswith("FAIL: conditional log bounds: ")
        assert len(fail_lines) == 23

    def test_strict_mode_passes(self):
        assert _run(["oracles", "--strict", "--samples", "100000", "--seed", "2"]) == 0

    def test_stdout_independent_of_workers(self, capsys):
        outs = []
        for workers in (["--workers", "1"], ["--workers", "2"], []):
            assert _run(["oracles", "--samples", "100000", "--seed", "4", *workers]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]

    def test_one_quadrature_call_and_gamma_once(self, monkeypatch):
        # every rotation pair goes through one batched call, and the bound
        # check reuses the run's gamma instead of computing its own
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, **k: calls.update([name]) or fn(*a, **k))

        counted(cli, "rotation_mean_log_quadrature")
        counted(cli, "exp_log_mean")
        counted(oracles, "exp_log_mean")
        assert _run(["oracles", "--samples", "2000", "--seed", "1"]) == 0
        assert calls == {"rotation_mean_log_quadrature": 1, "exp_log_mean": 1}


def test_workers_default_to_usable_cpus(monkeypatch):
    for command in (["oracles"], ["rates", "--scheme", "zf", "--alpha", "0.5",
                                  "--snr-db", "10:10:10", "--out", "x.csv"],
                    ["slopes", "--scheme", "zf", "--alpha", "0.5", "--out", "x.json"]):
        args = cli._build_parser().parse_args(command)
        assert args.workers == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._build_parser().parse_args(["oracles"]).workers == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._build_parser().parse_args(["oracles"]).workers == 1


def test_fit_slope_recovers_line():
    x = np.arange(10.0)
    y = 3.0 * x + 1.0
    slope, ci = cli._fit_slope(x, y)
    assert slope == pytest.approx(3.0)
    assert ci == pytest.approx(0.0, abs=1e-9)


def test_snr_grid_parsing():
    assert cli._parse_snr_grid("40:5:50") == [40.0, 45.0, 50.0]
    assert cli._parse_snr_grid("40:5:49.9") == [40.0, 45.0]
    assert cli._parse_snr_grid("40:50") is None
    assert cli._parse_snr_grid("a:b:c") is None


_RATES_ZF = ["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "10:10:10"]

BAD_INPUT_CASES = [
    # (argv, MISO_DOF_SEED, exit code, fragment of the one-line message)
    (_RATES_ZF + ["--samples", "0"], None, 2, "n_samples must be positive"),
    (_RATES_ZF + ["--workers", "0"], None, 2, "n_workers must be positive"),
    (_RATES_ZF + ["--seed", "-1"], None, 2, "seed must fit"),
    (_RATES_ZF + ["--seed", str(2 ** 64)], None, 2, "seed must fit"),
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "1e9:1:1e9"], None, 2,
     "out of range"),
    (_RATES_ZF, "abc", 2, "MISO_DOF_SEED must be an integer"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--samples", "0"], None, 2,
     "n_samples must be positive"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "1e9:2e9"], None, 2,
     "out of range"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5"], "abc", 2, "MISO_DOF_SEED"),
    (["oracles", "--seed", "-1"], None, 2, "seed must fit"),
    (["oracles", "--samples", "0"], None, 2, "n_samples must be positive"),
    (["oracles"], "1.5", 2, "MISO_DOF_SEED must be an integer"),
    (["region", "--alpha", "nan"], None, 2, "alpha must be a nonnegative number"),
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "nan:1:2"], None, 2,
     "malformed --snr-db range"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "40:inf"], None, 2,
     "malformed --snr-db-range"),
    (["oracles", "--workers", "0"], None, 2, "n_workers must be positive"),
]


@pytest.mark.parametrize("argv, env_seed, code, fragment", BAD_INPUT_CASES)
def test_bad_input_exit_codes(argv, env_seed, code, fragment, tmp_path, monkeypatch, capsys):
    if env_seed is None:
        monkeypatch.delenv("MISO_DOF_SEED", raising=False)
    else:
        monkeypatch.setenv("MISO_DOF_SEED", env_seed)
    out = [] if argv[0] == "oracles" else ["--out", str(tmp_path / "x.out")]
    assert cli.main(argv + out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("command", [
    ["region", "--alpha", "0.5"], _RATES_ZF, ["slopes", "--scheme", "zf", "--alpha", "0.5"]])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_exits_2_before_estimating(command, where, tmp_path, monkeypatch,
                                                  capsys):
    # An --out that cannot be written is bad usage: one error line, exit 2,
    # and no Monte Carlo estimate is run first.
    def never(*_):
        raise AssertionError("rate_scheme ran before --out was checked")

    monkeypatch.setattr(cli, "rate_scheme", never)
    out = tmp_path / "missing" / "x.out" if where == "missing_dir" else tmp_path
    assert cli.main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_out_check_keeps_existing_file(tmp_path, capsys):
    # The check leaves an existing output untouched when a later argument fails.
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    assert cli.main(["rates", "--scheme", "zf", "--alpha", "-1", "--snr-db", "10:10:10",
                     "--out", str(out)]) == 2
    assert out.read_text() == "old\n"
    assert cli.main(["region", "--alpha", "-1", "--out", str(tmp_path / "new.json")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("failure", ["nan_rate", "nan_sample"])
def test_non_finite_names_the_cell(failure, tmp_path, monkeypatch, capsys):
    def broken(scheme, cfgs, mc_cfg):
        if failure == "nan_sample":
            raise NonFiniteSampleError(7)
        return [RateResult(r1=float("nan"), r2=1.0, se_r1=0.0, se_r2=0.0)] * len(cfgs)

    monkeypatch.setattr(cli, "rate_scheme", broken)
    assert cli.main(_RATES_ZF + ["--samples", "100", "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "(snr_db 10, scheme zf)" in err
    if failure == "nan_sample":
        assert "sample index 7" in err


@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_non_finite_column_names_its_scheme(scheme, tmp_path, monkeypatch, capsys):
    # One estimate serves every scheme of an SNR; a NaN in one scheme's
    # columns must still name that scheme's cell.
    real = rates._COLUMNS[Scheme(scheme)]

    def poisoned(cfg):
        width, fill, finalize = real(cfg)

        def bad_fill(batch, proj, out):
            fill(batch, proj, out)
            out[5, width - 1] = np.nan

        return width, bad_fill, finalize

    monkeypatch.setitem(rates._COLUMNS, Scheme(scheme), poisoned)
    argv = ["rates", "--scheme", "all", "--alpha", "0.5", "--snr-db", "10:10:20",
            "--samples", "100", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "sample index 5" in err and f"(snr_db 10, scheme {scheme})" in err


def test_non_finite_names_its_snr(tmp_path, monkeypatch, capsys):
    # One estimate serves every SNR of a run; a NaN from 20 dB on names the
    # first such cell, not the run's first SNR.
    real = rates._COLUMNS[Scheme.ZF]

    def poisoned(cfg):
        width, fill, finalize = real(cfg)

        def bad_fill(batch, proj, out):
            fill(batch, proj, out)
            out[5, 0] = np.nan

        return width, (bad_fill if cfg.snr_p > 50.0 else fill), finalize

    monkeypatch.setitem(rates._COLUMNS, Scheme.ZF, poisoned)
    argv = ["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "10:10:30",
            "--samples", "100", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "sample index 5" in err and "(snr_db 20, scheme zf)" in err


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_seams_call_counts(workers, tmp_path, monkeypatch):
    # The outside-in tracer wraps these module attributes; the rates command
    # must reach every one of them through its module: one rate_scheme call
    # and one estimate per run, one draw per block for every SNR.
    counts, keys, lock = Counter(), Counter(), threading.Lock()
    open_cells, first_args = [], []

    def counted(module, name, record=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
                if record:
                    record(*args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def in_cell(*_):
        counts["estimate_in_cell"] += len(open_cells) == 1

    counted(mc, "sample_batch")
    counted(mc, "block_rng", lambda seed, block: keys.update([(int(seed), int(block))]))
    counted(mc, "estimate", in_cell)
    real_rate_scheme = cli.rate_scheme

    def rate_scheme(*args):
        counts["rate_scheme"] += 1
        first_args.append(args[0])
        open_cells.append(args[0])
        try:
            return real_rate_scheme(*args)
        finally:
            open_cells.pop()

    monkeypatch.setattr(cli, "rate_scheme", rate_scheme)
    out = tmp_path / "rates.csv"
    assert cli.main(["rates", "--scheme", "all", "--alpha", "0.5", "--snr-db", "10:10:20",
                     "--samples", "10000", "--seed", "3", "--workers", str(workers),
                     "--out", str(out)]) == 0
    assert counts == {"rate_scheme": 1, "estimate": 1, "estimate_in_cell": 1,
                      "block_rng": 2, "sample_batch": 2}
    assert keys == {(3, 0): 1, (3, 1): 1}
    assert first_args == [tuple(Scheme)]
    hash(first_args[0])  # the tracer keys its spans by this argument
    first_args.clear()
    assert cli.main(["rates", "--scheme", "mat", "--alpha", "0.5", "--snr-db", "10:10:10",
                     "--samples", "100", "--out", str(out)]) == 0
    assert first_args == [Scheme.MAT] and type(first_args[0]) is Scheme


def test_oracle_suite_estimates_through_mc_module(monkeypatch):
    calls = []
    real = mc.estimate
    monkeypatch.setattr(mc, "estimate", lambda *a: calls.append(a) or real(*a))
    assert cli.main(["oracles", "--samples", "2000", "--seed", "1"]) == 0
    assert len(calls) == 1


def test_runs_without_glibc(tmp_path, monkeypatch):
    # The heap thresholds are a glibc setting, pinned when ``mc`` is imported;
    # elsewhere the C library's defaults stay and every command still runs.
    tried = []

    def no_glibc(name):
        tried.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(mc.ctypes, "CDLL", no_glibc)
    mc._keep_freed_heap()
    assert tried == ["libc.so.6"]
    assert _run(["region", "--alpha", "0.5", "--out", str(tmp_path / "r.json")]) == 0
    assert _run(_RATES_ZF + ["--samples", "100", "--out", str(tmp_path / "x.csv")]) == 0
