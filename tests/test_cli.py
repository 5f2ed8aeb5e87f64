import gc
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from misodof import cli, mc, oracles, rates
from misodof.channel import ChannelBatch, CsitConfig
from misodof.mc import NonFiniteSampleError
from misodof.rates import RateResult
from misodof.regions import Scheme


# a JSON float -0.0, but not, say, -0.05
NEGATIVE_ZERO = re.compile(r"-0\.0\b")


def _run(args):
    return cli.main(args)


def _entry(args, **kwargs):
    # The process entry, as the console script runs it; with -m the working
    # directory, here src/, is on the child's import path.
    return subprocess.run([sys.executable, "-m", "misodof.cli", *args],
                          cwd=Path(cli.__file__).parents[1], **kwargs)


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

    def test_negative_zero_exponents_write_zero(self, tmp_path):
        # -0 is a valid exponent, and no -0.0 reaches the JSON from it
        out = tmp_path / "region.json"
        assert _run(["region", "--alpha", "-0", "--beta", "-0", "--out", str(out)]) == 0
        assert NEGATIVE_ZERO.search(out.read_text()) is None
        assert json.loads(out.read_text())["corners"] == [[1.0, 0.0], [0.0, 1.0]]

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

    @pytest.mark.parametrize("alpha", ["0", "0.5", "1"])
    def test_every_scheme_finite_at_extreme_snr(self, alpha, tmp_path):
        # Every log term is a difference of logs of sums over P, and the
        # phase-1 determinant, ~P^2, is evaluated over P^2, so every scheme
        # stays finite where P^2 overflows a double, up to the top of the
        # accepted range, 3082 dB; a numpy overflow warning fails the test too.
        out = tmp_path / "rates.csv"
        for grid, points in (("1545:1455:3000", 2), ("3082:1:3082", 1)):
            assert _run(["rates", "--scheme", "all", "--alpha", alpha, "--snr-db", grid,
                         "--samples", "20000", "--seed", "1", "--out", str(out)]) == 0
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == points * 5
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[3:])

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

    @pytest.mark.parametrize("quality", [["--alpha", "-0"], ["--sigma-sq", "1"]])
    def test_no_csit_alpha_writes_zero(self, quality, tmp_path):
        out = tmp_path / "rates.csv"
        assert _run(["rates", "--scheme", "zf", *quality, "--snr-db", "10:10:20",
                     "--samples", "200", "--out", str(out)]) == 0
        assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == ["0", "0"]

    def test_negative_zero_alpha_hashes_as_zero(self, tmp_path):
        hashes = []
        for alpha in ("0", "-0"):
            out = tmp_path / f"alpha{alpha}.csv"
            assert _run(["rates", "--scheme", "zf", "--alpha", alpha, "--snr-db", "10:10:10",
                         "--samples", "200", "--out", str(out)]) == 0
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1]

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

    def test_negative_zero_alpha_writes_zero(self, tmp_path):
        out = tmp_path / "slope.json"
        assert _run(["slopes", "--scheme", "zf", "--alpha", "-0", "--samples", "200",
                     "--out", str(out)]) == 0
        assert NEGATIVE_ZERO.search(out.read_text()) is None
        assert json.loads(out.read_text())["alpha"] == 0.0

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

    def test_injected_fault_exits_1(self, monkeypatch, capsys):
        # at a 64-panel budget no rotation pair converges: no maximum error is
        # claimed, and the capped per-pair lines leave room for the later
        # checks, which do not use the quadrature and still pass
        monkeypatch.setattr(oracles, "_MAX_PANELS", 64)
        assert _run(["oracles", "--samples", "10000"]) == 1
        out = capsys.readouterr().out
        assert "rotation-identity: 0/1000 pass (1000 did not converge)\n" in out
        assert "max err" not in out
        assert re.search(r"^exp-log-constant: .* pass$", out, re.M)
        assert "conditional-bounds: 100/100 batches pass" in out
        fail_lines = [line for line in out.splitlines() if line.startswith("FAIL: ")]
        assert fail_lines[20] == "FAIL: ... and 980 more rotation identity failures"
        assert len(fail_lines) == 21

    @pytest.mark.parametrize("scale", ["a", "b"])
    def test_mis_scaled_sampler_fails(self, scale, monkeypatch, capsys):
        # The exp-log check reads every entry of a draw: a 5% error in the
        # estimate scaling a or the error scaling b moves its mean by 0.07,
        # about 12 standard errors at 100k samples.
        real = getattr(ChannelBatch, scale)
        monkeypatch.setattr(ChannelBatch, scale, property(lambda batch: 1.05 * real.fget(batch)))
        assert _run(["oracles", "--samples", "100000", "--seed", "2"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^exp-log-constant: .* FAIL$", out, re.M)
        assert "FAIL: exp-log constant mismatch" in out

    def test_chi2_2_norms_fail(self, monkeypatch, capsys):
        # Estimate norms drawn as chi^2_2, |e|^2 / 2 ~ Exp(1) where the
        # sampler's law is Gamma(2), move the exp-log check's mean by
        # -log2(e) / 2, about 100 standard errors at 100k samples.
        real = mc.sample_batch

        def chi2_2_norms(rng, cfgs, n):
            batches = list(real(rng, cfgs, n))
            batches[0].normals.norm[:] = np.sqrt(2.0 * rng.standard_exponential((2, n)))
            return iter(batches)

        monkeypatch.setattr(mc, "sample_batch", chi2_2_norms)
        assert _run(["oracles", "--samples", "100000", "--seed", "2"]) == 1
        assert "FAIL: exp-log constant mismatch" in capsys.readouterr().out

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
    for text in ("40:50", "a:b:c", "40:-5:50", "50:5:40", "inf:1:2"):
        with pytest.raises(cli._Exit, match="malformed"):
            cli._parse_snr_grid(text)


def test_snr_grid_never_runs_past_stop():
    # the count's slack is in steps, not dB: a step below it adds no point
    assert cli._parse_snr_grid("10:1e-10:10") == [10.0]
    assert cli._parse_snr_grid("40:1e-12:40") == [40.0]


def test_snr_grid_points_do_not_drift():
    # Point i is start + i * step rounded to 12 decimals, not a running sum,
    # which reaches values such as 78.799999999999 on this grid.
    assert cli._parse_snr_grid("40:0.1:80") == [round(40 + i * 0.1, 12) for i in range(401)]


@pytest.mark.parametrize("extra, grid", [
    ([], [40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0]),
    (["--snr-db-range", "200:360"], [200.0, 220.0, 240.0, 260.0, 280.0, 300.0, 320.0,
                                     340.0, 360.0]),
    (["--points", "5"], [40.0, 50.0, 60.0, 70.0, 80.0]),
])
def test_slopes_grids(extra, grid, tmp_path):
    out = tmp_path / "slope.json"
    assert _run(["slopes", "--scheme", "zf", "--alpha", "0.5", *extra, "--samples", "200",
                 "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["snr_db"] == grid


_RATES_ZF = ["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "10:10:10"]

BAD_INPUT_CASES = [
    # (argv, MISO_DOF_SEED, exit code, fragment of the one-line message)
    (_RATES_ZF + ["--samples", "0"], None, 2, "n_samples must be at least 2"),
    (_RATES_ZF + ["--workers", "0"], None, 2, "n_workers must be positive"),
    (_RATES_ZF + ["--seed", "-1"], None, 2, "seed must fit"),
    (_RATES_ZF + ["--seed", str(2 ** 64)], None, 2, "seed must fit"),
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "1e9:1:1e9"], None, 2,
     "out of range"),
    (_RATES_ZF, "abc", 2, "MISO_DOF_SEED must be an integer"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--samples", "0"], None, 2,
     "n_samples must be at least 2"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "1e9:2e9"], None, 2,
     "out of range"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5"], "abc", 2, "MISO_DOF_SEED"),
    (["oracles", "--seed", "-1"], None, 2, "seed must fit"),
    (["oracles", "--samples", "0"], None, 2, "n_samples must be at least 2"),
    (["oracles"], "1.5", 2, "MISO_DOF_SEED must be an integer"),
    (["region", "--alpha", "nan"], None, 2, "alpha must be a nonnegative number"),
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "nan:1:2"], None, 2,
     "malformed --snr-db range"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "40:inf"], None, 2,
     "malformed --snr-db-range"),
    (["oracles", "--workers", "0"], None, 2, "n_workers must be positive"),
    # the grid rounds to fewer than 3 distinct points
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "40:40.0000000000001"],
     None, 2, "at least 3 distinct grid points"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "1e-13:1e-12"],
     None, 2, "at least 3 distinct grid points"),
    (["rates", "--scheme", "zf", "--sigma-sq", "2", "--snr-db", "10:10:10"], None, 2,
     "snr_db 10: sigma_sq must lie in (0, 1]"),
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "0:1:1"], None, 2,
     "snr_db 0: snr_p must be a finite number above 1"),
    # a one-point grid whose P overflows, and grids past the point cap
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "1e20:1:1e20"], None, 2,
     "snr_db 1e+20 out of range (P overflows)"),
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "0:1e-9:1e6"], None, 2,
     "more than 10000 points"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--points", "1000000000000000"], None, 2,
     "is more than 10000"),
    # P overflows at every grid point past the first
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--snr-db-range", "3000:1e300"], None, 2,
     "out of range"),
    # one sample has no standard error
    (_RATES_ZF + ["--samples", "1"], None, 2, "n_samples must be at least 2, got 1"),
    (["slopes", "--scheme", "zf", "--alpha", "0.5", "--samples", "1"], None, 2,
     "n_samples must be at least 2, got 1"),
    (["oracles", "--samples", "1"], None, 2, "n_samples must be at least 2, got 1"),
    # removed options: argparse's usage error
    (["oracles", "--strict"], None, 2, "unrecognized arguments: --strict"),
    (["oracles", "--max-panels", "64"], None, 2, "unrecognized arguments: --max-panels 64"),
    # two points round to 10 at 12 decimals
    (["rates", "--scheme", "zf", "--alpha", "0.5", "--snr-db", "10:4e-13:10.000000000001"],
     None, 2, "round alike at 12 decimals"),
]


@pytest.mark.parametrize("argv, env_seed, message", [
    (_RATES_ZF + ["--samples", "1"], None, "--samples: n_samples must be at least 2, got 1"),
    (["oracles", "--seed", "-1"], None, "--seed: seed must fit in an unsigned 64-bit integer"),
    (["oracles", "--workers", "0"], None, "--workers: n_workers must be positive, got 0"),
    (["oracles"], "-1", "MISO_DOF_SEED: seed must fit in an unsigned 64-bit integer"),
], ids=["samples", "seed", "workers", "env_seed"])
def test_usage_error_names_its_option(argv, env_seed, message, tmp_path, monkeypatch, capsys):
    # a value that a config type rejects is named by where the user set it
    if env_seed is None:
        monkeypatch.delenv("MISO_DOF_SEED", raising=False)
    else:
        monkeypatch.setenv("MISO_DOF_SEED", env_seed)
    out = [] if argv[0] == "oracles" else ["--out", str(tmp_path / "x.out")]
    assert cli.main(argv + out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, env_seed, code, fragment", BAD_INPUT_CASES)
def test_bad_input_exit_codes(argv, env_seed, code, fragment, tmp_path, monkeypatch, capsys):
    if env_seed is None:
        monkeypatch.delenv("MISO_DOF_SEED", raising=False)
    else:
        monkeypatch.setenv("MISO_DOF_SEED", env_seed)
    out = [] if argv[0] == "oracles" else ["--out", str(tmp_path / "x.out")]
    assert cli.main(argv + out) == code
    err = capsys.readouterr().err
    if err.startswith("usage: "):  # argparse prints its usage text before its error line
        err = err.split("\nmisodof: ", 1)[1]
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_full_stdout_exits_2_with_one_error_line(unbuffered):
    # Unbuffered, the first print fails; buffered, the flush at the end of the
    # command does.  Either way the write is reported once, and the bytes
    # left in stdout's buffer are not written again at exit.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        proc = _entry(["oracles", "--samples", "1000", "--seed", "1"], stdout=full,
                      stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write '<stdout>': ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_closed_stdout_is_no_error():
    # With descriptor 1 closed, sys.stdout is None and print writes nothing.
    proc = _entry(["oracles", "--samples", "1000", "--seed", "1"],
                  preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")


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
            exc = NonFiniteSampleError(7)
            exc.scheme = Scheme.ZF  # as rate_scheme names every failing column
            raise exc
        return [RateResult(r1=float("nan"), r2=1.0, se_r1=0.0, se_r2=0.0)] * len(cfgs)

    monkeypatch.setattr(cli, "rate_scheme", broken)
    assert cli.main(_RATES_ZF + ["--samples", "100", "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "(snr_db 10, scheme zf)" in err
    if failure == "nan_sample":
        assert "sample index 7" in err


def _poison(monkeypatch, scheme, at=lambda cfg: True):
    # A NaN at sample 5 of the last row of ``scheme``'s last key, at the
    # configs ``at`` picks: its spec names the key, its producer writes it.
    real, poisoned = rates._COLUMNS[scheme], set()

    def spec(cfg):
        keys, finalize = real(cfg)
        if at(cfg):
            poisoned.add(keys[-1])
        return keys, finalize

    def bad(name, produce):
        def fill(shared, out, *params):
            produce(shared, out, *params)
            if (name, *params) in poisoned:
                out[-1, 5] = np.nan
        return fill

    monkeypatch.setitem(rates._COLUMNS, scheme, spec)
    for name in ("tdma", "phase2", "mimo"):
        monkeypatch.setattr(rates._Shared, name, bad(name, getattr(rates._Shared, name)))


def _rates_all_fails(alpha, tmp_path, capsys):
    argv = ["rates", "--scheme", "all", "--alpha", alpha, "--snr-db", "10:10:20",
            "--samples", "100", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_non_finite_column_names_its_scheme(scheme, tmp_path, monkeypatch, capsys):
    # One estimate serves every scheme of an SNR; a NaN in one scheme's
    # columns must still name that scheme's cell.  RS-ZF's phase-2 key is
    # also the proposed scheme's, and RS-ZF reads it first.
    _poison(monkeypatch, Scheme(scheme))
    err = _rates_all_fails("0.5", tmp_path, capsys)
    assert "sample index 5" in err and f"(snr_db 10, scheme {scheme})" in err


def test_shared_column_names_its_first_reader(tmp_path, monkeypatch, capsys):
    # At alpha = 1, ZF, RS-ZF and the proposed scheme read one private pair;
    # a NaN in it names the first of them in the order asked for, ZF.
    _poison(monkeypatch, Scheme.RS_ZF)
    err = _rates_all_fails("1", tmp_path, capsys)
    assert "sample index 5" in err and "(snr_db 10, scheme zf)" in err


def test_non_finite_names_its_snr(tmp_path, monkeypatch, capsys):
    # One estimate serves every SNR of a run; a NaN from 20 dB on names the
    # first such cell, not the run's first SNR.
    _poison(monkeypatch, Scheme.ZF, at=lambda cfg: cfg.snr_p > 50.0)
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
    # and one estimate per run, one draw per block for every SNR.  Blocks
    # run in forked workers too, so every call appends one line to a log
    # file: an O_APPEND write of a short line stays whole across processes.
    log = tmp_path / "calls.log"
    open_cells, first_args = [], []

    def counted(module, name, record=lambda *_: ""):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{name} {record(*args)}\n".encode())
            finally:
                os.close(fd)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(mc, "sample_batch")
    counted(mc, "block_rng", lambda seed, block: f"{int(seed)} {int(block)}")
    counted(mc, "estimate", lambda *_: "in_cell" if len(open_cells) == 1 else "")
    real_rate_scheme = cli.rate_scheme

    def rate_scheme(*args):
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
    calls = [line.split() for line in log.read_text().splitlines()]
    counts = Counter(call[0] for call in calls)
    counts["rate_scheme"] = len(first_args)
    counts["estimate_in_cell"] = sum(call == ["estimate", "in_cell"] for call in calls)
    keys = Counter((int(c[1]), int(c[2])) for c in calls if c[0] == "block_rng")
    assert counts == {"rate_scheme": 1, "estimate": 1, "estimate_in_cell": 1,
                      "block_rng": 2, "sample_batch": 2}
    assert keys == {(3, 0): 1, (3, 1): 1}
    assert first_args == [tuple(Scheme)]
    hash(first_args[0])  # the tracer keys its spans by this argument
    first_args.clear()
    assert cli.main(["rates", "--scheme", "mat", "--alpha", "0.5", "--snr-db", "10:10:10",
                     "--samples", "100", "--out", str(out)]) == 0
    assert first_args == [Scheme.MAT] and type(first_args[0]) is Scheme


def test_oracle_suite_estimates_through_mc_module(monkeypatch, capsys):
    # one estimate per run, of one channel draw per eight exponential samples;
    # at least 64 draws, so that the 5-SE verdict does not hinge on the stream
    calls = []
    real = mc.estimate
    monkeypatch.setattr(mc, "estimate", lambda *a: calls.append(a) or real(*a))
    for samples, draws in ((2000, 250), (2001, 251), (2, 64)):
        calls.clear()
        assert cli.main(["oracles", "--samples", str(samples), "--seed", "1"]) == 0
        assert [a[1].n_samples for a in calls] == [draws]
    capsys.readouterr()
    calls.clear()
    assert cli.main(["oracles", "--samples", "0"]) == 2
    assert "n_samples must be at least 2" in capsys.readouterr().err
    assert calls == []


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


def test_entry_writes_what_main_writes(tmp_path):
    argv = _RATES_ZF + ["--samples", "2000", "--seed", "3"]
    proc = _entry(argv + ["--out", str(tmp_path / "entry.csv")], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert cli.main(argv + ["--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_entry_usage_error_exits_2(tmp_path):
    proc = _entry(_RATES_ZF + ["--samples", "1", "--out", str(tmp_path / "x.csv")],
                  capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: --samples: n_samples must be at least 2, got 1\n"


def test_entry_freezes_the_heap_before_main(monkeypatch):
    # main's return value is the exit code: here, the frozen count it saw
    monkeypatch.setattr(cli, "main", gc.get_freeze_count)
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.cli()
    finally:
        gc.unfreeze()
    assert isinstance(exit_info.value.code, int) and exit_info.value.code > 0


def test_import_freezes_nothing():
    # The freeze belongs to the process entry: the library leaves the
    # collector as it found it.
    code = "import gc, misodof.cli; print(gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(cli.__file__).parents[1],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def test_runtime_imports_numpy_only():
    # scipy, mpmath and the test tools are test-only: importing the CLI,
    # which imports every module of the package, loads none of them.  With
    # -c the working directory, here src/, is on the child's import path.
    code = ("import sys, misodof.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules}"
            " & {'scipy', 'mpmath', 'hypothesis', 'pytest'}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(cli.__file__).parents[1],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_import_starts_no_blas_pool(setting, threads):
    # The package pins OpenBLAS to one thread unless the caller says
    # otherwise, so importing the CLI leaves the process single-threaded.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = "import os, misodof.cli; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(cli.__file__).parents[1],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == f"{threads}\n"
