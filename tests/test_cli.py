import json
import threading
from collections import Counter

import numpy as np
import pytest

from misodof import cli, mc
from misodof.mc import NonFiniteSampleError
from misodof.rates import RateResult


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
        def broken(scheme, cfg, mc_cfg):
            return RateResult(r1=float("nan"), r2=1.0, se_r1=0.0, se_r2=0.0)

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

        base = manifest_for(["--seed", "1"], "base.csv")
        same = manifest_for(["--seed", "1", "--workers", "4"], "same.csv")
        other = manifest_for(["--seed", "2"], "other.csv")
        assert base["config_hash"] == same["config_hash"]
        assert base["config_hash"] != other["config_hash"]
        assert base["version"] == "0.1.0"

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
        assert _run(["oracles", "--max-panels", "4"]) == 1

    def test_strict_mode_passes(self):
        assert _run(["oracles", "--strict", "--samples", "100000", "--seed", "2"]) == 0


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


@pytest.mark.parametrize("failure", ["nan_rate", "nan_sample"])
def test_non_finite_names_the_cell(failure, tmp_path, monkeypatch, capsys):
    def broken(scheme, cfg, mc_cfg):
        if failure == "nan_sample":
            raise NonFiniteSampleError(7)
        return RateResult(r1=float("nan"), r2=1.0, se_r1=0.0, se_r2=0.0)

    monkeypatch.setattr(cli, "rate_scheme", broken)
    assert cli.main(_RATES_ZF + ["--samples", "100", "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "(snr_db 10, scheme zf)" in err
    if failure == "nan_sample":
        assert "sample index 7" in err


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_seams_call_counts(workers, tmp_path, monkeypatch):
    # The outside-in tracer wraps these module attributes; the rates command
    # must reach every one of them through its module, once per cell/block.
    counts, keys, lock = Counter(), Counter(), threading.Lock()
    open_cells = []

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
    assert counts == {"rate_scheme": 10, "estimate": 10, "estimate_in_cell": 10,
                      "block_rng": 20, "sample_batch": 20}
    assert keys == {(3, 0): 10, (3, 1): 10}


def test_oracle_suite_estimates_through_mc_module(monkeypatch):
    calls = []
    real = mc.estimate
    monkeypatch.setattr(mc, "estimate", lambda *a: calls.append(a) or real(*a))
    assert cli.main(["oracles", "--samples", "2000", "--seed", "1"]) == 0
    assert len(calls) == 1
