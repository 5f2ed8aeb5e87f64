"""Golden outputs of the `rates` sweep and the `slopes` fit.

The ``rates_all_alpha*.csv`` files were written by the integrands as they
stood before the shared projection kernel, with
``rates --scheme all --alpha A --snr-db 20:20:80 --samples 20000 --seed 0``.
The one edit is in the alpha = 1 file, where the r_eta columns then printed
``-0``; they print ``0`` now.  alpha = 0 pins the beams of the zero
estimates, h_hat along antenna 1 and g_hat along antenna 2, which
``rates._project`` chooses for every scheme.  Its 4 TDMA rows were rewritten
when that choice moved there: TDMA's user-2 beam went from antenna 1 to
antenna 2, which changes r2, rsum and stderr_sum but not their distribution.

``rates_all_sigma_sq0.1.csv`` and ``slopes_proposed_alpha0.5.json`` were
written while each SNR of a run was still its own estimate, so they pin the
grid estimator, which draws each block once for every SNR, to the per-SNR
numbers.  A fixed sigma_sq gives every SNR the same estimate scale.
"""

from pathlib import Path

import pytest

from misodof import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("alpha", ["0", "0.5", "1"])
def test_rates_all_matches_golden(alpha, tmp_path):
    out = tmp_path / "rates.csv"
    assert cli.main(["rates", "--scheme", "all", "--alpha", alpha, "--snr-db", "20:20:80",
                     "--samples", "20000", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"rates_all_alpha{alpha}.csv").read_bytes()


def test_rates_fixed_sigma_sq_matches_golden(tmp_path):
    out = tmp_path / "rates.csv"
    assert cli.main(["rates", "--scheme", "all", "--sigma-sq", "0.1", "--snr-db", "20:20:80",
                     "--samples", "20000", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "rates_all_sigma_sq0.1.csv").read_bytes()


def test_slopes_matches_golden(tmp_path):
    out = tmp_path / "slopes.json"
    assert cli.main(["slopes", "--scheme", "proposed", "--alpha", "0.5",
                     "--samples", "20000", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "slopes_proposed_alpha0.5.json").read_bytes()
