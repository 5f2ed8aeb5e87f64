"""Golden outputs of the `rates` sweep and the `slopes` fit.

``COMMANDS`` holds the command behind each file, and ``golden/regenerate.py``
rewrites the files with them.  All five were last rewritten when each block
came to be drawn from 13 uniforms per sample, its error normals by Box-Muller
in tangent form: a new stream with the same distribution, under which every
regenerated rsum lay within 2.1 combined standard errors of the one it
replaced (``regenerate.py --compare``); the slopes file has since gained
each grid point's stderr_sum, its other bytes unchanged.  When every log
term became a difference of logs over P, only ``rates_all_alpha1.csv``
moved: its r_c at 20 and 40 dB, a ~1.6e-15 rate of the common power that
rounding then left at alpha = 1.  Since the default policy is a closed form
of (P, alpha), exact at alpha = 1, those four r_c cells (RS-ZF's and the
proposed scheme's) read 0, and no other byte moved.  Since ZF is rate-split
ZF at the alpha = 1 power split, each ZF row of the four rates files
reports its private rates: its r_p1 and r_p2 cells, 0 before, now equal its
r1 and r2, and no other byte moved (max |z| 0.00; the slopes file is
byte-identical).  alpha = 0 pins
the beams of the zero estimates, h_hat along antenna 1 and g_hat along
antenna 2, which ``rates._project`` chooses for every scheme.  ``rates_all_sigma_sq0.1.csv``
fixes sigma_sq, so every SNR of its grid estimate has the same estimate
scale.
"""

from pathlib import Path

import pytest

from misodof import cli

GOLDEN = Path(__file__).parent / "golden"

_RATES = ["rates", "--scheme", "all"]
_GRID = ["--snr-db", "20:20:80", "--samples", "20000", "--seed", "0"]
# each golden file and the command that writes it, less its --out;
# golden/regenerate.py rewrites the files with these commands
COMMANDS = {
    **{f"rates_all_alpha{alpha}.csv": _RATES + ["--alpha", alpha] + _GRID
       for alpha in ("0", "0.5", "1")},
    "rates_all_sigma_sq0.1.csv": _RATES + ["--sigma-sq", "0.1"] + _GRID,
    "slopes_proposed_alpha0.5.json": ["slopes", "--scheme", "proposed", "--alpha", "0.5",
                                      "--samples", "20000", "--seed", "0"],
}


def _check(name, tmp_path):
    out = tmp_path / name
    assert cli.main(COMMANDS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("alpha", ["0", "0.5", "1"])
def test_rates_all_matches_golden(alpha, tmp_path):
    _check(f"rates_all_alpha{alpha}.csv", tmp_path)


def test_rates_fixed_sigma_sq_matches_golden(tmp_path):
    _check("rates_all_sigma_sq0.1.csv", tmp_path)


def test_slopes_matches_golden(tmp_path):
    _check("slopes_proposed_alpha0.5.json", tmp_path)
