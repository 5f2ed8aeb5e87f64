"""Golden outputs of the `rates` sweep for every scheme.

The files in ``golden/`` were written by the integrands as they stood
before the shared projection kernel, with
``rates --scheme all --alpha A --snr-db 20:20:80 --samples 20000 --seed 0``.
The one edit is in the alpha = 1 file, where the r_eta columns then printed
``-0``; they print ``0`` now.  alpha = 0 pins the fallback beams used for
zero estimates, which every scheme chooses for itself.
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
