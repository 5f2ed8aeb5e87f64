"""Rewrite the golden files with the commands that ``test_golden.py`` runs.

Run from the repository root after a change that moves the numbers on
purpose (a new draw stream, say):

    PYTHONPATH=src python tests/golden/regenerate.py [--compare]

Each file is the ``--out`` of its command in ``test_golden.COMMANDS``; the
manifests that the commands also write are discarded.  With ``--compare``,
before it overwrites a file it prints the largest |z| = |delta rsum| /
hypot(stderr_sum) of the new rows against the committed ones: under a new
stream with the same law, each z is about standard normal.  It also prints
the largest relative change of each numeric column, so that a rewrite of
the arithmetic that only rounds differently shows as one.
"""

import argparse
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, GOLDEN  # noqa: E402

from misodof import cli  # noqa: E402


def _run(argv, out):
    if cli.main(argv + ["--out", str(out)]) != 0:
        sys.exit(f"{out.name}: {' '.join(argv)} failed")


def _rows(path):
    # (rsum, stderr_sum) of each row, or grid point of a slopes file
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [(float(r["rsum"]), float(r["stderr_sum"]))
                for r in csv.DictReader(io.StringIO(text))]
    payload = json.loads(text)
    return list(zip(payload["rsum"], payload["stderr_sum"]))


def max_z(old, new):
    """The largest |delta rsum| / hypot(stderr_sum) between two versions of
    a golden file, the committed ``old`` and the regenerated ``new``."""
    before, after = _rows(old), _rows(new)
    if len(before) != len(after):
        sys.exit(f"{new.name}: {len(after)} rows, the committed file has {len(before)}")
    return max(abs(a - b) / math.hypot(sa, sb) for (a, sa), (b, sb) in zip(before, after))


def _columns(path):
    # each numeric column of a CSV, or numeric field of a JSON file, as floats
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        fields = {k: [r[k] for r in rows] for k in (rows[0] if rows else ())}
    else:
        fields = {k: v if isinstance(v, list) else [v] for k, v in json.loads(text).items()}
    columns = {}
    for name, values in fields.items():
        try:
            columns[name] = [float(v) for v in values]
        except (TypeError, ValueError):  # a text column
            continue
    return columns


def max_relative_change(old, new):
    """The largest |new - old| / |old| of each numeric column between two
    versions of a golden file, 0 where both values are 0."""
    before, after = _columns(old), _columns(new)
    return {name: max((abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf)
                       for a, b in zip(col, after[name])), default=0.0)
            for name, col in before.items() if name in after}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="print each file's largest |z| and relative column changes "
                             "against the committed one")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in COMMANDS.items():
            out = Path(tmp) / name
            _run(command, out)
            if args.compare:
                print(f"{name}: max |delta rsum| / hypot(stderr_sum) = "
                      f"{max_z(GOLDEN / name, out):.2f}")
                changes = max_relative_change(GOLDEN / name, out)
                print(f"{name}: max relative change by column: "
                      + ", ".join(f"{col} {rel:.2g}" for col, rel in changes.items()))
            shutil.copyfile(out, GOLDEN / name)
            print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    main()
