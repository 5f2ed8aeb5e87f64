"""Rewrite the golden files with the commands that ``test_golden.py`` runs.

Run from the repository root after a change that moves the numbers on
purpose (a new draw stream, say):

    PYTHONPATH=src python tests/golden/regenerate.py

Each file is the ``--out`` of its command in ``test_golden.COMMANDS``; the
manifests that the commands also write are discarded.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, GOLDEN  # noqa: E402

from misodof import cli  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            out = Path(tmp) / name
            if cli.main(argv + ["--out", str(out)]) != 0:
                sys.exit(f"{name}: {' '.join(argv)} failed")
            shutil.copyfile(out, GOLDEN / name)
            print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    main()
