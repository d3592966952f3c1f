"""Write the reference rows the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every preset of the ``figures`` workload and keeps a subsample of each
CSV (about 40 rows of every series, all rows of every pole table) under
``perfbench/reference/``, each row prefixed with its row index.  Rerun it
only for a change that is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import REFERENCE_DIR  # noqa: E402
from inputs import POLE_PRESETS, SERIES_PRESETS  # noqa: E402

SERIES_ROWS = 40


def subsample(lines, keep_all):
    header, rows = lines[0], lines[1:]
    if keep_all:
        idx = list(range(len(rows)))
    else:
        step = max(1, (len(rows) - 1) // SERIES_ROWS)
        idx = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    return [f"row,{header}"] + [f"{i},{rows[i]}" for i in idx]


def main() -> int:
    from pbgpair import cli

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SERIES_PRESETS + POLE_PRESETS:
            path = os.path.join(tmp, f"{name}.csv")
            if cli.main(["preset", name, "-o", path]) != 0:
                print(f"preset {name} failed", file=sys.stderr)
                return 1
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            kept = subsample(lines, keep_all=name in POLE_PRESETS)
            with open(os.path.join(REFERENCE_DIR, f"{name}.csv"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(kept) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
