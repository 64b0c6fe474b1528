"""Reproduce the ROADMAP baseline table from traced CLI runs.

    python3 perfbench/baseline.py

Runs the traced ``density`` command (the same child and spans as
``run.py --trace 1``) at the table's sizes and prints a markdown table of
the median stage times of REPEATS runs next to the ROADMAP's single-run
figures, flagging every cell that differs by more than 10 %.  Takes about three minutes per
repeat on a 2-core Xeon, most of it in the cube 1e7 column.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys

import run

# ROADMAP "Baseline (measured at this re-anchor)", seconds
COLUMNS = [("cube", 1_000_000), ("dodecahedron", 1_000_000),
           ("square", 1_000_000), ("cube", 10_000_000)]
ROWS = [
    ("`sample_iur_sections`", "sampling.s", [4.7, 11.5, 0.40, 34.8]),
    ("SJ bandwidth", "density.sj_s", [0.13, 0.14, 0.14, 1.36]),
    ("reflection KDE (512 pts)", "density.kde_s", [0.64, 0.58, 0.21, 2.58]),
]
FLAG = 0.10
REPEATS = 3
SEED = 1


def main() -> int:
    if not (run.SRC / "sectionlab" / "__init__.py").is_file():
        print(f"error: no sectionlab sources under {run.SRC}", file=sys.stderr)
        return 2
    run.use_checkout()
    workdir = run.OUT / f"baseline-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    measured = {}
    try:
        for shape, n in COLUMNS:
            args = ["density", "--shape", shape, "--n", str(n), "--seed",
                    str(SEED), "--workers", "1", "-o", "out.csv"]
            per_run = []
            for _ in range(REPEATS):
                record = run.run_command(args, workdir, ("out.csv",), "trace",
                                         timeout=600.0)
                if not run.completed(record):
                    print(f"error: {' '.join(args)} failed", file=sys.stderr)
                    return 1
                per_run.append(run.layer_metrics(record["spans"]))
            measured[shape, n] = {key: statistics.median(m[key] for m in per_run)
                                  for key in per_run[0]}
            print(f"{shape} {n:.0e}: done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header = " | ".join(f"{shape} {n:.0e}".replace("e+0", "e") for shape, n in COLUMNS)
    print(f"| stage | {header} |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for label, key, roadmap in ROWS:
        cells = []
        for (shape, n), expected in zip(COLUMNS, roadmap):
            value = measured[shape, n][key]
            off = value / expected - 1.0
            flag = f" **{off:+.0%}**" if abs(off) > FLAG else ""
            cells.append(f"{value:.3g} s ({expected} s){flag}")
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
