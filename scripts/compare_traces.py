#!/usr/bin/env python3
"""Check that two benchmark output directories hold the same traces.

Compares every CSV (the per-cell traces and each ``summary.csv``) of two
``scripts/run_benchmarks.py`` output directories field by field, as text,
leaving out the ``time_ms`` column.  Exits 0 when every file agrees;
otherwise prints the first file or row that differs and exits 1.

Usage: python scripts/compare_traces.py DIR_A DIR_B
"""

import argparse
import csv
import sys
from pathlib import Path

IGNORED = "time_ms"


def _rows(path: Path) -> list:
    """The file's rows with the ignored column taken out."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return rows
    keep = [i for i, name in enumerate(rows[0]) if name != IGNORED]
    return [[row[i] for i in keep if i < len(row)] for row in rows]


def first_difference(dir_a: Path, dir_b: Path) -> str | None:
    """A line naming the first difference between the two directories, or None."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*.csv")}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*.csv")}
    if not files_a and not files_b:
        return f"no CSV files under {dir_a} or {dir_b}"
    only = sorted(files_a ^ files_b)
    if only:
        return f"{only[0]}: only under {dir_a if only[0] in files_a else dir_b}"
    for name in sorted(files_a):
        rows_a, rows_b = _rows(dir_a / name), _rows(dir_b / name)
        for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
            if row_a != row_b:
                return f"{name} line {line}:\n  A: {','.join(row_a)}\n  B: {','.join(row_b)}"
        if len(rows_a) != len(rows_b):
            return f"{name}: {len(rows_a)} rows under A, {len(rows_b)} under B"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    diff = first_difference(args.dir_a, args.dir_b)
    if diff is not None:
        print(diff)
        return 1
    count = sum(1 for _ in args.dir_a.rglob("*.csv"))
    print(f"{count} CSV files agree apart from {IGNORED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
