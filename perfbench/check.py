"""Correctness checks of one pass's CSV outputs (standard library only).

Operations counted per invocation: the invocation itself (failed on a
nonzero exit code), every output row, and for ``phase`` every admissible
sector (failed when the manifest lists it as excluded). A row fails when
it does not match the reference, when a dispersion point has status
``failed``, or, for ``ybe-check``, when its residual is not below the
tolerance. Missing and surplus rows count as failed rows.
"""
from __future__ import annotations

import csv
import gzip
import json
import math
import os
from dataclasses import dataclass

# Columns compared exactly: labels, statuses, populations, indices.
EXACT_COLUMNS = frozenset({"label", "status", "family", "kind", "case",
                           "N_B", "N_up", "N_down", "index"})
# Numeric columns: the frozen-table tolerance of the test suite. The tiny
# absolute floor only matters for values that are zero in the reference.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Yang-Baxter residual bound (the CLI's default tolerance).
YBE_TOL = 1e-10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def read_csv(path: str) -> list[list[str]]:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.reader(fh))


def _same(column: str, got: str, want: str) -> bool:
    if column in EXACT_COLUMNS or got == want:
        return got == want
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_table(rows: list[list[str]], ref: list[list[str]]) -> Tally:
    """Row-by-row comparison with the reference (header included)."""
    tally = Tally(attempted=max(len(rows), len(ref)) - 1)
    if not rows or not ref or rows[0] != ref[0]:
        tally.failed = tally.attempted
        return tally
    header = ref[0]
    status = header.index("status") if "status" in header else None
    for got, want in zip(rows[1:], ref[1:]):
        bad = len(got) != len(header) or not all(
            _same(col, g, w) for col, g, w in zip(header, got, want))
        if status is not None and not bad:
            bad = got[status] == "failed"
        tally.failed += bad
    tally.failed += abs(len(rows) - len(ref))
    return tally


def check_ybe(rows: list[list[str]], expected_rows: int) -> Tally:
    """Every residual below YBE_TOL, draws inside the CLI's window."""
    tally = Tally(attempted=max(len(rows) - 1, expected_rows))
    if not rows or rows[0] != ["case", "c", "alpha", "beta", "residual"]:
        tally.failed = tally.attempted
        return tally
    for row in rows[1:]:
        try:
            alpha, beta, res = (float(v) for v in row[2:5])
            ok = len(row) == 5 and res < YBE_TOL and all(
                -10.0 <= v <= 10.0 for v in (alpha, beta))
        except ValueError:
            ok = False
        tally.failed += not ok
    tally.failed += max(0, expected_rows - (len(rows) - 1))
    return tally


def young_sector_count(n: int) -> int:
    """Number of admissible (M, M') sectors: N-M >= M-M' >= M' >= 0."""
    return sum(1 for m in range(n + 1) for mp in range(m // 2 + 1)
               if n - m >= m - mp)


def check_sectors(manifest_path: str) -> Tally:
    """Sectors of a general phase scan; excluded ones count as failed."""
    with open(manifest_path) as fh:
        inputs = json.load(fh)["inputs"]
    return Tally(attempted=young_sector_count(int(inputs["n"])),
                 failed=len(inputs["excluded_sectors"]))


def check_invocation(argv: list[str], check: str, out_path: str,
                     exit_code: int, ref_path: str | None) -> Tally:
    """Tally of one CLI invocation's operations."""
    tally = Tally(attempted=1, failed=int(exit_code != 0))
    rows = read_csv(out_path) if os.path.exists(out_path) else []
    if check == "ybe":
        cases = _flag(argv, "--cases", "bff,fbf,ffb").split(",")
        couplings = _flag(argv, "--c", "0.1,1,100").split(",")
        num = int(_flag(argv, "--num", "1000"))
        tally.add(check_ybe(rows, len(cases) * len(couplings) * num))
    else:
        tally.add(compare_table(rows, read_csv(ref_path)))
    if argv[0] == "phase" and os.path.exists(out_path + ".manifest.json"):
        tally.add(check_sectors(out_path + ".manifest.json"))
    return tally


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default
