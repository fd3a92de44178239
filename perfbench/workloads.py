"""The benchmark's workloads: fixed sequences of ``bfmix`` CLI invocations.

Each workload is one pass of invocations run back to back in a fresh
process, each starting after the previous one returns (a closed loop with
one client). Every invocation writes one CSV, which ``check.py`` compares
with the reference stored under ``reference/<workload>/``.

Only ``ybe-check`` draws random inputs, and it draws them from the
benchmark's ``--seed``. The other workloads solve fixed physical
problems, so the seed does not change their inputs.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    out: str            # CSV file name inside the pass's work directory
    check: str = "table"  # "table": compare with reference; "ybe": residuals
    seeded: bool = False  # pass the benchmark's --seed on to the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]

    def argvs(self, seed: int) -> list[list[str]]:
        """CLI argument lists of one pass; the seed reaches seeded calls."""
        return [list(inv.argv) + (["--seed", str(seed)] if inv.seeded else [])
                for inv in self.invocations]


_GRID = ("--ratio", "0:8:0.08", "--h", "-6:6:0.12")


def _phase(c: str, n: str) -> Invocation:
    return Invocation(("phase", "--regime", "general", "--c", c, "--n", n,
                       "--l", n) + _GRID, f"phase_n{n}_c{c}.csv")


# Sizes are chosen so that each pass takes 1-3 s and a run repeats it
# about 10 to 30 times: the machine's speed switches by up to 1.8x within
# seconds, so a time is only steady as the slowest of many repeats.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sector-table",
        "phase scan at n=4 c=0.001: 122 of 150 sector_ground candidates fail "
        "in bae, each also along a continuation ladder of up to 53 stages; "
        "fixed inputs, --seed unused",
        (_phase("0.001", "4"),)),
    Workload(
        "spectra",
        "excitation sweeps and densities: about 1300 warm-started bae "
        "solves that all converge directly, the opposite use of the solver; "
        "fixed inputs, --seed unused",
        (Invocation(("excite", "--case", "bff", "--n", "24", "--l", "24",
                     "--c", "1", "--family", "all"), "excite_bff.csv"),
         Invocation(("excite", "--case", "ffb", "--n", "20", "--l", "20",
                     "--c", "0.3", "--family", "all"), "excite_ffb.csv"),
         Invocation(("density", "--case", "bff", "--n", "42", "--l", "42",
                     "--c", "100,10,1,0.1"), "density_bff.csv"))),
    Workload(
        "continuum",
        "thermodynamic-limit profile at c=10: about 90 Nystroem probes, the "
        "k_F bisection and 82 dressed energies, BLAS-threaded, no bae; "
        "fixed inputs, --seed unused",
        (Invocation(("thermo", "--density", "1", "--c", "10",
                     "--xi-points", "41"), "thermo_c10.csv"),)),
    Workload(
        "ybe-check",
        "default 9000-draw Yang-Baxter sweep seeded by --seed: the only "
        "workload reaching algebra, the CLI's _pmap sweep and a 9000-row CSV",
        (Invocation(("ybe-check",), "ybe.csv", check="ybe", seeded=True),)),
)}

# The ROADMAP's solver gate at full size: sector_energy_table(1, 12, 12)
# makes 765 solves of which 446 fail. One pass takes 15-30 s, too long to
# time steadily here, so it is run on request (best with --trace 1) and is
# not part of BENCHMARK.json.
EXTRA = {w.name: w for w in (
    Workload(
        "sector-table-full",
        "phase scans at n=12 c=1 and n=8 c=0.001 (the ROADMAP baseline)",
        (_phase("1", "12"), _phase("0.001", "8"))),
)}
