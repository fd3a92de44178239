"""Smoke test of the benchmark harness on a tiny workload (about 30 s).

    python3 -m pytest perfbench/test_harness.py

Not part of the library's test suite: it exercises the benchmark itself.
"""
from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from check import read_csv, young_sector_count  # noqa: E402
from record_reference import record  # noqa: E402
from workloads import Invocation, Workload  # noqa: E402

# Every layer once, at sizes that take a few seconds in all.
TINY = Workload("tiny", "harness smoke test", (
    Invocation(("phase", "--regime", "general", "--c", "1", "--n", "4",
                "--l", "4", "--ratio", "0:2:0.5", "--h", "-1:1:0.5"),
               "phase.csv"),
    Invocation(("excite", "--case", "bff", "--n", "4", "--l", "4", "--c", "1",
                "--family", "all"), "excite.csv"),
    Invocation(("thermo", "--density", "1", "--c", "10", "--xi-points", "3"),
               "thermo.csv"),
    Invocation(("ybe-check", "--num", "5"), "ybe.csv", check="ybe",
               seeded=True),
))

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    ref = str(tmp_path_factory.mktemp("reference"))
    record(TINY, reference=ref)
    return ref


def test_end_to_end_metrics_emitted_with_units(reference):
    result = run.measure(TINY, seed=3, seconds=0, trace=False,
                         reference=reference)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert _emitted(result) == _declared("end_to_end")
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_layer_metrics_emitted_with_units(reference):
    result = run.measure(TINY, seed=3, seconds=0, trace=True,
                         reference=reference)
    assert result["correct"]
    assert _emitted(result) == _declared("per_layer")
    assert not result["missing"]
    phase, excite, thermo_, ybe = result["per_invocation"]
    assert phase["bae.solve.calls"] == phase["excitations.candidates"] > 0
    assert phase["phases.sectors"] == young_sector_count(4)
    assert excite["excitations.dispersion.points"] > 0
    assert thermo_["thermo.nystroem.probes"] > 0
    assert ybe["algebra.ybe_residual.calls"] == 45  # 3 cases x 3 c x 5
    assert ybe["cli.rows_written"] == 45


def test_corrupted_reference_raises_failed_frac(reference, tmp_path):
    bad = tmp_path / "reference"
    shutil.copytree(reference, bad)
    path = bad / TINY.name / "phase.csv.gz"
    rows = read_csv(str(path))
    rows[1][-1] = "F1F2" if rows[1][-1] != "F1F2" else "B"
    with gzip.open(path, "wt", newline="") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    result = run.measure(TINY, seed=3, seconds=0, trace=False,
                         reference=str(bad))
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ybe-check",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
