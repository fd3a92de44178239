"""Smoke test of the demo scripts: each runs against the current API.

Demos 01-04 run their ``main()`` in process (a few seconds in total).
Demo 05's n = 42 finite-coupling map takes about ten seconds, so it is
only loaded and its map helper is run on a small grid.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_exchange_consistency",
                                  "02_ground_state_roots",
                                  "03_excitation_spectra",
                                  "04_continuum_limit"])
def test_demo_main_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"))["main"]()
    assert capsys.readouterr().out.strip()


def test_phase_diagram_demo_loads(capsys):
    demo = runpy.run_path(str(DEMOS / "05_phase_diagram.py"))
    assert callable(demo["main"])
    demo["ascii_map"]("general", [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], c=1.0,
                      n=4, L=4.0)
    assert "general regime" in capsys.readouterr().out
