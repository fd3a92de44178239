"""Command-line interface: parsing, CSV/manifest output, exit codes.

All invocations go through ``main(argv)`` in process so exit codes and file
side effects are asserted directly; one subprocess test exercises the
installed console script end to end, and one runs the target that
``pyproject.toml`` declares for it in process.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

from bfmix import algebra, bae, cli, excitations, phases, thermo
from bfmix.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNWRITABLE,
    EXIT_USAGE,
    _merge_negative_values,
    _parse_range,
    main,
)


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


# ----------------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------------


def test_parse_range_colon_form_includes_endpoints():
    assert _parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert _parse_range("-2:2:1") == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_parse_range_comma_form():
    assert _parse_range("0.1,1,10") == [0.1, 1.0, 10.0]
    assert _parse_range("3") == [3.0]


def test_parse_range_rejects_garbage():
    with pytest.raises(ValueError):
        _parse_range("abc")
    with pytest.raises(ValueError):
        _parse_range("0:1")  # needs start:stop:step
    for text in ("0:1e308:1e-300", "nan:1:0.5", "0:inf:1", "0:1:nan",
                 "0,inf",  # non-finite bound, count or value
                 "0:1e7:1"):  # over the 1e6-point cap, refused before allocating
        with pytest.raises(ValueError):
            _parse_range(text)


def test_merge_negative_values_glues_leading_dash():
    argv = ["phase", "--h", "-2:2:1", "--ratio", "0:1:0.5"]
    assert _merge_negative_values(argv) == ["phase", "--h=-2:2:1", "--ratio", "0:1:0.5"]
    # non-negative values and already-glued forms pass through untouched
    argv2 = ["phase", "--h=-1,0", "--ratio", "2"]
    assert _merge_negative_values(argv2) == argv2


def test_negative_range_accepted_end_to_end(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["phase", "--regime", "strong", "--n", "6", "--l", "6",
               "--ratio", "0:1:0.5", "--h", "-1:1:1", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out)
    assert header == "ratio,h,N_B,N_up,N_down,label"
    assert len(rows) == 9
    assert rows[0] == "0,-1,6,0,0,B"
    assert rows[6] == "1,-1,3,0,3,BF2"
    assert rows[8] == "1,1,3,3,0,BF1"


# ----------------------------------------------------------------------------
# subcommand happy paths
# ----------------------------------------------------------------------------


def test_ground_writes_numbers_roots_and_observables(tmp_path):
    out = tmp_path / "ground.csv"
    rc = main(["ground", "--case", "ffb", "--n", "4", "--m", "3", "--mp", "3",
               "--l", "4", "--c", "1", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out)
    assert header == "kind,index,value"
    table = {}
    for line in rows:
        kind, idx, value = line.split(",")
        table.setdefault(kind, []).append(float(value))
    # of the two mirror-image minima (equal E and |P|) the tie rule picks
    # the lexicographically smaller quantum numbers
    assert table["two_i"] == [-4.0, -2.0, 0.0, 2.0]
    assert table["two_j"] == [-1.0, 1.0, 3.0]
    assert table["two_jp"] == [-2.0, 0.0, 2.0]
    assert len(table["k"]) == 4 and len(table["lam"]) == 3 and len(table["mu"]) == 3
    assert table["E"][0] == pytest.approx(2.9034245354728134, rel=1e-12)
    assert table["P"][0] == pytest.approx(-0.7853981633974483, rel=1e-12)


def test_ground_without_out_prints_to_stdout(capsys):
    rc = main(["ground", "--case", "bff", "--n", "2", "--l", "2", "--c", "1"])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "kind,index,value"
    assert "E = " in captured.err and "P = " in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ground_at_underflowing_coupling_emits_no_warning(tmp_path):
    # the strong-coupling seed spaces the roots by about c, so at
    # c = 1e-170 both (k_i - k_j)**2 and c**2 underflow to 0 in the
    # Jacobian's Theta'; the direct run fails without a warning and the
    # coupling ladder converges
    out = tmp_path / "ground.csv"
    rc = main(["ground", "--case", "bff", "--n", "3", "--m", "0", "--mp",
               "0", "--l", "3", "--c", "1e-170", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().startswith("kind,index,value")


# The smallest invocation of each command that reads a box length,
# coupling or density, with the flags that an extreme value replaces.
_EXTREME_RUNS = {
    "ground": (["ground", "--case", "bff", "--n", "3", "--l", "3", "--c",
                "1"], ("--l", "--c")),
    "excite-bff": (["excite", "--case", "bff", "--n", "3", "--l", "3", "--c",
                    "1", "--family", "all"], ("--l", "--c")),
    "excite-ffb": (["excite", "--case", "ffb", "--n", "3", "--l", "3", "--c",
                    "1", "--family", "all"], ("--c",)),
    "excite-fbf": (["excite", "--case", "fbf", "--n", "3", "--l", "3", "--c",
                    "1", "--family", "all"], ("--c",)),
    "density": (["density", "--case", "bff", "--n", "3", "--l", "3", "--c",
                 "1"], ("--l", "--c")),
    "thermo": (["thermo", "--density", "1", "--c", "1", "--xi-points", "5"],
               ("--density", "--c")),
    "phase-weak": (["phase", "--regime", "weak", "--n", "3", "--l", "3",
                    "--ratio", "0,1", "--h", "0"], ("--l",)),
    "phase-strong": (["phase", "--regime", "strong", "--n", "3", "--l", "3",
                      "--ratio", "0,1", "--h", "0"], ("--l",)),
    "phase-general": (["phase", "--regime", "general", "--n", "3", "--l",
                       "3", "--c", "1", "--ratio", "0,1", "--h", "0"],
                      ("--l", "--c")),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["5e-324", "1e-300", "1e300"])
@pytest.mark.parametrize("run", sorted(_EXTREME_RUNS))
def test_extreme_inputs_end_in_an_exit_code(tmp_path, run, value):
    # a box length, coupling or density at the ends of the float range
    # gives a result, a usage error or a numerical failure: no traceback,
    # no float warning and no endless coupling ladder
    argv, flags = _EXTREME_RUNS[run]
    for flag in flags:
        args = list(argv)
        args[args.index(flag) + 1] = value
        out = tmp_path / f"{flag[2:]}.csv"
        assert main(args + ["--out", str(out)]) in (
            EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL)


def test_ybe_check_passes_at_default_tolerance(tmp_path):
    out = tmp_path / "ybe.csv"
    rc = main(["ybe-check", "--cases", "bff", "--c", "1", "--num", "5",
               "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out)
    assert header == "case,c,alpha,beta,residual"
    assert len(rows) == 5
    assert all(float(line.split(",")[4]) < 1e-10 for line in rows)


def test_ybe_check_fails_at_impossible_tolerance(tmp_path):
    rc = main(["ybe-check", "--cases", "bff", "--c", "1", "--num", "5",
               "--seed", "1", "--tol", "1e-20", "--out", str(tmp_path / "y.csv")])
    assert rc == EXIT_NUMERICAL


def test_ybe_check_fails_on_nan_residual(tmp_path, monkeypatch):
    monkeypatch.setattr(algebra, "ybe_residual", lambda *a: float("nan"))
    rc = main(["ybe-check", "--cases", "bff", "--c", "1", "--num", "5",
               "--out", str(tmp_path / "y.csv")])
    assert rc == EXIT_NUMERICAL


def test_ybe_check_with_no_draws_writes_header_only(tmp_path, capsys):
    out = tmp_path / "y.csv"
    assert main(["ybe-check", "--num", "0", "--out", str(out)]) == EXIT_OK
    assert _read_csv(out) == ("case,c,alpha,beta,residual", [])
    assert "over 0 checks" in capsys.readouterr().err


def test_ybe_check_rows_equal_scalar_calls(tmp_path):
    # every row holds the bits of the scalar call on its draw
    out = tmp_path / "y.csv"
    assert main(["ybe-check", "--num", "19", "--cases", "ffb", "--c", "0.5",
                 "--out", str(out)]) == EXIT_OK
    _, rows = _read_csv(out)
    draws = np.random.default_rng(0).uniform(-10.0, 10.0, size=(19, 2))
    assert len(rows) == 19
    for line, (alpha, beta) in zip(rows, draws):
        case, c, a, b, res = line.split(",")
        assert (case, float(c), float(a), float(b)) == ("ffb", 0.5, alpha,
                                                        beta)
        assert float(res) == algebra.ybe_residual("ffb", alpha, beta, 0.5)


def test_excite_sweeps_families(tmp_path):
    out = tmp_path / "exc.csv"
    rc = main(["excite", "--case", "bff", "--n", "4", "--l", "4", "--c", "1",
               "--family", "particle-hole", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out)
    assert header == "family,param1,param2,p,de,status"
    assert len(rows) == 16
    for line in rows:
        family, _, _, _, de, status = line.split(",")
        assert family == "particle-hole"
        assert status == "ok"
        assert float(de) >= -1e-9


def test_density_sweeps_couplings(tmp_path):
    out = tmp_path / "den.csv"
    rc = main(["density", "--case", "bff", "--n", "6", "--l", "6",
               "--c", "100,1", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out)
    assert header == "c,index,k_mid,rho"
    cs = {line.split(",")[0] for line in rows}
    assert cs == {"100", "1"}
    assert len(rows) == 10  # N - 1 = 5 gap midpoints per coupling


def test_thermo_writes_profile_and_dressed_energies(tmp_path):
    out = tmp_path / "th.csv"
    rc = main(["thermo", "--density", "1.0", "--c", "2.0", "--xi-points", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _read_csv(out)
    assert header == "kind,x,value"
    kinds = [line.split(",")[0] for line in rows]
    assert kinds[0] == "k_f" and kinds[1] == "energy_density"
    assert kinds.count("xi_h") == 3 and kinds.count("xi_c") == 3
    assert kinds.count("rho0") >= 200
    k_f = float(rows[0].split(",")[2])
    assert k_f == pytest.approx(1.8081260665908527, rel=1e-10)


def test_thermo_unresolvable_coupling_exits_3_without_warning(tmp_path,
                                                              capsys):
    # (c/2)^2 underflows at c = 1e-200, but the kernel stays finite; no
    # node level resolves a kernel that narrow, which is a numerical failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["thermo", "--density", "1", "--c", "1e-200",
                   "--out", str(tmp_path / "th.csv")])
    assert rc == EXIT_NUMERICAL
    assert "no node level up to 6400 nodes bracketed k_F" \
        in capsys.readouterr().err


def test_thermo_overflowing_kernel_exits_3_without_warning(tmp_path, capsys):
    # at c = 5e-324 the kernel peak overflows and every density is NaN: no
    # node level brackets k_F, found in one probe per level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["thermo", "--density", "1", "--c", "5e-324",
                   "--out", str(tmp_path / "th.csv")])
    assert rc == EXIT_NUMERICAL
    assert "no node level up to 6400 nodes bracketed k_F" \
        in capsys.readouterr().err


# ----------------------------------------------------------------------------
# CSV bytes
# ----------------------------------------------------------------------------


def _per_cell_fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _per_cell_csv(header, rows) -> bytes:
    """The reference writer: every cell through ``_per_cell_fmt``."""
    stream = io.StringIO(newline="")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_per_cell_fmt(v) for v in row])
    return stream.getvalue().encode()


def test_write_rows_matches_per_cell_writer_on_mixed_cells(tmp_path):
    cells = ["bff", "a,b", 'say "x"', 0, -7, 2 ** 70, np.int64(-3),
             0.1, -2.5, np.float64(1 / 3), np.float32(0.1), np.float32(-0.0),
             float("nan"), float("inf"), float("-inf"), np.float64("nan"),
             0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300]
    rows = [tuple(cells), tuple(reversed(cells)), cells[::3], cells[1::2]]
    header = ("a", "b")
    out = tmp_path / "mixed.csv"
    cli._write_rows(str(out), header, rows, {})
    assert out.read_bytes() == _per_cell_csv(header, rows)


_WRITTEN_RUNS = {
    "ground": ["ground", "--case", "ffb", "--n", "6", "--m", "2", "--mp",
               "1", "--l", "6", "--c", "1"],
    "excite": ["excite", "--case", "bff", "--n", "4", "--l", "4", "--c",
               "1", "--family", "all"],
    "density": ["density", "--case", "bff", "--n", "5", "--l", "5",
                "--c", "10,1"],
    "thermo": ["thermo", "--density", "1", "--c", "2", "--xi-points", "3"],
    "ybe-check": ["ybe-check", "--num", "5"],
    **{f"phase-{regime}": ["phase", "--regime", regime, "--n", "4", "--l",
                           "4", "--c", "1", "--ratio", "0:2:0.25",
                           "--h=-1.5:1.5:0.3"]
       for regime in ("weak", "strong", "general")},
}


@pytest.mark.parametrize("name", list(_WRITTEN_RUNS))
def test_written_csv_matches_per_cell_writer(name, tmp_path, monkeypatch):
    captured = []
    write_rows = cli._write_rows

    def capture(out, header, rows, manifest):
        captured.append((header, rows))
        return write_rows(out, header, rows, manifest)

    monkeypatch.setattr(cli, "_write_rows", capture)
    out = tmp_path / "out.csv"
    assert main(_WRITTEN_RUNS[name] + ["--out", str(out)]) == EXIT_OK
    [(header, rows)] = captured
    assert type(rows) is list  # its length is the traced row count
    assert len(rows) > 1
    assert out.read_bytes() == _per_cell_csv(header, rows)


def test_phase_writes_signed_zero_axis_values(tmp_path):
    out = tmp_path / "zeros.csv"
    assert main(["phase", "--regime", "general", "--n", "4", "--l", "4",
                 "--c", "1", "--ratio=-0,0,1", "--h=-0,0,1e-300,-2",
                 "--out", str(out)]) == EXIT_OK
    header, lines = _read_csv(out)
    axes = [tuple(line.split(",")[:2]) for line in lines]
    assert axes == [(r, h) for r in ("-0", "0", "1")
                    for h in ("-0", "0", "1e-300", "-2")]
    scan = phases.phase_scan("general", [-0.0, 0.0, 1.0],
                             [-0.0, 0.0, 1e-300, -2.0], c=1.0, n=4, L=4.0)
    assert out.read_bytes() == _per_cell_csv(header.split(","), scan.rows)


# ----------------------------------------------------------------------------
# manifest and reproducibility
# ----------------------------------------------------------------------------


def test_manifest_written_next_to_output(tmp_path):
    out = tmp_path / "ground.csv"
    rc = main(["ground", "--case", "ffb", "--n", "4", "--m", "3", "--mp", "3",
               "--l", "4", "--c", "1", "--out", str(out)])
    assert rc == EXIT_OK
    manifest_path = tmp_path / "ground.csv.manifest.json"
    assert manifest_path.exists()
    text = manifest_path.read_text()
    assert text.endswith("\n")
    manifest = json.loads(text)
    assert manifest["subcommand"] == "ground"
    assert manifest["inputs"] == {"case": "ffb", "n": 4, "m": 3, "mp": 3,
                                  "L": 4.0, "c": 1.0}
    assert "threads" not in manifest
    assert manifest["tolerances"] == {
        "newton_tol": bae._TOL, "newton_max_steps": bae._MAX_STEPS,
        "thermo_energy_tol": thermo._ENERGY_TOL,
        "kf_constraint_tol": thermo._KF_TOL}
    assert "tie_break" in manifest
    # keys are sorted so the file is byte-stable
    assert text == json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def test_reruns_are_byte_identical(tmp_path):
    args = ["excite", "--case", "bff", "--n", "4", "--l", "4", "--c", "1",
            "--family", "all"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    ybe = ["ybe-check", "--num", "50", "--seed", "3"]
    out3, out4 = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(ybe + ["--out", str(out3)]) == EXIT_OK
    assert main(ybe + ["--out", str(out4)]) == EXIT_OK
    assert out3.read_bytes() == out4.read_bytes()


# ----------------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys, monkeypatch):
    assert main(["ground", "--case", "xyz", "--n", "4", "--l", "4", "--c", "1"]) == EXIT_USAGE
    assert main(["ground", "--case", "bff", "--n", "4", "--l", "4", "--c", "1",
                 "--bogus", "1"]) == EXIT_USAGE
    assert main(["phase", "--regime", "weak", "--ratio", "abc", "--h", "0"]) == EXIT_USAGE
    assert main(["phase", "--regime", "weak", "--ratio", "0:1e308:1e-300",
                 "--h", "0"]) == EXIT_USAGE
    # an empty comma list is an error, as an empty start:stop:step is
    for empty in (["--ratio", ",", "--h", "0"], ["--ratio", "1", "--h", ","]):
        assert main(["phase", "--regime", "weak", "--n", "6", "--l", "6"]
                    + empty) == EXIT_USAGE
    assert main(["ground", "--case", "bff", "--n", "2", "--l", "nan", "--c", "1"]) == EXIT_USAGE
    assert main(["ground", "--case", "bff", "--n", "2", "--l", "2", "--c", "inf"]) == EXIT_USAGE
    assert main(["thermo", "--density", "1", "--c", "nan"]) == EXIT_USAGE
    # the energy density pi^2 n^3 / 3 would overflow
    assert main(["thermo", "--density", "1e300", "--c", "1"]) == EXIT_USAGE
    with monkeypatch.context() as m:  # rejected before the first draw
        m.setattr(algebra, "ybe_residual",
                  lambda *a: pytest.fail("drew before validating"))
        for bad in (["--c", "inf"], ["--c", "nan"], ["--c", "1,-1"],
                    ["--tol", "nan"], ["--tol", "-1"],
                    ["--num", "100000000000"], ["--num", "-1"],
                    ["--num", "1000000"],  # x 3 cases x 3 couplings
                    ["--cases", "bff,xyz"]):
            assert main(["ybe-check"] + bad) == EXIT_USAGE
        assert "1000000 x 3 x 3 = 9000000 draws" in capsys.readouterr().err
    with monkeypatch.context() as m:  # rejected before the profile is solved
        m.setattr(thermo, "solve_ground_density",
                  lambda *a: pytest.fail("solved before validating"))
        for bad_points in ("-1", str(10 ** 6 + 1)):
            assert main(["thermo", "--density", "1", "--c", "1",
                         "--xi-points", bad_points]) == EXIT_USAGE
    with monkeypatch.context() as m:  # rejected before the table is built
        m.setattr(phases, "sector_energy_table",
                  lambda *a: pytest.fail("solved before validating"))
        assert main(["phase", "--regime", "general", "--n", "4", "--l", "4",
                     "--ratio", "0:1000:1", "--h", "0:1000:1"]) == EXIT_USAGE
        assert "1001 x 1001 = 1002001 grid points, more than 1000000" \
            in capsys.readouterr().err
    # fields so large that the grand energy overflows cannot be compared
    assert main(["phase", "--regime", "weak", "--n", "6", "--l", "6",
                 "--ratio", "1e308", "--h", "1e308,-1e308"]) == EXIT_USAGE
    grid = ["--n", "6", "--ratio", "0:1:0.5", "--h", "0"]
    for regime in ("weak", "strong", "general"):
        for bad_l in ("0", "-6", "inf"):  # box length must be finite, > 0
            assert main(["phase", "--regime", regime, "--l", bad_l]
                        + grid) == EXIT_USAGE
        for bad_mu_b in ("0", "-1", "nan"):  # the ratio axis needs mu_b > 0
            assert main(["phase", "--regime", regime, "--mu-b", bad_mu_b]
                        + grid) == EXIT_USAGE
        for bad_n in ("0", "-3", "1001"):  # 1 <= n <= MAX_PARTICLES
            assert main(["phase", "--regime", regime, "--n", bad_n, "--l",
                         "3", "--ratio", "0", "--h", "0"]) == EXIT_USAGE
    for regime in ("weak", "strong"):  # (2 pi / L)^2 would overflow
        assert main(["phase", "--regime", regime, "--l", "1e-160"]
                    + grid) == EXIT_USAGE
    with monkeypatch.context() as m:  # the same cap, before any solve
        for name in ("solve", "solve_many"):
            m.setattr(excitations, name,
                      lambda *a: pytest.fail("solved before validating"))
        for command in ("ground", "excite", "density"):
            assert main([command, "--case", "ffb", "--n", "1001", "--l",
                         "1001", "--c", "1"]) == EXIT_USAGE
        assert "--n must be at most 1000, got 1001" \
            in capsys.readouterr().err
    capsys.readouterr()
    # the two-fermions family names its own need, not a derived spec
    assert main(["excite", "--case", "bff", "--n", "1", "--l", "1",
                 "--c", "1"]) == EXIT_USAGE
    assert "two-fermions family needs N >= 2, got N = 1" \
        in capsys.readouterr().err
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_invalid_quantum_numbers_exit_2(capsys):
    # m > n is rejected during validation, not by argparse
    assert main(["ground", "--case", "bff", "--n", "3", "--m", "5",
                 "--l", "3", "--c", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_nonconvergent_sector_exits_3(capsys):
    # this composition admits no convergent real-root candidate
    rc = main(["ground", "--case", "ffb", "--n", "5", "--m", "4", "--mp", "2",
               "--l", "5", "--c", "1"])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    rc = main(["ground", "--case", "bff", "--n", "2", "--l", "2", "--c", "1",
               "--out", str(target)])
    assert rc == EXIT_UNWRITABLE
    assert "cannot write" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# installed console script
# ----------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("bfmix") is None, reason="console script not installed")
def test_console_script_runs(tmp_path):
    out = tmp_path / "g.csv"
    proc = subprocess.run(
        ["bfmix", "ground", "--case", "bff", "--n", "2", "--l", "2", "--c", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert out.read_text().splitlines()[0] == "kind,index,value"


def test_declared_console_entry_point_runs(tmp_path, capsys):
    # the target that [project.scripts] names, resolved and run in process,
    # so the console script's wiring is checked without an install
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bfmix"]
    module, attr = target.split(":")
    entry = getattr(importlib.import_module(module), attr)
    out = tmp_path / "g.csv"
    assert entry(["ground", "--case", "bff", "--n", "2", "--l", "2",
                  "--c", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[0] == "kind,index,value"
    capsys.readouterr()


def test_import_loads_no_scipy():
    # importing scipy.optimize alone takes about 0.5 s, longer than a
    # whole thermo run; the CLI's start-up must not pay for it
    src = str(Path(thermo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, bfmix.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
