"""Command-line interface: reproducible CSV + JSON-manifest output.

Subcommands
-----------
ybe-check   scattering-consistency residual sweep over random rapidities
ground      solve one sector's ground state; roots, E, P
excite      dispersion sweeps of the excitation families
density     finite-N root-density histograms over a coupling list
thermo      thermodynamic-limit density profile and dressed energies
phase       ground-state phase scan over (mu_f/mu_B, h) grids

Exit codes: 0 success; 2 usage or validation error; 3 numerical failure
(non-convergence, or a residual above tolerance in ybe-check); 4
unwritable output path.

Every data file is CSV ('.' decimal separator, 17 significant digits,
mandatory header) accompanied by `<file>.manifest.json` recording the
equation set, inputs, tolerances, seed, and tie-break policy. Identical
inputs (including seed) produce byte-identical CSV.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import algebra, bae, excitations, phases, thermo
from .bae import InvalidConfig, MixtureSpec, NonConvergence

_TOLERANCES = {"newton_tol": bae._TOL, "newton_max_steps": bae._MAX_STEPS,
               "thermo_energy_tol": thermo._ENERGY_TOL,
               "kf_constraint_tol": thermo._KF_TOL}
_TIE_BREAK = "larger N_B, then larger N_up"
_MAX_RANGE_POINTS = 10 ** 6

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_UNWRITABLE = 4


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_rows(out: Optional[str], header: Sequence[str],
                rows: Iterable[Sequence], manifest: dict) -> None:
    """Write CSV (file or stdout) and, for files, the sibling manifest."""
    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if out is None:
        emit(sys.stdout)
        return
    try:
        with open(out, "w", newline="") as fh:
            emit(fh)
        with open(out + ".manifest.json", "w") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise _Unwritable(f"cannot write {out!r}: {exc}") from exc


class _Unwritable(Exception):
    pass


def _manifest(subcommand: str, **inputs) -> dict:
    return {"subcommand": subcommand, "inputs": inputs,
            "tolerances": _TOLERANCES, "tie_break": _TIE_BREAK}


def _parse_range(text: str) -> list[float]:
    """Inclusive 'start:stop:step' grid (at most 1e6 points), or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidConfig(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not np.isfinite([start, stop, step]).all():
            raise InvalidConfig(f"range bounds must be finite, got {text!r}")
        if step <= 0:
            raise InvalidConfig("range step must be positive")
        count = np.floor((stop - start) / step + 1e-9) + 1
        if not np.isfinite(count):
            raise InvalidConfig(f"range {text!r} has no finite point count")
        if count < 1:
            raise InvalidConfig(f"empty range {text!r}")
        if count > _MAX_RANGE_POINTS:
            raise InvalidConfig(f"range {text!r} has more than "
                                f"{_MAX_RANGE_POINTS} points")
        return [start + i * step for i in range(int(count))]
    values = _parse_floats(text)
    if not np.isfinite(values).all():
        raise InvalidConfig(f"range values must be finite, got {text!r}")
    return values


def _parse_floats(text: str) -> list[float]:
    vals = [float(p) for p in text.split(",") if p]
    if not vals:
        raise InvalidConfig("expected a comma-separated value list")
    return vals


def _cmd_ybe_check(args) -> int:
    cases = args.cases.split(",")
    for case in cases:
        if case not in algebra.CASES:
            raise InvalidConfig(f"unknown case {case!r}")
    couplings = _parse_floats(args.c)
    if not (np.isfinite(couplings).all() and min(couplings) > 0):
        raise InvalidConfig(f"couplings must be finite and > 0, got {args.c!r}")
    if args.num < 0:
        raise InvalidConfig(f"--num must be >= 0, got {args.num}")
    draws = args.num * len(cases) * len(couplings)
    if draws > _MAX_RANGE_POINTS:  # every row is held, about 0.2 KB a draw
        raise InvalidConfig(
            f"--num x cases x couplings = {args.num} x {len(cases)} x "
            f"{len(couplings)} = {draws} draws, more than {_MAX_RANGE_POINTS}")
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise InvalidConfig(f"--tol must be finite and > 0, got {args.tol!r}")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for case in cases:
        for c in couplings:
            pts = rng.uniform(-10.0, 10.0, size=(args.num, 2))
            # one call per draw: the traced `algebra.ybe_residual.calls`
            # of perfbench count draws
            for alpha, beta in pts:
                res = algebra.ybe_residual(case, alpha, beta, c)
                rows.append((case, c, alpha, beta, res))
                if res > worst or math.isnan(res):  # NaN stays the worst
                    worst = res
    manifest = _manifest("ybe-check", cases=cases, c=couplings, num=args.num,
                         seed=args.seed, tol=args.tol,
                         alpha_beta_window=[-10.0, 10.0])
    _write_rows(args.out, ("case", "c", "alpha", "beta", "residual"),
                rows, manifest)
    print(f"max residual {worst:.3e} over {len(rows)} checks "
          f"(tolerance {args.tol:g})", file=sys.stderr)
    return EXIT_OK if worst < args.tol else EXIT_NUMERICAL


def _spec_from(args) -> MixtureSpec:
    return MixtureSpec(args.case, args.n, args.m, args.mp, args.l, args.c)


def _cmd_ground(args) -> int:
    spec = _spec_from(args)
    qn, roots, obs = excitations.sector_ground(spec)
    rows = []
    for name, two in (("two_i", qn.two_i), ("two_j", qn.two_j),
                      ("two_jp", qn.two_jp)):
        rows.extend((name, i, float(v)) for i, v in enumerate(two))
    for name, arr in (("k", roots.k), ("lam", roots.lam), ("mu", roots.mu)):
        rows.extend((name, i, float(v)) for i, v in enumerate(arr))
    rows.append(("E", 0, obs.E))
    rows.append(("P", 0, obs.P))
    manifest = _manifest("ground", case=spec.case, n=spec.n, m=spec.m,
                         mp=spec.mp, L=spec.L, c=spec.c)
    _write_rows(args.out, ("kind", "index", "value"), rows, manifest)
    print(f"E = {obs.E:.12g}  P = {obs.P:.12g}", file=sys.stderr)
    return EXIT_OK


_FAMILY_BUILDERS = {
    "particle-hole": lambda args: excitations.ParticleHole(),
    "add-fermion": lambda args: excitations.AddOneFermion(),
    "two-fermions": lambda args: excitations.TwoFermions(mp=args.two_mp),
}


def _cmd_excite(args) -> int:
    if args.family == "two-fermions" and args.case != "bff":
        raise InvalidConfig("two-fermions sweep is defined on bff")
    names = list(_FAMILY_BUILDERS) if args.family == "all" \
        else [args.family]
    if args.case != "bff" and "two-fermions" in names:
        names.remove("two-fermions")
    gs = MixtureSpec.from_populations(args.case, (args.n, 0, 0), args.l,
                                      args.c)

    rows = [(name,) + pt.params + ((float("nan"),) * (2 - len(pt.params)))
            + (pt.p, pt.de, pt.status)
            for name in names
            for pt in excitations.dispersion(gs, _FAMILY_BUILDERS[name](args))]
    manifest = _manifest("excite", case=args.case, n=args.n, L=args.l,
                         c=args.c, families=names, two_mp=args.two_mp)
    _write_rows(args.out, ("family", "param1", "param2", "p", "de", "status"),
                rows, manifest)
    return EXIT_OK


def _cmd_density(args) -> int:
    couplings = _parse_floats(args.c)
    spec0 = MixtureSpec(args.case, args.n, args.m, args.mp, args.l,
                        couplings[0])

    rows = []
    for c in couplings:
        spec = spec0.replace_c(c)
        _, roots, _ = excitations.sector_ground(spec)
        mid, rho = excitations.density_histogram(spec, roots)
        rows.extend((c, i, float(m), float(r))
                    for i, (m, r) in enumerate(zip(mid, rho)))
    manifest = _manifest("density", case=args.case, n=args.n, m=args.m,
                         mp=args.mp, L=args.l, c=couplings)
    _write_rows(args.out, ("c", "index", "k_mid", "rho"), rows, manifest)
    return EXIT_OK


def _cmd_thermo(args) -> int:
    if not 0 <= args.xi_points <= _MAX_RANGE_POINTS:
        raise InvalidConfig(
            f"--xi-points must lie in [0, {_MAX_RANGE_POINTS}]")
    profile = thermo.solve_ground_density(args.density, args.c)
    rows = [("k_f", 0.0, profile.k_f),
            ("energy_density", 0.0, profile.energy_density)]
    rows.extend(("rho0", float(k), float(r))
                for k, r in zip(profile.grid, profile.values))
    pts = args.xi_points
    for kbar in np.linspace(-profile.k_f, profile.k_f, pts):
        rows.append(("xi_h", float(kbar),
                     thermo.hole_energy(profile, float(kbar))))
    for lam in np.linspace(-2.0 * profile.k_f, 2.0 * profile.k_f, pts):
        rows.append(("xi_c", float(lam),
                     thermo.fermion_dressed_energy(profile, float(lam))))
    manifest = _manifest("thermo", density=args.density, c=args.c,
                         xi_points=pts)
    _write_rows(args.out, ("kind", "x", "value"), rows, manifest)
    print(f"k_F = {profile.k_f:.12g}  E/L = {profile.energy_density:.12g}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_phase(args) -> int:
    ratios = _parse_range(args.ratio)
    hs = _parse_range(args.h)
    result = phases.phase_scan(args.regime, ratios, hs, c=args.c, n=args.n,
                               L=args.l, mu_b=args.mu_b)
    rows = [(r.ratio, r.h, r.n_b, r.n_up, r.n_down, r.label)
            for r in result.rows]
    manifest = _manifest("phase", regime=args.regime, n=args.n, L=args.l,
                         c=args.c, mu_b=args.mu_b, ratio=args.ratio,
                         h=args.h,
                         excluded_sectors=[list(t) for t in
                                           result.excluded_sectors])
    _write_rows(args.out, ("ratio", "h", "N_B", "N_up", "N_down", "label"),
                rows, manifest)
    if result.excluded_sectors:
        print(f"warning: {len(result.excluded_sectors)} sector(s) excluded "
              f"(no convergence): {list(result.excluded_sectors)}",
              file=sys.stderr)
    return EXIT_OK


def _add_spec_flags(p, with_populations=True):
    p.add_argument("--case", required=True, choices=("bff", "fbf", "ffb"))
    p.add_argument("--n", type=int, required=True)
    if with_populations:
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--mp", type=int, default=0)
    p.add_argument("--l", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfmix",
        description="Exact Bethe-ansatz toolkit for the 1D Bose-Fermi "
                    "mixture: ground states, excitations, thermodynamic "
                    "limit, phase diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ybe-check", help="scattering-consistency residuals")
    p.add_argument("--cases", default="bff,fbf,ffb")
    p.add_argument("--c", default="0.1,1,100")
    p.add_argument("--num", type=int, default=1000,
                   help="draws per (case, c); --num x cases x couplings "
                        f"must not exceed {_MAX_RANGE_POINTS} "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ybe_check)

    p = sub.add_parser("ground", help="sector ground state roots/E/P")
    _add_spec_flags(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("excite", help="dispersion sweeps")
    _add_spec_flags(p, with_populations=False)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--family", default="all",
                   choices=("particle-hole", "add-fermion", "two-fermions",
                            "all"))
    p.add_argument("--two-mp", type=int, default=0, choices=(0, 1))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_excite)

    p = sub.add_parser("density", help="finite-N root-density histograms")
    _add_spec_flags(p)
    p.add_argument("--c", required=True,
                   help="comma-separated coupling list")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("thermo", help="thermodynamic-limit tables")
    p.add_argument("--density", type=float, required=True,
                   help="particle density n = N/L")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--xi-points", type=int, default=41)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("phase", help="phase-diagram grid scan")
    p.add_argument("--regime", required=True,
                   choices=("weak", "strong", "general"))
    p.add_argument("--n", type=int, default=42,
                   help=f"particle number, 1..{phases.MAX_PARTICLES}")
    p.add_argument("--l", type=float, default=42.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--mu-b", type=float, default=1.0)
    p.add_argument("--ratio", required=True,
                   help="start:stop:step (inclusive) or comma list")
    p.add_argument("--h", required=True,
                   help="start:stop:step (inclusive) or comma list")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_phase)
    return parser


_NEG_VALUE = re.compile(r"^-[\d.][\d.,:eE+-]*$")


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    """Join '--flag -2:2:1' into '--flag=-2:2:1'.

    argparse reads a leading '-' as an option prefix, so numeric values
    like negative field ranges would otherwise be rejected.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and _NEG_VALUE.match(nxt)):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidConfig, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE


if __name__ == "__main__":
    sys.exit(main())
