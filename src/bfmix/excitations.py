"""Quantum-number configurations: ground states and excitation families.

Ground states of every reference ordering are symmetric consecutive runs
of quantum numbers centered at zero. Low-lying excitations are built by
rearranging finitely many quantum numbers:

* particle-hole: remove one I from the symmetric sequence, append one
  outside it;
* add one fermion: flip one boson into a fermion (population change);
  the charge numbers fill a symmetric (N+1)-slot window minus one hole,
  and one auxiliary quantum number J1 parameterizes the new branch;
* two fermions: two auxiliary quantum numbers (same species, or one of
  each with the third-level number forced to zero).

Each generated configuration is parity-valid for its population by
construction. Sectors are named by populations (N_B, N_up, N_down):
(N, 0, 0) for the ground state, (N-1, 1, 0) for one fermion. Energies
are always reported relative to the ordering's all-boson ground state.

All three orderings describe the same physical states: solved spectra
agree state by state in (E, P) once the quantum numbers are mapped
between orderings, and :func:`sector_ground` gives identical sector
minima wherever every ordering admits real roots. (Sectors with both
fermion species present and bosons left over need non-real root pairs
in the bff ordering; the ffb ordering reaches them with real roots,
which is why population scans prefer it.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .bae import (InvalidConfig, MixtureSpec, NonConvergence, Observables,
                  QuantumNumberConfig, RootSet, _split, auxiliary_bounds,
                  energy_momentum, required_parities, solve, solve_many)


def _sym_run(count: int) -> tuple[int, ...]:
    """Doubled values of the symmetric consecutive run of ``count`` slots."""
    return tuple(2 * j - (count - 1) for j in range(count))


def _parity_values(lo: int, hi: int, parity: int) -> list[int]:
    """Doubled values in [lo, hi] with the given parity."""
    start = lo if lo % 2 == parity else lo + 1
    return list(range(start, hi + 1, 2))


def _offset_runs(count: int, parity: int) -> list[tuple[int, ...]]:
    """Consecutive runs of given length and parity, near-symmetric.

    All consecutive runs whose center is within one full step of zero:
    the symmetric run and its whole-step translates when the parity
    matches, else the half-step translates on either side. The
    families of a sector minimum need not all be centered (their
    centers compensate each other's momentum), so a sector scan must
    enumerate these combinations rather than only the symmetric runs.
    """
    if count == 0:
        return [()]
    anchor = _sym_run(count)
    shifts = (-2, 0, 2) if (count - 1) % 2 == parity else (-3, -1, 1, 3)
    return [tuple(v + s for v in anchor) for s in shifts]


def _two(value: float, name: str) -> int:
    twice = 2.0 * float(value)
    if not math.isfinite(twice):
        raise InvalidConfig(f"{name} must be finite, got {value}")
    doubled = round(twice)
    if abs(twice - doubled) > 1e-9:
        raise InvalidConfig(f"{name} must be integer or half-odd, got {value}")
    return int(doubled)


def _require_populations(spec: MixtureSpec, want: tuple, sector: str) -> None:
    if spec.populations() != want:
        raise InvalidConfig(f"the {sector} has populations (N_B, N_up, "
                            f"N_down) = {want}, got {spec.populations()}")


def ground_state_numbers(spec: MixtureSpec) -> QuantumNumberConfig:
    """Symmetric consecutive quantum numbers of the all-boson ground state."""
    _require_populations(spec, (spec.n, 0, 0), "ground state")
    pi_, pj, pjp = required_parities(spec)
    runs = []
    for count, parity in ((spec.n, pi_), (spec.m, pj), (spec.mp, pjp)):
        run = _sym_run(count)
        if count and (count - 1) % 2 != parity:
            raise InvalidConfig("no symmetric run with the required parity")
        runs.append(run)
    return QuantumNumberConfig(*runs)


def _mirror(combo: tuple[tuple[int, ...], ...]
            ) -> tuple[tuple[int, ...], ...]:
    """Every quantum number negated, each family ascending again."""
    return tuple(tuple(-v for v in reversed(run)) for run in combo)


def _sector_candidates(spec: MixtureSpec
                       ) -> list[tuple[tuple[int, ...], ...]]:
    """Admissible (2I, 2J, 2J') combinations of :func:`sector_ground`.

    The set is closed under :func:`_mirror`: the run shifts, the
    single-member sweep and the bounds are all symmetric about zero.
    Raises NonConvergence when no combination is admissible.
    """
    pi_, pj, pjp = required_parities(spec)
    b_lam, b_mu = auxiliary_bounds(spec)

    def candidates(count: int, parity: int,
                   bound: float = np.inf) -> list[tuple[int, ...]]:
        if count == 1:
            runs = [(v,) for v in _parity_values(-spec.n, spec.n, parity)]
        else:
            runs = _offset_runs(count, parity)
        return [run for run in runs if all(abs(v) < bound for v in run)]

    combos = list(product(candidates(spec.n, pi_),
                          candidates(spec.m, pj, b_lam),
                          candidates(spec.mp, pjp, b_mu)))
    if not combos:
        raise NonConvergence(
            "no sector candidate has admissible auxiliary quantum numbers "
            f"(|2J| < {b_lam}, |2J'| < {b_mu})", float("inf"))
    return combos


def sector_ground(spec: MixtureSpec
                  ) -> tuple[QuantumNumberConfig, RootSet, Observables]:
    """Lowest-energy consecutive-run configuration of a (M, M') sector.

    Enumerates near-symmetric consecutive runs of each family (see
    :func:`_offset_runs`; a single-member family instead sweeps every
    slot of the charge window, since its minimizing position can sit at
    the window edge), solves every admissible combination, and returns
    the minimizer; ties broken by smaller |P|, then lexicographically.
    A combination and its mirror (every quantum number negated) have the
    same E and |P| by reflection symmetry, so only the lexicographically
    smaller one, which wins the tie, is solved.

    A combination is admissible when every |2J| < B_lambda and every
    |2J'| < B_mu, the bounds that the lambda, mu -> +-infinity limit of
    each auxiliary counting function puts on a finite real root (see
    :func:`bfmix.bae.auxiliary_bounds`; the Yang-Gaudin J_max of
    Takahashi, Thermodynamics of One-Dimensional Solvable Models, CUP
    1999, ch. 4 and 7). Inadmissible candidates are skipped without a
    solve: on every sector of all three orderings at N <= 5 and
    c = 1e-3, 1, 1e3 they are exactly the candidates that fail or run
    away. Admissible candidates that do not converge (or converge to a
    non-regular runaway) are skipped too; raises NonConvergence if none
    is admissible or none survives. The minimum over these candidates
    matches exhaustive in-window enumeration for every small-N sector
    tested (the ffb ordering in particular; bff cannot express some
    mixed sectors with real roots at all).
    """
    best = None
    for combo in _sector_candidates(spec):
        if _mirror(combo) < combo:
            continue
        qn = QuantumNumberConfig(*combo)
        try:
            roots = solve(spec, qn)
        except NonConvergence:
            continue
        obs = energy_momentum(spec, qn, roots)
        key = (obs.E, abs(obs.P), combo)
        if best is None or key < best[0]:
            best = (key, qn, roots, obs)
    if best is None:
        raise NonConvergence("no sector candidate converged", float("inf"))
    return best[1], best[2], best[3]


def particle_hole_numbers(spec: MixtureSpec, hole_position: int,
                          particle_number: float) -> QuantumNumberConfig:
    """Ground sequence with the hole_position-th I removed and a new one
    appended beyond the right edge of the sequence."""
    return _particle_hole(spec, ground_state_numbers(spec), hole_position,
                          particle_number)


def _particle_hole(spec: MixtureSpec, base: QuantumNumberConfig,
                   hole_position: int,
                   particle_number: float) -> QuantumNumberConfig:
    """:func:`particle_hole_numbers` from the ground-state numbers
    ``base`` of ``spec``, which a sweep builds once."""
    if not 1 <= hole_position <= spec.n:
        raise InvalidConfig(f"hole_position must be in 1..{spec.n}")
    two_p = _two(particle_number, "particle_number")
    pi_ = required_parities(spec)[0]
    if two_p % 2 != pi_:
        raise InvalidConfig("particle_number has the wrong parity")
    if two_p <= spec.n - 1:
        raise InvalidConfig("particle_number must lie outside the sequence")
    kept = list(base.two_i)
    del kept[hole_position - 1]
    if two_p in kept:
        raise InvalidConfig("particle_number collides with an existing I")
    return QuantumNumberConfig(tuple(sorted(kept + [two_p])),
                               base.two_j, base.two_jp)


def add_fermion_numbers(spec: MixtureSpec, j1: float, *,
                        i_hole: Optional[float] = None
                        ) -> QuantumNumberConfig:
    """One-fermion-sector configuration parameterized by J1.

    The sector replaces one boson by a spin-up fermion: populations
    (N-1, 1, 0), i.e. bff (M, M') = (1, 0); fbf (N-1, 0); ffb
    (N-1, N-1). All three orderings share one structure (their solved
    spectra coincide state by state):

    * charge: I fill the symmetric (N+1)-slot window minus one hole
      (``i_hole``; default the window edge on the side opposite J1,
      which minimizes |P| along the branch);
    * spin: J1, a slot of the symmetric N-slot window with
      |J1| < (N-1)/2, is the single J (bff) or the hole position in
      the otherwise full J window (fbf, ffb);
    * ffb third level: J' fill the symmetric (N-1)-slot run (the
      remaining boson sea; no freedom).
    """
    n = spec.n
    _require_populations(spec, (n - 1, 1, 0), "one-fermion sector")
    two_j1 = _two(j1, "J1")
    pj = required_parities(spec)[1]
    if two_j1 % 2 != pj:
        raise InvalidConfig("J1 has the wrong parity")
    if abs(two_j1) >= n - 1:
        raise InvalidConfig("J1 must satisfy |J1| < (N-1)/2")

    window = _sym_run(n + 1)
    if i_hole is None:
        two_hole = window[0] if two_j1 >= 0 else window[-1]
    else:
        two_hole = _two(i_hole, "i_hole")
        if two_hole not in window:
            raise InvalidConfig("i_hole must be a window slot")
    two_i = tuple(v for v in window if v != two_hole)

    if spec.case == "bff":
        return QuantumNumberConfig(two_i, (two_j1,), ())
    two_j = tuple(v for v in _sym_run(n) if v != two_j1)
    if spec.case == "fbf":
        return QuantumNumberConfig(two_i, two_j, ())
    return QuantumNumberConfig(two_i, two_j, _sym_run(n - 1))


def two_fermion_numbers(spec: MixtureSpec, j1: float,
                        j2: float) -> QuantumNumberConfig:
    """Two-fermion-sector configuration (bff ordering, M = 2).

    M' = 0 puts both quantum numbers in the J family; M' = 1 (one fermion
    of each species) forces the single J' to zero. J1 < J2 within
    |J| <= (N-1)/2; equal values are rejected (no two equal quantum
    numbers in one family).
    """
    if spec.case != "bff" or spec.m != 2 or spec.mp not in (0, 1):
        raise InvalidConfig("two-fermion sector expects bff with M=2, M'<=1")
    two_1, two_2 = _two(j1, "J1"), _two(j2, "J2")
    if two_1 == two_2:
        raise InvalidConfig("J1 = J2 is excluded (equal quantum numbers)")
    if two_1 > two_2:
        raise InvalidConfig("need J1 < J2")
    pi_, pj, pjp = required_parities(spec)
    n = spec.n
    for v in (two_1, two_2):
        if v % 2 != pj:
            raise InvalidConfig("J has the wrong parity")
        if abs(v) > n - 1:
            raise InvalidConfig("J must satisfy |J| <= (N-1)/2")
    two_i = _sym_run(n)
    if (n - 1) % 2 != pi_:
        raise InvalidConfig("no symmetric charge run with required parity")
    two_jp = (0,) if spec.mp == 1 else ()
    return QuantumNumberConfig(two_i, (two_1, two_2), two_jp)


@dataclass(frozen=True)
class GroundState:
    pass


@dataclass(frozen=True)
class ParticleHole:
    """Sweep of every hole position and the first N particle slots
    beyond the right edge of the sequence."""


@dataclass(frozen=True)
class AddOneFermion:
    """Sweep of J1 over all admissible slots; with ``all_variants`` the
    charge hole position is swept over the full window as well.
    """

    all_variants: bool = False


@dataclass(frozen=True)
class TwoFermions:
    """Sweep of every pair J1 < J2 of admissible slots, with M' = ``mp``."""

    mp: int = 0


@dataclass(frozen=True)
class DispersionPoint:
    p: float
    de: float
    status: str
    params: tuple


def _add_fermion_sweep(spec: MixtureSpec, family: AddOneFermion
                       ) -> list[tuple[tuple, MixtureSpec,
                                       QuantumNumberConfig]]:
    n = spec.n
    sub = MixtureSpec.from_populations(spec.case, (n - 1, 1, 0),
                                       spec.L, spec.c)
    two_js = _parity_values(-(n - 2), n - 2, required_parities(sub)[1])
    window = _sym_run(n + 1)
    variants = window if family.all_variants else (None,)
    entries = []
    for two_hole in variants:
        for tj in two_js:
            qn = add_fermion_numbers(
                sub, tj / 2.0,
                i_hole=None if two_hole is None else two_hole / 2.0)
            hole_used = next(v for v in window if v not in qn.two_i)
            entries.append(((hole_used / 2.0, tj / 2.0), sub, qn))
    return entries


def _sweep_rows(spec: MixtureSpec, family, qn0: QuantumNumberConfig
                ) -> list[list[tuple[tuple, MixtureSpec,
                                     QuantumNumberConfig]]]:
    """The points of a sweep, (params, spec, qn) each, in rows of one spec.

    Within a row, ``params[1:]`` names a point's column: particle-hole
    rows are the holes (columns the particle slots), two-fermion rows
    the first J (columns the second); add-fermion is one row.
    """
    n = spec.n
    if isinstance(family, GroundState):
        return [[((), spec, qn0)]]
    if isinstance(family, ParticleHole):
        return [[((float(hole), two_p / 2.0), spec,
                  _particle_hole(spec, qn0, hole, two_p / 2.0))
                 for two_p in range(n + 1, 3 * n, 2)]
                for hole in range(1, n + 1)]
    if isinstance(family, AddOneFermion):
        sweep = _add_fermion_sweep(spec, family)
        return [sweep] if sweep else []
    if isinstance(family, TwoFermions):
        if n < 2:
            raise InvalidConfig(
                f"two-fermions family needs N >= 2, got N = {n}")
        sub = MixtureSpec("bff", n, 2, family.mp, spec.L, spec.c)
        slots = _parity_values(-(n - 1), n - 1, required_parities(sub)[1])
        return [[((ta / 2.0, tb / 2.0), sub,
                  two_fermion_numbers(sub, ta / 2.0, tb / 2.0))
                 for tb in slots[i + 1:]]
                for i, ta in enumerate(slots[:-1])]
    raise InvalidConfig(f"unknown excitation family {family!r}")


def dispersion(spec: MixtureSpec,
               family) -> list[DispersionPoint]:
    """Sweep one excitation family into (P, dE) points.

    ``spec`` must carry the ordering's ground-state population; energies
    are relative to that ground state. Points are ordered by sweep index.
    The sweep is solved row by row (see :func:`_sweep_rows`), one
    :func:`bfmix.bae.solve_many` stack per row: the first row starts
    from the ground-state roots when it shares the ground spec, else
    from the default seed; each later point starts from the converged
    roots of its column in the row above, or from the default seed where
    that point is missing or failed. A member whose start fails has run
    its coupling ladder once inside ``solve_many``. Failed points are
    kept with status "failed" (P from the exact quantum numbers,
    dE = nan).
    """
    _require_populations(spec, (spec.n, 0, 0), "ground state")
    qn0 = ground_state_numbers(spec)
    roots0 = solve(spec, qn0)
    e0 = energy_momentum(spec, qn0, roots0).E

    points = []
    above: dict[tuple, RootSet] = {}
    for i, row in enumerate(_sweep_rows(spec, family, qn0)):
        sub = row[0][1]
        if i == 0:
            inits = [roots0 if sub == spec else None] * len(row)
        else:
            inits = [above.get(params[1:]) for params, _, _ in row]
        solved = solve_many(sub, [qn for _, _, qn in row], inits)
        above = {}
        for (params, _, qn), roots in zip(row, solved):
            if isinstance(roots, NonConvergence):
                zeros = _split(sub, np.zeros(sub.n + sub.m + sub.mp))
                obs_p = energy_momentum(sub, qn, zeros).P
                points.append(DispersionPoint(p=obs_p, de=float("nan"),
                                              status="failed",
                                              params=params))
                continue
            obs = energy_momentum(sub, qn, roots)
            points.append(DispersionPoint(p=obs.P, de=obs.E - e0,
                                          status="ok", params=params))
            above[params[1:]] = roots
    return points


def density_histogram(spec: MixtureSpec,
                      roots: RootSet) -> tuple[np.ndarray, np.ndarray]:
    """Discrete root density rho(k) = 1/(L (k_{j+1} - k_j)) at midpoints.

    Bin edges are the solved charge roots themselves; no smoothing.
    """
    k = np.sort(roots.k)
    gaps = np.diff(k)
    if np.any(gaps <= 0):
        raise InvalidConfig("charge roots must be distinct")
    mid = 0.5 * (k[1:] + k[:-1])
    return mid, 1.0 / (spec.L * gaps)
