"""Quantum-number configurations: ground states and excitation families.

Ground states of every reference ordering are symmetric consecutive runs
of quantum numbers centered at zero. Low-lying excitations are built by
rearranging finitely many quantum numbers:

* particle-hole: remove one I from the symmetric sequence, append one
  outside it;
* add one fermion: flip one boson into a fermion (population change);
  the charge numbers fill a symmetric (N+1)-slot window minus one hole,
  and one auxiliary quantum number J1 parameterizes the new branch;
* two fermions: two auxiliary quantum numbers.

One builder, :func:`_rearrange`, fills each level's window or leaves it
empty, except one level that takes the free numbers as members or holes;
:func:`_windows` reads the windows from :func:`bfmix.bae.required_parities`
and :func:`bfmix.bae.auxiliary_bounds`. Sectors are named by populations
(N_B, N_up, N_down): (N, 0, 0) for the ground state, (N-1, 1, 0) for one
fermion. Energies are relative to the ordering's all-boson ground state.

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
                  QuantumNumberConfig, Reason, RootSet, auxiliary_bounds,
                  energy_momentum, momentum, required_parities, solve,
                  solve_many)


def _sym_run(count: int) -> tuple[int, ...]:
    """Doubled values of the symmetric consecutive run of ``count`` slots."""
    return tuple(2 * j - (count - 1) for j in range(count))


def _parity_values(lo: int, hi: int, parity: int) -> list[int]:
    """Doubled values in [lo, hi] with the given parity."""
    start = lo if lo % 2 == parity else lo + 1
    return list(range(start, hi + 1, 2))


def _offset_runs(count: int, parity: int) -> list[tuple[int, ...]]:
    """Consecutive runs of given length and parity centered within one
    full step of zero: the symmetric run and its whole-step translates
    when the parity matches, else the half-step translates on either
    side. A sector minimum's families need not all be centered (their
    centers compensate each other's momentum), so a scan needs these."""
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


def _windows(spec: MixtureSpec) -> tuple[tuple[int, ...], ...]:
    """Doubled slots of the charge, lambda and mu levels: the values of
    each auxiliary level's parity (:func:`bfmix.bae.required_parities`)
    with |2J| < B (:func:`bfmix.bae.auxiliary_bounds`), and the symmetric
    charge run of its parity with N slots, else N + 1."""
    pi_, pj, pjp = required_parities(spec)
    b_lam, b_mu = auxiliary_bounds(spec)
    n = spec.n
    return (_sym_run(n if (n - 1) % 2 == pi_ else n + 1),
            tuple(_parity_values(1 - b_lam, b_lam - 1, pj)),
            tuple(_parity_values(1 - b_mu, b_mu - 1, pjp)))


def _free_level(spec: MixtureSpec, k: int,
                windows: tuple[tuple[int, ...], ...]
                ) -> tuple[Optional[int], tuple[int, ...]]:
    """Index and window of the level that takes k free numbers: the first
    auxiliary level with count > 0 whose count is k (they are members)
    or its window's size less k (they are holes); else (None, ())."""
    for level, count in ((1, spec.m), (2, spec.mp)):
        if count and count in (k, len(windows[level]) - k):
            return level, windows[level]
    return None, ()


def _rearrange(spec: MixtureSpec, free: tuple[int, ...],
               windows: tuple[tuple[int, ...], ...],
               two_hole: Optional[int] = None) -> QuantumNumberConfig:
    """Ground-sector numbers of ``spec`` with one level rearranged.

    The level of :func:`_free_level` takes the ascending doubled numbers
    ``free`` as members or holes; each other auxiliary level is empty or
    full. The charge numbers fill their window, less one hole if it has
    N + 1 slots: ``two_hole``, by default the edge opposite free[0].
    """
    level, slots = _free_level(spec, len(free), windows)
    if not set(free) <= set(slots):
        raise InvalidConfig(f"no level takes {free} as members or holes")
    aux = []
    for lvl, count in ((1, spec.m), (2, spec.mp)):
        window = windows[lvl]
        if lvl == level:
            aux.append(free if count == len(free)
                       else tuple(v for v in window if v not in free))
        elif count in (0, len(window)):
            aux.append(window if count else ())
        else:
            raise InvalidConfig(f"{count} auxiliary numbers neither fill "
                                f"nor leave empty {len(window)} slots")
    charge = windows[0]
    if two_hole is None and len(charge) > spec.n and free:
        two_hole = charge[0] if free[0] >= 0 else charge[-1]
    two_i = tuple(v for v in charge if v != two_hole)
    if (two_hole is None) != (len(charge) == spec.n) or len(two_i) != spec.n:
        raise InvalidConfig("the charge numbers fill an N-slot window, or "
                            "an (N+1)-slot one less the hole i_hole")
    return QuantumNumberConfig(two_i, *aux)


def ground_state_numbers(spec: MixtureSpec) -> QuantumNumberConfig:
    """The all-boson ground state: every level fills its window."""
    _require_populations(spec, (spec.n, 0, 0), "ground state")
    return _rearrange(spec, (), _windows(spec))


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
    windows = _windows(spec)
    parities = required_parities(spec)

    def candidates(level: int, count: int) -> list[tuple[int, ...]]:
        if count == 1:
            return [(v,) for v in windows[level]]
        return [run for run in _offset_runs(count, parities[level])
                if not level or set(run) <= set(windows[level])]

    combos = list(product(candidates(0, spec.n), candidates(1, spec.m),
                          candidates(2, spec.mp)))
    if not combos:
        b_lam, b_mu = auxiliary_bounds(spec)
        raise NonConvergence(
            "no sector candidate has admissible auxiliary quantum numbers "
            f"(|2J| < {b_lam}, |2J'| < {b_mu})", float("inf"),
            Reason.NO_CANDIDATE)
    return combos


def sector_ground(spec: MixtureSpec
                  ) -> tuple[QuantumNumberConfig, RootSet, Observables]:
    """Lowest-energy consecutive-run configuration of a (M, M') sector.

    Solves every admissible combination of near-symmetric runs (see
    :func:`_offset_runs`; a single-member family sweeps every slot, as
    its minimum can sit at the window edge) and returns the minimizer;
    ties go to smaller |P|, then lexicographically. A combination and
    its :func:`_mirror` have the same E and |P| by reflection symmetry,
    so only the smaller one, which wins the tie, is solved.

    A combination is admissible when every |2J| < B_lambda and every
    |2J'| < B_mu (:func:`bfmix.bae.auxiliary_bounds`, the Yang-Gaudin
    J_max). On every sector of all three orderings at N <= 5 and
    c = 1e-3, 1, 1e3 the inadmissible ones are exactly the candidates
    that fail or run away, so they get no solve. Admissible candidates
    that do not converge (or run away) are skipped too; raises
    NonConvergence if none is admissible or none survives. The minimum
    matches exhaustive in-window enumeration for every small-N sector
    tested.
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
        raise NonConvergence("no sector candidate converged", float("inf"),
                             Reason.NO_CANDIDATE)
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
    """One-fermion-sector configuration, populations (N-1, 1, 0): J1 is
    a slot, not an edge, of the window that takes one free number (see
    :func:`_rearrange`). The charge numbers fill the (N+1)-slot window
    less one hole (``i_hole``; default the edge opposite J1, which
    minimizes |P| along the branch)."""
    _require_populations(spec, (spec.n - 1, 1, 0), "one-fermion sector")
    two_j1 = _two(j1, "J1")
    windows = _windows(spec)
    if two_j1 not in _free_level(spec, 1, windows)[1][1:-1]:
        raise InvalidConfig("J1 must be an interior slot of its window")
    two_hole = None if i_hole is None else _two(i_hole, "i_hole")
    return _rearrange(spec, (two_j1,), windows, two_hole)


def two_fermion_numbers(spec: MixtureSpec, j1: float,
                        j2: float) -> QuantumNumberConfig:
    """Two-fermion-sector configuration, populations (N-2, 2, 0) or
    (N-2, 1, 1): J1 < J2 are slots of the window that takes two free
    numbers (see :func:`_rearrange`)."""
    if spec.populations() not in ((spec.n - 2, 2, 0), (spec.n - 2, 1, 1)):
        raise InvalidConfig("two fermions need populations (N-2, 2, 0) or "
                            f"(N-2, 1, 1), got {spec.populations()}")
    two_1, two_2 = _two(j1, "J1"), _two(j2, "J2")
    if two_1 >= two_2:
        raise InvalidConfig("need J1 < J2 (no two equal quantum numbers "
                            "in one family)")
    return _rearrange(spec, (two_1, two_2), _windows(spec))


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
    sub = MixtureSpec.from_populations(spec.case, (spec.n - 1, 1, 0),
                                       spec.L, spec.c)
    windows = _windows(sub)
    charge = windows[0]
    two_js = _free_level(sub, 1, windows)[1][1:-1]
    variants = charge if family.all_variants else (None,)
    entries = []
    for two_hole in variants:
        for tj in two_js:
            qn = _rearrange(sub, (tj,), windows, two_hole)
            hole_used = next(v for v in charge if v not in qn.two_i)
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
        windows = _windows(sub)
        slots = _free_level(sub, 2, windows)[1]
        return [[((ta / 2.0, tb / 2.0), sub,
                  _rearrange(sub, (ta, tb), windows))
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
    kept with status "failed", P from :func:`bfmix.bae.momentum` and
    dE = nan.
    """
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
                points.append(DispersionPoint(p=momentum(sub, qn),
                                              de=float("nan"),
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
