"""Ground-state phase diagrams in chemical potentials and Zeeman field.

A grand energy H = E - mu_B N_B - mu_f (N_up + N_down) - (h/2)(N_up -
N_down) is minimized over candidate compositions at fixed total particle
number N:

* weak coupling: free particles — bosons condense at zero momentum (zero
  energy), each fermion species fills distinct integer momentum levels
  k = (2 pi / L) I minimizing the kinetic sum.
* strong coupling: impenetrable particles — every composition carries
  the same hard-core Fermi sea (all N particles fill one free-fermion-
  like set of levels), so the internal energy is composition-independent
  and the diagram is decided by the chemical-potential terms alone. The
  level lattice is the cheaper of the integer and half-odd-integer
  ladders; ring-twist corrections of relative order 1/N^2 are dropped
  (at finite coupling they are what the general classifier resolves).
  Candidates are restricted to the same ordered composition set as the
  general classifier, of which this is the closed-form limit.
  Consequence worth noting: at large mu_f/mu_B the composition cap
  forces spin-down fermions even for h > 0 (paired corner), and the
  large-ratio region is paired (S) rather than fully polarized.
* general coupling: compositions (M, M') with N-M >= M-M' >= M' >= 0,
  each evaluated by solving its finite-c ground state exactly; sector
  energies are field-independent, so a scan solves each sector once.

All regimes minimize over one candidate set — the admissible sectors
and their exact spin mirrors (see :func:`candidate_compositions`) — so
their labels are comparable across the whole (ratio, h) plane. Exact
energy ties are broken toward more bosons, then more spin-up fermions,
so boundary points classify deterministically.

Labels: B (bosons only), BF1/BF2 (bosons + one polarized species),
S (bosons + equal nonzero spin populations), BF1F2 (bosons + unequal
nonzero spin populations), F1/F2 (single polarized species, no bosons),
F (equal spin populations, no bosons), F1F2 (unequal, no bosons).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bae import InvalidConfig, MixtureSpec, NonConvergence, Reason
from .excitations import sector_ground

# Largest n of a phase table (weak regime, n = 3000: 37 s and 481 MB).
MAX_PARTICLES = 1000


@dataclass(frozen=True)
class FieldPoint:
    """Zeeman field and chemical potentials; ratio = mu_f / mu_B."""
    h: float
    mu_b: float
    mu_f: float

    @property
    def ratio(self) -> float:
        if self.mu_b == 0:
            raise ValueError("ratio undefined at mu_b = 0")
        return self.mu_f / self.mu_b

    @classmethod
    def from_ratio(cls, ratio: float, h: float,
                   mu_b: float = 1.0) -> "FieldPoint":
        if mu_b <= 0:
            raise ValueError("mu_b must be positive when ratio is the axis")
        return cls(h=h, mu_b=mu_b, mu_f=ratio * mu_b)


@dataclass(frozen=True)
class PhasePoint:
    populations: tuple[int, int, int]
    label: str
    excluded_sectors: tuple[tuple[int, int], ...] = ()


class ScanRow(NamedTuple):
    ratio: float
    h: float
    n_b: int
    n_up: int
    n_down: int
    label: str


@dataclass(frozen=True, eq=False)
class PhaseScanResult:
    """A classified (ratio, h) grid, held by its distinct values.

    ``winners[i, j]`` indexes the minimizer at (``ratios[i]``, ``hs[j]``)
    in ``compositions``, the (C, 3) int array of candidate (N_B, N_up,
    N_down) in the exact-tie order. ``labels`` maps each winning index to
    its :func:`classify` label. ``rows``, the grid as :class:`ScanRow`
    (ratio-major, h-minor), is built on first access.
    """
    ratios: list[float]
    hs: list[float]
    winners: np.ndarray
    compositions: np.ndarray
    labels: dict[int, str]
    excluded_sectors: tuple[tuple[int, int], ...] = ()

    def tails(self) -> dict[int, tuple[int, int, int, str]]:
        """(N_B, N_up, N_down, label) of each winning candidate index."""
        return {w: (*self.compositions[w].tolist(), label)
                for w, label in self.labels.items()}

    @functools.cached_property
    def rows(self) -> list[ScanRow]:
        tails = self.tails()
        return [ScanRow(ratio, h, *tails[w])
                for ratio, row in zip(self.ratios, self.winners.tolist())
                for h, w in zip(self.hs, row)]

    def __eq__(self, other):
        return isinstance(other, PhaseScanResult) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__dataclass_fields__)


def classify(populations: tuple[int, int, int]) -> str:
    """Phase label from (N_B, N_up, N_down)."""
    n_b, up, dn = populations
    if min(populations) < 0:
        raise ValueError("populations must be non-negative")
    has_b = n_b > 0
    if up == 0 and dn == 0:
        if not has_b:
            raise ValueError("empty composition")
        return "B"
    if dn == 0:
        return "BF1" if has_b else "F1"
    if up == 0:
        return "BF2" if has_b else "F2"
    if up == dn:
        return "S" if has_b else "F"
    return "BF1F2" if has_b else "F1F2"


def grand_energy(populations: tuple[int, int, int], e: float,
                 fields: FieldPoint) -> float:
    """H = E - mu_B N_B - mu_f (N_up + N_down) - (h/2)(N_up - N_down).

    Elementwise when the populations are three arrays and e an array;
    a column array ``fields.h`` broadcasts to one row per h value.
    """
    n_b, up, dn = populations
    return (e - fields.mu_b * n_b - fields.mu_f * (up + dn)
            - 0.5 * fields.h * (up - dn))


def young_sectors(n: int) -> list[tuple[int, int]]:
    """All (M, M') with N - M >= M - M' >= M' >= 0, deterministic order."""
    return [(m, mp) for m in range(n + 1) for mp in range(m // 2 + 1)
            if n - m >= m - mp]


def candidate_compositions(n: int) -> list[tuple[tuple[int, int],
                                                 tuple[int, int, int]]]:
    """(sector, populations) candidates: Young sectors and spin mirrors.

    Each admissible sector (M, M') carries populations
    (N-M, M-M', M'); when the spin populations differ, the mirrored
    composition (N-M, M', M-M') is an exact eigenstate of the same
    energy (the spin species only relabel the wavefunction), listed
    under the same sector. All three regime classifiers minimize over
    this one set, so their labels are comparable point by point —
    including the h < 0 half-plane, which the mirrors cover.
    """
    out = []
    for m, mp in young_sectors(n):
        pops = (n - m, m - mp, mp)
        out.append(((m, mp), pops))
        if pops[1] != pops[2]:
            out.append(((m, mp), (pops[0], pops[2], pops[1])))
    return out


def free_sea_energy(count: int) -> int:
    """Minimal sum of I^2 over ``count`` distinct integer levels."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count % 2:
        return (count ** 3 - count) // 12
    h = count // 2  # levels -(h-1)..h: 2 * sum_{j<h} j^2 + h^2
    return (h - 1) * h * (2 * h - 1) // 3 + h * h


def weak_coupling_phase(fields: FieldPoint, n: int,
                        L: float) -> PhasePoint:
    """Free-particle minimizer over all compositions (bosons at zero k)."""
    return _phase_point("weak", fields, n, L)


def strong_coupling_phase(fields: FieldPoint, n: int,
                          L: float) -> PhasePoint:
    """Impenetrable-limit minimizer (closed form); see module docstring."""
    return _phase_point("strong", fields, n, L)


def sector_energy_table(c: float, n: int, L: float
                        ) -> tuple[list[tuple[int, int, int]], list[float],
                                   tuple[tuple[int, int], ...]]:
    """Ground energies of every admissible (M, M') sector at coupling c.

    Sectors are labeled by (M, M') with populations (N-M, M-M', M') and
    solved in the ffb ordering (:meth:`MixtureSpec.from_populations`
    maps the populations to its spec) because that ordering reaches every
    admissible sector with real roots (the bff ordering needs non-real
    root pairs once both fermion species coexist with bosons). Each
    sector is solved once and its energy shared with its spin mirror;
    sectors whose solver fails are excluded and reported. Every call
    solves the whole table: classify a grid with :func:`phase_scan`.
    """
    energy, excluded = {}, []
    for m, mp in young_sectors(n):
        spec = MixtureSpec.from_populations("ffb", (n - m, m - mp, mp), L, c)
        try:
            energy[(m, mp)] = sector_ground(spec)[2].E
        except NonConvergence:
            excluded.append((m, mp))
    if not energy:
        raise NonConvergence("every sector failed to converge", float("inf"),
                             Reason.NO_CANDIDATE)
    solved = [(pops, energy[sector]) for sector, pops
              in candidate_compositions(n) if sector in energy]
    return ([pops for pops, _ in solved], [e for _, e in solved],
            tuple(excluded))


def general_phase(c: float, fields: FieldPoint, n: int,
                  L: float) -> PhasePoint:
    """Exact finite-coupling minimizer over admissible compositions.

    Each call solves the whole sector table; classify a grid with
    :func:`phase_scan`, which solves it once.
    """
    return _phase_point("general", fields, n, L, c)


def _phase_point(regime: str, fields: FieldPoint, n: int, L: float,
                 c: float = 1.0) -> PhasePoint:
    pop_arr, e_arr, excluded = _regime_table(regime, n, L, c)
    (best,) = _argmin(pop_arr, e_arr, fields.mu_b, fields.mu_f, [fields.h])
    pops = tuple(pop_arr[best].tolist())
    return PhasePoint(populations=pops, label=classify(pops),
                      excluded_sectors=excluded)


def _regime_table(regime: str, n: int, L: float, c: float = 1.0
                  ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(populations, energies, excluded sectors) of one regime's
    candidates, ordered by more bosons, then more spin-up fermions."""
    if not 1 <= n <= MAX_PARTICLES:
        raise InvalidConfig(f"need 1 <= n <= {MAX_PARTICLES}, got n = {n}")
    if not (np.isfinite(L) and L > 0):
        raise InvalidConfig(f"box length must be finite and positive, got {L}")
    excluded: tuple = ()
    if regime in ("weak", "strong"):
        try:
            u = (2.0 * np.pi / L) ** 2
        except OverflowError:
            u = np.inf
        if u == np.inf:
            raise InvalidConfig(f"box length {L} too small: the level "
                                f"spacing (2 pi / L)^2 overflows")
        comps = [pops for _, pops in candidate_compositions(n)]
        if regime == "weak":
            energies = [u * (free_sea_energy(up) + free_sea_energy(dn))
                        for _, up, dn in comps]
        else:
            # the cheaper ladder (integer for odd n, half-odd for even n)
            # fills n levels with a sum of I^2 of (n^3 - n) / 12
            e_sea = u * ((n ** 3 - n) / 12)
            energies = [e_sea] * len(comps)
    elif regime == "general":
        comps, energies, excluded = sector_energy_table(c, n, L)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    pop_arr = np.asarray(comps, dtype=int)
    order = np.lexsort((-pop_arr[:, 1], -pop_arr[:, 0]))
    return (pop_arr[order], np.asarray(energies, dtype=float)[order],
            excluded)


def _argmin(pop_arr: np.ndarray, e_arr: np.ndarray, mu_b: float,
            mu_f: float, h_values) -> np.ndarray:
    """Index of the grand-energy minimizer at (mu_b, mu_f), per h value.

    Ties go to the first candidate in the order of :func:`_regime_table`.
    Memory is O(len(h_values) * candidates). Fields so large that a grand
    energy overflows cannot be compared and raise InvalidConfig.
    """
    h_col = np.asarray(h_values, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        g = grand_energy(pop_arr.T, e_arr,
                         FieldPoint(h=h_col, mu_b=mu_b, mu_f=mu_f))
    if not np.isfinite(g).all():
        raise InvalidConfig(f"grand energy overflows at mu_b = {mu_b}, "
                            f"mu_f = {mu_f} and the given h values")
    return np.argmin(g, axis=1)


def phase_scan(regime: str, ratio_values, h_values, *, c: float = 1.0,
               n: int = 42, L: float = 42.0,
               mu_b: float = 1.0) -> PhaseScanResult:
    """Classify a (ratio, h) grid into a :class:`PhaseScanResult`.

    Sector energies do not depend on the fields, so they are computed
    once and each ratio row reduces to one vectorized minimization over
    its h values, with the exact-tie preference for more bosons, then
    more spin-up. A grid point costs one candidate index: only the
    distinct winners are labelled by :func:`classify`, once each (there
    are far fewer of them than candidates at large n).
    """
    if not (np.isfinite(mu_b) and mu_b > 0):
        raise InvalidConfig(
            f"mu_b must be finite and positive when ratio is the axis, "
            f"got {mu_b}")
    pop_arr, e_arr, excluded = _regime_table(regime, n, L, c)
    ratios = [float(r) for r in ratio_values]
    hs = [float(h) for h in h_values]
    winners = np.empty((len(ratios), len(hs)), dtype=np.intp)
    for row, ratio in zip(winners, ratios):
        row[:] = _argmin(pop_arr, e_arr, mu_b, ratio * mu_b, hs)
    # not np.unique: no sort, and no lazy set-up on a process's first call
    won = np.flatnonzero(np.bincount(winners.ravel()))
    labels = {w: classify(tuple(pop_arr[w].tolist())) for w in won.tolist()}
    return PhaseScanResult(ratios, hs, winners, pop_arr, labels, excluded)
