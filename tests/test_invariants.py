"""Census of two invariants that every eigenstate on the ring keeps.

Whatever the coupling, an eigenstate of N particles on a periodic ring
of length L has
* total momentum P with P L / (2 pi) an integer, and
* energy E >= u (s(N_up) + s(N_down)), the free gas with the same
  populations: u = (2 pi / L)^2, s = ``free_sea_energy``, the bosons at
  k = 0 and the contact term >= 0.

The census checks both on every phase-table sector ground state (the
ffb spec of each composition, n <= 8, L = n, c in {1e-3, 1, 1e3}) and on
every dispersion point (all orderings and families, n <= 8, L = n,
c = 1). The outputs that break an invariant today are listed below and
marked ``xfail(strict=True)``: ROADMAP item 1 traces them to the
quantum-number parity rule. A change that mends one of them makes its
xfail pass, which fails the suite until the list is updated.
"""
import functools
import math

import pytest

from bfmix.bae import MixtureSpec, energy_momentum, solve
from bfmix.excitations import (AddOneFermion, GroundState, ParticleHole,
                               TwoFermions, dispersion, ground_state_numbers,
                               sector_ground)
from bfmix.phases import free_sea_energy, young_sectors

NS = range(1, 9)
SECTOR_COUPLINGS = (1e-3, 1.0, 1e3)

_ROADMAP_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the quantum-number parity rule gives a state "
           "that the periodic ring does not have")

# (n, N_B, N_up, N_down) whose table energy lies below the free bound at
# c = 1e-3; no composition does at c = 1 or 1e3.
_BELOW_FREE_BOUND = {
    (4, 2, 2, 0), (5, 3, 2, 0), (5, 2, 2, 1), (6, 4, 2, 0), (6, 3, 2, 1),
    (6, 2, 2, 2), (7, 5, 2, 0), (7, 4, 2, 1), (7, 3, 2, 2), (8, 6, 2, 0),
    (8, 5, 2, 1), (8, 4, 4, 0), (8, 4, 2, 2),
}


def _momentum_is_integer(p: float, L: float) -> bool:
    quanta = p * L / (2.0 * math.pi)
    return abs(quanta - round(quanta)) < 1e-9


def _free_bound(pops: tuple[int, int, int], L: float) -> float:
    return (2.0 * math.pi / L) ** 2 * (free_sea_energy(pops[1])
                                       + free_sea_energy(pops[2]))


# ------------------------------------------------------ sector ground states

def _compositions():
    for n in NS:
        for m, mp in young_sectors(n):
            yield n, (n - m, m - mp, mp)


@functools.cache
def _sector_obs(n: int, pops: tuple[int, int, int], c: float):
    spec = MixtureSpec.from_populations("ffb", pops, float(n), c)
    return sector_ground(spec)[2]


def _sector_keeps(invariant: str, n: int, pops, c: float) -> bool:
    obs = _sector_obs(n, pops, c)
    if invariant == "momentum":
        return _momentum_is_integer(obs.P, float(n))
    return obs.E >= _free_bound(pops, float(n))


def _sector_known_broken(invariant: str, n: int, pops, c: float) -> bool:
    if invariant == "momentum":  # every odd spin imbalance N_up - N_down
        return (pops[1] - pops[2]) % 2 == 1
    return c == 1e-3 and (n,) + pops in _BELOW_FREE_BOUND


@pytest.mark.parametrize("c", SECTOR_COUPLINGS)
@pytest.mark.parametrize("invariant", ("momentum", "free-bound"))
def test_sector_ground_states_keep_invariant(invariant, c):
    broken = [(n, pops) for n, pops in _compositions()
              if not _sector_known_broken(invariant, n, pops, c)
              and not _sector_keeps(invariant, n, pops, c)]
    assert broken == []


_SECTOR_KNOWN = [
    pytest.param(invariant, n, pops, c, marks=_ROADMAP_1,
                 id=f"{invariant}-n{n}-{pops[0]}.{pops[1]}.{pops[2]}-c{c:g}")
    for invariant in ("momentum", "free-bound") for c in SECTOR_COUPLINGS
    for n, pops in _compositions()
    if _sector_known_broken(invariant, n, pops, c)]


def test_sector_known_violations_are_counted():
    # 15 odd-imbalance sectors at each coupling, 13 below the free bound
    assert len(_SECTOR_KNOWN) == 3 * 15 + 13


@pytest.mark.parametrize("invariant, n, pops, c", _SECTOR_KNOWN)
def test_sector_known_violation(invariant, n, pops, c):
    assert _sector_keeps(invariant, n, pops, c)


# --------------------------------------------------------- dispersion points

# family name -> (sweep, populations at n, orderings that define it, min n)
_FAMILIES = {
    "ground": (GroundState(), lambda n: (n, 0, 0), ("bff", "fbf", "ffb"), 1),
    "particle-hole": (ParticleHole(), lambda n: (n, 0, 0),
                      ("bff", "fbf", "ffb"), 1),
    "add-fermion": (AddOneFermion(), lambda n: (n - 1, 1, 0),
                    ("bff", "fbf", "ffb"), 1),
    "two-fermions": (TwoFermions(mp=0), lambda n: (n - 2, 2, 0), ("bff",), 2),
    "two-fermions-mp1": (TwoFermions(mp=1), lambda n: (n - 2, 1, 1),
                         ("bff",), 2),
}
_GROUPS = [(case, name) for name, (_, _, cases, _) in _FAMILIES.items()
           for case in cases]


@functools.cache
def _points(case: str, name: str, n: int):
    """(P, E) of every point of one sweep at L = n, c = 1."""
    gs = MixtureSpec.from_populations(case, (n, 0, 0), float(n), 1.0)
    qn0 = ground_state_numbers(gs)
    e0 = energy_momentum(gs, qn0, solve(gs, qn0)).E
    return [(pt.p, pt.de + e0) for pt in dispersion(gs, _FAMILIES[name][0])]


def _sweep_keeps(invariant: str, case: str, name: str, n: int) -> bool:
    if invariant == "momentum":
        return all(_momentum_is_integer(p, float(n))
                   for p, _ in _points(case, name, n))
    bound = _free_bound(_FAMILIES[name][1](n), float(n))
    return all(e >= bound for _, e in _points(case, name, n))


def _sweep_known_broken(invariant: str, case: str, name: str,
                        n: int) -> bool:
    if invariant == "momentum":  # every add-fermion point (none at n < 3)
        return name == "add-fermion" and n >= 3
    # bff two-fermions (J1, J2) = (-1/2, 1/2) at n = 2, (-1, 1) at n = 3
    return name == "two-fermions" and n in (2, 3)


def _sweep_ns(name: str):
    return range(_FAMILIES[name][3], NS.stop)


@pytest.mark.parametrize("case, name", _GROUPS)
@pytest.mark.parametrize("invariant", ("momentum", "free-bound"))
def test_dispersion_points_keep_invariant(invariant, case, name):
    broken = [n for n in _sweep_ns(name)
              if not _sweep_known_broken(invariant, case, name, n)
              and not _sweep_keeps(invariant, case, name, n)]
    assert broken == []


@pytest.mark.parametrize("invariant, case, name, n", [
    pytest.param(invariant, case, name, n, marks=_ROADMAP_1,
                 id=f"{invariant}-{case}-{name}-n{n}")
    for invariant in ("momentum", "free-bound") for case, name in _GROUPS
    for n in _sweep_ns(name)
    if _sweep_known_broken(invariant, case, name, n)])
def test_dispersion_known_violation(invariant, case, name, n):
    assert _sweep_keeps(invariant, case, name, n)
