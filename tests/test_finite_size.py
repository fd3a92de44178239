"""Finite-size spectrum of the Bethe equations against the continuum.

For the one gapless charge mode, conformal invariance fixes the order-1/L
terms of the bff all-boson ground state and its lowest excitation:

    E0(N, L) = L e(n) - pi v / (6 L) + o(1/L),   Delta E = 2 pi v / L,

with v the sound velocity, v^2 = 2 n e''(n) in units where H = -sum d^2
(Bloete, Cardy & Nightingale, Phys. Rev. Lett. 56, 742, 1986; Affleck,
ibid. 56, 746, 1986). e(n) comes from ``thermo`` and the energies from
``bae``, so the test ties the two solvers together at order 1/L, not only
at order 1 as acceptance 04 does. The remainders fall as 1/N^2, so each
ratio is Richardson-extrapolated from N = 48 and 96.
"""
import numpy as np
import pytest

from bfmix.bae import MixtureSpec, energy_momentum, solve
from bfmix.excitations import ground_state_numbers, particle_hole_numbers
from bfmix.thermo import solve_ground_density


def _energy(spec, qn):
    return energy_momentum(spec, qn, solve(spec, qn)).E


@pytest.mark.parametrize("c", [1.0, 10.0])
def test_casimir_energy_and_sound_velocity_gap(c):
    n, h = 1.0, 1e-3
    e = [solve_ground_density(n + s * h, c).energy_density
         for s in (-1, 0, 1)]
    v = np.sqrt(2.0 * n * (e[0] - 2.0 * e[1] + e[2]) / h ** 2)
    casimir, gap = [], []
    for N in (48, 96):
        L = N / n
        spec = MixtureSpec.from_populations("bff", (N, 0, 0), L, c)
        e0 = _energy(spec, ground_state_numbers(spec))
        # the top charge number moved one slot out: momentum 2 pi / L
        e1 = _energy(spec, particle_hole_numbers(spec, N, (N + 1) / 2))
        casimir.append((e0 - L * e[1]) * L / (-np.pi * v / 6.0))
        gap.append((e1 - e0) * L / (2.0 * np.pi * v))
    for ratio in (casimir, gap):
        assert (4.0 * ratio[1] - ratio[0]) / 3.0 == pytest.approx(
            1.0, rel=0, abs=1e-5)
