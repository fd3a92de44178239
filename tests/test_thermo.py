"""Thermodynamic-limit solver vs an independent discretization.

The oracle below re-solves the root-density equation with composite-
trapezoid quadrature and plain fixed-point (Picard) iteration — no code
or discretization shared with the package's Gauss-Legendre/Nystroem
path. Closed-form limits: impenetrable (rho = 1/(2 pi), k_F = pi n,
E/L = pi^2 n^3 / 3) and the weak-coupling expansion
E/L = c n^2 (1 - 4 sqrt(gamma) / (3 pi)), gamma = c/n^2.
Frozen decimals are solver regressions at the stated inputs.
"""
import numpy as np
import pytest

from bfmix.bae import NonConvergence
from bfmix.thermo import (DensityProfile, fermion_dressed_energy,
                          hole_energy, kernel, solve_ground_density)


@pytest.fixture(scope="module")
def prof_c1():
    return solve_ground_density(1.0, 1.0)


@pytest.fixture(scope="module")
def prof_strong():
    return solve_ground_density(1.0, 1e5)


@pytest.fixture(scope="module")
def prof_weak():
    return solve_ground_density(1.0, 1e-3)


def _picard_oracle(k_f: float, c: float, points: int = 4001
                   ) -> tuple[float, float]:
    """(integrated density, energy density) at fixed k_F, trapezoid grid."""
    k = np.linspace(-k_f, k_f, points)
    w = np.full(points, k[1] - k[0])
    w[0] = w[-1] = 0.5 * (k[1] - k[0])
    rho = np.full(points, 1.0 / (2.0 * np.pi))
    kern = kernel(2.0, k[:, None] - k[None, :], c)
    for _ in range(10_000):
        new = 1.0 / (2.0 * np.pi) + kern @ (w * rho)
        if np.abs(new - rho).max() < 1e-13:
            rho = new
            break
        rho = new
    return float(w @ rho), float(w @ (k * k * rho))


def test_kernel_is_normalized_lorentzian():
    # integral of K_m over [-X, X] is (2/pi) arctan(X / (mc/2))
    x = np.linspace(-8000.0, 8000.0, 2_000_001)
    val = kernel(2.0, x, 1.3)
    exact = (2.0 / np.pi) * np.arctan(8000.0 / 1.3)
    assert float(np.trapezoid(val, x)) == pytest.approx(exact, abs=1e-8)
    assert float(kernel(1.0, 0.0, 2.0)) == pytest.approx(1.0 / np.pi)


@pytest.mark.parametrize("c", [0.5, 1.0, 10.0])
def test_profile_matches_picard_trapezoid_oracle(c):
    prof = solve_ground_density(1.0, c)
    n_oracle, e_oracle = _picard_oracle(prof.k_f, c)
    assert prof.density == pytest.approx(n_oracle, rel=2e-6)
    assert prof.energy_density == pytest.approx(e_oracle, rel=2e-6)
    assert n_oracle == pytest.approx(1.0, rel=2e-6)


def test_frozen_profile_values(prof_c1, prof_weak, prof_strong):
    assert prof_c1.k_f == pytest.approx(1.4318773896014336, rel=1e-9)
    assert prof_c1.energy_density == pytest.approx(0.6391512852717911,
                                                   rel=1e-9)
    assert prof_c1.nodes == 400
    assert prof_weak.k_f == pytest.approx(0.06212142843354918, rel=1e-8)
    assert prof_weak.energy_density == pytest.approx(0.000986644171870413,
                                                     rel=1e-8)
    assert prof_strong.k_f == pytest.approx(3.141529822992617, rel=1e-9)
    assert prof_strong.energy_density == pytest.approx(3.289736542916386,
                                                       rel=1e-9)


def test_impenetrable_limit(prof_strong):
    n = 1.0
    prof = prof_strong
    assert prof.k_f == pytest.approx(np.pi * n, rel=1e-4)
    assert prof.energy_density == pytest.approx(np.pi ** 2 * n ** 3 / 3.0,
                                                rel=1e-4)
    assert np.abs(prof.values - 1.0 / (2.0 * np.pi)).max() < 1e-4


def test_weak_coupling_expansion(prof_weak):
    n, c = 1.0, 1e-3
    gamma = c / n ** 2
    prof = prof_weak
    asymptote = c * n ** 2 * (1.0 - 4.0 * np.sqrt(gamma) / (3.0 * np.pi))
    assert prof.energy_density == pytest.approx(asymptote, rel=1e-3)
    # semicircle scale of the root support
    assert prof.k_f == pytest.approx(2.0 * np.sqrt(c * n), rel=0.05)


def test_scaling_law(prof_c1):
    # k -> s k maps (n, c) -> (s n, s c): k_F scales by s, E/L by s^3
    base = prof_c1
    scaled = solve_ground_density(2.0, 2.0)
    assert scaled.k_f == pytest.approx(2.0 * base.k_f, rel=1e-7)
    assert scaled.energy_density == pytest.approx(
        8.0 * base.energy_density, rel=1e-7)


def test_profile_symmetry_and_positivity(prof_c1):
    prof = prof_c1
    assert np.allclose(prof.values, prof.values[::-1], atol=1e-12)
    assert np.all(prof.values >= 1.0 / (2.0 * np.pi) - 1e-12)
    assert prof.density == pytest.approx(1.0, rel=1e-9)


def test_self_convergence_under_doubling(prof_c1):
    prof = prof_c1
    finer = solve_ground_density(1.0, 1.0, initial_nodes=2 * prof.nodes)
    assert finer.energy_density == pytest.approx(prof.energy_density,
                                                 rel=1e-7)


def test_hole_energy_properties(prof_c1):
    prof = prof_c1
    ks = np.linspace(-prof.k_f, prof.k_f, 17)
    vals = np.array([hole_energy(prof, float(k)) for k in ks])
    assert np.all(vals <= 1e-12)                       # removal never gains
    assert np.allclose(vals, vals[::-1], atol=1e-10)   # even in k_bar
    # deepest at the Fermi edge, shallowest at the zone center
    assert vals.min() == pytest.approx(hole_energy(prof, prof.k_f))
    assert hole_energy(prof, 0.0) == pytest.approx(-0.7467632869479902,
                                                   rel=1e-9)
    assert hole_energy(prof, prof.k_f) == pytest.approx(
        -2.6429201411565195, rel=1e-9)
    with pytest.raises(ValueError):
        hole_energy(prof, 1.5 * prof.k_f)


def test_hole_energy_impenetrable_is_quadratic(prof_strong):
    prof = prof_strong
    for frac in (0.3, 0.7, 1.0):
        k_bar = frac * prof.k_f
        assert hole_energy(prof, k_bar) == pytest.approx(
            -k_bar ** 2, rel=1e-3)


def test_fermion_dressed_energy_properties(prof_c1):
    prof = prof_c1
    assert fermion_dressed_energy(prof, 0.0) == pytest.approx(
        -0.8396176157383589, rel=1e-9)
    assert fermion_dressed_energy(prof, 2.0 * prof.k_f) == pytest.approx(
        -0.10731433664972004, rel=1e-9)
    # even, negative, and decaying at large auxiliary rapidity
    lam = 0.7 * prof.k_f
    assert fermion_dressed_energy(prof, lam) == pytest.approx(
        fermion_dressed_energy(prof, -lam), rel=1e-10)
    assert fermion_dressed_energy(prof, 0.0) < 0
    far = fermion_dressed_energy(prof, 50.0 * prof.k_f)
    assert -0.01 < far < 0


def test_input_validation_and_budget():
    with pytest.raises(ValueError):
        solve_ground_density(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_ground_density(1.0, -1.0)
    for density, c in ((float("nan"), 1.0), (1.0, float("nan")),
                       (1.0, float("inf")), (float("inf"), 1.0)):
        with pytest.raises(ValueError):
            solve_ground_density(density, c)
    with pytest.raises(NonConvergence):
        solve_ground_density(1.0, 1e-3, initial_nodes=200, max_nodes=100)


def test_profile_records_node_count():
    prof = solve_ground_density(1.0, 1.0, initial_nodes=100)
    assert isinstance(prof, DensityProfile)
    assert prof.nodes == prof.grid.size
    assert prof.weights.size == prof.nodes
