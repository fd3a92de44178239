"""Thermodynamic-limit solver vs an independent discretization.

The oracle below re-solves the root-density equation with composite-
trapezoid quadrature and plain fixed-point (Picard) iteration — no code
or discretization shared with the package's Gauss-Legendre/Nystroem
path. Closed-form limits: impenetrable (rho = 1/(2 pi), k_F = pi n,
E/L = pi^2 n^3 / 3) and the weak-coupling expansion
E/L = c n^2 (1 - 4 sqrt(gamma) / (3 pi)), gamma = c/n^2.
Frozen decimals are solver regressions at the stated inputs.
"""
import warnings

import numpy as np
import pytest

from bfmix import thermo
from bfmix.bae import NonConvergence, Reason
from bfmix.thermo import (DensityProfile, fermion_dressed_energy,
                          hole_energy, kernel, solve_ground_density)

_EPS = np.finfo(float).eps


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


def test_kernel_peak_survives_underflowing_width():
    # (mc/2)^2 underflows to 0 at c = 1e-200; the peak 1/(pi mc/2) does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peak = float(kernel(2.0, 0.0, 1e-200))
    assert peak == pytest.approx(1.0 / (np.pi * 1e-200), rel=1e-15)


@pytest.mark.parametrize("m", [1.0, 2.0])
@pytest.mark.parametrize("c", [1e-3, 1.0, 10.0, 1e5])
def test_kernel_matches_textbook_form(m, c):
    half = 0.5 * m * c
    x = np.concatenate((np.linspace(-50.0, 50.0, 1001) * half, [0.0, 3e3]))
    textbook = (half / np.pi) / (half * half + x * x)
    np.testing.assert_allclose(kernel(m, x, c), textbook, rtol=4 * _EPS,
                               atol=0)


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
    # (abs=0: approx's default absolute floor of 1e-12 would hide k_F)
    base = prof_c1
    for s, rel in ((2.0, 1e-7), (1e-6, 1e-9), (1e-9, 1e-9)):
        scaled = solve_ground_density(s, s)
        assert scaled.k_f == pytest.approx(s * base.k_f, rel=rel, abs=0)
        assert scaled.energy_density == pytest.approx(
            s ** 3 * base.energy_density, rel=rel, abs=0)
        assert scaled.density == pytest.approx(s, rel=rel, abs=0)


def test_tiny_density_fills_impenetrable_edge():
    # k_F << c: the kernel term vanishes, rho = 1/(2 pi) and k_F = pi n
    n = 1e-300
    prof = solve_ground_density(n, 1.0)
    assert prof.k_f == pytest.approx(np.pi * n, rel=1e-9, abs=0)
    assert prof.density == pytest.approx(n, rel=1e-9, abs=0)


def test_kf_search_probe_budget(monkeypatch):
    # two node levels; the second starts from the first level's k_F, and
    # each level's last probe is its profile, not solved again at the root
    probes = []
    nystroem = thermo._nystroem

    def counted(*args):
        probes.append(args)
        return nystroem(*args)

    monkeypatch.setattr(thermo, "_nystroem", counted)
    prof = solve_ground_density(1.0, 10.0)
    assert prof.nodes == 400
    assert len(probes) <= 8
    assert probes[-1] == (prof.k_f, 10.0, 400)


@pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 1e5])
def test_kf_slope_is_four_pi_edge_density_squared(c, monkeypatch):
    # dn/dk_F = 2 rho(k_F) Z(k_F) with the dressed charge Z = 2 pi rho is
    # the slope of the Newton search: its first step from just above the
    # root, excess / slope, must match a central difference of the rule's
    # sum there
    nystroem = thermo._nystroem
    x0 = solve_ground_density(1.0, c).k_f * (1.0 + 1e-4)

    def filled(x):
        _, wk, rho, _ = nystroem(x, c, 400)
        return float(wk @ rho)

    probes = []

    def recorded(k_f, c, nodes):
        probes.append(k_f)
        return nystroem(k_f, c, nodes)

    monkeypatch.setattr(thermo, "_nystroem", recorded)
    thermo._bisect_kf(1.0, c, 400, x0)
    assert probes[0] == x0
    h = 1e-6 * x0
    slope = (filled(x0 + h) - filled(x0 - h)) / (2.0 * h)
    assert (filled(x0) - 1.0) / (x0 - probes[1]) == pytest.approx(
        slope, rel=1e-8, abs=0)


def test_kf_search_probe_cap(monkeypatch):
    # at 200 nodes and weak coupling the interpolant slope is far off
    # (30 % to over 16x); the search bisects whenever a Newton step is
    # not at most half the one before, so at every coupling it ends
    # within about two probes per halving of the bracket down to _KF_TOL
    probes = []
    nystroem = thermo._nystroem

    def counted(*args):
        probes.append(args)
        if len(probes) > 1000:
            raise RuntimeError("k_F search does not terminate")
        return nystroem(*args)

    monkeypatch.setattr(thermo, "_nystroem", counted)
    for c in np.logspace(-5, 2, 36):
        probes.clear()
        thermo._bisect_kf(1.0, c, 200)
        assert len(probes) <= 2.0 * np.log2(1.0 / thermo._KF_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 101, 400, 1600])
def test_gauss_legendre_rule(n):
    x, w = thermo._gauss_legendre(n)
    assert x.size == w.size == n
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exact for every polynomial of degree <= 2n - 1; the odd ones vanish
    # by the symmetry above
    j = np.arange(n)
    moments = (x[None, :] ** (2 * j[:, None])) @ w
    np.testing.assert_allclose(moments, 2.0 / (2 * j + 1), rtol=1e-12,
                               atol=0)
    # numpy's eigenvalue rule as an independent check of the nodes. Near
    # x = 0 both rules are accurate in absolute, not relative, terms, so
    # the ulp is that of the interval's end, 1. (numpy's weights miss the
    # moments above by 3.3e-10 at n = 1600, so they are not compared.)
    reference, _ = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - reference).max() <= 2 * np.spacing(1.0)


@pytest.mark.parametrize("nodes", [7, 200])
@pytest.mark.parametrize("c", [1e-3, 1.0, 10.0])
def test_folded_nystroem_matches_full_system(nodes, c):
    # the unfolded Nystroem system on all nodes as the oracle
    k_f = thermo._kf_bracket(1.0, c)
    x, w = thermo._gauss_legendre(nodes)
    k_full, wk_full = k_f * x, k_f * w
    a_full = (np.eye(nodes)
              - kernel(2.0, k_full[:, None] - k_full[None, :], c) * wk_full)
    rho_full = np.linalg.solve(a_full, np.full(nodes, 1.0 / (2.0 * np.pi)))
    k, wk, rho, _ = thermo._nystroem(k_f, c, nodes)
    assert k.size == (nodes + 1) // 2 and np.all(k >= 0.0)
    assert np.array_equal(k, k_full[nodes // 2:])
    np.testing.assert_allclose(rho, rho_full[nodes // 2:], rtol=1e-12,
                               atol=0)
    assert float(wk @ rho) == pytest.approx(float(wk_full @ rho_full),
                                            rel=1e-12, abs=0)


def test_gauss_legendre_rule_is_cached_read_only():
    x, w = thermo._gauss_legendre(200)
    assert thermo._gauss_legendre(200)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 10.0, 1e5])
def test_kf_matches_plain_bisection(c):
    prof = solve_ground_density(1.0, c)

    def filled(k_f):
        _, wk, rho, _ = thermo._nystroem(k_f, c, prof.nodes)
        return float(wk @ rho)

    lo, hi = 0.0, np.pi  # rho >= 1/(2 pi), so the integral at pi reaches 1
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if filled(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert prof.k_f == pytest.approx(0.5 * (lo + hi), rel=1e-11)


def test_kf_search_on_under_resolved_level():
    # at c = 1e-3 the 200-node level is too coarse for the kernel, so the
    # slope 4 pi rho^2 is off by about 30 % and Newton leans on its
    # bracket; it still finds the level's own root from the bracket top
    c, nodes = 1e-3, 200
    k_f, bracketed, _ = thermo._bisect_kf(1.0, c, nodes)
    assert bracketed

    def filled(x):
        _, wk, rho, _ = thermo._nystroem(x, c, nodes)
        return float(wk @ rho)

    lo, hi = 0.0, thermo._kf_bracket(1.0, c)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if filled(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert k_f == pytest.approx(0.5 * (lo + hi), rel=1e-11, abs=0)


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
    for bad in (1.5 * prof.k_f, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hole_energy(prof, bad)


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
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            fermion_dressed_energy(prof, bad)


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


def test_no_bracketing_level_is_reported():
    # the kernel of width c = 1e-6 is far narrower than the node spacing,
    # so the density at the top of the k_F bracket falls short at every
    # level; the failure says so instead of "did not converge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence,
                           match="no node level up to 6400 nodes "
                                 "bracketed k_F") as err:
            solve_ground_density(1.0, 1e-6)
    assert err.value.reason is Reason.BUDGET


def test_overflowing_kernel_peak_is_no_bracket(monkeypatch):
    # below c of about 1e-308 the kernel peak 1/(pi c) overflows and every
    # probe's density is NaN; a NaN excess at the bracket top is no
    # bracket, so each node level costs one probe instead of a Newton
    # search on NaN
    levels = []
    nystroem = thermo._nystroem

    def counted(k_f, c, nodes):
        levels.append(nodes)
        return nystroem(k_f, c, nodes)

    monkeypatch.setattr(thermo, "_nystroem", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence,
                           match="no node level up to 6400 nodes "
                                 "bracketed k_F"):
            solve_ground_density(1.0, 5e-324)
    assert levels == [200, 400, 800, 1600, 3200, 6400]


def test_node_budget_failure_reports_last_energy_change():
    # E/L is 8.98e-4 at 200 nodes and 9.86e-4 at 400: the failure reports
    # their relative change, not NaN, which stays for fewer than two levels
    with pytest.raises(NonConvergence) as err:
        solve_ground_density(1.0, 1e-3, initial_nodes=200, max_nodes=400)
    assert err.value.best_residual == pytest.approx(0.0894, rel=1e-3)
    assert err.value.reason is Reason.BUDGET
    with pytest.raises(NonConvergence) as err:
        solve_ground_density(1.0, 1e-3, initial_nodes=200, max_nodes=200)
    assert np.isnan(err.value.best_residual)
    assert err.value.reason is Reason.BUDGET


@pytest.mark.parametrize("density, kwargs", [
    (1.0, {"initial_nodes": 0}), (1.0, {"initial_nodes": -1}),
    (1e300, {}),  # pi^2 n^3 / 3, the largest energy density, overflows
], ids=["nodes-0", "nodes-negative", "density-1e300"])
def test_bad_arguments_fail_before_any_probe(monkeypatch, density, kwargs):
    monkeypatch.setattr(thermo, "_nystroem",
                        lambda *a: pytest.fail("probed before validating"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            solve_ground_density(density, 1.0, **kwargs)


def test_dressed_energy_far_tail_is_zero_without_warning(prof_c1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e200, -1e200):
            assert fermion_dressed_energy(prof_c1, lam) == 0.0


def test_profile_records_node_count():
    # an odd count (101, the first level) probes with a node at k = 0,
    # which has no mirror in the fold; doubling makes the accepted count
    # even
    for initial_nodes in (100, 101):
        prof = solve_ground_density(1.0, 1.0, initial_nodes=initial_nodes)
        assert isinstance(prof, DensityProfile)
        assert prof.nodes == prof.grid.size
        assert prof.weights.size == prof.values.size == prof.nodes
        assert prof.backflow_weights.size == prof.nodes
        assert np.array_equal(prof.grid, -prof.grid[::-1])
        for even in (prof.weights, prof.values, prof.backflow_weights):
            assert np.array_equal(even, even[::-1])
        assert float(prof.weights @ prof.values) == pytest.approx(
            prof.density, rel=1e-12)
