"""Root solver: residuals, Jacobian, parities, invariants, regressions.

Independent oracles: the two-boson ground state reduces to one scalar
equation solved here by bisection; small-coupling energies follow
first-order perturbation theory; the large-coupling lattice law is
closed-form. Frozen literals were produced by those oracles (or by the
solver itself, marked regression) and are pinned at 1e-9.
"""
import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfmix import bae
from bfmix.bae import (_COUPLINGS, InvalidConfig, MixtureSpec,
                       NonConvergence, QuantumNumberConfig, RootSet,
                       _finalize, default_initial_guess, energy_momentum,
                       jacobian, required_parities, residual, solve,
                       validate)
from bfmix.excitations import (_offset_runs, _parity_values,
                                ground_state_numbers, particle_hole_numbers)

ALL_CASES = ("bff", "fbf", "ffb")


def _all_boson(case: str, n: int, L: float, c: float) -> MixtureSpec:
    return MixtureSpec.from_populations(case, (n, 0, 0), L, c)


# ----------------------------------------------------- spec validation

def test_spec_rejects_bad_inputs():
    with pytest.raises(InvalidConfig):
        MixtureSpec("xxx", 2, 0, 0, 1.0, 1.0)
    with pytest.raises(InvalidConfig):
        MixtureSpec("bff", 2, 3, 0, 1.0, 1.0)   # M > N
    with pytest.raises(InvalidConfig):
        MixtureSpec("bff", 2, 1, 2, 1.0, 1.0)   # M' > M
    with pytest.raises(InvalidConfig):
        MixtureSpec("bff", 2, 0, 0, -1.0, 1.0)  # L <= 0
    with pytest.raises(InvalidConfig):
        MixtureSpec("bff", 2, 0, 0, 1.0, 0.0)   # c <= 0
    for L, c in ((float("nan"), 1.0), (1.0, float("nan")),
                 (float("inf"), 1.0), (1.0, float("inf"))):
        with pytest.raises(InvalidConfig):
            MixtureSpec("bff", 2, 0, 0, L, c)   # non-finite


def test_populations_by_ordering():
    # (bosons, up, down) for N=5, M=3, M'=1 per ordering convention
    assert MixtureSpec("bff", 5, 3, 1, 1.0, 1.0).populations() == (2, 2, 1)
    assert MixtureSpec("fbf", 5, 3, 1, 1.0, 1.0).populations() == (2, 2, 1)
    assert MixtureSpec("ffb", 5, 3, 1, 1.0, 1.0).populations() == (1, 2, 2)
    for case in ALL_CASES:
        pops = MixtureSpec(case, 5, 3, 1, 1.0, 1.0).populations()
        assert sum(pops) == 5 and all(p >= 0 for p in pops)


# The hand-written per-ordering tables that the derivations from
# ``_COUPLINGS`` and ``GRADINGS`` replaced, kept as oracles.

def _hand_parities(case, n, m, mp):
    if case == "bff":
        return (n + m + 1) % 2, (n + mp + 1) % 2, (m + mp + 1) % 2
    if case == "fbf":
        return (m + 1) % 2, (n + mp + 1) % 2, (m + 1) % 2
    return (m + 1) % 2, (n + m + mp + 1) % 2, (m + 1) % 2  # ffb


_HAND_P_SIGNS = {"bff": (1, -1, 1), "fbf": (1, 1, -1), "ffb": (1, 1, 1)}


def _hand_populations(case, n, m, mp):
    a, b, d = n - m, m - mp, mp
    if case == "bff":
        return a, b, d
    if case == "fbf":
        return b, a, d
    return d, a, b  # ffb


def _hand_bounds(case, n, m, mp):
    return {"bff": (n - mp, m - mp + 1), "fbf": (n - mp, m),
            "ffb": (n - m + 1 + mp, m)}[case]


def test_derived_rules_match_hand_tables():
    # every spec with N <= 40 in every ordering: parities, momentum signs,
    # populations (and their inverse) and auxiliary bounds are == the
    # hand-written tables
    checked = 0
    for case in ALL_CASES:
        for n in range(1, 41):
            for m in range(n + 1):
                for mp in range(m + 1):
                    spec = MixtureSpec(case, n, m, mp, 3.0, 1.0)
                    assert required_parities(spec) \
                        == _hand_parities(case, n, m, mp)
                    pops = spec.populations()
                    assert pops == _hand_populations(case, n, m, mp)
                    assert MixtureSpec.from_populations(
                        case, pops, 3.0, 1.0) == spec
                    assert bae.auxiliary_bounds(spec) \
                        == _hand_bounds(case, n, m, mp)
                    # distinct weights 1, 100, 10000 per family expose
                    # each sign of the quantum-number sums in P
                    qn = QuantumNumberConfig((1,) * n, (100,) * m,
                                             (10000,) * mp)
                    roots = RootSet(np.zeros(n), np.zeros(m), np.zeros(mp))
                    si, sj, sjp = _HAND_P_SIGNS[case]
                    doubled = si * n + sj * 100 * m + sjp * 10000 * mp
                    assert energy_momentum(spec, qn, roots).P \
                        == 2.0 * np.pi / spec.L * (doubled / 2.0)
                    checked += 1
    assert checked == 3 * sum((n + 1) * (n + 2) // 2 for n in range(1, 41))


def test_from_populations_rejects_bad_input():
    for pops in ((-1, 2, 0), (3, -1, 1), (3, 1, -2)):
        for case in ALL_CASES:
            with pytest.raises(InvalidConfig, match="non-negative"):
                MixtureSpec.from_populations(case, pops, 5.0, 1.0)
    with pytest.raises(InvalidConfig, match="unknown case"):
        MixtureSpec.from_populations("xyz", (1, 0, 0), 5.0, 1.0)
    with pytest.raises(InvalidConfig, match="at least one particle"):
        MixtureSpec.from_populations("bff", (0, 0, 0), 5.0, 1.0)


def test_validate_enforces_count_parity_order():
    spec = MixtureSpec("bff", 3, 1, 0, 3.0, 1.0)
    pi_, pj, _ = required_parities(spec)
    assert (pi_, pj) == (1, 0)  # N+M+1 odd -> half-odd I; N+M'+1 -> int J
    validate(spec, QuantumNumberConfig((-3, -1, 1), (0,), ()))
    with pytest.raises(InvalidConfig):   # wrong count
        validate(spec, QuantumNumberConfig((-1, 1), (0,), ()))
    with pytest.raises(InvalidConfig):   # wrong parity
        validate(spec, QuantumNumberConfig((-2, 0, 2), (0,), ()))
    with pytest.raises(InvalidConfig):   # not strictly increasing
        validate(spec, QuantumNumberConfig((-1, -1, 1), (0,), ()))
    with pytest.raises(InvalidConfig):   # non-int entries
        validate(spec, QuantumNumberConfig((-1.5, 0.5, 1.5), (0,), ()))


def test_solve_many_raises_the_first_invalid_configuration(monkeypatch):
    # one array pass checks a stack; a failure raises what validate says
    # of the first bad configuration, before any solve
    monkeypatch.setattr(bae, "_newton",
                        lambda *a: pytest.fail("solved before validating"))
    spec = MixtureSpec("ffb", 3, 2, 1, 3.0, 1.0)
    good = QuantumNumberConfig((-3, -1, 1), (-1, 1), (1,))
    validate(spec, good)
    bad = [QuantumNumberConfig((-3, -1), (-1, 1), (1,)),        # count
           QuantumNumberConfig((-3, -1, 1), (-1, 1), ()),       # count, J'
           QuantumNumberConfig((-3, -1, 1), (-1, 1), (0,)),     # parity
           QuantumNumberConfig((-3, 1, -1), (-1, 1), (1,)),     # order
           QuantumNumberConfig((-3, -1, 1), (1, 1), (1,)),      # order, J
           QuantumNumberConfig((-3.0, -1, 1), (-1, 1), (1,)),   # not ints
           QuantumNumberConfig((-3, -1, 1), (-1, 1.0), (1,))]
    for first, second in zip(bad, bad[1:] + bad[:1]):
        with pytest.raises(InvalidConfig) as want:
            validate(spec, first)
        with pytest.raises(InvalidConfig) as got:
            bae.solve_many(spec, [good, first, good, second], [None] * 4)
        assert str(got.value) == str(want.value)


def test_required_parities_allow_symmetric_ground_runs():
    # the all-boson ground state must always admit a symmetric run
    for case in ALL_CASES:
        for n in range(1, 9):
            spec = _all_boson(case, n, float(n), 1.0)
            qn = ground_state_numbers(spec)
            validate(spec, qn)


# ------------------------------------------------- one and two bodies

def test_single_free_particle_exact():
    for case in ALL_CASES:
        spec = _all_boson(case, 1, 2.5, 3.7)
        qn = ground_state_numbers(spec)
        roots = solve(spec, qn)
        # one particle scatters off nothing: k = 2 pi I / L exactly
        want = 2.0 * np.pi * (qn.two_i[0] / 2.0) / spec.L
        assert roots.k[0] == pytest.approx(want, abs=1e-12)


def _two_boson_oracle(L: float, c: float) -> float:
    """Bisect k L - pi + 2 arctan(2 k / c) = 0 (two bosons, k2 = -k1)."""
    def g(k):
        return k * L - math.pi + 2.0 * math.atan(2.0 * k / c)
    lo, hi = 0.0, math.pi / L
    assert g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("L,c,k_frozen", [
    (1.0, 1.0, 0.9601888739147234),
    (4.0, 2.5, 0.5711134273867737),
])
def test_two_bosons_match_bisection_oracle(L, c, k_frozen):
    k_oracle = _two_boson_oracle(L, c)
    assert k_oracle == pytest.approx(k_frozen, abs=1e-10)
    spec = MixtureSpec("bff", 2, 0, 0, L, c)
    qn = ground_state_numbers(spec)
    roots = solve(spec, qn)
    assert roots.k[1] == pytest.approx(k_oracle, abs=1e-10)
    assert roots.k[0] == pytest.approx(-k_oracle, abs=1e-10)
    obs = energy_momentum(spec, qn, roots)
    assert obs.E == pytest.approx(2.0 * k_oracle ** 2, rel=1e-10)
    assert obs.P == pytest.approx(0.0, abs=1e-12)


def test_two_boson_frozen_energy():
    spec = MixtureSpec("bff", 2, 0, 0, 1.0, 1.0)
    qn = ground_state_numbers(spec)
    obs = energy_momentum(spec, qn, solve(spec, qn))
    assert obs.E == pytest.approx(1.8439253471792492, rel=1e-11)


# ------------------------------------------------------------ residual

def _loop_residual(spec, qn, roots):
    """The module docstring's F, G, H term by term, and each row's scale.

    One sum per ``_COUPLINGS`` key; Theta_n(x) = -2 atan(x / (n c)). The
    scale of a row is the sum of the absolute values of its terms.
    """
    cpl = _COUPLINGS[spec.case]
    k, lam, mu = roots.k.tolist(), roots.lam.tolist(), roots.mu.tolist()

    def phases(key, x, others):
        if cpl[key] is None:
            return []
        return [-2.0 * math.atan((x - y) / (cpl[key] * spec.c))
                for y in others]

    rows = []
    for kj, two_i in zip(k, qn.two_i):
        rows.append(([kj * spec.L, -math.pi * two_i],
                     phases("kk", kj, k) + phases("kl", kj, lam)))
    for lg, two_j in zip(lam, qn.two_j):
        rows.append(([math.pi * two_j], phases("lk", lg, k)
                     + phases("ll", lg, lam) + phases("lm", lg, mu)))
    for ms, two_jp in zip(mu, qn.two_jp):
        rows.append(([math.pi * two_jp],
                     phases("ml", ms, lam) + phases("mm", ms, mu)))
    value = [sum(base) - sum(sums) for base, sums in rows]
    scale = [sum(map(abs, base + sums)) for base, sums in rows]
    return np.array(value), np.array(scale)


@st.composite
def _equations(draw):
    case = draw(st.sampled_from(ALL_CASES))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, n))
    mp = draw(st.integers(0, m))
    spec = MixtureSpec(case, n, m, mp, draw(st.floats(0.5, 50.0)),
                       draw(st.floats(1e-3, 1e3)))

    def family(count, values):
        return draw(st.lists(values, min_size=count, max_size=count))

    qn = QuantumNumberConfig(*(tuple(family(count, st.integers(-20, 20)))
                               for count in (n, m, mp)))
    roots = RootSet(*(np.array(family(count, st.floats(-5.0, 5.0)))
                      for count in (n, m, mp)))
    return spec, qn, roots


@settings(max_examples=60, deadline=None)
@given(_equations())
def test_residual_matches_loop_reference(equations):
    spec, qn, roots = equations
    want, scale = _loop_residual(spec, qn, roots)
    got = residual(spec, qn, roots)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


# ------------------------------------------------------------ Jacobian

def _random_config(rng) -> tuple[MixtureSpec, QuantumNumberConfig]:
    case = ALL_CASES[rng.integers(3)]
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, n + 1))
    mp = int(rng.integers(0, m + 1))
    L = float(rng.uniform(1.0, 10.0))
    c = float(10.0 ** rng.uniform(-1, 2))
    spec = MixtureSpec(case, n, m, mp, L, c)
    parities = required_parities(spec)
    families = []
    for count, parity in zip((n, m, mp), parities):
        slots = [v for v in range(-4 * n - 1, 4 * n + 2)
                 if (v % 2 + 2) % 2 == parity]
        vals = sorted(rng.choice(len(slots), size=count, replace=False))
        families.append(tuple(slots[i] for i in vals))
    return spec, QuantumNumberConfig(*families)


def _fd_jacobian(spec, qn, x: np.ndarray) -> np.ndarray:
    out = np.zeros((x.size, x.size))
    for i in range(x.size):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rp = residual(spec, qn, _as_roots(spec, xp))
        rm = residual(spec, qn, _as_roots(spec, xm))
        out[:, i] = (rp - rm) / (2.0 * h)
    return out


def _as_roots(spec, x):
    return RootSet(k=x[:spec.n], lam=x[spec.n:spec.n + spec.m],
                   mu=x[spec.n + spec.m:])


def test_jacobian_matches_finite_differences_spot():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec, qn = _random_config(rng)
        x = rng.uniform(-3, 3, size=spec.n + spec.m + spec.mp)
        ja = jacobian(spec, qn, _as_roots(spec, x))
        jf = _fd_jacobian(spec, qn, x)
        scale = max(1.0, float(np.abs(ja).max()))
        assert np.abs(ja - jf).max() / scale < 1e-6


def test_jacobian_single_particle_is_box_length():
    spec = _all_boson("bff", 1, 3.25, 1.0)
    qn = ground_state_numbers(spec)
    j = jacobian(spec, qn, RootSet(k=np.array([0.4]),
                                   lam=np.zeros(0), mu=np.zeros(0)))
    assert j.shape == (1, 1) and j[0, 0] == pytest.approx(3.25)


def _pair_parameters(spec) -> np.ndarray:
    """The ``_COUPLINGS`` parameter of every pair (i, j) of the stacked
    roots, NaN where row i's equation has no term in x_j or i == j."""
    family = np.repeat(list("klm"), (spec.n, spec.m, spec.mp))
    cpl = _COUPLINGS[spec.case]
    par = np.array([[np.nan if cpl.get(a + b) is None else cpl[a + b]
                     for b in family] for a in family], dtype=float)
    np.fill_diagonal(par, np.nan)
    return par


def _full_matrix_kernel(spec, rhs, x):
    """Residual and Jacobian of a stack from full D x D matrices of pair
    terms, each (i, j) computed on its own and 0 where absent."""
    par = _pair_parameters(spec)
    present = ~np.isnan(par)
    a = par * spec.c
    d = x[:, :, None] - x[:, None, :]
    theta = np.where(present, -2.0 * np.arctan(d / a), 0.0)
    prime = np.where(present, (-2.0 * a) / (d * d + a * a), 0.0)
    r = rhs.copy()
    r[:, :spec.n] += x[:, :spec.n] * spec.L
    diag = -prime.sum(axis=-1)
    diag[:, :spec.n] += spec.L
    for member, row in zip(prime, diag):
        np.fill_diagonal(member, row)
    return r - theta.sum(axis=-1), prime


@pytest.mark.parametrize("case", ALL_CASES)
def test_pair_kernel_matches_full_matrix_sums(case):
    # each pair is computed once and mirrored, yet every row sums the same
    # full row of terms: bit for bit, on finite, escaped, overflowing and
    # coincident roots, and at a coupling whose square underflows (Theta'
    # of coincident roots is then -inf)
    rng = np.random.default_rng(3)
    for n, m, mp, c in ((1, 0, 0, 0.7), (3, 2, 1, 0.7), (9, 6, 4, 0.7),
                        (20, 19, 18, 0.7), (3, 2, 1, 1e-170)):
        spec = MixtureSpec(case, n, m, mp, float(n), c)
        x = rng.normal(scale=2.0, size=(5, n + m + mp))
        x[1, 0], x[2, -1], x[3], x[4, 0] = np.inf, -np.inf, x[3, 0], 1e308
        rhs = rng.normal(size=x.shape)
        with np.errstate(**bae._QUIET):
            want_r, want_j = _full_matrix_kernel(spec, rhs, x)
            got_r = residual(spec, rhs, x)
            got_j = jacobian(spec, rhs, x)
        assert np.array_equal(got_r, want_r, equal_nan=True)
        assert np.array_equal(got_j, want_j, equal_nan=True)


@pytest.mark.parametrize("case", ALL_CASES)
@pytest.mark.parametrize("escaped", [np.inf, -np.inf, np.nan])
def test_absent_pairs_stay_zero_on_escaped_root(case, escaped):
    # a diverging iterate makes the phases of its coupled pairs saturate
    # or turn NaN; the pairs absent from the equations stay exactly 0,
    # and a row with no term in the escaped root stays finite
    spec = MixtureSpec(case, 4, 3, 2, 4.0, 1.0)
    absent = np.isnan(_pair_parameters(spec))
    np.fill_diagonal(absent, False)
    x0 = np.linspace(-2.0, 2.0, absent.shape[0])
    rhs = np.ones((1, x0.size))
    for p in range(x0.size):
        x = x0.copy()
        x[p] = escaped
        with np.errstate(**bae._QUIET):
            r = residual(spec, rhs, x[None])[0]
            jac = jacobian(spec, rhs, x[None])[0]
        assert np.all(jac[absent] == 0.0)
        assert np.all(np.isfinite(r[absent[:, p]]))


@pytest.mark.parametrize("case, n, c", [("ffb", 20, 0.3), ("ffb", 24, 1.0),
                                        ("fbf", 30, 0.7), ("fbf", 25, 3.0)])
def test_schur_step_matches_dense_solve(monkeypatch, case, n, c):
    # particle-hole states of the all-boson sector (D = 50 ... 72) from
    # perturbed seeds: the step on the Schur complement is the dense
    # Newton step to rounding
    spec = _all_boson(case, n, float(n), c)
    assert spec.n + spec.m + spec.mp >= bae._SCHUR_MIN_D
    qns = [particle_hole_numbers(spec, hole, (n + 1 + 2 * p) / 2.0)
           for hole in (1, n // 2, n) for p in range(4)]
    x = np.array([bae._stack(default_initial_guess(spec, qn)) for qn in qns])
    x += np.random.default_rng(5).normal(scale=0.05 * np.abs(x).max(),
                                         size=x.shape)
    rhs = bae._rhs(qns)
    solved = []
    solve_stack = bae._solve
    monkeypatch.setattr(bae, "_solve", lambda a, b: solved.append(a.shape)
                        or solve_stack(a, b))
    with np.errstate(**bae._QUIET):
        r = residual(spec, rhs, x)
        jac = jacobian(spec, rhs, x)
        step, singular = bae._steps(spec, jac, r)
        monkeypatch.setattr(bae, "_SCHUR_MIN_D", 10 ** 9)
        dense, _ = bae._steps(spec, jac, r)
    assert singular is None
    assert solved == [(len(qns), spec.m, spec.m), jac.shape]
    assert np.all(np.abs(step - dense).max(axis=1)
                  <= 1e-12 * np.abs(dense).max(axis=1))
    residue = np.linalg.norm(np.einsum("aij,aj->ai", jac, step) + r, axis=1)
    assert np.all(residue <= 8 * np.finfo(float).eps
                  * np.linalg.norm(jac, axis=(1, 2))
                  * np.linalg.norm(step, axis=1))


def test_schur_step_zero_pivot_is_singular(monkeypatch):
    # a mu root at infinity zeroes its row of J, diagonal included: the
    # Schur step marks that member singular, as the dense solve does
    spec = _all_boson("ffb", 20, 20.0, 1.0)
    x = np.array([bae._stack(default_initial_guess(
        spec, ground_state_numbers(spec)))] * 2)
    x[1, -1] = np.inf
    rhs = np.zeros_like(x)
    with np.errstate(**bae._QUIET):
        r = residual(spec, rhs, x)
        jac = jacobian(spec, rhs, x)
        _, singular = bae._steps(spec, jac, r)
        monkeypatch.setattr(bae, "_SCHUR_MIN_D", 10 ** 9)
        _, dense = bae._steps(spec, jac, r)
    assert singular.tolist() == dense.tolist() == [False, True]


# ------------------------------------------------- solver invariants

def test_momentum_equals_sum_of_charge_roots():
    # P from the quantum numbers must equal sum(k) on every solution
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 12:
        spec, qn = _random_config(rng)
        try:
            roots = solve(spec, qn)
        except NonConvergence:
            continue
        obs = energy_momentum(spec, qn, roots)
        assert obs.P == pytest.approx(float(roots.k.sum()),
                                      rel=1e-8, abs=1e-8)
        assert obs.E == pytest.approx(float((roots.k ** 2).sum()), rel=1e-12)
        checked += 1


def test_reflection_symmetry():
    # negating every quantum number mirrors the roots: same E, opposite P
    spec = MixtureSpec("ffb", 4, 3, 2, 5.0, 1.3)
    qn = QuantumNumberConfig((-2, 0, 2, 6), (-2, 0, 2), (-2, 0))
    validate(spec, qn)
    mirrored = QuantumNumberConfig(
        tuple(sorted(-v for v in qn.two_i)),
        tuple(sorted(-v for v in qn.two_j)),
        tuple(sorted(-v for v in qn.two_jp)))
    r1, r2 = solve(spec, qn), solve(spec, mirrored)
    o1 = energy_momentum(spec, qn, r1)
    o2 = energy_momentum(spec, mirrored, r2)
    assert o1.E == pytest.approx(o2.E, rel=1e-10)
    assert o1.P == pytest.approx(-o2.P, abs=1e-12)
    assert np.allclose(np.sort(-r1.k), r2.k, atol=1e-9)


def test_weak_coupling_first_order_energy():
    # N condensed bosons: E -> c * N(N-1)/L as c -> 0+
    spec0 = _all_boson("bff", 4, 1.0, 1.0)
    qn = ground_state_numbers(spec0)
    for c, tol in ((1e-4, 0.02), (1e-6, 0.002)):
        spec = spec0.replace_c(c)
        obs = energy_momentum(spec, qn, solve(spec, qn))
        assert obs.E / (c * 12.0) == pytest.approx(1.0, abs=tol)


def test_strong_coupling_lattice_law():
    # (k_{j+1} - k_j) L (1 + 2N/(cL)) = 2 pi in the impenetrable limit
    spec = _all_boson("bff", 6, 6.0, 1e6)
    qn = ground_state_numbers(spec)
    roots = solve(spec, qn)
    spacing = np.diff(roots.k) * spec.L * (1.0 + 2.0 * spec.n
                                           / (spec.c * spec.L))
    assert np.abs(spacing / (2.0 * np.pi) - 1.0).max() < 5e-4


def test_cross_ordering_all_boson_energy():
    energies = []
    for case in ALL_CASES:
        spec = _all_boson(case, 5, 3.0, 0.7)
        qn = ground_state_numbers(spec)
        energies.append(energy_momentum(spec, qn, solve(spec, qn)).E)
    assert max(energies) - min(energies) < 1e-8 * max(energies)


def test_all_boson_frozen_energy_n4():
    # regression: solver output at N=4, L=4, c=1 (same in all orderings)
    for case in ALL_CASES:
        spec = _all_boson(case, 4, 4.0, 1.0)
        qn = ground_state_numbers(spec)
        obs = energy_momentum(spec, qn, solve(spec, qn))
        assert obs.E == pytest.approx(2.3227526023297775, rel=1e-9)
        assert obs.P == pytest.approx(0.0, abs=1e-12)


def test_continuation_reaches_extreme_couplings():
    # far below and far above the seeding regime
    for c in (1e-5, 1e6):
        spec = _all_boson("bff", 3, 2.0, c)
        qn = ground_state_numbers(spec)
        roots = solve(spec, qn)
        r = residual(spec, qn, roots)
        assert np.abs(r).max() < 1e-9


def test_solution_residual_is_tiny():
    spec = MixtureSpec("ffb", 5, 3, 2, 5.0, 2.0)
    qn = QuantumNumberConfig((-4, -2, 0, 2, 6), (-1, 1, 3), (-2, 0))
    roots = solve(spec, qn)
    assert np.abs(residual(spec, qn, roots)).max() < 1e-10
    # families come back sorted
    assert np.all(np.diff(roots.k) > 0)


def test_runaway_guard_unit():
    spec = MixtureSpec("bff", 1, 1, 0, 1.0, 1.0)
    fine, escaped = _finalize(spec, np.array([[1.0, 30.0],  # physical scale
                                              [1.0, 1e12]]))
    assert isinstance(fine, RootSet) and fine.lam.tolist() == [30.0]
    assert isinstance(escaped, NonConvergence)
    assert str(escaped) == ("root escaped to 1.000e+12 (non-regular "
                            "solution) (best residual 0.000e+00)")


def test_runaway_line_search_emits_no_warning():
    # a candidate of sector_energy_table(1, 6, 6) whose line-search
    # iterates run away until the residual norm overflows; the inf norm
    # fails the descent test without a numerical warning
    spec = MixtureSpec("ffb", 6, 5, 4, 6.0, 1.0)
    qn = QuantumNumberConfig((-4, -2, 0, 2, 4, 6), (-4, -2, 0, 2, 4),
                             (0, 2, 4, 6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergence):
            solve(spec, qn)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _count_newton(monkeypatch, fail_first=False):
    """Wrap bae._newton; the list collects each call's coupling."""
    couplings = []
    newton = bae._newton

    def counted(spec, qns, x0):
        couplings.append(spec.c)
        if fail_first and len(couplings) == 1:
            return [NonConvergence("forced direct failure", 1.0)] * len(qns)
        return newton(spec, qns, x0)

    monkeypatch.setattr(bae, "_newton", counted)
    return couplings


def test_direct_runaway_starts_no_ladder(monkeypatch):
    # the direct run converges with an escaped root; that is final, not
    # the start of a ladder (which never converged to a regular root set
    # on any candidate tried)
    couplings = _count_newton(monkeypatch)
    spec = MixtureSpec("bff", 1, 1, 1, 1.0, 1.0)
    with pytest.raises(NonConvergence, match="root escaped"):
        solve(spec, QuantumNumberConfig((1,), (1,), (1,)))
    assert couplings == [1.0]


@pytest.mark.parametrize("c, ladder", [
    (1e3, [100.0, 1e3]),
    (100.0, [100.0, 100.0]),
    (60.0, [100.0, 80.0, 64.0, 60.0]),
])
def test_ladder_runs_downward_from_100(monkeypatch, c, ladder):
    # after a failed direct run the ladder starts at c = 100 and only
    # descends: above 100 it is the single stage 100 -> c
    couplings = _count_newton(monkeypatch, fail_first=True)
    spec = _all_boson("bff", 3, 2.0, c)
    qn = ground_state_numbers(spec)
    roots = solve(spec, qn)
    assert np.abs(residual(spec, qn, roots)).max() < 1e-10
    assert couplings[0] == c
    assert couplings[1:] == pytest.approx(ladder, rel=1e-15)


def test_ladder_to_smallest_subnormal_ends(monkeypatch):
    # 0.8 * 1e-323 rounds back to 1e-323, so a descent by 0.8 towards
    # 5e-324 must stop there instead of repeating that stage forever
    couplings = []

    def converged(spec, qns, x0):
        couplings.append(spec.c)
        return list(x0)

    monkeypatch.setattr(bae, "_newton", converged)
    spec = _all_boson("bff", 3, 3.0, 5e-324)
    assert bae._ladder(spec, [ground_state_numbers(spec)])[0] is not None
    assert couplings[0] == 100.0 and couplings[-2:] == [1e-323, 5e-324]
    assert all(a > b for a, b in zip(couplings, couplings[1:]))
    assert len(couplings) < 3400


def _mixed_stack(spec):
    """Every combination of near-symmetric runs (a single member sweeps
    |2I| <= 2N): a stack of configurations of which most fail."""
    def runs(count, parity):
        if count == 1:
            return [(v,) for v in _parity_values(-2 * spec.n, 2 * spec.n,
                                                 parity)]
        return _offset_runs(count, parity)

    combos = product(*(runs(count, parity) for count, parity in
                       zip((spec.n, spec.m, spec.mp),
                           required_parities(spec))))
    return [QuantumNumberConfig(*combo) for combo in combos]


def _assert_same_results(stacked, single):
    """Equal roots bit for bit, or the same error class and message."""
    assert len(stacked) == len(single)
    for a, b in zip(stacked, single):
        assert type(a) is type(b)
        if isinstance(b, NonConvergence):
            assert str(a) == str(b)
        elif isinstance(b, RootSet):
            for family in ("k", "lam", "mu"):
                assert np.array_equal(getattr(a, family), getattr(b, family))
        else:
            assert np.array_equal(a, b)


def _kind(result):
    if not isinstance(result, NonConvergence):
        return "converged"
    return str(result).split(" (")[0].split(" to ")[0]


def test_stacked_newton_matches_one_member_runs(monkeypatch):
    # each member of a stack runs the arithmetic of a run of its own, in
    # chunks shorter than the stack; the stack mixes every outcome
    spec = MixtureSpec("ffb", 2, 2, 1, 2.0, 1.0)
    qns = _mixed_stack(spec)
    x0 = np.array([bae._stack(default_initial_guess(spec, qn))
                   for qn in qns])
    monkeypatch.setattr(bae, "_STACK_DOUBLES", 5 * x0.shape[1] ** 2)
    stacked = bae._newton(spec, qns, x0)
    single = [bae._newton(spec, [qn], x[None])[0] for qn, x in zip(qns, x0)]
    _assert_same_results(stacked, single)
    assert {_kind(res) for res in stacked} == {
        "converged", "line search stalled", "singular Jacobian",
        "Newton budget exhausted"}


def test_stack_steps_as_often_as_its_slowest_member(monkeypatch):
    # members leave the stack without costing it a step or a call on an
    # empty stack: one jacobian call per step of the slowest member
    spec = MixtureSpec("ffb", 2, 2, 1, 2.0, 1.0)
    qns = _mixed_stack(spec)
    x0 = np.array([bae._stack(default_initial_guess(spec, qn))
                   for qn in qns])
    sizes = {"residual": [], "jacobian": []}
    for name, calls in sizes.items():
        def counted(spec, qn, roots, fn=getattr(bae, name), calls=calls):
            calls.append(len(roots))
            return fn(spec, qn, roots)
        monkeypatch.setattr(bae, name, counted)
    alone = []
    for qn, x in zip(qns, x0):
        sizes["jacobian"].clear()
        bae._newton(spec, [qn], x[None])
        alone.append(len(sizes["jacobian"]))
    sizes["residual"].clear()
    sizes["jacobian"].clear()
    bae._newton(spec, qns, x0)
    assert len(sizes["jacobian"]) == max(alone)
    assert min(sizes["residual"] + sizes["jacobian"]) > 0


@pytest.mark.parametrize("case, n, m, mp, c", [
    ("ffb", 3, 2, 1, 1.0),   # runaway and stalled members beside converged
    ("bff", 4, 3, 1, 0.1),   # members the coupling ladder rescues
    ("ffb", 21, 20, 19, 1.0),  # D = 60: Schur steps, singular members too
])
def test_solve_many_matches_solve_per_member(monkeypatch, case, n, m, mp,
                                             c):
    spec = MixtureSpec(case, n, m, mp, float(n), c)
    qns = _mixed_stack(spec)
    monkeypatch.setattr(bae, "_STACK_DOUBLES", 7 * (n + m + mp) ** 2)
    single = []
    for qn in qns:
        try:
            single.append(solve(spec, qn))
        except NonConvergence as err:
            single.append(err)
    stacked = bae.solve_many(spec, qns, [None] * len(qns))
    _assert_same_results(stacked, single)
    kinds = {_kind(res) for res in stacked}
    assert {"converged", "root escaped", "line search stalled"} <= kinds


def test_non_regular_configuration_rejected():
    # an auxiliary quantum number beyond its admissible range drives the
    # corresponding root to infinity; solve() must refuse, not return a
    # duplicate of a smaller sector's state
    spec = MixtureSpec("bff", 3, 1, 0, 3.0, 1.0)
    qn = QuantumNumberConfig((-3, -1, 1), (4,), ())
    validate(spec, qn)
    with pytest.raises(NonConvergence):
        solve(spec, qn)


def test_initial_guess_is_near_lattice_at_strong_coupling():
    spec = _all_boson("bff", 6, 6.0, 1e4)
    qn = ground_state_numbers(spec)
    guess = default_initial_guess(spec, qn)
    roots = solve(spec, qn)
    assert np.abs(guess.k - roots.k).max() < 1e-3


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), c=st.floats(0.1, 100.0),
       L=st.floats(1.0, 10.0))
def test_all_boson_ground_properties(n, c, L):
    spec = _all_boson("bff", n, L, c)
    qn = ground_state_numbers(spec)
    roots = solve(spec, qn)
    obs = energy_momentum(spec, qn, roots)
    assert obs.P == pytest.approx(0.0, abs=1e-10)
    assert obs.E > 0.0
    # symmetric configuration gives symmetric roots
    assert np.allclose(roots.k, -roots.k[::-1], atol=1e-8)
