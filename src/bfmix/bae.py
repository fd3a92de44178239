"""Logarithmic Bethe-ansatz equations of the 1D Bose-Fermi mixture.

A system of N particles (bosons and two fermion species, all with
repulsive contact interaction of strength c > 0 on a ring of length L)
is described, for each reference ordering ("bff", "fbf", "ffb"), by
coupled transcendental equations for three families of rapidities:
charge roots k_1..k_N, and auxiliary roots lambda_1..lambda_M and
mu_1..mu_M'. With Theta_n(x) = -2*arctan(x/(n*c)) the residuals are

  F_j = k_j L - 2 pi I_j - sum_l Theta_a(k_j - k_l) - sum_g Theta_b(k_j - lambda_g)
  G_g = 2 pi J_g - sum_l Theta_c(lambda_g - k_l) - sum_h Theta_d(lambda_g - lambda_h)
        - sum_s Theta_e(lambda_g - mu_s)
  H_s = 2 pi J'_s - sum_g Theta_f(mu_s - lambda_g) - sum_t Theta_h(mu_s - mu_t)

where the half-integer parameters (a..h) of each sum depend on the
ordering (see ``_COUPLINGS``; absent terms have parameter None). The
self-referential summands (l = j etc.) are Theta(0) = 0 identically and
contribute nothing to residuals or derivatives. Residual and Jacobian
read one table of these parameters over the stacked roots
x = (k, lambda, mu) (see ``_coupling_table``).

Quantum numbers I, J, J' are integers or half-odd integers; they are
stored *doubled* (2I etc.) as exact ints. Whether a family is integer-
or half-odd-valued follows from the sign factors of the exponential form
of the equations and is case- and population-dependent; see
:func:`required_parities`.

Solving uses damped Newton iteration with an analytic Jacobian and, when
the direct attempt fails, continuation in the coupling (downward or
upward) from the well-conditioned regime around c = 100, where the
asymptotic-lattice seed is nearly exact.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import CASES

_TOL = 1e-10
_MAX_STEPS = 200
_MAX_HALVINGS = 30


class InvalidConfig(ValueError):
    """Raised for structurally invalid specs or quantum-number configs."""


class NonConvergence(RuntimeError):
    """Raised when the Newton/continuation schedule fails to converge."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class MixtureSpec:
    """Problem instance: ordering, populations, box length, coupling."""

    case: str
    n: int
    m: int
    mp: int
    L: float
    c: float

    def __post_init__(self) -> None:
        if self.case not in CASES:
            raise InvalidConfig(f"unknown case {self.case!r}")
        if not (0 <= self.mp <= self.m <= self.n):
            raise InvalidConfig(
                f"populations must satisfy 0 <= M' <= M <= N, got "
                f"N={self.n}, M={self.m}, M'={self.mp}")
        if self.n < 1:
            raise InvalidConfig("need at least one particle")
        if not (np.isfinite(self.L) and np.isfinite(self.c)):
            raise InvalidConfig("box length and coupling must be finite")
        if self.L <= 0:
            raise InvalidConfig("box length must be positive")
        if self.c <= 0:
            raise InvalidConfig("coupling must be positive (repulsive)")

    def populations(self) -> tuple[int, int, int]:
        """(bosons, spin-up fermions, spin-down fermions)."""
        a, b, d = self.n - self.m, self.m - self.mp, self.mp
        if self.case == "bff":
            return a, b, d
        if self.case == "fbf":
            return b, a, d
        return d, a, b  # ffb

    def replace_c(self, c: float) -> "MixtureSpec":
        return MixtureSpec(self.case, self.n, self.m, self.mp, self.L, c)


@dataclass(frozen=True)
class QuantumNumberConfig:
    """Quantum numbers stored doubled (2I, 2J, 2J') as exact ints."""

    two_i: tuple[int, ...]
    two_j: tuple[int, ...] = ()
    two_jp: tuple[int, ...] = ()


@dataclass(frozen=True)
class RootSet:
    """Solved rapidities, each family ascending."""

    k: np.ndarray
    lam: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class Observables:
    E: float
    P: float


# Theta parameters of each pairwise sum, per case. Keys: kk, kl (charge
# equation), lk, ll, lm (lambda equation), ml, mm (mu equation). None
# means the term is absent from that case's equations.
_COUPLINGS = {
    "bff": {"kk": 1.0, "kl": -0.5, "lk": -0.5, "ll": None, "lm": 0.5,
            "ml": -0.5, "mm": 1.0},
    "fbf": {"kk": None, "kl": 0.5, "lk": -0.5, "ll": None, "lm": 0.5,
            "ml": -0.5, "mm": None},
    "ffb": {"kk": None, "kl": 0.5, "lk": -0.5, "ll": 1.0, "lm": -0.5,
            "ml": -0.5, "mm": None},
}


def theta(n_par: float, x, c: float):
    """Scattering phase Theta_n(x) = -2*arctan(x/(n*c)); odd in x.

    Saturating and harmless for arbitrarily large |x| (diverging Newton
    iterates pass through here), so float warnings are suppressed: an
    overflowing ratio gives arctan(+-inf) = +-pi/2, the exact limit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return -2.0 * np.arctan(np.asarray(x, dtype=float) / (n_par * c))


def theta_prime(n_par: float, x, c: float):
    """d/dx Theta_n(x) = -2*n*c / ((n*c)**2 + x**2)."""
    a = n_par * c
    x = np.asarray(x, dtype=float)
    # x*x may overflow to inf on diverging iterates; the limit 0 is the
    # correct derivative there, so the overflow warning is suppressed.
    with np.errstate(over="ignore"):
        return -2.0 * a / (a * a + x * x)


def required_parities(spec: MixtureSpec) -> tuple[int, int, int]:
    """Required parity (value mod 2) of the doubled quantum numbers.

    0 means the family is integer-valued, 1 half-odd-valued. The rules
    follow from counting the (-1) factors that each scattering term
    contributes to the exponential form of the equations; they are fixed
    by requiring e.g. that a single free particle can carry k = 0.
    """
    n, m, mp = spec.n, spec.m, spec.mp
    if spec.case == "bff":
        return (n + m + 1) % 2, (n + mp + 1) % 2, (m + mp + 1) % 2
    if spec.case == "fbf":
        return (m + 1) % 2, (n + mp + 1) % 2, (m + 1) % 2
    return (m + 1) % 2, (n + m + mp + 1) % 2, (m + 1) % 2  # ffb


def auxiliary_bounds(spec: MixtureSpec) -> tuple[int, int]:
    """Doubled bounds (B_lambda, B_mu) on the auxiliary quantum numbers.

    Sending one lambda (or mu) to +-infinity with the other roots finite
    turns each phase Theta_p of its equation into -+pi*sign(p), so its
    counting function is bounded and a finite real root needs
    |2J| < B_lambda (|2J'| < B_mu), with sigma = sign of the
    ``_COUPLINGS`` parameter (0 where absent):

      B_lambda = |N sigma(lk) + (M-1) sigma(ll) + M' sigma(lm)|
      B_mu     = |M sigma(ml) + (M'-1) sigma(mm)|

    i.e. (N-M', M-M'+1) for bff, (N-M', M) for fbf, (N-M+1+M', M) for
    ffb. This is the Yang-Gaudin J_max (Takahashi, Thermodynamics of
    One-Dimensional Solvable Models, CUP 1999, ch. 4 and 7).
    """
    cpl = _COUPLINGS[spec.case]

    def sigma(key: str) -> int:
        return 0 if cpl[key] is None else int(np.sign(cpl[key]))

    b_lam = abs(spec.n * sigma("lk") + (spec.m - 1) * sigma("ll")
                + spec.mp * sigma("lm"))
    b_mu = abs(spec.m * sigma("ml") + (spec.mp - 1) * sigma("mm"))
    return b_lam, b_mu


def _check_list(name: str, values: Sequence[int], count: int, parity: int) -> None:
    if len(values) != count:
        raise InvalidConfig(f"{name} must have {count} entries, got {len(values)}")
    for v in values:
        if not isinstance(v, (int, np.integer)):
            raise InvalidConfig(f"{name} entries must be ints (doubled), got {v!r}")
        if v % 2 != parity:
            want = "integers" if parity == 0 else "half-odd integers"
            raise InvalidConfig(f"{name} must be {want} for this population")
    if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
        raise InvalidConfig(f"{name} must be strictly increasing")


def validate(spec: MixtureSpec, qn: QuantumNumberConfig) -> None:
    """Check sizes, strict ordering, and parity of a configuration."""
    pi_, pj, pjp = required_parities(spec)
    _check_list("2I", qn.two_i, spec.n, pi_)
    _check_list("2J", qn.two_j, spec.m, pj)
    _check_list("2J'", qn.two_jp, spec.mp, pjp)


@functools.lru_cache(maxsize=8)
def _coupling_table(case: str, n: int, m: int,
                    mp: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (par, present) over the stacked roots x = (k, lambda, mu).

    par[i, j] is the ``_COUPLINGS`` parameter of the pair (1.0 where
    absent); present[i, j] says whether Theta_par(x_i - x_j) enters row
    i's equation, false for absent terms and on the diagonal.
    """
    cpl = _COUPLINGS[case]
    family = np.repeat(np.arange(3), (n, m, mp))
    par = np.array([[cpl.get(a + b) for b in "klm"] for a in "klm"],
                   dtype=float)[family[:, None], family[None, :]]
    present = ~np.isnan(par) & ~np.eye(family.size, dtype=bool)
    par = np.where(present, par, 1.0)
    par.setflags(write=False)
    present.setflags(write=False)
    return par, present


def _pair_terms(phase, spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """phase(par, x_i - x_j, c) where present, else exactly 0.

    The mask, not a zero scale, removes absent pairs, so they stay 0
    when a diverging iterate makes the phase inf or NaN.
    """
    par, present = _coupling_table(spec.case, spec.n, spec.m, spec.mp)
    with np.errstate(invalid="ignore"):  # inf - inf on diverging iterates
        diff = x[:, None] - x[None, :]
    return np.where(present, phase(par, diff, spec.c), 0.0)


def residual(spec: MixtureSpec, qn: QuantumNumberConfig,
             roots: RootSet) -> np.ndarray:
    """Stacked residuals (F, G, H) of the logarithmic equations."""
    x = _stack(roots)
    r = np.pi * np.array([-v for v in qn.two_i] + list(qn.two_j)
                         + list(qn.two_jp), dtype=float)
    r[:spec.n] += x[:spec.n] * spec.L
    return r - _pair_terms(theta, spec, x).sum(axis=1)


def jacobian(spec: MixtureSpec, qn: QuantumNumberConfig,
             roots: RootSet) -> np.ndarray:
    """Analytic Jacobian of :func:`residual` w.r.t. (k, lambda, mu).

    Off-diagonal entries are +theta_prime of the corresponding pair;
    each diagonal entry carries the box term (k rows only) minus the sum
    of its row's theta_prime couplings. Self-pair terms vanish exactly
    (the l = j summand is the constant Theta(0)), so an isolated free
    particle has Jacobian [L].
    """
    jac = _pair_terms(theta_prime, spec, _stack(roots))
    diag = -jac.sum(axis=1)
    diag[:spec.n] += spec.L
    np.fill_diagonal(jac, diag)
    return jac


def default_initial_guess(spec: MixtureSpec,
                          qn: QuantumNumberConfig) -> RootSet:
    """Strong-coupling seed: k from the asymptotic lattice, auxiliaries
    spread uniformly across the interior of the k window."""
    n, m, mp = spec.n, spec.m, spec.mp
    denom = spec.L * (1.0 + 2.0 * n / (spec.c * spec.L))
    k0 = np.pi * np.asarray(qn.two_i, dtype=float) / denom
    lo = k0.min() if n else 0.0
    hi = k0.max() if n else 0.0
    lam0 = np.linspace(lo, hi, m + 2)[1:-1] if m else np.zeros(0)
    mu0 = np.linspace(lo, hi, mp + 2)[1:-1] if mp else np.zeros(0)
    return RootSet(k=k0, lam=lam0, mu=mu0)


def _stack(roots: RootSet) -> np.ndarray:
    """The stacked root vector x = (k, lambda, mu), as floats."""
    return np.concatenate([roots.k, roots.lam, roots.mu], dtype=float)


def _split(spec: MixtureSpec, x: np.ndarray) -> RootSet:
    n, m = spec.n, spec.m
    return RootSet(k=x[:n], lam=x[n:n + m], mu=x[n + m:])


def _norm(r: np.ndarray) -> float:
    """Residual 2-norm. On runaway iterates it overflows to inf, which
    fails the line search's descent test as it should, so the overflow
    warning is suppressed."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(r))


def _newton(spec: MixtureSpec, qn: QuantumNumberConfig,
            x0: np.ndarray) -> np.ndarray:
    """Damped Newton with backtracking on the residual 2-norm."""
    x = x0.copy()
    r = residual(spec, qn, _split(spec, x))
    best = float(np.abs(r).max())
    for _ in range(_MAX_STEPS):
        if np.abs(r).max() < _TOL:
            return x
        jac = jacobian(spec, qn, _split(spec, x))
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NonConvergence("singular Jacobian", best) from None
        norm0 = _norm(r)
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            x_new = x + t * step
            r_new = residual(spec, qn, _split(spec, x_new))
            if _norm(r_new) < norm0:
                break
            t *= 0.5
        else:
            raise NonConvergence("line search stalled", best)
        x, r = x_new, r_new
        best = min(best, float(np.abs(r).max()))
    if np.abs(r).max() < _TOL:
        return x
    raise NonConvergence("Newton budget exhausted", best)


def _reject_runaway(spec: MixtureSpec, x: np.ndarray) -> None:
    """Reject converged iterates whose roots escaped to infinity.

    The residual of a scattering phase flattens once its argument is
    many orders of magnitude beyond c, so Newton can satisfy the
    tolerance with an auxiliary root at ~1e10*c. Such configurations
    are not regular solutions (their energy duplicates a state of a
    smaller auxiliary sector); genuine roots stay within a few orders
    of magnitude of max(1, c).
    """
    bound = 1e5 * (1.0 + spec.c)
    worst = float(np.abs(x).max()) if x.size else 0.0
    if worst > bound:
        raise NonConvergence(
            f"root escaped to {worst:.3e} (non-regular solution)", 0.0)


def solve(spec: MixtureSpec, qn: QuantumNumberConfig,
          init: Optional[RootSet] = None) -> RootSet:
    """Solve the equations to residual max-norm < 1e-10.

    Tries a direct damped-Newton run from ``init`` (or the strong-
    coupling seed); on failure, re-solves at coupling 100 (where the
    seed is nearly exact) and continues geometrically in c to the
    requested value (factor 0.8 downward, 1.6 upward), re-using roots
    between stages. Converged iterates with a root escaped far beyond
    the physical scale are rejected as non-regular (see
    :func:`_reject_runaway`). Deterministic; families are returned
    ascending (a no-op for configurations with ordered quantum numbers,
    by root monotonicity).
    """
    validate(spec, qn)
    x0 = _stack(init if init is not None
                else default_initial_guess(spec, qn))
    try:
        x = _newton(spec, qn, x0)
        _reject_runaway(spec, x)
        return _finalize(spec, qn, x)
    except NonConvergence as exc:
        direct_error = exc
    c_path = [100.0]
    if spec.c < 100.0:
        while c_path[-1] * 0.8 > spec.c:
            c_path.append(c_path[-1] * 0.8)
    else:
        while c_path[-1] * 1.6 < spec.c:
            c_path.append(c_path[-1] * 1.6)
    c_path.append(spec.c)
    x = _stack(default_initial_guess(spec.replace_c(c_path[0]), qn))
    try:
        for c_k in c_path:
            stage = spec.replace_c(c_k)
            x = _newton(stage, qn, x)
    except NonConvergence:
        raise direct_error from None
    _reject_runaway(spec, x)
    return _finalize(spec, qn, x)


def _finalize(spec: MixtureSpec, qn: QuantumNumberConfig,
              x: np.ndarray) -> RootSet:
    r = _split(spec, x)
    return RootSet(k=np.sort(r.k), lam=np.sort(r.lam), mu=np.sort(r.mu))


# Signs of (sum I, sum J, sum J') in the total momentum, per case. They
# follow from summing the logarithmic equations over all families: each
# pairwise phase sum cancels by antisymmetry, leaving L*sum(k) equal to
# 2*pi times a signed combination of the quantum numbers whose signs
# track which equations carry the 2*pi*J term on which side. The
# identity P = sum(k) holds for every solution (tested).
_P_SIGNS = {"bff": (1, -1, 1), "fbf": (1, 1, -1), "ffb": (1, 1, 1)}


def energy_momentum(spec: MixtureSpec, qn: QuantumNumberConfig,
                    roots: RootSet) -> Observables:
    """E = sum k_j^2; P = (2 pi / L) * signed quantum-number sum = sum k_j."""
    e = float(np.dot(roots.k, roots.k))
    si, sj, sjp = _P_SIGNS[spec.case]
    doubled = (si * sum(qn.two_i) + sj * sum(qn.two_j)
               + sjp * sum(qn.two_jp))
    p = 2.0 * np.pi / spec.L * (doubled / 2.0)
    return Observables(E=e, P=p)
