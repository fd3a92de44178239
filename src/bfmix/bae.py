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
stored *doubled* (2I etc.) as exact ints. Every per-ordering rule (the
parity of each family, the bounds on the auxiliary quantum numbers, the
signs of the total momentum and the population map) is derived from
``_COUPLINGS`` and ``algebra.GRADINGS``, the ordering's two tables; see
:func:`required_parities`.

Solving uses damped Newton iteration with an analytic Jacobian and, when
the direct attempt fails, downward continuation in the coupling from the
well-conditioned regime around c = 100, where the asymptotic-lattice
seed is nearly exact. The iteration runs in lockstep over a stack of
configurations of one spec (:func:`solve_many`; :func:`solve` is a stack
of one), each member with its own line search, so stacking changes no
member's bits: a stacked solve, last-axis sum or arctan gives what the
one-member call gives. Pair terms are computed only where present.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import CASES, GRADINGS

_TOL = 1e-10
_MAX_STEPS = 200
_MAX_HALVINGS = 30

# Float errors of the Newton iterates, each with a harmless limit: an
# overflowing ratio saturates theta and zeroes theta_prime, inf - inf on a
# diverging iterate gives a NaN that fails the line search, and at the
# strong-coupling seed of c below about 1e-162 (root spacing of order c)
# (x_i - x_j)**2 + (p*c)**2 underflows to 0, so theta_prime is -inf and the
# line search rejects the NaN step before the coupling ladder takes over.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


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
        """(bosons, spin-up, spin-down) of the levels' (N-M, M-M', M'):
        the bosons sit at grading 0, the fermions follow in level order."""
        levels = (self.n - self.m, self.m - self.mp, self.mp)
        b = GRADINGS[self.case].index(0)
        return (levels[b],) + levels[:b] + levels[b + 1:]

    @classmethod
    def from_populations(cls, case: str, pops: tuple[int, int, int],
                         L: float, c: float) -> "MixtureSpec":
        """The spec whose :meth:`populations` are (N_B, N_up, N_down)."""
        if case not in CASES:
            raise InvalidConfig(f"unknown case {case!r}")
        if min(pops) < 0:
            raise InvalidConfig(f"populations (N_B, N_up, N_down) must be "
                                f"non-negative, got {pops}")
        b = GRADINGS[case].index(0)
        p0, p1, p2 = pops[1:b + 1] + pops[:1] + pops[b + 1:]
        return cls(case, p0 + p1 + p2, p1 + p2, p2, L, c)

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

# Sign of each ``_COUPLINGS`` parameter, 0 where the term is absent.
_SIGNS = {case: {k: (p > 0) - (p < 0) if p else 0 for k, p in cpl.items()}
          for case, cpl in _COUPLINGS.items()}


def _theta_into(out: np.ndarray, a, where) -> np.ndarray:
    """out <- -2*arctan(out / a) where ``where``; elsewhere out is kept."""
    np.divide(out, a, out=out, where=where)
    np.arctan(out, out=out, where=where)
    return np.multiply(out, -2.0, out=out, where=where)


def _theta_prime_into(out: np.ndarray, aa, neg2a, where) -> np.ndarray:
    """out <- -2a / (a*a + out*out) where ``where``, given a*a and -2a."""
    np.multiply(out, out, out=out, where=where)
    np.add(out, aa, out=out, where=where)
    return np.divide(neg2a, out, out=out, where=where)


def _broadcast_copy(x, a) -> np.ndarray:
    out = np.empty(np.broadcast(x, a).shape)
    out[...] = x
    return out


def theta(n_par: float, x, c: float):
    """Scattering phase Theta_n(x) = -2*arctan(x/(n*c)); odd in x.

    Saturating and harmless for arbitrarily large |x| (diverging Newton
    iterates pass through its kernel), so float warnings are suppressed:
    an overflowing ratio gives arctan(+-inf) = +-pi/2, the exact limit.
    """
    a = n_par * c
    with np.errstate(over="ignore", invalid="ignore"):
        return _theta_into(_broadcast_copy(x, a), a, True)[()]


def theta_prime(n_par: float, x, c: float):
    """d/dx Theta_n(x) = -2*n*c / ((n*c)**2 + x**2)."""
    a = n_par * c
    # x*x may overflow to inf on diverging iterates; the limit 0 is the
    # correct derivative there, so the overflow warning is suppressed.
    with np.errstate(over="ignore"):
        return _theta_prime_into(_broadcast_copy(x, a), a * a, -2.0 * a,
                                 True)[()]


def _level_sums(spec: MixtureSpec) -> tuple[int, int, int]:
    """Signed term counts (s_k, s_lambda, s_mu) of the three equations:
    each pairwise term adds the sign of its ``_COUPLINGS`` parameter (0
    where absent), the self-pair left out."""
    s = _SIGNS[spec.case]
    n, m, mp = spec.n, spec.m, spec.mp
    return ((n - 1) * s["kk"] + m * s["kl"],
            n * s["lk"] + (m - 1) * s["ll"] + mp * s["lm"],
            m * s["ml"] + (mp - 1) * s["mm"])


def required_parities(spec: MixtureSpec) -> tuple[int, int, int]:
    """Required parity (value mod 2) of the doubled quantum numbers.

    0 means integer-valued, 1 half-odd-valued. Each factor (x - ia)/(x + ia)
    = -exp(2i arctan(x/a)) of the exponential form adds pi to level l's
    logarithmic equation, and so does a grading sign: the family is
    half-odd when s_l (:func:`_level_sums`) + eps_(l-1) + eps_l is odd,
    eps being ``GRADINGS`` with eps_(-1) = 0. Lattice exact diagonalisation
    disagrees at bff (N, M, M') = (2, 1, 0) and ffb (4, 2, 2): ROADMAP 1.
    """
    s_k, s_lam, s_mu = _level_sums(spec)
    e0, e1, e2 = GRADINGS[spec.case]
    return (s_k + e0) % 2, (s_lam + e0 + e1) % 2, (s_mu + e1 + e2) % 2


def auxiliary_bounds(spec: MixtureSpec) -> tuple[int, int]:
    """Doubled bounds (B_lambda, B_mu) on the auxiliary quantum numbers.

    Sending one lambda (or mu) to +-infinity with the other roots finite
    turns each phase Theta_p of its equation into -+pi*sign(p), so a
    finite real root needs |2J| < |s_lambda| (|2J'| < |s_mu|), with the
    counts of :func:`_level_sums`: (N-M', M-M'+1) for bff, (N-M', M) for
    fbf, (N-M+1+M', M) for ffb. This is the Yang-Gaudin J_max (Takahashi,
    Thermodynamics of One-Dimensional Solvable Models, CUP 1999, ch. 4, 7).
    """
    _, s_lam, s_mu = _level_sums(spec)
    return abs(s_lam), abs(s_mu)


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


@dataclass(frozen=True)
class _Equations:
    """The equations of a stack of configurations of one spec.

    Everything but the roots, built once per Newton run: the mask
    ``present`` of :func:`_coupling_table`, a = par*c with a*a and -2a
    (the constants of theta and theta_prime), and one row of constant
    terms pi*(-2I, 2J, 2J') per member in ``rhs``.
    """

    present: np.ndarray
    a: np.ndarray
    aa: np.ndarray
    neg2a: np.ndarray
    rhs: np.ndarray

    @classmethod
    def build(cls, spec: MixtureSpec,
              qns: Sequence[QuantumNumberConfig]) -> "_Equations":
        par, present = _coupling_table(spec.case, spec.n, spec.m, spec.mp)
        a = par * spec.c
        rhs = np.pi * np.array([[-v for v in qn.two_i] + list(qn.two_j)
                                + list(qn.two_jp) for qn in qns],
                               dtype=float)
        return cls(present, a, a * a, -2.0 * a, rhs)

    def take(self, rows) -> "_Equations":
        """The equations of the members ``rows`` (a mask, indices or a
        slice)."""
        return _Equations(self.present, self.a, self.aa, self.neg2a,
                          self.rhs[rows])


def _pair_diffs(present: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_i - x_j of each member's roots where present, else exactly 0.

    The pair terms are computed from these only where present, so absent
    pairs stay 0 when a diverging iterate makes a phase inf or NaN.
    """
    out = np.zeros(x.shape + x.shape[-1:])
    return np.subtract(x[:, :, None], x[:, None, :], out=out, where=present)


def _residual(spec: MixtureSpec, eqs: _Equations,
              x: np.ndarray) -> np.ndarray:
    terms = _theta_into(_pair_diffs(eqs.present, x), eqs.a, eqs.present)
    r = eqs.rhs.copy()
    r[:, :spec.n] += x[:, :spec.n] * spec.L
    return r - terms.sum(axis=-1)


def _jacobian(spec: MixtureSpec, eqs: _Equations,
              x: np.ndarray) -> np.ndarray:
    jac = _theta_prime_into(_pair_diffs(eqs.present, x), eqs.aa, eqs.neg2a,
                            eqs.present)
    diag = -jac.sum(axis=-1)
    diag[:, :spec.n] += spec.L
    jac.reshape(len(x), -1)[:, ::x.shape[-1] + 1] = diag
    return jac


def residual(spec: MixtureSpec, qn: QuantumNumberConfig | _Equations,
             roots: RootSet | np.ndarray) -> np.ndarray:
    """Residuals (F, G, H) of the logarithmic equations, over x.

    One configuration (``qn`` a QuantumNumberConfig, ``roots`` a RootSet)
    gives shape (D,), D = N + M + M'. :func:`_newton` passes a stack
    instead, ``qn`` the :class:`_Equations` of A members and ``roots``
    their (A, D) root vectors, and gets (A, D); it holds the float-error
    state for its whole run.
    """
    if isinstance(qn, QuantumNumberConfig):
        with np.errstate(**_QUIET):
            return _residual(spec, _Equations.build(spec, [qn]),
                             _stack(roots)[None])[0]
    return _residual(spec, qn, roots)


def jacobian(spec: MixtureSpec, qn: QuantumNumberConfig | _Equations,
             roots: RootSet | np.ndarray) -> np.ndarray:
    """Analytic Jacobian of :func:`residual` w.r.t. (k, lambda, mu).

    Off-diagonal entries are +theta_prime of the corresponding pair;
    each diagonal entry carries the box term (k rows only) minus the sum
    of its row's theta_prime couplings. Self-pair terms vanish exactly
    (the l = j summand is the constant Theta(0)), so an isolated free
    particle has Jacobian [L]. Shape (D, D) for one configuration,
    (A, D, D) for a stack, as in :func:`residual`.
    """
    if isinstance(qn, QuantumNumberConfig):
        with np.errstate(**_QUIET):
            return _jacobian(spec, _Equations.build(spec, [qn]),
                             _stack(roots)[None])[0]
    return _jacobian(spec, qn, roots)


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


def _norms(r: np.ndarray) -> np.ndarray:
    """Residual 2-norm of each row, bit for bit np.linalg.norm of it (a
    dot product per row). On runaway iterates it overflows to inf, which
    fails the line search's descent test as it should."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def _steps(jac: np.ndarray, r: np.ndarray
           ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Newton steps -J^-1 r of a stack, and the mask of singular members
    (None when there is none).

    One stacked solve; only when some member is singular, which fails the
    whole stack, is each member solved alone, with the same bits.
    """
    try:
        return np.linalg.solve(jac, -r[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        steps = np.empty_like(r)
        singular = np.zeros(len(r), dtype=bool)
        for i in range(len(r)):
            try:
                steps[i] = np.linalg.solve(jac[i], -r[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return steps, singular


#: Doubles in one stacked (A, D, D) temporary of :func:`_newton`. A longer
#: stack runs in chunks of members, so memory at large D stays near that
#: of one member.
_STACK_DOUBLES = 2 ** 17


def _newton(spec: MixtureSpec, qns: Sequence[QuantumNumberConfig],
            x0: np.ndarray) -> list[np.ndarray | NonConvergence]:
    """Damped Newton with backtracking on the residual 2-norm, in lockstep
    over a stack of configurations of one spec.

    ``x0`` holds one seed per configuration, shape (B, D). Returns, per
    member, its converged root vector or the NonConvergence that stopped
    it. Each member keeps its own line search, step length and best
    residual, so its arithmetic is that of a run of its own. The float
    errors of ``_QUIET`` are harmless and suppressed once for the run.
    """
    eqs = _Equations.build(spec, qns)
    chunk = max(1, _STACK_DOUBLES // x0.shape[1] ** 2)
    results = []
    with np.errstate(**_QUIET):
        for lo in range(0, len(qns), chunk):
            rows = slice(lo, lo + chunk)
            results += _lockstep(spec, eqs.take(rows), x0[rows])
    return results


def _lockstep(spec: MixtureSpec, eqs: _Equations,
              x0: np.ndarray) -> list[np.ndarray | NonConvergence]:
    """The Newton iteration of :func:`_newton` on one chunk of members."""
    results: list[np.ndarray | NonConvergence] = [None] * len(x0)
    ids = np.arange(len(x0))  # the member of each active row
    x = x0.copy()
    r = residual(spec, eqs, x)
    rmax = np.abs(r).max(axis=1)
    best = rmax.copy()

    def leave(mask, message=None):
        """Record the members in ``mask`` as converged (no message) or
        failed; return the mask of the members that stay."""
        for i, xi, b in zip(ids[mask], x[mask], best[mask]):
            results[i] = (xi if message is None
                          else NonConvergence(message, float(b)))
        return ~mask

    for _ in range(_MAX_STEPS):
        done = rmax < _TOL
        if done.any():
            keep = leave(done)
            ids, x, r, best = ids[keep], x[keep], r[keep], best[keep]
            eqs = eqs.take(keep)
            if not ids.size:
                return results
        step, singular = _steps(jacobian(spec, eqs, x), r)
        if singular is not None:
            keep = leave(singular, "singular Jacobian")
            ids, x, r, best = ids[keep], x[keep], r[keep], best[keep]
            eqs, step = eqs.take(keep), step[keep]
            if not ids.size:
                return results
        norm0 = _norms(r)
        x_new = x + step
        r_new = residual(spec, eqs, x_new)
        pending = np.flatnonzero(~(_norms(r_new) < norm0))
        if pending.size:
            stalled = _backtrack(spec, eqs, x, step, norm0, pending,
                                 x_new, r_new)
            if stalled.any():
                keep = leave(stalled, "line search stalled")
                ids, best, eqs = ids[keep], best[keep], eqs.take(keep)
                x_new, r_new = x_new[keep], r_new[keep]
                if not ids.size:
                    return results
        x, r = x_new, r_new
        rmax = np.abs(r).max(axis=1)
        # min(best, rmax) member by member: a NaN residual keeps best
        best = np.where(rmax < best, rmax, best)
    done = rmax < _TOL
    leave(done)
    leave(~done, "Newton budget exhausted")
    return results


def _backtrack(spec: MixtureSpec, eqs: _Equations, x: np.ndarray,
               step: np.ndarray, norm0: np.ndarray, pending: np.ndarray,
               x_new: np.ndarray, r_new: np.ndarray) -> np.ndarray:
    """Halve the steps of the members ``pending``, whose full step did not
    bring the residual 2-norm below ``norm0``, until it does.

    They have all failed the same trials, so they share one step length.
    Accepted iterates are written into ``x_new`` and ``r_new``. Returns
    the mask of the members that stalled.
    """
    x, step, norm0 = x[pending], step[pending], norm0[pending]
    eqs = eqs.take(pending)
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        t *= 0.5
        x_try = x + t * step
        r_try = residual(spec, eqs, x_try)
        ok = _norms(r_try) < norm0
        if ok.any():
            x_new[pending[ok]] = x_try[ok]
            r_new[pending[ok]] = r_try[ok]
            keep = ~ok
            pending, x, step, norm0 = (pending[keep], x[keep], step[keep],
                                       norm0[keep])
            eqs = eqs.take(keep)
            if not pending.size:
                break
    stalled = np.zeros(len(x_new), dtype=bool)
    stalled[pending] = True
    return stalled


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


def _ladder(spec: MixtureSpec, qns: Sequence[QuantumNumberConfig]
            ) -> list[Optional[np.ndarray]]:
    """Downward continuation in the coupling, as one stack per stage.

    Re-solves at coupling 100 from the strong-coupling seed, then steps
    down by factors of 0.8 to ``spec.c``, re-using each member's roots
    between stages (for c >= 100 the ladder is the single stage
    100 -> c). Returns, per configuration, its roots at ``spec.c``, or
    None when it failed a stage.
    """
    c_path = [100.0]
    while c_path[-1] * 0.8 > spec.c:
        c_path.append(c_path[-1] * 0.8)
    c_path.append(spec.c)
    roots = {i: _stack(default_initial_guess(spec.replace_c(c_path[0]), qn))
             for i, qn in enumerate(qns)}
    for c_k in c_path:
        alive = list(roots)
        stage = _newton(spec.replace_c(c_k), [qns[i] for i in alive],
                        np.array([roots[i] for i in alive]))
        roots = {i: res for i, res in zip(alive, stage)
                 if not isinstance(res, NonConvergence)}
        if not roots:
            break
    return [roots.get(i) for i in range(len(qns))]


def solve_many(spec: MixtureSpec, qns: Sequence[QuantumNumberConfig],
               inits: Sequence[Optional[RootSet]]
               ) -> list[RootSet | NonConvergence]:
    """Solve B configurations of one spec, each exactly as :func:`solve`.

    ``inits`` holds one seed per configuration (None: the strong-coupling
    seed). The direct attempts run as one stack of :func:`_newton`; the
    members that fail go down the coupling ladder together, one stack per
    stage. Returns, per configuration, its RootSet or the NonConvergence
    that :func:`solve` raises for it. Invalid configurations raise
    InvalidConfig before any solve.
    """
    for qn in qns:
        validate(spec, qn)
    if not qns:
        return []
    x0 = np.array([_stack(init if init is not None
                          else default_initial_guess(spec, qn))
                   for qn, init in zip(qns, inits, strict=True)])
    results = _newton(spec, qns, x0)
    failed = [i for i, res in enumerate(results)
              if isinstance(res, NonConvergence)]
    if failed:
        laddered = _ladder(spec, [qns[i] for i in failed])
        for i, x in zip(failed, laddered):
            if x is not None:
                results[i] = x
    return [res if isinstance(res, NonConvergence) else _finalize(spec, res)
            for res in results]


def solve(spec: MixtureSpec, qn: QuantumNumberConfig,
          init: Optional[RootSet] = None) -> RootSet:
    """Solve the equations to residual max-norm < 1e-10.

    Tries a direct damped-Newton run from ``init`` (or the strong-
    coupling seed); on failure, re-solves at coupling 100 (where the
    seed is nearly exact) and continues downward in c by factors of 0.8
    to the requested value, re-using roots between stages (see
    :func:`_ladder`); if that fails too, the direct run's error is
    raised. Whichever run converged, an iterate with a root escaped far
    beyond the physical scale is rejected as non-regular (see
    :func:`_reject_runaway`); it does not start a ladder. Deterministic;
    families are returned ascending (a no-op for configurations with
    ordered quantum numbers, by root monotonicity). This is
    :func:`solve_many` of one configuration.
    """
    (result,) = solve_many(spec, [qn], [init])
    if isinstance(result, NonConvergence):
        raise result
    return result


def _finalize(spec: MixtureSpec, x: np.ndarray) -> RootSet | NonConvergence:
    """Sorted roots of a converged iterate, or the NonConvergence of
    :func:`_reject_runaway`."""
    try:
        _reject_runaway(spec, x)
    except NonConvergence as err:
        return err
    r = _split(spec, x)
    return RootSet(k=np.sort(r.k), lam=np.sort(r.lam), mu=np.sort(r.mu))


def energy_momentum(spec: MixtureSpec, qn: QuantumNumberConfig,
                    roots: RootSet) -> Observables:
    """E = sum k_j^2; P = sum k_j = (2 pi/L)(sum I + s_J sum J + s_J' sum J').

    Summing the equations turns each cross sum into -+ the partner's 2 pi J
    sum: s_J = -sigma(kl) sigma(lk), s_J' = s_J sigma(lm) sigma(ml).
    """
    e = float(np.dot(roots.k, roots.k))
    s = _SIGNS[spec.case]
    sj = -s["kl"] * s["lk"]
    sjp = sj * s["lm"] * s["ml"]
    doubled = sum(qn.two_i) + sj * sum(qn.two_j) + sjp * sum(qn.two_jp)
    p = 2.0 * np.pi / spec.L * (doubled / 2.0)
    return Observables(E=e, P=p)
