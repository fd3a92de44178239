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
contribute nothing to residuals or derivatives.

Residual and Jacobian work on the coupled pairs i < j of the stacked
roots x = (k, lambda, mu), listed once per populations by
``_pair_table``: one arctan for Theta and one Theta'_n(x) = -2a / (a*a
+ x*x) per pair, at a = parameter * c with a*a and -2a from one
per-spec cache (``_constants``). The transpose (j, i) of every term is
present too, with parameter mirror * parameter, mirror = +-1. Theta is
odd in x and in its parameter and Theta' is even in x, so the mirror
entries are exactly -mirror * Theta and mirror * Theta' of the pair.
Both entries go into a full D x D matrix, 0 where a term is absent and
on the diagonal, whose rows are summed: the same sums, bit for bit, as
computing every entry on its own. The constant terms 2 pi I etc. come
from ``_rhs``.

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
member's bits: a stacked solve, matrix product, last-axis sum or arctan
gives what the one-member call gives. The Newton step solves the dense
D x D system, except where the equations have no kk and no mm term
(ffb, fbf) and D >= ``_SCHUR_MIN_D`` = 48: there the k and mu roots
couple only to lambda, and the step eliminates their diagonal block and
solves the M x M Schur complement on lambda (see ``_steps``). The choice
depends on the spec alone, so a member of a stack still gets the bits
that :func:`solve` gives it alone.
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
# overflowing ratio saturates Theta and zeroes Theta', inf - inf on a
# diverging iterate gives a NaN that fails the line search, and at the
# strong-coupling seed of c below about 1e-162 (root spacing of order c)
# (x_i - x_j)**2 + (p*c)**2 underflows to 0, so Theta' is -inf and the
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


def _validate_stack(spec: MixtureSpec,
                    qns: Sequence[QuantumNumberConfig]) -> None:
    """:func:`validate` of every configuration of a stack, as one array
    pass over their quantum numbers; on a failure :func:`validate` of each
    in turn raises the error of the first bad one."""
    sizes = (spec.n, spec.m, spec.mp)
    if all((len(qn.two_i), len(qn.two_j), len(qn.two_jp)) == sizes
           for qn in qns):
        two = np.array([(*qn.two_i, *qn.two_j, *qn.two_jp) for qn in qns])
        family = np.repeat(np.arange(3), sizes)
        parity = np.array(required_parities(spec))[family]
        same = family[1:] == family[:-1]
        if (two.dtype.kind == "i" and (two % 2 == parity).all()
                and (two[:, 1:] > two[:, :-1])[:, same].all()):
            return
    for qn in qns:
        validate(spec, qn)


@functools.lru_cache(maxsize=8)
def _pair_table(case: str, n: int, m: int,
                mp: int) -> tuple[np.ndarray, ...]:
    """Read-only (i, j, par, mirror, ij, ji, outer, diag) of the coupled
    pairs i < j of the stacked roots x = (k, lambda, mu).

    par is the ``_COUPLINGS`` parameter of Theta_par(x_i - x_j) in row
    i's equation. Every term's transpose is present too, with parameter
    mirror*par (mirror = +-1): its Theta' is mirror times that of (i, j),
    since Theta' is even in x, and its Theta is -mirror times, since
    Theta is odd in x and in its parameter. ij and ji index the entries
    (i, j) and (j, i) of a row-major D x D matrix. outer indexes the k
    and mu roots in x, and diag their diagonal entries of that matrix
    (the blocks that :func:`_steps` eliminates).
    """
    cpl = _COUPLINGS[case]
    block = np.array([[cpl.get(a + b) for b in "klm"] for a in "klm"],
                     dtype=float)
    assert np.array_equal(np.abs(block), np.abs(block.T), equal_nan=True)
    family = np.repeat(np.arange(3), (n, m, mp))
    d = family.size
    i, j = np.triu_indices(d, 1)
    par = block[family[i], family[j]]
    keep = ~np.isnan(par)
    i, j, par = i[keep], j[keep], par[keep]
    mirror = block[family[j], family[i]] / par
    outer = np.r_[0:n, n + m:d]
    table = (i, j, par, mirror, i * d + j, j * d + i, outer, outer * (d + 1))
    for arr in table:
        arr.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def _constants(spec: MixtureSpec) -> tuple[np.ndarray, ...]:
    """Read-only (i, j, ij, ji, a, a*a, -2a, -mirror, mirror) of a spec:
    the pairs of :func:`_pair_table`, the constants of Theta and Theta' at
    a = par*c and the signs of their mirror entries, shared by every stack
    of the spec."""
    i, j, par, mirror, ij, ji, _, _ = _pair_table(spec.case, spec.n,
                                                  spec.m, spec.mp)
    a = par * spec.c
    consts = (a, a * a, -2.0 * a, -mirror)
    for arr in consts:
        arr.setflags(write=False)
    return (i, j, ij, ji) + consts + (mirror,)


def _rhs(qns: Sequence[QuantumNumberConfig]) -> np.ndarray:
    """The constant terms pi*(-2I, 2J, 2J') of each configuration, (B, D)."""
    return np.pi * np.array([[-v for v in qn.two_i] + list(qn.two_j)
                             + list(qn.two_jp) for qn in qns], dtype=float)


def _pair_matrix(terms: np.ndarray, sign: np.ndarray, ij: np.ndarray,
                 ji: np.ndarray, d: int) -> np.ndarray:
    """The (A, D, D) matrices with each member's pair terms at ij, sign
    times them at ji and 0 elsewhere (absent terms and the diagonal);
    ``terms`` is overwritten."""
    out = np.zeros((len(terms), d * d))
    out[:, ij] = terms
    terms *= sign
    out[:, ji] = terms
    return out.reshape(len(terms), d, d)


def _residual(spec: MixtureSpec, rhs: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    i, j, ij, ji, a, _, _, sign, _ = _constants(spec)
    theta = x[:, i] - x[:, j]
    theta /= a
    np.arctan(theta, out=theta)
    theta *= -2.0
    r = rhs.copy()
    r[:, :spec.n] += x[:, :spec.n] * spec.L
    return r - _pair_matrix(theta, sign, ij, ji, x.shape[-1]).sum(axis=-1)


def _jacobian(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    i, j, ij, ji, _, aa, neg2a, _, sign = _constants(spec)
    prime = x[:, i] - x[:, j]
    prime *= prime
    prime += aa
    np.divide(neg2a, prime, out=prime)
    jac = _pair_matrix(prime, sign, ij, ji, x.shape[-1])
    diag = -jac.sum(axis=-1)
    diag[:, :spec.n] += spec.L
    jac.reshape(len(x), -1)[:, ::x.shape[-1] + 1] = diag
    return jac


def residual(spec: MixtureSpec, qn: QuantumNumberConfig | np.ndarray,
             roots: RootSet | np.ndarray) -> np.ndarray:
    """Residuals (F, G, H) of the logarithmic equations, over x.

    One configuration (``qn`` a QuantumNumberConfig, ``roots`` a RootSet)
    gives shape (D,), D = N + M + M'. :func:`_newton` passes a stack
    instead, ``qn`` the (A, D) constant terms of A members (see
    :func:`_rhs`) and ``roots`` their (A, D) root vectors, and gets
    (A, D); it holds the float-error state for its whole run.
    """
    if not isinstance(roots, RootSet):
        return _residual(spec, qn, roots)
    with np.errstate(**_QUIET):
        return _residual(spec, _rhs([qn]), _stack(roots)[None])[0]


def jacobian(spec: MixtureSpec, qn: QuantumNumberConfig | np.ndarray,
             roots: RootSet | np.ndarray) -> np.ndarray:
    """Analytic Jacobian of :func:`residual` w.r.t. (k, lambda, mu).

    Off-diagonal entries are +Theta' of the corresponding pair; each
    diagonal entry carries the box term (k rows only) minus the sum of
    its row's Theta' couplings. Self-pair terms vanish exactly
    (the l = j summand is the constant Theta(0)), so an isolated free
    particle has Jacobian [L]. The quantum numbers enter only the
    constant terms, so ``qn`` is ignored. Shape (D, D) for one
    configuration, (A, D, D) for a stack, as in :func:`residual`.
    """
    if not isinstance(roots, RootSet):
        return _jacobian(spec, roots)
    with np.errstate(**_QUIET):
        return _jacobian(spec, _stack(roots)[None])[0]


def default_initial_guess(spec: MixtureSpec,
                          qn: QuantumNumberConfig) -> RootSet:
    """Strong-coupling seed: k from the asymptotic lattice, auxiliaries
    spread uniformly across the interior of the k window."""
    denom = spec.L * (1.0 + 2.0 * spec.n / (spec.c * spec.L))
    k0 = np.pi * np.asarray(qn.two_i, dtype=float) / denom
    lo, hi = k0.min(), k0.max()
    return RootSet(k=k0, lam=np.linspace(lo, hi, spec.m + 2)[1:-1],
                   mu=np.linspace(lo, hi, spec.mp + 2)[1:-1])


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


def _solve(a: np.ndarray, b: np.ndarray
           ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Solutions of a stack of systems a x = b, each b a column, and the
    mask of singular members (None when there is none).

    One stacked solve; only when some member is singular, which fails the
    whole stack, is each member solved alone, with the same bits.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        singular = np.zeros(len(b), dtype=bool)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


#: Smallest D = N + M + M' from which the Newton steps of ffb and fbf
#: solve the Schur complement (see :func:`_steps`). Per step on a 2-core
#: machine, dense against Schur: one member 12 against 46 us at D = 7, 62
#: against 65 us at D = 60 and 230 against 101 us at D = 114; five members
#: 179 against 100 us at D = 48; thirty 1546 against 561 us at D = 60. The
#: crossover lies near D = 60 for one member and D = 30 for five, so from
#: 48 on the stacked sweeps gain and a lone solve loses little.
_SCHUR_MIN_D = 48


def _steps(spec: MixtureSpec, jac: np.ndarray, r: np.ndarray
           ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Newton steps -J^-1 r of a stack, and the mask of singular members
    (None when there is none).

    Where the equations have no kk and no mm term (ffb, fbf), the k and
    mu roots couple only to lambda, so their block of J is a diagonal d.
    From D = ``_SCHUR_MIN_D`` on, the step then solves the M x M Schur
    complement S = J_ll - J_lo d^-1 J_ol on lambda and back-substitutes
    (block elimination; Golub and Van Loan, Matrix Computations, sec.
    3.2). A zero in d is a zero row of J (the terms of a k or mu row share
    one sign), so that member is singular. The path depends on the spec
    alone, never on the stack, so a member keeps the bits of its own run.
    """
    cpl = _COUPLINGS[spec.case]
    if cpl["kk"] or cpl["mm"] or r.shape[1] < _SCHUR_MIN_D:
        return _solve(jac, -r)
    *_, outer, diag = _pair_table(spec.case, spec.n, spec.m, spec.mp)
    lam = slice(spec.n, spec.n + spec.m)
    d = jac.reshape(len(r), -1)[:, diag]
    j_ol = jac[:, outer, lam]
    j_lo = jac[:, lam][:, :, outer] / d[:, None, :]
    r_o = r[:, outer]
    s_lam, singular = _solve(jac[:, lam, lam] - j_lo @ j_ol,
                             (j_lo @ r_o[:, :, None])[:, :, 0] - r[:, lam])
    steps = np.empty_like(r)
    steps[:, lam] = s_lam
    steps[:, outer] = -(r_o + (j_ol @ s_lam[:, :, None])[:, :, 0]) / d
    if not d.all():
        zero = ~d.all(axis=1)
        singular = zero if singular is None else singular | zero
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
    rhs = _rhs(qns)
    chunk = max(1, _STACK_DOUBLES // x0.shape[1] ** 2)
    results = []
    with np.errstate(**_QUIET):
        for lo in range(0, len(qns), chunk):
            results += _lockstep(spec, rhs[lo:lo + chunk], x0[lo:lo + chunk])
    return results


def _lockstep(spec: MixtureSpec, rhs: np.ndarray,
              x0: np.ndarray) -> list[np.ndarray | NonConvergence]:
    """The Newton iteration of :func:`_newton` on one chunk of members.

    The active members are the rows of one table: their ids, constant
    terms, iterates, residuals and best residual max-norms.
    """
    results: list[np.ndarray | NonConvergence] = [None] * len(x0)
    ids = np.arange(len(x0))
    x = x0.copy()
    r = residual(spec, rhs, x)
    rmax = np.abs(r).max(axis=1)
    best = rmax.copy()

    def leave(mask, message=None):
        """Record the members in ``mask`` as converged (no message) or
        failed, and drop their rows from the table."""
        nonlocal ids, rhs, x, r, best
        if not mask.any():
            return
        for i, xi, b in zip(ids[mask], x[mask], best[mask]):
            results[i] = (xi if message is None
                          else NonConvergence(message, float(b)))
        keep = ~mask
        ids, rhs, x, r, best = (ids[keep], rhs[keep], x[keep], r[keep],
                                best[keep])

    for _ in range(_MAX_STEPS):
        leave(rmax < _TOL)
        if not ids.size:
            return results
        step, singular = _steps(spec, jacobian(spec, rhs, x), r)
        if singular is not None:
            leave(singular, "singular Jacobian")
            step = step[~singular]
            if not ids.size:
                return results
        norm0 = _norms(r)
        x_old, x = x, x + step
        r = residual(spec, rhs, x)
        leave(_backtrack(spec, rhs, x_old, step, norm0, x, r),
              "line search stalled")
        rmax = np.abs(r).max(axis=1)
        # min(best, rmax) member by member: a NaN residual keeps best
        best = np.where(rmax < best, rmax, best)
    leave(rmax < _TOL)
    leave(np.ones(ids.size, dtype=bool), "Newton budget exhausted")
    return results


def _backtrack(spec: MixtureSpec, rhs: np.ndarray, x: np.ndarray,
               step: np.ndarray, norm0: np.ndarray, x_new: np.ndarray,
               r_new: np.ndarray) -> np.ndarray:
    """Halve the steps of the members whose full step (to ``x_new``, with
    residuals ``r_new``) did not bring the residual 2-norm below
    ``norm0``, until it does.

    They have all failed the same trials, so they share one step length.
    Accepted iterates are written into ``x_new`` and ``r_new``. Returns
    the mask of the members that stalled.
    """
    pending = np.flatnonzero(~(_norms(r_new) < norm0))
    stalled = np.zeros(len(x_new), dtype=bool)
    t = 1.0
    while pending.size and t > 0.5 ** _MAX_HALVINGS:
        t *= 0.5
        x_try = x[pending] + t * step[pending]
        r_try = residual(spec, rhs[pending], x_try)
        ok = _norms(r_try) < norm0[pending]
        x_new[pending[ok]] = x_try[ok]
        r_new[pending[ok]] = r_try[ok]
        pending = pending[~ok]
    stalled[pending] = True
    return stalled


def _ladder(spec: MixtureSpec, qns: Sequence[QuantumNumberConfig]
            ) -> list[Optional[np.ndarray]]:
    """Downward continuation in the coupling, as one stack per stage.

    Re-solves at coupling 100 from the strong-coupling seed, then steps
    down by factors of 0.8 to ``spec.c``, re-using each member's roots
    between stages (for c >= 100 the ladder is the single stage
    100 -> c). It steps only while the factor still lowers the coupling,
    which it stops doing at 1e-323, two ulps above the smallest
    subnormal. Returns, per configuration, its roots at ``spec.c``, or
    None when it failed a stage.
    """
    c_path = [100.0]
    while spec.c < c_path[-1] * 0.8 < c_path[-1]:
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
    if not qns:
        return []
    _validate_stack(spec, qns)
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
    done = [i for i, res in enumerate(results)
            if not isinstance(res, NonConvergence)]
    if done:
        finalized = _finalize(spec, np.array([results[i] for i in done]))
        for i, res in zip(done, finalized):
            results[i] = res
    return results


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
    :func:`_finalize`); it does not start a ladder. Deterministic;
    families are returned ascending (a no-op for configurations with
    ordered quantum numbers, by root monotonicity). This is
    :func:`solve_many` of one configuration.
    """
    (result,) = solve_many(spec, [qn], [init])
    if isinstance(result, NonConvergence):
        raise result
    return result


def _finalize(spec: MixtureSpec,
              x: np.ndarray) -> list[RootSet | NonConvergence]:
    """Sorted roots of each converged iterate of a stack (B, D), or a
    NonConvergence where a root escaped to infinity.

    The residual of a scattering phase flattens once its argument is
    many orders of magnitude beyond c, so Newton can satisfy the
    tolerance with an auxiliary root at ~1e10*c. Such configurations
    are not regular solutions (their energy duplicates a state of a
    smaller auxiliary sector); genuine roots stay within a few orders
    of magnitude of max(1, c).
    """
    worst = np.abs(x).max(axis=1)
    n, m = spec.n, spec.m
    k, lam, mu = (np.sort(x[:, :n]), np.sort(x[:, n:n + m]),
                  np.sort(x[:, n + m:]))
    return [NonConvergence(f"root escaped to {w:.3e} (non-regular "
                           "solution)", 0.0) if w > 1e5 * (1.0 + spec.c)
            else RootSet(k=k[b], lam=lam[b], mu=mu[b])
            for b, w in enumerate(worst.tolist())]


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
