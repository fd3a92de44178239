"""Thermodynamic-limit ground state and dressed excitation energies.

In the limit N, L -> infinity at fixed density n = N/L the charge roots
fill an interval [-k_F, k_F] with density rho0 solving the linear
integral equation

    rho0(k) = 1/(2 pi) + int_{-k_F}^{k_F} K2(k - k') rho0(k') dk',

with K_m(x) = (1/pi) (m c / 2) / ((m c / 2)^2 + x^2). k_F is fixed by
the density constraint int rho0 = n, and the energy per unit length is
int k^2 rho0.

Removing a charge root at |kbar| <= k_F (with backflow) changes the
energy by xi_h(kbar) <= 0; flipping a boson into a fermion with
auxiliary rapidity lambda adds the dressed energy xi_c(lambda). Both
carry a backflow energy int k^2 rho1 with (1 - K2) rho1 = f for a
source f (a kernel column at kbar or lambda). That energy is linear in
f: with the symmetric kernel it equals int z f, where (1 - K2) z = k^2
is the adjoint (dressed-energy) equation. z is solved once per profile,
so each dressed energy is one kernel evaluation and a dot product.

Discretization: Gauss-Legendre Nystroem on [-k_F, k_F], node count
doubled until the energy density is stable to the requested tolerance.
The rule is mirror-symmetric and rho0 is even, so each probe solves the
system folded onto the ceil(n/2) non-negative nodes, with the kernel
K2(k - k') + K2(k + k') and each positive node carrying its mirror's
weight; the converged profile is mirrored back onto the full grid. The
rule takes one pass of the Legendre recurrence, O(n^2) operations, and
Newton's method on the local Taylor polynomial of P_n (Glaser, Liu &
Rokhlin, 2007); it is computed once per node count and cached. At each
node count k_F is found by a safeguarded Newton search on the density
constraint, started from the previous level's k_F. Its slope comes from
the identity dn/dk_F = 2 rho(k_F) Z(k_F) = 4 pi rho(k_F)^2, with the
dressed charge Z = 2 pi rho (Korepin, Bogoliubov & Izergin, CUP 1993;
Lieb & Liniger, Phys. Rev. 130, 1605, 1963); the search's last probe is
the level's solution.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bae import NonConvergence, Reason

_KF_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_ENERGY_TOL = 1e-8


def kernel(m: float, x, c: float):
    """Lorentzian kernel K_m(x) = (1/pi) (mc/2) / ((mc/2)^2 + x^2).

    Evaluated as (1/pi) / (mc/2 + x^2 / (mc/2)), which forms no product
    of two small numbers: K_m(0) = 1/(pi mc/2) stays finite down to
    mc/2 of about 2e-309, where it leaves the float range. Where
    x^2 / (mc/2) overflows, the kernel (then below 1e-308) is returned
    as 0 without a warning.
    """
    half = 0.5 * m * c
    x = np.asarray(x)
    with np.errstate(over="ignore"):
        return (1.0 / np.pi) / (half + x * x / half)


@dataclass(eq=False)
class DensityProfile:
    """Converged ground-state root density on its quadrature grid.

    ``backflow_weights`` is w * z with (I - K2 w) z = k^2 on the grid, so
    the backflow energy of a source f is ``backflow_weights @ f``.
    """
    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    k_f: float
    energy_density: float
    density: float
    c: float
    backflow_weights: np.ndarray

    @property
    def nodes(self) -> int:
        """Quadrature node count of the converged level."""
        return self.grid.size


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) for n >= 1 and |x| < 1, by the three-term
    recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)."""
    prev, p = np.ones_like(x), x.copy()
    term = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, p, out=term)
        term *= (2 * k + 1) / (k + 1)
        prev *= -k / (k + 1)
        prev += term
        prev, p = p, prev
    return p, n * (prev - x * p) / ((1.0 - x) * (1.0 + x))


def _unfold(half: np.ndarray, nodes: int) -> np.ndarray:
    """Even function on all ``nodes`` ascending nodes from its values on
    the non-negative ones."""
    return np.concatenate((half[::-1][:nodes // 2], half))


def _horner(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coef[k] t^k, one polynomial per column of coef."""
    return functools.reduce(lambda acc, ck: acc * t + ck, coef[::-1])


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    The non-negative nodes start from Tricomi's estimates x0 = (1 -
    (n-1)/(8 n^3)) cos(pi (4i-1) / (4n+2)) (Hale & Townsend, SIAM J.
    Sci. Comput. 35, A652, 2013). One recurrence pass, O(n^2)
    operations, gives c_k = P_n^(k)(x0) / k! for k < 2, and the
    differentiated Legendre equation (k+2)(k+1)(1-x0^2) c_(k+2) =
    2 (k+1)^2 x0 c_(k+1) - (n(n+1) - k(k+1)) c_k the rest (Glaser, Liu &
    Rokhlin, SIAM J. Sci. Comput. 29, 1420, 2007). Newton's method runs
    on the degree-8 Taylor polynomial q(t) (P_n itself for n <= 8); the
    node is x0 + t, the weight 2 / ((1 - x^2) q'(t)^2) with 1 - x^2
    formed from x0 and t. The negative half is the exact mirror image:
    x == -x[::-1] and w == w[::-1]. Cached per node count (200 ... 6400
    under node doubling).
    """
    half = nodes // 2
    i = np.arange(half, 0, -1)
    x0 = (1.0 - (nodes - 1) / (8.0 * nodes ** 3)) * np.cos(
        np.pi * (4 * i - 1) / (4 * nodes + 2))
    if nodes % 2:
        x0 = np.concatenate(([0.0], x0))
    one_minus_x2 = (1.0 - x0) * (1.0 + x0)
    coef = np.empty((min(nodes, 8) + 1, x0.size))
    coef[:2] = _legendre(nodes, x0)
    for k in range(coef.shape[0] - 2):
        coef[k + 2] = ((2 * (k + 1) ** 2 * x0 * coef[k + 1]
                        - (nodes * (nodes + 1) - k * (k + 1)) * coef[k])
                       / ((k + 2) * (k + 1) * one_minus_x2))
    slope = coef[1:] * np.arange(1.0, coef.shape[0])[:, None]
    t = np.zeros_like(x0)
    for _ in range(10):
        step = _horner(coef, t) / _horner(slope, t)
        t -= step
        if np.abs(step).max() <= _EPS:
            break
    w = 2.0 / ((one_minus_x2 - t * (2.0 * x0 + t)) * _horner(slope, t) ** 2)
    x, w = _unfold(x0 + t, nodes), _unfold(w, nodes)
    x[:half] *= -1.0
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _nystroem(k_f: float, c: float, nodes: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the ground-density equation at fixed k_F and node count.

    rho is even, so the system is folded onto the ceil(n/2) non-negative
    nodes k: a = I - [K2(k_i - k_j) + K2(k_i + k_j)] wk_j / 2. wk carries
    each positive node's mirror weight (the centre node of an odd count
    has none), so ``wk @ f`` integrates an even f over [-k_F, k_F].
    Returns (k, wk, rho, a).
    """
    x, w = _gauss_legendre(nodes)
    half = nodes // 2
    k = k_f * x[half:]
    wk = k_f * w[half:]
    wk[nodes % 2:] *= 2.0
    a = (kernel(2.0, k[:, None] - k[None, :], c)
         + kernel(2.0, k[:, None] + k[None, :], c))
    a *= -0.5 * wk
    a.flat[::k.size + 1] += 1.0
    rho = np.linalg.solve(a, np.full(k.size, 1.0 / (2.0 * np.pi)))
    return k, wk, rho, a


def _kf_bracket(density: float, c: float) -> float:
    """Upper bound for k_F: pi*n in the impenetrable limit (where the
    solved density obeys rho >= 1/(2 pi), so the integral at pi*n
    already reaches n), and a generous multiple of the weak-coupling
    semicircle radius 2*sqrt(c*n) when that is smaller. Keeping the
    bracket at the physical scale keeps every probe within the
    resolvable range of the quadrature."""
    return min(np.pi * density,
               2.5 * np.sqrt(c * density) + 3.0 * c) * (1.0 + 1e-9)


def _bisect_kf(density: float, c: float, nodes: int,
               guess: float | None = None
               ) -> tuple[float, bool, tuple[np.ndarray, ...]]:
    """(k_F, bracketed, probe) with integrated density = target, at fixed
    resolution; probe is the :func:`_nystroem` result at that k_F.

    Named for the bisection it replaced: this is Newton's method on
    filled(k_F) - n with the slope dn/dk_F = 2 rho(k_F) Z(k_F) =
    4 pi rho(k_F)^2, since the dressed charge of the Lieb-Liniger
    equation is Z = 2 pi rho (Korepin, Bogoliubov & Izergin, Quantum
    Inverse Scattering Method and Correlation Functions, CUP 1993).
    rho(k_F) is the Nystroem interpolant of the probe, one kernel row.
    Each probe narrows the bracket [0, _kf_bracket] by the sign of its
    excess. A step that would leave the bracket, or that is more than
    half the step before it, bisects the bracket instead (the safeguard
    of rtsafe, Press et al., Numerical Recipes, sec. 9.4), so the search
    ends even where the interpolant slope is far off, as it is at levels
    too coarse for the kernel. Newton starts from ``guess`` (k_F of the
    previous node level), else from the bracket top, and stops once a
    Newton step is below ``_KF_TOL`` times the top, a relative tolerance
    at every density. That step is off from the true error by the ratio
    of the true slope to 4 pi rho(k_F)^2, 1 to about 1e-10 at a resolved
    level. bracketed says that a probe reached the target density or
    that the last Newton step stays below the bracket top.

    When the resolution is too coarse for the kernel the integrated
    density at the bracket top can fall short; that is reported as
    bracketed=False and left to the caller's node-doubling loop rather
    than guessed at. So is a NaN density there: below c of about 1e-308
    the kernel peak overflows and every probe's density is NaN. Either
    way a search from the top ends after its first probe.
    """
    top = float(_kf_bracket(density, c))
    lo, hi, found, step = 0.0, top, False, np.inf
    k_f = top if guess is None else guess
    while True:
        probe = k, wk, rho, _ = _nystroem(k_f, c, nodes)
        excess = float(wk @ rho) - density
        found |= excess >= 0.0
        lo, hi = (lo, k_f) if excess >= 0.0 else (k_f, hi)
        edge = 1.0 / (2.0 * np.pi) + 0.5 * float(
            (kernel(2.0, k_f - k, c) + kernel(2.0, k_f + k, c)) @ (wk * rho))
        last, step = step, excess / (4.0 * np.pi * edge * edge)
        nxt = k_f - step
        if abs(step) <= _KF_TOL * top:
            return k_f, found or nxt < top, probe
        if not lo < nxt < hi or abs(step) > 0.5 * abs(last):
            nxt = 0.5 * (lo + hi)
            if nxt == k_f:
                return k_f, found, probe
        k_f, step = nxt, k_f - nxt


def solve_ground_density(density: float, c: float, *,
                         initial_nodes: int = 200,
                         max_nodes: int = 6400) -> DensityProfile:
    """Ground-state density profile at particle density n and coupling c.

    Doubles the Gauss-Legendre node count from ``initial_nodes`` until
    the energy per unit length changes by less than ``_ENERGY_TOL``
    relatively; raises NonConvergence if ``max_nodes`` is hit first, with
    the last relative change between two levels that bracketed k_F as
    its best residual (NaN when fewer than two did). When no level
    brackets k_F at all (the kernel is far narrower than the node
    spacing), the NonConvergence says so. Each level's Newton search for
    k_F (:func:`_bisect_kf`) starts from the previous level's k_F, and its
    last probe, taken at the k_F it returns, is that level's profile; no
    level is solved again at its root. Raises ValueError
    up front when the energy density could overflow: it is at most the
    impenetrable limit pi^2 n^3 / 3.
    """
    if not (np.isfinite(density) and np.isfinite(c)):
        raise ValueError("density and c must be finite")
    if density <= 0 or c <= 0:
        raise ValueError("density and c must be positive")
    if initial_nodes < 1:
        raise ValueError(f"initial_nodes must be >= 1, got {initial_nodes!r}")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.pi ** 2 / 3.0 * np.float64(density) ** 3):
            raise ValueError(f"density {density!r} is too large: the "
                             "energy density would overflow")
    nodes = initial_nodes
    prev_e = k_f = None
    change = float("nan")
    bracketed_any = False
    while nodes <= max_nodes:
        k_f, bracketed, (k, wk, rho, a) = _bisect_kf(density, c, nodes, k_f)
        if not bracketed:
            prev_e = k_f = None  # resolution insufficient; never accept this
            nodes *= 2
            continue
        bracketed_any = True
        e = float(wk @ (k * k * rho))
        scale = max(abs(e), 1e-30)
        if prev_e is not None and abs(e - prev_e) <= _ENERGY_TOL * scale:
            z = np.linalg.solve(a, k * k)
            x, w = _gauss_legendre(nodes)
            weights = k_f * w
            return DensityProfile(
                grid=k_f * x, weights=weights, values=_unfold(rho, nodes),
                k_f=k_f, energy_density=e, density=float(wk @ rho), c=c,
                backflow_weights=weights * _unfold(z, nodes))
        if prev_e is not None:
            change = abs(e - prev_e) / scale
        prev_e = e
        nodes *= 2
    if not bracketed_any:
        raise NonConvergence(f"no node level up to {max_nodes} nodes "
                             "bracketed k_F", change, Reason.BUDGET)
    raise NonConvergence("ground density did not converge in node budget",
                         change, Reason.BUDGET)


def hole_energy(profile: DensityProfile, k_bar: float) -> float:
    """Energy change of removing the charge root at k_bar (with backflow).

    Non-positive; -k_bar^2 in the impenetrable limit. Requires
    |k_bar| <= k_F.
    """
    if not np.isfinite(k_bar):
        raise ValueError("k_bar must be finite")
    if abs(k_bar) > profile.k_f * (1 + 1e-12):
        raise ValueError("k_bar must lie inside the filled interval")
    rhs = -kernel(2.0, profile.grid - k_bar, profile.c)
    return -k_bar ** 2 + float(profile.backflow_weights @ rhs)


def fermion_dressed_energy(profile: DensityProfile, lam: float) -> float:
    """Dressed energy of one auxiliary (spin) rapidity at lam."""
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    rhs = -kernel(1.0, profile.grid - lam, profile.c)
    return float(profile.backflow_weights @ rhs)
