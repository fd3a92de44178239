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
doubled until the energy density is stable to the requested tolerance;
k_F re-bisected at every refinement.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bae import NonConvergence

_KF_TOL = 1e-12
_ENERGY_TOL = 1e-8


def kernel(m: float, x, c: float):
    """Lorentzian kernel K_m(x) = (1/pi) (mc/2) / ((mc/2)^2 + x^2)."""
    half = 0.5 * m * c
    return (half / np.pi) / (half * half + np.asarray(x) ** 2)


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
    nodes: int = field(default=0)

    def __post_init__(self):
        if not self.nodes:
            self.nodes = self.grid.size


def _nystroem(k_f: float, c: float, nodes: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the ground-density equation at fixed k_F and node count.

    Returns (k, wk, rho, a) with a = I - K2 w the Nystroem matrix.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    k = k_f * x
    wk = k_f * w
    a = np.eye(nodes) - kernel(2.0, k[:, None] - k[None, :], c) * wk[None, :]
    rho = np.linalg.solve(a, np.full(nodes, 1.0 / (2.0 * np.pi)))
    return k, wk, rho, a


def _kf_bracket(density: float, c: float) -> float:
    """Upper bound for k_F: pi*n in the impenetrable limit (where the
    solved density obeys rho >= 1/(2 pi), so the integral at pi*n
    already reaches n), and a generous multiple of the weak-coupling
    semicircle radius 2*sqrt(c*n) when that is smaller. Keeping the
    bracket at the physical scale keeps every bisection probe within
    the resolvable range of the quadrature."""
    return min(np.pi * density,
               2.5 * np.sqrt(c * density) + 3.0 * c) * (1.0 + 1e-9)


def _bisect_kf(density: float, c: float,
               nodes: int) -> tuple[float, bool]:
    """(k_F, bracketed) with integrated density = target, at fixed
    resolution. When the resolution is too coarse for the kernel the
    integrated density at the bracket top can fall short; that is
    reported as bracketed=False and left to the caller's node-doubling
    loop rather than guessed at."""
    lo, hi = 1e-6 * density, _kf_bracket(density, c)
    def filled(k_f):
        _, wk, rho, _ = _nystroem(k_f, c, nodes)
        return float(wk @ rho)
    if filled(hi) < density:
        return hi, False
    while hi - lo > _KF_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if filled(mid) < density:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def solve_ground_density(density: float, c: float, *,
                         tol: float = _ENERGY_TOL,
                         initial_nodes: int = 200,
                         max_nodes: int = 6400) -> DensityProfile:
    """Ground-state density profile at particle density n and coupling c.

    Doubles the Gauss-Legendre node count from ``initial_nodes`` until
    the energy per unit length changes by less than ``tol`` relatively;
    raises NonConvergence if ``max_nodes`` is hit first.
    """
    if not (np.isfinite(density) and np.isfinite(c)):
        raise ValueError("density and c must be finite")
    if density <= 0 or c <= 0:
        raise ValueError("density and c must be positive")
    nodes = initial_nodes
    prev_e = None
    while nodes <= max_nodes:
        k_f, bracketed = _bisect_kf(density, c, nodes)
        if not bracketed:
            prev_e = None  # resolution insufficient; never accept this
            nodes *= 2
            continue
        k, wk, rho, a = _nystroem(k_f, c, nodes)
        e = float(wk @ (k * k * rho))
        if prev_e is not None and abs(e - prev_e) <= tol * max(abs(e), 1e-30):
            z = np.linalg.solve(a, k * k)
            return DensityProfile(grid=k, weights=wk, values=rho, k_f=k_f,
                                  energy_density=e, density=float(wk @ rho),
                                  c=c, backflow_weights=wk * z, nodes=nodes)
        prev_e = e
        nodes *= 2
    raise NonConvergence("ground density did not converge in node budget",
                         float("nan"))


def hole_energy(profile: DensityProfile, k_bar: float) -> float:
    """Energy change of removing the charge root at k_bar (with backflow).

    Non-positive; -k_bar^2 in the impenetrable limit. Requires
    |k_bar| <= k_F.
    """
    if abs(k_bar) > profile.k_f * (1 + 1e-12):
        raise ValueError("k_bar must lie inside the filled interval")
    rhs = -kernel(2.0, profile.grid - k_bar, profile.c)
    return -k_bar ** 2 + float(profile.backflow_weights @ rhs)


def fermion_dressed_energy(profile: DensityProfile, lam: float) -> float:
    """Dressed energy of one auxiliary (spin) rapidity at lam."""
    rhs = -kernel(1.0, profile.grid - lam, profile.c)
    return float(profile.backflow_weights @ rhs)
