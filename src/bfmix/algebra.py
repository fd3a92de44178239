"""Graded permutation operators, R-matrices, and the Yang-Baxter check.

The three reference orderings of the Bose-Fermi mixture (labelled "bff",
"fbf", "ffb") assign Grassmann parities to the three internal states:
exactly one state is bosonic (parity 0) and two are fermionic (parity 1),
the label giving the position of the boson. The two-site permutation
operator on the graded tensor product carries the sign of the statistics,

    P[(a,b), (c,d)] = delta(a,d) * delta(b,c) * (-1)**(eps(c)*eps(d)),

so swapping two fermionic states picks up a minus sign. The rational
R-matrix built from it,

    R(alpha) = (alpha*I - i*c*P) / (alpha + i*c),

satisfies the Yang-Baxter relation on the triple tensor space *provided*
the operator acting on the outer pair of factors is embedded with graded
signs (see :func:`embed_pair`). The ordinary (sign-free) embedding fails
for these signed permutations; both embeddings are exposed so the failure
is checkable.

:func:`ybe_residual` takes one draw (scalars alpha, beta) or a sweep
(equal-length 1-D arrays) and runs both through one path, in blocks of a
few draws. Every entry of an embedded R is (alpha*e - i*c*p)/(alpha + i*c)
for its pair (e, p) of identity and permutation entries, and the triple
space has at most six such pairs, (0, 0) among them. So a block divides
only those few values per draw for all three R at once, gathers the three
27x27 R from them, and forms both sides of the relation in two stacked
products.
The bits are those of building R entry by entry: every nonzero entry takes
the same IEEE operations, a NaN alpha reaches every entry through (0, 0),
and a stacked matmul runs the same gemm on each draw.

Complex arithmetic stays inside this module; everything downstream of it
works with real numbers only.
"""
from __future__ import annotations

import functools
import math

import numpy as np

CASES = ("bff", "fbf", "ffb")

#: Grassmann parity of each internal state, per reference ordering.
GRADINGS = {
    "bff": (0, 1, 1),
    "fbf": (1, 0, 1),
    "ffb": (1, 1, 0),
}


def _check_case(case: str) -> tuple[int, int, int]:
    try:
        return GRADINGS[case]
    except KeyError:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}") from None


def permutation_matrix(case: str) -> np.ndarray:
    """Signed two-site permutation on the 9-dimensional pair space.

    Rows and columns are indexed by pairs (a, b) -> 3*a + b. The result is
    a real signed permutation matrix squaring to the identity.
    """
    eps = _check_case(case)
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            sign = -1.0 if (eps[a] and eps[b]) else 1.0
            p[3 * a + b, 3 * b + a] = sign
    return p


def r_matrix(case: str, alpha: float, c: float) -> np.ndarray:
    """Two-site R-matrix R(alpha) = (alpha*I - i*c*P)/(alpha + i*c).

    Returned as a complex 9x9 array. R(0) = -P exactly; R(alpha) -> I as
    |alpha| -> infinity; R(alpha) @ R(-alpha) = I.
    """
    return _rational_r(alpha, c, permutation_matrix(case), np.eye(9))


def _rational_r(alpha, c: float, p: np.ndarray,
                eye: np.ndarray) -> np.ndarray:
    """(alpha*eye - i*c*p) / (alpha + i*c): R from a signed permutation p
    on the pair space, or the distinct entries of R12, R13 and R23 on the
    triple space from those of the embedded p and I (alpha holding each
    entry's argument, one row per draw)."""
    if not 0 < c < math.inf:
        raise ValueError(f"coupling c must be finite and positive, got {c!r}")
    return (alpha * eye - 1j * c * p) / (alpha + 1j * c)


def embed_pair(x: np.ndarray, positions: tuple[int, int], case: str,
               embedding: str = "graded") -> np.ndarray:
    """Embed a two-site operator into the 27-dimensional triple space.

    ``positions`` names the two tensor factors (0-based, strictly
    increasing) the operator acts on. For adjacent factors the graded and
    ordinary embeddings coincide; for the outer pair (0, 2) the graded
    embedding threads the middle index through with the sign

        (-1)**(eps(b) * (eps(a) + eps(d)))

    for matrix element X[(a,c),(d,f)] sandwiching middle states b = e.
    """
    if embedding not in ("graded", "ordinary"):
        raise ValueError(f"unknown embedding {embedding!r}")
    eps = _check_case(case)
    i3 = np.eye(3)
    if positions == (0, 1):
        return np.kron(x, i3)
    if positions == (1, 2):
        return np.kron(i3, x)
    if positions != (0, 2):
        raise ValueError(f"positions must be (0,1), (1,2) or (0,2), got {positions}")
    x4 = x.reshape(3, 3, 3, 3)  # [a, c, d, f]
    out = np.zeros((3, 3, 3, 3, 3, 3), dtype=x.dtype)
    for b in range(3):
        if embedding == "graded":
            signs = np.array([[(-1.0) ** (eps[b] * (eps[a] + eps[d]))
                               for d in range(3)] for a in range(3)])
        else:
            signs = np.ones((3, 3))
        out[:, b, :, :, b, :] = x4 * signs[:, None, :, None]
    return out.reshape(27, 27)


#: Draws per stacked product in :func:`ybe_residual`. Time is flat from 8
#: draws up, while each doubling adds to the peak memory of a sweep.
_BLOCK = 8


@functools.lru_cache(maxsize=2 * len(CASES))
def _embedded_permutations(case: str, embedding: str) -> tuple[np.ndarray, ...]:
    """Read-only ``(e_vals, p_vals, arg, index)`` for the factor pairs
    (0, 1), (0, 2), (1, 2) at once: the distinct (I, P) entry pairs of the
    identity and of the signed permutation embedded on each factor pair,
    ``arg`` the factor pair (0, 1 or 2) each distinct pair belongs to, and
    the (3, 729) index of every entry's pair, so ``e_vals[index]`` is I
    and ``p_vals[index]`` is (P12, P13, P23), raveled. Built on first use:
    a numpy operation at import time raised the peak RSS of every CLI run
    by about 0.1 MB."""
    p = permutation_matrix(case)
    eye = np.eye(27).ravel()
    e_vals, p_vals, arg, index = [], [], [], []
    for k, pos in enumerate(((0, 1), (0, 2), (1, 2))):
        pairs = np.stack([eye, embed_pair(p, pos, case, embedding).ravel()],
                         axis=1)
        distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
        index.append(inverse.reshape(-1) + len(arg))
        e_vals.extend(distinct[:, 0])
        p_vals.extend(distinct[:, 1])
        arg.extend([k] * len(distinct))
    tables = tuple(np.array(x) for x in (e_vals, p_vals, arg, index))
    for x in tables:
        x.flags.writeable = False
    return tables


def ybe_residual(case: str, alpha, beta, c: float,
                 embedding: str = "graded"):
    """Max-norm residual of the Yang-Baxter relation on the triple space.

    Checks R12(alpha-beta) R13(alpha) R23(beta)
         = R23(beta) R13(alpha) R12(alpha-beta),
    with the 1-3 factor embedded per ``embedding``. The graded embedding
    yields residuals at machine precision for all three cases; the
    ordinary embedding does not (kept for demonstration).

    With scalars ``alpha`` and ``beta`` it returns a float; with
    equal-length 1-D arrays, a float array of one residual per draw,
    each ``==`` to the scalar call on that draw. Other shapes raise
    ValueError, and a bad ``c`` raises even for empty arrays. Each R
    takes the few distinct values of its entries from the arithmetic of
    :func:`r_matrix` and gathers them, so it equals
    ``embed_pair(r_matrix(...))`` in every nonzero entry.
    """
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if a.shape != b.shape or a.ndim > 1:
        raise ValueError("alpha and beta must be scalars or equal-length "
                         f"1-D arrays, got shapes {a.shape} and {b.shape}")
    e_vals, p_vals, arg, index = _embedded_permutations(case, embedding)
    # one row (alpha - beta, alpha, beta) per draw: the arguments of
    # R12, R13 and R23
    args = np.array((a - b, a, b)).reshape(3, -1).T
    out = np.empty(len(args))
    # at least one block, so that an empty sweep still checks c
    for lo in range(0, max(len(args), 1), _BLOCK):
        r = (_rational_r(args[lo:lo + _BLOCK, arg], c, p_vals, e_vals)
             .take(index, axis=1).reshape(-1, 3, 27, 27))
        # (R12, R23) @ R13 @ (R23, R12): both sides in two stacked products
        sides = r[:, ::2] @ r[:, 1:2] @ r[:, ::-2]
        out[lo:lo + _BLOCK] = np.abs(sides[:, 0]
                                     - sides[:, 1]).max(axis=(1, 2))
    return float(out[0]) if a.ndim == 0 else out
