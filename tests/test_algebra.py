"""Graded permutations, R-matrices, and the Yang-Baxter relation.

Frozen complex literals below come from independent stdlib-only
derivations (direct arithmetic on the signed permutation); the triple-
space oracle embeds operators by explicit index loops so it shares no
code with the package.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfmix.algebra import (CASES, GRADINGS, _embedded_permutations,
                           embed_pair, permutation_matrix, r_matrix,
                           ybe_residual)

# R(alpha=1, c=1) for the bff grading, (I - i*P)/(1 + i), frozen from
# direct arithmetic: diagonal a=b rows give (1 -+ i)/(1 + i) (upper sign
# for the boson pair, lower for same-species fermions), mixed-species
# diagonal entries give 1/(1 + i), and the exchange positions
# (ab -> ba) give -+ i/(1 + i) with the fermion-fermion sign flip.
_R_BFF_1_1 = {
    (0, 0): -1j,
    (4, 4): 1.0 + 0j,
    (8, 8): 1.0 + 0j,
    (1, 1): 0.5 - 0.5j,
    (2, 2): 0.5 - 0.5j,
    (3, 3): 0.5 - 0.5j,
    (5, 5): 0.5 - 0.5j,
    (6, 6): 0.5 - 0.5j,
    (7, 7): 0.5 - 0.5j,
    (1, 3): -0.5 - 0.5j,
    (2, 6): -0.5 - 0.5j,
    (3, 1): -0.5 - 0.5j,
    (5, 7): 0.5 + 0.5j,
    (6, 2): -0.5 - 0.5j,
    (7, 5): 0.5 + 0.5j,
}


def test_permutation_signs_and_involution():
    for case in CASES:
        eps = GRADINGS[case]
        p = permutation_matrix(case)
        assert np.allclose(p @ p, np.eye(9))
        for a in range(3):
            for b in range(3):
                want = -1.0 if (eps[a] and eps[b]) else 1.0
                assert p[3 * a + b, 3 * b + a] == want
        # exactly 9 nonzeros, all +-1
        assert np.count_nonzero(p) == 9
        assert set(np.abs(p[p != 0])) == {1.0}


def test_gradings_one_boson_two_fermions():
    for case, eps in GRADINGS.items():
        assert sorted(eps) == [0, 1, 1]
        assert eps.index(0) == {"bff": 0, "fbf": 1, "ffb": 2}[case]


def test_r_matrix_frozen_entries():
    r = r_matrix("bff", 1.0, 1.0)
    for (i, j), want in _R_BFF_1_1.items():
        assert r[i, j] == pytest.approx(want, abs=1e-15)
    # all other entries vanish
    mask = np.ones((9, 9), dtype=bool)
    for i, j in _R_BFF_1_1:
        mask[i, j] = False
    assert np.abs(r[mask]).max() < 1e-15


def test_r_matrix_limits_and_inverse():
    for case in CASES:
        p = permutation_matrix(case)
        assert np.allclose(r_matrix(case, 0.0, 1.7), -p)
        assert np.allclose(r_matrix(case, 1e12, 2.0), np.eye(9), atol=1e-11)
        for alpha in (0.3, -1.2, 5.0):
            prod = r_matrix(case, alpha, 0.9) @ r_matrix(case, -alpha, 0.9)
            assert np.abs(prod - np.eye(9)).max() < 1e-14


def test_r_matrix_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        r_matrix("bff", 1.0, 0.0)
    with pytest.raises(ValueError):
        r_matrix("bff", 1.0, -2.0)
    with pytest.raises(ValueError):
        permutation_matrix("xyz")


def _embed_by_loops(x9: np.ndarray, positions: tuple[int, int],
                    eps: tuple[int, int, int], graded: bool) -> np.ndarray:
    """Triple-space embedding via explicit index arithmetic (oracle)."""
    out = np.zeros((27, 27), dtype=complex)
    for a in range(3):
        for b in range(3):
            for c3 in range(3):
                row = 9 * a + 3 * b + c3
                for d in range(3):
                    for e in range(3):
                        for f in range(3):
                            col = 9 * d + 3 * e + f
                            if positions == (0, 1):
                                if c3 != f:
                                    continue
                                val = x9[3 * a + b, 3 * d + e]
                            elif positions == (1, 2):
                                if a != d:
                                    continue
                                val = x9[3 * b + c3, 3 * e + f]
                            else:  # (0, 2)
                                if b != e:
                                    continue
                                val = x9[3 * a + c3, 3 * d + f]
                                if graded:
                                    val *= (-1.0) ** (eps[b]
                                                      * (eps[a] + eps[d]))
                            out[row, col] = val
    return out


@pytest.mark.parametrize("case", CASES)
def test_embeddings_match_loop_oracle(case):
    rng = np.random.default_rng(3)
    alpha = float(rng.uniform(-2, 2))
    x = r_matrix(case, alpha, 1.3)
    eps = GRADINGS[case]
    for pos in ((0, 1), (1, 2), (0, 2)):
        got = embed_pair(x, pos, case, "graded")
        want = _embed_by_loops(x, pos, eps, graded=True)
        assert np.abs(got - want).max() < 1e-15
    got = embed_pair(x, (0, 2), case, "ordinary")
    want = _embed_by_loops(x, (0, 2), eps, graded=False)
    assert np.abs(got - want).max() < 1e-15


def test_embed_pair_rejects_bad_input():
    x = np.eye(9)
    with pytest.raises(ValueError):
        embed_pair(x, (2, 0), "bff")
    with pytest.raises(ValueError):
        embed_pair(x, (0, 2), "bff", "sideways")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("c", [0.1, 1.0, 100.0])
def test_yang_baxter_graded_holds(case, c):
    rng = np.random.default_rng(11)
    for _ in range(25):
        alpha, beta = rng.uniform(-4, 4, size=2)
        assert ybe_residual(case, alpha, beta, c) < 1e-10


def _residual_embedding_each_draw(case, alpha, beta, c, embedding):
    """The Yang-Baxter residual with every R built by r_matrix and then
    embedded by embed_pair, for each draw."""
    r12 = embed_pair(r_matrix(case, alpha - beta, c), (0, 1), case, embedding)
    r13 = embed_pair(r_matrix(case, alpha, c), (0, 2), case, embedding)
    r23 = embed_pair(r_matrix(case, beta, c), (1, 2), case, embedding)
    return float(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12).max())


@pytest.mark.parametrize("case", CASES)
def test_ybe_residual_equals_embedding_each_draw(case):
    # the cached embedding reorders no arithmetic, so the bits agree
    rng = np.random.default_rng(5)
    for embedding in ("graded", "ordinary"):
        for c in (0.1, 1.0, 100.0):
            for alpha, beta in rng.uniform(-10.0, 10.0, size=(200, 2)):
                assert ybe_residual(case, alpha, beta, c, embedding) == \
                    _residual_embedding_each_draw(case, alpha, beta, c,
                                                  embedding)


def test_embedded_permutations_cached_read_only():
    for case in CASES:
        for embedding in ("graded", "ordinary"):
            mats = _embedded_permutations(case, embedding)
            assert _embedded_permutations(case, embedding) is mats
            assert np.array_equal(mats[0], np.eye(27))
            for m, pos in zip(mats[1:], ((0, 1), (0, 2), (1, 2))):
                assert np.array_equal(m, embed_pair(permutation_matrix(case),
                                                    pos, case, embedding))
            for m in mats:
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0, 0] = 2.0
    assert _embedded_permutations.cache_info().currsize <= 6


def test_ybe_residual_rejects_bad_input():
    for c in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ybe_residual("bff", 0.3, 0.1, c)
        with pytest.raises(ValueError):
            r_matrix("bff", 0.3, c)
    for _ in range(2):  # an exception is not cached: the second call raises
        with pytest.raises(ValueError):
            ybe_residual("xyz", 0.3, 0.1, 1.0)
        with pytest.raises(ValueError):
            ybe_residual("bff", 0.3, 0.1, 1.0, embedding="sideways")


def test_yang_baxter_ordinary_embedding_fails():
    # the sign-free outer embedding violates the relation for every
    # grading: a clean demonstration that the signs are load-bearing
    for case in CASES:
        res = ybe_residual(case, 1.3, 0.4, 1.0, embedding="ordinary")
        assert res > 1e-2


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES),
       alpha=st.floats(-20, 20, allow_nan=False),
       beta=st.floats(-20, 20, allow_nan=False),
       c=st.floats(0.01, 1000, allow_nan=False))
def test_yang_baxter_graded_property(case, alpha, beta, c):
    assert ybe_residual(case, alpha, beta, c) < 1e-10


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES),
       alpha=st.floats(-10, 10, allow_nan=False),
       c=st.floats(0.05, 50, allow_nan=False))
def test_unitarity_property(case, alpha, c):
    prod = r_matrix(case, alpha, c) @ r_matrix(case, -alpha, c)
    assert np.abs(prod - np.eye(9)).max() < 1e-12
