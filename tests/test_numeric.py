"""Rank, nullspace, Hermitian eigendecomposition, and the intertwiner solver."""

import numpy as np
import pytest

from skewgroup import numeric
from skewgroup.errors import InvalidInput

TOL = 1e-9


def test_rank_zero_matrix():
    assert numeric.rank(np.zeros((3, 3)), TOL) == 0


def test_rank_identity():
    assert numeric.rank(np.eye(3), TOL) == 3


def test_rank_rank_one():
    assert numeric.rank(np.array([[1.0, 1.0], [1.0, 1.0]]), TOL) == 1


def test_rank_rejects_nonpositive_tol():
    with pytest.raises(InvalidInput):
        numeric.rank(np.eye(2), 0.0)


def test_rank_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        numeric.rank(np.array([[np.nan, 0.0], [0.0, 1.0]]), TOL)


def test_nullspace_identity_empty():
    assert numeric.nullspace(np.eye(2), TOL).shape == (2, 0)


def test_nullspace_one_by_two():
    ker = numeric.nullspace(np.array([[1.0, -1.0]]), TOL)
    assert ker.shape == (2, 1)
    v = ker[:, 0]
    expected = np.array([1.0, 1.0]) / np.sqrt(2)
    # proportional to (1,1)/sqrt(2)
    assert abs(abs(v @ expected.conj()) - 1.0) < 1e-12


def test_nullspace_zero_matrix():
    ker = numeric.nullspace(np.zeros((2, 2)), TOL)
    assert ker.shape == (2, 2)
    assert np.allclose(ker.conj().T @ ker, np.eye(2))


def test_rank_plus_nullity_equals_cols():
    rng = np.random.default_rng(1)
    mats = [
        np.zeros((3, 4)),
        np.eye(4),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        rng.standard_normal((5, 3)),
        rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)),
        np.outer(rng.standard_normal(4), rng.standard_normal(4)),
    ]
    for m in mats:
        assert numeric.rank(m, TOL) + numeric.nullspace(m, TOL).shape[1] == m.shape[1]


def test_nullspace_vectors_annihilated():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 5))
    ker = numeric.nullspace(m, TOL)
    norm = np.linalg.norm(m)
    for j in range(ker.shape[1]):
        assert np.linalg.norm(m @ ker[:, j]) <= TOL * norm


def test_eig_hermitian_diag():
    w, v = numeric.eig_hermitian(np.diag([2.0, 1.0]))
    assert np.allclose(w, [1.0, 2.0])


def test_eig_hermitian_pauli_x():
    w, v = numeric.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_hermitian_identity():
    w, v = numeric.eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        numeric.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a + a.conj().T
    w, v = numeric.eig_hermitian(m)
    assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - m) <= 10 * TOL * np.linalg.norm(m)


def test_solve_sandwich_identity_pair():
    basis = numeric.solve_sandwich([(np.eye(2), np.eye(2))], TOL)
    assert len(basis) == 4


def _kron_nullity(pairs, tol):
    """Independent oracle: nullity of the explicitly stacked Kronecker system."""
    blocks = []
    for p, q in pairs:
        d = p.shape[0]
        dp = q.shape[0]
        blocks.append(np.kron(np.eye(dp), p.T) - np.kron(q, np.eye(d)))
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    scale = max(float(s[0]), 1.0)
    return int(np.sum(s <= tol * scale))


def _matrix_units(n):
    """Action matrices of the natural simple module of M_n."""
    out = []
    for p in range(n):
        for q in range(n):
            e = np.zeros((n, n))
            e[p, q] = 1.0
            out.append(e)
    return out


def test_solve_sandwich_schur_one_dimensional():
    pairs = [(m, m) for m in _matrix_units(2)]
    basis = numeric.solve_sandwich(pairs, TOL)
    assert len(basis) == 1
    x = basis[0]
    assert np.allclose(x / x[0, 0], np.eye(2))
    assert len(basis) == _kron_nullity(pairs, 1e-8)


def _conjugated_double(mats, seed):
    """Each matrix of the direct sum M + M, written in a random basis."""
    rng = np.random.default_rng(seed)
    d = 2 * mats[0].shape[0]
    s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s_inv = np.linalg.inv(s)
    return [s @ np.kron(np.eye(2), m) @ s_inv for m in mats]


@pytest.mark.parametrize("case, expected", [
    ("simple_into_double", 2),     # Hom(M, M + M), d = 2, d' = 4
    ("double_into_simple", 2),     # Hom(M + M, M), d = 4, d' = 2
    ("double_endomorphisms", 4),   # End(M + M) = M_2(C)
    ("random_rectangular", 0),     # generic P (3 x 3) and Q (2 x 2)
])
def test_solve_sandwich_kernel_dim_matches_kron_stack(case, expected):
    simple = _matrix_units(2)
    double = _conjugated_double(simple, 6)
    rng = np.random.default_rng(8)
    pairs = {
        "simple_into_double": list(zip(simple, double)),
        "double_into_simple": list(zip(double, simple)),
        "double_endomorphisms": list(zip(double, double)),
        "random_rectangular": [
            (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
             rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for _ in range(2)],
    }[case]
    basis = numeric.solve_sandwich(pairs, TOL)
    assert len(basis) == _kron_nullity(pairs, 1e-8) == expected
    for x in basis:
        assert x.shape == (pairs[0][1].shape[0], pairs[0][0].shape[0])
        for p, q in pairs:
            assert np.linalg.norm(x @ p - q @ x) <= 1e-8


def test_solve_sandwich_inequivalent_characters():
    # the two characters of Z/2: 1 -> 1 vs 1 -> -1
    pairs = [(np.array([[1.0]]), np.array([[1.0]])),
             (np.array([[1.0]]), np.array([[-1.0]]))]
    assert numeric.solve_sandwich(pairs, TOL) == []


def test_solve_sandwich_residuals():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = rng.standard_normal((3, 3))
    q = s @ p @ np.linalg.inv(s)          # q = s p s^{-1}, so X = s intertwines
    basis = numeric.solve_sandwich([(p, q)], TOL)
    for x in basis:
        res = np.linalg.norm(x @ p - q @ x)
        bound = TOL * (np.linalg.norm(x) * np.linalg.norm(p)
                       + np.linalg.norm(q) * np.linalg.norm(x))
        assert res <= max(bound, 1e-12)


def test_solve_sandwich_rejects_empty():
    with pytest.raises(InvalidInput):
        numeric.solve_sandwich([], TOL)


def test_solve_sandwich_rejects_mismatched():
    with pytest.raises(InvalidInput):
        numeric.solve_sandwich([(np.eye(2), np.eye(2)), (np.eye(3), np.eye(2))], TOL)
