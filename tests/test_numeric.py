"""Rank, nullspace, and the intertwiner solver."""

import numpy as np
import pytest
from helpers import peak_bytes, same_bits

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


@pytest.mark.parametrize("rows, cols, rank", [(2000, 8, 5), (3, 8, 2), (8, 8, 8)])
def test_nullspace_matches_full_svd_reference(rows, cols, rank):
    """Tall, wide and square: the kernel spans the full SVD's last right
    singular vectors."""
    rng = np.random.default_rng(7)
    m = ((rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank)))
         @ rng.standard_normal((rank, cols)))
    ker = numeric.nullspace(m, TOL)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    want = vh[int(np.sum(s > TOL * s[0])):].conj().T
    assert ker.shape == want.shape == (cols, cols - rank)
    assert np.linalg.norm(ker @ ker.conj().T - want @ want.conj().T) <= 1e-12
    if rows > 100 * cols:
        # a thin SVD: no (rows, rows) U, which takes 2000^2 * 16 B = 64 MB
        assert peak_bytes(lambda: numeric.nullspace(m, TOL)) < rows * rows * 16


def test_solve_sandwich_identity_pair():
    basis = numeric.solve_sandwich([(np.eye(2), np.eye(2))], TOL)
    assert len(basis) == 4


def _kron_blocks(pairs):
    """The blocks kron(I, P.T) - kron(Q, I) acting on row-major vec(X)."""
    return [np.kron(np.eye(q.shape[0]), p.T) - np.kron(q, np.eye(p.shape[0]))
            for p, q in pairs]


def _kron_kernel(pairs, tol):
    """Independent oracle: kernel of the explicitly stacked Kronecker system,
    one vec(X) per column."""
    _, s, vh = np.linalg.svd(np.vstack(_kron_blocks(pairs)))
    scale = max(float(s[0]), 1.0)
    return vh[int(np.sum(s > tol * scale)):].conj().T


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
    assert len(basis) == _kron_kernel(pairs, 1e-8).shape[1]


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
    assert len(basis) == _kron_kernel(pairs, 1e-8).shape[1] == expected
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


@pytest.mark.parametrize("pairs", [
    [(np.eye(2), np.eye(2)), (np.eye(2), np.eye(3))],
    [(np.ones((2, 3)), np.eye(2))],
    [(np.eye(2), np.ones(2))],
    [([[1.0, 0.0], [0.0]], np.eye(2))],
    [(np.eye(2), [[1.0], [0.0, 1.0]])],
], ids=["q_sizes_differ", "p_not_square", "q_not_a_matrix",
        "ragged_p", "ragged_q"])
def test_solve_sandwich_rejects_mismatched_or_ragged_shapes(pairs):
    with pytest.raises(InvalidInput, match="inconsistent pair dimensions"):
        numeric.solve_sandwich(pairs, TOL)


def test_solve_sandwich_rejects_non_finite():
    with pytest.raises(InvalidInput, match="non-finite"):
        numeric.solve_sandwich([(np.eye(2), np.diag([1.0, np.nan]))], TOL)


def _block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    lo = 0
    for m in mats:
        hi = lo + m.shape[0]
        out[lo:hi, lo:hi] = m
        lo = hi
    return out


def _projector(cols):
    q, _ = np.linalg.qr(cols)
    return q @ q.conj().T


def _split_pairs(case):
    """Actions of the basis of M_2 + C on modules that are exact direct sums.

    m is the natural module of M_2 (zero on the C summand), mm is m + m and
    c the character of C; conj writes a module in a random basis.
    """
    rng = np.random.default_rng(12)

    def conj(mats):
        d = mats[0].shape[0]
        s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return [s @ x @ np.linalg.inv(s) for x in mats]

    m = _matrix_units(2) + [np.zeros((2, 2))]
    c = [np.zeros((1, 1))] * 4 + [np.eye(1)]
    mm = [np.kron(np.eye(2), x) for x in m]
    modules = {
        "q_side": ([m], [c, conj(m), conj(mm)]),        # d = 2, d' = 1 + 2 + 4
        "p_side": ([conj(mm), c, conj(m)], [m]),        # d = 4 + 1 + 2, d' = 2
        "both": ([m, c], [c, conj(m), conj(mm)]),       # d = 2 + 1, d' = 1 + 2 + 4
    }[case]
    ps, qs = ([_block_diag(*xs) for xs in zip(*side)] for side in modules)
    return list(zip(ps, qs))


@pytest.mark.parametrize("case, blocks, expected", [
    ("q_side", (1, 3), 3),      # Hom(M, C + M + M^2) = 3
    ("p_side", (3, 1), 3),      # Hom(M^2 + C + M, M) = 3
    ("both", (2, 3), 4),        # Hom(M + C, C + M + M^2) = 3 + 1
])
def test_solve_sandwich_splits_exact_blocks(case, blocks, expected):
    pairs = _split_pairs(case)
    ps = np.stack([p for p, _ in pairs])
    qs = np.stack([q for _, q in pairs])
    assert (len(numeric._diagonal_blocks(ps)),
            len(numeric._diagonal_blocks(qs))) == blocks
    basis = numeric.solve_sandwich(pairs, TOL)
    oracle = _kron_kernel(pairs, 1e-8)
    assert len(basis) == oracle.shape[1] == expected
    vecs = np.column_stack([x.reshape(-1) for x in basis])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(expected), atol=1e-10)
    assert np.linalg.norm(_projector(vecs) - _projector(oracle)) <= 1e-8
    for x in basis:
        assert x.shape == (qs.shape[1], ps.shape[1])
        for p, q in pairs:
            assert np.linalg.norm(x @ p - q @ x) <= 1e-8


def test_solve_sandwich_one_cutoff_for_all_blocks():
    # A dense 3 x 3 block of O(1) entries beside a 2 x 2 block with entries of
    # order 1e-6.  Written in unitary bases u, v, the small block's Gram matrix
    # is diagonal with eigenvalues 1e-12 |a_t - b_s|^2: 0, 1e-12 and two near
    # 4e-8.  Those two lie above tol * floor^2 but below tol * (largest
    # eigenvalue of the whole Gram matrix), so only the global cutoff keeps them.
    rng = np.random.default_rng(11)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, _ = np.linalg.qr(cn(2, 2))
    v, _ = np.linalg.qr(cn(2, 2))
    small_p = 1e-6 * u @ np.diag([0.0, 1.0]) @ u.conj().T
    small_q = 1e-6 * v @ np.diag([0.0, 200.0]) @ v.conj().T
    zero = np.zeros((2, 2))
    pairs = [(_block_diag(cn(3, 3), small_p if i == 0 else zero),
              _block_diag(cn(3, 3), small_q if i == 0 else zero))
             for i in range(6)]
    ps = np.stack([p for p, _ in pairs])
    qs = np.stack([q for _, q in pairs])
    assert len(numeric._diagonal_blocks(ps)) == len(numeric._diagonal_blocks(qs)) == 2
    # test-local eigh of the full (block-diagonal) Gram matrix
    gram = sum(b.conj().T @ b for b in _kron_blocks(pairs))
    w, vecs = np.linalg.eigh(gram)
    floor = max(1.0, float(np.abs(ps).max()), float(np.abs(qs).max()))
    keep = w <= TOL * max(float(w[-1]), floor ** 2)
    assert keep.sum() == 4
    assert np.sum(w <= TOL * floor ** 2) == 2       # a floor-only cutoff keeps 2
    basis = numeric.solve_sandwich(pairs, TOL)
    assert len(basis) == 4
    got = np.column_stack([x.reshape(-1) for x in basis])
    assert np.linalg.norm(_projector(got) - _projector(vecs[:, keep])) <= 1e-8


def _solve_sandwich_unsplit(pairs, tol):
    """The solver before the block split: one eigh of the whole Gram matrix."""
    ps = np.stack([np.asarray(p, dtype=np.complex128) for p, _ in pairs])
    qs = np.stack([np.asarray(q, dtype=np.complex128) for _, q in pairs])
    k, d, dp = ps.shape[0], ps.shape[1], qs.shape[1]
    floor = max(1.0, float(np.abs(ps).max()), float(np.abs(qs).max()))
    n = dp * d
    s = (qs.reshape(k, -1).T @ ps.conj().reshape(k, -1)).reshape(dp, dp, d, d)
    s = s.transpose(0, 2, 1, 3).reshape(n, n)
    gram = (np.kron(np.eye(dp), (ps.conj() @ ps.transpose(0, 2, 1)).sum(axis=0))
            + np.kron((qs.conj().transpose(0, 2, 1) @ qs).sum(axis=0), np.eye(d))
            - s - s.conj().T)
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    scale = max(float(w[-1]), floor * floor) if w.size else 1.0
    ker = v[:, w <= tol * scale]
    return [ker[:, j].reshape(dp, d) for j in range(ker.shape[1])]


def test_solve_sandwich_single_block_is_bitwise_unsplit():
    pairs = list(zip(_matrix_units(2), _conjugated_double(_matrix_units(2), 6)))
    for side in zip(*pairs):
        assert len(numeric._diagonal_blocks(np.stack(side))) == 1
    basis = numeric.solve_sandwich(pairs, TOL)
    reference = _solve_sandwich_unsplit(pairs, TOL)
    assert len(basis) == len(reference) == 2
    for x, y in zip(basis, reference):
        assert np.array_equal(x, y)


def test_frobenius_scales_a_sum_of_squares_that_overflows():
    """Entries near 1e300 square to inf; the norm of x / max |x|, scaled
    back, is finite.  A finite sum keeps the plain formula's bits."""
    x = np.array([3e300, 4e300j, 0.0])
    assert numeric.frobenius(x) == pytest.approx(5e300, rel=1e-15)
    assert numeric.frobenius(np.array([3e300, -4e300])) == \
        pytest.approx(5e300, rel=1e-15)
    assert numeric.frobenius(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(numeric.frobenius(np.array([np.nan, 1e300])))
    y = np.array([[1e150, 2.0 - 1e150j], [3.0, 1e-300]])
    re, im = y.real.ravel(), y.imag.ravel()
    assert numeric.frobenius(y) == np.sqrt(re.dot(re) + im.dot(im))
    rng = np.random.default_rng(4)
    for n in (64, 257, 4099):
        z = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n) \
            + 1j * rng.standard_normal(n)
        assert same_bits(np.float64(numeric.frobenius(z)), np.linalg.norm(z))
        assert same_bits(np.float64(numeric.frobenius(z.real)),
                         np.linalg.norm(z.real))


def test_complex_probes_drawn_one_at_a_time_are_one_batched_draw():
    """Each probe is drawn when it is reached, and the probes are those of
    one (count, arity, 2, dim) draw, bit for bit."""
    draw = np.random.default_rng(3).standard_normal((50, 3, 2, 48))
    probes = list(numeric.complex_probes(np.random.default_rng(3), 50, 3, 48))
    assert len(probes) == 50
    assert all(same_bits(p, d[:, 0] + 1j * d[:, 1])
               for p, d in zip(probes, draw))
