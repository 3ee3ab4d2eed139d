"""Structure-constant algebras: construction, semisimplicity, subalgebras."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    dense,
    peak_bytes,
    probes_one_draw_at_a_time,
    record_products,
    saw_triples,
    unvalidated_algebra,
)

from skewgroup import algebra
from skewgroup.algebra import (
    EXHAUSTIVE_DIM_LIMIT,
    canonical_span,
    corner_algebra,
    direct_sum,
    fixed_subalgebra,
    is_semisimple,
    make_algebra,
    matrix_algebra,
    subalgebra_from_span,
    trace_form,
)
from skewgroup.errors import (
    AssociativityViolation,
    ClosureViolation,
    InvalidInput,
    NotIdempotent,
    UnitViolation,
)
from skewgroup.skew import skew_group_algebra, symmetrizer

TOL = 1e-9


def _dual_numbers():
    """dim 2 with x^2 = 0: the canonical non-semisimple algebra."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    return make_algebra(2, c, [1.0, 0.0], tol=TOL)


# Dense einsum reference kernels, kept as the oracle for the nonzero-index
# kernels of Algebra.
def _dense_product(c, x, y):
    return np.einsum("i,j,ijk->k", x, y, c)


def _dense_left_mult(c, x):
    return np.einsum("i,ijk->kj", x, c)


def _dense_right_mult(c, x):
    return np.einsum("j,ijk->ki", x, c)


def _dense_trace_form(c):
    lmats = np.einsum("ijk->ikj", c)
    return np.einsum("iab,jba->ij", lmats, lmats)


def _dense_worst_triple(c):
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    err = np.abs(left - right)
    return tuple(int(t) for t in np.unravel_index(int(err.argmax()), err.shape)[:3])


def _random_dense_algebra(dim, seed):
    """Algebra over a random tensor with no zero entry (not validated)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((dim,) * 3) + 1j * rng.standard_normal((dim,) * 3)
    return unvalidated_algebra(dim, c, np.eye(dim)[:, 0])


def _skew_algebra(inst, name):
    i = inst(name)
    return skew_group_algebra(i.action).alg


@pytest.mark.parametrize("source", ["dense", "pauli", "perm"])
def test_kernels_match_dense_einsum_reference(inst, source):
    a = (_random_dense_algebra(7, 0) if source == "dense"
         else _skew_algebra(inst, source))
    rng = np.random.default_rng(3)
    x, y = (rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
            for _ in range(2))
    bound = 1e-12 * a.scale * np.linalg.norm(x) * np.linalg.norm(y)
    c = dense(a)
    assert np.linalg.norm(a.product(x, y) - _dense_product(c, x, y)) <= bound
    for got, want in ((a.left_mult(x), _dense_left_mult(c, x)),
                      (a.right_mult(x), _dense_right_mult(c, x))):
        assert got.shape == want.shape == (a.dim, a.dim)
        assert np.linalg.norm(got - want) <= 1e-12 * a.scale * np.linalg.norm(x)
    t = trace_form(a)
    assert t.shape == (a.dim, a.dim)
    assert np.linalg.norm(t - _dense_trace_form(c)) <= 1e-12 * a.scale ** 2


@pytest.mark.parametrize("name", ["pauli", "perm"])
def test_trace_form_is_derived_once_and_read_only(inst, name):
    a = _skew_algebra(inst, name)
    t = trace_form(a)
    assert trace_form(a) is t
    assert not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0] = 1.0
    want = np.einsum("imn,jnm->ij", dense(a), dense(a))
    assert np.linalg.norm(t - want) <= 1e-12 * a.scale ** 2


def test_trace_form_of_m16_is_a_join_over_the_nonzeros():
    """M_16 has 4096 nonzeros, and a dense (dim, slots) copy of them took
    35 MB; the join peaks near the 1 MB of its (256, 256) output.  The dense
    einsum reference sum_{m,n} c[i, m, n] c[j, n, m] has the closed form
    T[E_pq, E_rs] = 16 [q = r] [p = s] here, exact in floating point."""
    n = 16
    a = matrix_algebra(n)
    fresh = algebra.Algebra(dim=a.dim, nonzeros=a.nonzeros, unit=a.unit)
    assert peak_bytes(lambda: fresh.trace_gram) < 4 * a.dim ** 2 * 16
    p, q, r, s = np.indices((n,) * 4)
    want = (n * (q == r) * (p == s)).reshape(a.dim, a.dim)
    assert np.array_equal(trace_form(a), want)
    assert np.array_equal(fresh.trace_gram, want)


def test_trace_form_of_dense_constants_joins_in_chunks():
    """Dense constants of dim 24 give 24^4 joined pairs, whose products alone
    take 5.3 MB; joined in chunks of about dim^2 pairs the trace form peaks
    below twice the 0.55 MB of the stored nonzeros."""
    a = _random_dense_algebra(24, 1)
    stored = sum(x.nbytes for x in a.nonzeros)
    assert peak_bytes(lambda: a.trace_gram) < 2 * stored
    want = _dense_trace_form(dense(a))
    assert np.linalg.norm(a.trace_gram - want) <= 1e-12 * a.scale ** 2


def test_make_algebra_rejects_nonassociative_naming_worst_triple():
    c = dense(matrix_algebra(2))
    c[2, 1, 1] = 2.0          # E10 E01 = E11 + 2 E01
    # the residual peaks at this one triple only
    assert _dense_worst_triple(c) == (2, 2, 1)
    with pytest.raises(AssociativityViolation) as exc:
        make_algebra(4, c, [1.0, 0.0, 0.0, 1.0], tol=TOL)
    assert "basis triple (2, 2, 1):" in str(exc.value)


def _perturbed_cyclic_group_algebra(n):
    """Structure constants of C[Z/n] with c[3, 1, 0] changed to 0.5."""
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j, (i + j) % n] = 1.0
    c[3, 1, 0] = 0.5
    return c


@pytest.mark.parametrize("case, joined", [("cyclic4", False), ("cyclic12", True),
                                          ("dense12", False)])
def test_worst_associator_matches_dense_reference(monkeypatch, case, joined):
    """Sparse constants of a large enough algebra go through the join over
    the nonzeros, small or mostly nonzero ones through dense slices; both
    name the first worst triple of the einsum reference."""
    if case == "dense12":
        a = _random_dense_algebra(12, 1)
        c = dense(a)
    else:
        c = _perturbed_cyclic_group_algebra(int(case[6:]))
        a = unvalidated_algebra(c.shape[0], c, np.eye(c.shape[0])[:, 0])
    results = []
    joined_associator = algebra._joined_associator
    monkeypatch.setattr(algebra, "_joined_associator", lambda *args: results.append(
        joined_associator(*args)) or results[-1])
    worst, at = algebra._worst_associator(a)
    err = np.abs(np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c))
    # the join declines (None) when it would cost more than the dense slices
    assert any(r is not None for r in results) == joined
    assert at == _dense_worst_triple(c)
    assert abs(worst - err.max()) <= 1e-12 * err.max()


def test_a_join_that_fits_one_chunk_takes_one():
    """A join of at most max(n^2, 1000) terms runs in one chunk; a longer
    one in runs of whole outer positions, each ending at the first position
    whose running count of terms passes a multiple of that size."""
    assert list(algebra._chunks(np.array([400, 1000]), 10)) == [(0, 2)]
    assert list(algebra._chunks(np.array([], dtype=np.int64), 10)) == [(0, 0)]
    done = np.arange(1, 31) * 100          # 100 terms at each of 30 positions
    assert list(algebra._chunks(done, 40)) == [(0, 16), (16, 30)]


def test_make_algebra_rejects_nonassociative_by_random_probes():
    a = matrix_algebra(6)
    assert a.dim > EXHAUSTIVE_DIM_LIMIT
    c = dense(a)
    c[0, 0, 1] = 0.5
    with pytest.raises(AssociativityViolation, match="random probe"):
        make_algebra(a.dim, c, a.unit, tol=TOL)


def test_associativity_probes_are_the_vectors_of_one_draw_at_a_time(monkeypatch):
    a = replace(matrix_algebra(6), seed=5)
    assert a.dim > EXHAUSTIVE_DIM_LIMIT
    seen = record_products(monkeypatch)
    algebra._check_associativity(a)
    expected = probes_one_draw_at_a_time(np.random.default_rng(5),
                                         algebra._PROBE_COUNT, 3, a.dim)
    assert len(seen) == 4 * len(expected)
    assert saw_triples(seen, expected)


def test_make_algebra_owns_its_structure_constants():
    c = dense(matrix_algebra(2))
    a = make_algebra(4, c, [1.0, 0.0, 0.0, 1.0], tol=TOL)
    c[2, 1, 3] = 0.0          # a caller edits its array afterwards
    c[2, 1, 0] = 1.0
    b2, b1 = np.eye(4)[:, 2], np.eye(4)[:, 1]
    assert np.allclose(a.product(b2, b1), _dense_product(dense(a), b2, b1))
    assert np.allclose(a.product(b2, b1), np.eye(4)[:, 3])    # E10 E01 = E11


def test_make_algebra_owns_its_generators():
    """The algebra keeps a read-only copy: the caller's array, or the base
    of a view, stays writeable, and writing to it changes nothing."""
    c = dense(matrix_algebra(2))
    base = np.eye(4, dtype=np.complex128)
    gens = base[1:3]
    a = make_algebra(4, c, [1.0, 0.0, 0.0, 1.0], tol=TOL, generators=gens)
    assert gens.flags.writeable and not a.generator_stack.flags.writeable
    base[1, 1] = 5.0
    assert np.array_equal(a.generator_stack, np.eye(4)[1:3])


def test_make_algebra_field():
    a = make_algebra(1, np.ones((1, 1, 1)), [1.0], tol=TOL)
    assert a.dim == 1
    assert np.allclose(a.product([2.0], [3.0]), [6.0])


def test_make_algebra_matrix_units():
    a = matrix_algebra(2)
    # E01 E10 = E00, E10 E01 = E11, E01 E01 = 0
    e01 = np.eye(4)[:, 1]
    e10 = np.eye(4)[:, 2]
    assert np.allclose(a.product(e01, e10), np.eye(4)[:, 0])
    assert np.allclose(a.product(e10, e01), np.eye(4)[:, 3])
    assert np.allclose(a.product(e01, e01), np.zeros(4))


def test_make_algebra_unit_violation():
    # b0 b0 = b1, b1 annihilates everything; the declared unit is not a unit
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    with pytest.raises(UnitViolation):
        make_algebra(2, c, [1.0, 0.0], tol=TOL)


def test_make_algebra_rejects_bad_dim():
    with pytest.raises(InvalidInput):
        make_algebra(0, np.zeros((0, 0, 0)), [], tol=TOL)


def test_matrix_algebra_small():
    assert matrix_algebra(1).dim == 1
    a2 = matrix_algebra(2)
    assert a2.dim == 4
    assert np.allclose(a2.unit, [1.0, 0.0, 0.0, 1.0])
    assert is_semisimple(matrix_algebra(3))


def test_matrix_algebra_rejects_zero():
    with pytest.raises(InvalidInput):
        matrix_algebra(0)


def test_direct_sum_two_fields():
    f = make_algebra(1, np.ones((1, 1, 1)), [1.0], tol=TOL)
    a = direct_sum(f, f)
    assert a.dim == 2
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    for e in (e1, e2):
        assert np.allclose(a.product(e, e), e)          # idempotent
        for x in (e1, e2, a.unit):
            assert np.allclose(a.product(e, x), a.product(x, e))  # central


def test_direct_sum_matrix_blocks():
    a = direct_sum(matrix_algebra(2), matrix_algebra(2))
    assert a.dim == 8
    assert is_semisimple(a)


def test_direct_sum_rejects_zero_dim():
    f = make_algebra(1, np.ones((1, 1, 1)), [1.0], tol=TOL)
    zero = unvalidated_algebra(0, np.zeros((0, 0, 0)), np.zeros(0))
    with pytest.raises(InvalidInput):
        direct_sum(f, zero)


def test_is_semisimple_matrix_algebra():
    assert is_semisimple(matrix_algebra(2))


def test_is_semisimple_group_algebra_z2():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 0] = 1.0
    a = make_algebra(2, c, [1.0, 0.0], tol=TOL)
    assert is_semisimple(a)


def test_is_semisimple_dual_numbers_false():
    a = _dual_numbers()
    assert not is_semisimple(a)


def test_fixed_subalgebra_trivial_group(inst):
    i = inst("trivial")
    emb = fixed_subalgebra(i.algebra, i.action)
    assert emb.sub.dim == i.algebra.dim


def test_fixed_subalgebra_swap(inst):
    i = inst("swap")
    emb = fixed_subalgebra(i.algebra, i.action)
    assert emb.sub.dim == 4
    # oracle: the fixed space is the diagonal embedding x -> (x, x)
    for t in range(4):
        col = emb.inclusion[:, t]
        assert np.allclose(col[:4], col[4:])
    # and it is isomorphic to M_2: semisimple with a 2-dim simple module,
    # certified here by the trace form having the M_2 signature (full rank)
    assert is_semisimple(emb.sub)


def test_fixed_subalgebra_pauli(inst):
    i = inst("pauli")
    emb = fixed_subalgebra(i.algebra, i.action)
    assert emb.sub.dim == 1
    # oracle: brute joint commutant — the fixed space of all conjugation
    # matrices computed directly from the stacked system
    stacked = np.vstack([m - np.eye(4) for m in i.action.mats])
    s = np.linalg.svd(stacked, compute_uv=False)
    assert int(np.sum(s <= 1e-8 * s[0])) == 1


def test_fixed_subalgebra_multiplicatively_closed(inst):
    for name in ("swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        emb = fixed_subalgebra(i.algebra, i.action)
        basis = emb.inclusion
        proj = basis @ basis.conj().T
        for s in range(emb.sub.dim):
            for t in range(emb.sub.dim):
                prod = i.algebra.product(basis[:, s], basis[:, t])
                assert np.linalg.norm(prod - proj @ prod) <= TOL * 10


def test_corner_algebra_full_unit():
    a = matrix_algebra(2)
    emb = corner_algebra(a, a.unit)
    assert emb.sub.dim == 4


def test_corner_algebra_e11():
    a = matrix_algebra(2)
    e11 = np.eye(4)[:, 0]
    emb = corner_algebra(a, e11)
    assert emb.sub.dim == 1


def test_corner_algebra_rejects_non_idempotent():
    a = matrix_algebra(2)
    with pytest.raises(NotIdempotent):
        corner_algebra(a, np.eye(4)[:, 1])       # E01 is nilpotent


def test_corner_algebra_pauli_symmetrizer(inst):
    i = inst("pauli")
    s = skew_group_algebra(i.action)
    e = symmetrizer(s)
    emb = corner_algebra(s.alg, e)
    assert emb.sub.dim == 1
    # oracle: direct span computation of {e b_i e}
    cols = []
    for k in range(s.alg.dim):
        b = np.eye(s.alg.dim)[:, k]
        cols.append(s.alg.product(e, s.alg.product(b, e)))
    s_vals = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    assert int(np.sum(s_vals > 1e-8 * s_vals[0])) == 1


def test_canonical_span_is_spanning_set_independent():
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = canonical_span(basis, TOL)
    b = canonical_span(basis @ mix, TOL)
    assert np.allclose(a, b, atol=1e-8)


def test_canonical_span_breaks_exact_ties_at_the_first_index():
    """The projector of a coordinate subspace has equal column norms at its
    coordinates, and rounding alone picked the pivot among them: 143 of
    these 200 spanning sets gave a basis other than the coordinate vectors.
    Norms within relative tol of the largest tie, and the first one wins."""
    coords = np.eye(6)[:, [0, 2, 5]]
    rng = np.random.default_rng(8)
    for _ in range(200):
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(canonical_span(coords @ mix, TOL), coords,
                           rtol=0.0, atol=1e-12)


def test_canonical_span_holds_no_n_by_n_matrix():
    """The Gram-Schmidt runs in the k coordinates of an orthonormal basis
    of the span, so no temporary grows as n^2: a 256 x 4 input peaks near
    111 KB, against 1.21 MB while the (n, n) projector was formed (2.40 MB
    before its norms and updates ran in row blocks)."""
    n, k = 256, 4
    rng = np.random.default_rng(6)
    vectors = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    assert peak_bytes(lambda: canonical_span(vectors, TOL)) < 10 * n * k * 16


def test_subalgebra_from_span_rejects_unclosed():
    a = matrix_algebra(2)
    # span{1, E01 + E10} is not closed: (E01+E10)^2 = 1 is fine, but
    # span{E01} alone is not unital/closed with the declared unit
    with pytest.raises(ClosureViolation):
        subalgebra_from_span(a, [np.eye(4)[:, 1]], unit_coords=a.unit)
