"""Modules: hom spaces, simplicity, twists, restriction, decomposition."""

import numpy as np
import pytest

from skewgroup.algebra import (
    SubalgebraEmbedding,
    fixed_subalgebra,
    make_algebra,
    matrix_algebra,
)
from skewgroup.errors import (
    AlgebraMismatch,
    InvalidInput,
    NotARepresentation,
    NotSemisimple,
)
from skewgroup.fixtures import random_instance
from skewgroup.group_action import cyclic_group
from skewgroup.numeric import orthonormal_column_basis
from skewgroup.repmod import (
    _direct_sum,
    compress,
    decompose,
    hom_space,
    invariant_subspace,
    is_simple,
    make_module,
    regular_commutant,
    regular_module,
    restrict,
    twist,
)
from skewgroup.skew import skew_group_algebra

TOL = 1e-9


def group_algebra(n):
    """The group algebra of Z/n as a structure-constant algebra."""
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j, (i + j) % n] = 1.0
    unit = np.zeros(n)
    unit[0] = 1.0
    return make_algebra(n, c, unit, tol=TOL)


def natural_module_m2():
    a = matrix_algebra(2)
    rho = []
    for p in range(2):
        for q in range(2):
            m = np.zeros((2, 2))
            m[p, q] = 1.0
            rho.append(m)
    return make_module(a, rho)


def test_make_module_regular():
    for a in (matrix_algebra(2), group_algebra(3)):
        m = regular_module(a)
        # left multiplications of a valid algebra always form a module
        assert np.allclose(m.act(a.unit), np.eye(a.dim))


def test_make_module_natural_m2():
    m = natural_module_m2()
    assert m.dim == 2


def test_make_module_rejects_bad_unit():
    a = group_algebra(2)
    with pytest.raises(NotARepresentation):
        make_module(a, [np.zeros((2, 2)), np.zeros((2, 2))])


def test_make_module_rejects_zero_dim():
    a = group_algebra(2)
    with pytest.raises(InvalidInput):
        make_module(a, [np.zeros((0, 0)), np.zeros((0, 0))])


def test_hom_space_schur():
    m = natural_module_m2()
    assert len(hom_space(m, m)) == 1


def test_hom_space_distinct_characters():
    # C + C with its two coordinate characters
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    a = make_algebra(2, c, [1.0, 1.0], tol=TOL)
    chi1 = make_module(a, [np.eye(1), np.zeros((1, 1))])
    chi2 = make_module(a, [np.zeros((1, 1)), np.eye(1)])
    assert hom_space(chi1, chi2) == []


def test_hom_space_regular_z2():
    m = regular_module(group_algebra(2))
    homs = hom_space(m, m)
    assert len(homs) == 2
    # oracle: brute nullspace of the stacked intertwiner system
    blocks = []
    for r in m.rho:
        blocks.append(np.kron(np.eye(2), np.asarray(r).T)
                      - np.kron(np.asarray(r), np.eye(2)))
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    assert int(np.sum(s <= 1e-8 * max(s[0], 1.0))) == 2


def test_hom_space_rejects_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        hom_space(natural_module_m2(), regular_module(group_algebra(2)))


def test_is_simple_natural_m2():
    assert is_simple(natural_module_m2(), seed=1)


def test_is_simple_regular_z2_false():
    a = group_algebra(2)
    m = regular_module(a)
    assert not is_simple(m, seed=1)
    # oracle: the idempotents (1 +- g)/2 split the module into two lines
    for sign in (1.0, -1.0):
        v = np.array([1.0, sign]) / 2.0
        img = m.act(v)
        assert np.linalg.matrix_rank(img) == 1


def test_is_simple_rejects_non_semisimple():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    dual = make_algebra(2, c, [1.0, 0.0], tol=TOL)
    m = regular_module(dual)
    with pytest.raises(NotSemisimple):
        is_simple(m, seed=1)


def test_twist_identity(inst):
    i = inst("pauli")
    t = twist(i.module, i.group.identity, i.action)
    for a, b in zip(t.rho, i.module.rho):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_twist_swap_moves_support(inst):
    i = inst("swap")
    m = i.module
    t = twist(m, 1, i.action)
    # twisted module is supported on the second block
    for k in range(4):
        assert np.allclose(t.rho[k], 0.0)
        assert np.allclose(np.asarray(t.rho[4 + k]), np.asarray(m.rho[k]))
    assert hom_space(t, m) == []


def test_twist_composition(inst):
    i = inst("pauli")
    m = i.module
    for g in range(4):
        for h in range(4):
            lhs = twist(twist(m, h, i.action), g, i.action)
            rhs = twist(m, i.group.mul(g, h), i.action)
            for a, b in zip(lhs.rho, rhs.rho):
                assert np.allclose(np.asarray(a), np.asarray(b), atol=1e-12)


def test_decompose_simple_single_piece():
    m = natural_module_m2()
    dec = decompose(m, seed=1)
    assert len(dec.pieces) == 1
    assert dec.pieces[0].module.dim == 2


def test_decompose_regular_z3_dft():
    a = group_algebra(3)
    dec = decompose(regular_module(a), seed=1)
    assert len(dec.pieces) == 3
    assert len(dec.class_ids()) == 3
    # oracle: the discrete Fourier vectors are the simple lines
    omega = np.exp(2j * np.pi / 3)
    dft = [np.array([1.0, omega ** (-j), omega ** (-2 * j)]) / np.sqrt(3)
           for j in range(3)]
    for p in dec.pieces:
        v = p.basis[:, 0]
        overlaps = [abs(v.conj() @ f) for f in dft]
        assert max(overlaps) > 1.0 - 1e-8


def test_decompose_multiplicity_two():
    a = matrix_algebra(2)
    nat = natural_module_m2()
    rho = [np.kron(np.eye(2), np.asarray(r)) for r in nat.rho]
    m = make_module(a, rho)        # C^2 + C^2
    dec = decompose(m, seed=1)
    assert len(dec.pieces) == 2
    assert len(dec.class_ids()) == 1
    cls = dec.class_ids()[0]
    assert dec.multiplicity(cls) == 2
    assert dec.multiplicity_spaces[cls].shape[1] == 2
    # oracle: the endomorphism algebra of the double is M_2 (dim 4)
    assert len(hom_space(m, m)) == 4


def test_decompose_dimension_bookkeeping(inst):
    for name in ("swap", "pauli", "cyclic", "perm"):
        i = inst(name)
        reg = regular_module(i.algebra)
        dec = decompose(reg, seed=1)
        total = sum(dec.representatives[c].module.dim * dec.multiplicity(c)
                    for c in dec.class_ids())
        assert total == i.algebra.dim
        for p in dec.pieces:
            # invariance: projection residual of the acted basis
            proj = p.basis @ p.basis.conj().T
            for r in reg.rho:
                img = np.asarray(r) @ p.basis
                assert np.linalg.norm(img - proj @ img) <= 1e-7
            assert is_simple(p.module, seed=1)


@pytest.mark.parametrize("name", ["trivial", "swap", "pauli", "perm", "cyclic",
                                  "random2"])
def test_multiplicity_spaces_match_homs_into_whole_module(inst, name):
    i = random_instance(2) if name == "random2" else inst(name)
    s = skew_group_algebra(i.algebra, i.group, i.action, seed=1).alg
    reg = regular_module(s)
    dec = decompose(reg, seed=1, commutant=regular_commutant(s))
    for cls in dec.class_ids():
        # oracle: homs into the module itself, not into the sum of its pieces
        homs = hom_space(dec.representatives[cls].module, reg)
        assert len(homs) == dec.multiplicity(cls)
        want = orthonormal_column_basis(np.column_stack([f[:, 0] for f in homs]), TOL)
        got = dec.multiplicity_spaces[cls]
        assert got.shape == want.shape
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-8


def test_hom_dimension_symmetry(inst):
    a = group_algebra(2)
    reg = regular_module(a)
    triv = make_module(a, [np.eye(1), np.eye(1)])
    assert len(hom_space(reg, triv)) == len(hom_space(triv, reg))


def test_restrict_full_algebra():
    m = natural_module_m2()
    a = m.algebra
    emb = SubalgebraEmbedding(parent=a, sub=a,
                              inclusion=np.eye(a.dim, dtype=np.complex128))
    r = restrict(m, emb)
    for x, y in zip(r.rho, m.rho):
        assert np.allclose(np.asarray(x), np.asarray(y))


def test_restrict_to_diagonal(inst):
    i = inst("swap")
    emb = fixed_subalgebra(i.algebra, i.action)
    reg = regular_module(i.algebra)
    r = restrict(reg, emb)
    dec = decompose(r, seed=1)
    # C^8 over the diagonal M_2 splits as 4 copies of C^2
    assert len(dec.class_ids()) == 1
    assert dec.multiplicity(dec.class_ids()[0]) == 4


def test_restrict_to_unit_span():
    m = natural_module_m2()
    a = m.algebra
    span = a.unit.reshape(-1, 1) / np.linalg.norm(a.unit)
    from skewgroup.algebra import subalgebra_from_span
    emb = subalgebra_from_span(a, span, unit_coords=a.unit)
    r = restrict(m, emb)
    assert np.allclose(r.act(emb.sub.unit), np.eye(2))


def test_invariant_subspace_trivial_group():
    c = np.ones((1, 1, 1))
    a = make_algebra(1, c, [1.0], tol=TOL)
    m = make_module(a, [np.eye(3)])
    assert invariant_subspace(m).shape[1] == 3


def test_invariant_subspace_regular_z2():
    m = regular_module(group_algebra(2))
    inv = invariant_subspace(m)
    assert inv.shape[1] == 1
    # oracle: the symmetrizer image is the line through 1 + g
    v = inv[:, 0]
    target = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(v.conj() @ target) - 1.0) < 1e-10


def test_invariant_subspace_sign_character():
    a = group_algebra(2)
    m = make_module(a, [np.eye(1), -np.eye(1)])
    assert invariant_subspace(m).shape[1] == 0


def _assert_action_stack(m):
    assert isinstance(m.rho, np.ndarray)
    assert m.rho.dtype == np.complex128
    assert m.rho.shape == (m.algebra.dim, m.dim, m.dim)


def test_every_constructor_stores_one_action_stack(inst):
    i = inst("pauli")
    m = i.module
    reg = regular_module(i.algebra)
    dec = decompose(reg, seed=1, commutant=regular_commutant(i.algebra))
    emb = fixed_subalgebra(i.algebra, i.action)
    built = [natural_module_m2(), m, twist(m, 1, i.action), restrict(m, emb),
             compress(reg, dec.pieces[0].basis), reg,
             _direct_sum(i.algebra, [p.module for p in dec.pieces])]
    for mod in built:
        _assert_action_stack(mod)


def test_direct_sum_is_block_diagonal():
    nat = natural_module_m2()
    s = _direct_sum(nat.algebra, [nat, nat])
    assert s.dim == 4
    assert np.array_equal(s.rho[:, :2, :2], nat.rho)
    assert np.array_equal(s.rho[:, 2:, 2:], nat.rho)
    assert not s.rho[:, :2, 2:].any() and not s.rho[:, 2:, :2].any()


def test_regular_module_is_a_view_of_the_structure_constants(inst):
    for a in (matrix_algebra(2), group_algebra(3), inst("perm").algebra):
        reg = regular_module(a)
        assert np.shares_memory(reg.rho, a.mult)
        assert not reg.rho.flags.writeable
        for i in range(a.dim):
            assert np.array_equal(reg.rho[i], a.left_mult(np.eye(a.dim)[:, i]))


def _doubled_natural_m2():
    rho = [np.kron(np.eye(2), np.asarray(r)) for r in natural_module_m2().rho]
    return make_module(matrix_algebra(2), rho)


def test_compress_matches_per_matrix_reference():
    m = _doubled_natural_m2()
    rng = np.random.default_rng(5)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    # {v (x) w}: invariant, since each action is I (x) r
    basis = np.column_stack([np.kron(v, e) for e in np.eye(2)])
    sub = compress(m, basis)
    assert sub.dim == 2
    for r, small in zip(m.rho, sub.rho):
        assert np.linalg.norm(small - basis.conj().T @ r @ basis) <= 1e-12


def test_compress_names_the_first_failing_action():
    m = _doubled_natural_m2()
    basis = np.array([[3.0], [4.0], [0.0], [0.0]]) / 5.0
    residuals = [np.linalg.norm(r @ basis - basis @ (basis.T @ r @ basis))
                 for r in m.rho]
    first = next(res for res in residuals if res > TOL)
    # the first failing action is not the worst one
    assert first < max(residuals)
    with pytest.raises(NotARepresentation,
                       match=f"subspace is not invariant: residual {first:.3e}"):
        compress(m, basis)


def test_validate_module_names_the_worst_basis_pair():
    rho = np.asarray(natural_module_m2().rho).copy()
    rho[1] *= 2.0             # rho(E01) = 2 E01; the unit is untouched
    a = matrix_algebra(2)
    lhs = np.einsum("iab,jbc->ijac", rho, rho)
    rhs = np.einsum("ijk,kac->ijac", a.mult, rho)
    err = np.abs(lhs - rhs).reshape(a.dim, a.dim, -1).sum(-1)
    i, j = np.unravel_index(int(err.argmax()), err.shape)
    with pytest.raises(NotARepresentation,
                       match=rf"rho\(b_{i}\) rho\(b_{j}\) != rho\(b_{i} b_{j}\)"):
        make_module(a, rho)
