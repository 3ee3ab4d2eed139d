"""Modules: hom spaces, simplicity, twists, restriction, decomposition."""

import re

import numpy as np
import pytest
import reference
from helpers import (
    dense,
    peak_bytes,
    probes_one_draw_at_a_time,
    record_products,
    same_bits,
    unvalidated_algebra,
)

from skewgroup.algebra import (
    EXHAUSTIVE_DIM_LIMIT,
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
from skewgroup.jobs import ALL_TASKS, instance_to_job, parse_job
from skewgroup import numeric, repmod
from skewgroup.numeric import orthonormal_column_basis
from skewgroup.projective import module_over_twisted
from skewgroup.repmod import (
    CompressedModule,
    DirectSum,
    Module,
    RegularModule,
    compress,
    decompose,
    hom_space,
    invariant_subspace,
    is_simple,
    make_module,
    regular_module,
    restrict,
    same_algebra,
    twist,
    validate_module,
)
from skewgroup.runner import run_job
from skewgroup.skew import skew_group_algebra
from skewgroup.theorems import build_context, simple_classes

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
    for r in m.actions(np.eye(2)):
        blocks.append(np.kron(np.eye(2), np.asarray(r).T)
                      - np.kron(np.asarray(r), np.eye(2)))
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    assert int(np.sum(s <= 1e-8 * max(s[0], 1.0))) == 2


def test_hom_space_rejects_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        hom_space(natural_module_m2(), regular_module(group_algebra(2)))


def test_same_algebra_compares_the_constants_however_given():
    """Constants given densely and as shuffled COO are the same algebra; a
    changed value, or one set to zero, makes another."""
    a = random_instance(3).algebra
    c = dense(a)
    order = np.random.default_rng(0).permutation(len(a.nonzeros[3]))
    shuffled = tuple(x[order] for x in a.nonzeros)
    b = make_algebra(a.dim, c, a.unit, tol=a.tol)
    assert same_algebra(a, b) and same_algebra(b, a)
    assert same_algebra(a, make_algebra(a.dim, shuffled, a.unit, tol=a.tol))
    i, j, k = (int(x[0]) for x in a.nonzeros[:3])
    for value in (c[i, j, k] * (1 + 1e-15), 0):
        changed = c.copy()
        changed[i, j, k] = value
        assert not same_algebra(a, unvalidated_algebra(a.dim, changed, a.unit))


def test_is_simple_natural_m2():
    assert is_simple(natural_module_m2())


def test_is_simple_regular_z2_false():
    a = group_algebra(2)
    m = regular_module(a)
    assert not is_simple(m)
    # oracle: the idempotents (1 +- g)/2 split the module into two lines
    for sign in (1.0, -1.0):
        v = np.array([1.0, sign]) / 2.0
        img = m.act(v)
        assert np.linalg.matrix_rank(img) == 1


def test_is_simple_reads_a_regular_modules_commutant(monkeypatch):
    """A regular module's commutant, its right multiplications, has dim A
    elements, so no hom space is solved: at skew dimension 72 that would be
    a dense system of 5,184 unknowns."""
    solved = []

    def spy(m, n):
        solved.append(m)
        return hom_space(m, n)

    monkeypatch.setattr(repmod, "hom_space", spy)
    s = skew_group_algebra(random_instance(2).action).alg
    assert s.dim == 72
    assert not is_simple(regular_module(s))
    assert is_simple(regular_module(matrix_algebra(1)))
    assert solved == []
    m = natural_module_m2()
    assert is_simple(m)
    assert solved == [m]


def test_is_simple_rejects_non_semisimple():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    dual = make_algebra(2, c, [1.0, 0.0], tol=TOL)
    m = regular_module(dual)
    with pytest.raises(NotSemisimple):
        is_simple(m)


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
    dec = decompose(m)
    assert len(dec.pieces) == 1
    assert dec.pieces[0].module.dim == 2


def test_decompose_regular_z3_dft():
    a = group_algebra(3)
    dec = decompose(regular_module(a))
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
    dec = decompose(m)
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
        dec = decompose(reg)
        total = sum(dec.representatives[c].module.dim * dec.multiplicity(c)
                    for c in dec.class_ids())
        assert total == i.algebra.dim
        for p in dec.pieces:
            # invariance: projection residual of the acted basis
            proj = p.basis @ p.basis.conj().T
            for r in reg.actions(np.eye(i.algebra.dim)):
                img = np.asarray(r) @ p.basis
                assert np.linalg.norm(img - proj @ img) <= 1e-7
            assert is_simple(p.module)


@pytest.mark.parametrize("name", ["trivial", "swap", "pauli", "perm", "cyclic",
                                  "random2"])
def test_multiplicity_spaces_match_homs_into_whole_module(inst, name):
    i = random_instance(2) if name == "random2" else inst(name)
    s = skew_group_algebra(i.action).alg
    reg = regular_module(s)
    dec = decompose(reg)
    for cls in dec.class_ids():
        # oracle: homs into the module itself, not into the sum of its pieces
        homs = hom_space(dec.representatives[cls].module, reg)
        assert len(homs) == dec.multiplicity(cls)
        want = orthonormal_column_basis(np.column_stack([f[:, 0] for f in homs]), TOL)
        got = dec.multiplicity_spaces[cls]
        assert got.shape == want.shape
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-8


@pytest.mark.parametrize("name", ["trivial", "swap", "pauli", "perm", "cyclic"])
def test_regular_decomposition_never_solves_its_commutant(inst, monkeypatch, name):
    i = inst(name)
    s = skew_group_algebra(i.action).alg
    reg = regular_module(s)
    # what decompose relies on: End(reg) is the dim A right multiplications
    assert len(hom_space(reg, reg)) == s.dim
    seen = []

    def spy(m, n):
        seen.append((m, n))
        return hom_space(m, n)

    monkeypatch.setattr(repmod, "hom_space", spy)
    decompose(reg)
    assert seen and all(reg is not m and reg is not n for m, n in seen)


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
    dec = decompose(r)
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
    a = group_algebra(2)
    inv = invariant_subspace(regular_module(a))
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
    dec = decompose(reg)
    emb = fixed_subalgebra(i.algebra, i.action)
    built = [natural_module_m2(), m, twist(m, 1, i.action), restrict(m, emb),
             compress(reg, dec.pieces[0].basis), twist(reg, 1, i.action),
             restrict(reg, emb)]
    for mod in built:
        _assert_action_stack(mod)


def test_regular_module_and_direct_sum_store_no_action_stack(inst):
    i = inst("pauli")
    reg = regular_module(i.algebra)
    dec = decompose(reg)
    assert "rho" not in vars(reg)       # decompose reads images and scale
    x = np.arange(1.0, i.algebra.dim + 1)
    assert np.allclose(reg.act(x), i.algebra.left_mult(x), rtol=0, atol=1e-12)
    assert "rho" in vars(reg)
    assert not hasattr(DirectSum(i.algebra, [p.module for p in dec.pieces]),
                       "rho")


@pytest.mark.parametrize("name", ["trivial", "swap", "pauli", "perm", "cyclic"])
def test_twist_and_restrict_of_regular_module_match_its_dense_copy(inst, name):
    i = inst(name)
    a = i.algebra
    reg = regular_module(a)
    dense = make_module(a, reg.actions(np.eye(a.dim)))
    emb = fixed_subalgebra(a, i.action)
    assert np.array_equal(restrict(reg, emb).rho, restrict(dense, emb).rho)
    for g in i.group.elements():
        assert np.array_equal(twist(reg, g, i.action).rho,
                              twist(dense, g, i.action).rho), g


@pytest.mark.parametrize("name", ["pauli", "perm", "random2"])
def test_regular_module_compresses_to_the_left_multiplications(inst, name):
    i = random_instance(2) if name == "random2" else inst(name)
    a = skew_group_algebra(i.action).alg
    reg = regular_module(a)
    dec = decompose(reg)
    eye = np.eye(a.dim)
    for p in dec.pieces:
        sub = compress(reg, p.basis)
        for b in range(a.dim):
            want = p.basis.conj().T @ a.left_mult(eye[:, b]) @ p.basis
            assert np.linalg.norm(sub.rho[b] - want) <= 1e-12
        assert np.array_equal(sub.rho, p.module.rho)


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


def test_compress_names_a_first_failure_in_a_later_block():
    """With k = 2 columns over dim A = 4, compress works in blocks {0, 1} and
    {2, 3}; the first block passes, and both actions of the second fail, the
    first one less."""
    a = matrix_algebra(2)
    rho = np.zeros((4, 4, 4), dtype=np.complex128)
    rho[:] = np.eye(4)
    rho[2, 2, 0] = 0.5        # leaks e_0 out of span(e_0, e_1)
    rho[3, 3, 1] = 2.0
    m = Module(algebra=a, dim=4, rho=rho)
    basis = np.eye(4)[:, :2]
    residuals = [np.linalg.norm(r @ basis - basis @ (basis.T @ r @ basis)) / 2.0
                 for r in rho]
    assert residuals == [0.0, 0.0, 0.25, 1.0]
    with pytest.raises(NotARepresentation,
                       match=re.escape("subspace is not invariant: residual "
                                       "2.500e-01")):
        compress(m, basis)


@pytest.mark.parametrize("kind", ["stored", "regular"])
def test_images_of_a_row_range_are_bitwise_the_full_stack_rows(kind):
    s = skew_group_algebra(random_instance(2).action).alg
    reg = regular_module(s)
    if kind == "stored":
        m = Module(algebra=s, dim=s.dim, rho=reg.actions(np.eye(s.dim)))
    else:
        m = reg
    rng = np.random.default_rng(3)
    basis = rng.standard_normal((m.dim, 5)) + 1j * rng.standard_normal((m.dim, 5))
    full = m.images(basis)
    assert full.shape == (s.dim, m.dim, 5)
    for lo, hi in [(0, s.dim), (0, 1), (5, 17), (70, 72), (30, 30)]:
        assert np.array_equal(m.images(basis, lo, hi), full[lo:hi])


@pytest.mark.parametrize("kind", ["stored", "regular", "compressed"])
def test_rho_is_the_stacked_images_and_act_is_actions(kind):
    s = skew_group_algebra(random_instance(2).action).alg
    reg = regular_module(s)
    m = {"stored": lambda: Module(algebra=s, dim=s.dim,
                                  rho=reg.actions(np.eye(s.dim))),
         "regular": lambda: reg,
         "compressed": lambda: compress(reg, decompose(reg).pieces[0].basis),
         }[kind]()
    assert same_bits(m.rho, m.images(np.eye(m.dim)))
    rng = np.random.default_rng(4)
    for x in (rng.standard_normal(s.dim),
              rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)):
        assert same_bits(m.act(x), m.actions(x))


def test_regular_module_fills_its_stack_without_a_second_copy():
    """Scattered in one shot, the left multiplications of random_instance(2)'s
    skew algebra peaked at 7.02 MB, 1.18 times their 5.97 MB stack; filled
    from images in blocks, they hold little besides the stack."""
    s = skew_group_algebra(random_instance(2).action).alg
    reg = regular_module(s)
    stack_bytes = s.dim ** 3 * 16
    assert stack_bytes == 5_971_968
    assert peak_bytes(lambda: reg.rho) <= 1.1 * stack_bytes


def test_compress_of_the_regular_module_holds_no_full_image_stack():
    """The one-shot compress held the (dim A, d, k) image stack and a second
    temporary its size, 1.04 MB for a 6-dim piece of random_instance(2)'s
    skew algebra; in blocks of ceil(dim A / k) basis elements it holds about
    dim A * d entries besides its (dim A, k, k) result."""
    s = skew_group_algebra(random_instance(2).action).alg
    reg = regular_module(s)
    piece = decompose(reg).pieces[0]
    n, d, k = s.dim, reg.dim, piece.basis.shape[1]
    assert (n, k) == (72, 6)
    compress(reg, piece.basis)
    assert peak_bytes(lambda: compress(reg, piece.basis)) < 4 * (n * d + n * k * k) * 16


def test_compress_rejects_an_empty_basis(inst):
    i = inst("pauli")
    for m in (i.module, regular_module(i.algebra)):
        with pytest.raises(InvalidInput, match="zero-dimensional subspace"):
            compress(m, np.zeros((m.dim, 0)))


def _stored_compress(m, basis):
    """compress as it was when it stored its action: the (dim A, k, k) stack
    filled in blocks of ceil(dim A / k) basis elements."""
    n, k = m.algebra.dim, basis.shape[1]
    step = -(-n // k)
    adjoint = basis.conj().T
    small = np.empty((n, k, k), dtype=np.complex128)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        small[lo:hi] = adjoint @ m.images(basis, lo, hi)
    return Module(algebra=m.algebra, dim=k, rho=small)


def _assert_matches_stored_compress(parent, basis):
    got, want = compress(parent, basis), _stored_compress(parent, basis)
    assert isinstance(got, CompressedModule)
    assert got.generator_actions.tobytes() == want.generator_actions.tobytes()
    assert got.scale == want.scale
    rng = np.random.default_rng(got.dim)
    v = rng.standard_normal((got.dim, 3)) + 1j * rng.standard_normal((got.dim, 3))
    n = parent.algebra.dim
    for lo, hi in [(0, n), (n // 3, n - 1)]:
        assert np.allclose(got.images(v, lo, hi), want.images(v, lo, hi),
                           rtol=0.0, atol=1e-12)
    assert "rho" not in vars(got)        # images never rebuild the stack
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xs = rng.standard_normal((4, n))
    assert got.act(x).tobytes() == want.act(x).tobytes()
    assert got.actions(xs).tobytes() == want.actions(xs).tobytes()
    assert got.rho.tobytes() == want.rho.tobytes()


def _skew_instance(inst, name):
    i = random_instance(int(name[6:])) if name.startswith("random") else inst(name)
    return i, skew_group_algebra(i.action)


REFERENCE_CASES = ["trivial", "swap", "pauli", "perm", "cyclic"] + [
    f"random{s}" for s in range(20)]


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_compressed_pieces_match_the_stored_compress(inst, name):
    i, s = _skew_instance(inst, name)
    for a in (i.algebra, s.alg):
        reg = regular_module(a)
        for p in decompose(reg).pieces:
            _assert_matches_stored_compress(reg, p.basis)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_compressed_pieces_of_stored_modules_match_the_stored_compress(inst, name):
    i, _ = _skew_instance(inst, name)
    ctx = build_context(i.action, i.module)
    for parent in (ctx.restricted, module_over_twisted(ctx.system)):
        for p in decompose(parent).pieces:
            _assert_matches_stored_compress(parent, p.basis)


def test_only_read_pieces_rebuild_their_action_stack():
    """Classifying a piece reads its generator actions and images only; a
    representative whose action is read keeps the rebuilt stack."""
    s = skew_group_algebra(random_instance(2).action)
    dec = simple_classes(s)
    assert not any("rho" in vars(p.module) for p in dec.pieces)
    reps = set(map(id, dec.representatives.values()))
    for p in dec.representatives.values():
        validate_module(p.module)
    assert len(dec.pieces) > len(reps)
    for p in dec.pieces:
        assert ("rho" in vars(p.module)) == (id(p) in reps)


def test_validate_module_names_the_worst_basis_pair():
    rho = np.asarray(natural_module_m2().rho).copy()
    rho[1] *= 2.0             # rho(E01) = 2 E01; the unit is untouched
    a = matrix_algebra(2)
    lhs = np.einsum("iab,jbc->ijac", rho, rho)
    rhs = np.einsum("ijk,kac->ijac", dense(a), rho)
    err = np.abs(lhs - rhs).reshape(a.dim, a.dim, -1).sum(-1)
    i, j = np.unravel_index(int(err.argmax()), err.shape)
    with pytest.raises(NotARepresentation,
                       match=rf"rho\(b_{i}\) rho\(b_{j}\) != rho\(b_{i} b_{j}\)"):
        make_module(a, rho)


def _dense_regular_random19():
    """The regular module of random_instance(19)'s skew algebra (dim 25),
    with its actions stored as a dense (25, 25, 25) stack."""
    s = skew_group_algebra(random_instance(19).action).alg
    rho = np.ascontiguousarray(regular_module(s).actions(np.eye(s.dim)))
    return s, rho


def test_validate_module_works_in_blocks_of_first_indices():
    """The one-shot check held four (dim A)^2 d^2 stacks, 21.9 MB here; in
    blocks of ceil(dim A / d) first indices no stack exceeds (dim A)^2 d."""
    s, rho = _dense_regular_random19()
    m = Module(algebra=s, dim=s.dim, rho=rho)
    assert s.dim == 25
    validate_module(m)
    assert peak_bytes(lambda: validate_module(m)) < 4 * s.dim ** 3 * 16


def test_validate_module_reports_the_global_worst_pair():
    s, rho = _dense_regular_random19()
    rho[2, 0, 1] += 1e-5       # neither basis element is part of the unit
    rho[17, 1, 0] += 1e-2
    # one-shot reference: every pair (i, j) at once
    err = np.abs(np.einsum("iab,jbc->ijac", rho, rho)
                 - np.einsum("ijk,kac->ijac", dense(s), rho)).reshape(s.dim, s.dim, -1)
    worst = float(err.max())
    i, j = np.unravel_index(int(err.sum(-1).argmax()), (s.dim, s.dim))
    scale = s.scale * np.abs(rho).max() ** 2 * s.dim
    # one first index per block (d = dim A); the first failing block is not
    # the worst pair's
    first = int((err.max(axis=(1, 2)) > s.tol * scale).argmax())
    assert first != i
    message = f"rho(b_{i}) rho(b_{j}) != rho(b_{i} b_{j}): residual {worst:.3e}"
    with pytest.raises(NotARepresentation, match=re.escape(message)):
        make_module(s, rho)


def test_validate_module_probes_are_the_vectors_of_one_draw_at_a_time(
        monkeypatch):
    a = matrix_algebra(6)
    assert a.dim > EXHAUSTIVE_DIM_LIMIT
    # the natural module: E_pq acts as the matrix unit E_pq
    rho = np.eye(a.dim).reshape(a.dim, 6, 6)
    seen = record_products(monkeypatch)
    make_module(a, rho)
    expected = probes_one_draw_at_a_time(
        np.random.default_rng(numeric.DEFAULT_SEED), repmod._PROBE_COUNT, 2,
        a.dim)
    assert len(seen) == len(expected)
    for (got_x, got_y), (x, y) in zip(seen, expected):
        assert same_bits(got_x, x) and same_bits(got_y, y)


# Intertwiner systems built from each module's cached generator side.

def _regular_decomposition(inst, name):
    i = random_instance(2) if name == "random2" else inst(name)
    s = skew_group_algebra(i.action).alg
    reg = regular_module(s)
    dec = decompose(reg)
    return s, dec, DirectSum(s, [p.module for p in dec.pieces])


def _same_side(got, want):
    assert got.dim == want.dim
    assert [s for s, _ in got.blocks] == [s for s, _ in want.blocks]
    for (_, x), (_, y) in zip(got.blocks, want.blocks):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


SKEW_CASES = ["trivial", "swap", "pauli", "perm", "cyclic", "random2"]


@pytest.mark.parametrize("name", SKEW_CASES)
def test_sides_solve_bitwise_like_dense_pairs(inst, name):
    s, dec, direct = _regular_decomposition(inst, name)
    gens = s.generator_stack
    dense_direct = reference.block_diagonal([n.actions(gens)
                                             for n in direct.summands])
    systems = [(rep.module, direct, dense_direct)
               for rep in dec.representatives.values()]
    systems += [(p.module, q.module, q.module.generator_actions)
                for p in dec.pieces for q in dec.pieces]
    for m, n, n_dense in systems:
        got = numeric.solve_sandwich(
            numeric.Pairs(m.generator_side, n.generator_side), TOL)
        want = numeric.solve_sandwich(
            list(zip(m.generator_actions, n_dense)), TOL)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", SKEW_CASES)
def test_direct_sum_side_is_the_finest_dense_split(inst, name):
    s, _, direct = _regular_decomposition(inst, name)
    dense_direct = reference.block_diagonal(
        [n.actions(s.generator_stack) for n in direct.summands])
    _same_side(direct.generator_side, numeric.Side.split(dense_direct))


def test_a_direct_sum_is_only_a_side(inst):
    _, dec, direct = _regular_decomposition(inst, "pauli")
    assert not isinstance(direct, Module)
    for cls, rep in dec.representatives.items():
        assert len(hom_space(rep.module, direct)) == dec.multiplicity(cls)


def test_no_task_builds_the_regular_module_stack(monkeypatch):
    def built(self):
        raise AssertionError("regular module stack built")

    monkeypatch.setattr(RegularModule, "rho", property(built))
    job = parse_job(instance_to_job(random_instance(2)))
    assert len(job.tasks) == len(ALL_TASKS)
    results, code = run_job(job)
    assert code == 0, [rep.to_dict() for _, rep, _ in results]


def test_generator_side_is_derived_once_and_shares_the_cached_stack(monkeypatch):
    m = _doubled_natural_m2()
    calls = []
    actions = Module.actions

    def counted(self, xs):
        calls.append(self)
        return actions(self, xs)

    monkeypatch.setattr(Module, "actions", counted)
    assert len(hom_space(m, m)) == len(hom_space(m, m)) == 4
    assert calls == [m]
    stack = m.generator_actions
    assert not stack.flags.writeable
    assert stack.shape == (m.algebra.dim, m.dim, m.dim)
    assert len(m.generator_side.blocks) == 2
    for _, block in m.generator_side.blocks:
        assert np.shares_memory(block, stack)


def test_sides_with_unequal_matrix_counts_are_rejected():
    one = numeric.Side.split(np.eye(2)[None])
    two = numeric.Side.split(np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(InvalidInput, match="1 and 2 matrices"):
        numeric.Pairs(one, two)
    with pytest.raises(InvalidInput, match="different numbers"):
        numeric.Side.direct_sum([one, two])


def test_non_finite_actions_are_rejected_on_their_side():
    with pytest.raises(InvalidInput, match="non-finite"):
        numeric.Side.split(np.array([[[1.0, 0.0], [0.0, np.inf]]]))
    a = matrix_algebra(2)
    rho = np.array(natural_module_m2().rho)
    rho[3, 1, 1] = np.nan
    bad = Module(algebra=a, dim=2, rho=rho)
    with pytest.raises(InvalidInput, match="non-finite"):
        hom_space(natural_module_m2(), bad)
