"""The skew product algebra, corner maps, induction, and extensions."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import dense

from skewgroup.algebra import (
    corner_algebra,
    fixed_subalgebra,
    make_algebra,
    matrix_algebra,
)
from skewgroup.errors import AlgebraMismatch, CocycleMismatch, InvalidInput
from skewgroup.fixtures import random_instance
from skewgroup.group_action import left_cosets
from skewgroup.group_action import cyclic_group, make_action
from skewgroup.projective import (
    contragredient,
    inertia,
    module_over_twisted,
    projective_isotypics,
    twisted_group_algebra,
)
from skewgroup.repmod import (
    compress,
    decompose,
    invariant_subspace,
    is_simple,
    make_module,
    regular_module,
    restrict,
)
from skewgroup.skew import (
    check_phi_psi,
    corner_module,
    extend_to_skew,
    induce,
    skew_group_algebra,
    sub_skew,
    symmetrizer,
)
from skewgroup.theorems import (
    build_context,
    hom_inv_check,
    main_theorem,
    simple_classes,
)

TOL = 1e-9


def _skew(i):
    return skew_group_algebra(i.action)


def test_skew_trivial_group_exact_relabel(inst):
    i = inst("trivial")
    s = _skew(i)
    assert np.array_equal(dense(s.alg), dense(i.algebra))


def test_skew_of_field_is_group_algebra():
    f = make_algebra(1, np.ones((1, 1, 1)), [1.0], tol=TOL)
    g = cyclic_group(3)
    action = make_action(g, f, [np.eye(1)] * 3)
    s = skew_group_algebra(action)
    assert s.alg.dim == 3
    # the skew product degenerates to the group product: g1 * g1 = g2
    assert np.allclose(s.alg.product(s.embed_group(1), s.embed_group(1)),
                       s.embed_group(2))


def test_skew_swap_single_simple_class(inst):
    i = inst("swap")
    s = _skew(i)
    assert s.alg.dim == 16
    dec = simple_classes(s)
    # oracle: decompose the regular module and count classes
    assert len(dec.class_ids()) == 1
    cls = dec.class_ids()[0]
    assert dec.representatives[cls].module.dim == 4       # A x| G = M_4


@pytest.mark.parametrize("name", ["swap", "pauli", "perm", "cyclic"])
def test_restriction_to_base_matches_acting_by_embedded_basis(inst, name):
    s = _skew(inst(name))
    eye = np.eye(s.base.dim)
    for cls, piece in simple_classes(s).representatives.items():
        n = piece.module
        rest = restrict(n, s.base_embedding())
        assert rest.algebra is s.base
        reference = [n.act(s.embed_base(eye[:, i])) for i in range(s.base.dim)]
        assert np.array_equal(rest.rho, np.array(reference)), cls


def test_skew_product_rule(inst):
    # (b_i g)(b_j h) = (b_i g(b_j)) gh on basis elements
    i = inst("pauli")
    s = _skew(i)
    da, ng = i.algebra.dim, i.group.order
    rng = np.random.default_rng(7)
    for _ in range(20):
        bi, bj = rng.integers(0, da, size=2)
        g, h = rng.integers(0, ng, size=2)
        x = np.zeros(s.alg.dim)
        x[s.index(bi, g)] = 1.0
        y = np.zeros(s.alg.dim)
        y[s.index(bj, h)] = 1.0
        lhs = s.alg.product(x, y)
        acted = i.action.mats[g][:, bj]
        coeffs = i.algebra.product(np.eye(da)[:, bi], acted)
        expected = np.zeros(s.alg.dim, dtype=np.complex128)
        expected[i.group.mul(g, h)::ng] = coeffs
        assert np.allclose(lhs, expected)


def test_symmetrizer_idempotent_and_trivial(inst):
    for name in ("trivial", "swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        s = _skew(i)
        e = symmetrizer(s)
        assert np.linalg.norm(s.alg.product(e, e) - e) <= 1e-10
        if i.group.order == 1:
            assert np.allclose(e, s.alg.unit)


def test_symmetrizer_commutes_with_invariants_and_group(inst):
    for name in ("swap", "pauli", "cyclic"):
        i = inst(name)
        s = _skew(i)
        e = symmetrizer(s)
        fixed = fixed_subalgebra(i.algebra, i.action)
        for t in range(fixed.sub.dim):
            x = s.embed_base(fixed.inclusion[:, t])
            assert np.linalg.norm(s.alg.product(e, x)
                                  - s.alg.product(x, e)) <= 1e-9
        for g in range(i.group.order):
            x = s.embed_group(g)
            assert np.linalg.norm(s.alg.product(e, x)
                                  - s.alg.product(x, e)) <= 1e-9


def test_phi_psi_all_fixtures(inst):
    expected_dims = {"trivial": 1, "swap": 4, "pauli": 1, "perm": 1, "cyclic": 2}
    for name, dim in expected_dims.items():
        i = inst(name)
        s = _skew(i)
        fixed = fixed_subalgebra(i.algebra, i.action)
        result = check_phi_psi(s)
        assert result.passed, name
        assert fixed.sub.dim == dim, name
        assert result.corner.sub.dim == dim, name
        assert result.phi_mult_residual <= 1e-8


def test_corner_module_trivial_group(inst):
    i = inst("trivial")
    s = _skew(i)
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    n = regular_module(s.alg)
    en, basis = corner_module(n, corner, e)
    assert en is not None
    assert en.dim == n.dim


def test_corner_module_swap(inst):
    i = inst("swap")
    s = _skew(i)
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    dec = simple_classes(s)
    n = dec.representatives[dec.class_ids()[0]].module
    en, _ = corner_module(n, corner, e)
    assert en.dim == 2
    assert is_simple(en)


def test_corner_module_rejects_a_module_over_another_algebra(inst):
    i = inst("swap")
    s = _skew(i)
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    with pytest.raises(AlgebraMismatch):
        corner_module(regular_module(i.algebra), corner, e)


def test_induce_full_subgroup(inst):
    i = inst("pauli")
    s = _skew(i)
    n = regular_module(s.alg)
    ssub = sub_skew(s, range(i.group.order))
    ind = induce(n, s, ssub)
    assert ind.dim == n.dim
    for a, b in zip(ind.rho, n.act(np.eye(s.alg.dim))):
        assert np.allclose(np.asarray(a), np.asarray(b), atol=1e-9)


def test_induce_swap_from_trivial_subgroup(inst):
    i = inst("swap")
    s = _skew(i)
    ssub = sub_skew(s, [i.group.identity])
    m = make_module(ssub.alg, i.module.rho)
    ind = induce(m, s, ssub)
    assert ind.dim == 4                                  # [G:H] * dim M
    assert is_simple(ind)


def test_induce_dimension_law(inst):
    i = inst("perm")
    s = _skew(i)
    system = inertia(i.module, i.action)
    ssub = sub_skew(s, system.inertia_members)
    dec = projective_isotypics(system)
    cls = dec.class_ids()[0]
    w = dec.representatives[cls].module
    wdual = contragredient(w, system.cocycle)
    ext = extend_to_skew(system, wdual, ssub)
    ind = induce(ext, s, ssub)
    index = i.group.order // system.cocycle.group.order
    assert ind.dim == index * i.module.dim * w.dim


def test_induce_rejects_wrong_algebra(inst):
    i = inst("pauli")
    s = _skew(i)
    ssub = sub_skew(s, range(i.group.order))
    # a module over the base algebra is not a module over A x| G itself
    with pytest.raises(AlgebraMismatch):
        induce(i.module, s, ssub)


def _induce_by_loops(m, s, sub):
    """Induction action written entry by entry: the block of g at (l, i),
    g g_i = g_l h, is sum_p mats[g_l^{-1}][p, j] rho(b_p h) for each j."""
    group, members = s.group, sub.members
    reps = left_cosets(group, members)
    local = {h: t for t, h in enumerate(members)}
    coset_of = {group.mul(r, h): l for l, r in enumerate(reps) for h in members}
    d, nh, da = m.dim, len(members), s.base.dim
    stack = m.act(np.eye(m.algebra.dim))
    rho = []
    for j in range(da):
        for g in group.elements():
            mat = np.zeros((len(reps) * d,) * 2, dtype=np.complex128)
            for i, gi in enumerate(reps):
                w = group.mul(g, gi)
                l = coset_of[w]
                h = group.mul(group.inv(reps[l]), w)
                acoords = s.action.mats[group.inv(reps[l])][:, j]
                block = np.zeros((d, d), dtype=np.complex128)
                for p in range(da):
                    if acoords[p] != 0:
                        block += acoords[p] * stack[p * nh + local[h]]
                mat[l * d:(l + 1) * d, i * d:(i + 1) * d] = block
            rho.append(mat)
    return np.array(rho)


def _assert_induce_matches_loops(m, s, sub):
    ind = induce(m, s, sub)
    assert np.allclose(ind.act(np.eye(s.alg.dim)),
                       _induce_by_loops(m, s, sub), rtol=0, atol=1e-12)
    return ind


@pytest.mark.parametrize("name", ["trivial", "swap", "pauli", "perm", "cyclic",
                                  *range(20)])
def test_induce_matches_the_loop_reference(inst, name):
    i = random_instance(name) if isinstance(name, int) else inst(name)
    s = _skew(i)
    # the trivial subgroup: A x| {1} has the basis of A
    trivial = sub_skew(s, [i.group.identity])
    _assert_induce_matches_loops(make_module(trivial.alg, i.module.rho), s,
                                 trivial)
    # the inertia subgroup, on M (x) W*, and the whole group, on its induction
    system = inertia(i.module, i.action)
    dec = projective_isotypics(system)
    w = dec.representatives[dec.class_ids()[0]].module
    ssub = sub_skew(s, system.inertia_members)
    ext = extend_to_skew(system, contragredient(w, system.cocycle), ssub)
    ind = _assert_induce_matches_loops(ext, s, ssub)
    _assert_induce_matches_loops(ind, s, s)


def test_sub_skew_knows_its_subgroup(inst):
    i = inst("perm")
    s = _skew(i)
    assert s.members == tuple(range(i.group.order))
    sub = sub_skew(s, [2, 0])
    assert sub.members == (0, 2)
    assert sub.group.order == 2 and sub.base is s.base


def test_extend_to_skew_rejects_a_sub_skew_algebra_of_another_subgroup(inst):
    # the inertia subgroup of perm is {0, 2}; {0, 1} is another Z/2, with
    # the same multiplication table
    i = inst("perm")
    s = _skew(i)
    system = inertia(i.module, i.action)
    assert system.inertia_members == (0, 2)
    other = sub_skew(s, (0, 1))
    assert np.array_equal(other.group.table, system.cocycle.group.table)
    w = module_over_twisted(system)
    with pytest.raises(InvalidInput, match="inertia subgroup"):
        extend_to_skew(system, contragredient(w, system.cocycle), other)


def test_extend_to_skew_trivial(inst):
    i = inst("trivial")
    s = _skew(i)
    system = inertia(i.module, i.action)
    w = module_over_twisted(system)
    wdual = contragredient(w, system.cocycle)
    ext = extend_to_skew(system, wdual, s)
    assert ext.dim == i.module.dim * wdual.dim


def test_extend_to_skew_pauli(inst):
    i = inst("pauli")
    s = _skew(i)
    system = inertia(i.module, i.action)
    dec = projective_isotypics(system)
    w = dec.representatives[dec.class_ids()[0]].module
    wdual = contragredient(w, system.cocycle)
    ext = extend_to_skew(system, wdual, s)
    assert ext.dim == 4            # validated 4-dim module over M_2 x| (Z/2)^2


def test_extend_to_skew_rejects_wrong_cocycle(inst):
    i = inst("pauli")
    s = _skew(i)
    system = inertia(i.module, i.action)
    # a plain group-algebra module is the wrong input: its algebra carries
    # the trivial cocycle, not the inverse of the extracted one (which has
    # genuine -1 entries for this instance)
    plain = twisted_group_algebra(system.cocycle.group.trivial_cocycle, -1,
                                  i.algebra)
    v = make_module(plain, [np.eye(1)] * 4)
    with pytest.raises(CocycleMismatch):
        extend_to_skew(system, v, s)


def test_embed_maps_multiplicative(inst):
    i = inst("cyclic")
    s = _skew(i)
    da = i.algebra.dim
    for p in range(da):
        for q in range(da):
            lhs = s.alg.product(s.embed_base(np.eye(da)[:, p]),
                                s.embed_base(np.eye(da)[:, q]))
            rhs = s.embed_base(i.algebra.product(np.eye(da)[:, p],
                                                 np.eye(da)[:, q]))
            assert np.allclose(lhs, rhs)
    for g in range(i.group.order):
        for h in range(i.group.order):
            lhs = s.alg.product(s.embed_group(g), s.embed_group(h))
            rhs = s.embed_group(i.group.mul(g, h))
            assert np.allclose(lhs, rhs)


def _dense_copy(m):
    return make_module(m.algebra, m.act(np.eye(m.algebra.dim)))


def _assert_same_actions(x, y):
    eye = np.eye(x.algebra.dim)
    assert x.dim == y.dim
    assert np.allclose(x.act(eye), y.act(eye), atol=1e-12)


def test_functions_taking_a_module_accept_implicit_ones(inst):
    # each reads the action stack that a regular module (or, for M, a
    # compressed one) builds on first read, and gives what it gives for a
    # dense copy of the same module
    pauli = inst("pauli")
    system = inertia(pauli.module, pauli.action)
    m = regular_module(twisted_group_algebra(system.cocycle, 1, pauli.algebra))
    _assert_same_actions(contragredient(m, system.cocycle),
                         contragredient(_dense_copy(m), system.cocycle))
    reports = [hom_inv_check(x, x, system.cocycle)
               for x in (m, _dense_copy(m))]
    assert reports[0].passed
    assert reports[0].to_dict() == reports[1].to_dict()
    plain = twisted_group_algebra(system.cocycle.group.trivial_cocycle, 1,
                                  pauli.algebra)
    m = regular_module(plain)
    fixed = invariant_subspace(m)
    assert fixed.shape[1] == m.dim // plain.dim
    assert np.allclose(fixed, invariant_subspace(_dense_copy(m)))

    s = _skew(pauli)
    v = regular_module(twisted_group_algebra(system.cocycle, -1, pauli.algebra))
    whole = np.eye(pauli.module.dim, dtype=np.complex128)
    implicit_m = replace(system, module=compress(pauli.module, whole))
    _assert_same_actions(extend_to_skew(implicit_m, v, s),
                         extend_to_skew(system, _dense_copy(v), s))
    ctxs = [build_context(pauli.action, m)
            for m in (implicit_m.module, pauli.module)]
    assert main_theorem(ctxs[0]).to_dict() == main_theorem(ctxs[1]).to_dict()

    swap = inst("swap")
    s = _skew(swap)
    ssub = sub_skew(s, [swap.group.identity])
    m = regular_module(ssub.alg)
    _assert_same_actions(induce(m, s, ssub), induce(_dense_copy(m), s, ssub))
    e = symmetrizer(s)
    corner = corner_algebra(s.alg, e)
    m = regular_module(s.alg)
    en, basis = corner_module(m, corner, e)
    dense_en, dense_basis = corner_module(_dense_copy(m), corner, e)
    assert np.allclose(basis, dense_basis)
    _assert_same_actions(en, dense_en)
