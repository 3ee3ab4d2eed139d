"""The skew product algebra, corner maps, induction, and extensions."""

import numpy as np
import pytest

from skewgroup.algebra import (
    corner_algebra,
    fixed_subalgebra,
    make_algebra,
    matrix_algebra,
)
from skewgroup.errors import CocycleMismatch, ModuleAlgebraMismatch
from skewgroup.group_action import cyclic_group, make_action
from skewgroup.projective import (
    contragredient,
    inertia,
    module_over_twisted,
    projective_isotypics,
)
from skewgroup.repmod import (
    decompose,
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
from skewgroup.theorems import simple_classes

TOL = 1e-9


def _skew(i):
    return skew_group_algebra(i.algebra, i.group, i.action, seed=1)


def test_skew_trivial_group_exact_relabel(inst):
    i = inst("trivial")
    s = _skew(i)
    assert np.array_equal(s.alg.mult, i.algebra.mult)


def test_skew_of_field_is_group_algebra():
    f = make_algebra(1, np.ones((1, 1, 1)), [1.0], tol=TOL)
    g = cyclic_group(3)
    action = make_action(g, f, [np.eye(1)] * 3)
    s = skew_group_algebra(f, g, action, seed=1)
    assert s.alg.dim == 3
    # the skew product degenerates to the group product: g1 * g1 = g2
    assert np.allclose(s.alg.product(s.embed_group(1), s.embed_group(1)),
                       s.embed_group(2))


def test_skew_swap_single_simple_class(inst):
    i = inst("swap")
    s = _skew(i)
    assert s.alg.dim == 16
    dec = simple_classes(s, 1)
    # oracle: decompose the regular module and count classes
    assert len(dec.class_ids()) == 1
    cls = dec.class_ids()[0]
    assert dec.representatives[cls].module.dim == 4       # A x| G = M_4


@pytest.mark.parametrize("name", ["swap", "pauli", "perm", "cyclic"])
def test_restriction_to_base_matches_acting_by_embedded_basis(inst, name):
    s = _skew(inst(name))
    eye = np.eye(s.base.dim)
    for cls, piece in simple_classes(s, 1).representatives.items():
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
        result = check_phi_psi(s, fixed)
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
    dec = simple_classes(s, 1)
    n = dec.representatives[dec.class_ids()[0]].module
    en, _ = corner_module(n, corner, e)
    assert en.dim == 2
    assert is_simple(en, seed=1)


def test_induce_full_subgroup(inst):
    i = inst("pauli")
    s = _skew(i)
    n = regular_module(s.alg)
    ind = induce(n, s, range(i.group.order))
    assert ind.dim == n.dim
    for a, b in zip(ind.rho, n.rho):
        assert np.allclose(np.asarray(a), np.asarray(b), atol=1e-9)


def test_induce_swap_from_trivial_subgroup(inst):
    i = inst("swap")
    s = _skew(i)
    ssub, members = sub_skew(s, [i.group.identity])
    m = make_module(ssub.alg, i.module.rho)
    ind = induce(m, s, members, sub=ssub)
    assert ind.dim == 4                                  # [G:H] * dim M
    assert is_simple(ind, seed=1)


def test_induce_dimension_law(inst):
    i = inst("perm")
    s = _skew(i)
    system = inertia(i.module, i.action, seed=1)
    ssub, members = sub_skew(s, system.inertia_members)
    dec = projective_isotypics(system, 1)
    cls = dec.class_ids()[0]
    w = dec.representatives[cls].module
    wdual = contragredient(w, system.inertia_group, system.cocycle, 1)
    ext = extend_to_skew(i.module, system, wdual, ssub)
    ind = induce(ext, s, members, sub=ssub)
    index = i.group.order // system.inertia_group.order
    assert ind.dim == index * i.module.dim * w.dim


def test_induce_rejects_wrong_algebra(inst):
    i = inst("pauli")
    s = _skew(i)
    # a module over the base algebra is not a module over A x| G itself
    with pytest.raises(ModuleAlgebraMismatch):
        induce(i.module, s, range(i.group.order))


def test_extend_to_skew_trivial(inst):
    i = inst("trivial")
    s = _skew(i)
    system = inertia(i.module, i.action, seed=1)
    w = module_over_twisted(system)
    wdual = contragredient(w, system.inertia_group, system.cocycle, 1)
    ext = extend_to_skew(i.module, system, wdual, s)
    assert ext.dim == i.module.dim * wdual.dim


def test_extend_to_skew_pauli(inst):
    i = inst("pauli")
    s = _skew(i)
    system = inertia(i.module, i.action, seed=1)
    dec = projective_isotypics(system, 1)
    w = dec.representatives[dec.class_ids()[0]].module
    wdual = contragredient(w, system.inertia_group, system.cocycle, 1)
    ext = extend_to_skew(i.module, system, wdual, s)
    assert ext.dim == 4            # validated 4-dim module over M_2 x| (Z/2)^2


def test_extend_to_skew_rejects_wrong_cocycle(inst):
    i = inst("pauli")
    s = _skew(i)
    system = inertia(i.module, i.action, seed=1)
    # a plain group-algebra module is the wrong input: its algebra carries
    # the trivial cocycle, not the inverse of the extracted one (which has
    # genuine -1 entries for this instance)
    from skewgroup.projective import trivial_cocycle, twisted_group_algebra
    plain = twisted_group_algebra(system.inertia_group,
                                  trivial_cocycle(system.inertia_group), -1, TOL)
    v = make_module(plain, [np.eye(1)] * 4)
    with pytest.raises(CocycleMismatch):
        extend_to_skew(i.module, system, v, s)


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
