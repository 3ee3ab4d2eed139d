"""Inertia subgroups, intertwiners, cocycles, and twisted group algebras."""

import gc
import weakref

import numpy as np
import pytest

from skewgroup.algebra import make_algebra, matrix_algebra
from skewgroup.errors import InvalidInput, NotProjective, NotSimple
from skewgroup.group_action import cyclic_group, make_group
from skewgroup.projective import (
    Cocycle,
    contragredient,
    extract_cocycle,
    inertia,
    module_over_twisted,
    projective_isotypics,
    twisted_group_algebra,
)
from skewgroup.repmod import (
    Module,
    decompose,
    hom_space,
    make_module,
    regular_module,
)

TOL = 1e-9


@pytest.mark.parametrize("name", ["swap", "pauli", "perm", "cyclic"])
def test_inertia_twists_each_group_element_once(inst, monkeypatch, name):
    """The intertwiner check reads the twists that the hom spaces were
    solved on: m's actions are formed once per group element, not again
    for each member of the inertia subgroup."""
    i = inst(name)
    m = i.module
    m.generator_side                    # formed before counting
    calls = []
    act = Module.act

    def counted(self, xs):
        if self is m:
            calls.append(xs)
        return act(self, xs)

    monkeypatch.setattr(Module, "act", counted)
    system = inertia(m, i.action)
    assert len(system.inertia_members) >= 1
    assert len(calls) == i.group.order


def test_inertia_trivial_group(inst):
    i = inst("trivial")
    system = inertia(i.module, i.action)
    assert system.inertia_members == (0,)
    assert np.allclose(system.cocycle.table, 1.0)


def test_inertia_pauli_full(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    assert system.inertia_members == (0, 1, 2, 3)
    # phi(1) is exactly the identity
    assert np.array_equal(system.phi[0], np.eye(2, dtype=np.complex128))


def test_inertia_swap_trivial(inst):
    i = inst("swap")
    system = inertia(i.module, i.action)
    assert system.inertia_members == (0,)


def test_inertia_rejects_non_simple():
    # the regular module of C[Z/2] is not simple
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 0] = 1.0
    from skewgroup.group_action import make_action
    a = make_algebra(2, c, [1.0, 0.0], tol=TOL)
    g = make_group([[0, 1], [1, 0]])
    action = make_action(g, a, [np.eye(2), np.eye(2)])
    with pytest.raises(NotSimple):
        inertia(regular_module(a), action)


def test_intertwiner_relation(inst):
    for name in ("pauli", "perm", "cyclic"):
        i = inst(name)
        system = inertia(i.module, i.action)
        m = i.module
        a = m.algebra
        for local, h in enumerate(system.inertia_members):
            hinv = i.group.inv(h)
            for k in range(a.dim):
                acted = i.action.mats[hinv][:, k]
                lhs = system.phi[local] @ m.act(acted)
                rhs = m.act(np.eye(a.dim)[:, k]) @ system.phi[local]
                assert np.linalg.norm(lhs - rhs) <= 1e-7


def test_extract_cocycle_pauli_sign():
    # explicit intertwiners for conjugation by I, X, Z, XZ on C^2
    table = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    g = make_group(table)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    phi = (np.eye(2, dtype=np.complex128), x, z, x @ z)
    coc = extract_cocycle(phi, g, TOL)
    assert coc.table[1, 2] == pytest.approx(1.0)
    assert coc.table[2, 1] == pytest.approx(-1.0)     # ZX = -XZ
    assert np.all(coc.table[0, :] == 1.0)
    assert np.all(coc.table[:, 0] == 1.0)


def test_extract_cocycle_trivial_group():
    g = make_group([[0]])
    coc = extract_cocycle((np.eye(3, dtype=np.complex128),), g, TOL)
    assert coc.table.shape == (1, 1)
    assert coc.table[0, 0] == 1.0


def test_extract_cocycle_rejects_non_projective():
    g = make_group([[0, 1], [1, 0]])
    # phi(1)^2 is not proportional to phi(0) = I
    bad = (np.eye(2, dtype=np.complex128),
           np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128))
    with pytest.raises(NotProjective):
        extract_cocycle(bad, g, TOL)


@pytest.mark.parametrize("entry", [np.nan, complex(1.0, np.nan), 1.0 + 1e-15])
def test_extract_cocycle_rejects_an_identity_intertwiner_that_is_not_exact(entry):
    # a NaN has no residual that exceeds zero; it must still be rejected
    g = make_group([[0, 1], [1, 0]])
    ident = np.eye(2, dtype=np.complex128)
    ident[0, 0] = entry
    with pytest.raises(InvalidInput, match="exactly the identity"):
        extract_cocycle((ident, np.eye(2, dtype=np.complex128)), g, TOL)


def test_cocycle_identity_all_fixtures(inst):
    for name in ("trivial", "swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        system = inertia(i.module, i.action)
        assert system.cocycle.validate(1e-8) <= 1e-8


def test_twisted_group_algebra_trivial_cocycle():
    g = cyclic_group(3)
    a = twisted_group_algebra(g.trivial_cocycle, 1, matrix_algebra(1))
    assert a.dim == 3
    # plain group algebra: c_1 c_1 = c_2
    assert np.allclose(a.product(np.eye(3)[:, 1], np.eye(3)[:, 1]),
                       np.eye(3)[:, 2])


def test_twisted_group_algebra_pauli(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    tw = twisted_group_algebra(system.cocycle, 1, i.algebra)
    assert tw.dim == 4
    dec = decompose(regular_module(tw))
    # a single 2-dim simple class of multiplicity 2: the algebra is M_2
    assert len(dec.class_ids()) == 1
    cls = dec.class_ids()[0]
    assert dec.representatives[cls].module.dim == 2
    assert dec.multiplicity(cls) == 2


def test_twisted_group_algebras_are_built_once_per_cocycle(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    w = module_over_twisted(system)
    assert w.algebra is twisted_group_algebra(system.cocycle, 1, i.algebra)
    dual = contragredient(w, system.cocycle)
    assert dual.algebra is twisted_group_algebra(system.cocycle, -1, i.algebra)
    assert dual.algebra is not w.algebra
    other = twisted_group_algebra(
        system.cocycle, 1, make_algebra(1, np.ones((1, 1, 1)), [1], tol=1e-7))
    assert other is not w.algebra and other.tol == 1e-7
    fresh = Cocycle(group=system.cocycle.group, table=system.cocycle.table)
    assert twisted_group_algebra(fresh, 1, i.algebra) is not w.algebra


def test_plain_group_algebra_is_built_once_per_group():
    g = cyclic_group(3)
    plain = twisted_group_algebra(g.trivial_cocycle, 1, matrix_algebra(1))
    assert g.trivial_cocycle is g.trivial_cocycle
    assert twisted_group_algebra(g.trivial_cocycle, 1,
                                 matrix_algebra(1)) is plain
    assert cyclic_group(3).trivial_cocycle is not g.trivial_cocycle
    # kept with the group, and freed with it
    cocycle = weakref.ref(g.trivial_cocycle)
    del g, plain
    gc.collect()
    assert cocycle() is None


def test_twisted_group_algebra_rejects_bad_exponent():
    g = cyclic_group(2)
    with pytest.raises(InvalidInput):
        twisted_group_algebra(g.trivial_cocycle, 2, matrix_algebra(1))


def test_module_over_twisted_pauli(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    m = module_over_twisted(system)
    assert m.dim == 2
    from skewgroup.repmod import is_simple
    assert is_simple(m)


def test_module_over_twisted_coboundary_equivalence(inst):
    # rescaling phi by a scalar function with beta(1)=1 changes the cocycle by
    # a coboundary; undoing the scale recovers a module over the original
    # algebra isomorphic to the original one.
    i = inst("pauli")
    system = inertia(i.module, i.action)
    beta = np.array([1.0, -1.0, 1.0, -1.0])
    phi2 = tuple(beta[h] * system.phi[h] for h in range(4))
    coc2 = extract_cocycle(phi2, system.cocycle.group, TOL)
    alg2 = twisted_group_algebra(coc2, 1, i.algebra)
    make_module(alg2, phi2)                       # validates
    undone = tuple(phi2[h] / beta[h] for h in range(4))
    original = module_over_twisted(system)
    renorm = make_module(original.algebra, undone)
    assert len(hom_space(renorm, original)) == 1


def test_contragredient_dual_line():
    g = make_group([[0]])
    alg = twisted_group_algebra(g.trivial_cocycle, 1, matrix_algebra(1))
    w = make_module(alg, [np.eye(1)])
    wd = contragredient(w, g.trivial_cocycle)
    assert wd.dim == 1


def test_contragredient_dimensions_and_double_dual(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    w = module_over_twisted(system)
    wd = contragredient(w, system.cocycle)
    assert wd.dim == w.dim
    # wd is a module over the inverse-cocycle algebra, so it dualizes back
    # with the inverse cocycle
    inverse = Cocycle(group=system.cocycle.group,
                      table=1.0 / system.cocycle.table)
    wdd = contragredient(wd, inverse)
    assert len(hom_space(wdd, w)) >= 1


def test_projective_isotypics_trivial(inst):
    i = inst("trivial")
    system = inertia(i.module, i.action)
    dec = projective_isotypics(system)
    assert len(dec.class_ids()) == 1
    cls = dec.class_ids()[0]
    assert dec.multiplicity_spaces[cls].shape[1] == 1


def test_projective_isotypics_pauli(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    dec = projective_isotypics(system)
    assert len(dec.class_ids()) == 1
    cls = dec.class_ids()[0]
    assert dec.representatives[cls].module.dim == 2
    assert dec.multiplicity_spaces[cls].shape[1] == 1


def test_projective_isotypics_dimension_sum(inst):
    for name in ("trivial", "swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        system = inertia(i.module, i.action)
        dec = projective_isotypics(system)
        total = sum(dec.representatives[c].module.dim
                    * dec.multiplicity_spaces[c].shape[1]
                    for c in dec.class_ids())
        assert total == i.module.dim


def test_multiplicity_spaces_invariant_under_fixed_subalgebra(inst):
    # each multiplicity subspace is a module for the invariant subalgebra:
    # acting by any fixed element keeps it inside itself
    from skewgroup.algebra import fixed_subalgebra
    for name in ("pauli", "swap", "cyclic"):
        i = inst(name)
        system = inertia(i.module, i.action)
        dec = projective_isotypics(system)
        fixed = fixed_subalgebra(i.algebra, i.action)
        for cls in dec.class_ids():
            basis = dec.multiplicity_spaces[cls]
            proj = basis @ basis.conj().T
            for t in range(fixed.sub.dim):
                img = i.module.act(fixed.inclusion[:, t]) @ basis
                assert np.linalg.norm(img - proj @ img) <= 1e-7


def test_cocycle_validate_rejects_unnormalized():
    g = cyclic_group(2)
    table = np.ones((2, 2), dtype=np.complex128)
    table[0, 1] = 2.0
    with pytest.raises(NotProjective):
        Cocycle(group=g, table=table).validate(TOL)
