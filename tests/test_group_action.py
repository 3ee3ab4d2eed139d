"""Finite groups, automorphism actions, and coset decompositions."""

import numpy as np
import pytest

from skewgroup.algebra import fixed_subalgebra, matrix_algebra
from skewgroup.errors import (
    NoIdentity,
    NotASubgroup,
    NotAutomorphism,
    NotHomomorphism,
)
from skewgroup.group_action import (
    cyclic_group,
    group_from_permutations,
    left_cosets,
    make_action,
    make_group,
)
from skewgroup.projective import subgroup_as_group

TOL = 1e-9


def test_make_group_trivial():
    g = make_group([[0]])
    assert g.order == 1
    assert g.identity == 0


def test_make_group_z2():
    g = make_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv(1) == 1


def test_make_group_no_identity():
    with pytest.raises(NoIdentity):
        make_group([[0, 0], [0, 0]])


def test_cyclic_group_inverses():
    g = cyclic_group(5)
    for i in range(5):
        assert g.mul(i, g.inv(i)) == g.identity


def test_make_action_trivial():
    a = matrix_algebra(2)
    action = make_action(make_group([[0]]), a, [np.eye(4)])
    assert len(action.mats) == 1


def test_make_action_pauli_conjugation(inst):
    i = inst("pauli")
    assert i.group.order == 4
    # oracle: conjugation by X on matrix units, computed by hand.
    # X E00 X^{-1} = E11, X E01 X^{-1} = E10.
    x_mat = i.action.mats[1]
    e00 = np.eye(4)[:, 0]
    e01 = np.eye(4)[:, 1]
    assert np.allclose(x_mat @ e00, np.eye(4)[:, 3])
    assert np.allclose(x_mat @ e01, np.eye(4)[:, 2])
    # the action is a genuine Z/2 x Z/2: every non-identity element squares
    # to the identity (the conjugating signs cancel)
    for g in range(4):
        assert np.allclose(i.action.mats[g] @ i.action.mats[g], np.eye(4))


def test_make_action_swap_involution(inst):
    i = inst("swap")
    swap = i.action.mats[1]
    assert np.allclose(swap @ swap, np.eye(8))
    # oracle: it is the block-coordinate permutation
    expected = np.zeros((8, 8))
    expected[:4, 4:] = np.eye(4)
    expected[4:, :4] = np.eye(4)
    assert np.allclose(swap, expected)


def test_make_action_rejects_non_homomorphism():
    a = matrix_algebra(2)
    g = make_group([[0, 1], [1, 0]])
    with pytest.raises(NotHomomorphism):
        make_action(g, a, [np.eye(4), 2.0 * np.eye(4)])


def test_make_action_rejects_non_automorphism():
    a = matrix_algebra(2)
    g = make_group([[0, 1], [1, 0]])
    # transposition of the two off-diagonal matrix units is an involutive
    # linear map fixing the unit but not an algebra map composed with a sign
    m = np.eye(4)
    m[1, 1] = m[2, 2] = 0.0
    m[1, 2] = m[2, 1] = -1.0
    with pytest.raises(NotAutomorphism):
        make_action(g, a, [np.eye(4), m])


def test_make_action_names_the_worst_basis_pair():
    a = matrix_algebra(2)
    g = make_group([[0, 1], [1, 0]])
    # an oblique reflection fixing the unit: linear, of order two, and not
    # multiplicative, with one worst basis pair that is not symmetric
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    v -= (v @ a.unit.real) / 2 * a.unit.real
    m = np.eye(4) - 2 * np.outer(u, v) / (v @ u)
    lhs = np.einsum("ijk,lk->ijl", a.mult, m)
    rhs = np.einsum("ai,bj,abl->ijl", m, m, a.mult)
    err = np.abs(lhs - rhs).sum(axis=2)
    pair = tuple(int(t) for t in np.unravel_index(int(err.argmax()), err.shape))
    assert pair == (2, 1) and err[1, 2] < err[2, 1]
    with pytest.raises(NotAutomorphism,
                       match=rf"element 1 is not multiplicative at basis pair "
                             rf"\({pair[0]}, {pair[1]}\)"):
        make_action(g, a, [np.eye(4), m])


def test_left_cosets_full_subgroup():
    g = cyclic_group(4)
    assert left_cosets(g, range(4)) == [0]


def test_left_cosets_trivial_subgroup():
    g = cyclic_group(4)
    assert left_cosets(g, [0]) == [0, 1, 2, 3]


def test_left_cosets_s3_order_two():
    g, elems = group_from_permutations([(1, 0, 2), (0, 2, 1)])
    assert g.order == 6
    # pick an order-2 element
    h = next(i for i in range(1, 6) if g.mul(i, i) == g.identity)
    reps = left_cosets(g, [g.identity, h])
    assert len(reps) == 3
    assert reps[0] == g.identity
    # oracle: brute coset enumeration
    cosets = set()
    for x in range(6):
        cosets.add(frozenset({g.mul(x, g.identity), g.mul(x, h)}))
    assert len(cosets) == 3
    rep_cosets = {frozenset({g.mul(r, g.identity), g.mul(r, h)}) for r in reps}
    assert rep_cosets == cosets


def test_left_cosets_partition():
    g, _ = group_from_permutations([(1, 0, 2), (0, 2, 1)])
    h = next(i for i in range(1, 6) if g.mul(i, i) == g.identity)
    members = [g.identity, h]
    reps = left_cosets(g, members)
    seen = []
    for r in reps:
        coset = {g.mul(r, x) for x in members}
        assert len(coset) == len(members)
        seen.extend(coset)
    assert sorted(seen) == list(range(g.order))


def test_left_cosets_rejects_non_subgroup():
    g = cyclic_group(4)
    with pytest.raises(NotASubgroup):
        left_cosets(g, [0, 1])          # not closed: 1+1=2 missing


def test_action_matrices_invertible(inst):
    for name in ("swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        for g in range(i.group.order):
            prod = i.action.mats[g] @ i.action.mats[i.group.inv(g)]
            assert np.linalg.norm(prod - np.eye(i.algebra.dim)) <= TOL * 10


def test_fixed_subalgebra_monotone_in_subgroup(inst):
    i = inst("perm")
    full_dim = fixed_subalgebra(i.algebra, i.action).sub.dim
    for g in range(i.group.order):
        members = {i.group.identity}
        x = g
        while x not in members:
            members.add(x)
            x = i.group.mul(x, g)
        sub, ordered = subgroup_as_group(i.group, members)
        action = make_action(sub, i.algebra,
                             [i.action.mats[h] for h in ordered])
        assert fixed_subalgebra(i.algebra, action).sub.dim >= full_dim
