"""Finite groups, automorphism actions, and coset decompositions."""

import itertools
import re

import numpy as np
import pytest
from helpers import dense, peak_bytes, schur_weyl

from skewgroup import numeric
from skewgroup.algebra import fixed_subalgebra, matrix_algebra
from skewgroup.errors import (
    InvalidInput,
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
from skewgroup.fixtures import fixture, random_instance
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


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1]],
     "multiplication table must be square: row 1 has 1 entries for 2 rows"),
    (np.zeros((2, 3), dtype=int),
     "multiplication table must be square: row 0 has 3 entries for 2 rows"),
    (3, "multiplication table must be square"),
    ([[0, 1.5], [1, 0]], "table entry [0][1] must be an index in [0, 2), got 1.5"),
    ([[0, None], [1, 0]], "table entry [0][1] must be an index in [0, 2), got None"),
    ([[0, 1], [1, np.True_]],
     f"table entry [1][1] must be an index in [0, 2), got {np.True_!r}"),
    ([[0, 1], [1, 2 ** 63]], "table entry [1][1] must be an index in [0, 2), "
     "got 9223372036854775808"),
    (np.array([[0, 1], [1, -1]]),
     "table entry [1][1] must be an index in [0, 2), got -1"),
    (np.array([[0, 1], [1, 2 ** 63]], dtype=np.uint64),
     "table entry [1][1] must be an index in [0, 2), got 9223372036854775808"),
], ids=["ragged", "not_square", "not_a_table", "fraction", "none",
        "numpy_bool", "beyond_int64", "negative", "uint64"])
def test_make_group_names_the_first_entry_that_is_not_an_index(table, message):
    with pytest.raises(InvalidInput) as exc:
        make_group(table)
    assert str(exc.value) == message


def test_an_empty_table_has_no_identity():
    with pytest.raises(NoIdentity):
        make_group([])


def test_make_group_reads_whole_floats_and_numpy_integers():
    g = make_group([[0.0, np.int8(1)], [1.0, 0]])
    assert g.table.dtype == np.int64
    assert g.table.tolist() == [[0, 1], [1, 0]]


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
    lhs = np.einsum("ijk,lk->ijl", dense(a), m)
    rhs = np.einsum("ai,bj,abl->ijl", m, m, dense(a))
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


def _first_failing_pair(group, mats, tol):
    """The homomorphism check one pair (g, h) at a time, in row-major order:
    its message for the first failing pair, or None."""
    for g in group.elements():
        for h in group.elements():
            prod = mats[g] @ mats[h]
            res = numeric.rel_residual(prod - mats[group.mul(g, h)],
                                       float(np.linalg.norm(prod)))
            if res > tol:
                return (f"mats[{g}]@mats[{h}] != mats[{g}*{h}]: "
                        f"residual {res:.3e}")
    return None


@pytest.mark.parametrize("source", ["swap", "pauli", "perm", "cyclic", 2, 6])
def test_homomorphism_check_names_the_first_failing_pair(source):
    inst = fixture(source) if isinstance(source, str) else random_instance(source)
    group, target = inst.group, inst.algebra
    mats = inst.action.mats
    others = [g for g in group.elements() if g != group.identity]
    corrupted = []
    for g, h in itertools.combinations(others, 2):       # two swapped
        corrupted.append(list(mats))
        corrupted[-1][g], corrupted[-1][h] = mats[h], mats[g]
    for g in others:                                     # one doubled
        corrupted.append(list(mats))
        corrupted[-1][g] = 2.0 * mats[g]
    failing = 0
    for candidate in corrupted:
        expected = _first_failing_pair(group, candidate, target.tol)
        if expected is None:
            make_action(group, target, candidate)
            continue
        failing += 1
        with pytest.raises(NotHomomorphism, match=re.escape(expected)):
            make_action(group, target, candidate)
    assert failing


def _generated(group, gens):
    """The elements that products of gens reach, from the identity."""
    reached, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [group.mul(x, s) for x in frontier for s in gens
                    if group.mul(x, s) not in reached]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("source", ["trivial", "swap", "pauli", "perm",
                                    "cyclic", 2, 6, 9])
def test_generators_are_chosen_greedily_in_index_order(source):
    group = (fixture(source) if isinstance(source, str)
             else random_instance(source)).group
    gens = group.generators
    assert _generated(group, gens) == set(group.elements())
    for g in group.elements():
        before = [s for s in gens if s < g]
        assert (g in gens) == (g not in _generated(group, before))


def test_generators_of_a_symmetric_group_are_two():
    group, _ = group_from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert group.order == 24 and len(group.generators) == 2


def test_make_action_on_schur_weyl_2_3_holds_no_element_sized_errors():
    """M_8 under S_3, d = 64: one element's (d, d, d) errors over all basis
    pairs would take 4.2 MB, and validation on generators stays under 1 MB."""
    group, a, mats = schur_weyl(2, 3)
    assert (group.order, a.dim) == (6, 64)
    assert peak_bytes(lambda: make_action(group, a, mats)) < 1e6
