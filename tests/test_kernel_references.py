"""The rewritten kernels against their reference formulations in
`reference.py`: the same bits (canonical_span and what it spans: the same
entries up to rounding), or the same error and message, on the built-in
fixtures, on random_instance seeds 0-19 and on seeded inputs that include
empty, 1x1 and rank-deficient cases."""

import functools

import numpy as np
import pytest
import reference
from helpers import same_bits, schur_weyl

from skewgroup import numeric, repmod
from skewgroup.algebra import Algebra, _joined_associator, canonical_span
from skewgroup.fixtures import FIXTURE_NAMES, fixture, random_instance
from skewgroup import group_action
from skewgroup.group_action import (
    cyclic_group,
    group_from_permutations,
    make_action,
    make_group,
)
from skewgroup.projective import contragredient, inertia, projective_isotypics
from skewgroup.repmod import Module, regular_module
from skewgroup.skew import extend_to_skew, skew_group_algebra, sub_skew
from skewgroup.theorems import simple_classes

TOL = 1e-9
SOURCES = [*FIXTURE_NAMES, *range(20)]


@functools.cache
def instance(source):
    return fixture(source) if isinstance(source, str) else random_instance(source)


@functools.cache
def skew(source):
    return skew_group_algebra(instance(source).action)


def _rng(source):
    return np.random.default_rng([7, SOURCES.index(source)])


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _outcome(fn, *args):
    """("ok", result) or the type and message of the error fn raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _rank_deficient(rng, rows, cols, rank):
    return _complex(rng, rows, rank) @ _complex(rng, rank, cols)


# Seeded inputs beside the instances: empty, 1x1, zero and rank-deficient
# matrices, real ones, views that are not C-contiguous, and signed zeros.
def _seeded_matrices():
    rng = np.random.default_rng(11)
    return [np.zeros((0, 3), dtype=np.complex128),
            np.zeros((4, 0), dtype=np.complex128),
            np.ones((1, 1), dtype=np.complex128),
            np.zeros((3, 3), dtype=np.complex128),
            np.array([[-0.0 + 0.0j, 0.0 - 0.0j], [-1.0 + 0.0j, -0.0j]]),
            _rank_deficient(rng, 5, 4, 2),
            _rank_deficient(rng, 6, 6, 1),
            _rank_deficient(rng, 4, 7, 3).T,
            rng.standard_normal((3, 5)),
            _complex(rng, 6, 4)[::2]]


SEEDED = _seeded_matrices()


def _instance_matrices(source):
    i = instance(source)
    eye = np.eye(i.algebra.dim)
    mats = np.array(i.action.mats)
    m = i.module.rho
    return [m, m[0], m.transpose(0, 2, 1), mats, mats[-1] - eye,
            mats[:, 0], i.algebra.unit, i.algebra.nonzeros[3],
            np.abs(m)]


@pytest.mark.parametrize("source", SOURCES)
def test_rel_residual_is_the_reference(source):
    for x in _instance_matrices(source) + SEEDED:
        for scale in (0.5, 3.0):
            got = numeric.rel_residual(x, scale)
            want = reference.rel_residual(x, scale)
            assert type(got) is float and same_bits(got, want)


@pytest.mark.parametrize("source", SOURCES)
def test_product_is_the_reference(source):
    rng = _rng(source)
    # the skew algebra's constants carry the action's roots of unity
    for a in (instance(source).algebra, skew(source).alg):
        eye = np.eye(a.dim)
        pairs = [(_complex(rng, a.dim), _complex(rng, a.dim)),
                 (rng.standard_normal(a.dim), rng.standard_normal(a.dim)),
                 (eye[0], eye[-1]), (a.unit, a.unit), (eye[0], np.zeros(a.dim))]
        for x, y in pairs:
            assert same_bits(a.product(x, y), reference.product(a, x, y))


def _span_inputs(source):
    i = instance(source)
    rng = _rng(source)
    n = i.algebra.dim
    mats = np.array(i.action.mats)
    return [mats.sum(axis=0),                   # the fixed space, scaled
            mats[-1] - np.eye(n),               # rank-deficient
            i.module.rho.reshape(n, -1).T,      # tall and rank-deficient
            _rank_deficient(rng, n, n + 2, max(1, n // 2)),
            list(_complex(rng, 2, n)),          # a list of vectors
            np.zeros((n, 2))]


# canonical_span runs its Gram-Schmidt in the k coordinates of an
# orthonormal basis of the span, the reference on the whole n x n projector:
# the same pivots, and entries equal up to rounding.
SPAN_ATOL = 1e-13


def _same_span_basis(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.abs(got - want).max(initial=0.0) <= SPAN_ATOL)


@pytest.mark.parametrize("source", SOURCES)
def test_canonical_span_is_the_reference(source):
    for vectors in _span_inputs(source) + SEEDED:
        assert _same_span_basis(canonical_span(vectors, TOL),
                                reference.canonical_span(vectors, TOL))


@pytest.mark.parametrize("source", SOURCES)
def test_canonical_span_is_a_phase_fixed_basis_of_the_span(source):
    """Without the reference: orthonormal columns, the orthogonal projector
    of the input's span (the pseudo-inverse's, cut at the tolerance), and a
    real positive leading significant coordinate in every column."""
    for vectors in _span_inputs(source) + SEEDED:
        m = np.column_stack(vectors) if isinstance(vectors, list) else vectors
        got = canonical_span(vectors, TOL)
        k = got.shape[1]
        assert got.shape[0] == m.shape[0]
        assert np.abs(got.conj().T @ got - np.eye(k)).max(initial=0.0) <= 1e-13
        want = m @ np.linalg.pinv(m, rcond=TOL) if m.size else 0
        assert np.abs(got @ got.conj().T - want).max(initial=0.0) <= 1e-12
        for col in got.T:
            lead = col[np.abs(col) > 1e-8][0]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15


# Basis elements per block of images in _cyclic_orbits and compress: the
# library's ceil(dim A / k), and one.
BLOCKINGS = [None, 1]


def _blocking(monkeypatch, per_block):
    if per_block is not None:
        def blocks(m, basis):
            n = m.algebra.dim
            for lo in range(0, n, per_block):
                hi = min(lo + per_block, n)
                yield lo, hi, m.images(basis, lo, hi)

        monkeypatch.setattr(repmod, "_image_blocks", blocks)


# A span's input as one array (None), and as a list of its columns, one
# per entry (1).
@pytest.mark.parametrize("per_entry", [None, 1])
@pytest.mark.parametrize("source", SOURCES)
def test_canonical_span_of_skew_pieces_is_the_reference(source, per_entry):
    """The pieces of the skew algebra's regular module, their union (at
    skew dimension 72 a 72 x 72 input of full rank), and seeded inputs of
    97 and 256 rows."""
    dec, _ = _classes(source)
    rng = _rng(source)
    inputs = [p.basis for p in dec.pieces]
    inputs += [np.hstack(inputs), _complex(rng, 97, 5),
               _rank_deficient(rng, 256, 6, 3)]
    for vectors in inputs:
        if per_entry is not None:
            vectors = list(vectors.T)
        assert _same_span_basis(canonical_span(vectors, TOL),
                                reference.canonical_span(vectors, TOL))


@pytest.mark.parametrize("source", SOURCES)
def test_module_actions_are_the_reference(source):
    i = instance(source)
    rng = _rng(source)
    # the module's own stack, and the action matrices as a stack of k
    for rho in (i.module.rho, np.array(i.action.mats)):
        m = Module(algebra=i.algebra, dim=rho.shape[1], rho=rho)
        k = len(rho)
        for xs in (np.eye(k), np.eye(k)[::-1].T, _complex(rng, 3, k),
                   rng.standard_normal((1, k)), np.zeros((0, k)),
                   _complex(rng, k)):
            assert same_bits(m.act(xs), reference.module_actions(rho, xs))


@pytest.mark.parametrize("source", SOURCES)
def test_kron_stack_is_kron_of_each_pair(source):
    i = instance(source)
    rng = _rng(source)
    m, mats = i.module.rho, np.array(i.action.mats)
    k = len(m)
    for xs, ys in ((m, m), (m, m.conj()), (mats[:1], mats[-1:]),
                   (m, _complex(rng, k, 3, 2)),
                   (np.ones((2, 1, 1)), _complex(rng, 2, 1, 1)),
                   (_rank_deficient(rng, 2, 3, 1)[None], m[:1])):
        assert same_bits(numeric.kron_stack(xs, ys), reference.kron_pairs(xs, ys))


@pytest.mark.parametrize("source", SOURCES)
def test_extend_to_skew_is_the_kron_loop(source):
    i = instance(source)
    m = i.module
    system = inertia(m, i.action)
    ssub = sub_skew(skew(source), system.inertia_members)
    for rep in projective_isotypics(system).representatives.values():
        v = contragredient(rep.module, system.cocycle)
        want = reference.extend_to_skew_stack(m.rho, system.phi, v.rho)
        assert same_bits(extend_to_skew(system, v, ssub).rho, want)


def _associator_algebras(source):
    """The source's algebra, its A x| G and the sub-skew algebra of its
    module's inertia group, each also with c[0, 0, dim - 1] raised by 1,
    unvalidated, so that associativity fails above dimension 1."""
    s = skew(source)
    members = inertia(instance(source).module, instance(source).action).inertia_members
    out = [s.base, s.alg, sub_skew(s, members).alg]
    for a in out[:3]:
        i, j, k, v = a.nonzeros
        key, slot = (i * a.dim + j) * a.dim + k, a.dim - 1
        t = int(key.searchsorted(slot))
        if t < key.size and key[t] == slot:
            v = v.copy()
            v[t] += 1.0
        else:
            i, j, k, v = (np.insert(x, t, y) for x, y in zip(a.nonzeros, (0, 0, slot, 1.0)))
        out.append(Algebra(dim=a.dim, nonzeros=(i, j, k, v), unit=a.unit))
    return out


@pytest.mark.parametrize("source", SOURCES)
def test_joined_associator_is_the_reference(source):
    """The join in chunks of first indices names the worst associator entry
    and its first triple with the bits of one whole join."""
    for t, a in enumerate(_associator_algebras(source)):
        worst, at = _joined_associator(a)
        want = reference.joined_associator(a)
        assert same_bits(worst, want[0]) and at == want[1]
        assert (worst > a.tol * a.scale ** 2) == (t >= 3 and a.dim > 1)


def _orbit_stacks(source):
    """(dim A, dim, 3) orbit stacks, as is_simple forms them: of the module,
    of the regular module and of rank-deficient seeded stacks."""
    i = instance(source)
    rng = _rng(source)
    out = []
    for m in (i.module, regular_module(i.algebra)):
        out.append(m.images(_complex(rng, m.dim, 3)))
    n = i.algebra.dim
    out.append(np.stack([_rank_deficient(rng, n, 3, r).T
                         for r in (1, 2, 3)], axis=2).transpose(1, 0, 2))
    return out


@pytest.mark.parametrize("per_block", BLOCKINGS)
@pytest.mark.parametrize("source", SOURCES)
def test_cyclic_orbits_are_the_reference(source, per_block, monkeypatch):
    """The module, the regular modules of the algebra and of its skew
    algebra, and the pieces of the latter, which pass through it: each piece
    as decompose forms it, compressed onto canonical_span of its basis.  The
    orbits, and the pieces' compress, run in the library's blocks of basis
    elements and in blocks of one; either way they are the bits of one whole
    images call."""
    i = instance(source)
    dec, _ = _classes(source)
    _blocking(monkeypatch, per_block)
    pieces = [repmod.compress(dec.module, canonical_span(p.basis, TOL))
              for p in dec.pieces]
    for m in [i.module, regular_module(i.algebra), dec.module, *pieces]:
        assert same_bits(repmod._cyclic_orbits(m), reference.cyclic_orbits(m))


@pytest.mark.parametrize("source", SOURCES)
def test_gram_is_the_reference(source):
    """The blocks of every system simple_classes solves, the generator
    actions of a skew piece against those of two pieces side by side (a
    72-row Gram matrix at skew dimension 72), and seeded stacks, one with
    signed zeros and one of 60 rows."""
    dec, systems = _classes(source)
    rng = _rng(source)
    stacks = [(pb, qb) for pairs, _ in systems
              for _, qb in pairs.q.blocks for _, pb in pairs.p.blocks]
    first, last = dec.pieces[0].module, dec.pieces[-1].module
    stacks.append((first.generator_actions, reference.block_diagonal(
        [first.generator_actions, last.generator_actions])))
    signed = _complex(rng, 3, 8, 8)
    signed[:, 0], signed[:, 3] = complex(-0.0, 0.0), complex(0.0, -0.0)
    stacks += [(_complex(rng, 3, 8, 8), _complex(rng, 3, 9, 9)),
               (signed, signed[:, :, ::-1].copy()),
               (_complex(rng, 2, 1, 1), _complex(rng, 2, 60, 60))]
    for ps, qs in stacks:
        assert same_bits(numeric._gram(ps, qs), reference.gram(ps, qs))


@pytest.mark.parametrize("source", SOURCES)
def test_stacked_rank_is_each_rank(source):
    rng = np.random.default_rng(5)
    seeded = [np.zeros((2, 0, 3)), np.zeros((1, 1, 3)),
              _complex(rng, 1, 1, 3), np.zeros((4, 3, 3)),
              _rank_deficient(rng, 12, 3, 2).reshape(4, 3, 3)]
    for orbits in _orbit_stacks(source) + seeded:
        assert numeric.rank(orbits.transpose(2, 1, 0), TOL) == \
            reference.cyclic_ranks(orbits, TOL)


def _tables():
    s4, _ = group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    tables = [cyclic_group(n).table for n in range(1, 7)]
    tables += [instance(f).group.table for f in FIXTURE_NAMES]
    tables.append(s4.table)
    # the identity moved to the last index of S3
    s3 = instance("perm").group.table
    perm = np.roll(np.arange(len(s3)), 1)
    inv = np.argsort(perm)
    tables.append(inv[s3[perm][:, perm]])
    # monoids (Z_n, *): associative with an identity, several elements
    # without an inverse
    for n in (4, 6):
        tables.append(np.multiply.outer(np.arange(n), np.arange(n)) % n)
    return tables


def _group_outcome(fn, table):
    kind, out = _outcome(fn, table)
    if kind != "ok":
        return kind, out
    if fn is make_group:
        out = (out.order, out.identity, out.inverses)
    return kind, out


@pytest.mark.parametrize("index", range(len(_tables())))
def test_make_group_is_the_reference_on_every_one_entry_corruption(index):
    table = _tables()[index]
    n = len(table)
    variants = [table]
    if n <= 6:
        for a in range(n):
            for b in range(n):
                for value in range(n):
                    if value != table[a, b]:
                        bad = table.copy()
                        bad[a, b] = value
                        variants.append(bad)
    variants += [table[:, ::-1], table.T, np.zeros((n, n), dtype=np.int64),
                 table[:-1], table + 1, table - 1]
    for t in variants:
        got = _group_outcome(make_group, t)
        want = _group_outcome(reference.make_group, t)
        assert got == want, t


def _action_variants(source):
    """(group, algebra, mats): the instance's own action and corruptions
    that break each law in turn."""
    i = instance(source)
    g, a = i.group, i.algebra
    mats = [np.asarray(m) for m in i.action.mats]
    n = a.dim
    rng = _rng(source)
    out = [mats]
    out.append([m + 1e-3 * (h == g.identity) for h, m in enumerate(mats)])
    if g.order > 1:
        out.append(mats[1:] + mats[:1])                      # relabelled
        out.append([m if h == g.identity else 2 * m for h, m in enumerate(mats)])
    # conjugated by a basis change: still a homomorphism, but in general no
    # longer multiplicative
    d = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    dinv = np.linalg.inv(d)
    out.append([d @ m @ dinv for m in mats])
    # a small perturbation off the identity
    out.append([m if h == g.identity else m + 1e-6 * _complex(rng, n, n)
                for h, m in enumerate(mats)])
    out.append([m.T.copy() for m in mats])
    out.append([m.T.copy().T for m in mats])          # not C-contiguous
    # conjugated by one basis change that fixes the unit: the product and
    # unit laws still hold, and in general multiplicativity does not
    u = a.unit
    unit_projector = np.outer(u, u.conj()) / np.vdot(u, u).real
    t = np.eye(n) + 0.3 * rng.standard_normal((n, n)) @ (np.eye(n) - unit_projector)
    tinv = np.linalg.inv(t)
    out.append([t @ m @ tinv for m in mats])
    # the unit moved by 1.5 tolerances off the identity: each other law
    # holds to within the tolerance on most instances
    shift = 1.5 * a.tol / np.linalg.norm(u) * unit_projector
    out.append([m if h == g.identity else m + shift for h, m in enumerate(mats)])
    return [(g, a, ms) for ms in out]


@pytest.mark.parametrize("source", SOURCES)
def test_make_action_is_the_reference(source):
    for group, algebra, mats in _action_variants(source):
        got = _outcome(make_action, group, algebra, mats)
        want = _outcome(reference.make_action, group, algebra, mats)
        if got[0] == "ok":
            assert want[0] == "ok"
            assert all(same_bits(x, y) for x, y in zip(got[1].mats, want[1]))
        else:
            assert got == want


@pytest.mark.parametrize("source", SOURCES)
def test_action_residuals_are_the_reference(source):
    for group, algebra, mats in _action_variants(source):
        ms = [numeric.as_complex(m) for m in mats]
        stack = np.array(ms)
        n = len(ms)
        assert same_bits(
            group_action._product_residuals(stack, group.table, 0, n),
            reference.product_residuals(ms, group.table))
        assert same_bits(
            group_action._product_residuals(stack, group.table, n - 1, n),
            reference.product_residuals(ms, group.table)[n - 1:])
        errors = group_action._multiplicativity_errors(stack, algebra)
        assert same_bits([numeric.rel_residual(e, 1.0) for e in errors],
                         reference.multiplicativity_norms(ms, algebra))


@pytest.mark.parametrize("source", SOURCES)
def test_a_witness_found_one_first_index_at_a_time_is_the_whole_one(
        source, monkeypatch):
    """Above _WITNESS_ENTRIES a failing element's errors are formed one
    first index at a time, by another formula: the same message, the
    residual to rounding."""
    outcomes = [_outcome(make_action, *v) for v in _action_variants(source)]
    monkeypatch.setattr(group_action, "_WITNESS_ENTRIES", 1)
    for variant, whole in zip(_action_variants(source), outcomes):
        blocked = _outcome(make_action, *variant)
        assert blocked[0] == whole[0]
        if whole[0] != "NotAutomorphism" or "unit" in whole[1]:
            assert whole[0] == "ok" or blocked == whole
            continue
        head, _, res = whole[1].rpartition(" ")
        assert blocked[1].rpartition(" ")[0] == head
        assert float(blocked[1].rpartition(" ")[2]) == pytest.approx(
            float(res), rel=2e-3)


def test_a_non_automorphism_above_dimension_32_is_named_as_the_reference():
    """M_8 under S_3, conjugated by one basis change that fixes the unit:
    the group law holds, the two seeded probes catch the automorphism law,
    and the search names the reference's pair and residual."""
    group, a, mats = schur_weyl(2, 3)
    rng = np.random.default_rng(11)
    u = a.unit
    t = np.eye(a.dim) + 0.3 * rng.standard_normal((a.dim, a.dim)) @ (
        np.eye(a.dim) - np.outer(u, u) / (u @ u))
    tinv = np.linalg.inv(t)
    bad = [t @ m @ tinv for m in mats]
    got = _outcome(make_action, group, a, bad)
    assert got[0] == "NotAutomorphism"
    assert got == _outcome(reference.make_action, group, a, bad)


def test_the_action_variants_reach_each_failure():
    """Between them the variants pass and fail the identity, the product
    law, multiplicativity and the unit law.  (The unit law fails only
    where the others hold within the tolerance, not exactly: an invertible
    multiplicative map fixes the unit.)"""
    seen = set()
    for source in SOURCES:
        for group, algebra, mats in _action_variants(source):
            kind, msg = _outcome(reference.make_action, group, algebra, mats)
            seen.add("ok" if kind == "ok" else next(
                word for word in ("identity", "mats", "multiplicative", "unit")
                if word in msg))
    assert {"ok", "identity", "mats", "multiplicative", "unit"} <= seen


@functools.cache
def _classes(source):
    """simple_classes of the skew algebra, and (pairs, tol) of every system
    it solves, the direct sums of _multiplicity_spaces included."""
    seen = []
    solve = numeric.solve_sandwich

    def recording(pairs, tol):
        seen.append((pairs, tol))
        return solve(pairs, tol)

    numeric.solve_sandwich = recording
    try:
        dec = simple_classes(skew(source))
    finally:
        numeric.solve_sandwich = solve
    return dec, seen


@pytest.mark.parametrize("source", SOURCES)
def test_solve_sandwich_is_the_reference(source):
    dec, systems = _classes(source)
    # the direct sum of the pieces is a target, one block per piece at least
    pieces = len(dec.pieces)
    assert pieces == 1 or any(len(pairs.q.blocks) >= pieces
                              for pairs, _ in systems)
    for pairs, tol in systems:
        got, want = numeric.solve_sandwich(pairs, tol), \
            reference.solve_sandwich(pairs, tol)
        assert len(got) == len(want)
        assert all(same_bits(x, y) for x, y in zip(got, want))


def test_solve_sandwich_keeps_what_a_later_block_lets_through():
    """Block 0's Gram eigenvalue 2 delta^2 = 4e-3 is above tol * floor^2 =
    1e-3, and is kept because block 1's eigenvalue 8 raises the scale."""
    delta = np.sqrt(2e-3)
    pairs = [(np.diag([1 - delta, -1]), np.array([[1.0]])),
             (np.diag([-1 + delta, 1]), np.array([[-1.0]]))]
    got = numeric.solve_sandwich(pairs, 1e-3)
    want = reference.solve_sandwich(pairs, 1e-3)
    assert len(got) == len(want) == 1
    assert same_bits(got[0], want[0])
    assert same_bits(abs(got[0]), np.array([[1.0, 0.0]]))


def test_solve_sandwich_when_the_floor_exceeds_the_entry_bound():
    """With entries far below 1 the scale is the floor 1, not the bound
    (0.01 + 0.02)^2 from the entries: the eigenvalue 1e-4 is kept at tol
    1e-3."""
    pairs = [(np.array([[0.01]]), np.array([[0.02]]))]
    got = numeric.solve_sandwich(pairs, 1e-3)
    want = reference.solve_sandwich(pairs, 1e-3)
    assert len(got) == len(want) == 1
    assert same_bits(got[0], want[0])


# random_instance(2) is the instance of the skew72 benchmark job.
SKEW72 = 2


def test_the_skew72_decomposition_is_among_the_sources():
    dec, _ = _classes(SKEW72)
    assert dec.module.dim == 72 and len(dec.pieces) == 12


def _decompositions(source):
    """Fresh decompositions: of the instance's module, of its algebra's
    regular module and, as simple_classes gives it, of its skew algebra's."""
    i = instance(source)
    return [repmod.decompose(i.module),
            repmod.decompose(regular_module(i.algebra)),
            simple_classes(skew(source))]


@pytest.mark.parametrize("source", SOURCES)
def test_isotypics_are_derived_on_first_read(source):
    """No decomposition holds its isotypic components until they are read;
    read, they are those it formed while it was built."""
    for dec in _decompositions(source):
        assert "isotypics" not in vars(dec)
        want = reference.isotypics(dec)
        assert dec.class_ids() == sorted(dec.isotypics) == list(want)
        assert list(dec.isotypics) == list(want)
        assert all(_same_span_basis(dec.isotypics[cls], want[cls])
                   for cls in want)


@pytest.mark.parametrize("source", SOURCES)
def test_multiplicity_spaces_are_the_reference(source):
    """With T = [piece bases] built per class, the multiplicity spaces are
    those formed while T was held through the whole class loop."""
    for dec in _decompositions(source):
        args = dec.module, dec.pieces, dec.representatives
        want = reference.multiplicity_spaces(*args)
        for got in (dec.multiplicity_spaces, repmod._multiplicity_spaces(*args)):
            assert list(got) == list(want)
            assert all(_same_span_basis(got[cls], want[cls]) for cls in want)
