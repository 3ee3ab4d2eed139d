"""Sparse storage: every algebra holds its structure constants as sorted COO
arrays, equal bit for bit to the dense constructions they replace."""

import contextlib
import io
import json

import numpy as np
import pytest
from helpers import dense, peak_bytes, same_bits

from skewgroup import algebra
from skewgroup.algebra import (
    canonical_span,
    corner_algebra,
    direct_sum,
    fixed_subalgebra,
    make_algebra,
    matrix_algebra,
)
from skewgroup.cli import main
from skewgroup.errors import InvalidInput
from skewgroup.fixtures import FIXTURE_NAMES, random_instance
from skewgroup.jobs import instance_to_job, parse_job
from skewgroup.projective import inertia, twisted_group_algebra
from skewgroup.repmod import (
    DirectSum,
    _cyclic_orbits,
    _multiplicity_spaces,
    compress,
    hom_space,
    is_simple,
    regular_module,
)
from skewgroup.skew import skew_group_algebra, sub_skew, symmetrizer
from skewgroup.theorems import check_invariant_theory, simple_classes

INSTANCES = list(FIXTURE_NAMES) + [f"random{s}" for s in range(20)]


def _instance(inst, name):
    return random_instance(int(name[6:])) if name.startswith("random") else inst(name)


def _assert_coo_of(a, c):
    """a.nonzeros is the COO form of the dense tensor c, bit for bit."""
    want = np.nonzero(c)
    assert all(np.array_equal(x, y) for x, y in zip(a.nonzeros[:3], want))
    assert a.nonzeros[3].dtype == np.complex128
    assert a.nonzeros[3].tobytes() == c[want].astype(np.complex128).tobytes()


# Dense references: the constructions as they were before sparse storage.
def _dense_matrix_algebra(n):
    c = np.zeros((n * n,) * 3, dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                c[p * n + q, q * n + r, p * n + r] = 1.0
    return c


def _dense_direct_sum(ca, cb):
    da, db = ca.shape[0], cb.shape[0]
    c = np.zeros((da + db,) * 3, dtype=np.complex128)
    c[:da, :da, :da] = ca
    c[da:, da:, da:] = cb
    return c


def _dense_skew(c, group, mats):
    da, ng = c.shape[0], group.order
    out = np.zeros((da * ng,) * 3, dtype=np.complex128)
    for g in group.elements():
        prod = np.einsum("mj,imk->ijk", mats[g], c)
        for h in group.elements():
            out[g::ng, h::ng, group.mul(g, h)::ng] = prod
    return out


def _dense_twisted(group, cocycle, exponent):
    n = group.order
    c = np.zeros((n, n, n), dtype=np.complex128)
    for h in range(n):
        for k in range(n):
            c[h, k, group.mul(h, k)] = cocycle.table[h, k] ** exponent
    return c


def _dense_subalgebra(emb):
    basis, k = emb.inclusion, emb.sub.dim
    c = np.zeros((k, k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            c[i, j] = basis.conj().T @ emb.parent.product(basis[:, i], basis[:, j])
    return c


def _dense_parse(data):
    dim = data["algebra"]["dim"]
    c = np.zeros((dim, dim, dim), dtype=np.complex128)
    for i, j, k, (re, im) in data["algebra"]["mult"]:
        c[i, j, k] = complex(re, im)
    return c


def _dense_mult_list(a):
    c = dense(a)
    return [[i, j, k, [float(np.real(c[i, j, k])), float(np.imag(c[i, j, k]))]]
            for i in range(a.dim) for j in range(a.dim) for k in range(a.dim)
            if c[i, j, k] != 0]


def test_make_algebra_sorts_and_checks_coo_input():
    a = matrix_algebra(2)
    i, j, k, v = a.nonzeros
    order = np.random.default_rng(3).permutation(i.size)
    zero = (np.array([0]), np.array([3]), np.array([1]), np.array([0j]))
    shuffled = tuple(np.concatenate([x[order], z]) for x, z in zip(a.nonzeros, zero))
    b = make_algebra(4, shuffled, a.unit)
    assert all(np.array_equal(x, y) for x, y in zip(a.nonzeros, b.nonzeros))
    bad = [((i, j, k + 4, v), r"index c\[0, 0, 4\] out of range for dim 4"),
           ((i, j, -k, v), r"index c\[0, 1, -1\] out of range for dim 4"),
           ((i, j, k.astype(float), v), "must be integers"),
           ((i, j, k, v[:-1]), "differ in length"),
           (tuple(np.concatenate([x, x[:1]]) for x in a.nonzeros), "given twice")]
    for mult, message in bad:
        with pytest.raises(InvalidInput, match=message):
            make_algebra(4, mult, a.unit)
    # 2^21 is the least dim whose cube exceeds int64; below it, the
    # constants are read and the unit length is the first rule broken
    for dim in (2 ** 40, 2 ** 21, np.int64(2 ** 21)):
        with pytest.raises(InvalidInput, match=rf"dimension {dim} is too large: "
                           rf"dim\^3 > 9223372036854775807"):
            make_algebra(dim, a.nonzeros, a.unit)
    with pytest.raises(InvalidInput, match="unit length 4 does not match dim 2097151"):
        make_algebra(2 ** 21 - 1, a.nonzeros, a.unit)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_algebra_matches_dense_reference(n):
    _assert_coo_of(matrix_algebra(n), _dense_matrix_algebra(n))


def test_direct_sum_matches_dense_reference():
    a, b = matrix_algebra(2), matrix_algebra(1)
    _assert_coo_of(direct_sum(a, b), _dense_direct_sum(dense(a), dense(b)))


@pytest.mark.parametrize("name", INSTANCES)
def test_every_constructor_matches_dense_reference(inst, name):
    i = _instance(inst, name)
    data = instance_to_job(i)
    _assert_coo_of(parse_job(data).algebra, _dense_parse(data))
    s = skew_group_algebra(i.action)
    _assert_coo_of(s.alg, _dense_skew(dense(i.algebra), i.group, i.action.mats))
    for emb in (fixed_subalgebra(i.algebra, i.action),
                corner_algebra(s.alg, symmetrizer(s))):
        _assert_coo_of(emb.sub, _dense_subalgebra(emb))
    system = inertia(i.module, i.action)
    for exponent in (1, -1):
        _assert_coo_of(
            twisted_group_algebra(system.cocycle, exponent, i.algebra),
            _dense_twisted(system.cocycle.group, system.cocycle, exponent))


@pytest.mark.parametrize("name", INSTANCES)
def test_instance_to_job_emits_the_dense_mult_list(inst, name):
    a = _instance(inst, name).algebra
    assert instance_to_job(_instance(inst, name))["algebra"]["mult"] == \
        _dense_mult_list(a)


def test_no_algebra_stores_a_cubic_array():
    i = random_instance(2)
    s = skew_group_algebra(i.action)
    simple_classes(s)
    for a in (i.algebra, s.alg):
        arrays = [x for x in vars(a).values() if isinstance(x, np.ndarray)]
        arrays += [x for x in a.nonzeros]
        assert all(x.ndim < 3 for x in arrays)
        assert all(not x.flags.writeable for x in a.nonzeros)


def _run_json(tmp_path, data, name):
    """Exit code and the --json report without its echo of the job file."""
    path = tmp_path / name
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--json"])
    report = json.loads(out.getvalue()) if out.getvalue() else {}
    report.pop("job", None)
    return code, json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("name", ["pauli", "perm", "random0", "random6"])
def test_entry_order_does_not_change_the_report(tmp_path, inst, name):
    data = instance_to_job(_instance(inst, name))
    rng = np.random.default_rng(7)
    entries = data["algebra"]["mult"]
    shuffled = dict(data, algebra=dict(
        data["algebra"], mult=[entries[t] for t in rng.permutation(len(entries))]))
    assert shuffled["algebra"]["mult"] != entries
    assert _run_json(tmp_path, shuffled, "b.json") == _run_json(tmp_path, data, "a.json")


def test_repeated_entry_keeps_the_last_value(tmp_path, inst):
    data = instance_to_job(inst("perm"))
    entries = data["algebra"]["mult"]
    stale = [[*entries[0][:3], [5.0, 0.0]]]
    before = dict(data, algebra=dict(data["algebra"], mult=stale + entries))
    after = dict(data, algebra=dict(data["algebra"], mult=entries + stale))
    assert _run_json(tmp_path, before, "b.json") == _run_json(tmp_path, data, "a.json")
    assert _run_json(tmp_path, after, "c.json")[0] == 2


def test_skew72_allocations_stay_sparse():
    """At skew dimension 72 one dense (dim, dim, dim) array takes 6 MB.

    Building the skew algebra peaked at 12.4 MB and the regular-module
    decomposition at 16.6 MB while they held such arrays; now they peak
    near 0.5 and 0.62 MB, so one such array brought back fails either bound.
    So does a (18, 72, 72) stack of the direct sum's generator actions
    (1.5 MB), which the decomposition peaked at 5.1 MB with when it spread
    and restacked them for its multiplicity spaces, compress's whole
    (72, 72, k) image stack, with which the decomposition peaked at 1.98 MB,
    and a kept (72, 6, 6) action stack per piece, 12 of them, with which it
    peaked at 1.44 MB.  It peaked at 0.75 MB while it formed its isotypic
    components unasked and held the (72, 72) stack of its piece bases
    through its whole multiplicity-space loop.
    """
    i = random_instance(2)

    def build():
        return skew_group_algebra(i.action)

    simple_classes(build())          # first calls: imports and caches
    s = build()
    assert s.alg.dim == 72
    assert peak_bytes(build) <= 1.0e6
    assert peak_bytes(lambda: simple_classes(s)) <= 0.7e6


def test_invariant_theory_keeps_only_the_representatives():
    """check_invariant_theory reads one representative module per simple
    class of A x| G.  At skew dimension 48 it peaked at 0.36 MB while it
    held the whole decomposition (every piece, its generator actions and
    the isotypic components) through the corner algebra's build; holding
    only the representatives, it peaks near 0.27 MB."""
    s = skew_group_algebra(random_instance(6).action)
    assert s.alg.dim == 48
    check_invariant_theory(s)        # first call: imports and caches
    assert peak_bytes(lambda: check_invariant_theory(s)) <= 0.32e6


def _skew72_decomposition():
    s = skew_group_algebra(random_instance(2).action)
    return s, simple_classes(s)


def test_skew72_hom_space_keeps_only_kernel_candidates():
    """The hom space from a class representative into the direct sum of the
    12 pieces solves 12 blocks of 36 unknowns.  It peaked at 384 KB while
    it kept each block's (36, 36) eigenvector matrix, 20.7 KB each, until the
    last block was solved; keeping only the columns below the cutoff at the
    scale bound, it peaks near 184 KB.  The bound excludes the pieces'
    generator sides, solved before the measured call."""
    s, dec = _skew72_decomposition()
    rep = dec.representatives[0].module
    pieces = [p.module for p in dec.pieces]
    assert len(pieces) == 12 and all(p.dim == 6 for p in pieces)

    def solve():
        return hom_space(rep, DirectSum(s.alg, pieces))

    solve()
    assert peak_bytes(solve) <= 270e3


def test_skew72_multiplicity_spaces_stack_the_pieces_per_class():
    """The multiplicity spaces map each hom back through T, the (72, 72)
    stack of the 12 piece bases, 83 KB.  Held through the whole class
    loop, T was live through every class's canonical_span and the loop
    peaked at 294 KB; built per class and dropped before the span, it
    peaks near 211 KB."""
    s, dec = _skew72_decomposition()
    args = dec.module, dec.pieces, dec.representatives

    def spaces():
        return _multiplicity_spaces(*args)

    spaces()
    assert peak_bytes(spaces) <= 250e3


def test_skew72_cyclic_orbits_fill_in_blocks():
    """The orbit matrices of a 6-dim piece take the regular module's images
    of three vectors.  Formed from one (72, 72, 3) images stack they peaked
    at 315 KB; in blocks of 24 basis elements they peak near 145 KB."""
    _, dec = _skew72_decomposition()
    piece = dec.pieces[0].module
    assert piece.dim == 6
    _cyclic_orbits(piece)
    assert peak_bytes(lambda: _cyclic_orbits(piece)) <= 190e3


def test_skew72_compress_projects_one_basis_element_at_a_time():
    """compress takes the projection off a block's (12, 72, 6) images one
    basis element at a time.  Formed for the whole block, the projection
    was a second temporary of the block's size, and compress peaked at
    306 KB; now it peaks near 244 KB."""
    _, dec = _skew72_decomposition()
    basis = dec.pieces[0].basis
    compress(dec.module, basis)
    assert peak_bytes(lambda: compress(dec.module, basis)) <= 275e3


def test_skew72_compress_peaks_below_one_image_block():
    """compress projects the images of A x| G's 12 + 1 generators, three
    at a time for a 6-dim piece, not those of its 72 basis elements, twelve
    at a time: it peaks near 71 KB, below one (72, 72) complex block."""
    s, dec = _skew72_decomposition()
    assert len(s.alg.generator_stack) == 13
    basis = dec.pieces[0].basis
    assert basis.shape == (72, 6)
    compress(dec.module, basis)
    assert peak_bytes(lambda: compress(dec.module, basis)) < 72 * 72 * 16


def test_regular_module_builds_no_action_stack(inst):
    """A regular module's generator actions are one left multiplication per
    generator: at skew dimension 72 an (18, 72, 72) stack of 1.5 MB.  Read
    through the whole (72, 72, 72) action stack they peaked at 7.58 MB,
    which fails the bound.  Neither a hom space nor the simplicity test
    needs that stack."""
    s = skew_group_algebra(random_instance(2).action)
    assert peak_bytes(lambda: regular_module(s.alg).generator_actions) <= 1.8e6
    reg = regular_module(skew_group_algebra(inst("pauli").action).alg)
    hom_space(reg, reg)
    is_simple(reg)
    assert "rho" not in vars(reg)


def _skew48():
    i = random_instance(6)
    s = skew_group_algebra(i.action)
    assert s.alg.dim == 48
    return i, s


def test_skew48_sub_skew_validation_joins_in_chunks():
    """The sub-skew algebra of the inertia group at skew dimension 48 has
    dimension 24, so make_algebra checks every basis triple by the
    associator join.  Joined whole, its keys, values and np.unique's
    temporaries took make_algebra to 160 KB; in chunks of whole first
    indices of about 24^2 terms it peaks near 106 KB."""
    i, s = _skew48()
    sub = sub_skew(s, inertia(i.module, i.action).inertia_members).alg
    assert sub.dim == 24

    def build():
        return make_algebra(sub.dim, sub.nonzeros, sub.unit, tol=sub.tol,
                            generators=sub.generators, seed=sub.seed)

    build()                          # first call: imports and caches
    assert peak_bytes(build) <= 130e3


def test_skew48_corner_algebra_drops_its_column_stack():
    """The corner of A x| G at skew dimension 48 spans its 48 columns
    e b_i e.  canonical_span stacked them and held that stack and its
    orthonormal basis through the projector loop, which took corner_algebra
    to 237 KB; dropped when read, they leave it near 198 KB."""
    _, s = _skew48()
    e = symmetrizer(s)
    corner_algebra(s.alg, e)
    assert peak_bytes(lambda: corner_algebra(s.alg, e)) <= 215e3


def test_skew48_canonical_span_drops_its_input_stack():
    """canonical_span stacks a list of 48 columns into one (48, 48) array
    for the SVD, 37 KB.  Held with the orthonormal basis through the
    projector loop they took it to 193 KB on the corner's columns; dropped
    when read, it peaks near 154 KB."""
    _, s = _skew48()
    a, e = s.alg, symmetrizer(s)
    cols = [a.product(e, a.product(b, e)) for b in np.eye(48, dtype=np.complex128)]
    canonical_span(cols, a.tol)
    assert peak_bytes(lambda: canonical_span(cols, a.tol)) <= 175e3


def test_skew72_unit_check_forms_one_side_at_a_time():
    """At skew dimension 72 one unit-law matrix is 83 KB.  Both sides, the
    identity and a difference formed at once peaked at 375 KB; one side at a
    time, the identity subtracted in place, peaks near 193 KB."""
    s = skew_group_algebra(random_instance(2).action)
    assert s.alg.dim == 72
    algebra._check_unit(s.alg)
    assert peak_bytes(lambda: algebra._check_unit(s.alg)) <= 280e3


def test_skew_generators_are_one_read_only_array():
    """A x| G keeps its generators b_i and g, for g among G's generators,
    as one (dim A + len(G.generators), dim) array, which generator_stack
    returns rather than stacking a copy."""
    _, s = _skew48()
    gens = s.alg.generators
    assert gens.shape == (s.base.dim + len(s.group.generators), 48)
    assert s.alg.generator_stack is gens and not gens.flags.writeable
    want = [s.embed_base(np.eye(s.base.dim)[:, t]) for t in range(s.base.dim)]
    want += [s.embed_group(g) for g in s.group.generators]
    assert same_bits(gens, np.array(want))
