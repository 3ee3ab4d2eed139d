"""End-to-end verification pipelines on the built-in instances."""

import numpy as np
import pytest

from skewgroup.algebra import make_algebra, matrix_algebra
from skewgroup.errors import NotSemisimple
from skewgroup.group_action import make_action, make_group
from skewgroup.projective import inertia, module_over_twisted
from skewgroup.repmod import make_module, regular_module
from skewgroup.skew import skew_group_algebra
from skewgroup.theorems import (
    build_context,
    check_invariant_theory,
    clifford_correspondence,
    complete_reducibility,
    hom_inv_check,
    induced_simplicity,
    main_theorem,
    simple_classes,
)

TOL = 1e-9


def _skew(i):
    return skew_group_algebra(i.action)


def _checks(report):
    return {c.name: c for c in report.checks}


def test_invariant_theory_trivial(inst):
    rep = check_invariant_theory(_skew(inst("trivial")))
    assert rep.passed


def test_invariant_theory_swap(inst):
    rep = check_invariant_theory(_skew(inst("swap")))
    assert rep.passed
    checks = _checks(rep)
    assert checks["class0_eN_simple"].dims == {"dim_N": 4, "dim_eN": 2}
    assert checks["surjectivity_every_corner_class_hit"].dims["corner_classes"] == 1
    assert checks["corner_dim_equals_invariants_dim"].dims["corner"] == 4


def test_invariant_theory_pauli(inst):
    rep = check_invariant_theory(_skew(inst("pauli")))
    assert rep.passed
    checks = _checks(rep)
    assert checks["corner_dim_equals_invariants_dim"].dims["corner"] == 1
    # exactly one skew class survives the corner, landing in the single
    # 1-dim corner class
    hit = checks["surjectivity_every_corner_class_hit"].dims
    assert hit["corner_classes"] == 1
    assert hit["skew_classes_with_nonzero_corner"] == 1


def test_invariant_theory_rejects_non_semisimple():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    dual = make_algebra(2, c, [1.0, 0.0], tol=TOL)
    g = make_group([[0]])
    action = make_action(g, dual, [np.eye(2)])
    s = skew_group_algebra(action)
    with pytest.raises(NotSemisimple):
        check_invariant_theory(s)


def test_clifford_trivial(inst):
    i = inst("trivial")
    s = _skew(i)
    n = regular_module(s.alg)
    rep = clifford_correspondence(n, s)
    assert rep.passed


def test_clifford_swap(inst):
    i = inst("swap")
    s = _skew(i)
    dec = simple_classes(s)
    n = dec.representatives[dec.class_ids()[0]].module
    rep = clifford_correspondence(n, s)
    assert rep.passed
    checks = _checks(rep)
    d = checks["induced_isomorphic_to_N"].dims
    assert d["dim_N"] == 4 and d["dim_Ind"] == 4
    assert d["dim_lambda"] == 2 and d["index_G_H"] == 2
    assert checks["hom_A_lambda_P_nonzero"].dims["dim_Hnu"] == 1


def test_clifford_pauli(inst):
    i = inst("pauli")
    s = _skew(i)
    dec = simple_classes(s)
    for cls in dec.class_ids():
        n = dec.representatives[cls].module
        rep = clifford_correspondence(n, s)
        assert rep.passed
        d = _checks(rep)["induced_isomorphic_to_N"].dims
        # dim N = dim lambda * dim Hnu * [G:H]
        assert d["dim_N"] == d["dim_lambda"] * \
            _checks(rep)["hom_A_lambda_P_nonzero"].dims["dim_Hnu"] * d["index_G_H"]


def test_induced_simplicity_fixtures(inst):
    for name in ("trivial", "swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        ctx = build_context(i.action, i.module)
        for gamma in ctx.iso.class_ids():
            rep = induced_simplicity(ctx.system, ctx.iso, ctx.skew, gamma)
            assert rep.passed, (name, gamma)
            d = _checks(rep)["dimension_law"].dims
            assert d["dim_induced"] == d["index"] * d["dim_M"] * d["dim_W"]


def test_hom_inv_trivial_characters():
    g = make_group([[0, 1], [1, 0]])
    from skewgroup.projective import twisted_group_algebra
    plain = twisted_group_algebra(g.trivial_cocycle, 1, matrix_algebra(1))
    triv = make_module(plain, [np.eye(1), np.eye(1)])
    sign = make_module(plain, [np.eye(1), -np.eye(1)])
    rep = hom_inv_check(triv, triv, g.trivial_cocycle)
    assert rep.passed
    assert _checks(rep)["hom_dim_equals_invariant_dim"].dims == \
        {"hom": 1, "invariants": 1, "dim_M": 1, "dim_N": 1}
    rep = hom_inv_check(triv, sign, g.trivial_cocycle)
    assert rep.passed
    assert _checks(rep)["hom_dim_equals_invariant_dim"].dims["hom"] == 0
    assert _checks(rep)["hom_dim_equals_invariant_dim"].dims["invariants"] == 0


def test_hom_inv_pauli_w(inst):
    i = inst("pauli")
    system = inertia(i.module, i.action)
    w = module_over_twisted(system)
    rep = hom_inv_check(w, w, system.cocycle)
    assert rep.passed
    d = _checks(rep)["hom_dim_equals_invariant_dim"].dims
    assert d["hom"] == 1 and d["invariants"] == 1


def test_main_theorem_trivial(inst):
    i = inst("trivial")
    rep = main_theorem(build_context(i.action, i.module))
    assert rep.passed


def test_main_theorem_pauli(inst):
    i = inst("pauli")
    rep = main_theorem(build_context(i.action, i.module))
    assert rep.passed
    checks = _checks(rep)
    assert checks["gamma0_direct_route_simple"].dims == \
        {"dim_M_gamma": 1, "dim_AG": 1}
    assert checks["gamma0_corner_dim_identity"].dims == \
        {"dim_eM": 1, "dim_M_gamma": 1, "dim_inv": 1}


def test_main_theorem_swap(inst):
    i = inst("swap")
    rep = main_theorem(build_context(i.action, i.module))
    assert rep.passed
    checks = _checks(rep)
    # M_gamma = C^2, simple over the diagonal M_2 (dim 4)
    assert checks["gamma0_direct_route_simple"].dims == \
        {"dim_M_gamma": 2, "dim_AG": 4}


def test_main_theorem_routes_agree_all_fixtures(inst):
    for name in ("trivial", "swap", "pauli", "perm", "cyclic"):
        i = inst(name)
        rep = main_theorem(build_context(i.action, i.module))
        assert rep.passed, name
        for c in rep.checks:
            if c.name.endswith("routes_agree"):
                assert c.passed, (name, c.name)


def test_main_theorem_inv_dim_one_for_simple_w(inst):
    # Inv(W (x) W*) is one-dimensional whenever W is simple
    for name in ("trivial", "pauli", "perm", "cyclic"):
        i = inst(name)
        rep = main_theorem(build_context(i.action, i.module))
        for c in rep.checks:
            if c.name.endswith("corner_dim_identity"):
                assert c.dims["dim_inv"] == 1, name


def test_complete_reducibility_trivial(inst):
    i = inst("trivial")
    rep = complete_reducibility(build_context(i.action, i.module))
    assert rep.passed


def test_complete_reducibility_pauli(inst):
    i = inst("pauli")
    rep = complete_reducibility(build_context(i.action, i.module))
    assert rep.passed
    checks = _checks(rep)
    assert checks["pieces_exhaust_M"].dims == \
        {"sum_piece_dims": 2, "dim_M": 2, "pieces": 2}
    # multiplicity of the 1-dim class equals dim W_gamma = 2
    assert checks["gamma0_multiplicity_equals_dim_W"].dims == \
        {"multiplicity": 2, "dim_W": 2}


def test_complete_reducibility_swap(inst):
    i = inst("swap")
    rep = complete_reducibility(build_context(i.action, i.module))
    assert rep.passed
    checks = _checks(rep)
    assert checks["pieces_exhaust_M"].dims["pieces"] == 1
    assert checks["gamma0_multiplicity_equals_dim_W"].dims == \
        {"multiplicity": 1, "dim_W": 1}


def test_report_serialization_shape(inst):
    i = inst("pauli")
    rep = main_theorem(build_context(i.action, i.module))
    d = rep.to_dict()
    assert d["name"] == "main_theorem"
    assert d["passed"] is True
    assert all(set(c) >= {"name", "passed"} for c in d["checks"])
