"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N ... PASS/FAIL" line (visible with
pytest -s or -v on failure) and enforces its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from skewgroup.cli import main as cli_main
from skewgroup.fixtures import FIXTURE_NAMES, fixture, random_instance
from skewgroup.group_action import cyclic_group
from skewgroup.projective import trivial_cocycle, twisted_group_algebra
from skewgroup.repmod import is_simple, make_module
from skewgroup.runner import run_job
from skewgroup.skew import check_phi_psi, skew_group_algebra
from skewgroup.theorems import (
    build_context,
    check_invariant_theory,
    complete_reducibility,
    hom_inv_check,
    induced_simplicity,
    main_theorem,
)
from skewgroup.algebra import fixed_subalgebra
from skewgroup.jobs import parse_job
from skewgroup.projective import inertia

TOL = 1e-9
SEED = 1

_CACHE = {}


def _inst(name):
    if name not in _CACHE:
        _CACHE[name] = fixture(name)
    return _CACHE[name]


def _rand(seed):
    key = ("rand", seed)
    if key not in _CACHE:
        _CACHE[key] = random_instance(seed)
    return _CACHE[key]


def _skew(i):
    key = ("skew", i.name)
    if key not in _CACHE:
        _CACHE[key] = skew_group_algebra(i.algebra, i.group, i.action, seed=SEED)
    return _CACHE[key]


class _criterion:
    """Times a block, prints the verdict line, and enforces the budget."""

    def __init__(self, number, label, budget):
        self.number, self.label, self.budget = number, label, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.label}): {verdict} "
              f"[{elapsed:.2f}s / budget {self.budget}s]")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s"
        return False


def test_criterion_1_skew_product_correctness():
    with _criterion(1, "skew product correctness", 1.0):
        for name in FIXTURE_NAMES:
            i = _inst(name)
            s = _skew(i)
            rng = np.random.default_rng([41, i.group.order, i.algebra.dim])
            d = s.alg.dim
            for _ in range(100):
                x, y, z = rng.standard_normal((3, d))
                lhs = s.alg.product(s.alg.product(x, y), z)
                rhs = s.alg.product(x, s.alg.product(y, z))
                assert np.linalg.norm(lhs - rhs) <= 1e-8
        triv = _inst("trivial")
        assert np.array_equal(_skew(triv).alg.mult, triv.algebra.mult)


def test_criterion_2_phi_psi():
    expected = {"trivial": 1, "swap": 4, "pauli": 1, "perm": 1, "cyclic": 2}
    with _criterion(2, "corner isomorphic to invariants", 1.0):
        for name in FIXTURE_NAMES:
            i = _inst(name)
            fixed = fixed_subalgebra(i.algebra, i.action)
            result = check_phi_psi(_skew(i), fixed)
            assert result.passed, name
            assert result.phi_mult_residual <= 1e-8, name
            assert fixed.sub.dim == result.corner.sub.dim == expected[name], name


def test_criterion_3_invariant_theory():
    with _criterion(3, "invariant theory correspondence", 60.0):
        for name in FIXTURE_NAMES:
            rep = check_invariant_theory(_skew(_inst(name)), SEED)
            assert rep.passed, name
        for seed in range(20):
            i = _rand(seed)
            s = skew_group_algebra(i.algebra, i.group, i.action, seed=SEED)
            _CACHE[("rskew", seed)] = s
            rep = check_invariant_theory(s, SEED)
            assert rep.passed, ("random", seed)


def test_criterion_4_cocycle_validity():
    with _criterion(4, "cocycle validity", 1.0):
        for name in FIXTURE_NAMES:
            i = _inst(name)
            system = inertia(i.module, i.action, seed=SEED)
            _CACHE[("system", name)] = system
            coc = system.cocycle
            assert np.all(coc.table[0, :] == 1.0), name
            assert np.all(coc.table[:, 0] == 1.0), name
            assert coc.validate(1e-8) <= 1e-8, name
        pauli = _CACHE[("system", "pauli")]
        t = pauli.cocycle.table
        assert t[1, 2] / t[2, 1] == pytest.approx(-1.0)


def test_criterion_5_induced_simplicity():
    with _criterion(5, "induced module simplicity", 5.0):
        for name in FIXTURE_NAMES:
            i = _inst(name)
            ctx = build_context(i.algebra, i.action, i.module, SEED)
            _CACHE[("ctx", name)] = ctx
            s = _skew(i)
            for gamma in ctx.iso.class_ids():
                rep = induced_simplicity(ctx.system, gamma, s, dec=ctx.iso,
                                         seed=SEED)
                assert rep.passed, (name, gamma)
                d = {c.name: c.dims for c in rep.checks}["dimension_law"]
                assert d["dim_induced"] == d["index"] * d["dim_M"] * d["dim_W"]


def test_criterion_6_hom_equals_invariants():
    with _criterion(6, "hom space equals invariants", 10.0):
        rng = np.random.default_rng(6006)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 9))
            g = cyclic_group(n)
            coc = trivial_cocycle(g)
            alg = twisted_group_algebra(g, coc, 1, TOL)
            omega = np.exp(2j * np.pi / n)
            mods = []
            for _ in range(2):
                dim = int(rng.integers(1, 4))
                ks = rng.integers(0, n, size=dim)
                s = rng.standard_normal((dim, dim)) \
                    + 1j * rng.standard_normal((dim, dim))
                sinv = np.linalg.inv(s)
                rho = [s @ np.diag(omega ** (ks * t)) @ sinv for t in range(n)]
                mods.append(make_module(alg, rho))
            rep = hom_inv_check(mods[0], mods[1], g, coc, SEED)
            assert rep.passed, (n, done)
            done += 1


def test_criterion_7_main_theorem():
    with _criterion(7, "multiplicity spaces simple over invariants", 5.0):
        for name in FIXTURE_NAMES:
            i = _inst(name)
            rep = main_theorem(i.algebra, i.action, i.module, SEED,
                               ctx=_CACHE.get(("ctx", name)))
            assert rep.passed, name
            checks = {c.name: c for c in rep.checks}
            for c in rep.checks:
                if c.name.endswith("routes_agree"):
                    assert c.passed, (name, c.name)
            if name == "pauli":
                assert checks["gamma0_direct_route_simple"].dims == \
                    {"dim_M_gamma": 1, "dim_AG": 1}
            if name == "swap":
                assert checks["gamma0_direct_route_simple"].dims == \
                    {"dim_M_gamma": 2, "dim_AG": 4}
            for c in rep.checks:
                if c.name.endswith("corner_dim_identity"):
                    assert c.dims["dim_eM"] == \
                        c.dims["dim_M_gamma"] * c.dims["dim_inv"], name


def test_criterion_8_complete_reducibility():
    with _criterion(8, "complete reducibility over invariants", 30.0):
        for name in FIXTURE_NAMES:
            i = _inst(name)
            rep = complete_reducibility(i.algebra, i.action, i.module, SEED,
                                        ctx=_CACHE.get(("ctx", name)))
            assert rep.passed, name
        for seed in range(20):
            i = _rand(seed)
            rep = complete_reducibility(i.algebra, i.action, i.module, SEED)
            assert rep.passed, ("random", seed)


def test_criterion_9_determinism_and_tolerance_stability(tmp_path, capsys):
    with _criterion(9, "determinism and tolerance stability", 120.0):
        for name in FIXTURE_NAMES:
            assert cli_main(["fixture", name]) == 0
            data = json.loads(capsys.readouterr().out)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            outputs = []
            for _ in range(2):
                assert cli_main(["run", str(path), "--json"]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], name
            for tol in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
                job = parse_job(data, tol=tol)
                _, exit_code = run_job(job)
                assert exit_code == 0, (name, tol)
