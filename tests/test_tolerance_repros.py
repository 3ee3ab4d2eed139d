"""Known tolerance artefacts (ROADMAP item 2), pinned as strict expected
failures: each test asserts the basis- and scale-independent answer, and
starts to pass, so fails as a strict xfail, once the item is mended.

`solve_sandwich` thresholds eigenvalues of its normal-equations Gram matrix,
which are squared singular values, so its effective cutoff is sqrt(tol)
where `rank` applies tol itself."""

import json

import numpy as np
import pytest

from skewgroup import numeric
from skewgroup.cli import main
from skewgroup.fixtures import fixture
from skewgroup.jobs import instance_to_job, _matrix, _matrix_out

SQUARED = ("ROADMAP item 2: solve_sandwich squares the system, so its "
           "cutoff is sqrt(tol)")
BASIS = ("ROADMAP item 2: rank and residual decisions depend on the module "
         "basis; this run exits 3 at tol 1e-9 and 1 at tol 1e-7")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=SQUARED)
def test_solve_sandwich_agrees_with_rank_of_the_stacked_system():
    p, q = np.diag([1.0, 1.0 + 1e-5]), np.eye(2)
    # X P - Q X, X row-major vectorized
    stacked = np.kron(np.eye(2), p.T) - np.kron(q, np.eye(2))
    nullity = 4 - numeric.rank(stacked, 1e-9)
    assert nullity == 2
    assert len(numeric.solve_sandwich([(p, q)], 1e-9)) == nullity


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=BASIS)
@pytest.mark.parametrize("tol", ["1e-9", "1e-7"])
def test_pauli_in_a_conditioned_module_basis_passes(tmp_path, capsys, tol):
    """The pauli job with its module conjugated by S = diag(1, 100)
    [[1, 1], [0, 1]] (cond about 1e4) is the same instance, so it passes
    as the plain pauli job does."""
    job = instance_to_job(fixture("pauli"))
    s = np.diag([1.0, 100.0]) @ np.array([[1.0, 1.0], [0.0, 1.0]])
    sinv = np.linalg.inv(s)
    job["modules"]["M"]["rho"] = [_matrix_out(s @ _matrix(m, 2, 2, "rho") @ sinv)
                                  for m in job["modules"]["M"]["rho"]]
    path = tmp_path / "pauli_conjugated.json"
    path.write_text(json.dumps(job))
    code = main(["run", str(path), "--tol", tol, "--quiet"])
    capsys.readouterr()
    assert code == 0
