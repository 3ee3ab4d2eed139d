"""Job parsing: matrices converted at once agree with the per-entry path,
and the built-in instances give the jobs of their families."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from skewgroup import jobs
from skewgroup.errors import ParseError
from skewgroup.fixtures import fixture, random_instance
from skewgroup.jobs import instance_to_job

FIXTURES = ("trivial", "swap", "pauli", "perm", "cyclic")


def _per_entry(obj, rows, cols, where):
    """One scalar at a time: the conversion every matrix once took."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {r} must have {cols} entries")
        for c, entry in enumerate(row):
            out[r, c] = jobs._scalar(entry, f"{where}[{r}][{c}]")
    return out


def _outcome(convert, obj, rows, cols):
    """The bytes of the converted matrix, or the type and text of the error."""
    try:
        return convert(obj, rows, cols, "where").tobytes()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _job_matrices(data):
    """Every matrix of a job dictionary, with its shape, as decoded JSON."""
    data = json.loads(json.dumps(data))
    dim = data["algebra"]["dim"]
    out = [(m, dim, dim) for m in data["action"]["mats"]]
    for spec in data["modules"].values():
        out += [(m, spec["dim"], spec["dim"]) for m in spec["rho"]]
    return out


@pytest.mark.parametrize("source", [*FIXTURES, *range(20)])
def test_array_conversion_is_bitwise_the_per_entry_one(source):
    inst = fixture(source) if isinstance(source, str) else random_instance(source)
    for obj, rows, cols in _job_matrices(instance_to_job(inst)):
        out = jobs._matrix(obj, rows, cols, "where")
        assert out.tobytes() == _per_entry(obj, rows, cols, "where").tobytes()


def test_array_conversion_keeps_negative_zero_and_exact_numbers():
    big = [2 ** 53 + 1, 2 ** 63, 2 ** 64 - 1, -(2 ** 63)]
    obj = [[[-0.0, 0.0], [1, -0.0]],
           [[1, 0], [big[0], 0.5]],
           [[big[1], -1], [big[2], big[3]]]]
    out = jobs._matrix(obj, 3, 2, "where")
    assert out.tobytes() == _per_entry(obj, 3, 2, "where").tobytes()
    assert np.signbit(out[0, 0].real) and np.signbit(out[0, 1].imag)
    assert not np.signbit(out[0, 0].imag)


@pytest.mark.parametrize("obj, rows, cols", [
    ([[[1, 0], "x"]], 1, 2),                       # a string entry
    ([[[1, 0], ["1", 0]]], 1, 2),                  # a string part
    ([[None, [1, 0]]], 1, 2),                      # null
    ([[[1, 0, 0], [1, 0, 0]]], 1, 2),              # three-element scalars
    ([[[1, 0], [1, 0]], [[1, 0]]], 2, 2),          # a ragged row
    ([[[1, 0], [1, 0]]], 2, 2),                    # too few rows
    ([[[1, 0]], [[1, 0]], [[1, 0]]], 2, 1),        # too many rows
    ([[[[1, 0]], [[1, 0]]]], 1, 2),                # nested too deep
    ([[[2 ** 70, 0], [0, 2 ** 70]]], 1, 2),        # integers beyond int64
    ([[[10 ** 400, 0], [0, 0]]], 1, 2),            # beyond any float
    ([[1, 2.5]], 1, 2),                            # plain numbers
    ([[[1, 0], 2]], 1, 2),                         # pairs and numbers mixed
    ([([1, 0], [1, 0])], 1, 2),                    # a row that is no list
    ([[[True, False], [False, True]]], 1, 2),      # booleans only
    ([[[1, 0], [True, 0.5]]], 1, 2),               # a boolean among numbers
    ([[[1, 0], [1, False]]], 1, 2),                # a boolean among integers
    ("rows", 1, 1),
])
def test_malformed_and_unusual_matrices_fare_as_per_entry(obj, rows, cols):
    assert _outcome(jobs._matrix, obj, rows, cols) == \
        _outcome(_per_entry, obj, rows, cols)


def _benchmark_workloads():
    """perfbench/workloads.py, whose block_rotation_job builds a job without
    skewgroup."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, shape", [
    ("trivial", (1, 1, 1, [[0]])),
    ("swap", (2, 2, 1, [[0, 0], [0, 0]])),
])
def test_trivial_and_swap_are_block_rotation_instances(name, shape):
    workloads = _benchmark_workloads()
    assert instance_to_job(fixture(name)) == \
        workloads.block_rotation_job(name, *shape)
