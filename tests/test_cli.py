"""Command-line interface: subcommands, exit codes, deterministic output."""

import contextlib
import copy
import io
import itertools
import json
import re
import threading

import numpy as np
import pytest
import reference

from skewgroup.cli import _dump, main
from skewgroup.algebra import make_algebra, matrix_algebra
from skewgroup.errors import InvalidInput, ParseError
from skewgroup.fixtures import FIXTURE_NAMES, fixture, random_instance
from skewgroup.group_action import cyclic_group, make_action
from skewgroup.jobs import (
    ALL_TASKS, canonical_json, echo_json, instance_to_job, load_job, parse_job,
)
from skewgroup.repmod import make_module


def _write(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _fixture_job(capsys, name):
    assert main(["fixture", name]) == 0
    return json.loads(capsys.readouterr().out)


def test_fixture_subcommand_round_trips(capsys):
    for name in ("trivial", "swap", "pauli", "perm", "cyclic"):
        data = _fixture_job(capsys, name)
        job = parse_job(data)
        assert job.algebra.dim == data["algebra"]["dim"]
        assert job.group.order == data["group"]["order"]
        assert "M" in job.modules
        assert len(job.tasks) == 11


def test_fixture_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "nope"])
    assert exc.value.code == 2


def test_validate_fixture_job_ok(tmp_path, capsys):
    data = _fixture_job(capsys, "pauli")
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_non_associative_table_exits_2(tmp_path, capsys):
    data = _fixture_job(capsys, "trivial")
    data["group"] = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 2, 2]]}
    data["action"]["mats"] = data["action"]["mats"] * 3
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "validation error" in capsys.readouterr().err


def test_validate_missing_unit_exits_2(tmp_path, capsys):
    data = _fixture_job(capsys, "trivial")
    del data["algebra"]["unit"]
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_unreadable_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    # not UTF-8, and nested past the interpreter's recursion limit
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "\xff\xfe"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    capsys.readouterr()
    for path in (bad, deep):
        for argv in (["validate", str(path)], ["run", str(path), "--json"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith(f"parse error: cannot read job file {path}")


def test_run_single_task_json(tmp_path, capsys):
    data = _fixture_job(capsys, "pauli")
    path = _write(tmp_path, data)
    assert main(["run", path, "--task", "main_theorem", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert [t["name"] for t in payload["tasks"]] == ["main_theorem"]
    assert all(c["passed"] for c in payload["tasks"][0]["checks"])


def test_run_all_tasks_text_output(tmp_path, capsys):
    data = _fixture_job(capsys, "swap")
    path = _write(tmp_path, data)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 11
    assert "overall: PASS" in out


def _relabel_identity(data, at):
    """The job with group elements 0 and `at` swapped in the table and in the
    list of action matrices."""
    perm = list(range(data["group"]["order"]))
    perm[0], perm[at] = at, 0
    table = data["group"]["table"]
    relabelled = [[0] * len(perm) for _ in perm]
    for g, row in enumerate(table):
        for h, gh in enumerate(row):
            relabelled[perm[g]][perm[h]] = perm[gh]
    mats = [data["action"]["mats"][perm[g]] for g in range(len(perm))]
    return dict(data, group=dict(data["group"], table=relabelled),
                action={"mats": mats})


@pytest.mark.parametrize("name, at", [("swap", 1), ("pauli", 3)])
def test_run_accepts_the_identity_at_any_index(tmp_path, capsys, name, at):
    data = _fixture_job(capsys, name)
    assert data["group"]["table"][0] == list(range(data["group"]["order"]))
    data = _relabel_identity(data, at)
    assert data["group"]["table"][at] == list(range(data["group"]["order"]))
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 11
    assert "overall: PASS" in out


def test_run_failing_check_exits_1(tmp_path, capsys):
    # dual numbers: a valid unital algebra with a radical, so the
    # semisimplicity check fails without any parse/validation error
    data = {
        "algebra": {
            "dim": 2,
            "unit": [[1.0, 0.0], [0.0, 0.0]],
            "mult": [[0, 0, 0, [1.0, 0.0]], [0, 1, 1, [1.0, 0.0]],
                     [1, 0, 1, [1.0, 0.0]]],
        },
        "group": {"order": 1, "table": [[0]]},
        "action": {"mats": [[[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]]]]},
        "tasks": [{"task": "semisimple"}],
    }
    path = _write(tmp_path, data)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] semisimple" in out
    assert "overall: FAIL" in out


def test_run_json_byte_identical(tmp_path, capsys):
    data = _fixture_job(capsys, "pauli")
    path = _write(tmp_path, data)
    outputs = []
    for _ in range(3):
        assert main(["run", path, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_tol_and_seed_overrides(tmp_path, capsys):
    data = _fixture_job(capsys, "cyclic")
    path = _write(tmp_path, data)
    assert main(["run", path, "--json", "--tol", "1e-8", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tol"] == 1e-8
    assert payload["seed"] == 5


def test_overrides_do_not_carry_over_to_the_next_call(tmp_path, capsys):
    """The parser is built once per process; no call's flags reach the next."""
    path = _write(tmp_path, _fixture_job(capsys, "cyclic"))
    assert main(["run", path, "--json", "--tol", "1e-8", "--seed", "5",
                 "--task", "skew"]) == 0
    capsys.readouterr()
    assert main(["run", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["tol"], payload["seed"]) == (1e-9, 1)
    assert len(payload["tasks"]) == 11


def test_run_quiet_suppresses_check_lines(tmp_path, capsys):
    data = _fixture_job(capsys, "trivial")
    path = _write(tmp_path, data)
    assert main(["run", path, "--task", "skew", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "  ok" not in out
    assert "[PASS] skew" in out


def test_parse_rejects_unknown_task(tmp_path, capsys):
    data = _fixture_job(capsys, "trivial")
    data["tasks"] = [{"task": "frobnicate"}]
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 2


def test_parse_rejects_unknown_module_reference(tmp_path, capsys):
    data = _fixture_job(capsys, "trivial")
    data["tasks"] = [{"task": "main_theorem", "module": "missing"}]
    path = _write(tmp_path, data)
    assert main(["validate", path]) == 2


@pytest.mark.parametrize("via", ["flag", "job"])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0,
                                 1e308])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unusable_tolerance_exits_2(tmp_path, capsys, command, tol, via):
    data = _fixture_job(capsys, "swap")
    flags = ["--tol", repr(tol)] if via == "flag" else []
    if via == "job":
        data["tol"] = tol
    assert main([command, _write(tmp_path, data), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("validation error: InvalidInput: tol must be a "
                            f"number in (0, 1), got {tol!r}\n")


def _replaced(data, where, value):
    """The job with its entry at the dotted path `where` set to value; the
    empty path replaces the whole job."""
    if not where:
        return value
    *path, last = (int(k) if k.isdigit() else k for k in where.split("."))
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    return data


@pytest.mark.parametrize("where, value", [
    ("algebra.dim", "one"),
    ("algebra.dim", 1.5),
    ("algebra.mult.0.0", "zero"),
    ("algebra.mult.0.2", 0.5),
    ("modules.M.dim", "one"),
    ("seed", "one"),
    ("seed", 1.5),
    ("tol", "small"),
])
def test_malformed_numbers_are_parse_errors(tmp_path, capsys, where, value):
    data = _replaced(_fixture_job(capsys, "trivial"), where, value)
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("where, value, field", [
    ("action.mats.0.0.0", [10 ** 400, 0], "action.mats[0][0][0]"),
    ("algebra.mult.0.3", 10 ** 400, "algebra.mult[0]"),
    ("algebra.unit.0", [0, -10 ** 400], "algebra.unit[0]"),
], ids=["action_entry", "structure_constant", "unit_entry"])
def test_integer_beyond_the_float_range_is_a_parse_error_naming_its_field(
        tmp_path, capsys, where, value, field):
    data = _replaced(_fixture_job(capsys, "trivial"), where, value)
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: {field}: integer too large to convert to float\n")


@pytest.mark.parametrize("where, value, message", [
    pytest.param("modules", [], "modules must be an object of named "
                 "modules, got []", id="modules-value0"),
    pytest.param("action.mats", 5, "action.mats must be a list, got 5",
                 id="action.mats-5"),
    pytest.param("modules.M.rho", 3, "modules.M.rho must be a list, got 3",
                 id="modules.M.rho-3"),
    pytest.param("algebra.mult", 7, "algebra.mult must be a list, got 7",
                 id="algebra.mult-7"),
    pytest.param("tasks", 4, "tasks must be a list, got 4", id="tasks-4"),
    pytest.param("tasks.0.module", ["M"],
                 "task references unknown module ['M']",
                 id="tasks.0.module-value5"),
    pytest.param("", [], "job file must contain a JSON object",
                 id="not_an_object"),
    pytest.param("algebra.mult.0", [0, 0, 0],
                 "mult entry must be [i, j, k, scalar], got [0, 0, 0]",
                 id="mult_entry_length"),
    pytest.param("algebra.mult.0.2", 1,
                 "mult entry index out of range: [0, 0, 1]",
                 id="mult_index_range"),
    pytest.param("group", 3, "group section malformed: 'int' object is not "
                 "subscriptable", id="group_section"),
    pytest.param("group.table", [[0, 0]], "group table must be order x order",
                 id="group_table_shape"),
    pytest.param("action", 3, "action section malformed: 'int' object is "
                 "not subscriptable", id="action_section"),
    pytest.param("modules.M", 3, "module 'M' malformed: 'int' object is not "
                 "subscriptable", id="module_section"),
    pytest.param("tasks.0", 3, "task record malformed: 3", id="task_record"),
])
def test_malformed_sections_are_parse_errors(tmp_path, capsys, where, value,
                                            message):
    data = _replaced(_fixture_job(capsys, "trivial"), where, value)
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("where, value, message", [
    ("algebra.dim", 2, "unit length 1 does not match dim 2"),
    ("action.mats", [], "need exactly one matrix per group element: got 0 "
     "for order 1"),
    ("modules.M.rho", [], "need one action matrix per algebra basis element: "
     "got 0 for dim 1"),
    ("group.table.0.0", "e",
     "table entry [0][0] must be an index in [0, 1), got 'e'"),
    ("group.table.0.0", 0.5,
     "table entry [0][0] must be an index in [0, 1), got 0.5"),
    ("group.table.0.0", True,
     "table entry [0][0] must be an index in [0, 1), got True"),
    ("group.table.0.0", 2 ** 63, "table entry [0][0] must be an index in "
     "[0, 1), got 9223372036854775808"),
    ("group.table.0.0", 1e308,
     "table entry [0][0] must be an index in [0, 1), got 1e+308"),
    ("tol", 10 ** 400, f"tol must be a number in (0, 1), got 1{'0' * 76}..."),
    ("algebra.dim", 2 ** 40, "algebra dimension 1099511627776 is too large: "
     "dim^3 > 9223372036854775807"),
    ("algebra.dim", 10 ** 6, "unit length 1 does not match dim 1000000"),
], ids=["unit_length", "action_count", "module_count", "group.table.0.0-e",
        "group.table.0.0-0.5", "table_entry_bool", "table_entry_2**63",
        "table_entry_1e308", "tol_beyond_the_float_range", "dim_cube_too_large",
        "dim_cube_fits"])
def test_rules_of_a_constructor_are_validation_errors(tmp_path, capsys, where,
                                                      value, message):
    """parse_job leaves each count, the tolerance, every group-table entry
    and the size of the dimension to the constructor that needs it, whose
    message names what it got and what it wanted; an entry beyond int64 is
    named like any other, and a dimension whose cube exceeds int64 is not
    taken for an index out of range."""
    data = _replaced(_fixture_job(capsys, "trivial"), where, value)
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr() == (
        "", f"validation error: InvalidInput: {message}\n")


@pytest.mark.parametrize("build, message", [
    (lambda a: make_module(a, []),
     "need one action matrix per algebra basis element: got 0 for dim 1"),
    (lambda a: make_module(a, [[[1, 0], [1]]]),
     "inconsistent action matrix shapes"),
    (lambda a: make_module(a, [[[1, 0]]]), "action matrices must be square"),
    (lambda a: make_action(cyclic_group(2), a, [np.eye(1)]),
     "need exactly one matrix per group element: got 1 for order 2"),
    (lambda a: make_action(cyclic_group(2), a, [np.eye(1), np.eye(2)]),
     "action matrix 1 has wrong shape"),
], ids=["module_count", "module_ragged", "module_not_square", "action_count",
        "action_shape"])
def test_constructors_reject_malformed_matrices(build, message):
    """A job file reaches the counts (above) but not the shapes, which
    parse_job reads from its dim fields.  A library caller gets
    InvalidInput, which `skewgroup` reports as a validation error with
    exit 2."""
    with pytest.raises(InvalidInput) as exc:
        build(matrix_algebra(1))
    assert str(exc.value) == message


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
def test_run_unknown_task_exits_2(tmp_path, capsys, flags):
    path = _write(tmp_path, _fixture_job(capsys, "pauli"))
    assert main(["run", path, "--task", "nosuch", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "'nosuch'" in err and "known tasks: semisimple, inertia," in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
def test_run_task_the_job_does_not_list_exits_2(tmp_path, capsys, flags):
    data = _fixture_job(capsys, "pauli")
    data["tasks"] = [{"task": "main_theorem"}, {"task": "skew"}]
    path = _write(tmp_path, data)
    assert main(["run", path, "--task", "inertia", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "'inertia'" in err and "listed tasks: main_theorem, skew" in err


@pytest.mark.parametrize("command, via", [("validate", "job"), ("run", "job"),
                                          ("run", "flag")])
def test_negative_seed_exits_2(tmp_path, capsys, command, via):
    """A negative seed used to pass `validate` and crash `run` in numpy's
    generator with exit 1; it is a parse error naming the seed."""
    data = _fixture_job(capsys, "pauli")
    seed = -1 if via == "flag" else -3
    flags = ["--seed", str(seed)] if via == "flag" else []
    if via == "job":
        data["seed"] = seed
    assert main([command, _write(tmp_path, data), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: seed must be a non-negative "
                            f"integer, got {seed}\n")


def _large_entry_job(case, x):
    """A job of every task whose largest entry is x: the 1-dim algebra
    b b = x b with unit b / x and rho(b) = x ("field"), or C^2 with the
    module rho(e_1) = [[1, x], [0, 0]], rho(e_2) = I - rho(e_1) ("pair")."""
    def c(z):
        return [float(z), 0.0]
    if case == "field":
        algebra = {"dim": 1, "mult": [[0, 0, 0, c(x)]], "unit": [c(1 / x)]}
        rho = [[[c(x)]]]
    else:
        algebra = {"dim": 2, "mult": [[0, 0, 0, c(1)], [1, 1, 1, c(1)]],
                   "unit": [c(1), c(1)]}
        rho = [[[c(1), c(x)], [c(0), c(0)]], [[c(0), c(-x)], [c(0), c(1)]]]
    d = algebra["dim"]
    return {"algebra": algebra, "group": {"order": 1, "table": [[0]]},
            "action": {"mats": [[[c(r == s) for s in range(d)]
                                 for r in range(d)]]},
            "modules": {"M": {"dim": len(rho[0]), "rho": rho}},
            "tasks": [{"task": t} for t in ALL_TASKS]}


@pytest.mark.parametrize("case, x, entry", [
    ("field", 1e160, "structure constant c[0, 0, 0] = 1e+160+0j"),
    ("pair", 2e154, "rho[0][0, 1] = 2e+154+0j"),
    ("pair", 1e154, "rho[0][0, 1] = 1e+154+0j"),
], ids=["associativity_overflow", "module_scale_overflow", "eig_diverges"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_an_entry_beyond_the_bound_exits_2_naming_it(tmp_path, capsys,
                                                     command, case, x, entry):
    """Each job used to print a traceback and exit 1: an OverflowError in
    the associativity check or in validate_module's residual scale, or a
    LinAlgError from a task's eigensolver."""
    assert main([command, _write(tmp_path, _large_entry_job(case, x))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"validation error: InvalidInput: {entry} exceeds "
                            f"1e+100 in modulus\n")


@pytest.mark.parametrize("case", ["field", "pair"])
def test_entries_at_the_bound_still_run(tmp_path, capsys, case):
    """At 1e100 the skew task's associator residual holds entries near
    1e300, whose squares overflow unless frobenius scales them first."""
    path = _write(tmp_path, _large_entry_job(case, 1e100))
    assert main(["validate", path]) == 0
    code = main(["run", path, "--json"])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code in (0, 1)
    assert len(report["tasks"]) == len(ALL_TASKS)


def test_each_constructor_rejects_an_entry_beyond_the_bound():
    a = matrix_algebra(1)
    with pytest.raises(InvalidInput, match=re.escape(
            "structure constant c[0, 0, 0] = -2e+100+0j exceeds")):
        make_algebra(1, np.array([[[-2e100]]]), [-0.5e-100])
    with pytest.raises(InvalidInput, match=re.escape("unit[0] = 0+2e+100j")):
        make_algebra(1, np.ones((1, 1, 1)), [2e100j])
    with pytest.raises(InvalidInput, match=re.escape("mats[1][0, 0] = 1e+101")):
        make_action(cyclic_group(2), a, [np.eye(1), [[1e101]]])
    with pytest.raises(InvalidInput, match=re.escape("rho[0][0, 0] = 1e+101")):
        make_module(a, [[[1e101]]])


@pytest.mark.parametrize("task", ["inertia", "cocycle", "induced_simplicity",
                                  "hom_inv", "main_theorem",
                                  "complete_reducibility"])
def test_module_task_in_a_job_without_modules_exits_2(tmp_path, capsys, task):
    """It used to pass `validate` and crash `run` with a KeyError, as did a
    task whose module is given as null."""
    data = _fixture_job(capsys, "pauli")
    nulled = dict(data, tasks=[{"task": task, "module": None}])
    data["modules"] = {}
    data["tasks"] = [{"task": "semisimple"}, {"task": task}]
    paths = [_write(tmp_path, data), _write(tmp_path, nulled, "nulled.json")]
    for command, path in itertools.product(("validate", "run"), paths):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"parse error: task {task!r} needs a module, "
                                "but none is given\n")


def test_module_free_tasks_run_in_a_job_without_modules(tmp_path, capsys):
    data = _fixture_job(capsys, "pauli")
    data["modules"] = {}
    data["tasks"] = [{"task": t} for t in ("semisimple", "skew", "phi_psi")]
    assert main(["run", _write(tmp_path, data), "--quiet"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 3


@pytest.mark.parametrize("name", ["trivial", "swap", "pauli", "perm", "cyclic"])
def test_each_task_alone_prints_its_record_of_the_full_run(tmp_path, capsys,
                                                           name):
    data = _fixture_job(capsys, name)
    path = _write(tmp_path, data)
    main(["run", path, "--json"])
    full = json.loads(capsys.readouterr().out)["tasks"]
    tasks = [t["task"] for t in data["tasks"]]
    assert len(full) == len(tasks) == 11
    for task, record in zip(tasks, full):
        code = main(["run", path, "--json", "--task", task])
        alone = json.loads(capsys.readouterr().out)["tasks"]
        assert [_dump(r) for r in alone] == [_dump(record)]
        assert (code == 0) == record["passed"]


def _booleans(matrix):
    """The matrix with each part of each entry turned into a boolean."""
    return [[[bool(x) for x in z] for z in row] for row in matrix]


@pytest.mark.parametrize("where, field", [
    ("algebra.unit", "algebra.unit[0]"),
    ("algebra.mult", "algebra.mult[0]"),
    ("action.mats", "action.mats[0][0][0]"),
    ("modules.M.rho", "modules.M.rho[0][0][0]"),
], ids=["unit_entry", "structure_constant", "action_matrix", "module_matrix"])
def test_a_boolean_is_not_a_scalar(tmp_path, capsys, where, field):
    data = _fixture_job(capsys, "swap")
    target = data
    for key in where.split("."):
        target = target[key]
    if where == "algebra.unit":
        target[0] = [True, False]
    elif where == "algebra.mult":
        target[0][3] = True
    else:
        target[0] = _booleans(target[0])
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {field}: ")


def _echo_cases():
    """(job dictionary, run flags, reference overrides) of jobs whose
    report must echo them as the old payload builder did."""
    pauli = json.loads(_capture(["fixture", "pauli"]))
    # keys in reverse order, and keys the parser never reads
    unsorted = {key: pauli[key] for key in reversed(list(pauli))}
    unsorted["zz_comment"] = {"b": [True, None, 1.5e-300], "a": "note"}
    unsorted["algebra"] = dict(reversed(list(pauli["algebra"].items())),
                               extra=[{"y": 1, "x": 2}])
    unsorted["tasks"] = [dict(t, note="kept") for t in pauli["tasks"]]
    # a slot given twice, the first value stale, and a non-ASCII name
    repeated = json.loads(_capture(["fixture", "perm"]))
    mult = repeated["algebra"]["mult"]
    repeated["algebra"]["mult"] = [[*mult[0][:3], [5.0, 0.0]]] + mult
    repeated["name"] = "Перестановки — S₃ ✓"
    cyclic = json.loads(_capture(["fixture", "cyclic"]))
    return [
        (unsorted, [], {}),
        (repeated, [], {}),
        (cyclic, ["--tol", "1e-8"], {"tol": 1e-8}),
        (cyclic, ["--seed", "5"], {"seed": 5}),
        (cyclic, ["--task", "induced_simplicity"], {"task": "induced_simplicity"}),
        (cyclic, ["--tol", "1e-7", "--seed", "0", "--task", "skew"],
         {"tol": 1e-7, "seed": 0, "task": "skew"}),
    ]


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _assert_echoes_reference(path, flags, overrides):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["run", str(path), "--json", *flags])
    assert out.getvalue() == reference.run_report(path, **overrides)


@pytest.mark.parametrize("source", [*FIXTURE_NAMES, *range(20)])
def test_json_report_is_the_payload_of_the_decoded_job(tmp_path, source):
    inst = fixture(source) if isinstance(source, str) else random_instance(source)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(instance_to_job(inst)))
    _assert_echoes_reference(path, [], {})


@pytest.mark.parametrize("case", range(6), ids=[
    "unsorted_and_unknown_keys", "repeated_slot_and_non_ascii_name",
    "tol_override", "seed_override", "task_filter", "all_overrides"])
def test_json_report_echoes_unusual_jobs_and_overrides(tmp_path, case):
    data, flags, overrides = _echo_cases()[case]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    _assert_echoes_reference(path, flags, overrides)


def test_a_loaded_job_keeps_its_canonical_text(tmp_path, capsys):
    data = _fixture_job(capsys, "swap")
    data["zz"] = {"b": 1, "a": [2, 3]}
    job = load_job(_write(tmp_path, data))
    assert isinstance(job.raw, str)
    assert job.raw == json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_a_job_json_cannot_serialize_is_a_parse_error(capsys):
    data = _fixture_job(capsys, "swap")
    data["note"] = {1j}
    with pytest.raises(ParseError, match="job is not JSON"):
        parse_job(data)


@pytest.mark.parametrize("where, value", [
    ("name", float("nan")),
    ("note", float("inf")),
    ("tasks.0.note", float("-inf")),
])
def test_nan_or_infinity_in_a_field_no_constructor_reads_exits_2(
        tmp_path, capsys, where, value):
    # the --json report echoes the job, and JSON has no NaN or Infinity
    data = _replaced(_fixture_job(capsys, "pauli"), where, value)
    path = _write(tmp_path, data)
    for argv in (["validate", path], ["run", path, "--json"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("parse error: job is not JSON")


def _raises_recursion(f, arg):
    try:
        f(arg)
    except RecursionError:
        return True
    return False


def _nested(depth):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


def test_a_job_nested_too_deeply_to_encode_is_a_parse_error(capsys):
    # the depth json stops encoding at depends on the Python version: from
    # 3.12 its C code has a limit of its own, apart from the recursion limit
    depth = next((d for d in (2 ** k for k in range(10, 18))
                  if _raises_recursion(json.dumps, _nested(d))), None)
    if depth is None:
        pytest.skip("json encodes lists nested 2**17 deep")
    data = _fixture_job(capsys, "pauli")
    data["zz"] = _nested(depth)
    with pytest.raises(ParseError, match="job is not JSON"):
        parse_job(data)


def test_validate_of_a_job_nested_near_the_decode_limit_exits_0_or_2(
        tmp_path, capsys):
    # before 3.12, json.load accepts depths that parse_job, a few frames
    # deeper, cannot encode again for the echo; from 3.12 json's C code
    # stops both at one depth of its own
    text = json.dumps(_fixture_job(capsys, "pauli"))[:-1] + ', "zz": '

    def job_text(depth):
        return text + "[" * depth + "]" * depth + "}"

    # the deepest job json.loads accepts here, found by bisection
    lo = 0
    hi = hi_cap = 2 ** 17
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _raises_recursion(json.loads, job_text(mid)):
            hi = mid - 1
        else:
            lo = mid
    if lo == hi_cap:
        pytest.skip("json decodes lists nested 2**17 deep")
    path = tmp_path / "job.json"
    codes = set()
    for depth in range(lo - 200, lo + 2):
        path.write_text(job_text(depth))
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2)
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("parse error: ")
        codes.add(code)
    # past the deepest loadable job, loading itself fails
    assert codes == {0, 2}


# Every field of the pauli job that parse_job reads, as a dotted path.
READ_FIELDS = (
    "", "tol", "seed", "algebra", "algebra.dim", "algebra.unit",
    "algebra.unit.0", "algebra.mult", "algebra.mult.0", "algebra.mult.0.0",
    "algebra.mult.0.3", "group", "group.order", "group.table", "group.table.0",
    "group.table.0.0", "action", "action.mats", "action.mats.0",
    "action.mats.0.0", "action.mats.0.0.0", "modules", "modules.M",
    "modules.M.dim", "modules.M.rho", "modules.M.rho.0", "tasks", "tasks.0",
    "tasks.0.task", "tasks.0.module")


@pytest.mark.parametrize("command", [["validate"], ["run", "--json"]])
def test_a_value_nested_960_deep_in_any_read_field_exits_2_with_one_short_line(
        tmp_path, capsys, command):
    """Each message quotes the offending value cut to a bounded length.
    The job is written and run in a new thread, whose stack is as shallow
    as that of a call from a shell, so that the job loads."""
    base = _fixture_job(capsys, "pauli")
    for where in READ_FIELDS:
        data = _replaced(copy.deepcopy(base), where, _nested(960))
        codes = []

        def call():
            path = _write(tmp_path, data)
            codes.append(main([command[0], path, *command[1:]]))

        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        out, err = capsys.readouterr()
        assert codes == [2], where
        assert out == "" and err.count("\n") == 1 and len(err) < 200, where
        assert "cannot read job file" not in err, where


def test_the_echoed_job_is_spliced_only_before_later_keys():
    text = canonical_json({"b": [1, 2], "a": "ü"})
    payload = {"tol": 1e-9, "tasks": [], "passed": True}
    assert echo_json(text, payload) == canonical_json(
        {"job": json.loads(text), **payload})
    for key in ("elapsed", "errors", "job"):
        with pytest.raises(ValueError, match="sort after 'job'"):
            echo_json(text, {**payload, key: 0})


# What a fuzz mutation may write over a leaf: integers beyond int64 and
# beyond the float range, the top float decade, a negative index, and a
# value of each other JSON type.
FUZZ_LEAVES = (2 ** 63, -1, 10 ** 400, 1e308, True, None, "x", [], {})
FUZZ_MUTATIONS = 300


def _walk(data, rng):
    """A random path from the root of a JSON tree down to a leaf or an
    empty container, as (container, key) steps, one child drawn uniformly
    at each level."""
    path, node = [], data
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = keys[rng.integers(len(keys))]
        path.append((node, key))
        node = node[key]
    return path


def _mutate(data, rng):
    """Mutate the job in place once, on a random path: delete a key, write
    a leaf of FUZZ_LEAVES over its end, or duplicate a list element.  A
    path with no key (no list element) to delete (duplicate) is written
    over instead.  Returns (kind, keys of the site, value written)."""
    path = _walk(data, rng)
    kind = ("delete", "replace", "duplicate")[rng.integers(3)]
    sites = [(c, k) for c, k in path if isinstance(c, dict) == (kind == "delete")]
    if kind == "replace" or not sites:
        container, key = path[-1]
        container[key] = FUZZ_LEAVES[rng.integers(len(FUZZ_LEAVES))]
        return "replace", tuple(k for _, k in path), container[key]
    container, key = sites[rng.integers(len(sites))]
    keys = tuple(k for _, k in path[:path.index((container, key)) + 1])
    if kind == "delete":
        del container[key]
    else:
        container.insert(key, copy.deepcopy(container[key]))
    return kind, keys, None


def test_mutated_fixture_jobs_exit_with_a_documented_code(tmp_path, capsys):
    """Seeded structural fuzz of the five fixture jobs.  Each mutated job is
    validated, and run with --json when it validates: no exception escapes,
    every exit code is 0 to 3, and a job that fails to load exits 2 with one
    stderr line and no report."""
    jobs = {name: _fixture_job(capsys, name) for name in FIXTURE_NAMES}
    rng = np.random.default_rng(31)
    table_overflow = False
    for t in range(FUZZ_MUTATIONS):
        data = copy.deepcopy(jobs[FIXTURE_NAMES[t % len(FIXTURE_NAMES)]])
        kind, keys, value = _mutate(data, rng)
        table_overflow |= keys[:2] == ("group", "table") and value == 2 ** 63
        where = f"mutation {t}: {kind} at {keys}, {value!r}"
        path = _write(tmp_path, data)
        code = main(["validate", path])
        out, err = capsys.readouterr()
        if code == 0:
            assert (out, err) == (f"{path}: OK\n", ""), where
            code = main(["run", path, "--json"])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), where
            assert err == "", where
            assert json.loads(out)["passed"] == (code == 0), where
        else:
            assert code == 2, where
            assert out == "" and err.count("\n") == 1, where
    # the net covers the group-table entry numpy cannot hold as int64
    assert table_overflow
