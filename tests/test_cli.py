"""Command-line interface: subcommands, exit codes, deterministic output."""

import json

import pytest

from skewgroup.cli import main
from skewgroup.jobs import parse_job


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
    with pytest.raises(SystemExit):
        main(["fixture", "nope"])


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
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
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
                            f"finite positive number, got {tol!r}\n")


@pytest.mark.parametrize("where, value", [
    ("algebra.dim", "one"),
    ("algebra.dim", 1.5),
    ("algebra.mult.0.0", "zero"),
    ("algebra.mult.0.2", 0.5),
    ("group.table.0.0", "e"),
    ("group.table.0.0", 0.5),
    ("modules.M.dim", "one"),
    ("seed", "one"),
    ("seed", 1.5),
    ("tol", "small"),
])
def test_malformed_numbers_are_parse_errors(tmp_path, capsys, where, value):
    data = _fixture_job(capsys, "trivial")
    *path, last = (int(k) if k.isdigit() else k for k in where.split("."))
    target = data
    for key in path:
        target = target[key]
    target[last] = value
    assert main(["validate", _write(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")
