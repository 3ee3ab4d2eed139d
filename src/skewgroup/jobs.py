"""Job-file (JSON) parsing and serialization.

Wire conventions: scalars are two-element [re, im] arrays; matrices are
row-major nested lists of scalars; structure constants are sparse
[i, j, k, scalar] entries with omitted entries zero; indices are 0-based.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .algebra import Algebra, make_algebra
from .errors import ParseError
from .fixtures import ALL_TASKS, Instance
from .group_action import AlgebraAction, FiniteGroup, make_action, make_group
from .repmod import make_module


@dataclass
class JobSpec:
    algebra: Algebra
    group: FiniteGroup
    action: AlgebraAction
    modules: dict               # name -> Module
    tasks: list                 # of {"task": name, "module": name, ...}
    tol: float
    seed: int
    raw: dict = field(repr=False, default=None)


def _scalar(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, (int, float)) for x in obj)):
        return complex(obj[0], obj[1])
    raise ParseError(f"scalar must be a number or [re, im] pair, got {obj!r}")


def _int(obj, where) -> int:
    """An integer field; a whole float such as 2.0 counts, a bool does not."""
    if isinstance(obj, numbers.Integral) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, float) and obj.is_integer():
        return int(obj)
    raise ParseError(f"{where} must be an integer, got {obj!r}")


def _matrix(obj, rows, cols, where) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {r} must have {cols} entries")
        for c, entry in enumerate(row):
            out[r, c] = _scalar(entry)
    return out


def _scalar_out(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_out(m: np.ndarray) -> list:
    return [[_scalar_out(z) for z in row] for row in np.asarray(m)]


def parse_job(data: dict, tol=None, seed=None) -> JobSpec:
    """Build and validate all objects referenced by a job dictionary."""
    if not isinstance(data, dict):
        raise ParseError("job file must contain a JSON object")
    # --tol and --seed override the job's own values
    if tol is None:
        tol = data.get("tol", numeric.DEFAULT_TOL)
    if seed is None:
        seed = data.get("seed", numeric.DEFAULT_SEED)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ParseError(f"tol must be a number, got {tol!r}")
    job_tol = float(tol)
    job_seed = _int(seed, "seed")

    try:
        aspec = data["algebra"]
        dim = _int(aspec["dim"], "algebra.dim")
        unit = [_scalar(z) for z in aspec["unit"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"algebra section malformed: {exc}")
    if len(unit) != dim:
        raise ParseError("algebra unit length does not match dim")
    mult = np.zeros((dim, dim, dim), dtype=np.complex128)
    for entry in aspec.get("mult", []):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(f"mult entry must be [i, j, k, scalar], got {entry!r}")
        i, j, k = (_int(x, "mult index") for x in entry[:3])
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ParseError(f"mult entry index out of range: {entry[:3]}")
        mult[i, j, k] = _scalar(entry[3])
    algebra = make_algebra(dim, mult, unit, tol=job_tol)

    try:
        gspec = data["group"]
        order = _int(gspec["order"], "group.order")
        table = gspec["table"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"group section malformed: {exc}")
    if (not isinstance(table, list) or len(table) != order
            or any(not isinstance(row, list) or len(row) != order
                   for row in table)):
        raise ParseError("group table must be order x order")
    group = make_group([[_int(x, "group.table entry") for x in row]
                        for row in table])

    try:
        mats = data["action"]["mats"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"action section malformed: {exc}")
    if len(mats) != order:
        raise ParseError("action needs one matrix per group element")
    action = make_action(group, algebra,
                         [_matrix(m, dim, dim, f"action.mats[{g}]")
                          for g, m in enumerate(mats)])

    modules = {}
    for name, mspec in data.get("modules", {}).items():
        try:
            mdim = _int(mspec["dim"], f"modules.{name}.dim")
            rho = mspec["rho"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"module {name!r} malformed: {exc}")
        if len(rho) != dim:
            raise ParseError(f"module {name!r} needs one matrix per basis element")
        modules[name] = make_module(
            algebra,
            [_matrix(m, mdim, mdim, f"modules.{name}.rho[{i}]")
             for i, m in enumerate(rho)])

    default_module = next(iter(modules), None)
    tasks = []
    for t in data.get("tasks", []):
        if not isinstance(t, dict) or "task" not in t:
            raise ParseError(f"task record malformed: {t!r}")
        if t["task"] not in ALL_TASKS:
            raise ParseError(f"unknown task {t['task']!r}")
        rec = dict(t)
        rec.setdefault("module", default_module)
        if rec["module"] is not None and rec["module"] not in modules:
            raise ParseError(f"task references unknown module {rec['module']!r}")
        tasks.append(rec)

    return JobSpec(algebra=algebra, group=group, action=action, modules=modules,
                   tasks=tasks, tol=job_tol, seed=job_seed, raw=data)


def load_job(path, tol=None, seed=None) -> JobSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read job file {path}: {exc}")
    return parse_job(data, tol=tol, seed=seed)


def instance_to_job(inst: Instance, tol=numeric.DEFAULT_TOL,
                    seed=numeric.DEFAULT_SEED) -> dict:
    """Serialize an Instance as a job dictionary."""
    a = inst.algebra
    mult = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                z = a.mult[i, j, k]
                if z != 0:
                    mult.append([i, j, k, _scalar_out(z)])
    return {
        "name": inst.name,
        "algebra": {
            "dim": a.dim,
            "unit": [_scalar_out(z) for z in a.unit],
            "mult": mult,
        },
        "group": {
            "order": inst.group.order,
            "table": inst.group.table.tolist(),
        },
        "action": {"mats": [_matrix_out(m) for m in inst.action.mats]},
        "modules": {
            name: {"dim": mod.dim, "rho": [_matrix_out(r) for r in mod.rho]}
            for name, mod in inst.modules.items()
        },
        "tasks": [{"task": t, "module": "M"} for t in inst.tasks],
        "tol": tol,
        "seed": seed,
    }
