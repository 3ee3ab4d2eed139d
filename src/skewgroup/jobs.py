"""Job-file (JSON) parsing and serialization.

Wire conventions: scalars are two-element [re, im] arrays; matrices are
row-major nested lists of scalars; structure constants are sparse
[i, j, k, scalar] entries with omitted entries zero and, for a slot given
more than once, the last entry winning; indices are 0-based.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .algebra import Algebra, make_algebra
from .errors import ParseError, brief
from .group_action import AlgebraAction, FiniteGroup, make_action, make_group
from .repmod import Module, make_module

ALL_TASKS = ("semisimple", "inertia", "cocycle", "skew", "phi_psi",
             "invariant_theory", "clifford", "induced_simplicity", "hom_inv",
             "main_theorem", "complete_reducibility")
# the tasks that read a job module
MODULE_TASKS = ("inertia", "cocycle", "induced_simplicity", "hom_inv",
                "main_theorem", "complete_reducibility")


@dataclass
class JobSpec:
    """A validated instance and its tasks, from a job file or a fixture;
    its tolerance and seed are its algebra's."""
    algebra: Algebra
    group: FiniteGroup
    action: AlgebraAction
    modules: dict               # name -> Module
    tasks: list                 # of {"task": name, "module": name, ...}
    name: object = None         # the job file's "name", not validated
    # the job as the canonical JSON text the --json report echoes: all a
    # call keeps of the file it loaded; None for a job built in process
    raw: str = field(repr=False, default=None)

    @property
    def module(self) -> Module:
        """The first module, the one a task record without "module" reads."""
        return next(iter(self.modules.values()), None)


def canonical_json(obj) -> str:
    """obj as JSON text with sorted keys and no spaces: the form of every
    document the command line prints.  JSON has no NaN or Infinity, so a
    float that is one raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def echo_json(job_text: str, payload: dict) -> str:
    """canonical_json of payload with the key "job" added, whose value has
    the canonical text job_text: spliced in as text, so it is first of the
    sorted keys only while every payload key sorts after "job"."""
    if not payload or min(payload) <= "job":
        raise ValueError(f"payload keys must sort after 'job': {sorted(payload)}")
    return '{"job":' + job_text + "," + canonical_json(payload)[1:]


def _number(x) -> bool:
    """Whether x is a JSON number; a bool is an int but not a number here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scalar(obj, where) -> complex:
    """The scalar of the field `where`: a number or an [re, im] pair."""
    try:
        if _number(obj):
            return complex(obj)
        if (isinstance(obj, (list, tuple)) and len(obj) == 2
                and all(_number(x) for x in obj)):
            return complex(obj[0], obj[1])
    except OverflowError:
        raise ParseError(f"{where}: integer too large to convert to float")
    raise ParseError(f"{where}: scalar must be a number or [re, im] pair, "
                     f"got {brief(obj)}")


def _int(obj, where) -> int:
    """An integer field; a whole float such as 2.0 counts, a bool does not."""
    if type(obj) is int:        # what JSON gives; skips the ABC check below
        return obj
    if (isinstance(obj, numbers.Integral) and not isinstance(obj, bool)
            or isinstance(obj, float) and obj.is_integer()):
        return int(obj)
    raise ParseError(f"{where} must be an integer, got {brief(obj)}")


def _list(obj, where) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{where} must be a list, got {brief(obj)}")
    return obj


def _matrix(obj, rows, cols, where) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    try:
        pairs = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        pairs = None    # ragged or not numbers: the loop below says where
    # a well-formed matrix of [re, im] pairs, converted at once; numpy
    # reads a bool as a number, so one sends the matrix to the loop below
    if (pairs is not None and pairs.dtype.kind in "iuf"
            and pairs.shape == (rows, cols, 2)
            and all(isinstance(row, list) for row in obj)
            and not any(type(x) is bool
                        for row in obj for z in row for x in z)):
        out = np.empty((rows, cols), dtype=np.complex128)
        out.real = pairs[..., 0]
        out.imag = pairs[..., 1]
        return out
    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {r} must have {cols} entries")
        for c, entry in enumerate(row):
            out[r, c] = _scalar(entry, f"{where}[{r}][{c}]")
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
        raise ParseError(f"tol must be a number, got {brief(tol)}")
    job_seed = _int(seed, "seed")
    if job_seed < 0:
        raise ParseError(f"seed must be a non-negative integer, got "
                         f"{brief(seed)}")

    try:
        aspec = data["algebra"]
        dim = _int(aspec["dim"], "algebra.dim")
        unit = [_scalar(z, f"algebra.unit[{t}]")
                for t, z in enumerate(aspec["unit"])]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"algebra section malformed: {exc}")
    entries = _list(aspec.get("mult", []), "algebra.mult")
    slots = {}
    for t, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(f"mult entry must be [i, j, k, scalar], got "
                             f"{brief(entry)}")
        i, j, k = (_int(x, "mult index") for x in entry[:3])
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ParseError(f"mult entry index out of range: {entry[:3]}")
        # a slot given more than once keeps its last value
        slots[i, j, k] = _scalar(entry[3], f"algebra.mult[{t}]")
    keys = sorted(slots)
    i, j, k = np.array(keys, dtype=np.intp).reshape(-1, 3).T
    values = np.array([slots[t] for t in keys], dtype=np.complex128)
    algebra = make_algebra(dim, (i, j, k, values), unit, tol=tol,
                           seed=job_seed)

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
    group = make_group(table)

    try:
        mats = data["action"]["mats"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"action section malformed: {exc}")
    action = make_action(group, algebra,
                         [_matrix(m, dim, dim, f"action.mats[{g}]")
                          for g, m in enumerate(_list(mats, "action.mats"))])

    modules = {}
    mspecs = data.get("modules", {})
    if not isinstance(mspecs, dict):
        raise ParseError(f"modules must be an object of named modules, got "
                         f"{brief(mspecs)}")
    for name, mspec in mspecs.items():
        # the name as its field paths quote it: as given when brief() would
        # quote it whole and unescaped, else cut short by brief()
        quoted = brief(name)
        where = f"modules.{name if quoted[1:-1] == name else quoted}"
        try:
            mdim = _int(mspec["dim"], f"{where}.dim")
            rho = mspec["rho"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"module {brief(name)} malformed: {exc}")
        modules[name] = make_module(
            algebra,
            [_matrix(m, mdim, mdim, f"{where}.rho[{i}]")
             for i, m in enumerate(_list(rho, f"{where}.rho"))])

    default_module = next(iter(modules), None)
    tasks = []
    for t in _list(data.get("tasks", []), "tasks"):
        if not isinstance(t, dict) or "task" not in t:
            raise ParseError(f"task record malformed: {brief(t)}")
        if t["task"] not in ALL_TASKS:
            raise ParseError(f"unknown task {brief(t['task'])}")
        rec = dict(t)
        rec.setdefault("module", default_module)
        if rec["module"] is not None and (not isinstance(rec["module"], str)
                                          or rec["module"] not in modules):
            raise ParseError(f"task references unknown module "
                             f"{brief(rec['module'])}")
        if rec["module"] is None and rec["task"] in MODULE_TASKS:
            raise ParseError(f"task {brief(rec['task'])} needs a module, but "
                             f"none is given")
        tasks.append(rec)

    # last, so that a field read above reports its own error
    try:
        text = canonical_json(data)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"job is not JSON: {exc}")
    return JobSpec(algebra=algebra, group=group, action=action, modules=modules,
                   tasks=tasks, name=data.get("name"), raw=text)


def load_job(path, tol=None, seed=None) -> JobSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read job file {path}: {exc}")
    return parse_job(data, tol=tol, seed=seed)


def instance_to_job(job: JobSpec) -> dict:
    """Serialize a JobSpec as a job dictionary."""
    a = job.algebra
    mult = [[int(i), int(j), int(k), _scalar_out(z)]
            for i, j, k, z in zip(*a.nonzeros)]
    return {
        "name": job.name,
        "algebra": {
            "dim": a.dim,
            "unit": [_scalar_out(z) for z in a.unit],
            "mult": mult,
        },
        "group": {
            "order": job.group.order,
            "table": job.group.table.tolist(),
        },
        "action": {"mats": [_matrix_out(m) for m in job.action.mats]},
        "modules": {
            name: {"dim": mod.dim, "rho": [_matrix_out(r) for r in mod.rho]}
            for name, mod in job.modules.items()
        },
        "tasks": [dict(rec) for rec in job.tasks],
        "tol": a.tol,
        "seed": a.seed,
    }
