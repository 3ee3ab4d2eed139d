"""Job files for the benchmark workloads.

The benchmark owns its inputs.  Random instances come from a copy of the
block-rotation construction behind ``skewgroup.fixtures.random_instance``:
b copies of M_n, acted on by a generator that rotates the blocks and
conjugates each one by a diagonal matrix of q-th roots of unity.  The five
built-in fixtures come from ``skewgroup fixture NAME``.

The workload seed shuffles the order of the calls and the order of the
sparse structure-constant entries in each job file (seed 0 keeps both as
built).  Neither changes what the program computes, so every verdict is
expected to be the same for every seed.  Two stronger variations are left
out on purpose: shuffling the task list of a job moves the peak memory by
12% on skew72, and relabelling the basis of A permutes the numbering of the
simple classes in the ``invariant_theory`` report.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

TASKS = ("semisimple", "inertia", "cocycle", "skew", "phi_psi",
         "invariant_theory", "clifford", "induced_simplicity", "hom_inv",
         "main_theorem", "complete_reducibility")
FIXTURES = ("trivial", "swap", "pauli", "perm", "cyclic")
TOL = 1e-9
JOB_SEED = 1
# The sweep keeps every random instance up to this skew dimension.
SWEEP_MAX_SKEW_DIM = 48


def random_shape(seed):
    """(n, b, q, phase exponents per block) that random_instance(seed) draws."""
    rng = np.random.default_rng([87251, seed])
    n = int(rng.choice([1, 1, 2, 2, 3]))
    b = int(rng.integers(1, {1: 8, 2: 3, 3: 1}[n] + 1))
    q = int(rng.choice([d for d in (1, 2, 3, 4) if b * d <= 8]))
    exps = [rng.integers(0, q, size=n) for _ in range(b)]
    return n, b, q, exps


def _scalar(z):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m):
    return [[_scalar(z) for z in row] for row in np.asarray(m)]


def _conj_block(d):
    """Coordinate matrix of a -> d a d^-1 on the matrix units of one block."""
    n = d.shape[0]
    dinv = np.linalg.inv(d)
    cols = []
    for p in range(n):
        for q in range(n):
            eb = np.zeros((n, n), dtype=np.complex128)
            eb[p, q] = 1.0
            cols.append((d @ eb @ dinv).reshape(-1))
    return np.column_stack(cols)


def block_rotation_job(name, n, b, q, exps):
    """Job dict for b copies of M_n with the rotate-and-twist generator.

    ``exps[i]`` are the exponents of the diagonal twist on block i, as
    powers of exp(2 pi i / q).  The module is the natural module of block 0.
    """
    nn = n * n
    dim = b * nn
    mult = []
    for blk in range(b):
        off = blk * nn
        for p in range(n):
            for s in range(n):
                for r in range(n):
                    # E_ps E_sr = E_pr inside each block
                    mult.append([off + p * n + s, off + s * n + r,
                                 off + p * n + r, [1.0, 0.0]])
    mult.sort()
    unit = np.zeros(dim)
    for blk in range(b):
        for p in range(n):
            unit[blk * nn + p * n + p] = 1.0

    blockperm = np.zeros((dim, dim))
    for i in range(b):
        j = (i + 1) % b
        blockperm[j * nn:(j + 1) * nn, i * nn:(i + 1) * nn] = np.eye(nn)
    conj = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(b):
        d = np.diag(np.exp(2j * np.pi * np.asarray(exps[i]) / q))
        conj[i * nn:(i + 1) * nn, i * nn:(i + 1) * nn] = _conj_block(d)
    gen = conj @ blockperm
    power = np.eye(dim)
    mats = []
    for k in range(1, 9):
        power = gen @ power
        mats.append(power.copy())
        if np.allclose(power, np.eye(dim), atol=1e-12):
            order = k
            break
    else:
        raise ValueError(f"generator order of {name} exceeds 8")
    gmats = [np.eye(dim)] + mats[:order - 1]

    rho = []
    for i in range(b):
        for p in range(n):
            for s in range(n):
                eb = np.zeros((n, n), dtype=np.complex128)
                if i == 0:
                    eb[p, s] = 1.0
                rho.append(_matrix(eb))
    return {
        "name": name,
        "algebra": {"dim": dim, "unit": [_scalar(z) for z in unit],
                    "mult": mult},
        "group": {"order": order,
                  "table": [[(g + h) % order for h in range(order)]
                            for g in range(order)]},
        "action": {"mats": [_matrix(m) for m in gmats]},
        "modules": {"M": {"dim": n, "rho": rho}},
        "tasks": [{"task": t, "module": "M"} for t in TASKS],
        "tol": TOL,
        "seed": JOB_SEED,
    }


def random_job(name, phase_seed):
    """The block-rotation job of random_instance(phase_seed), named ``name``."""
    n, b, q, exps = random_shape(phase_seed)
    return block_rotation_job(name, n, b, q, exps)


def fixture_job(name):
    """The job ``skewgroup fixture NAME`` prints, via the public CLI."""
    from skewgroup.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fixture", name])
    if code != 0:
        raise RuntimeError(f"skewgroup fixture {name} exited {code}")
    return json.loads(out.getvalue())


def skew_dim(job):
    return job["algebra"]["dim"] * job["group"]["order"]


def _shuffled(items, rng):
    return [items[i] for i in rng.permutation(len(items))]


def _with_entry_order(job, rng):
    alg = job["algebra"]
    return dict(job, algebra=dict(alg, mult=_shuffled(alg["mult"], rng)))


# (name, phase seed) of the fixed-shape jobs: random_instance(2)
# has (n, b, q) = (2, 3, 2) and skew dimension 72; random_instance(6) has
# (n, b, q) = (2, 2, 3) and skew dimension 48.
SKEW72 = ("skew72", 2)
SKEW48 = ("skew48", 6)


def make_workload(name, seed):
    """List of (job dict, [argv tail per cli.main call]) for a workload.

    Each argv tail follows the job path in ``skewgroup run PATH ...``.
    """
    if name == "sweep":
        jobs = [fixture_job(f) for f in FIXTURES]
        jobs += [j for j in (random_job(f"random{s}", s) for s in range(20))
                 if skew_dim(j) <= SWEEP_MAX_SKEW_DIM]
        out = [(j, [["--json"]]) for j in jobs]
    elif name == "skew72":
        out = [(random_job(*SKEW72), [["--json"]])]
    elif name == "single_task":
        out = [(random_job(*SKEW48), [["--json", "--task", t] for t in TASKS])]
    else:
        raise KeyError(name)
    if seed == 0:
        return out
    rng = np.random.default_rng(seed)
    return [(_with_entry_order(job, rng), _shuffled(tails, rng))
            for job, tails in _shuffled(out, rng)]


WORKLOADS = ("sweep", "skew72", "single_task")
# Timed passes per run at --seconds 20, the run length in BENCHMARK.json;
# other lengths scale them.  The count never depends on the clock, so every
# run of a workload takes the same number of samples.  One pass takes 9 to
# 13 s on sweep and skew72 and 3.3 to 5 s on single_task, depending on how
# busy the host is (see README.md); the counts keep 70 runs, 22 per workload
# plus 4, under 57 minutes even when the host is slow.  Sweep takes three:
# with two (44 calls) the job_s_tail sample fell on the gap between the five
# largest jobs and the next and read 0.34 to 0.59 s from run to run; with
# three (66 calls) it falls among the samples of random0.
PASSES_AT_20_S = {"sweep": 3, "skew72": 1, "single_task": 3}
