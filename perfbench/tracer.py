"""Per-layer spans recorded from outside the skewgroup package.

Each named function is replaced by a timing wrapper at every binding in the
``skewgroup.*`` modules: modules import by name (``from .repmod import
hom_space``), so patching only the defining module would miss calls.  Methods
are wrapped on their classes.  Spans are kept in memory while a traced pass
runs and are only recorded while ``Tracer.active`` is set, which the
benchmark does around each ``cli.main`` call.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Functions per layer (skewgroup module).  "Class.method" names are wrapped on
# the class.
LAYERS = {
    "numeric": ("rank", "nullspace", "orthonormal_column_basis",
                "solve_sandwich"),
    "algebra": ("make_algebra", "Algebra.product", "Algebra.right_mult",
                "trace_form", "is_semisimple", "canonical_span",
                "subalgebra_from_span", "fixed_subalgebra", "corner_algebra"),
    "group_action": ("make_action",),
    "repmod": ("make_module", "Module.act", "hom_space", "is_simple",
               "decompose", "compress", "invariant_subspace"),
    "projective": ("inertia", "projective_isotypics", "contragredient"),
    "skew": ("skew_group_algebra", "check_phi_psi", "induce",
             "extend_to_skew", "corner_module"),
    "theorems": ("build_context", "simple_classes", "check_invariant_theory",
                 "clifford_correspondence", "induced_simplicity",
                 "hom_inv_check", "main_theorem", "complete_reducibility"),
    "jobs": ("load_job",),
}

# Functions that call other traced functions, and so also get total_s.
COMPOSITE = {
    "algebra.make_algebra", "algebra.is_semisimple", "algebra.canonical_span",
    "algebra.subalgebra_from_span", "algebra.fixed_subalgebra",
    "algebra.corner_algebra", "repmod.make_module", "repmod.hom_space",
    "repmod.is_simple", "repmod.decompose", "repmod.invariant_subspace",
    "projective.inertia", "projective.projective_isotypics",
    "projective.contragredient", "skew.skew_group_algebra",
    "skew.check_phi_psi", "skew.induce", "skew.extend_to_skew",
    "skew.corner_module", "theorems.build_context", "theorems.simple_classes",
    "theorems.check_invariant_theory", "theorems.clifford_correspondence",
    "theorems.induced_simplicity", "theorems.hom_inv_check",
    "theorems.main_theorem", "theorems.complete_reducibility", "jobs.load_job",
}


def _dim(obj):
    return int(obj.dim)


# Problem size recorded as max_n: (args, kwargs, result) -> int.  The largest
# algebra make_algebra builds is the skew algebra, so its size is read from
# skew_group_algebra alone.
SIZES = {
    "numeric.solve_sandwich": lambda a, k, r: (
        np.shape(a[0][0][0])[0] * np.shape(a[0][0][1])[0]),
    "repmod.hom_space": lambda a, k, r: max(_dim(a[0]), _dim(a[1])),
    "repmod.decompose": lambda a, k, r: _dim(a[0]),
    "skew.skew_group_algebra": lambda a, k, r: _dim(r.alg),
    "skew.induce": lambda a, k, r: _dim(r),
}

# Computed (not measured) floating-point operations per call, for the two
# dense kernels: a complex multiply-add counts as 8 real operations.
# Algebra.product contracts a dim^3 structure tensor.  solve_sandwich forms k
# Gram products of N x N blocks (N = d * d') and one complex Hermitian
# eigendecomposition, taken as 4 * 9 N^3 (9 N^3 is the real estimate in
# Golub & Van Loan).
FLOPS = {
    "algebra.Algebra.product": lambda a, k, r: 8.0 * _dim(a[0]) ** 3,
    "numeric.solve_sandwich": lambda a, k, r: (
        (8.0 * len(a[0]) + 36.0) * SIZES["numeric.solve_sandwich"](a, k, r) ** 3),
}

# Functions whose repeat_ratio (calls per distinct input within a job) is
# reported.
REPEATED = ("skew.skew_group_algebra", "algebra.is_semisimple",
            "algebra.corner_algebra", "algebra.fixed_subalgebra",
            "projective.inertia")

NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _metrics():
    """(metric name, unit, function, stat) of each per-function metric."""
    out = []
    for fn in NAMES:
        out += [(f"{fn}.calls", "count", fn, "calls"),
                (f"{fn}.self_s", "s", fn, "self_s")]
        if fn in COMPOSITE:
            out.append((f"{fn}.total_s", "s", fn, "total_s"))
        if fn in SIZES:
            out.append((f"{fn}.max_n", "dim", fn, "max_n"))
        if fn in FLOPS:
            out.append((f"{fn}.computed_gflop", "GFLOP", fn, "computed_gflop"))
        if fn in REPEATED:
            out.append((f"{fn}.repeat_ratio", "ratio", fn, "repeat_ratio"))
    return tuple(out)


METRICS = _metrics()


def _arg_key(x):
    """Identity for objects; value for arrays and scalars, which are data."""
    if isinstance(x, np.ndarray):
        return ("nd", x.shape, x.dtype.str, x.tobytes())
    if x is None or isinstance(x, (bool, int, float, complex, str)):
        return ("v", x)
    return ("id", id(x))


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.spans = []           # (name, start, end, parent, job, size)
        self.task_seconds = []    # (task, seconds) from run_job
        self.keys = {n: {} for n in REPEATED}   # name -> {(job, key): args}
        self.flops = {n: 0.0 for n in FLOPS}
        self.missing = []
        self._stack = []
        self._patched = []        # (namespace, attr, original)
        self.originals = {}       # name -> original function

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn):
        size = SIZES.get(name)
        flops = FLOPS.get(name)
        keys = self.keys.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, 0)
            if size is not None:
                spans[idx] = (name, start, end, parent, self.job,
                              size(args, kwargs, result))
            if flops is not None:
                self.flops[name] += flops(args, kwargs, result)
            if keys is not None:
                key = (self.job,
                       tuple(_arg_key(a) for a in args),
                       tuple((k, _arg_key(v)) for k, v in sorted(kwargs.items())))
                # Holding the arguments keeps their ids unique for the job.
                keys.setdefault(key, (args, kwargs))
            return result

        return wrapper

    def _wrap_run_job(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results, code = fn(*args, **kwargs)
            if self.active:
                self.task_seconds.extend(
                    (rec["task"], elapsed) for rec, _, elapsed in results)
            return results, code

        return wrapper

    def install(self):
        """Wrap every named function at each of its bindings, and run_job."""
        import skewgroup.cli  # noqa: F401  (loads every skewgroup module)
        import skewgroup.runner

        for name in NAMES:
            found = _locate(*name.split(".", 1))
            if found is None:
                self.missing.append(name)
                continue
            original, sites = found
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for ns, attr in sites:
                self._patch(ns, attr, wrapper)
        run_job = skewgroup.runner.run_job
        wrapper = self._wrap_run_job(run_job)
        for ns, attr in bindings(run_job):
            self._patch(ns, attr, wrapper)

    def _patch(self, ns, attr, new):
        self._patched.append((ns, attr, ns.__dict__[attr]))
        setattr(ns, attr, new)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------
    def clear(self):
        self.spans.clear()
        self.task_seconds.clear()
        for k in self.keys.values():
            k.clear()
        for n in self.flops:
            self.flops[n] = 0.0

    def stats(self):
        """Per-layer numbers of the spans recorded since clear()."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_n": 0}
               for n in NAMES}
        for idx, (name, start, end, parent, _, size) in enumerate(spans):
            rec = out[name]
            dur = end - start
            rec["calls"] += 1
            rec["self_s"] += dur - child[idx]
            if not self._inside_same(idx):
                rec["total_s"] += dur
            rec["max_n"] = max(rec["max_n"], size)
        for name, flops in self.flops.items():
            out[name]["computed_gflop"] = flops / 1e9
        for name, keys in self.keys.items():
            distinct = len(keys)
            out[name]["repeat_ratio"] = (
                out[name]["calls"] / distinct if distinct else 0.0)
        return out

    def _inside_same(self, idx):
        """True if span idx runs inside another span of the same name."""
        spans = self.spans
        name = spans[idx][0]
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False


def _locate(layer, fn):
    """(original, its (namespace, attribute) sites) of a named function.

    None if the program no longer has it.
    """
    mod = sys.modules.get(f"skewgroup.{layer}")
    cls_name, _, meth = fn.rpartition(".")
    if cls_name:
        cls = getattr(mod, cls_name, None)
        original = vars(cls).get(meth) if isinstance(cls, type) else None
        return (original, [(cls, meth)]) if original else None
    original = getattr(mod, fn, None)
    return (original, bindings(original)) if original else None


def bindings(original):
    """(namespace, attribute) pairs in skewgroup.* bound to ``original``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "skewgroup" and not modname.startswith("skewgroup."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                found.append((mod, attr))
    return found
