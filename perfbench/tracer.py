"""Spans around the public functions of each fermigas module.

`install()` replaces every public fermigas function with a timing wrapper
at each name that code looks it up by: `from .dpp import sample` copies
the binding into `experiments` and `cli`, so the wrapper is set in every
module namespace that holds the function, not only in `dpp`.  It also
wraps `PotentialExpr.__call__` on the class, `airy_ai` where `kernels`
calls it, and the scipy eigensolvers where `schrodinger` calls them.

A span is (name, start, end, parent).  Spans stay in memory as flat lists
and are written out once, after the traced call.  The recorder keeps one
call stack, so it assumes the traced program runs on one thread; the
workloads use the CLI's default `--threads 1`.
"""

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("potential", "specfun", "kernels", "schrodinger", "dpp",
           "experiments", "cli")

# dpp functions that evaluate exact traces and determinants
DPP_TRACES = ("dpp.mean_linear_stat", "dpp.var_linear_stat",
              "dpp.cov_linear_stats", "dpp.laplace_functional",
              "dpp.soshnikov_remainder", "dpp.correlation")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("dpp.sample_calls", "count"),
    ("dpp.sample_s", "s"),
    ("dpp.sample_ms_p50", "ms"),
    ("dpp.sample_ms_tail", "ms"),
    ("dpp.sample_tail_pct", "%"),
    ("dpp.sample_tail_n", "count"),
    ("dpp.features_mb", "MB"),
    ("dpp.from_eigensystem_s", "s"),
    ("dpp.trace_s", "s"),
    ("schrodinger.G", "count"),
    ("schrodinger.N", "count"),
    ("schrodinger.choose_box_s", "s"),
    ("schrodinger.assemble_s", "s"),
    ("schrodinger.eigensolve_s", "s"),
    ("schrodinger.lanczos_calls", "count"),
    ("schrodinger.lanczos_useful_ratio", "ratio"),
    ("schrodinger.rescaled_kernel_s", "s"),
    ("kernels.edge_kernel_calls", "count"),
    ("kernels.edge_kernel_s", "s"),
    ("kernels.weyl_constant_s", "s"),
    ("kernels.self_s", "s"),
    ("specfun.airy_calls", "count"),
    ("specfun.airy_s", "s"),
    ("potential.eval_calls", "count"),
    ("potential.eval_s", "s"),
    ("potential.points_per_call", "count"),
    ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("trace_wall_s", "s"),
    ("trace_overhead_s", "s"),
)

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.span_names = []   # distinct span names; spans store an index
        self.name_ids = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = {}        # span index -> value noted at the call
        self._stack = [-1]

    def wrap(self, name, fn, note=None):
        """fn with a span per call; note(args, kwargs, result) gives a value
        kept for the span."""
        nid = len(self.span_names)
        self.span_names.append(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack, notes = self.parents, self._stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        """Spans as numpy arrays: name index into span_names, start, end,
        parent span index (-1 for a root)."""
        return (np.asarray(self.name_ids, dtype=np.intp),
                np.asarray(self.starts, dtype=float),
                np.asarray(self.ends, dtype=float),
                np.asarray(self.parents, dtype=np.intp))

    def save(self, path):
        ids, start, end, parent = self.arrays()
        np.savez_compressed(path, span_names=np.array(self.span_names),
                            name_id=ids, start=start, end=end, parent=parent)


def _note_eigensolve(args, kwargs, result):
    return {"G": int(args[0].shape[0]), "N": int(result.eigenvalues.size)}


def _note_eigsh(args, kwargs, result):
    return {"k": int(kwargs["k"])}


def _note_features(args, kwargs, result):
    return {"bytes": int(result.features.nbytes)}


def _note_points(args, kwargs, result):
    return np.size(result)


NOTES = {
    "schrodinger.eigensolve": _note_eigensolve,
    "scipy.eigsh": _note_eigsh,
    "dpp.from_eigensystem": _note_features,
    "potential.PotentialExpr.__call__": _note_points,
}


def install(tracer):
    """Wrap the fermigas layers in place; returns the wrapped `cli.main`."""
    modules = {m: importlib.import_module(f"fermigas.{m}") for m in MODULES}
    owners = {f"fermigas.{m}": m for m in MODULES}
    wrapped = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = owners.get(obj.__module__)
            if owner is None:
                continue
            if obj not in wrapped:
                name = f"{owner}.{obj.__name__}"
                wrapped[obj] = tracer.wrap(name, obj, NOTES.get(name))
            setattr(mod, attr, wrapped[obj])
    sch = modules["schrodinger"]
    sch.eigsh = tracer.wrap("scipy.eigsh", sch.eigsh, NOTES["scipy.eigsh"])
    sch.eigh_tridiagonal = tracer.wrap("scipy.eigh_tridiagonal",
                                       sch.eigh_tridiagonal)
    expr = modules["potential"].PotentialExpr
    expr.__call__ = tracer.wrap("potential.PotentialExpr.__call__",
                                expr.__call__, NOTES["potential.PotentialExpr.__call__"])
    return modules["cli"].main


def _outermost(parent, selected):
    """Mask of selected spans with no selected ancestor (parents come first)."""
    sel = selected.tolist()
    inside = [False] * len(sel)  # some ancestor is selected
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or sel[p]
    return selected & ~np.array(inside, dtype=bool)


def _tail(draws_ms):
    """(percentile, value, count beyond) for the highest percentile with at
    least ten draws beyond it; (0, 0, 0) when there are too few draws."""
    for pct in TAIL_PERCENTILES if draws_ms.size else ():
        value = float(np.percentile(draws_ms, pct))
        beyond = int(np.count_nonzero(draws_ms > value))
        if beyond >= 10:
            return pct, value, beyond
    return 0.0, 0.0, 0


def layer_metrics(tracer, csv_bytes):
    """Per-layer values from the recorded spans (trace_overhead_s excluded)."""
    ids, start, end, parent = tracer.arrays()
    dur = end - start
    child = np.zeros(ids.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    layer = np.array([n.split(".", 1)[0] for n in tracer.span_names])[ids]

    def select(*wanted):
        return np.isin(ids, [j for j, n in enumerate(tracer.span_names)
                             if n in wanted])

    def inclusive(*wanted):
        return float(np.sum(dur[_outermost(parent, select(*wanted))]))

    def notes_of(name):
        return [tracer.notes[i] for i in np.flatnonzero(select(name))]

    draws_ms = 1e3 * dur[select("dpp.sample")]
    tail_pct, tail_ms, tail_n = _tail(draws_ms)
    solves = notes_of("schrodinger.eigensolve")
    ks = []  # Lanczos block sizes tried, grouped by eigensolve call
    for i in np.flatnonzero(select("schrodinger.eigensolve")):
        ks.append([tracer.notes[j]["k"] for j in np.flatnonzero(
            select("scipy.eigsh") & (parent == i))])
    tried = sum(sum(k) for k in ks)
    final = sum(k[-1] for k in ks if k)
    evals = notes_of("potential.PotentialExpr.__call__")
    points = sum(evals)
    return {
        "dpp.sample_calls": int(draws_ms.size),
        "dpp.sample_s": float(np.sum(draws_ms) / 1e3),
        "dpp.sample_ms_p50": float(np.median(draws_ms)) if draws_ms.size else 0.0,
        "dpp.sample_ms_tail": tail_ms,
        "dpp.sample_tail_pct": tail_pct,
        "dpp.sample_tail_n": tail_n,
        "dpp.features_mb": max([n["bytes"] for n in notes_of("dpp.from_eigensystem")],
                               default=0) / 1e6,
        "dpp.from_eigensystem_s": inclusive("dpp.from_eigensystem"),
        "dpp.trace_s": inclusive(*DPP_TRACES),
        "schrodinger.G": max([s["G"] for s in solves], default=0),
        "schrodinger.N": max([s["N"] for s in solves], default=0),
        "schrodinger.choose_box_s": inclusive("schrodinger.choose_box"),
        "schrodinger.assemble_s": inclusive("schrodinger.assemble_hamiltonian"),
        "schrodinger.eigensolve_s": inclusive("schrodinger.eigensolve"),
        "schrodinger.lanczos_calls": sum(len(k) for k in ks),
        # useful / attempted block columns; 1 when no Lanczos ran at all
        "schrodinger.lanczos_useful_ratio": final / tried if tried else 1.0,
        "schrodinger.rescaled_kernel_s": inclusive("schrodinger.rescaled_kernel"),
        "kernels.edge_kernel_calls": int(np.count_nonzero(select("kernels.edge_kernel"))),
        "kernels.edge_kernel_s": inclusive("kernels.edge_kernel"),
        "kernels.weyl_constant_s": inclusive("kernels.weyl_constant"),
        "kernels.self_s": float(np.sum(self_time[layer == "kernels"])),
        "specfun.airy_calls": int(np.count_nonzero(
            select("specfun.airy_ai", "specfun.airy_ai_prime"))),
        "specfun.airy_s": inclusive("specfun.airy_ai", "specfun.airy_ai_prime"),
        "potential.eval_calls": len(evals),
        "potential.eval_s": inclusive("potential.PotentialExpr.__call__"),
        "potential.points_per_call": points / len(evals) if evals else 0.0,
        "experiments.self_s": float(np.sum(self_time[layer == "experiments"])),
        "cli.self_s": float(np.sum(self_time[layer == "cli"])),
        "cli.csv_bytes": int(csv_bytes),
    }
