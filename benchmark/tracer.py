"""Per-layer spans and counters, installed from outside the ufm package.

Each traced function is replaced by a wrapper at every ``ufm`` module that
binds it (``solve_sqr_batch`` is bound in ``ufm.sqr``, ``ufm.ufa`` and
``ufm.idw``), so every call path is seen whichever module it goes through.
Kernel functions are the exception: they are wrapped only where ``ufm.sqr``
and ``ufm.ranksel`` import them, so a kernel calling another kernel inside
``ufm.kernels`` is not counted twice.

Spans are kept per thread. A span's self time is its duration minus the
time its child spans cover; a layer's self time is the sum over its spans.
A traced name that no longer exists is reported in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _size_of(index):
    return lambda args, kwargs, result: {"points": int(np.size(args[index]))}


def _smoothed_value_points(args, kwargs, result):
    return {"points": int(np.broadcast(args[3], args[4]).size)}


def _rows_of(index):
    return lambda args, kwargs, result: {"rows": int(np.shape(args[index])[0])}


def _batch_counts(args, kwargs, result):
    return {"problems": int(result.theta.shape[0]),
            "iters": int(result.n_iters),
            "nonconverged": int(np.count_nonzero(~result.converged)),
            "regularized": int(np.count_nonzero(result.regularized))}


def _sweep_counts(args, kwargs, result):
    return {"sweeps": int(result.n_outer), "nonconverged": int(not result.converged)}


def _clipped(args, kwargs, result):
    return {"clipped_fraction": float(result.clipped_fraction)}


def _written(args, kwargs, result):
    # manifest.json holds a wall-clock time whose printed length varies, so
    # only the CSV outputs count towards the bytes written
    return {"bytes": len(args[1]) if str(args[0]).endswith(".csv") else 0}


def _cells(args, kwargs, result):
    return {"cells": int(result.values.size)}


# (layer, module, attribute, bind everywhere, counter). The counter maps
# (args, kwargs, result) to extra counts for that span name.
TARGETS = [
    ("cli", "ufm.cli", "run_cli", True, None),
    ("panel", "ufm.panel", "load_panel", True, _cells),
    ("kernels", "ufm.sqr", "_cdf_j1", False, _size_of(1)),
    ("kernels", "ufm.sqr", "_cdf_density", False, _size_of(1)),
    ("kernels", "ufm.ranksel", "kernel_cdf", False, _size_of(1)),
    ("kernels", "ufm.ranksel", "smoothed_value", False, _smoothed_value_points),
    ("sqr", "ufm.sqr", "solve_sqr_batch", True, _batch_counts),
    ("sqr", "ufm.sqr", "_objective", True, _rows_of(2)),
    ("sqr", "ufm.sqr", "_grad_curv", True, _rows_of(2)),
    ("ufa", "ufm.ufa", "ufa_fit", True, _sweep_counts),
    ("ranksel", "ufm.ranksel", "pel_profile", True, None),
    ("ranksel", "ufm.ranksel", "pel_fit", True, None),
    ("ranksel", "ufm.ranksel", "svt", True, None),
    ("ranksel", "ufm.ranksel", "rank_from_profile", True, None),
    ("ranksel", "ufm.ranksel", "warm_start_from_profile", True, None),
    ("ranksel", "ufm.ranksel", "warm_start", True, None),
    ("idw", "ufm.idw", "idw_ufa_fit", True, None),
    ("idw", "ufm.idw", "crossfit_estimates", True, None),
    ("idw", "ufm.idw", "inverse_density_weights", True, _clipped),
    ("inference", "ufm.inference", "mean_loadings", True, None),
    ("inference", "ufm.inference", "plugin_covariances", True, None),
    ("inference", "ufm.inference", "standard_errors", True, None),
    ("output", "ufm.cli", "_write_estimate", True, None),
    ("output", "ufm.cli", "_write_ses", True, None),
    ("output", "ufm.output", "write_csv", True, None),
    ("output", "ufm.output", "write_matrix", True, None),
    ("output", "ufm.output", "write_json", True, None),
    ("output", "ufm.output", "atomic_write_text", True, _written),
    ("simlab", "ufm.simlab", "_table2_rep", True, None),
    ("simlab", "ufm.simlab", "qfa_fit", True, None),
    ("simlab", "ufm.simlab", "_summarize", True, None),
]


class _ThreadRecord:
    def __init__(self):
        self.stack = []                       # child time of each open span
        self.self_s = defaultdict(float)      # layer -> self time
        self.incl_s = defaultdict(float)      # span name -> inclusive time
        self.counts = defaultdict(float)      # "name" or "name.key" -> count


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.absent: list[str] = []
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
        return rec

    def _wrap(self, fn, layer: str, name: str, counter):
        clock = time.perf_counter
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = record()
            rec.stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = rec.stack.pop()
                rec.self_s[layer] += dur - child
                if rec.stack:
                    rec.stack[-1] += dur
                rec.incl_s[name] += dur
                rec.counts[name] += 1
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    rec.counts[f"{name}.{key}"] += val
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ufm" or n.startswith("ufm."))]
        for layer, modname, attr, everywhere, counter in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(fn, layer, attr, counter)
            for m in (modules if everywhere else [mod]):
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patched.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def collect(self) -> dict:
        """Merge and reset every thread's record; call between operations."""
        out = {"self_s": defaultdict(float), "incl_s": defaultdict(float),
               "counts": defaultdict(float)}
        with self._lock:
            for rec in self._records:
                for part in ("self_s", "incl_s", "counts"):
                    for key, val in getattr(rec, part).items():
                        out[part][key] += val
                    getattr(rec, part).clear()
        return out


def _add(total: dict, part: dict) -> None:
    for section in ("self_s", "incl_s", "counts"):
        sub = total.setdefault(section, defaultdict(float))
        for key, val in part[section].items():
            sub[key] += val


def layer_metrics(first_round: list[dict], all_ops: list[dict],
                  overhead_s: float) -> dict:
    """Per-operation layer metrics.

    Counts come from the first round's operations, whose inputs depend only
    on the seed, so they repeat exactly between runs with one seed. Times
    are means over every traced operation of the run.
    """
    cnt: dict = {}
    for op in first_round:
        _add(cnt, op)
    tim: dict = {}
    for op in all_ops:
        _add(tim, op)
    n_first, n_all = len(first_round), len(all_ops)
    c = lambda key: cnt["counts"].get(key, 0.0) / n_first
    self_s = lambda layer: tim["self_s"].get(layer, 0.0) / n_all
    incl = lambda name: tim["incl_s"].get(name, 0.0) / n_all
    kernels = ("_cdf_j1", "_cdf_density", "kernel_cdf", "smoothed_value")
    grad_rows = c("_grad_curv.rows")
    idw_calls = c("inverse_density_weights")
    m = {
        "panel.load_s": (incl("load_panel"), "s"),
        "panel.cells": (c("load_panel.cells"), "count"),
        "kernels.self_s": (self_s("kernels"), "s"),
        "kernels.calls": (sum(c(k) for k in kernels), "count"),
        "kernels.points": (sum(c(f"{k}.points") for k in kernels), "count"),
        "sqr.self_s": (self_s("sqr"), "s"),
        "sqr.calls": (c("solve_sqr_batch"), "count"),
        "sqr.problems": (c("solve_sqr_batch.problems"), "count"),
        "sqr.iters": (c("solve_sqr_batch.iters"), "count"),
        "sqr.nonconverged": (c("solve_sqr_batch.nonconverged"), "count"),
        "sqr.regularized": (c("solve_sqr_batch.regularized"), "count"),
        "sqr.obj_rows": (c("_objective.rows"), "count"),
        "sqr.grad_rows": (grad_rows, "count"),
        "sqr.obj_per_grad": (c("_objective.rows") / grad_rows if grad_rows else 0.0,
                             "ratio"),
        "ufa.self_s": (self_s("ufa"), "s"),
        "ufa.calls": (c("ufa_fit"), "count"),
        "ufa.sweeps": (c("ufa_fit.sweeps"), "count"),
        "ufa.nonconverged": (c("ufa_fit.nonconverged"), "count"),
        "ranksel.self_s": (self_s("ranksel"), "s"),
        "ranksel.pel_fits": (c("pel_fit"), "count"),
        "ranksel.svt_calls": (c("svt"), "count"),
        "ranksel.svt_s": (incl("svt"), "s"),
        "idw.self_s": (self_s("idw"), "s"),
        "idw.crossfit_s": (incl("crossfit_estimates"), "s"),
        "idw.weights_s": (incl("inverse_density_weights"), "s"),
        "idw.clipped_fraction": (
            c("inverse_density_weights.clipped_fraction") / idw_calls if idw_calls else 0.0,
            "fraction"),
        "inference.cov_s": (incl("plugin_covariances"), "s"),
        "inference.se_calls": (c("standard_errors"), "count"),
        "inference.se_s": (incl("standard_errors"), "s"),
        "output.self_s": (self_s("output"), "s"),
        "output.files": (c("atomic_write_text"), "count"),
        "output.bytes": (c("atomic_write_text.bytes"), "bytes"),
        "simlab.self_s": (self_s("simlab"), "s"),
        "simlab.reps": (c("_table2_rep"), "count"),
        "simlab.qfa_calls": (c("qfa_fit"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(val), "unit": unit} for name, (val, unit) in m.items()}
