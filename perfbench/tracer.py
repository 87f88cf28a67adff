"""In-memory span tracer that wraps ppgp's public functions from outside.

Each wrapper is installed at the name its caller looks it up by: a module
binding (``ppgp.pursuit.cholesky_with_jitter`` and
``ppgp.gp.cholesky_with_jitter`` are separate bindings of the same
function) or a class attribute (methods, which reach every instance).
Nothing inside ``src/ppgp`` changes, and nothing is patched unless a
:class:`Tracer` is entered; leaving it restores every original.

A span records ``[name, start, end, parent, run_id]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``run_id`` the cycle the
span belongs to.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MB = float(1 << 20)


def _lag_elements_cross(args, out):
    _, X, Z = args[:3]
    m = np.atleast_2d(np.asarray(X)).shape[0]
    n = np.atleast_2d(np.asarray(Z)).shape[0]
    return {"kernels.lag_elements": m * n * args[0].dim}


def _lag_elements_derivative(args, out):
    return {"kernels.lag_elements": int(np.size(args[1]))}


def _jitter_escalation(args, out):
    delta0 = args[1] if len(args) > 1 else 0.0
    return {"linalg.jitter_escalations": int(out.jitter_used > delta0)}


def _bytes_read(args, out):
    return {"modelio.bytes_read": len(args[0].encode("ascii", "replace"))}


def _folds_failed(args, out):
    _, table = out
    return {"evaluation.folds_failed": sum(not math.isfinite(r["rmse"]) for r in table)}


def _train_outcome(args, out):
    return {"pursuit.epochs": out.trace[-1][0], "pursuit.diverged": int(out.diverged)}


# (span name, [(module, attribute), ...], counter, peak memory tracked)
# Class methods are given as ("ppgp.kernels", "Kernel1d.derivative").
SPANS = (
    ("pursuit.train",
     [("ppgp.pursuit", "train"), ("ppgp.evaluation", "train"), ("ppgp.cli", "train")],
     _train_outcome, False),
    ("pursuit.loss_and_gradient", [("ppgp.pursuit", "loss_and_gradient")], None, True),
    ("pursuit.transform", [("ppgp.pursuit", "transform")], None, False),
    ("kernels.MultivariateKernel.cross",
     [("ppgp.kernels", "MultivariateKernel.cross")], _lag_elements_cross, True),
    ("kernels.Kernel1d.__call__", [("ppgp.kernels", "Kernel1d.__call__")], None, False),
    ("kernels.Kernel1d.derivative",
     [("ppgp.kernels", "Kernel1d.derivative")], _lag_elements_derivative, False),
    ("linalg.cholesky_with_jitter",
     [("ppgp.pursuit", "cholesky_with_jitter"), ("ppgp.gp", "cholesky_with_jitter")],
     _jitter_escalation, False),
    ("linalg.inverse_spd", [("ppgp.pursuit", "inverse_spd")], None, False),
    ("linalg.solve_spd", [("ppgp.pursuit", "solve_spd"), ("ppgp.gp", "solve_spd")],
     None, False),
    ("linalg.logdet", [("ppgp.pursuit", "logdet"), ("ppgp.gp", "logdet")], None, False),
    ("gp.fit",
     [("ppgp.pursuit", "fit"), ("ppgp.evaluation", "fit"), ("ppgp.cli", "fit")],
     None, False),
    ("gp.GpModel.predict", [("ppgp.gp", "GpModel.predict")], None, True),
    ("modelio.load_model", [("ppgp.cli", "load_model")], None, False),
    ("modelio.loads_model", [("ppgp.modelio", "loads_model")], _bytes_read, False),
    ("cli.main", [("ppgp.cli", "main")], None, False),
    ("evaluation.cross_validate", [("ppgp.evaluation", "cross_validate")],
     _folds_failed, False),
    ("evaluation.run_experiment", [("ppgp.evaluation", "run_experiment")], None, False),
)

LEAF_SPANS = frozenset({
    "pursuit.transform", "kernels.Kernel1d.__call__", "linalg.cholesky_with_jitter",
    "linalg.inverse_spd", "linalg.solve_spd", "linalg.logdet", "modelio.loads_model",
})
COUNTERS = (
    "kernels.lag_elements", "pursuit.epochs", "pursuit.diverged",
    "evaluation.folds_failed", "linalg.jitter_escalations", "modelio.bytes_read",
)
PEAK_SPANS = tuple(name for name, _, _, peak in SPANS if peak)


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for ``module`` + dotted ``attr``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Context manager that patches the :data:`SPANS` bindings while entered.

    ``on_return(name, args, result)`` is called after every wrapped call
    that returns; the workloads use it to check outputs only the trace
    can see (such as the models trained inside ``cross_validate``).
    """

    def __init__(self, on_return=None):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)   # (run_id, name) -> value
        self.peak_bytes: dict = defaultdict(int)   # name -> max over calls
        self.run_id = 0
        self._on_return = on_return
        self._stack: list[int] = []
        self._peak_stack: list[list[int]] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        try:
            for name, sites, counter, peak in SPANS:
                for module, attr in sites:
                    owner, key = _resolve(module, attr)
                    original = owner.__dict__[key]
                    self._saved.append((owner, key, original))
                    setattr(owner, key, self._wrap(name, original, counter, peak))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        """Put every patched binding back; safe to call more than once."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)
        self._peak_stack.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def _wrap(self, name, fn, counter, peak):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            if peak:
                self._peak_enter()
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if peak:
                    self._peak_exit(name)
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counters[self.run_id, key] += value
            if self._on_return is not None:
                self._on_return(name, args, out)
            return out

        return wrapper

    # tracemalloc runs only while a peak-tracked span is open, so the Python
    # code between such spans (CSV parsing in cli.main, say) is not slowed by
    # it; each open span keeps [base, high-water] so nested spans get their
    # own peaks.
    def _peak_enter(self) -> None:
        if not self._peak_stack:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            top = self._peak_stack[-1]
            top[1] = max(top[1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current, current])

    def _peak_exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, high = self._peak_stack.pop()
        high = max(high, peak)
        self.peak_bytes[name] = max(self.peak_bytes[name], high - base)
        if self._peak_stack:
            top = self._peak_stack[-1]
            top[1] = max(top[1], high)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()

    def per_run(self, run_id: int) -> dict:
        """Per-span calls, total and self seconds for the spans of one run."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid != run_id:
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        # A span's children lie inside it and do not overlap, so the part of
        # its interval they cover is the sum of their durations.
        out = {}
        for name, _, _, _ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total[name] - child[name]
            if name not in LEAF_SPANS:
                out[f"{name}.total_s"] = total[name]
        for key in COUNTERS:
            out[key] = self.counters.get((run_id, key), 0)
        return out

    def peaks_mb(self) -> dict:
        return {f"{name}.peak_mb": self.peak_bytes[name] / MB for name in PEAK_SPANS}
