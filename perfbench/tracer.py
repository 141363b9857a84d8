"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public sgident callables from the outside (module
functions, class methods and constructors) and records one span per call:
(name, start, end, parent).  Spans stay in flat in-memory arrays while the
workload runs and are written out once at the end; self time is derived
from them afterwards.  Nothing under ``src/`` is modified on disk, and
``restore`` puts every patched attribute back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors = Counter()
        self.counters = Counter()
        self._stack = [-1]
        self._undo = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``on_result(args, result)`` runs after a successful call, outside the
        span, to count work the span did (rows written, flags raised).
        """
        nid = self._nid(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_iter(self, name, iter_fn):
        """Wrap a generator-returning ``__iter__``: one span per ``next``."""
        step = self.wrap(name, next)
        counters = self.counters

        def traced_iter(obj):
            inner = iter_fn(obj)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                counters[name] += 1
                yield item

        return traced_iter

    def patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_item(self, mapping, key, name):
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = self.wrap(name, original)

    def patch_method(self, cls, attr, name, on_result=None):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], on_result))

    def patch_function(self, modules, fn, name, on_result=None):
        """Rebind every module-level reference to ``fn`` in ``modules``."""
        traced = self.wrap(name, fn, on_result)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, traced)

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def spans(self):
        """(names, name_id, parent, start_ns, end_ns, self_ns) as numpy arrays.

        Self time is a span's duration minus the durations of its children.
        """
        name_id, parent, start, end = self._arrays()
        dur = end - start
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        return self.names, name_id, parent, start, end, dur - child

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path):
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)


def install(rec, sgident_modules):
    """Wrap the public calls of every sgident layer the benchmark reports on."""
    bench = sgident_modules["bench"]
    control = sgident_modules["control"]
    core = sgident_modules["core"]
    metrics = sgident_modules["metrics"]
    models = sgident_modules["models"]
    sg = sgident_modules["sg"]
    everywhere = list(sgident_modules.values())

    def count_flagged(args, result):
        if result[1]:
            rec.counters["control.solve_flagged"] += 1

    rec.patch_function(everywhere, control.solve_control, "control.solve", count_flagged)
    rec.patch_method(control.NoiseSource, "draw", "control.noise_draw")
    rec.patch_method(control.NoiseSource, "draw_uniform", "control.noise_uniform")

    for algo in list(bench.ALGORITHMS):
        rec.patch_item(bench.ALGORITHMS, algo, "sg.step")

    for cls in (core.ParameterVector, core.Regressor, core.GainState, sg.EstimatorState):
        rec.patch_method(cls, "__init__", f"core.{cls.__name__}")
    rec.patch_function(everywhere, core.as_values, "core.as_values")

    predictors = dict.fromkeys([core.LinkRegressionModel, *_subclasses(models, core.PredictorModel)])
    for cls in predictors:
        for attr in ("link", "dlink", "eval", "grad"):
            if attr in cls.__dict__:
                rec.patch_method(cls, attr, f"models.{attr}")
    for cls in _subclasses(models, core.LossFunction):
        for attr in ("eval", "grad_x"):
            if attr in cls.__dict__:
                rec.patch_method(cls, attr, f"models.loss_{attr}")

    rec.patch(bench.CsvStream, "__iter__", rec.wrap_iter("bench.ingest", bench.CsvStream.__iter__))

    def count_written(args, result):
        rec.counters["bench.rows_written"] += len(args[1])

    def count_read(args, result):
        rec.counters["bench.rows_read"] += len(result)

    rec.patch_function([bench], bench.write_trace, "bench.write_trace", count_written)
    rec.patch_function([bench], bench.read_trace, "bench.read_trace", count_read)

    for fn_name in ("bound_curve", "minimum_phase_ratio", "relative_error_metric", "robbins_siegmund_diag"):
        rec.patch_function([bench], getattr(metrics, fn_name), f"metrics.{fn_name}")


def _subclasses(module, base):
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj is not base
    ]


def sgident_modules():
    return {
        name: sys.modules[f"sgident.{name}"]
        for name in ("bench", "cli", "control", "core", "metrics", "models", "sg")
        if f"sgident.{name}" in sys.modules
    } | {"__init__": sys.modules["sgident"]}
