"""Span tracer that wraps ancontour's public functions from outside the package.

Every plain function listed in the ``__all__`` of the traced modules (and
``cli.main``) is replaced, wherever the package looks it up, by a wrapper
that records one span: name, start, end, parent span and operation id.  The
quantile and derivative callables of every model the model factories return
are wrapped too, as the ``models.eval`` span.  Spans are kept in flat arrays
in memory and written out once, when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded (``workers=1``), so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("cli", "_jsonio", "models", "estimation", "diffgeo", "ancillary", "montecarlo")
MODEL_CALLABLES = ("quantile", "dquantile_dtheta", "d2quantile_dtheta2", "dquantile_dx",
                   "cross_hessian", "ref_log_density", "ref_score")


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack = [-1]
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(result, args, kwargs) may replace the result."""
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.end[idx] = perf_counter()
                stack.pop()
                self.add(name + ".fail", 1)
                raise
            self.end[idx] = perf_counter()
            stack.pop()
            return after(result, args, kwargs) if after is not None else result

        traced.__traced__ = True
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every public function of the traced modules where it is looked up."""
        package = importlib.import_module("ancontour")
        modules = {m: importlib.import_module(f"ancontour.{m}") for m in MODULES}
        models_mod = modules["models"]
        wrappers = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{short.lstrip('_')}.{attr}"  # metric names start with a letter
                wrappers[id(fn)] = (fn, self.wrap(name, fn, self._after(name, models_mod)))
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _after(self, name: str, models_mod):
        """Counters recorded from a call's result, and model instrumentation."""
        if name.startswith("models."):
            quantile_model = models_mod.QuantileModel

            def instrument(result, args, kwargs):
                if isinstance(result, quantile_model) and not hasattr(result.quantile, "__traced__"):
                    result = dataclasses.replace(result, **{
                        f: self.wrap("models.eval", getattr(result, f)) for f in MODEL_CALLABLES})
                return result
            return instrument
        counters = {
            "estimation.fit_mle": lambda r, a, k: self.add(name + ".iterations", r.iterations),
            "ancillary.build_contour": lambda r, a, k: self.add(name + ".points", len(r.points)),
            "jsonio.atomic_write_text": lambda r, a, k: self.add(
                name + ".bytes", len((a[1] if len(a) > 1 else k["text"]).encode())),
            "montecarlo.run_replicated": lambda r, a, k: self.add(
                name + ".labels",
                r.spec.reps * (1 + 2 * len(r.spec.deltas)) * len(r.arms) * len(r.spec.n_grid)),
        }
        count = counters.get(name)
        if count is None:
            return None

        def record(result, args, kwargs):
            count(result, args, kwargs)
            return result
        return record

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """(name ids, op ids, durations, self times) as numpy arrays."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, op, dur, dur - child

    def totals(self) -> dict:
        """Per span name: calls and self time; plus the recorded counters."""
        import numpy as np

        name, _, _, self_t = self.self_times()
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_t, minlength=len(self.names))
        out = dict(self.counters)
        for i, n in enumerate(self.names):
            out[n + ".calls"] = int(calls[i])
            out[n + ".self_s"] = float(selfs[i])
        out["self_sum_s"] = float(self_t.sum())
        return out

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
