"""Spans around the calls into woundfill's layers, recorded from outside the package.

The tracer replaces public functions at the names their callers import them
by: every loaded ``woundfill`` module attribute that is the original function
object is pointed at one wrapper, and ``restore()`` puts the originals back.
Nothing under ``src/`` is modified. Spans (key, parent, start, end)
stay in memory until the run ends; a disabled tracer calls straight through.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

# Modules under src/woundfill that do work; each is one layer.
LAYERS = (
    "scars", "mesh", "meshio", "hierarchy", "ops", "model",
    "losses", "optim", "train", "checkpoint", "filling",
)

# Public methods traced on classes (module-level public functions are all traced).
CLASS_METHODS = {
    ("model", "Autoencoder"): ("build", "init", "forward", "backward", "input_gradient"),
}

# Functions whose time adds up to ops.act.ms_total.
ACTIVATIONS = ("ops.elu", "ops.elu_backward", "ops.relu", "ops.relu_backward")


class Tracer:
    """Span recorder plus counters filled by per-function observers."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [key, parent index or -1, t0, t1]
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self, observers=None) -> None:
        """Wrap every layer's public functions; observers maps key -> fn(counters, args, kwargs, result, exc)."""
        observers = observers or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "woundfill" or name.startswith("woundfill."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"woundfill.{layer}")
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, fn, observers.get(key))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self.patch(m, attr, wrapper)
                self.wrapped.add(key)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"woundfill.{layer}"), cls_name, None)
            for name in methods:
                raw = vars(cls).get(name) if cls is not None else None
                if raw is None:
                    continue
                key = f"{layer}.{name}"
                if isinstance(raw, classmethod):
                    self.patch(cls, name, classmethod(self._wrap(key, raw.__func__, observers.get(key))))
                else:
                    self.patch(cls, name, self._wrap(key, raw, observers.get(key)))
                self.wrapped.add(key)

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _wrap(self, key: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [key, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if observe is not None:
                    observe(self.counters, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def paused(self):
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans, self.counters, self.wrapped)


class TraceSummary:
    """Per-function and per-layer figures computed from the recorded spans."""

    def __init__(self, spans, counters, wrapped):
        self.counters = dict(counters)
        self.wrapped = set(wrapped)
        self.span_count = len(spans)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_ms: dict[str, float] = defaultdict(float)
        child_ms = [0.0] * len(spans)
        for key, parent, t0, t1 in spans:
            ms = (t1 - t0) * 1e3
            self.durations[key].append(ms)
            if parent >= 0:
                child_ms[parent] += ms
        for (key, _, t0, t1), inner in zip(spans, child_ms):
            self.self_ms[key.split(".", 1)[0]] += (t1 - t0) * 1e3 - inner
        self._spans = spans
        self._child_ms = child_ms

    def calls(self, key: str) -> int:
        return len(self.durations.get(key, ()))

    def ms_total(self, key: str) -> float:
        return sum(self.durations.get(key, ()))

    def ms_p50(self, key: str) -> float:
        d = self.durations.get(key)
        return statistics.median(d) if d else 0.0

    def subtree_self_ms(self, root_key: str) -> tuple[float, dict[str, float]]:
        """Total time of root_key spans and the self time per layer beneath them.

        Spans are stored in start order, so a parent always precedes its
        children and one forward pass finds each span's enclosing root.
        """
        root_of = [-1] * len(self._spans)
        total = 0.0
        by_layer: dict[str, float] = defaultdict(float)
        for i, (key, parent, t0, t1) in enumerate(self._spans):
            if key == root_key and (parent < 0 or root_of[parent] < 0):
                root_of[i] = i
                total += (t1 - t0) * 1e3
            elif parent >= 0:
                root_of[i] = root_of[parent]
            if root_of[i] >= 0:
                by_layer[key.split(".", 1)[0]] += (t1 - t0) * 1e3 - self._child_ms[i]
        return total, dict(by_layer)

    def function_ms_under(self, root_key: str, keys: tuple[str, ...]) -> float:
        """Time spent in `keys` (outermost calls only) beneath root_key spans."""
        inside = [False] * len(self._spans)
        counted = [False] * len(self._spans)
        total = 0.0
        for i, (key, parent, t0, t1) in enumerate(self._spans):
            inside[i] = key == root_key or (parent >= 0 and inside[parent])
            counted[i] = parent >= 0 and counted[parent]
            if inside[i] and key in keys and not counted[i]:
                counted[i] = True
                total += (t1 - t0) * 1e3
        return total
