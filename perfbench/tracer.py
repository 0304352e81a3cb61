"""Per-layer spans and counters, installed from outside the program.

``install()`` replaces the public functions of every ``gausscvx`` module
(and the public methods of the classes each module defines) with wrappers
that keep a span stack.  A span is opened only where a call crosses from
one layer into another, so a layer's self time is the time spent in its
own code: span duration minus the spans of the layers it called.  Nothing
is recorded outside a request (``Tracer.request``), so oracle checks the
benchmark runs between requests do not count.

Besides self time and boundary-crossing call counts, the wrappers count
the quantities the benchmark's ratios need: directions handed to
``body.radial`` (and how many went to the generic, support-only path),
``gaussmoments.ray_integral`` calls, transform points, and the adaptive
``quad`` calls that run inside ``ExpIntegralTransform.inner``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYER_MODULES = ("specfun", "cylinder", "body", "gaussmoments", "torsion",
                 "verify", "cli")
LAYERS = ("specfun", "cylinder.profile", "cylinder.transform", "body",
          "gaussmoments", "torsion", "verify", "cli")
# cylinder.py holds two layers: the scalar profiles and the transforms
_TRANSFORM_NAMES = {"ExpIntegralTransform", "NumericalFailure", "conjecture_F",
                    "weak_F", "conjecture_transform", "weak_transform",
                    "bad_transform"}
VERIFY_CHECKS = {"concavity_check", "max_power", "gauss_main_bound",
                 "corT1_bound", "minkowski_first_check", "brascamp_lieb_check",
                 "propgauss_check", "moment_inequality_suite",
                 "alpha_halfspace", "s_inequality_check",
                 "counterexample_search"}
MAX_SPANS = 50_000
SPAN_DEPTH = 3


def _layer_of(module: str, owner: str) -> str:
    if module == "cylinder":
        return "cylinder.transform" if owner in _TRANSFORM_NAMES else "cylinder.profile"
    return module


class Tracer:
    """Span stack, per-layer aggregates, counters."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, child_time, span_index]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.transform_inner_depth = 0
        self.t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, layer: str) -> list:
        idx = -1
        if len(self.stack) < SPAN_DEPTH and len(self.spans) < MAX_SPANS:
            parent = self.stack[-1][2] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter() - self.t0, None, parent])
        frame = [layer, 0.0, idx]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, t_start: float) -> None:
        t_end = time.perf_counter()
        self.stack.pop()
        dur = t_end - t_start
        layer = frame[0]
        self.self_s[layer] += dur - frame[1]
        self.calls[layer] += 1
        if frame[2] >= 0:
            self.spans[frame[2]][3] = t_end - self.t0
        if self.stack:
            self.stack[-1][1] += dur

    @contextlib.contextmanager
    def request(self, name: str):
        """One request: a root span whose own time counts as ``harness``."""
        t = time.perf_counter()
        frame = self._open(name, "harness")
        try:
            yield
        finally:
            self._close(frame, t)

    def add_import(self, seconds: float) -> None:
        self.self_s["import"] += seconds
        self.calls["import"] += 1

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn, layer: str, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.stack
            if not st:
                return fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs)
            if st[-1][0] == layer:
                return fn(*args, **kwargs)
            t = time.perf_counter()
            frame = tracer._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, t)

        return wrapper

    # -- export ------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "spans": self.spans,
        }


def _counters(tracer: Tracer) -> dict:
    """Counting hooks keyed by qualified function name."""
    import numpy as np

    c = tracer.counters

    def radial(args, kwargs):
        body, theta = args[0], args[1]
        rows = 1 if np.ndim(theta) == 1 else len(theta)
        c["body.radial_dirs"] += rows
        if body.exact_radial is None:
            c["body.generic_dirs"] += rows

    def ray_integral(args, kwargs):
        c["gaussmoments.ray_integrals"] += 1

    def transform_points(args, kwargs):
        c["cylinder.transform.points"] += int(np.size(args[1]))

    def check(args, kwargs):
        c["verify.checks"] += 1

    hooks = {"body.radial": radial,
             "gaussmoments.ray_integral": ray_integral,
             "cylinder.ExpIntegralTransform.__call__": transform_points}
    hooks.update({f"verify.{name}": check for name in VERIFY_CHECKS})
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every gausscvx module."""
    hooks = _counters(tracer)
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"gausscvx.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                qual = f"{short}.{attr}"
                setattr(mod, attr, tracer.wrap(obj, _layer_of(short, attr), qual,
                                               hooks.get(qual)))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, obj, short, hooks)
    _count_transform_quads(tracer)


def _wrap_class(tracer: Tracer, cls, short: str, hooks: dict) -> None:
    layer = _layer_of(short, cls.__name__)
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__call__":
            continue
        qual = f"{short}.{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                tracer.wrap(raw.__func__, layer, qual, hooks.get(qual))))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(raw, layer, qual, hooks.get(qual)))


def _count_transform_quads(tracer: Tracer) -> None:
    """Count the adaptive ``quad`` calls made while computing W(t)."""
    cyl = importlib.import_module("gausscvx.cylinder")
    cls = getattr(cyl, "ExpIntegralTransform", None)
    quad = getattr(cyl, "quad", None)
    if cls is None or quad is None or "inner" not in vars(cls):
        return
    inner = cls.inner

    @functools.wraps(inner)
    def counted_inner(self, *args, **kwargs):
        tracer.transform_inner_depth += 1
        try:
            return inner(self, *args, **kwargs)
        finally:
            tracer.transform_inner_depth -= 1

    @functools.wraps(quad)
    def counted_quad(*args, **kwargs):
        if tracer.stack and tracer.transform_inner_depth:
            tracer.counters["cylinder.transform.inner_quads"] += 1
        return quad(*args, **kwargs)

    cls.inner = counted_inner
    cyl.quad = counted_quad


def merge(summaries) -> dict:
    """Sum the aggregates of several traced processes (spans are dropped)."""
    out = {"self_s": defaultdict(float), "calls": defaultdict(int),
           "counters": defaultdict(int)}
    for s in summaries:
        for key in out:
            for k, v in s[key].items():
                out[key][k] += v
    return {k: dict(v) for k, v in out.items()}


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics the benchmark reports, from merged aggregates."""
    m = {}
    for layer in LAYERS + ("import",):
        m[f"{layer}.self_s"] = (agg["self_s"].get(layer, 0.0), "s")
        m[f"{layer}.calls"] = (agg["calls"].get(layer, 0), "count")
    c = agg["counters"]
    dirs = c.get("body.radial_dirs", 0)
    rays = c.get("gaussmoments.ray_integrals", 0)
    points = c.get("cylinder.transform.points", 0)
    m["body.radial_dirs"] = (dirs, "count")
    m["body.generic_dirs"] = (c.get("body.generic_dirs", 0), "count")
    m["gaussmoments.ray_integrals"] = (rays, "count")
    m["gaussmoments.dirs_per_ray_integral"] = (dirs / rays if rays else 0.0, "ratio")
    m["cylinder.transform.points"] = (points, "count")
    m["cylinder.transform.inner_per_point"] = (
        c.get("cylinder.transform.inner_quads", 0) / points if points else 0.0, "ratio")
    m["verify.checks"] = (c.get("verify.checks", 0), "count")
    return m
