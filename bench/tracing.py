"""In-memory span tracer for the symcrit layers.

The tracer wraps the public calls of the five layer modules
(``ambient``, ``surface``, ``functional``, ``flow``, ``verify``) from
outside the package: it rebinds module attributes and class attributes
and restores them on ``uninstall``.  Nothing under ``src/`` knows about
it.

Each call becomes one span ``(name, start, end, parent, op, value)``.
``parent`` is the index of the innermost open span (-1 at top level),
``op`` the operation id set by the benchmark, ``value`` an optional
number a hook takes from the call (points evaluated, step size).
Spans stay in memory until ``write`` dumps them as gzipped JSON.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from functools import cached_property

import numpy as np

from workloads import LAYERS

# Not public by name but needed for a per-layer metric: the step cap
# that ``run_flow`` hands to the line search (flow.tau_at_cap_share).
EXTRA_FUNCTIONS = {"flow": ("stable_step",)}


def _points(args, kwargs, result):
    points = kwargs["points"] if "points" in kwargs else args[1]
    return int(np.prod(np.shape(points)[:-1]))


def _fresh_geometry(args, kwargs, result):
    return 0 if kwargs.get("geometry") is not None else 1


# name -> value recorded on the span, from (args, kwargs, result)
HOOKS = {
    "ambient.christoffel_at": _points,
    "flow.stable_step": lambda args, kwargs, result: float(result),
    "flow.flow_step": lambda args, kwargs, result: float(result[1].tau),
    "functional.l_beta": _fresh_geometry,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self._restore: list = []
        self._t0 = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
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
                spans[idx] = (nid, start, end, parent, self.op, None)
            if hook is not None:
                value = hook(args, kwargs, result)
                spans[idx] = (nid, start, end, parent, self.op, value)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- installing -----------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, sc) -> None:
        """Wrap the layer modules held by the namespace ``sc``.

        Every module-level function without a leading underscore is
        wrapped, and every binding of it in any loaded symcrit module
        (``flow`` and ``verify`` import functions by name) is rebound.
        Classes defined in a layer get their public methods wrapped;
        cached properties are wrapped whatever their name, so the span
        covers the computation on a cache miss only.  Constructing a
        ``SurfaceGeometry`` is a span of its own, which counts geometries.
        """
        originals = {}
        for layer in LAYERS:
            module = getattr(sc, layer)
            extra = EXTRA_FUNCTIONS.get(layer, ())
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in extra
                ):
                    originals[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for name, module in list(sys.modules.items()):
            if name != "symcrit" and not name.startswith("symcrit."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._rebind(module, attr, originals[id(obj)])

    def _install_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, cached_property):
                prop = cached_property(self.wrap(obj.func, f"{layer}.{attr}"))
                prop.__set_name__(cls, attr)
                self._rebind(cls, attr, prop)
            elif inspect.isfunction(obj) and not attr.startswith("_"):
                self._rebind(cls, attr, self.wrap(obj, f"{layer}.{attr}"))
        if cls.__name__ == "SurfaceGeometry":
            self._rebind(cls, "__init__",
                         self.wrap(cls.__init__, f"{layer}.SurfaceGeometry"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading --------------------------------------------------------

    def table(self):
        """Per-span arrays: name id, duration, self time, parent, op, value."""
        n = len(self.spans)
        nid = np.empty(n, dtype=np.int64)
        dur = np.empty(n)
        parent = np.empty(n, dtype=np.int64)
        op = np.empty(n, dtype=np.int64)
        value = np.full(n, np.nan)
        for i, (k, start, end, par, o, val) in enumerate(self.spans):
            nid[i], dur[i], parent[i], op[i] = k, end - start, par, o
            if val is not None:
                value[i] = val
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": nid, "dur": dur, "self": dur - child,
            "parent": parent, "op": op, "value": value,
        }

    def write(self, path, meta: dict) -> None:
        """Dump every span as gzipped JSON; times in s from tracer start."""
        t0 = self._t0
        rows = [
            [k, round(s - t0, 9), round(e - t0, 9), p, o, v]
            for k, s, e, p, o, v in self.spans
        ]
        doc = dict(meta)
        doc["names"] = self.names
        doc["columns"] = ["name", "start_s", "end_s", "parent", "op", "value"]
        doc["spans"] = rows
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
