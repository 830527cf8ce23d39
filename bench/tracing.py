"""Outside-in layer tracing.

The tracer wraps public library functions (each must be listed in its
module's ``__all__``) and rebinds every wrapper in every ``quiverlab``
module namespace that holds the original, so calls between modules are
seen as well as calls from the benchmark.  Each call becomes a span
``[name, start_ns, end_ns, parent, item, child_ns, leaves, note]``;
``child_ns`` is the time covered by the span's children, so self time
is ``end - start - child_ns``.  Leaf calls (functions that call no
other wrapped function) are aggregated per parent span into ``leaves``
as ``{name: [calls, ns, cells]}`` to bound memory.  ``note`` holds what
a yield ratio needs from the call's result.  Work done before the first
item runs under a ``setup`` span with item id -1 and is left out of the
sums.  Spans stay in memory and are written out at the end.

Cache hit ratios come from the public ``cache_info()`` of the original
cached objects; an object without one is reported as missing.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter_ns

# (module, function, leaf)
WRAPPED = (
    ("linalg", "rref", True),
    ("reps", "build", False),
    ("reps", "hom_space_dim", False),
    ("reps", "identify", False),
    ("reps", "sub_quotient", False),
    ("extensions", "ext_set", False),
    ("extensions", "generic_ext", False),
    ("grassmannian", "strata", False),
    ("grassmannian", "ext_ger", False),
    ("klr", "is_support_pair", False),
    ("klr", "socle_prediction", False),
    ("homs", "hom_dim", True),
    ("homs", "ext_dim", True),
    ("order", "leq", False),
    ("quiver", "kp_enumerate", True),
    ("repetition", "v_lambda", False),
)

CACHED = (
    ("reps", "build"),
    ("reps", "indecomposable"),
    ("homs", "hom_ext_pair"),
    ("order", "hom_vector"),
    ("quiver", "kp_enumerate"),
)

ITEM_SPAN = "item"
SETUP_SPAN = "setup"


class TraceError(RuntimeError):
    """The tracer could not cover a function it was asked to wrap."""


def _quiverlab_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "quiverlab" or name.startswith("quiverlab."))
    ]


def _matrix_cells(a):
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a) * (len(a[0]) if len(a) else 0)
    if len(shape) == 1:
        return shape[0]
    return shape[0] * shape[1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.originals: dict[str, object] = {}
        self.hom_cols = 0
        self._cache_start: dict[str, tuple[int, int] | None] = {}
        self._setup = (self._open(SETUP_SPAN), perf_counter_ns())

    # ------------------------------------------------------------ wrapping

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0, 0, parent, self.item, 0, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec, t0, t1):
        self.stack.pop()
        rec[1], rec[2] = t0, t1
        if rec[3] >= 0:
            self.spans[rec[3]][5] += t1 - t0

    def _aggregate(self, key, dt, cells=0):
        parent = self.spans[self.stack[-1]]
        parent[5] += dt
        agg = parent[6]
        if agg is None:
            agg = parent[6] = {}
        slot = agg.get(key)
        if slot is None:
            agg[key] = [1, dt, cells]
        else:
            slot[0] += 1
            slot[1] += dt
            slot[2] += cells

    def _wrap(self, name, fn, leaf):
        if name == "linalg.rref":
            def rref(a, q, *args, **kwargs):
                t0 = perf_counter_ns()
                try:
                    return fn(a, q, *args, **kwargs)
                finally:
                    self._aggregate(f"linalg.rref.q{q}", perf_counter_ns() - t0, _matrix_cells(a))
            return rref

        if leaf:
            def leaf_wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._aggregate(name, perf_counter_ns() - t0)
            return leaf_wrapper

        observe = {
            "reps.identify": _observe_identify,
            "grassmannian.strata": _observe_strata,
        }.get(name)

        def wrapper(*args, **kwargs):
            if name == "reps.hom_space_dim" and self.item >= 0:
                self.hom_cols += sum(a * b for a, b in zip(args[0].dims, args[1].dims))
            rec = self._open(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, t0, perf_counter_ns())
            if observe is not None:
                rec[7] = observe(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every function in WRAPPED and rebind it everywhere."""
        wrappers = {}
        for module_name, fn_name, leaf in WRAPPED:
            module = importlib.import_module("quiverlab." + module_name)
            if fn_name not in getattr(module, "__all__", ()):
                raise TraceError(f"quiverlab.{module_name}.{fn_name} is not public")
            original = getattr(module, fn_name)
            name = f"{module_name}.{fn_name}"
            self.originals[name] = original
            wrappers[id(original)] = self._wrap(name, original, leaf)
        for module in _quiverlab_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self.check_coverage()

    def check_coverage(self):
        """Raise if an original is still bound in a loaded quiverlab module."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        unbound = [
            f"{module.__name__}.{attr} ({originals[id(value)]})"
            for module in _quiverlab_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        if unbound:
            raise TraceError("wrapped functions left unbound: " + ", ".join(sorted(unbound)))

    # --------------------------------------------------------- items

    def end_setup(self):
        """Close the setup span and take the cache baseline."""
        self.end_item(self._setup)
        self.start_caches()

    def begin_item(self, item):
        self.item = item
        return self._open(ITEM_SPAN), perf_counter_ns()

    def end_item(self, token):
        rec, t0 = token
        self._close(rec, t0, perf_counter_ns())
        self.item = -1

    # --------------------------------------------------------- caches

    def _cache_info(self, module_name, fn_name):
        module = sys.modules["quiverlab." + module_name]
        original = self.originals.get(f"{module_name}.{fn_name}", getattr(module, fn_name))
        info = getattr(original, "cache_info", None)
        if info is None:
            return None
        ci = info()
        return ci.hits, ci.misses

    def start_caches(self):
        self._cache_start = {f"{m}.{f}": self._cache_info(m, f) for m, f in CACHED}

    def cache_deltas(self):
        out = {}
        for m, f in CACHED:
            name = f"{m}.{f}"
            start, end = self._cache_start.get(name), self._cache_info(m, f)
            out[name] = None if start is None or end is None else [
                end[0] - start[0], end[1] - start[1]
            ]
        return out

    # --------------------------------------------------------- summary

    def summary(self):
        """Raw per-layer sums; ``run.py`` adds them up across children."""
        layers: dict[str, list[int]] = {}
        cells = 0

        def add(key, calls, ns):
            slot = layers.setdefault(key, [0, 0])
            slot[0] += calls
            slot[1] += ns

        u_points = points = 0
        tokens: dict[int, set] = {}
        enumerating: set[int] = set()
        for name, t0, t1, parent, item, child_ns, leaves, note in self.spans:
            if item < 0:
                continue
            add(name, 1, t1 - t0 - child_ns)
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "reps.identify" and parent_name == "extensions.ext_set":
                u_points += 1
                tokens.setdefault(parent, set()).add(note)
            if name == "reps.sub_quotient" and parent_name == "grassmannian.strata":
                points += 1
                enumerating.add(parent)
            for key, (calls, ns, c) in (leaves or {}).items():
                add(key, calls, ns)
                if key.startswith("linalg.rref."):
                    add("linalg.rref", calls, ns)
                    cells += c
        u_classes = sum(len(t) for t in tokens.values())
        pairs = sum(self.spans[i][7] for i in enumerating)
        return {
            "layers": layers,
            "linalg.rref.cells": cells,
            "reps.hom_space_dim.cols": self.hom_cols,
            "extensions.u_points": u_points,
            "extensions.u_classes": u_classes,
            "grassmannian.points": points,
            "grassmannian.pairs": pairs,
            "caches": self.cache_deltas(),
        }

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps([idx, *span]) + "\n")


def _observe_identify(args, result):
    return (args[0].q, result.parts)


def _observe_strata(args, result):
    return len(result.entries)
