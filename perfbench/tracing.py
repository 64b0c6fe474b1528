"""In-memory layer spans for one process, recorded around sectionlab calls.

``Tracer.install`` replaces each public function listed in ``TRACED``
with a wrapper that records one span per call: name (``module.function``),
start, end and the index of the enclosing span.  The wrapper is bound
wherever sectionlab bound the original (the CLI imports most functions by
name), so the CLI runs unchanged and calls exactly what it calls without
tracing.

Counters that need the call's arguments or result (proposals, bandwidth,
KDE terms, EM iterations, bytes written) are computed by ``finish``, after
the traced work has ended, so their cost never lands inside a span.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

import numpy as np

KERNEL_REACH = 40.0  # density.reflection_kde sums sample points within 40 h


def _file_counters(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _sample_counters(a, result):
    return {"proposals": result.n_proposed, "accepted": result.n_accepted}


def _sj_counters(a, result):
    h, method = result if isinstance(result, tuple) else (result, "unknown")
    x = np.asarray(a["x"], dtype=float)
    # the plug-in bins the mirrored sample, whose range is 2 max|x|
    delta = 2.0 * float(np.abs(x).max()) / a["nbins"]
    return {"h": float(h), "bin_over_h": delta / float(h),
            "fallback": int(method != "sheather_jones")}


def _kde_counters(a, result):
    xs = np.sort(np.asarray(a["x"], dtype=float))
    grid = np.asarray(a["grid"], dtype=float)
    reach = KERNEL_REACH * float(a["h"])
    terms = 0
    for centre in (grid, -grid):
        terms += int((np.searchsorted(xs, centre + reach)
                      - np.searchsorted(xs, centre - reach)).sum())
    return {"terms": terms}


def _em_counters(a, result):
    s_obs = np.asarray(a["s_obs"], dtype=float)
    atoms = int(np.unique(s_obs).size)
    return {"iterations": result.iterations, "converged": int(result.converged),
            "loglik": result.final_loglik, "atoms": atoms,
            "pruned_atoms": result.pruned_atoms,
            "kernel_mb": s_obs.size * atoms * 8 / 1e6}


# (module, attribute, counters hook or None); the span is "module.attribute"
TRACED = [
    ("cli", "resolve_shape", None),
    ("cli", "_read_values", _file_counters),
    ("sampling", "sample_iur_sections", _sample_counters),
    ("density", "estimate_root_density", None),
    ("density", "root_transform", None),
    ("density", "sheather_jones_bandwidth", _sj_counters),
    ("density", "default_grid", None),
    ("density", "reflection_kde", _kde_counters),
    ("density", "untransform_density", None),
    ("density", "save_density_csv", _file_counters),
    ("density", "save_step_cdf_csv", _file_counters),
    ("stereology", "ReferenceDensity.from_body", None),
    ("stereology", "npmle_em", _em_counters),
    ("stereology", "unbias", None),
]


class Tracer:
    """Spans of one process, kept in memory until ``finish``."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent
        self._pending = []  # (span index, hook, function, args, kwargs, result)
        self._stack = []

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            self._pending.append((index, hook, fn, args, kwargs, result))
        return result

    def _wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)
        return traced

    def install(self):
        """Wrap every function in ``TRACED`` wherever sectionlab binds it."""
        for module_name, attr, hook in TRACED:
            module = importlib.import_module(f"sectionlab.{module_name}")
            name = f"{module_name}.{attr}"
            owner_name, _, key = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                print(f"tracing: {name} not found, not traced", file=sys.stderr)
                continue
            if isinstance(original, classmethod):
                setattr(owner, key, classmethod(
                    self._wrapper(name, original.__func__, hook)))
                continue
            traced = self._wrapper(name, original, hook)
            for module_key, namespace in list(sys.modules.items()):
                if module_key.split(".")[0] != "sectionlab":
                    continue
                for binding, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, binding, traced)

    def finish(self):
        """Compute deferred counters; return the spans as plain dicts."""
        for index, hook, fn, args, kwargs, result in self._pending:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                counters = hook(bound.arguments, result)
            except (KeyError, AttributeError, TypeError, ValueError) as exc:
                # a changed signature or result loses counters, not the run
                print(f"tracing: no counters for {self.spans[index]['name']}:"
                      f" {exc!r}", file=sys.stderr)
                counters = {}
            self.spans[index]["counters"] = counters
        self._pending.clear()
        return self.spans
