"""Span recording around dgreen's public functions, installed from outside.

The package itself carries no probes.  While a traced pass runs, each listed
function is replaced by a wrapper in every dgreen module that holds it,
including dgreen.cli and dgreen.analysis, which import their callees by name.
A span records its layer name, start, end, parent span and job id; counts come
from the call's arguments or its return value.  Peak memory is taken with
tracemalloc only while `memory` is set, because tracemalloc slows every
allocation and would inflate the self times.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

MODULES = ("dgreen", "dgreen.stencil", "dgreen.green", "dgreen.approx",
           "dgreen.analysis", "dgreen.cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _table_entries(args, kwargs, result):
    return len(result.values)


# (home module, function, layer, count name, count of one call, track memory)
LAYERS = (
    ("dgreen.stencil", "symbol_eval", "stencil.symbol_eval", "points",
     lambda a, k, r: int(np.size(_arg(a, k, 1, "theta"))), False),
    ("dgreen.stencil", "assumption_audit", "stencil.audit", "calls",
     lambda a, k, r: 1, False),
    ("dgreen.green", "green_spectral", "green.spectral", "entries",
     _table_entries, True),
    ("dgreen.green", "green_direct", "green.direct", "entries",
     _table_entries, False),
    ("dgreen.green", "evolve", "green.evolve", "steps",
     lambda a, k, r: int(_arg(a, k, 2, "n")), False),
    ("dgreen.green", "spectral_sweep", "green.sweep", "tables",
     lambda a, k, r: int(_arg(a, k, 1, "n_max")), True),
    ("dgreen.approx", "approx_G", "approx.G", "points",
     lambda a, k, r: int(np.size(_arg(a, k, 2, "j"))), False),
    ("dgreen.approx", "approx_H", "approx.H", "points",
     lambda a, k, r: int(np.size(_arg(a, k, 2, "j"))), False),
    ("dgreen.analysis", "growth_series", "analysis.growth", None, None, False),
    ("dgreen.analysis", "envelope_reports", "analysis.envelope", None, None,
     False),
    ("dgreen.analysis", "bv_bounds", "analysis.bv", None, None, False),
    ("dgreen.cli", "main", "cli", "calls", lambda a, k, r: 1, False),
)

# Field order of one recorded span.
NAME, START, END, PARENT, JOB, COUNT, PEAK_MB = range(7)


class Recorder:
    """Collects the spans of jobs run between install() and uninstall()."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.memory = False
        self._stack = []
        self._patched = []

    def _wrap(self, fn, layer, count, track_memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.job, 0,
                    0.0]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            measure = track_memory and self.memory
            if measure:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                if measure:
                    span[PEAK_MB] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                self._stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every listed function wherever dgreen's modules hold it.

        Raises LookupError when a listed function no longer exists, so a
        renamed layer fails the traced run instead of reading as zero.
        """
        for home, attr, layer, _, count, track_memory in LAYERS:
            original = getattr(sys.modules[home], attr, None)
            if not callable(original):
                raise LookupError(f"traced layer {layer}: {home}.{attr} "
                                  "is missing")
            wrapper = self._wrap(original, layer, count, track_memory)
            for name in MODULES:
                module = sys.modules[name]
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Calls are sequential in one thread, so children never overlap and their
    durations add up to the part of the parent's interval they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
