"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the same work can run 1.7x slower for a minute at a time,
in CPU time as well as wall time, most likely because other tenants contend
for the cores.  A run of under a minute cannot average such spells away, so
the worker runs this probe between jobs and scales each job's time by how
long the probe took around it.  The probe uses only numpy and the standard
library, never dgreen, so no change to the program can move it.  It is
interpreter-bound work of the kinds the program does: a loop of small numpy
operations (the step loops and per-call overhead), float formatting (the CLI
writers) and plain Python arithmetic.  Each of these tracks the slow spells:
scaled by any one of them, export's pass time spread 0.04 to 0.06
(IQR/median over 36 s windows) where the raw time spread 0.28.  A large FFT,
tried as a fourth part, tracked them poorly (0.15) and was left out.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds at the speed that wall_ref_s is scaled to: about the median
# probe time on the 2-vCPU Xeon (KVM) host the benchmark was tuned on.
REFERENCE_S = 0.07
# Job seconds between two probes.
PROBE_EVERY_S = 1.5

_RNG = np.random.default_rng(20220107)
_STEP = _RNG.standard_normal(64)
_VALUES = _RNG.standard_normal(8000).tolist()


def probe():
    """Run the reference computation once; return its wall seconds."""
    start = time.perf_counter()
    u = _STEP.copy()
    for _ in range(2000):
        u = 0.25 * np.roll(u, 1) + 0.5 * u + 0.25 * np.roll(u, -1)
    text = "\n".join(f"{v:.17g},{v * v:.17g},{abs(v):.17g}"
                     for v in _VALUES)
    total = 0
    for k in range(200_000):
        total += k * k
    elapsed = time.perf_counter() - start
    if not (np.isfinite(u[0]) and text and total > 0):
        raise RuntimeError("speed probe produced a non-finite value")
    return elapsed


class Gauge:
    """Probes between jobs and gives each job the probe times around it.

    A probe runs after a job once at least PROBE_EVERY_S seconds of job time
    have passed since the last one, and after the last job of a pass.  Each
    job of such a segment gets the mean of the probes that open and close it.
    """

    def __init__(self):
        probe()  # the first call warms the interpreter's caches
        self.last = probe()
        self.pending = []
        self.elapsed = 0.0

    def after(self, entry, last):
        """Record a finished job's entry; probe when a segment is full."""
        self.pending.append(entry)
        self.elapsed += entry["seconds"]
        if self.elapsed < PROBE_EVERY_S and not last:
            return
        now = probe()
        for done in self.pending:
            done["probe_s"] = 0.5 * (self.last + now)
        self.last, self.pending, self.elapsed = now, [], 0.0
