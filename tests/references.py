"""Independent references that the tests check the library against.

Per-cell and per-pair restatements of what the library computes in
vectorized form, and paper checks that the package reports rather than
exports: the symbol modulus identities, Corollary 1's one-sided sums, the
oscillation side and the BV bound of evolved data.
"""

import math

import numpy as np

from dgreen.analysis import _step_grid
from dgreen.approx import ApproxParams, approx_G
from dgreen.green import GridFunction, evolve
from dgreen.stencil import AUDIT_GRID, beam_warming, lax_wendroff, symbol_eval


def cell_average_indicator(x_lo: float, x_hi: float, half_width: float) -> float:
    """Average of the indicator of [-half_width, half_width] over [x_lo, x_hi]."""
    if x_hi <= x_lo:
        raise ValueError("empty cell")
    overlap = min(x_hi, half_width) - max(x_lo, -half_width)
    return max(0.0, overlap) / (x_hi - x_lo)


def modulus_identity_check(kind: str, lam: float) -> float:
    """Max abs deviation of |F_a|^2 from its closed form on the audit grid.

    kind "lw": |F|^2 = 1 - 4 lam^2 (1 - lam^2) sin^4(theta/2)
    kind "bw": |F|^2 = 1 - 4 lam (1-lam)^2 (2-lam) sin^4(theta/2)
    """
    if kind == "lw":
        stencil = lax_wendroff(lam)
        factor = 4.0 * lam**2 * (1.0 - lam**2)
    elif kind == "bw":
        stencil = beam_warming(lam)
        factor = 4.0 * lam * (1.0 - lam) ** 2 * (2.0 - lam)
    else:
        raise ValueError(f"unknown scheme kind {kind!r}")
    theta = np.linspace(-math.pi, math.pi, AUDIT_GRID)
    modulus_sq = np.abs(symbol_eval(stencil, theta)) ** 2
    closed = 1.0 - factor * np.sin(theta / 2.0) ** 4
    return float(np.max(np.abs(modulus_sq - closed)))


def corollary1_sums(g, e):
    """Corollary 1's one-sided absolute sums of a table g: (fast-side sum of
    |G|, oscillatory-side sum of |G - approx_G|).

    The fast side is j - alpha*n >= 0 for c3 > 0 and <= 0 for c3 < 0.  Both
    sums stay bounded uniformly in n even though the full l1 norm grows like
    n**(1/8); the growth lives in the oscillatory side of G itself.
    """
    d = g.offsets - e.alpha * g.n
    fast = d >= 0.0 if e.c3 > 0 else d <= 0.0
    difference = np.abs(g.values - approx_G(ApproxParams.from_expansion(e),
                                            g.n, g.offsets))
    return (float(np.sum(np.abs(g.values)[fast])),
            float(np.sum(difference[~fast])))


def oscillation_side(g, e):
    """Which side of the front j = alpha*n carries the sign oscillations:
    'left' or 'right' by the larger count of sign changes between
    neighbouring entries of Re G above 1e-13 of its largest, one pair at a
    time; None for n < 100, before the wave packet has developed, or a tie.
    """
    d = (g.offsets - e.alpha * g.n).tolist()
    re = g.values.real.tolist()
    floor = 1e-13 * max(map(abs, re))
    counts = []
    for side in (-1, 1):
        v = [x for x, dj in zip(re, d) if dj * side > 0 and abs(x) > floor]
        counts.append(sum((a > 0) != (b > 0) for a, b in zip(v, v[1:])))
    if g.n < 100 or counts[0] == counts[1]:
        return None
    return "left" if counts[0] > counts[1] else "right"


def total_variation(u: GridFunction) -> float:
    """Total variation of the bi-infinite sequence, tail jumps included."""
    vals = np.asarray(u.values)
    inner = float(np.sum(np.abs(np.diff(vals))))
    left_jump = abs(vals[0] - u.left_tail)
    right_jump = abs(u.right_tail - vals[-1])
    return inner + float(left_jump) + float(right_jump)


def bv_apply_bound(stencil, u: GridFunction, n_values):
    """Sup over the n grid of the evolved sup norm, and the data's variation.

    Requires a declared zero left tail (data vanishing at -infinity); the
    ratio sup_linf / bv_norm is the empirical stability constant even though
    powers of the operator are unbounded on l-infinity.
    """
    if u.left_tail != 0:
        raise ValueError("bv_apply_bound needs a declared zero left tail")
    n_values = _step_grid(n_values)
    bv_norm = total_variation(u)
    sup_linf = 0.0
    done = 0
    for n in n_values:
        u = evolve(stencil, u, n - done)
        done = n
        sup_linf = max(sup_linf, float(np.max(np.abs(u.values))),
                       abs(u.left_tail), abs(u.right_tail))
    return sup_linf, bv_norm
