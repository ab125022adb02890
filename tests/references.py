"""Independent references that the tests check the library against.

Per-cell and per-pair restatements of what the library computes in
vectorized form, paper checks that the package reports rather than
exports (the symbol modulus identities, Corollary 1's one-sided sums, the
oscillation side and the BV bound of evolved data), the spatial reflection
of a stencil, exact rational power sums and a double-double direct route.
"""

import math
from fractions import Fraction

import numpy as np

from dgreen.analysis import _step_grid
from dgreen.approx import ApproxParams, approx_G
from dgreen.green import GridFunction, evolve
from dgreen.stencil import (AUDIT_GRID, Stencil, beam_warming, lax_wendroff,
                            symbol_eval)


def reflect(stencil):
    """Spatial reflection a_l -> a_{-l}; flips the sign of odd cumulants."""
    return Stencil(-stencil.max_offset, stencil.coefficients[::-1],
                   label=stencil.label + "~" if stencil.label else "")


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


def power_sums(stencil, center, count):
    """sum_l a_l (l - center)^k - [k = 0] for k < count, each part summed in
    exact rationals and converted to float once."""
    center = Fraction(center)
    sums = []
    for k in range(count):
        re = sum(Fraction(a.real) * (l - center) ** k
                 for l, a in stencil.terms)
        im = sum(Fraction(a.imag) * (l - center) ** k
                 for l, a in stencil.terms)
        sums.append(complex(float(re - (k == 0)), float(im)))
    return sums


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and s + e == a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(x):
    """Veltkamp's split of x into two halves of 26 bits: x == hi + lo."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(a, b):
    """Dekker's TwoProd: p = fl(a * b) and p + e == a * b exactly."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_green(stencil, n):
    """G^n of a real stencil on its whole support, rounded to float64 from
    a double-double table.

    Direct convolution from the delta, each entry carried as an unevaluated
    sum hi + lo and renormalized after every term, so the table is accurate
    to far below the rounding of one float64 entry.
    """
    kernel = stencil.as_array().real.tolist()
    hi, lo = np.array([1.0]), np.array([0.0])
    for _ in range(n):
        new_hi, new_lo = np.zeros((2, len(hi) + len(kernel) - 1))
        for shift, a in enumerate(kernel):
            part = slice(shift, shift + len(hi))
            p, e = _two_prod(a, hi)
            s, t = _two_sum(new_hi[part], p)
            t += new_lo[part] + e + a * lo
            new_hi[part] = s + t
            new_lo[part] = t - (new_hi[part] - s)
        hi, lo = new_hi, new_lo
    return hi
