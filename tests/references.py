"""Independent references that the tests check the library against.

Per-cell and per-pair restatements of what the library computes in
vectorized form, paper checks that the package reports rather than
exports (the symbol modulus identities, Corollary 1's one-sided sums, the
oscillation side and the BV bound of evolved data), the spatial reflection
of a stencil, exact rational power sums and two double-double direct
routes: a step loop and binary powering.
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
    """Total variation of the bi-infinite sequence, the jumps from and to
    its zero values outside the window included."""
    vals = np.asarray(u.values)
    inner = float(np.sum(np.abs(np.diff(vals))))
    return inner + float(abs(vals[0])) + float(abs(vals[-1]))


def bv_apply_bound(stencil, u: GridFunction, n_values):
    """Sup over the n grid of the evolved sup norm, and the data's variation.

    The ratio sup_linf / bv_norm is the empirical stability constant even
    though powers of the operator are unbounded on l-infinity.
    """
    n_values = _step_grid(n_values)
    bv_norm = total_variation(u)
    sup_linf = 0.0
    done = 0
    for n in n_values:
        u = evolve(stencil, u, n - done)
        done = n
        sup_linf = max(sup_linf, float(np.max(np.abs(u.values))))
    return sup_linf, bv_norm


def heaviside_sup(stencil, n):
    """sup_j |(L^n H)_j| for the Heaviside data H_j = [j >= 0].

    H is built as the cumulative sum of a delta on the n * width + 1 sites
    from 0 on.  L^n reads no site beyond them for j <= n * max_offset, so
    the evolved window agrees with L^n H up to there; further right L^n H
    is constant at its value at n * max_offset, and left of the window 0.
    """
    sites = n * stencil.support_width + 1
    data = GridFunction(0, np.cumsum(np.eye(1, sites)[0]))
    return float(np.max(np.abs(evolve(stencil, data, n).values[:sites])))


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


def _dd_add_product(acc, shift, x, y):
    """Add the double-double scalar x = (hi, lo) times the double-double
    array y = (hi, lo) into acc = (hi, lo) from index `shift` on."""
    acc_hi, acc_lo = acc
    part = slice(shift, shift + len(y[0]))
    p, e = _two_prod(x[0], y[0])
    s, t = _two_sum(acc_hi[part], p)
    t += acc_lo[part] + e + x[0] * y[1] + x[1] * y[0]
    acc_hi[part] = s + t
    acc_lo[part] = t - (acc_hi[part] - s)


def dd_greens(stencil, n_values):
    """Yield G^n on its whole support for each n of the sorted list
    n_values, rounded to float64 (complex128 for a complex stencil) from a
    double-double table.

    Direct convolution from the delta, each entry carried as an unevaluated
    sum hi + lo and renormalized after every term, so the table is accurate
    to far below the rounding of one float64 entry.  A complex stencil
    carries the real and the imaginary part, four real products a term.
    """
    kernel = stencil.as_array()
    real = not kernel.imag.any()
    re, im = np.array([[1.0], [0.0]]), np.zeros((2, 1))
    done = 0
    for n in n_values:
        for _ in range(n - done):
            size = re.shape[1] + len(kernel) - 1
            new_re, new_im = np.zeros((2, 2, size))
            for shift, a in enumerate(kernel):
                _dd_add_product(new_re, shift, (a.real, 0.0), re)
                if not real:
                    _dd_add_product(new_re, shift, (-a.imag, 0.0), im)
                    _dd_add_product(new_im, shift, (a.real, 0.0), im)
                    _dd_add_product(new_im, shift, (a.imag, 0.0), re)
            re, im = new_re, new_im
        done = n
        yield re[0].copy() if real else re[0] + 1j * im[0]


def dd_green(stencil, n):
    """G^n from dd_greens alone."""
    return next(dd_greens(stencil, [n]))


def _dd_trimmed_product(x, y):
    """x * y of real double-double arrays (shape (2, m)) by shift and add
    over the shorter one, without the entries at either end below 1e-40 of
    its largest; also returns how many were dropped at the left end."""
    if x.shape[1] > y.shape[1]:
        x, y = y, x
    out = np.zeros((2, x.shape[1] + y.shape[1] - 1))
    for shift in range(x.shape[1]):
        _dd_add_product(out, shift, x[:, shift], y)
    magnitude = np.abs(out[0])
    live = np.flatnonzero(magnitude >= 1e-40 * magnitude.max())
    return out[:, live[0]:live[-1] + 1], int(live[0])


def dd_power(stencil, n):
    """G^n of a real stencil on its whole support, rounded to float64 from
    double-double binary powering.

    The squarings G^(2^k) and the products of those of the set bits of n
    are all double-double, by shift and add.  Each product drops the
    entries below 1e-40 of its largest at its ends.  At n = 1000 and 2000
    it agrees with dd_green to 1e-40 of the peak, far under the rounding
    of one float64 entry.
    """
    width = stencil.support_width
    level = np.array([stencil.as_array().real, np.zeros(width + 1)])
    level_start, power, start = 0, None, 0
    for k in range(n.bit_length()):
        if n >> k & 1:
            if power is None:
                power, start = level, level_start
            else:
                power, cut = _dd_trimmed_product(power, level)
                start += level_start + cut
        if k + 1 < n.bit_length():
            level, cut = _dd_trimmed_product(level, level)
            level_start = 2 * level_start + cut
    table = np.zeros(n * width + 1)
    table[start:start + power.shape[1]] = power[0]
    return table
