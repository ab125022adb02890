"""Exact Green's function tables and grid evolution for convolution stencils.

The Green's function of n steps is the n-fold self convolution of the stencil
coefficients: G^n = L_a^n delta.  Two routes compute it.  The direct route
iterates np.convolve (cost O(n^2 |support|), in float64 for real stencils);
it is the oracle, and evolve convolves grid data with its table.  The
spectral route samples the n-th power of the symbol and inverts the DFT.  For
stencils meeting the paper's assumptions the mass of G^n sits in an O(sqrt n)
window around the front j = alpha*n, so the route samples only as many
points as that window needs and checks afterwards that nothing else folded
into it; other stencils get the alias-free grid of n * support_width + 1
points.  Either way the result is exact up to rounding.  Every transform
length is the smallest 16 * 2^a * 3^b * 5^c at or above the points needed:
from 500 points on at most 1.13 times them, where the next power of two
may be twice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .stencil import KAPPA2_TOL, Stencil, _expansion, symbol_eval

__all__ = [
    "DEFAULT_MEMORY_BUDGET_MB",
    "MEMORY_BUDGET_ENV",
    "GreenTable",
    "GridFunction",
    "MemoryBudgetError",
    "WorkBudgetError",
    "green_direct",
    "green_spectral",
    "spectral_sweep",
    "evolve",
    "sample_step",
    "cell_average_indicator",
    "norms",
    "Norms",
]

MEMORY_BUDGET_ENV = "DG_MEMORY_BUDGET_MB"
DEFAULT_MEMORY_BUDGET_MB = 512.0


# Cap on the entries a convolution step loop touches.  A loop of `steps`
# steps that starts from a window of `start` entries touches about
# start + steps * (start + steps * width) of them.  green_direct gets through
# about 2e8 a second in float64 and 5e7 in complex arithmetic, so the cap
# refuses loops longer than about ten seconds (forty for complex stencils).
WORK_LIMIT = 2e9

# Window sizing of the spectral route.  The wake of G^n is damped like
# exp(-c4 d^2 / (9 c3^2 n)) at distance d behind the front, and the fast
# side decays like the Airy function, exp(-(2/3) z^(3/2)) with
# z = d / (3|c3|n)^(1/3).  The a-priori window reaches where both have fallen
# to exp(-_TAIL_LOG).  The outer 1/_GUARD of the transform length at each end
# of the window is a guard band that must come out at the rounding floor.
_TAIL_LOG = 40.0
_GUARD = 8
_EPS = float(np.finfo(float).eps)

# Consecutive n that spectral_sweep powers and transforms as one batch.
_SWEEP_BLOCK = 8


class MemoryBudgetError(RuntimeError):
    """Raised when a transform or a convolution loop would exceed the
    memory budget."""


class WorkBudgetError(RuntimeError):
    """Raised when a convolution step loop would exceed WORK_LIMIT."""


@dataclass(frozen=True)
class GreenTable:
    """Values of G^n_j on a window of [n*min_offset_1, n*max_offset_1].

    min_offset is the index of values[0].  Tables from green_direct and
    green_spectral cover the whole support.  method records which route
    built the table ("direct" or "spectral").  Non-finite values, which
    come from powers of the stencil that overflow, raise ValueError.
    """

    n: int
    min_offset: int
    values: np.ndarray
    method: str

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError(f"G^{self.n} overflows: the table has "
                             "non-finite values")

    @property
    def max_offset(self) -> int:
        return self.min_offset + len(self.values) - 1

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.min_offset, self.max_offset + 1)

    def value_at(self, j: int) -> complex:
        if self.min_offset <= j <= self.max_offset:
            return complex(self.values[j - self.min_offset])
        return 0.0


@dataclass(frozen=True)
class GridFunction:
    """A doubly infinite grid sequence stored on a finite window.

    Outside the stored window the sequence takes the declared constant tail
    values.
    """

    min_index: int
    values: np.ndarray
    left_tail: complex = 0.0
    right_tail: complex = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        object.__setattr__(self, "values", vals)

    @property
    def max_index(self) -> int:
        return self.min_index + len(self.values) - 1

    def value_at(self, j: int) -> complex:
        if j < self.min_index:
            return complex(self.left_tail)
        if j > self.max_index:
            return complex(self.right_tail)
        return complex(self.values[j - self.min_index])


def _check_work(steps, start, width: int) -> None:
    """Raise WorkBudgetError before a step loop that would exceed WORK_LIMIT.

    steps and start may be floats, inf included, so callers can check a
    loop before they round its size to integers.
    """
    work = start + steps * (start + steps * width)
    if not work <= WORK_LIMIT:
        raise WorkBudgetError(
            f"{steps:.4g} convolution steps from {start:.4g} entries exceed "
            f"the work cap of {WORK_LIMIT:.0e} entries touched")


def _direct_tables(stencil: Stencil, n_values):
    """Yield green_direct(stencil, n) for each n of the sorted list n_values.

    One convolution loop serves the whole list, so it costs the steps of the
    largest n alone.  Real stencils convolve in float64 and cast each table
    to complex128 once.  WorkBudgetError for the largest n is raised before
    anything is allocated, and so is MemoryBudgetError for its table held
    three times in complex128: the caller's last table, the step arrays and
    the table being handed out (the traced peak of a loop).
    """
    _check_work(n_values[-1], 1, stencil.support_width)
    _check_budget(3 * (n_values[-1] * stencil.support_width + 1))
    kernel = stencil.as_array()
    if not kernel.imag.any():
        kernel = kernel.real.copy()
    values, done = kernel, 1
    for n in n_values:
        if stencil.support_width == 0:
            # A pure shift: G^n is a^n alone, and a loop of up to
            # WORK_LIMIT steps would spend its time in call overhead.
            # GreenTable refuses a power that overflows.
            with np.errstate(over="ignore"):
                values = kernel ** n
        else:
            for _ in range(n - done):
                values = np.convolve(values, kernel)
            done = n
        yield GreenTable(n=n, min_offset=n * stencil.min_offset,
                         values=values.astype(complex), method="direct")


def green_direct(stencil: Stencil, n: int) -> GreenTable:
    """G^n by iterated convolution of the coefficient array.  Oracle route.

    Raises WorkBudgetError when n^2 * support_width exceeds WORK_LIMIT and
    MemoryBudgetError when three complex tables of n * support_width + 1
    entries exceed the memory budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(_direct_tables(stencil, [n]))


def _fft_length(needed: int) -> int:
    """The smallest M = 16 * 2^a * 3^b * 5^c with M >= needed.

    numpy's FFT runs such lengths about as fast per point as a power of
    two, and from needed = 500 on M is at most 1.13 * needed, where the next
    power of two may be twice it.  16 | M keeps the guard bands of M/8 whole
    and the irfft half grid even, and doubling M keeps its form.
    """
    best, p5 = math.inf, 16
    while True:
        p35 = p5
        while True:
            best = min(best, p35 << (-(-needed // p35) - 1).bit_length())
            if p35 >= needed:
                break
            p35 *= 3
        if p5 >= needed:
            return best
        p5 *= 5


def _spectral_size(n: int, width: int) -> int:
    return _fft_length(n * width + 1)


def _check_budget(entries: int) -> None:
    """Raise MemoryBudgetError if `entries` complex128 values exceed budget.

    The budget is the DG_MEMORY_BUDGET_MB environment variable in MB, else
    512 MB.  A value that is not a finite number > 0 raises ValueError.
    """
    text = os.environ.get(MEMORY_BUDGET_ENV, str(DEFAULT_MEMORY_BUDGET_MB))
    try:
        budget = float(text)
    except ValueError:
        budget = math.nan
    if not 0.0 < budget < math.inf:
        raise ValueError(f"{MEMORY_BUDGET_ENV} must be a finite number of "
                         f"MB > 0, got {text!r}")
    needed_mb = 16 * entries / 1e6
    if needed_mb > budget:
        raise MemoryBudgetError(
            f"the computation needs about {needed_mb:.3g} MB, budget is "
            f"{budget:.3g} MB")


def _drift(alpha: float, n: int):
    """s = round(n * alpha) and n * alpha - s, in exact integer arithmetic."""
    num, den = alpha.as_integer_ratio()
    shift = (2 * n * num + den) // (2 * den)
    return shift, (n * num - shift * den) / den


def _window_plan(stencil: Stencil, n: int):
    """Drift alpha and the a-priori transform length of the windowed route.

    The length is None for non-conservative or degenerate stencils (kappa2
    != 0, c3 or c4 at their floors), which take the alias-free grid.
    """
    e = _expansion(stencil, probe=False)
    if not (stencil.is_conservative() and e.kappa2 <= KAPPA2_TOL
            and e.nondegenerate):
        return e.alpha, None
    wake = math.sqrt(_TAIL_LOG * 9.0 * e.c3 * e.c3 * n / e.c4)
    front = ((3.0 * abs(e.c3) * n) ** (1.0 / 3.0)
             * (1.5 * _TAIL_LOG) ** (2.0 / 3.0))
    half = wake + front
    return e.alpha, _fft_length(math.ceil(2.0 * half * _GUARD / (_GUARD - 2)))


# Taylor coefficients of (cos x - 1 + x^2/2) / x^4 and (sin x - x) / x^3 in
# powers of x^2; nine terms reach double precision for |x| <= 1.
_COS_TAIL = tuple((-1) ** k / math.factorial(2 * k + 4) for k in range(9))
_SIN_TAIL = tuple(-(-1) ** k / math.factorial(2 * k + 3) for k in range(9))


def _exp_tails(x: np.ndarray):
    """cos x - 1 + x^2/2 and sin x - x, both to relative accuracy."""
    x2 = x * x
    cos_poly = np.full(x.shape, _COS_TAIL[-1])
    sin_poly = np.full(x.shape, _SIN_TAIL[-1])
    for c, s in zip(_COS_TAIL[-2::-1], _SIN_TAIL[-2::-1]):
        cos_poly = cos_poly * x2 + c
        sin_poly = sin_poly * x2 + s
    small = np.abs(x) <= 1.0
    cos_tail = np.where(small, cos_poly * x2 * x2, np.cos(x) - 1.0 + 0.5 * x2)
    sin_tail = np.where(small, sin_poly * x2 * x, np.sin(x) - x)
    return cos_tail, sin_tail


def _exact_sum(values) -> complex:
    return complex(math.fsum(v.real for v in values),
                   math.fsum(v.imag for v in values))


def _grid_sum(values: np.ndarray, half: bool):
    """Sum over the whole grid of samples stored once per conjugate pair.

    Sums along the last axis, so a 2-d array gives one sum per row.
    """
    if half:
        return 2.0 * values.sum(axis=-1) - values[..., 0] - values[..., -1]
    return values.sum(axis=-1)


def _aliased_coefficients(stencil: Stencil, n: int, size: int, alpha: float,
                          frac: float, half: bool):
    """Coefficients of P(theta) = F(theta)^n exp(-i s theta) on `size` points.

    Entry m mod size holds sum_r G^n_{s+m+r*size}, where s is the integer
    drift and frac = n*alpha - s.  With half set (real stencils) only
    theta_k = -2 pi k / size for k <= size/2 is sampled and irfft supplies
    the conjugate half.  Also returns the rounding floor of each coefficient
    and the grid mass of frequencies whose packets travel beyond the window
    core.
    """
    k = np.arange(size // 2 + 1) if half else np.fft.fftfreq(size, 1.0 / size)
    theta = (-2.0 * math.pi / size) * k
    # z = F(theta) exp(-i alpha theta) - 1 with x_l = (l - alpha) theta is
    #   (sum a - 1) + i m1 theta - m2 theta^2 / 2
    #   + sum a_l (c(x_l) + i s(x_l)),
    # m_k = sum a_l (l - alpha)^k, c(x) = cos x - 1 + x^2/2, s(x) = sin x - x.
    # m1 and m2 vanish up to rounding for the paper's stencils, so every term
    # is as small as z itself: z and log(1 + z) carry relative rounding, and
    # the drift n*alpha*theta never enters the rounded phase.
    total = stencil.coefficient_sum()
    lags = [(coeff, offset - alpha)
            for offset, coeff in zip(stencil.offsets, stencil.coefficients)]
    m1 = _exact_sum([coeff * lag for coeff, lag in lags])
    m2 = _exact_sum([coeff * lag * lag for coeff, lag in lags])
    z = (total - 1.0) + (1j * m1) * theta - (0.5 * m2) * theta ** 2
    scale = (abs(total - 1.0) + abs(m1) * np.abs(theta)
             + 0.5 * abs(m2) * theta ** 2)          # rounding scale of z
    slope = np.zeros(theta.shape, dtype=complex)    # d(1 + z)/d(i theta)
    for coeff, lag in lags:
        x = lag * theta
        cos_tail, sin_tail = _exp_tails(x)
        z += coeff * (cos_tail + 1j * sin_tail)
        scale += abs(coeff) * (np.abs(cos_tail) + np.abs(sin_tail))
        slope += (coeff * lag) * np.exp(1j * x)
    centred = 1.0 + z
    # Powers that overflow give non-finite coefficients, which GreenTable
    # refuses; numpy's warnings on the way would only repeat that.
    with np.errstate(all="ignore"):
        # numpy's complex log1p loses the small real part; do it by hand.
        q = 2.0 * z.real + (z * z.conj()).real
        log_abs = np.where(np.abs(q) < 0.5, 0.5 * np.log1p(q),
                           np.log(np.abs(centred)))
        # Stationary phase: frequency theta ends up n * Re(slope / centred)
        # sites from s.
        travel = n * (slope / centred).real
        rel_noise = n * scale / np.abs(centred)
        phase = n * np.angle(centred) + frac * theta
        powered = np.exp(n * log_abs + 1j * phase)
        mags = np.abs(powered)
        # Each sample carries a relative error of about eps times the
        # rounding of n*log(1 + z), the size of its phase and the transform
        # depth; the floor is their worst-case sum over the grid.
        noise = mags * (np.nan_to_num(rel_noise) + np.abs(phase)
                        + math.log2(size))
        floor = _EPS * _grid_sum(noise, half) / size
        far = mags * (np.abs(travel) > size // 2 - size // _GUARD)
        far_mass = _grid_sum(far, half) / size
        coeffs = np.fft.irfft(powered, size) if half else np.fft.ifft(powered)
    return coeffs, floor, far_mass


def _spectral_window(stencil: Stencil, n: int, reserve: int = 0):
    """G^n on the window that holds its mass, and the transform length used.

    For real stencils the transform length M starts from the a-priori window
    of _window_plan and doubles until the guard bands at both window edges
    and the mass of frequencies travelling past the window core are at the
    rounding floor.  Both lengths are _fft_length of the points they need,
    so every M is 16 * 2^a * 3^b * 5^c.  At or beyond the alias-free
    length, the one for n * support_width + 1 points, the table is the
    whole support.  Entries of G^n outside the returned window are below
    rounding.  The memory budget is checked before every transform against
    twelve complex arrays of the sampled frequencies (M/2 + 1 of them for
    real stencils, M otherwise) plus `reserve` entries the caller will
    allocate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    width = stencil.support_width
    lo, hi = n * stencil.min_offset, n * stencil.max_offset
    if width == 0:
        # Pure shift: G^n is a single coefficient at n * min_offset.
        with np.errstate(over="ignore"):
            values = stencil.as_array() ** n
        return GreenTable(n=n, min_offset=lo, values=values,
                          method="spectral"), 0
    full = _spectral_size(n, width)
    alpha, size = _window_plan(stencil, n)
    half = not any(c.imag for c in stencil.coefficients)
    # The window's envelope rates come from a real symbol expansion.
    size = full if size is None or not half else min(size, full)
    shift, frac = _drift(alpha, n)
    while True:
        # Traced peak: twelve complex arrays of the sampled frequencies.
        samples = size // 2 + 1 if half else size
        _check_budget(12 * samples + reserve)
        coeffs, floor, far_mass = _aliased_coefficients(
            stencil, n, size, alpha, frac, half)
        if size >= full:
            break
        guard = size // _GUARD
        edges = np.abs(coeffs[size // 2 - guard:size // 2 + guard])
        if edges.max() <= floor and far_mass <= floor:
            lo = max(lo, shift - size // 2)
            hi = min(hi, shift + size // 2 - 1)
            break
        size *= 2
    values = coeffs[(np.arange(lo, hi + 1) - shift) % size]
    return GreenTable(n=n, min_offset=lo, values=values,
                      method="spectral"), size


def green_spectral(stencil: Stencil, n: int) -> GreenTable:
    """G^n on its whole support by the windowed spectral route.

    Entries outside the window that holds the mass of G^n are exact zeros;
    for real stencils every imaginary part is exactly 0.  Raises
    MemoryBudgetError when the transforms plus the full-support table would
    exceed the budget (the DG_MEMORY_BUDGET_MB environment variable, else
    512 MB).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    support = n * stencil.support_width + 1
    window, _ = _spectral_window(stencil, n, support)
    values = np.zeros(support, dtype=complex)
    start = window.min_offset - n * stencil.min_offset
    values[start:start + len(window.values)] = window.values
    return GreenTable(n=n, min_offset=n * stencil.min_offset, values=values,
                      method="spectral")


def _sweep_entries(block: int, samples: int, size: int, n_max: int) -> int:
    """Complex128 entries a sweep holds at its peak.

    Per row of a block: the power table, the powered rows of this block
    and the last one, and the coefficients and magnitudes of this block and
    the last one (real arrays of `size`, complex for complex stencils, the
    transform's scratch included).  Plus the symbol with its temporaries and
    the four outputs.  It also exceeds the twelve arrays of samples of the
    planning transform in _spectral_window, so it bounds the traced peak of
    the whole call.
    """
    return block * (3 * samples + 3 * size // 2) + 8 * samples + 3 * n_max


def _sweep_norms(stencil: Stencil, n_max: int, size: int, alpha: float):
    """Norms of G^1..G^n_max on `size` points; None if a guard band fails."""
    half = not any(c.imag for c in stencil.coefficients)
    samples = size // 2 + 1 if half else size
    block = min(_SWEEP_BLOCK, n_max)
    _check_budget(_sweep_entries(block, samples, size, n_max))
    # Samples F(-2 pi k / size), so the inverse transform puts G_j at j.
    symbol = symbol_eval(stencil, (-2.0 * math.pi / size) * np.arange(samples))
    table = np.cumprod(np.broadcast_to(symbol, (block, samples)), axis=0)
    sums = np.empty(n_max, dtype=complex)
    l1 = np.empty(n_max)
    l2 = np.empty(n_max)
    linf = np.empty(n_max)
    # Supports of n * width + 1 sites up to `size` cannot alias.  Past that,
    # coefficient s_n + m mod size holds the mass m sites from the drift
    # s_n, and the guard band around m = size/2 must be at the rounding floor.
    checked = (size - 1) // stencil.support_width + 1
    band = np.arange(size // 2 - size // _GUARD, size // 2 + size // _GUARD)
    last = np.ones(samples, dtype=complex)
    with np.errstate(all="ignore"):
        for lo in range(0, n_max, block):
            rows = table[:min(block, n_max - lo)] * last
            last = rows[-1]
            hi = lo + len(rows)                 # rows hold G^(lo+1)..G^hi
            coeffs = (np.fft.irfft(rows, size, axis=1) if half
                      else np.fft.ifft(rows, axis=1))
            mags = np.abs(coeffs)
            sums[lo:hi] = coeffs.sum(axis=1)
            l1[lo:hi] = mags.sum(axis=1)
            l2[lo:hi] = np.sqrt(np.einsum("ij,ij->i", mags, mags))
            linf[lo:hi] = mags.max(axis=1)
            steps = range(max(lo + 1, checked), hi + 1)
            if not steps:
                continue
            tail = slice(len(rows) - len(steps), None)
            shifts = np.array([_drift(alpha, n)[0] for n in steps])
            edges = np.take_along_axis(
                mags[tail], (shifts[:, None] + band) % size, axis=1)
            # Incremental powers carry about n * eps relative error each.
            floor = (_EPS * (np.asarray(steps) + math.log2(size))
                     * _grid_sum(np.abs(rows[tail]), half) / size)
            if np.any(edges.max(axis=1) > floor):
                return None
    if not np.isfinite(l1).all():
        raise ValueError(f"G^{n_max} overflows: the sweep has non-finite "
                         "norms")
    return sums, l1, l2, linf


def spectral_sweep(stencil: Stencil, n_max: int):
    """Norms of G^n for every n = 1..n_max off one windowed symbol grid.

    Returns (sums, l1, l2, linf) arrays of length n_max (index n-1).  The
    transform length M is the one _spectral_window settles on for n_max:
    the window that holds the mass of G^n_max, which also holds that of
    every smaller n, or the alias-free length for complex, non-conservative
    and degenerate stencils; either is 16 * 2^a * 3^b * 5^c, and so is
    every doubling of it.  F^1..F^b are sampled once (M/2 + 1 samples
    for real stencils); each block of b consecutive n is that table times
    the last power of the previous block, inverted by one batched
    transform, and the norms are row reductions over all M coefficients.
    Every n whose support exceeds M must show its guard band at the
    rounding floor, else M doubles and the sweep reruns.  The memory budget
    is checked before every run against the arrays of one block plus the
    outputs (_sweep_entries).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if stencil.support_width == 0:
        try:
            sums = np.asarray(
                [stencil.coefficients[0] ** n for n in range(1, n_max + 1)])
            with np.errstate(over="ignore"):
                mags = np.abs(sums)
        except OverflowError:   # Python's complex power raises, not inf
            mags = np.asarray([math.inf])
        if not np.isfinite(mags).all():
            raise ValueError(f"G^{n_max} overflows: the sweep has non-finite "
                             "norms")
        return sums, mags, mags.copy(), mags.copy()
    _, size = _spectral_window(stencil, n_max)
    alpha = _window_plan(stencil, n_max)[0]
    while True:
        result = _sweep_norms(stencil, n_max, size, alpha)
        if result is not None:
            return result
        size *= 2


def evolve(stencil: Stencil, u0: GridFunction, n: int) -> GridFunction:
    """n applications of the stencil: u0 convolved with G^n plus its tails.

    The window widens by n * support_width.  A right tail R adds R times the
    cumulative sum of G^n and a left tail L adds L times the reversed one;
    outside the window the tails become tail * (sum a_l)^n.  The arithmetic
    is float64 when the stencil, the data and the tails are all real, so
    evolve(s, delta, n) equals green_direct(s, n) bit for bit.

    Raises WorkBudgetError when start + n * (start + n * width) exceeds
    WORK_LIMIT, start being the length of u0's window.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_work(n, len(u0.values), stencil.support_width)
    if n == 0:
        return u0
    g = green_direct(stencil, n).values
    u = u0.values
    left, right = complex(u0.left_tail), complex(u0.right_tail)
    if not (g.imag.any() or u.imag.any() or left.imag or right.imag):
        g, u, left, right = g.real, u.real, left.real, right.real
    out = np.convolve(u, g)
    # out[p] sits at j = min_index + n * min_offset + p.  Sites right of the
    # data add right * sum_{l < j - max_index} G_l, sites left of it
    # left * sum_{l > j - min_index} G_l.
    if right:
        out[len(u):] += right * np.cumsum(g)[:-1]
    if left:
        out[:-len(u)] += left * np.cumsum(g[::-1])[::-1][1:]
    total = stencil.coefficient_sum() ** n
    return GridFunction(min_index=u0.min_index + n * stencil.min_offset,
                        values=out, left_tail=u0.left_tail * total,
                        right_tail=u0.right_tail * total)


def cell_average_indicator(x_lo: float, x_hi: float, half_width: float) -> float:
    """Average of the indicator of [-half_width, half_width] over [x_lo, x_hi]."""
    if x_hi <= x_lo:
        raise ValueError("empty cell")
    overlap = min(x_hi, half_width) - max(x_lo, -half_width)
    return max(0.0, overlap) / (x_hi - x_lo)


def sample_step(dx: float, half_width: float, j_min: int, j_max: int) -> GridFunction:
    """Cell averages of the indicator of [-half_width, half_width].

    Cell j covers [j*dx, (j+1)*dx]; cells straddling an edge of the step get
    the fractional overlap.  Zero tails.
    """
    if dx <= 0:
        raise ValueError("dx must be positive")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if j_max < j_min:
        raise ValueError("empty index range")
    values = [cell_average_indicator(j * dx, (j + 1) * dx, half_width)
              for j in range(j_min, j_max + 1)]
    return GridFunction(j_min, np.asarray(values, dtype=complex))


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float
    sum: complex


def norms(values) -> Norms:
    """l1, l2, linf and the plain sum of a value array or GreenTable."""
    vals = values.values if isinstance(values, GreenTable) else np.asarray(values)
    mags = np.abs(vals)
    return Norms(l1=float(mags.sum()),
                 l2=float(math.sqrt((mags * mags).sum())),
                 linf=float(mags.max()),
                 sum=complex(vals.sum()))
