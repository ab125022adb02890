"""Exact Green's function tables and grid evolution for convolution stencils.

The Green's function of n steps is the n-fold self convolution of the stencil
coefficients: G^n = L_a^n delta.  Two routes compute it.  The direct route
powers the coefficient array by repeated squaring, G^(a+b) = G^a * G^b:
about log2(n) convolutions of the spans whose entries are in the normal
float range, tails below the smallest normal float64 being exact zeros.
Short factors, and the levels whose rounding would recur many times in
G^n, are convolved in extended precision and rounded once, so the table
is within a few eps of its peak of the exact one.  It is the oracle, and
evolve convolves grid data with its table.  The spectral route
samples the n-th power of the symbol and inverts the DFT.  For
stencils meeting the paper's assumptions the mass of G^n sits in an O(sqrt n)
window around the front j = alpha*n, so the route samples only as many
points as that window needs and checks afterwards that nothing else folded
into it; other stencils get the alias-free grid of n * support_width + 1
points.  Either way the result is exact up to rounding.  The route
samples only where F^n can be nonzero: an upper bound on |F|^2 from the
coefficient autocorrelation marks the samples whose n-th power underflows
to +0, and those are never evaluated.  Every transform length is the
smallest 16 * 2^a * 3^b * 5^c at or above the points needed: from 500
points on at most 1.13 times them, where the next power of two may be
twice.  Tables, grid functions and sweep sums are float64 when
the stencil's coefficients are real (and, for evolve, the data too), and
complex128 otherwise.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .stencil import KAPPA2_TOL, Stencil, _power_sums, symbol_eval

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
]

MEMORY_BUDGET_ENV = "DG_MEMORY_BUDGET_MB"
DEFAULT_MEMORY_BUDGET_MB = 512.0


# Cap on the size of an n-step computation: a loop of `steps` steps from a
# window of `start` entries would touch start + steps * (start + steps *
# width) entries.  It bounds the largest step count of the direct route
# and of evolve.  The route does at most a product per set bit of each n
# of its list, each reading spans no longer than the largest table, so a
# list of n costs about as much as one step loop to its largest n.  The
# CLI also holds the span of a custom stencil to it.  At the cap
# (n = 31622, width 2) green_direct takes 27 ms for Lax-Wendroff 3/4,
# 32 ms for Beam-Warming 0.36, 36 ms for Lax-Wendroff 0.3 and 0.21 s for
# a complex 3-point stencil (minimum of 3 runs), and every n from 1 to
# the cap takes 6.8 s for Lax-Wendroff 3/4 and 9.5 s for the complex
# stencil (2-CPU x86 box).
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
_TINY = float(np.finfo(float).tiny)   # the smallest normal float64

# exp(-x) is +0 for x > 745.14: a sample whose n-th power has a log below
# -_EXP_REACH is +0, and so is every Gaussian factor past that exponent.
_EXP_REACH = 746.0

# spectral_sweep powers blocks of _SWEEP_BLOCK consecutive n, each the
# table of F^1..F^8 times the last power of the block before, and inverts,
# reduces and checks two chained blocks as one batch.  A longer block
# changes the bits of the chain; a longer batch does not.
_SWEEP_BLOCK = 8
_SWEEP_BATCH = 16


class MemoryBudgetError(RuntimeError):
    """Raised when a route's charge in bytes, plus the fixed term of
    _check_budget, would exceed the memory budget."""


class WorkBudgetError(RuntimeError):
    """Raised when the largest step count of the direct route or evolve
    exceeds WORK_LIMIT by _check_work's measure, a step count exceeds
    2**53, or the CLI's custom stencil spans too many offsets."""


@dataclass(frozen=True)
class GreenTable:
    """Values of G^n_j on a window of [n*min_offset_1, n*max_offset_1].

    min_offset is the index of values[0]; values are float64 for a real
    stencil, complex128 otherwise.  Tables from green_direct and
    green_spectral cover the whole support and come with their offsets
    built.  method records which route built the table ("direct" or
    "spectral").  Non-finite values, which come from powers of the stencil
    that overflow, raise ValueError.
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

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """The index j of each entry of values, built on the first read and
        shared, read-only, by every later one."""
        offsets = np.arange(self.min_offset, self.max_offset + 1)
        offsets.flags.writeable = False
        return offsets


@dataclass(frozen=True)
class GridFunction:
    """A doubly infinite grid sequence stored on a finite window.

    Outside the stored window the sequence is zero.  Complex values are
    stored as complex128, others as float64; empty, non-1-d, non-numeric
    and non-finite values raise ValueError.
    """

    min_index: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex if np.iscomplexobj(
            self.values) else float)
        if vals.ndim != 1 or len(vals) == 0 or not np.isfinite(vals).all():
            raise ValueError("values must be a nonempty, finite 1-d array")
        object.__setattr__(self, "values", vals)

    @property
    def max_index(self) -> int:
        return self.min_index + len(self.values) - 1


def _check_work(steps, start, width: int) -> None:
    """Raise WorkBudgetError before `steps` steps from data of `start`
    entries if a step loop over them would touch more than WORK_LIMIT
    entries, start + steps * (start + steps * width).

    The measure caps the largest step count.  Evolve and the direct route
    at one n do far less work than such a loop, and a whole list of n
    costs the direct route about as much as one loop to its largest n.
    steps and start may be floats, inf included, so callers can check
    before they round to integers.
    """
    work = start + steps * (start + steps * width)
    if not work <= WORK_LIMIT:
        raise WorkBudgetError(
            f"{steps:.4g} convolution steps from {start:.4g} entries exceed "
            f"the work cap of {WORK_LIMIT:.0e} entries touched")


def _step_count(n) -> int:
    """n as an int: the one rule by which every route and report takes a
    step count.

    operator.index takes Python and numpy integers alone, so 2.5 raises
    ValueError rather than truncating to 2, and so does a bool, which
    operator.index would take as 0 or 1, and any n < 1.  n > 2**53 raises
    WorkBudgetError: the spectral and pure-shift routes carry n in float64,
    which holds every integer up to 2**53 exactly, and for other stencils
    such an n already exceeds the work cap or the memory budget.
    """
    if (isinstance(n, bool) or not hasattr(type(n), "__index__")
            or operator.index(n) < 1):
        raise ValueError("n_values must be positive integers")
    if n > 2 ** 53:
        raise WorkBudgetError("step counts above 2**53 are not exact in "
                              "float64")
    return operator.index(n)


def _itemsize(stencil: Stencil) -> int:
    """Bytes of an entry of the stencil's tables: float64 or complex128."""
    return 8 if stencil.is_real else 16


def _kernel(stencil: Stencil) -> np.ndarray:
    """The coefficient array, as float64 for real stencils."""
    kernel = stencil.as_array()
    return kernel.real.copy() if stencil.is_real else kernel


def _shift_powers(stencil: Stencil, n_values) -> np.ndarray:
    """a^n of a pure shift a for each n of the array n_values, in the
    kernel's dtype.

    Every route takes a pure shift's powers from here, one np.power over the
    exponents in place in an array of the kernel's dtype, so the routes
    agree bit for bit and a real a gives exactly real powers.  For a real a
    each power has the bits of its own a ** n; for a complex a at n = 2,
    a ** 2 takes numpy's square loop, which can differ in the last bit.
    Powers that overflow are inf or nan, which the callers refuse.
    """
    powers = np.full(len(n_values), _kernel(stencil)[0])
    with np.errstate(all="ignore"):
        return np.power(powers, n_values, out=powers)


class _LongDouble:
    """Extended precision in numpy's long double, used where it is the x87
    80-bit format of x86-64, 63 mantissa bits.

    Its arrays are 1-d long double arrays, complex long double for complex
    stencils.
    """

    @staticmethod
    def widen(x):
        """x in this precision, from float64, long double or double-double."""
        if x.ndim == 2:
            return _LongDouble.widen(x[0]) + x[1]
        return x.astype(np.clongdouble if x.dtype.kind == "c"
                        else np.longdouble, copy=False)

    convolve = staticmethod(np.convolve)


class _DoubleDouble:
    """Extended precision as unevaluated sums hi + lo of float64 (complex128
    for complex stencils) values: for the squarings whose rounding recurs
    most, and in place of _LongDouble where long double is shorter.

    Its arrays have shape (2, m): the hi row and the lo row.  Products shift
    and add over the shorter factor with Dekker's TwoProd and Knuth's
    TwoSum, renormalizing after every term; complex factors take four real
    products.
    """

    @staticmethod
    def widen(x):
        """x in this precision, from float64 or double-double."""
        return x if x.ndim == 2 else np.stack([x, np.zeros_like(x)])

    @staticmethod
    def convolve(a, b):
        if a.shape[1] > b.shape[1]:
            a, b = b, a
        out = np.zeros((2, a.shape[1] + b.shape[1] - 1), dtype=a.dtype)
        if a.dtype.kind != "c":
            _dd_accumulate(out, a, b)
            return out
        for part, terms in ((out.real, ((a.real, b.real), (-a.imag, b.imag))),
                            (out.imag, ((a.real, b.imag), (a.imag, b.real)))):
            for x, y in terms:
                _dd_accumulate(part, x, y)
        return out


def _split(x):
    """Veltkamp's split of x into two halves of 26 bits: x == hi + lo."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _dd_accumulate(out, a, b):
    """Add a * b into out for real double-double arrays a of shape (2, m)
    and b of shape (2, L), by shift and add over the m entries of a; out
    has shape (2, m + L - 1) and may be a view."""
    hi, lo = out
    (b_hi, b_lo), (bh, bl) = b, _split(b[0])
    for k, (x_hi, x_lo) in enumerate(a.T):
        part = slice(k, k + b.shape[1])
        xh, xl = _split(x_hi)
        p = x_hi * b_hi                                     # TwoProd
        e = ((xh * bh - p) + xh * bl + xl * bh) + xl * bl
        s = hi[part] + p                                    # TwoSum
        v = s - hi[part]
        t = (hi[part] - (s - v)) + (p - v)
        t += lo[part] + e + x_hi * b_lo + x_lo * b_hi
        hi[part] = s + t
        lo[part] = t - (hi[part] - s)


def _narrow(x):
    """x rounded to float64 (complex128) from any of the precisions."""
    if x.ndim == 2:
        return x[0] + x[1]
    return x.astype(complex if x.dtype.kind == "c" else float, copy=False)


# The extended precision of the direct route, chosen once.  Long double
# is taken in the one format that was measured, x87's: a 112-bit long
# double runs in software.
_EXTENDED = (_LongDouble if np.finfo(np.longdouble).nmant == 63
             else _DoubleDouble)

# The direct route's precision rule (see _direct_tables): a result that
# recurs at least _DD_REPEATS times in the largest table is computed in
# double-double; one that recurs at least _WIDE_REPEATS times, or has a
# shorter factor of at most _SHORT entries, in _EXTENDED, and it stays
# there if it recurs that often or has at most _SHORT entries.  A short
# factor times a long one runs in blocks of _BLOCK outputs.
_SHORT = 500
_WIDE_REPEATS = 4
_DD_REPEATS = 1024
_BLOCK = 1024

# The direct route's peak for tables up to G^n, with the caller holding
# the last one: _DIRECT_TABLES tables of n * width + 1 entries in the
# stencil's dtype; the extended short products and their blocks take
# the fixed term of _check_budget.  Traced with Lax-Wendroff
# 3/4 and 0.3, Beam-Warming 3/2, two 5-point stencils and a complex
# 3-point one on [1000, 1001], [4000, 4112], [4112, 4112],
# [100, 1000, 3000], [250, 500, 1000, 2000], every n up to 2000 and, for
# width 2, [20000, 31622]: at most 6.14 tables (the complex stencil on
# [1000, 1001]; Beam-Warming 3/2 6.04), 2.3 at [20000, 31622].  Below
# n = 1000 the short products stay extended, and at most 40 KB above
# seven tables was traced.
_DIRECT_TABLES = 7


def _direct_bytes(stencil: Stencil, n: int) -> int:
    """Bytes the direct route holds at its peak for tables up to G^n."""
    rows = n * stencil.support_width + 1
    return _DIRECT_TABLES * rows * _itemsize(stencil)


def _trim(start: int, values):
    """The span (start, values), in any of the precisions, without the
    entries at either end whose leading part (the hi row of double-double)
    is below _TINY in magnitude; a nan is never trimmed.  A trimmed span is
    a copy, so the untrimmed product is freed."""
    small = np.abs(values[0] if values.ndim == 2 else values) < _TINY
    lo = int(small.argmin())
    if small[lo]:                   # the whole power has underflowed
        return start, values[..., :0]
    hi = len(small) - int(small[::-1].argmin())
    if hi - lo == len(small):
        return start, values
    return start + lo, values[..., lo:hi].copy()


def _mixed_product(wide, a, b):
    """a * b in the precision `wide` for a factor `a` of at most _SHORT
    entries and a longer b, rounded to float64 (complex128) once.

    Each block of _BLOCK outputs convolves `a` with the part of b that it
    reads, so neither b nor the product is ever held wide in full.
    """
    a, m = wide.widen(a), a.shape[-1]
    out = np.empty(m + b.shape[-1] - 1,
                   dtype=complex if b.dtype.kind == "c" else float)
    for i in range(0, len(out), _BLOCK):
        j = max(i - m + 1, 0)           # b[j] is the first entry block i reads
        part = wide.convolve(a, wide.widen(b[..., j:i + _BLOCK]))
        out[i:i + _BLOCK] = _narrow(part[..., i - j:i - j + _BLOCK])
    return out


def _span_product(a, b, repeats: int):
    """The trimmed span of G^(p+q) from the spans (start, values) of G^p
    and G^q, start being the index of values[0] in the support, in the
    precision that _direct_tables' rule gives a result that recurs
    `repeats` times in the largest table."""
    (start_a, va), (start_b, vb) = sorted((a, b), key=lambda s: s[1].shape[-1])
    start = start_a + start_b
    if not va.shape[-1]:
        return start, va
    keep = repeats >= _WIDE_REPEATS
    if repeats >= _DD_REPEATS:
        wide = _DoubleDouble
    elif keep or va.shape[-1] <= _SHORT:
        wide = _EXTENDED
    else:
        wide = None
    # Powers that overflow give non-finite entries, which GreenTable
    # refuses; numpy's warnings on the way would only repeat that.
    with np.errstate(all="ignore"):
        if wide is None:
            out = np.convolve(_narrow(va), _narrow(vb))
        elif keep or vb.shape[-1] <= _SHORT:
            out = wide.convolve(wide.widen(va), wide.widen(vb))
        else:
            out = _mixed_product(wide, va, vb)
        start, out = _trim(start, out)
        if not keep and out.shape[-1] > _SHORT:
            out = _narrow(out)
    return start, out


def _power_span(tower: list, e: int, n_max: int):
    """The span of G^e: the product of the tower levels G^(2^k) for the set
    bits k of e, the shortest first.

    The tower grows by squaring its top level until it reaches e, in the
    precision of a level that recurs n_max / 2^k times.
    """
    power = None
    for k in range(e.bit_length()):
        if k == len(tower):
            tower.append(_span_product(tower[-1], tower[-1], n_max >> k))
        if e >> k & 1:
            power = (tower[k] if power is None
                     else _span_product(power, tower[k], 1))
    return power


def _direct_tables(stencil: Stencil, n_values):
    """Yield the direct tables G^n for each n of the sorted list n_values.

    One squaring tower serves the whole list: level k holds the span of
    G^(2^k), built from level k - 1 by one convolution.  Each G^n is the
    product of the levels of the set bits of n, with popcount(n) - 1
    products, or, when the previous n of the list, m, is more than half
    of n, of G^m and the levels of the set bits of n - m.  So a list that
    doubles builds each n from the tower, a dense one takes one short
    product per n, as a step loop would, and the tower grows only to the
    levels of such short gaps.  A list costs at most floor(log2(max n))
    squarings and a product per set bit of each n, and every product
    reads spans no longer than the largest table.  Each table is a new
    array in the stencil's dtype, float64 or complex128, which the caller
    may write to.  WorkBudgetError for the largest n is raised before
    anything is allocated, and so is MemoryBudgetError for _direct_bytes,
    which bounds the tower, the running power, the product being built and
    the table yielded, with the caller's last table.

    Precision rule: a level of s steps enters G^n about n / s times, and
    its rounding error with it, so the levels that recur often are kept
    unrounded.  Squarings whose result recurs at least 1024 times in the
    largest table run in double-double; those whose result recurs at
    least 4 times, and every product whose shorter factor has at most 500
    entries, in _EXTENDED (numpy's long double where it is the x87
    format, else double-double); the rest in float64, complex128 for
    complex stencils.  A result of more than 500 entries that recurs
    fewer than 4 times is rounded to float64 once.
    Measured against double-double references, the tables stay within
    6.1e-16 of their peak for Lax-Wendroff and Beam-Warming stencils at
    n = 4000 to the work cap, where float64 squaring of every level beyond
    500 entries read up to 3.6e-15.  The rule reads the largest n of the
    list, and a table built from the previous one carries that table's
    rounding, so a table can differ in its last bits from green_direct at
    the same n; the tests bound that difference.

    Underflow rule: after every product the span is trimmed at both ends
    past entries with |G| below _TINY, the smallest normal float64, so
    no factor carries subnormal or underflowed tails.  Everything outside
    a table's span is an exact +0.0; its ends are normal and entries
    inside it keep full IEEE semantics.
    """
    n_max = n_values[-1]
    _check_work(n_max, 1, stencil.support_width)
    _check_budget(_direct_bytes(stencil, n_max))
    width = stencil.support_width
    if width == 0:
        # A pure shift: G^n is a^n alone.  One np.power over the list
        # (_shift_powers) gives each n the bits that green_spectral and
        # spectral_sweep read.
        powers = _shift_powers(stencil, np.array(n_values))
        for n, power in zip(n_values, powers):
            yield GreenTable(n=n, min_offset=n * stencil.min_offset,
                             values=np.array([power]), method="direct")
        return
    kernel = _kernel(stencil)
    tower, power, m = [(0, kernel)], None, 0
    for n in n_values:
        # G^n from G^m, the previous n, when n - m is the shorter exponent;
        # else from the tower alone.  A repeated n reuses its power.
        if 0 < n - m < m:
            power = _span_product(power, _power_span(tower, n - m, n_max), 1)
        elif n > m:
            power = _power_span(tower, n, n_max)
        m = n
        start, span = power
        values = np.zeros(n * width + 1, dtype=kernel.dtype)
        with np.errstate(all="ignore"):
            values[start:start + span.shape[-1]] = _narrow(span)
        yield GreenTable(n=n, min_offset=n * stencil.min_offset,
                         values=values, method="direct")


def green_direct(stencil: Stencil, n: int) -> GreenTable:
    """G^n by binary powering of the coefficient array.  Oracle route.

    G^n is the product of the squarings G^(2^k) for the set bits k of n,
    short factors in extended precision (the precision rule of
    _direct_tables).  Entries below the smallest normal float64 at either
    end of the table are exact +0.0 (its underflow rule).  Raises
    WorkBudgetError when n^2 * support_width exceeds WORK_LIMIT and
    MemoryBudgetError when _direct_bytes exceeds the memory budget.  The
    table is float64 for a real stencil, complex128 otherwise.  The
    offsets are built here, after the tower has been freed.
    """
    table = next(_direct_tables(stencil, [_step_count(n)]))
    table.offsets
    return table


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


# The fixed term of every charge: numpy's and Python's small objects,
# which no charge counts by the row, and the direct route's extended
# short products and their blocks.  Traced at most 40 KB above seven
# direct tables, 4.2 KB above the twelve arrays of a transform and 2.7 KB
# for a pure shift's sweep at n_max = 1.
_FIXED_BYTES = 65536


def _check_budget(nbytes: int) -> None:
    """Raise MemoryBudgetError if `nbytes` plus _FIXED_BYTES exceed the
    memory budget.

    Every route states its charge in bytes, each array at its own dtype.
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
    needed_mb = (nbytes + _FIXED_BYTES) / 1e6
    if needed_mb > budget:
        # Three significant digits, or as many more as it takes for the
        # need to read above the budget.
        digits = next(k for k in range(3, 18) if float(f"{needed_mb:.{k}g}")
                      > float(f"{budget:.{k}g}"))
        raise MemoryBudgetError(
            f"the computation needs about {needed_mb:.{digits}g} MB, budget "
            f"is {budget:.{digits}g} MB")


def _drift(alpha: float, n: int):
    """s = round(n * alpha) and n * alpha - s, in exact integer arithmetic."""
    num, den = alpha.as_integer_ratio()
    shift = (2 * n * num + den) // (2 * den)
    return shift, (n * num - shift * den) / den


def _window_plan(stencil: Stencil, n: int):
    """Drift alpha and the a-priori transform length of the windowed route.

    The length is None for non-conservative or degenerate stencils (kappa2
    != 0, c3 or c4 at their floors), which take the alias-free grid.  There
    alpha is clamped into the support, so the lags stay no longer than its
    width: the normalized drift of a stencil of small sum lies far outside.
    """
    e = stencil._expansion
    if not (stencil.is_conservative() and e.kappa2 <= KAPPA2_TOL
            and e.nondegenerate):
        return min(max(e.alpha, stencil.min_offset), stencil.max_offset), None
    wake = math.sqrt(_TAIL_LOG * 9.0 * e.c3 * e.c3 * n / e.c4)
    front = ((3.0 * abs(e.c3) * n) ** (1.0 / 3.0)
             * (1.5 * _TAIL_LOG) ** (2.0 / 3.0))
    half = wake + front
    return e.alpha, _fft_length(math.ceil(2.0 * half * _GUARD / (_GUARD - 2)))


# Taylor coefficients of (cos x - 1 + x^2/2) / x^4 and (sin x - x) / x^3 in
# powers of x^2; nine terms reach double precision for |x| <= 1.
_COS_TAIL = tuple((-1) ** k / math.factorial(2 * k + 4) for k in range(9))
_SIN_TAIL = tuple(-(-1) ** k / math.factorial(2 * k + 3) for k in range(9))


def _exp_tails(x: np.ndarray, cos: np.ndarray, sin: np.ndarray):
    """cos x - 1 + x^2/2 and sin x - x, both to relative accuracy, formed in
    place of the arrays cos x and sin x: from their Taylor series where
    |x| <= 1."""
    cos -= 1.0
    cos += 0.5 * (x * x)
    sin -= x
    small = np.abs(x) <= 1.0
    x = x[small]
    x2 = x * x
    cos_poly = np.full(x.shape, _COS_TAIL[-1])
    sin_poly = np.full(x.shape, _SIN_TAIL[-1])
    for c, s in zip(_COS_TAIL[-2::-1], _SIN_TAIL[-2::-1]):
        cos_poly = cos_poly * x2 + c
        sin_poly = sin_poly * x2 + s
    cos[small] = cos_poly * x2 * x2
    sin[small] = sin_poly * x2 * x
    return cos, sin


def _grid_sum(values: np.ndarray, half: bool):
    """Sum over the whole grid of samples stored once per conjugate pair.

    Sums along the last axis, so a 2-d array gives one sum per row.
    """
    if half:
        return 2.0 * values.sum(axis=-1) - values[..., 0] - values[..., -1]
    return values.sum(axis=-1)


def _autocorrelation(stencil: Stencil, rounding: float):
    """r_0 plus slack, and {d: r_d} for the lags d > 0, of the bound on
    |F|^2 that _square_bound evaluates.

    r_d = sum_{l-m=d} a_l conj(a_m) over the nonzero terms.  The slack is
    (T + D + 16) eps A^2 for the rounding of the bound, A = sum |a_l|, T
    terms and D lags (each reduced angle is within 4 pi eps, its cos and
    sin within 14 eps), plus rounding * (2 A + rounding), which covers any
    value of |F| off by at most `rounding`.
    """
    terms = stencil.terms
    lags = {}
    for l, a in terms:
        for m, b in terms:
            if l > m:
                lags[l - m] = lags.get(l - m, 0.0) + a * b.conjugate()
    total = math.fsum(abs(a) for _, a in terms)
    slack = ((len(terms) + len(lags) + 16) * _EPS * total * total
             + rounding * (2.0 * total + rounding))
    return math.fsum(abs(a) ** 2 for _, a in terms) + slack, lags


def _square_bound(size: int, samples: int, base: float,
                  lags: dict) -> np.ndarray:
    """An upper bound on |F(theta_k)|^2 at theta_k = -2 pi k / size for
    k < samples, from _autocorrelation's (base, lags).

    |F|^2 is r_0 + 2 sum_{d>0} (Re r_d cos d theta - Im r_d sin d theta),
    each d theta reduced in integers to -2 pi ((d k) mod size) / size.
    """
    bound = np.full(samples, base)
    k = np.arange(samples)
    for d, r in lags.items():
        angle = (2.0 * math.pi / size) * (d * k % size)
        bound += (2.0 * r.real) * np.cos(angle)
        if r.imag:
            bound += (2.0 * r.imag) * np.sin(angle)
    return bound


def _live_band(stencil: Stencil, n: int, size: int, samples: int,
               rounding: float):
    """The mask of the samples of _square_bound's grid whose n-th power
    can be nonzero, or None when that may be every one.

    A sample whose bound has n/2 log(bound) < -_EXP_REACH, so that any
    computed |F|^n within `rounding` of it underflows, is +0 in the route.
    The bound is evaluated only when its least possible value,
    r_0 - 2 sum |r_d| plus the slack, lies below that.
    """
    reach = math.exp(-2.0 * _EXP_REACH / n)
    base, lags = _autocorrelation(stencil, rounding)
    if base - 2.0 * math.fsum(map(abs, lags.values())) >= reach:
        return None
    live = _square_bound(size, samples, base, lags) >= reach
    return None if live.all() else live


def _aliased_coefficients(stencil: Stencil, n: int, size: int, alpha: float,
                          frac: float, half: bool):
    """Coefficients of P(theta) = F(theta)^n exp(-i s theta) on `size` points.

    Entry m mod size holds sum_r G^n_{s+m+r*size}, where s is the integer
    drift and frac = n*alpha - s.  With half set (real stencils) only
    theta_k = -2 pi k / size for k <= size/2 is sampled and irfft supplies
    the conjugate half.  Also returns the rounding floor of each coefficient
    and the grid mass of frequencies whose packets travel beyond the window
    core.  Only the samples of _live_band are evaluated; the others, whose
    n-th power underflows, are +0.
    """
    samples = size // 2 + 1 if half else size
    k = np.arange(samples) if half else np.fft.fftfreq(size, 1.0 / size)
    # z = F(theta) exp(-i alpha theta) - 1 with x_l = (l - alpha) theta is
    #   (sum a - 1) + i m1 theta - m2 theta^2 / 2
    #   + sum a_l (c(x_l) + i s(x_l)),
    # m_k = sum a_l (l - alpha)^k, c(x) = cos x - 1 + x^2/2, s(x) = sin x - x.
    # The defect sum a - 1, m1 and m2 are exact sums of the float stencil,
    # rounded once, so the route powers the stencil it was given.  They
    # vanish up to rounding for the paper's stencils, so every term is as
    # small as z itself: z and log(1 + z) carry relative rounding, and the
    # drift n*alpha*theta never enters the rounded phase.
    try:
        defect, m1, m2 = _power_sums(stencil, alpha, 3)
    except OverflowError:
        raise ValueError(
            "the moments of the stencil coefficients overflow") from None
    lags = [(coeff, offset - alpha) for offset, coeff in stencil.terms]
    # The rounding of |1 + z| is about eps (1 + scale), scale being the
    # rounding scale below; for |theta| <= pi, 1 + scale is at most
    # 1 + |defect| + pi |m1| + pi^2 |m2| / 2 + sum |a_l| (3 + X + X^2 / 2),
    # X = pi |l - alpha|, and 4 (T + 8) eps times that bounds the rounding
    # for T terms.
    scale_max = (1.0 + abs(defect) + math.pi * abs(m1)
                 + 0.5 * math.pi ** 2 * abs(m2))
    for coeff, lag in lags:
        x = math.pi * abs(lag)
        scale_max += abs(coeff) * (3.0 + x + 0.5 * x * x)
    rounding = 4 * (len(lags) + 8) * _EPS * scale_max
    live = _live_band(stencil, n, size, samples, rounding)
    if live is not None:
        k = k[live]
    theta = (-2.0 * math.pi / size) * k
    z = defect + (1j * m1) * theta - (0.5 * m2) * theta ** 2
    # The rounding scale of z.
    scale = abs(defect) + abs(m1) * np.abs(theta) + 0.5 * abs(m2) * theta ** 2
    slope = np.zeros(theta.shape, dtype=complex)    # d(1 + z)/d(i theta)
    for coeff, lag in lags:
        x = lag * theta
        cos, sin = np.cos(x), np.sin(x)
        # cos x + i sin x has the bits of np.exp(1j * x).
        slope += (coeff * lag) * (cos + 1j * sin)
        cos_tail, sin_tail = _exp_tails(x, cos, sin)
        z += coeff * (cos_tail + 1j * sin_tail)
        scale += abs(coeff) * (np.abs(cos_tail) + np.abs(sin_tail))

    def spread(values):
        """The live samples' values on the whole grid, +0 elsewhere."""
        if live is None:
            return values
        out = np.zeros(samples, dtype=values.dtype)
        out[live] = values
        return out

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
        floor = _EPS * _grid_sum(spread(noise), half) / size
        far = mags * (np.abs(travel) > size // 2 - size // _GUARD)
        far_mass = _grid_sum(spread(far), half) / size
        powered = spread(powered)
        coeffs = np.fft.irfft(powered, size) if half else np.fft.ifft(powered)
    return coeffs, floor, far_mass


def _window_bytes(size: int, half: bool) -> int:
    """Bytes a transform of `size` points holds at its peak: twelve
    complex128 arrays of the sampled frequencies, size // 2 + 1 of them
    with `half` set (real stencils), else size."""
    return 12 * 16 * (size // 2 + 1 if half else size)


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
    _window_bytes plus `reserve` bytes the caller will allocate.
    """
    n = _step_count(n)
    width = stencil.support_width
    lo, hi = n * stencil.min_offset, n * stencil.max_offset
    if width == 0:
        # Pure shift: G^n is a single coefficient at n * min_offset.
        return GreenTable(n=n, min_offset=lo,
                          values=_shift_powers(stencil, np.array([n])),
                          method="spectral"), 0
    full = _fft_length(n * width + 1)       # the alias-free length
    alpha, size = _window_plan(stencil, n)
    half = stencil.is_real
    # The window's envelope rates come from a real symbol expansion.
    size = full if size is None or not half else min(size, full)
    shift, frac = _drift(alpha, n)
    while True:
        _check_budget(_window_bytes(size, half) + reserve)
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
    the table is float64 for real stencils.  Raises MemoryBudgetError when
    the transforms plus the full-support table would exceed the budget:
    each row takes the table's itemsize, 8 B of offsets, which are built
    here, and 1 B of GreenTable's finiteness mask.
    """
    n = _step_count(n)
    support = n * stencil.support_width + 1
    reserve = (_itemsize(stencil) + 9) * support
    window, _ = _spectral_window(stencil, n, reserve)
    values = np.zeros(support, dtype=window.values.dtype)
    start = window.min_offset - n * stencil.min_offset
    values[start:start + len(window.values)] = window.values
    table = GreenTable(n=n, min_offset=n * stencil.min_offset, values=values,
                       method="spectral")
    table.offsets
    return table


def _sweep_bytes(stencil: Stencil, size: int, n_max: int) -> int:
    """Bytes a sweep to n_max on `size` points holds at its peak.

    The outputs take per n the sums at the stencil's itemsize, three
    float64 norms and a finiteness mask; a pure shift holds them alone.
    A windowed sweep adds per n an int64 drift.  Per row of a block there
    is one complex128 array of the samples (the power table) and one
    float64 array of them (its weighted magnitudes).  Per row of a batch
    there is one complex128 array of the samples (the powered samples)
    and one float64 array of the samples for the transients: the
    magnitudes of the samples for the rounding floor, the guard band's
    indices and entries, or numpy's buffer for the broadcast product of a
    block.  Per row of a batch there are also, of `size` entries, the
    coefficients at the stencil's itemsize and, for complex stencils
    only, one float64 array of their magnitudes.  Plus eight complex128
    arrays of the samples for the symbol and its temporaries.
    """
    outputs = (_itemsize(stencil) + 25) * n_max
    if stencil.support_width == 0:
        return outputs
    samples = size // 2 + 1 if stencil.is_real else size
    coeffs = _itemsize(stencil) + (0 if stencil.is_real else 8)
    return (24 * samples * min(_SWEEP_BLOCK, n_max)
            + (24 * samples + coeffs * size) * min(_SWEEP_BATCH, n_max)
            + 128 * samples + outputs + 8 * n_max)


def _guards_at_floor(values, shifts, n_first: int, powered,
                     half: bool) -> bool:
    """True if every row's guard band lies at its rounding floor.

    Row i of `values` holds |G^n| on the size = values.shape[1]
    coefficients, n = n_first + i, with drift shifts[i] and samples
    powered[i].  Its guard band, the size/8 coefficients on each side of
    the cyclic index s_n + size/2, must be at most eps (n + log2 size)
    times the grid mean of |F^n|: incremental powers carry about n * eps
    relative error each.
    """
    size = values.shape[1]
    band = np.arange(size // 2 - size // _GUARD, size // 2 + size // _GUARD)
    columns = shifts[:, None] + band
    columns %= size
    edges = values[np.arange(len(values))[:, None], columns].max(axis=1)
    del columns     # one transient at a time, as _sweep_bytes counts
    floor = (_EPS * (np.arange(n_first, n_first + len(values))
                     + math.log2(size))
             * _grid_sum(np.abs(powered), half) / size)
    return not np.any(edges > floor)


def _guards_clear(values, shifts, n_first: int, estimate) -> bool:
    """True if one bounded test shows that _guards_at_floor holds for the
    same rows; False leaves the decision to it.

    `estimate` holds each row's weighted |F^1..F^8| times |last|, the
    magnitudes of the factor its block was multiplied by.  The test takes
    `upper`, the largest entry in the cyclic columns [min s + size/2 -
    size/8, max s + size/2 + size/8), which hold every row's guard band,
    and `low`, the least estimate, and clears the rows when upper <=
    eps (n_first + log2 size) (low / 2) / size.

    Why that suffices: |fl(a b)| >= (1 - 4 eps) |a| |b| for the complex
    products of a block, and a sum of non-negative terms is off by at most
    samples * eps of itself, so each estimate is within about 1e-12
    relative of its row's computed grid sum of |F^n|, and low / 2 lies
    below every row's.  n_first is each row's least n and rounding is
    monotone, so the bound is at most every row's floor, while each row's
    band maximum is at most upper.  The factor 1/2 is that margin, not a
    setting.  Where low is so small that products lose their relative
    accuracy to underflow, the bound rounds to +0 and clears only an
    all-zero range.  A NaN in the range or in the estimates, or an
    infinite bound, never clears.
    """
    size = values.shape[1]
    guard = size // _GUARD
    low_shift, high_shift = sorted((shifts[0], shifts[-1]))
    start = (low_shift + size // 2 - guard) % size
    span = high_shift - low_shift + 2 * guard
    if span >= size:
        parts = [values]
    else:
        parts = [values[:, start:start + span]]
        if start + span > size:
            parts.append(values[:, :start + span - size])
    bound = (_EPS * (n_first + math.log2(size)) * (0.5 * estimate.min())
             / size)
    return bound < math.inf and all(part.max() <= bound for part in parts)


def _sweep_norms(stencil: Stencil, n_max: int, size: int, alpha: float):
    """Norms of G^1..G^n_max on `size` points; None if a guard band fails.

    Each batch with aliasing rows is cleared by _guards_clear, or else by
    _guards_at_floor, which alone decides a doubling.
    """
    half = stencil.is_real
    samples = size // 2 + 1 if half else size
    block = min(_SWEEP_BLOCK, n_max)
    rows = min(_SWEEP_BATCH, n_max)
    _check_budget(_sweep_bytes(stencil, size, n_max))
    # Samples F(-2 pi k / size), so the inverse transform puts G_j at j.
    symbol = symbol_eval(stencil, (-2.0 * math.pi / size) * np.arange(samples))
    table = np.cumprod(np.broadcast_to(symbol, (block, samples)), axis=0)
    # |F^1..F^8| at _grid_sum's weights: weighted @ |last| is each row's
    # grid sum of |F^n| up to rounding.
    weighted = np.abs(table)
    if half:
        weighted[:, 1:-1] *= 2.0
    estimate = np.empty(rows)
    sums = np.empty(n_max, dtype=float if half else complex)
    l1, l2, linf = np.empty((3, n_max))
    # Supports of n * width + 1 sites up to `size` cannot alias.  Past that,
    # coefficient s_n + m mod size holds the mass m sites from the drift
    # s_n, and the guard band around m = size/2 must be at the rounding floor.
    base = (size - 1) // stencil.support_width   # G^1..G^base cannot alias
    shifts = np.fromiter((_drift(alpha, n)[0]
                          for n in range(base + 1, n_max + 1)),
                         dtype=np.int64, count=max(n_max - base, 0))
    batch = np.empty((rows, samples), dtype=complex)
    coeffs = np.empty((rows, size), dtype=sums.dtype)
    mags = coeffs if half else np.empty((rows, size))
    last = np.ones(samples, dtype=complex)
    with np.errstate(all="ignore"):
        for lo in range(0, n_max, rows):
            # The batch holds G^(lo+1)..G^hi in chained blocks: each row
            # is the table times the last power of the block before.
            count = min(rows, n_max - lo)
            hi = lo + count
            for start in range(0, count, block):
                stop = min(start + block, count)
                np.multiply(table[:stop - start], last, out=batch[start:stop])
                estimate[start:stop] = weighted[:stop - start] @ np.abs(last)
                last = batch[stop - 1]
            values = coeffs[:count]
            if half:
                np.fft.irfft(batch[:count], size, axis=1, out=values)
            else:
                np.fft.ifft(batch[:count], axis=1, out=values)
            sums[lo:hi] = values.sum(axis=1)
            values = np.abs(values, out=mags[:count])
            l1[lo:hi] = values.sum(axis=1)
            l2[lo:hi] = np.sqrt(np.einsum("ij,ij->i", values, values))
            linf[lo:hi] = values.max(axis=1)
            first = max(lo, base)               # G^(first+1)..G^hi alias
            if first >= hi:
                continue
            aliasing = slice(first - lo, count)
            drifts = shifts[first - base:hi - base]
            if not (_guards_clear(values[aliasing], drifts, first + 1,
                                  estimate[aliasing])
                    or _guards_at_floor(values[aliasing], drifts, first + 1,
                                        batch[aliasing], half)):
                return None
    return sums, l1, l2, linf


def spectral_sweep(stencil: Stencil, n_max: int):
    """Norms of G^n for every n = 1..n_max off one windowed symbol grid.

    Returns (sums, l1, l2, linf) arrays of length n_max (index n-1).  The
    transform length M is the one _spectral_window settles on for n_max:
    the window that holds the mass of G^n_max, which also holds that of
    every smaller n, or the alias-free length for complex, non-conservative
    and degenerate stencils; either is 16 * 2^a * 3^b * 5^c, and so is
    every doubling of it.  F^1..F^8 are sampled once (M/2 + 1 samples
    for real stencils); each block of eight consecutive n is that table
    times the last power of the previous block.  Two chained blocks at a
    time are inverted by one batched transform, and their norms are row
    reductions over all M coefficients.  Every n whose support exceeds M
    must show its guard band at the rounding floor, else M doubles and
    the sweep reruns: one bounded test (_guards_clear) clears a batch's
    bands at once, and where it does not, the per-row check
    (_guards_at_floor) decides.  The memory budget is checked before
    every run against _sweep_bytes.
    """
    n_max = _step_count(n_max)
    if stencil.support_width == 0:
        _check_budget(_sweep_bytes(stencil, 0, n_max))
        sums = _shift_powers(stencil, np.arange(1, n_max + 1))
        with np.errstate(all="ignore"):
            mags = np.abs(sums)
        result = sums, mags, mags.copy(), mags.copy()
    else:
        _, size = _spectral_window(stencil, n_max)
        alpha = _window_plan(stencil, n_max)[0]
        while (result := _sweep_norms(stencil, n_max, size, alpha)) is None:
            size *= 2
    if not np.isfinite(result[1]).all():
        raise ValueError(f"G^{n_max} overflows: the sweep has non-finite "
                         "norms")
    return result


def _evolve_bytes(cells: int, n: int, stencil: Stencil, itemsize: int) -> int:
    """Bytes evolve holds at its peak on data of `cells` cells of
    `itemsize` bytes each.

    The direct route's peak for G^n (_direct_bytes), the output window of
    cells + n * width entries at the output's itemsize, the larger of the
    data's and the stencil's, and GridFunction's finiteness mask of 1 B an
    entry.  When the data and the stencil differ in dtype, np.convolve
    also copies the real one to complex128, which one more window at the
    output's itemsize covers; of the same dtype, it copies neither.
    """
    window = cells + n * stencil.support_width
    windows = 1 if itemsize == _itemsize(stencil) else 2
    return (_direct_bytes(stencil, n)
            + (windows * max(itemsize, _itemsize(stencil)) + 1) * window)


def evolve(stencil: Stencil, u0: GridFunction, n: int) -> GridFunction:
    """n applications of the stencil: u0 convolved with G^n.

    The window widens by n * support_width.  The data is convolved with
    the table as they are: float64 when the stencil and the data are both
    real, complex128 otherwise, so evolve(s, delta, n) equals
    green_direct(s, n) bit for bit.

    Raises WorkBudgetError when start + n * (start + n * width) exceeds
    WORK_LIMIT, start being the length of u0's window, and
    MemoryBudgetError when the table and the output window exceed the
    memory budget (_evolve_bytes); both before anything is allocated.
    """
    if n == 0:
        return u0
    n = _step_count(n)
    _check_work(n, len(u0.values), stencil.support_width)
    _check_budget(_evolve_bytes(len(u0.values), n, stencil,
                                u0.values.itemsize))
    g = green_direct(stencil, n).values
    return GridFunction(min_index=u0.min_index + n * stencil.min_offset,
                        values=np.convolve(u0.values, g))


def sample_step(dx: float, half_width: float, j_min: int, j_max: int) -> GridFunction:
    """Cell averages of the indicator of [-half_width, half_width].

    Cell j covers [j*dx, (j+1)*dx]; cells straddling an edge of the step get
    the fractional overlap.
    """
    if dx <= 0:
        raise ValueError("dx must be positive")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if j_max < j_min:
        raise ValueError("empty index range")
    # Every cell at once: max(0, min(x_hi, w) - max(x_lo, -w)) / (x_hi - x_lo),
    # the operations of the one-cell formula in Python floats, so each cell
    # gets its bits; edges that overflow are inf, as in Python arithmetic,
    # and make an empty cell.
    j = np.arange(j_min, j_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        x_lo, x_hi = j * dx, (j + 1.0) * dx
    if not np.all(x_hi > x_lo):
        raise ValueError("empty cell")
    overlap = np.minimum(x_hi, half_width) - np.maximum(x_lo, -half_width)
    return GridFunction(j_min, np.maximum(overlap, 0.0) / (x_hi - x_lo))
