"""Approximate Green's function of a dissipative scheme and its special functions.

For an admissible scheme with drift alpha, dispersion c3 and dissipation c4,
the oscillatory side of the Green's function is captured by

    G~_j^n = (1/pi) exp(-c4 d^2 / (9 c3^2 n)) cos(2|d|^{3/2} / (3 sqrt(3 c3 n)) - pi/4)
             * integral_{-B}^{B} exp(-sqrt(3 c3 n |d|) u^2) du,   d = j - alpha n,

with B = sqrt(2|d| / (3 c3 n)).  The integral reduces to erf.  Near the front
the profile follows a rescaled Airy function.  The l1 norm of the exact
Green's function grows like ell * n^{1/8} with

    ell = 8 Gamma(11/8) / (sqrt(3) pi^{3/2}) * c3^{1/2} / c4^{3/8}.

erf and the Airy function Ai are evaluated in-package with no external
special function dependency; each uses different methods on different ranges
and the overlaps are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .green import _EXP_REACH, _step_count
from .stencil import SymbolExpansion

__all__ = [
    "ApproxParams",
    "erf",
    "airy_ai",
    "approx_G",
    "approx_H",
    "growth_constant",
]

_SQRT_PI = math.sqrt(math.pi)

# --------------------------------------------------------------------------
# erf


def _erf_series(x: np.ndarray) -> np.ndarray:
    # Maclaurin sum, good to full double precision for |x| <= 2.  Term ratio
    # -x^2 (2k-1) / (k (2k+1)); 64 terms leave the tail far below 1e-20.
    acc = x.copy()
    term = x.copy()
    xsq = x * x
    for k in range(1, 64):
        term *= -xsq * (2 * k - 1) / (k * (2 * k + 1))
        acc += term
    return (2.0 / _SQRT_PI) * acc


def _erfc_cf(x: np.ndarray) -> np.ndarray:
    # Laplace continued fraction sqrt(pi) e^{x^2} erfc(x) =
    # 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))), evaluated bottom-up.
    # Converges rapidly for x >= 1.7; depth 96 is far past full precision.
    tail = np.zeros_like(x)
    for m in range(96, 0, -1):
        tail = (0.5 * m) / (x + tail)
    return np.exp(-x * x) / _SQRT_PI / (x + tail)


# erfc(x) < 2^-54 for x >= 6, so 1 - erfc(x) rounds to 1 there.
_ERF_ONE = 6.0


def erf(x):
    """Error function, |error| <= 1e-12 over the real line; odd in x.

    Maclaurin series for |x| <= 2, continued fraction for the complement
    beyond; both branches are vectorized.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    mag = np.abs(arr)
    out = np.ones_like(arr)
    small = mag <= 2.0
    if small.any():
        out[small] = _erf_series(mag[small])
    large = ~small & ~(mag >= _ERF_ONE)
    if large.any():
        out[large] = 1.0 - _erfc_cf(mag[large])
    out = np.copysign(out, arr)
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# Airy Ai
#
# Four evaluation regions:
#   x <= -6.5          oscillatory asymptotic expansion
#   -6.5 < x < 3.75    Maclaurin series (mild cancellation only)
#   3.75 <= x < 8      Taylor steps of y'' = x y from tabulated anchors
#   x >= 8             decaying asymptotic expansion
# The Maclaurin series alone loses too many digits to cancellation on
# 4 <~ x < 8, which is what the anchor region is for.

_AI_0 = 0.3550280538878172392601  # Ai(0) = 3^{-2/3} / Gamma(2/3)
_AIP_0 = -0.2588194037928067984052  # Ai'(0) = -3^{-1/3} / Gamma(1/3)

# (x_c, Ai(x_c), Ai'(x_c)) anchors for the midrange Taylor evaluator.
_AI_ANCHORS = (
    (4.0, 9.515638512048018736215e-4, -1.958640950204178900138e-3),
    (4.7, 2.128609213585974379872e-4, -4.72183639986264062339e-4),
    (5.4, 4.272986169411658438125e-5, -1.011849565569935303051e-4),
    (6.1, 7.747731032448434443153e-6, -1.944098537510297091764e-5),
    (6.8, 1.275879416876668747604e-6, -3.372464775376393393557e-6),
    (7.5, 1.917256067513430751645e-7, -5.31271395972054468479e-7),
)

_MACLAURIN_HI = 3.75
_MACLAURIN_LO = -6.5
_ASYMP_POS = 8.0


def _ai_maclaurin(x: np.ndarray) -> np.ndarray:
    # Ai = Ai(0) f + Ai'(0) g with f, g the two power series solutions of
    # y'' = x y; term recurrences f_k = f_{k-1} x^3 / ((3k)(3k-1)),
    # g_k = g_{k-1} x^3 / ((3k+1)(3k)).
    xcube = x ** 3
    f_term = np.ones_like(x)
    g_term = x.copy()
    f_sum = f_term.copy()
    g_sum = g_term.copy()
    for k in range(1, 61):
        f_term = f_term * xcube / ((3 * k) * (3 * k - 1))
        g_term = g_term * xcube / ((3 * k + 1) * (3 * k))
        f_sum += f_term
        g_sum += g_term
    return _AI_0 * f_sum + _AIP_0 * g_sum


def _anchor_taylor_coeffs(x_c: float, ai_c: float, aip_c: float, order: int):
    # Taylor coefficients of Ai around x_c from y'' = x y:
    # (m+2)(m+1) b_{m+2} = x_c b_m + b_{m-1}, b_{-1} = 0.
    b = [ai_c, aip_c]
    for m in range(order - 2):
        prev = b[m - 1] if m >= 1 else 0.0
        b.append((x_c * b[m] + prev) / ((m + 2) * (m + 1)))
    return b


def _ai_anchor(x: np.ndarray) -> np.ndarray:
    # Taylor steps from the nearest anchor.  Steps never exceed |h| ~ 0.5 and
    # all terms scale with the anchor values, so no cancellation occurs.
    centers = np.asarray([a[0] for a in _AI_ANCHORS])
    out = np.empty_like(x)
    which = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
    for idx, (x_c, ai_c, aip_c) in enumerate(_AI_ANCHORS):
        sel = which == idx
        if not sel.any():
            continue
        h = x[sel] - x_c
        coeffs = _anchor_taylor_coeffs(x_c, ai_c, aip_c, 40)
        acc = np.full_like(h, coeffs[-1])
        for b_m in reversed(coeffs[:-1]):
            acc = acc * h + b_m
        out[sel] = acc
    return out


def _u_ratio(k: int) -> float:
    # u_k / u_{k-1} for the asymptotic coefficients
    # u_k = Gamma(3k + 1/2) / (54^k k! Gamma(k + 1/2)).
    return (6 * k - 1) * (6 * k - 3) * (6 * k - 5) / (216.0 * k * (2 * k - 1))


def _ai_asymp_pos(x: np.ndarray) -> np.ndarray:
    # Where exp(-zeta) underflows (x > ~107.7) Ai is +0 and the series with
    # its positive sum is skipped.
    zeta = (2.0 / 3.0) * x ** 1.5
    out = np.zeros_like(x)
    with np.errstate(under="ignore"):
        scale = np.exp(-zeta)
        live = scale > 0.0
        x, zeta, scale = x[live], zeta[live], scale[live]
        term = np.ones_like(x)
        acc = term.copy()
        for k in range(1, 25):
            term = term * (-_u_ratio(k)) / zeta
            acc += term
        out[live] = scale / (2.0 * _SQRT_PI * x ** 0.25) * acc
    return out


# Of the asymptotic sums below, `odd` stays within 0.0064 of 0 and `even`
# within 0.0004 of 1 on x <= -6.5 (zeta >= 11.04), so wherever |cos(phase)|
# exceeds this margin, cos(phase) * even outweighs sin(phase) * odd and
# carries the sign of Ai (TestAiryAi.test_sign_margin).
_AI_SIGN_MARGIN = 0.05


def _ai_asymp_neg(x: np.ndarray) -> np.ndarray:
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5     # Ai's phase on x < 0 is zeta - pi/4
    even = np.ones_like(t)
    odd = np.zeros_like(t)
    term = np.ones_like(t)
    for m in range(1, 22):
        term = term * _u_ratio(m) / zeta
        contrib = term if m % 4 in (0, 1) else -term
        if m % 2 == 0:
            even += contrib
        else:
            odd += contrib
    phase = zeta - 0.25 * math.pi
    return (np.cos(phase) * even + np.sin(phase) * odd) / (_SQRT_PI * t ** 0.25)


def airy_ai(x):
    """Airy function Ai on the real line.

    Relative accuracy ~1e-10 for |x| <= 10 and absolute ~1e-12 beyond; for
    x >= ~108 the result underflows to 0, and for very negative x the phase
    carries the usual argument-reduction loss of large trigonometric calls.
    NaN gives NaN.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    out = np.full_like(arr, math.nan)     # NaN is in no branch below
    neg = arr <= _MACLAURIN_LO
    mac = (arr > _MACLAURIN_LO) & (arr < _MACLAURIN_HI)
    mid = (arr >= _MACLAURIN_HI) & (arr < _ASYMP_POS)
    pos = arr >= _ASYMP_POS
    if neg.any():
        out[neg] = _ai_asymp_neg(arr[neg])
    if mac.any():
        out[mac] = _ai_maclaurin(arr[mac])
    if mid.any():
        out[mid] = _ai_anchor(arr[mid])
    if pos.any():
        out[pos] = _ai_asymp_pos(arr[pos])
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# Approximate Green's function


@dataclass(frozen=True)
class ApproxParams:
    """Scheme data entering the approximate Green's function.

    c3 is split into magnitude and sign; the derived constants are
    beta0 = c4 / (9 c3^2) (Gaussian width) and beta1 = 2 / (3 sqrt(3 |c3|))
    (oscillation rate).  Lax-Wendroff has c3 > 0 for 0 < lambda < 1;
    Beam-Warming has c3 < 0 there and c3 > 0 for 1 < lambda < 2.
    """

    alpha: float
    c3_abs: float
    c3_sign: int
    c4: float

    def __post_init__(self):
        if not self.c3_abs > 0.0:
            raise ValueError("c3_abs must be positive")
        if not self.c4 > 0.0:
            raise ValueError("c4 must be positive")
        if self.c3_sign not in (-1, 1):
            raise ValueError("c3_sign must be +1 or -1")

    @property
    def beta0(self) -> float:
        return self.c4 / (9.0 * self.c3_abs ** 2)

    @property
    def beta1(self) -> float:
        return 2.0 / (3.0 * math.sqrt(3.0 * self.c3_abs))

    @classmethod
    def from_expansion(cls, expansion: SymbolExpansion) -> "ApproxParams":
        c3 = expansion.c3
        return cls(alpha=expansion.alpha, c3_abs=abs(c3),
                   c3_sign=1 if c3 > 0 else -1, c4=expansion.c4)


# Cells of j classified at once by approx_G and approx_H: the temporaries of
# a block stay in cache, and below glibc's 128 KiB mmap threshold.
_BLOCK = 1 << 13

# The Gaussian factor exp(-beta0 d^2 / n) is +0 beyond the reach
# |d| = sqrt(_EXP_REACH n / beta0).  The slack of 0.06% in |d| covers the
# rounding of every test against the reach.

# exp(-zeta) underflows at x ~ 107.7, beyond which airy_ai returns +0.
_AI_ZERO = 110.0

# Beyond the reach, and ahead of the front past _AI_ZERO for H, the value is
# +0 times a factor signed like cos(2 pi turns), turns = a^{3/2} - 1/8.  The
# classifier's turns agree with the phase the formulas pass to cos to about
# ten ulp of the turn count, ~1e-10 turns at n = 1e6; a cell takes the
# signed zero only where its turns lie farther than the margin plus
# _PHASE_REL times the block's largest turn count from a zero of the
# cosine, and the formula runs on every other cell.  G~'s sign is that of
# cos itself, so any margin above the rounding serves; Ai's is that of its
# asymptotic sums, decided where |cos| > _AI_SIGN_MARGIN.
_G_MARGIN = 1e-6
_AI_MARGIN = math.asin(_AI_SIGN_MARGIN) / (2.0 * math.pi)
_PHASE_REL = 2.0 ** -40
_AI_SCALE = (3.0 * math.pi) ** (-2.0 / 3.0)


def _cos_sign(a: np.ndarray, margin: float, out: np.ndarray) -> np.ndarray:
    """Write the zero signed like cos(2 pi turns), turns = a^{3/2} - 1/8,
    to out, and return where the margin decides that sign.

    cos(2 pi turns) = cos(2 pi r), r = turns - rint(turns), so q = 1/4 - |r|
    has its sign and |q| is the distance in turns to the nearest zero.  NaN
    or infinite turns decide no cell.
    """
    turns = np.sqrt(a) * a - 0.125
    q = 0.25 - np.abs(turns - np.rint(turns))
    np.copysign(0.0, q, out=out)
    return np.abs(q) > margin + _PHASE_REL * np.max(turns)


def _signed_zero_pass(params: ApproxParams, n: int, j, margin: float,
                      classify, formula):
    """approx_G or approx_H over j, in blocks of _BLOCK cells.

    n is taken by green's step-count rule.  classify(n, d, reach),
    d = j - alpha n, gives each cell its a >= 0 and marks the cells whose
    value is +0 times a factor signed like cos(2 pi (a^{3/2} - 1/8)).
    formula(params, n, d) runs once, on every other cell and on the marked
    cells whose sign the cosine's margin does not decide.
    """
    n = _step_count(n)
    jarr = np.asarray(j)
    flat = jarr.ravel()
    shift = params.alpha * n
    reach = math.sqrt(_EXP_REACH * n / params.beta0)
    out = np.empty(flat.shape)
    exact = np.empty(flat.shape, dtype=bool)
    # An infinite or huge d overflows or gives NaN turns, which decide no
    # cell of its block; the formula reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(flat), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            a, zero = classify(n, np.asarray(flat[rows], dtype=float)
                               - shift, reach)
            zero &= _cos_sign(a, margin, out[rows])
            np.logical_not(zero, out=exact[rows])
    out[exact] = formula(params, n, np.asarray(flat[exact], dtype=float)
                         - shift)
    return float(out[0]) if jarr.ndim == 0 else out.reshape(jarr.shape)


def _g_formula(params: ApproxParams, n: int, d: np.ndarray) -> np.ndarray:
    """G~ at the front distances d; 0 at d = 0."""
    ad = np.abs(d)
    c3n = 3.0 * params.c3_abs * n
    out = np.zeros_like(ad)
    nz = ad > 0.0
    adn = ad[nz]
    with np.errstate(under="ignore"):
        gauss = np.exp(-params.beta0 * d[nz] ** 2 / n)
        osc = np.cos(params.beta1 * adn ** 1.5 / math.sqrt(n) - 0.25 * math.pi)
        # integral_{-B}^{B} e^{-A u^2} du = sqrt(pi/A) erf(sqrt(A) B),
        # A = sqrt(3 c3 n |d|), B = sqrt(2 |d| / (3 c3 n)).
        window = (_SQRT_PI / (c3n * adn) ** 0.25
                  * erf(math.sqrt(2.0) * adn ** 0.75 / c3n ** 0.25))
        out[nz] = gauss * osc * window / math.pi
    return out


def approx_G(params: ApproxParams, n: int, j):
    """The oscillatory-side approximation G~_j^n; vectorized over j.

    For c3 < 0 the defining formula is applied with |c3| and the spatial
    offset reflected, which matches the side-switched bound; the expression
    is even in j - alpha n, so the reflection is the identity on values.
    Exactly zero at j = alpha n.
    """
    def classify(n, d, reach):
        # cos(beta1 |d|^{3/2} / sqrt(n) - pi/4) = cos(2 pi (a^{3/2} - 1/8))
        scale = (params.beta1 / (2.0 * math.pi * math.sqrt(n))) ** (2.0 / 3.0)
        a = np.abs(d) * scale
        return a, a > reach * scale

    return _signed_zero_pass(params, n, j, _G_MARGIN, classify, _g_formula)


def _h_formula(params: ApproxParams, n: int, d: np.ndarray) -> np.ndarray:
    """H at the front distances d."""
    z = (3.0 * params.c3_abs * n) ** (1.0 / 3.0)
    with np.errstate(under="ignore"):
        # exp(-beta0 d^2 / n) behind the front; exp(-0.0) = 1 ahead of it.
        damping = np.exp(-params.beta0 * np.minimum(d, 0.0) ** 2 / n)
        return airy_ai(d / z) / z * damping


def approx_H(params: ApproxParams, n: int, j):
    """Airy front profile H_j^n; defined for c3 > 0 only.

    H = Ai(d / z) / z with z = (3 c3 n)^{1/3} and d = j - alpha n; behind the
    front (d < 0) the value carries the extra Gaussian factor
    exp(-c4 d^2 / (9 c3^2 n)).
    """
    if params.c3_sign < 0:
        raise ValueError("approx_H requires c3 > 0; "
                         "no front profile is defined for c3 < 0")

    def classify(n, d, reach):
        z = (3.0 * params.c3_abs * n) ** (1.0 / 3.0)
        x = d / z
        # On Ai's oscillatory range x <= _MACLAURIN_LO its sign is that of
        # cos((2/3) |x|^{3/2} - pi/4) = cos(2 pi (a^{3/2} - 1/8)).  a = 0
        # ahead of the front gives the +0 of Ai far ahead.
        return (np.fmax(x * -_AI_SCALE, 0.0),
                (x < min(-reach / z, _MACLAURIN_LO)) | (x > _AI_ZERO))

    return _signed_zero_pass(params, n, j, _AI_MARGIN, classify, _h_formula)


def growth_constant(c3_abs: float, c4: float) -> float:
    """The limit of n^{-1/8} ||G^n||_1:

    ell = 8 Gamma(11/8) / (sqrt(3) pi^{3/2}) * c3_abs^{1/2} / c4^{3/8}.
    """
    if c3_abs <= 0.0:
        raise ValueError("c3_abs must be positive")
    if c4 <= 0.0:
        raise ValueError("c4 must be positive")
    return (8.0 * math.gamma(11.0 / 8.0) / (math.sqrt(3.0) * math.pi ** 1.5)
            * math.sqrt(c3_abs) / c4 ** 0.375)
