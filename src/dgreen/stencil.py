"""Finitely supported convolution stencils and their symbol expansions.

A stencil holds the coefficients a_l of one explicit time step

    (L_a u)_j = sum_l a_l u_{j-l},

together with the offset of the first coefficient.  The symbol (amplification
factor) is F_a(theta) = sum_l a_l exp(i l theta).  A scheme is admissible when
it is conservative (sum a_l = 1), dissipative away from theta = 0, and its
symbol expands near the origin as

    F_a(theta) = exp(i alpha theta - i c3 theta^3 - c4 theta^4 + O(theta^5))

with c3 != 0 and c4 > 0.  The second cumulant must vanish for the expansion to
have this form; its magnitude is reported so callers can see how a candidate
scheme fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONSERVATION_TOL",
    "C3_FLOOR",
    "C4_FLOOR",
    "KAPPA2_TOL",
    "Stencil",
    "SymbolExpansion",
    "AssumptionAudit",
    "lax_wendroff",
    "beam_warming",
    "symbol_eval",
    "dissipation_check",
    "expansion_coefficients",
    "assumption_audit",
]

# Admissibility thresholds.  The cumulants come from exact coefficient sums,
# so anything above rounding noise is a genuine violation.
KAPPA2_TOL = 1e-10
C3_FLOOR = 1e-12
C4_FLOOR = 1e-12
CONSERVATION_TOL = 1e-12

# The symbol checks sample theta on AUDIT_GRID points of [-pi, pi];
# dissipation_check leaves out |theta| < EXCLUSION_RADIUS around the neutral
# point theta = 0.
AUDIT_GRID = 4096
EXCLUSION_RADIUS = 1e-3

# Dissipation must clear rounding: 1 - |F(theta)| has to exceed
# MARGIN_FLOOR * sum |a_l| * sin(theta/2)^4 at every sampled theta.  The
# rounding error of the sampled |F| is bounded by about 20 eps sum |a_l| for
# 3- to 5-point stencils (one rounding per term, per addition and in the
# phase l*theta); the floor sits more than ten times above that.  The weight
# sin(theta/2)^4 is the contact order of every admissible symbol at 0
# (1 - |F|^2 = 2 c4 theta^4 + ..., for Lax-Wendroff and Beam-Warming exactly
# a multiple of sin(theta/2)^4), so the quartically small margin next to the
# excluded neighbourhood of 0, which the c4 > 0 check governs, never meets it.
MARGIN_FLOOR = 256 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class Stencil:
    """Coefficients a_l for l = min_offset .. min_offset + len(coefficients) - 1.

    The first and last stored coefficients are nonzero; constructors trim
    exact zeros at the ends so the support is tight.  Non-finite
    coefficients, or coefficients whose sum overflows, raise ValueError.

    The constructor also derives, once, what every route reads: the
    read-only complex128 array that as_array returns, the exact sum that
    coefficient_sum returns, `terms`, the (offset, coefficient) pairs of
    the nonzero coefficients as Python numbers, and `is_real`, whether
    every imaginary part is zero.  The symbol expansion and the audit are
    derived on their first read and stored the same way, once per object.
    None of them is a field, so equality, hashing and repr see the three
    fields alone.
    """

    min_offset: int
    coefficients: tuple
    label: str = ""

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        if not np.isfinite(coeffs).all():
            raise ValueError("stencil coefficients must be finite")
        nonzero = np.flatnonzero(coeffs)
        if not len(nonzero):
            raise ValueError("stencil has no nonzero coefficient")
        terms = tuple(zip([int(self.min_offset) + k for k in nonzero.tolist()],
                          coeffs[nonzero].tolist()))
        lo = int(nonzero[0])
        coeffs = coeffs[lo:int(nonzero[-1]) + 1]
        coeffs.flags.writeable = False
        try:
            total = complex(math.fsum(coeffs.real.tolist()),
                            math.fsum(coeffs.imag.tolist()))
        except OverflowError:
            raise ValueError("stencil coefficient sum overflows") from None
        # A frozen dataclass takes its derived state past __setattr__.
        vars(self).update(min_offset=self.min_offset + lo,
                          coefficients=tuple(coeffs.tolist()), _array=coeffs,
                          _sum=total, terms=terms,
                          is_real=not coeffs.imag.any())

    @property
    def max_offset(self) -> int:
        return self.min_offset + len(self.coefficients) - 1

    @property
    def support_width(self) -> int:
        return self.max_offset - self.min_offset

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.min_offset, self.max_offset + 1)

    def as_array(self) -> np.ndarray:
        return self._array

    def coefficient_sum(self) -> complex:
        return self._sum

    def is_conservative(self) -> bool:
        try:
            return abs(self._sum - 1.0) <= CONSERVATION_TOL
        except OverflowError:   # |sum - 1| exceeds the largest float
            raise ValueError("stencil coefficient sum overflows") from None

    @functools.cached_property
    def _expansion(self) -> SymbolExpansion:
        """_expand(self), which every reader of the expansion shares."""
        return _expand(self)

    @functools.cached_property
    def _audit(self) -> AssumptionAudit:
        """_run_audit(self), which every reader of the audit shares."""
        return _run_audit(self)


def lax_wendroff(lam: float) -> Stencil:
    """Second order three point scheme for u_t + u_x = 0 at Courant number lam.

    Coefficients: a_1 = (lam + lam^2)/2, a_0 = 1 - lam^2, a_{-1} = -(lam - lam^2)/2.
    Requires 0 < lam <= 1; at lam = 1 the stencil degenerates to a pure shift.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lax_wendroff requires 0 < lambda <= 1, got {lam}")
    a_m1 = -(lam - lam * lam) / 2.0
    a_0 = 1.0 - lam * lam
    a_p1 = (lam + lam * lam) / 2.0
    return Stencil(-1, (a_m1, a_0, a_p1), label=f"lw(lambda={lam:g})")


def beam_warming(lam: float) -> Stencil:
    """Second order upwind scheme for u_t + u_x = 0 at Courant number lam.

    Coefficients: a_0 = (1-lam)(2-lam)/2, a_1 = lam(2-lam), a_2 = -(lam - lam^2)/2.
    Requires 0 < lam <= 2; lam = 1 and lam = 2 degenerate to pure shifts.
    """
    if not 0.0 < lam <= 2.0:
        raise ValueError(f"beam_warming requires 0 < lambda <= 2, got {lam}")
    a_0 = (1.0 - lam) * (2.0 - lam) / 2.0
    a_1 = lam * (2.0 - lam)
    a_2 = -(lam - lam * lam) / 2.0
    return Stencil(0, (a_0, a_1, a_2), label=f"bw(lambda={lam:g})")


def symbol_eval(stencil: Stencil, theta):
    """Evaluate F_a(theta) = sum_l a_l exp(i l theta); theta scalar or array.

    The sum runs over the stencil's nonzero terms, so a sparse wide
    stencil costs one exponential per nonzero coefficient.
    """
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape, dtype=complex)
    for offset, coeff in stencil.terms:
        out += coeff * np.exp(1j * offset * th)
    if np.isscalar(theta) or th.ndim == 0:
        return complex(out)
    return out


def dissipation_check(stencil: Stencil):
    """Sample |F_a| on the audit grid; return (dissipative, min_margin).

    Samples with |theta| < EXCLUSION_RADIUS, around the neutral point
    theta = 0, are left out.  min_margin = 1 - max |F_a| over the sampled
    set.  dissipative requires
    1 - |F_a(theta)| > MARGIN_FLOOR * sum |a_l| * sin(theta/2)^4 at every
    sample, so a margin at rounding level away from theta = 0 is refused.
    """
    theta = np.linspace(-math.pi, math.pi, AUDIT_GRID)
    theta = theta[np.abs(theta) >= EXCLUSION_RADIUS]
    margins = 1.0 - np.abs(symbol_eval(stencil, theta))
    # hypot is what abs(complex) computes; numpy's complex abs takes another
    # route and differs from it in the last bit for about a third of values.
    coeffs = stencil.as_array()
    l1 = math.fsum(np.hypot(coeffs.real, coeffs.imag).tolist())
    floor = MARGIN_FLOOR * l1 * np.sin(0.5 * theta) ** 4
    return bool(np.all(margins > floor)), float(np.min(margins))


@dataclass(frozen=True)
class SymbolExpansion:
    """Cumulant data of log F_a at theta = 0.

    alpha is the drift, kappa2 the magnitude of the second cumulant (zero for
    schemes matching the target expansion), c3 the signed dispersion
    coefficient, c4 the dissipation coefficient, and residual5 an empirical
    bound for the fifth order remainder
    |log F_a(theta) - (i alpha theta - i c3 theta^3 - c4 theta^4)| / |theta|^5
    over a probe grid near the origin.
    """

    alpha: float
    kappa2: float
    c3: float
    c4: float
    residual5: float

    @property
    def nondegenerate(self) -> bool:
        """c3 != 0 and c4 > 0 beyond their rounding floors.

        Only then does the front j = alpha*n split G^n into a fast-decay
        side and an oscillatory side, and is the growth constant defined.
        """
        return abs(self.c3) > C3_FLOOR and self.c4 > C4_FLOOR


def _power_sums(stencil: Stencil, center: float, count: int) -> list:
    """sum_l a_l (l - center)^k - [k = 0] for k < count, as complex numbers.

    Each sum is exact in the float coefficients and the float center and is
    rounded once: integer numerators over the largest power-of-two
    denominator, and one int / int division, which Python rounds correctly.
    Raises OverflowError when a sum is outside the float range.
    """
    num, den = float(center).as_integer_ratio()
    # Each lag is (l - center) * den.  The term -1 at the center itself,
    # where 0 ** 0 == 1, gives the -[k = 0].
    lags = [0] + [offset * den - num for offset, _ in stencil.terms]
    coeffs = [-1.0] + [coeff for _, coeff in stencil.terms]
    ratios = [[c.real.as_integer_ratio() for c in coeffs],
              [c.imag.as_integer_ratio() for c in coeffs]]
    scale = max(d for part in ratios for _, d in part)
    numerators = [[p * (scale // d) for p, d in part] for part in ratios]
    return [complex(*[sum(p * lag ** k for p, lag in zip(part, lags))
                      / (scale * den ** k) for part in numerators])
            for k in range(count)]


def _expand(stencil: Stencil) -> SymbolExpansion:
    """Cumulant expansion of log F_a through order five, which the stencil
    stores as _expansion on the first read.

    A non-conservative stencil is expanded as F_a / F_a(0), so its report
    stays informative, unless its sum is below the smallest normal float64,
    which dividing by would overflow.  The cumulants come from the exact
    power sums m_k = sum_l l^k a_l of _power_sums, divided by that
    normalization.  residual5 comes from a probe of the symbol near the
    origin.  Raises ValueError when the power sums or the cumulants overflow.
    """
    total = stencil.coefficient_sum()
    if stencil.is_conservative() or abs(total) < np.finfo(float).tiny:
        total = 1.0
    try:
        m1, m2, m3, m4 = [mk / total for mk in _power_sums(stencil, 0, 5)[1:]]
        k2 = m2 - m1 * m1
        k3 = m3 - 3 * m1 * m2 + 2 * m1 ** 3
        k4 = m4 - 4 * m1 * m3 - 3 * m2 * m2 + 12 * m1 * m1 * m2 - 6 * m1 ** 4
        cumulants = (m1.real, abs(k2), k3.real / 6.0, -k4.real / 24.0)
    except OverflowError:
        cumulants = (math.inf,)
    if not all(map(math.isfinite, cumulants)):
        raise ValueError("the moments of the stencil coefficients overflow")
    alpha, kappa2, c3, c4 = cumulants
    # The model uses only the real cumulant parts, so any imaginary
    # contamination (complex stencils) also lands in residual5.
    theta = np.linspace(-0.1, 0.1, 41)
    theta = theta[theta != 0.0]
    symbol = symbol_eval(stencil, theta) / total
    model = 1j * alpha * theta - 1j * c3 * theta ** 3 - c4 * theta ** 4
    residual5 = float(np.max(np.abs(np.log(symbol) - model)
                             / np.abs(theta) ** 5))
    return SymbolExpansion(alpha=alpha, kappa2=kappa2, c3=c3, c4=c4,
                           residual5=residual5)


def expansion_coefficients(stencil: Stencil) -> SymbolExpansion:
    """Cumulant expansion of log F_a through order five.

    Moments are exact coefficient sums; no numerical differentiation is
    involved.  Raises ValueError for a non-conservative stencil, where the
    expansion around F_a(0) = 1 does not apply, and when the moments
    overflow.
    """
    if not stencil.is_conservative():
        raise ValueError(f"stencil is not conservative: "
                         f"sum a_l = {stencil.coefficient_sum():.17g}")
    return stencil._expansion


@dataclass(frozen=True)
class AssumptionAudit:
    """Aggregated admissibility report for one stencil."""

    sums_to_one: bool
    dissipative: bool
    min_margin: float
    expansion: SymbolExpansion
    admissible: bool


def assumption_audit(stencil: Stencil) -> AssumptionAudit:
    """Run every admissibility check and combine the verdict.

    A stencil passes when it is conservative, strictly dissipative on the
    sampled grid, has vanishing second cumulant, and has c3 != 0 and c4 > 0
    beyond rounding floors.  Non-conservative stencils are audited against
    the normalized symbol F_a / F_a(0) so the report stays informative.
    The checks run once per stencil object; later calls return their
    verdict.
    """
    return stencil._audit


def _run_audit(stencil: Stencil) -> AssumptionAudit:
    """The checks of assumption_audit, whose verdict the stencil stores as
    _audit on the first read."""
    sums_to_one = stencil.is_conservative()
    expansion = stencil._expansion
    dissipative, min_margin = dissipation_check(stencil)
    admissible = (sums_to_one and dissipative
                  and expansion.kappa2 <= KAPPA2_TOL
                  and expansion.nondegenerate)
    return AssumptionAudit(sums_to_one=sums_to_one, dissipative=dissipative,
                           min_margin=min_margin, expansion=expansion,
                           admissible=admissible)
