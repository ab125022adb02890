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
    "modulus_identity_check",
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


def _trimmed(coefficients, min_offset):
    """Drop exactly-zero leading/trailing coefficients, tracking the offset."""
    coeffs = [complex(c) for c in coefficients]
    lo = 0
    while lo < len(coeffs) and coeffs[lo] == 0:
        lo += 1
    if lo == len(coeffs):
        raise ValueError("stencil has no nonzero coefficient")
    hi = len(coeffs)
    while coeffs[hi - 1] == 0:
        hi -= 1
    return tuple(coeffs[lo:hi]), min_offset + lo


@dataclass(frozen=True)
class Stencil:
    """Coefficients a_l for l = min_offset .. min_offset + len(coefficients) - 1.

    The first and last stored coefficients are nonzero; constructors trim
    exact zeros at the ends so the support is tight.  Non-finite
    coefficients, or coefficients whose sum overflows, raise ValueError.
    """

    min_offset: int
    coefficients: tuple
    label: str = ""

    def __post_init__(self):
        if not all(math.isfinite(part) for c in map(complex, self.coefficients)
                   for part in (c.real, c.imag)):
            raise ValueError("stencil coefficients must be finite")
        coeffs, lo = _trimmed(self.coefficients, self.min_offset)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "min_offset", lo)
        try:
            self.coefficient_sum()
        except OverflowError:
            raise ValueError("stencil coefficient sum overflows") from None

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
        return np.asarray(self.coefficients, dtype=complex)

    def coefficient(self, offset: int) -> complex:
        if self.min_offset <= offset <= self.max_offset:
            return self.coefficients[offset - self.min_offset]
        return 0.0

    def coefficient_sum(self) -> complex:
        return complex(math.fsum(c.real for c in self.coefficients),
                       math.fsum(c.imag for c in self.coefficients))

    def is_conservative(self) -> bool:
        return abs(self.coefficient_sum() - 1.0) <= CONSERVATION_TOL

    def reflected(self) -> "Stencil":
        """Spatial reflection a_l -> a_{-l}; flips the sign of odd cumulants."""
        return Stencil(-self.max_offset, self.coefficients[::-1],
                       label=self.label + "~" if self.label else "")


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

    Zero coefficients inside the support are skipped, so a sparse wide
    stencil costs one exponential per nonzero coefficient.
    """
    th = np.asarray(theta, dtype=float)
    out = np.zeros(th.shape, dtype=complex)
    for offset, coeff in zip(stencil.offsets, stencil.coefficients):
        if coeff:
            out += coeff * np.exp(1j * offset * th)
    if np.isscalar(theta) or th.ndim == 0:
        return complex(out)
    return out


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
    floor = (MARGIN_FLOOR * math.fsum(abs(c) for c in stencil.coefficients)
             * np.sin(0.5 * theta) ** 4)
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


def _expansion(stencil: Stencil, normalization: complex = 1.0,
               probe: bool = True) -> SymbolExpansion:
    """Cumulant expansion of log(F_a / normalization) through order five.

    The cumulants come from the exact power sums m_k = sum_l l^k a_l over
    integer offsets, divided by the normalization.  residual5 comes from a
    probe of the symbol near the origin; without `probe` it is NaN and the
    symbol is never evaluated.  Raises ValueError when the power sums or
    the cumulants overflow.
    """
    # Zero coefficients add only zeros to the exact sums, and fsum([]) is
    # 0.0, so skipping them changes no bit.
    pairs = [(l, c) for l, c in zip(
        range(stencil.min_offset, stencil.max_offset + 1),
        stencil.coefficients) if c]
    try:
        m = [complex(math.fsum(l ** k * c.real for l, c in pairs),
                     math.fsum(l ** k * c.imag for l, c in pairs))
             for k in range(1, 5)]
        if normalization != 1.0:
            m = [mk / normalization for mk in m]
        m1, m2, m3, m4 = m
        k2 = m2 - m1 * m1
        k3 = m3 - 3 * m1 * m2 + 2 * m1 ** 3
        k4 = m4 - 4 * m1 * m3 - 3 * m2 * m2 + 12 * m1 * m1 * m2 - 6 * m1 ** 4
        cumulants = (m1.real, abs(k2), k3.real / 6.0, -k4.real / 24.0)
    except OverflowError:
        cumulants = (math.inf,)
    if not all(map(math.isfinite, cumulants)):
        raise ValueError("the moments of the stencil coefficients overflow")
    alpha, kappa2, c3, c4 = cumulants
    residual5 = math.nan
    if probe:
        # The model uses only the real cumulant parts, so any imaginary
        # contamination (complex stencils) also lands in residual5.
        theta = np.linspace(-0.1, 0.1, 41)
        theta = theta[theta != 0.0]
        symbol = symbol_eval(stencil, theta) / normalization
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
    return _expansion(stencil)


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
    """
    total = stencil.coefficient_sum()
    sums_to_one = stencil.is_conservative()
    normalization = total if not sums_to_one and total != 0 else 1.0
    expansion = _expansion(stencil, normalization)
    dissipative, min_margin = dissipation_check(stencil)
    admissible = (sums_to_one and dissipative
                  and expansion.kappa2 <= KAPPA2_TOL
                  and expansion.nondegenerate)
    return AssumptionAudit(sums_to_one=sums_to_one, dissipative=dissipative,
                           min_margin=min_margin, expansion=expansion,
                           admissible=admissible)
