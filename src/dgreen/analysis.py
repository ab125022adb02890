"""Envelope, summability, growth, and total-variation checks on Green's tables.

The Green's function of an admissible scheme splits at the transported front
j = alpha*n into a fast-decay side and an oscillatory side, each bounded by a
generalized-Gaussian envelope in the variable x = |j - alpha*n| / n**(1/3).
This module fits the decay rates, measures the minimal envelope constants on
exact tables, sums each side to confirm one-sided summability, finds the side
that carries the oscillations, tracks the l1 growth law
l1(G^n) / n**(1/8) -> ell, and bounds the cumulative sums of G^n, the evolved
Heaviside data, uniformly in the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import ApproxParams, approx_G, growth_constant
from .green import GreenTable, _direct_tables, _spectral_window, _step_count
from .stencil import (Stencil, SymbolExpansion, assumption_audit,
                      expansion_coefficients)

__all__ = [
    "BoundReport",
    "GrowthReport",
    "BVReport",
    "envelope_reports",
    "growth_series",
    "bv_bounds",
    "FIT_WINDOW",
    "FIT_SAFETY",
]

# Window for the decay-rate regression, in units of the self-similar
# variable x.  Inside [1, 8] the measured profiles follow exp(-c * x**(3/2));
# farther out the local rate steepens (extreme-deviation zone near the support
# edge), and a fit that includes it overshoots c so badly that the fitted C
# drifts by orders of magnitude across n.
FIT_WINDOW = (1.0, 8.0)
FIT_SAFETY = 0.8
_MIN_FIT_POINTS = 4

# exp() underflows to exact 0.0 below this exponent.
_LOG_SMALLEST = -1074 * math.log(2.0)


def _one_sided(g: GreenTable, e: SymbolExpansion):
    """g split at the front j = alpha*n: ((|G|, x) on the fast side,
    (|G - approx_G|, x) on the oscillatory side), x = |j - alpha*n| / n**(1/3).

    For c3 > 0 the fast side is j - alpha*n >= 0 and the oscillatory side is
    j - alpha*n < 0; the sides switch with the sign of c3.  The front point
    itself belongs to the fast side.  e is an admissible scheme's expansion,
    as envelope_reports' audit has checked.
    """
    d = g.offsets - e.alpha * g.n
    x = np.abs(d) / g.n ** (1.0 / 3.0)
    fast = d >= 0.0 if e.c3 > 0 else d <= 0.0
    params = ApproxParams.from_expansion(e)
    difference = np.abs(g.values - approx_G(params, g.n, g.offsets))
    return (np.abs(g.values)[fast], x[fast]), (difference[~fast], x[~fast])


def _step_grid(n_values) -> list:
    """The step counts, each by green's rule, sorted; ValueError if empty."""
    n_values = sorted(map(_step_count, n_values))
    if not n_values:
        raise ValueError("n_values must be positive integers")
    return n_values


def _log_envelope(x: np.ndarray, n: int, c_used: float, power: float) -> np.ndarray:
    # log of n**(-1/3) * min(1, x**(-power)) * exp(-c_used * x**(3/2)),
    # with the prefactor equal to 1 at x = 0.
    safe = np.where(x > 0.0, x, 1.0)
    return (-math.log(n) / 3.0
            + np.minimum(0.0, -power * np.log(safe))
            - c_used * x ** 1.5)


def _minimal_constant(q: np.ndarray, x: np.ndarray, n: int,
                      c_used: float, power: float) -> float:
    """Smallest C with q <= (C/n**(1/3)) * min(1, x**-power) * exp(-c x**1.5).

    Ratios are maximized in log space; exact zeros of q are skipped.  Raises
    when the envelope underflows to 0.0 at a point where q is nonzero, which
    means c_used is too large to witness anything at this n.
    """
    if c_used <= 0.0:
        raise ValueError("c_used must be positive")
    nonzero = q > 0.0
    if not np.any(nonzero):
        raise ValueError("no nonzero entries on this side of the front")
    log_env = _log_envelope(x[nonzero], n, c_used, power)
    if np.any(log_env < _LOG_SMALLEST):
        raise ValueError(
            f"envelope underflows to 0 where the table is nonzero; "
            f"c_used = {c_used:.6g} is too large for n = {n}")
    return float(np.exp(np.max(np.log(q[nonzero]) - log_env)))


def _fit_rate(q: np.ndarray, x: np.ndarray) -> float:
    lo, hi = FIT_WINDOW
    sel = (x >= lo) & (x <= hi) & (q > 0.0)
    if np.count_nonzero(sel) < _MIN_FIT_POINTS:
        raise ValueError(
            f"fewer than {_MIN_FIT_POINTS} usable points in the fit window; "
            "n is too small for a rate fit")
    slope = np.polyfit(x[sel] ** 1.5, -np.log(q[sel]), 1)[0]
    if slope <= 0.0:
        raise ValueError("fitted decay rate is not positive")
    return float(FIT_SAFETY * slope)


@dataclass(frozen=True)
class BoundReport:
    """Fitted envelope constants and one-sided sums for one side over a grid
    of step counts.

    side is 'right_tail' for the fast-side bound on |G| and
    'left_difference' for the oscillatory-side bound on |G - approx_G|
    (names follow the c3 > 0 orientation; for c3 < 0 the spatial sides
    switch while the labels keep naming the bound).  C_fitted_per_n pairs
    each n with the minimal constant at the rate c_used, and sum_per_n with
    Corollary 1's one-sided sum of the same quantity over the same side.
    stable means the largest fitted C is within twice the median, the
    uniformity proxy.
    """

    side: str
    c_used: float
    C_fitted_per_n: tuple
    sup_C: float
    stable: bool
    sum_per_n: tuple


def _bound_report(side: str, c_used: float, power: float, n_values,
                  halves) -> BoundReport:
    """The report on one side from its (q, x) half of each table's split."""
    pairs = [(n, _minimal_constant(q, x, n, c_used, power))
             for n, (q, x) in zip(n_values, halves)]
    values = [c for _, c in pairs]
    sup_c = max(values)
    return BoundReport(
        side=side, c_used=c_used, C_fitted_per_n=tuple(pairs), sup_C=sup_c,
        stable=sup_c <= 2.0 * float(np.median(values)),
        sum_per_n=tuple((n, float(np.sum(q)))
                        for n, (q, _) in zip(n_values, halves)))


def _oscillation_side(g: GreenTable, e: SymbolExpansion):
    """Which side of the front carries the sign oscillations: 'left',
    'right', or None when n < 100 or the two counts tie.

    Counts sign alternations of Re G among entries above 1e-13 of its
    largest on each side of j = alpha*n.  For an admissible scheme the
    oscillatory side comes out left for c3 > 0 and right for c3 < 0.  Below
    n = 100 the wave packet has not developed.
    """
    if g.n < 100:
        return None
    d = g.offsets - e.alpha * g.n
    re = g.values.real
    floor = 1e-13 * float(np.max(np.abs(re)))
    left, right = [np.count_nonzero(np.diff(np.sign(v[np.abs(v) > floor])))
                   for v in (re[d < 0.0], re[d > 0.0])]
    if left == right:
        return None
    return "left" if left > right else "right"


def envelope_reports(stencil: Stencil, n_values):
    """Both envelope reports for one stencil over a grid of step counts, and
    the oscillation side of its largest table.

    Tables come from the direct route: the spectral route carries a relative
    noise floor near 1e-15 which the growing factor exp(+c * x**(3/2)) in the
    ratio turns into garbage at large x, while direct tables have exact zeros
    outside the support.  Each side's rate is fitted on the largest table.
    """
    audit = assumption_audit(stencil)
    if not audit.admissible:
        raise ValueError("stencil is not admissible for envelope analysis")
    e = audit.expansion
    n_values = _step_grid(n_values)
    splits = []
    for g in _direct_tables(stencil, n_values):
        splits.append(_one_sided(g, e))
    # Both rates come from the largest table, g, before any constant.
    c_fast, c_diff = [_fit_rate(*side) for side in splits[-1]]
    fast, osc = zip(*splits)
    return (_bound_report("right_tail", c_fast, 0.25, n_values, fast),
            _bound_report("left_difference", c_diff, 1.0, n_values, osc),
            _oscillation_side(g, e))


@dataclass(frozen=True)
class GrowthReport:
    """l1 growth measurements against the closed-form constant ell."""

    n_values: tuple
    l1_values: tuple
    ratios: tuple
    ell_target: float
    final_rel_error: float
    errors_decreasing: bool


def growth_series(stencil: Stencil, n_values) -> GrowthReport:
    """l1(G^n) / n**(1/8) along an increasing n grid, against ell.

    ell depends on |c3| alone: for c3 < 0 the Green's function is the
    reflection of that of a stencil with c3 > 0, with the same l1 norms.
    errors_decreasing reports whether |ratio - ell| is non-increasing along
    the grid.

    Only conservativity and a well defined ell (c3 != 0, c4 > 0) are
    required, so schemes outside the envelope assumptions, like the monotone
    upwind stencil, still produce a report; theirs simply fails to approach
    ell (monotone schemes have l1 identically 1, so ratios decay like
    n**(-1/8)).
    """
    n_values = list(map(_step_count, n_values))
    if any(b <= a for a, b in zip(n_values, n_values[1:])) or not n_values:
        raise ValueError("n_values must be strictly increasing and nonempty")
    e = expansion_coefficients(stencil)
    if not e.nondegenerate:
        raise ValueError(
            "growth constant undefined: c3 or c4 at rounding floor "
            f"(c3 = {e.c3:.3e}, c4 = {e.c4:.3e})")
    ell = growth_constant(abs(e.c3), e.c4)
    windows = (_spectral_window(stencil, n)[0] for n in n_values)
    l1 = [float(np.sum(np.abs(g.values))) for g in windows]
    ratios = [v / n ** 0.125 for n, v in zip(n_values, l1)]
    errors = [abs(r - ell) for r in ratios]
    decreasing = all(b <= a for a, b in zip(errors, errors[1:]))
    return GrowthReport(n_values=tuple(n_values), l1_values=tuple(l1),
                        ratios=tuple(ratios), ell_target=ell,
                        final_rel_error=errors[-1] / ell,
                        errors_decreasing=decreasing)


@dataclass(frozen=True)
class BVReport:
    """Uniform bounds on the cumulative sums of the Green's function.

    sup_cumsum_per_n[k] is sup over j of |sum_{l <= j} G_l^n| for the k-th
    step count from the spectral route; heaviside_linf_per_n holds the same
    number from the direct route, as the sup norm of the evolved Heaviside
    sequence.  max_identity_gap is the largest difference of the two routes
    over the grid.  stable means sup_overall is within 1.5 times the median
    of sup_cumsum_per_n, the uniformity proxy.
    """

    n_values: tuple
    sup_cumsum_per_n: tuple
    heaviside_linf_per_n: tuple
    sup_overall: float
    max_identity_gap: float
    stable: bool


def bv_bounds(stencil: Stencil, n_values) -> BVReport:
    """Sup of cumulative Green's sums per n, by two independent routes.

    Route one sums the windowed spectral table.  Route two is the sup norm
    of the evolved Heaviside sequence H, which by the identity
    (L_a^n H)_j = sum_{l <= j} G_l^n is the cumulative sum of the direct
    table together with the tails 0 and (sum a_l)^n.  Partial sums of a
    conservative table telescope to 1 at the right support edge, while the
    sup captures the overshoot of the oscillatory zone.
    """
    audit = assumption_audit(stencil)
    if not audit.admissible:
        raise ValueError("stencil is not admissible for bv analysis")
    n_values = _step_grid(n_values)
    total = abs(stencil.coefficient_sum())
    linfs = [max(float(np.max(np.abs(np.cumsum(g.values)))), total ** g.n)
             for g in _direct_tables(stencil, n_values)]
    # Partial sums are 0 left of the window and constant right of it.
    windows = (_spectral_window(stencil, n)[0] for n in n_values)
    sups = [float(np.max(np.abs(np.cumsum(g.values)))) for g in windows]
    sup_overall = max(sups)
    return BVReport(
        n_values=tuple(n_values), sup_cumsum_per_n=tuple(sups),
        heaviside_linf_per_n=tuple(linfs), sup_overall=sup_overall,
        max_identity_gap=max(abs(a - b) for a, b in zip(sups, linfs)),
        stable=sup_overall <= 1.5 * float(np.median(sups)))
