"""Envelope, summability, growth, and total-variation checks on Green's tables.

The Green's function of an admissible scheme splits at the transported front
j = alpha*n into a fast-decay side and an oscillatory side, each bounded by a
generalized-Gaussian envelope in the variable x = |j - alpha*n| / n**(1/3).
This module fits the decay rates, measures the minimal envelope constants on
exact tables, sums each side to confirm one-sided summability, tracks the
l1 growth law l1(G^n) / n**(1/8) -> ell, and bounds evolved BV data uniformly
in the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import ApproxParams, approx_G, growth_constant
from .green import (GreenTable, GridFunction, _direct_tables,
                    _spectral_window, evolve)
from .stencil import (
    KAPPA2_TOL,
    Stencil,
    SymbolExpansion,
    assumption_audit,
    expansion_coefficients,
)

__all__ = [
    "BoundReport",
    "GrowthReport",
    "BVReport",
    "fit_decay_rate",
    "check_bound1",
    "check_bound2",
    "envelope_reports",
    "corollary1_sums",
    "growth_series",
    "bv_bounds",
    "bv_apply_bound",
    "total_variation",
    "oscillation_side",
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


def _require_admissible_expansion(e: SymbolExpansion) -> None:
    if e.kappa2 > KAPPA2_TOL:
        raise ValueError(
            f"expansion has nonvanishing second cumulant ({e.kappa2:.3e}); "
            "envelope analysis needs kappa2 = 0")
    if not e.nondegenerate:
        raise ValueError(
            "expansion is degenerate (c3 or c4 at rounding floor); "
            f"c3 = {e.c3:.3e}, c4 = {e.c4:.3e}")


def _sides(g: GreenTable, e: SymbolExpansion):
    """x = |j - alpha*n| / n**(1/3) and the fast-side mask on g's support.

    For c3 > 0 the fast side is j - alpha*n >= 0 and the oscillatory side is
    j - alpha*n < 0; the sides switch with the sign of c3.  The front point
    itself belongs to the fast side.
    """
    d = g.offsets - e.alpha * g.n
    fast = d >= 0.0 if e.c3 > 0 else d <= 0.0
    return np.abs(d) / g.n ** (1.0 / 3.0), fast


def _difference(g: GreenTable, e: SymbolExpansion) -> np.ndarray:
    """|G - approx_G| on g's support."""
    params = ApproxParams.from_expansion(e)
    return np.abs(g.values - approx_G(params, g.n, g.offsets))


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


def fit_decay_rate(g: GreenTable, e: SymbolExpansion, side: str) -> float:
    """Exponential rate c for the envelope on the requested side.

    side 'fast' regresses -log|G| against x**(3/2) over FIT_WINDOW; side
    'difference' does the same for |G - approx_G|.  The slope is shrunk by
    FIT_SAFETY so the fitted constant C, not the rate, carries the slack.
    Run this on the largest n of a study and reuse the rate for smaller n.
    """
    _require_admissible_expansion(e)
    x, fast = _sides(g, e)
    if side == "fast":
        q, mask = np.abs(g.values), fast
    elif side == "difference":
        q, mask = _difference(g, e), ~fast
    else:
        raise ValueError("side must be 'fast' or 'difference'")
    return _fit_rate(q[mask], x[mask])


def check_bound1(g: GreenTable, e: SymbolExpansion, c_used: float) -> float:
    """Minimal C in the fast-side bound with prefactor min(1, x**(-1/4)).

    |G_j^n| <= (C / n**(1/3)) * min(1, x**(-1/4)) * exp(-c_used * x**(3/2))
    for all j with j - alpha*n on the fast side (>= 0 for c3 > 0, <= 0 for
    c3 < 0), where x = |j - alpha*n| / n**(1/3).
    """
    _require_admissible_expansion(e)
    x, fast = _sides(g, e)
    return _minimal_constant(np.abs(g.values)[fast], x[fast], g.n, c_used,
                             0.25)


def check_bound2(g: GreenTable, e: SymbolExpansion, c_used: float) -> float:
    """Minimal C in the oscillatory-side bound on |G - approx_G|.

    |G_j^n - approx_G_j^n| <= (C / n**(1/3)) * min(1, 1/x) * exp(-c_used *
    x**(3/2)) for j - alpha*n on the oscillatory side (< 0 for c3 > 0,
    > 0 for c3 < 0).
    """
    _require_admissible_expansion(e)
    x, fast = _sides(g, e)
    return _minimal_constant(_difference(g, e)[~fast], x[~fast], g.n, c_used,
                             1.0)


@dataclass(frozen=True)
class BoundReport:
    """Fitted envelope constants for one side over a grid of step counts.

    side is 'right_tail' for the fast-side bound on |G| and
    'left_difference' for the oscillatory-side bound on |G - approx_G|
    (names follow the c3 > 0 orientation; for c3 < 0 the spatial sides
    switch while the labels keep naming the bound).  stable means the
    largest fitted C is within twice the median, the uniformity proxy.
    """

    side: str
    c_used: float
    C_fitted_per_n: tuple
    sup_C: float
    stable: bool


def _assemble_bound_report(side: str, c_used: float, pairs) -> BoundReport:
    values = [c for _, c in pairs]
    sup_c = max(values)
    stable = sup_c <= 2.0 * float(np.median(values))
    return BoundReport(side=side, c_used=c_used, C_fitted_per_n=tuple(pairs),
                       sup_C=sup_c, stable=stable)


def envelope_reports(stencil: Stencil, n_values=(250, 500, 1000, 2000)):
    """Both envelope reports for one stencil over a grid of step counts.

    Tables come from the direct route: the spectral route carries a relative
    noise floor near 1e-15 which the growing factor exp(+c * x**(3/2)) in the
    ratio turns into garbage at large x, while direct tables have exact zeros
    outside the support.  The rates are fit_decay_rate's at the largest n.
    """
    audit = assumption_audit(stencil)
    if not audit.admissible:
        raise ValueError("stencil is not admissible for envelope analysis")
    e = audit.expansion
    n_values = sorted(int(n) for n in n_values)
    if not n_values or n_values[0] < 1:
        raise ValueError("n_values must be positive integers")
    # One pass per table; the largest one also feeds the rate fits.
    fast_side, osc_side = {}, {}
    for g in _direct_tables(stencil, n_values):
        x, fast = _sides(g, e)
        fast_side[g.n] = np.abs(g.values)[fast], x[fast]
        osc_side[g.n] = _difference(g, e)[~fast], x[~fast]
    c_fast = _fit_rate(*fast_side[n_values[-1]])
    c_diff = _fit_rate(*osc_side[n_values[-1]])
    pairs1 = [(n, _minimal_constant(*fast_side[n], n, c_fast, 0.25))
              for n in n_values]
    pairs2 = [(n, _minimal_constant(*osc_side[n], n, c_diff, 1.0))
              for n in n_values]
    return (_assemble_bound_report("right_tail", c_fast, pairs1),
            _assemble_bound_report("left_difference", c_diff, pairs2))


def corollary1_sums(g: GreenTable, e: SymbolExpansion):
    """One-sided absolute sums (fast-side sum of |G|, oscillatory-side sum
    of |G - approx_G|).

    Both stay bounded uniformly in n even though the full l1 norm grows like
    n**(1/8); the growth lives entirely in the oscillatory side of G itself.
    """
    _require_admissible_expansion(e)
    _, fast = _sides(g, e)
    return (float(np.sum(np.abs(g.values)[fast])),
            float(np.sum(_difference(g, e)[~fast])))


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

    For c3 < 0 the spatially reflected stencil is analyzed instead: its
    Green's function is the reflection of the original, so every l1 norm is
    unchanged, and its c3 is positive.  errors_decreasing reports whether
    |ratio - ell| is non-increasing along the grid.

    Only conservativity and a well defined ell (c3 != 0, c4 > 0) are
    required, so schemes outside the envelope assumptions, like the monotone
    upwind stencil, still produce a report; theirs simply fails to approach
    ell (monotone schemes have l1 identically 1, so ratios decay like
    n**(-1/8)).
    """
    n_values = [int(n) for n in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])) or not n_values:
        raise ValueError("n_values must be strictly increasing and nonempty")
    if n_values[0] < 1:
        raise ValueError("n_values must be positive")
    e = expansion_coefficients(stencil)
    if not e.nondegenerate:
        raise ValueError(
            "growth constant undefined: c3 or c4 at rounding floor "
            f"(c3 = {e.c3:.3e}, c4 = {e.c4:.3e})")
    if e.c3 < 0.0:
        stencil = stencil.reflected()
        e = expansion_coefficients(stencil)
    ell = growth_constant(e.c3, e.c4)
    l1 = []
    for n in n_values:
        g, _ = _spectral_window(stencil, n)
        l1.append(float(np.sum(np.abs(g.values))))
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
    sequence.
    """

    n_values: tuple
    sup_cumsum_per_n: tuple
    sup_overall: float
    heaviside_linf_per_n: tuple


def _grid_linf(u: GridFunction) -> float:
    window = float(np.max(np.abs(np.asarray(u.values)))) if len(u.values) else 0.0
    return max(window, abs(u.left_tail), abs(u.right_tail))


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
    n_values = sorted(int(n) for n in n_values)
    if not n_values or n_values[0] < 1:
        raise ValueError("n_values must be positive integers")
    total = abs(stencil.coefficient_sum())
    linfs = [max(float(np.max(np.abs(np.cumsum(g.values)))), total ** g.n)
             for g in _direct_tables(stencil, n_values)]
    sups = []
    for n in n_values:
        # Partial sums are 0 left of the window and constant right of it.
        g, _ = _spectral_window(stencil, n)
        sups.append(float(np.max(np.abs(np.cumsum(g.values)))))
    return BVReport(n_values=tuple(n_values), sup_cumsum_per_n=tuple(sups),
                    sup_overall=max(sups), heaviside_linf_per_n=tuple(linfs))


def total_variation(u: GridFunction) -> float:
    """Total variation of the bi-infinite sequence, tail jumps included."""
    vals = np.asarray(u.values)
    inner = float(np.sum(np.abs(np.diff(vals)))) if len(vals) > 1 else 0.0
    left_jump = abs(vals[0] - u.left_tail)
    right_jump = abs(u.right_tail - vals[-1])
    return inner + float(left_jump) + float(right_jump)


def bv_apply_bound(stencil: Stencil, u: GridFunction, n_values):
    """Sup over the n grid of the evolved sup norm, and the data's variation.

    Requires a declared zero left tail (data vanishing at -infinity); the
    ratio sup_linf / bv_norm is the empirical stability constant even though
    powers of the operator are unbounded on l-infinity.
    """
    if u.left_tail != 0:
        raise ValueError("bv_apply_bound needs a declared zero left tail")
    n_values = sorted(int(n) for n in n_values)
    if not n_values or n_values[0] < 1:
        raise ValueError("n_values must be positive integers")
    bv_norm = total_variation(u)
    sup_linf = 0.0
    done = 0
    for n in n_values:
        u = evolve(stencil, u, n - done)
        done = n
        sup_linf = max(sup_linf, _grid_linf(u))
    return sup_linf, bv_norm


def oscillation_side(g: GreenTable, e: SymbolExpansion) -> str:
    """Which side of the front carries the sign oscillations, left or right.

    Counts sign alternations of Re G among entries above 1e-13 of its
    largest on each side of j = alpha*n.  For an admissible scheme the
    oscillatory side must come out left for c3 > 0 and right for c3 < 0.
    Needs n >= 100, so that the wave packet has developed.
    """
    _require_admissible_expansion(e)
    if g.n < 100:
        raise ValueError(f"n = {g.n} is below the minimum 100 for a "
                         "meaningful oscillation count")
    d = g.offsets - e.alpha * g.n
    re = np.asarray(g.values).real
    floor = 1e-13 * float(np.max(np.abs(re)))

    def alternations(mask):
        v = re[mask]
        v = v[np.abs(v) > floor]
        if len(v) < 2:
            return 0
        return int(np.count_nonzero(np.sign(v[:-1]) != np.sign(v[1:])))

    left = alternations(d < 0.0)
    right = alternations(d > 0.0)
    if left == 0 and right == 0:
        raise ValueError("no sign alternations detected on either side")
    if left == right:
        raise ValueError("sign alternation counts tie; side is ambiguous")
    return "left" if left > right else "right"
