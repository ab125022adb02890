import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dgreen import analysis
from dgreen.analysis import bv_bounds, envelope_reports, growth_series
from dgreen.approx import ApproxParams, approx_G, approx_H, growth_constant
from dgreen.green import (GreenTable, GridFunction, WorkBudgetError,
                          _direct_tables, evolve, green_direct, green_spectral,
                          spectral_sweep)
from dgreen.stencil import Stencil, beam_warming, expansion_coefficients, lax_wendroff
from references import (bv_apply_bound, corollary1_sums, heaviside_sup,
                        oscillation_side, reflect, total_variation)

LW34 = lax_wendroff(0.75)
LW34_E = expansion_coefficients(LW34)
LW34_PARAMS = ApproxParams.from_expansion(LW34_E)


def bound_constant(g, e, c_used, side):
    """The minimal envelope constant at rate c_used on one side of g's split,
    0 the fast side (|G|, prefactor power 1/4) and 1 the oscillatory side
    (|G - approx_G|, power 1)."""
    q, x = analysis._one_sided(g, e)[side]
    return analysis._minimal_constant(q, x, g.n, c_used, (0.25, 1.0)[side])


class TestFittedRates:
    def test_fast_rate_near_beta1(self):
        rep1, _, _ = envelope_reports(LW34, (2000,))
        beta1 = ApproxParams.from_expansion(LW34_E).beta1
        # 0.8 shrink of a slope slightly above beta1
        assert 0.5 * beta1 < rep1.c_used < 1.1 * beta1

    def test_difference_rate_positive(self):
        _, rep2, _ = envelope_reports(LW34, (2000,))
        assert 0 < rep2.c_used < 1.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="too small for a rate fit"):
            envelope_reports(LW34, (8,))


class TestBoundChecks:
    def test_finite_at_n1(self):
        g = green_direct(LW34, 1)
        assert math.isfinite(bound_constant(g, LW34_E, 0.5, 0))
        assert math.isfinite(bound_constant(g, LW34_E, 0.5, 1))

    def test_doubling_c_increases_constant(self):
        g = green_direct(LW34, 500)
        assert (bound_constant(g, LW34_E, 1.0, 0)
                < bound_constant(g, LW34_E, 2.0, 0))
        assert (bound_constant(g, LW34_E, 0.05, 1)
                < bound_constant(g, LW34_E, 0.10, 1))

    def test_degenerate_expansion_rejected(self):
        # pure shift has c3 = c4 = 0
        with pytest.raises(ValueError, match="not admissible"):
            envelope_reports(lax_wendroff(1.0), (100,))

    def test_nonpositive_rate_rejected(self):
        g = green_direct(LW34, 100)
        with pytest.raises(ValueError):
            bound_constant(g, LW34_E, 0.0, 0)

    def test_envelope_underflow_signalled(self):
        g = green_direct(LW34, 250)
        with pytest.raises(ValueError):
            bound_constant(g, LW34_E, 60.0, 0)

    def test_bound2_side_switches_with_c3(self):
        # same distances, mirrored stencils: constants agree exactly
        bw = beam_warming(0.5)
        bw_e = expansion_coefficients(bw)
        rw = reflect(bw)
        rw_e = expansion_coefficients(rw)
        g = green_direct(bw, 400)
        h = green_direct(rw, 400)
        assert bound_constant(g, bw_e, 0.05, 1) == pytest.approx(
            bound_constant(h, rw_e, 0.05, 1), rel=1e-12)
        assert bound_constant(g, bw_e, 1.0, 0) == pytest.approx(
            bound_constant(h, rw_e, 1.0, 0), rel=1e-12)

    def test_reports_switch_with_c3(self):
        bw = beam_warming(0.5)
        reports = envelope_reports(bw, (200, 400))
        mirrored = envelope_reports(reflect(bw), (200, 400))
        assert reports[2] == "right" and mirrored[2] == "left"
        for rep, ref in zip(reports[:2], mirrored[:2]):
            assert rep.c_used == pytest.approx(ref.c_used, rel=1e-12)
            for field in ("C_fitted_per_n", "sum_per_n"):
                for (n, c), (m, d) in zip(getattr(rep, field),
                                          getattr(ref, field)):
                    assert n == m and c == pytest.approx(d, rel=1e-12)


class TestEnvelopeReports:
    def test_lw_stable(self):
        rep1, rep2, side = envelope_reports(LW34, (250, 500, 1000))
        assert rep1.side == "right_tail"
        assert rep2.side == "left_difference"
        assert side == "left"
        for rep in (rep1, rep2):
            assert rep.stable
            assert rep.sup_C == max(c for _, c in rep.C_fitted_per_n)
            assert [n for n, _ in rep.C_fitted_per_n] == [250, 500, 1000]
            assert [n for n, _ in rep.sum_per_n] == [250, 500, 1000]
            assert all(c > 0 for _, c in rep.C_fitted_per_n)
            assert all(v > 0 for _, v in rep.sum_per_n)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            envelope_reports(Stencil(0, (0.25, 0.75)), (100, 200))


class TestOneSplit:
    """Every reader of a table's two sides sees the same split at the front."""

    @pytest.mark.parametrize("stencil", [
        LW34, lax_wendroff(0.3), beam_warming(0.5), beam_warming(1.5)])
    def test_readers_agree(self, stencil):
        n_values = (250, 500, 1000)
        e = expansion_coefficients(stencil)
        tables = [green_direct(stencil, n) for n in n_values]
        rep1, rep2, side = envelope_reports(stencil, n_values)
        fast, osc = analysis._one_sided(tables[-1], e)
        assert rep1.c_used == analysis._fit_rate(*fast)
        assert rep2.c_used == analysis._fit_rate(*osc)
        assert rep1.C_fitted_per_n == tuple(
            (g.n, bound_constant(g, e, rep1.c_used, 0)) for g in tables)
        assert rep2.C_fitted_per_n == tuple(
            (g.n, bound_constant(g, e, rep2.c_used, 1)) for g in tables)
        sums = [corollary1_sums(g, e) for g in tables]
        assert rep1.sum_per_n == tuple(
            (g.n, fast) for g, (fast, _) in zip(tables, sums))
        assert rep2.sum_per_n == tuple(
            (g.n, osc) for g, (_, osc) in zip(tables, sums))
        assert side == oscillation_side(tables[-1], e)


DELTA = GridFunction(0, (1.0,))

# Every route and report that takes a step count, called with one count n.
STEP_COUNT_READERS = {
    "green_direct": lambda n: green_direct(LW34, n),
    "green_spectral": lambda n: green_spectral(LW34, n),
    "spectral_sweep": lambda n: spectral_sweep(LW34, n),
    "evolve": lambda n: evolve(LW34, DELTA, n),
    "envelope_reports": lambda n: envelope_reports(LW34, (n,)),
    "bv_bounds": lambda n: bv_bounds(LW34, (n,)),
    "bv_apply_bound": lambda n: bv_apply_bound(LW34, DELTA, (n,)),
    "growth_series": lambda n: growth_series(LW34, (n,)),
    "approx_G": lambda n: approx_G(LW34_PARAMS, n, np.arange(-5, 11)),
    "approx_H": lambda n: approx_H(LW34_PARAMS, n, np.arange(-5, 11)),
}


@pytest.mark.parametrize("name", STEP_COUNT_READERS)
class TestStepCountGate:
    @pytest.mark.parametrize("n", [2.5, True, 0, -1, math.nan])
    def test_refused(self, name, n):
        if name == "evolve" and n == 0:
            assert evolve(LW34, DELTA, n) is DELTA
            return
        with pytest.raises(ValueError,
                           match="n_values must be positive integers"):
            STEP_COUNT_READERS[name](n)

    def test_numpy_integer_same_bytes(self, name):
        read = STEP_COUNT_READERS[name]
        assert pickle.dumps(read(np.int64(300))) == pickle.dumps(read(300))

    def test_past_float64_exact_range(self, name):
        for n in (2 ** 53 + 1, 10 ** 400):
            with pytest.raises(WorkBudgetError, match="2\\*\\*53"):
                STEP_COUNT_READERS[name](n)


def test_one_sided_builds_one_index_array(monkeypatch):
    tables = list(_direct_tables(LW34, [300, 500]))
    lengths = []
    arange = np.arange

    def spy(*args, **kwargs):
        out = arange(*args, **kwargs)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(np, "arange", spy)
    for g in tables:
        for _ in range(2):
            analysis._one_sided(g, LW34_E)
    assert [n for n in lengths if n in (601, 1001)] == [601, 1001]


class TestStepGrid:
    @pytest.mark.parametrize("n_values", [(), (0, 100), (-5,), (2.5,),
                                          (True, 100), (10.9, 100)])
    def test_empty_or_nonpositive_refused(self, n_values):
        for check in (lambda: envelope_reports(LW34, n_values),
                      lambda: bv_bounds(LW34, n_values),
                      lambda: bv_apply_bound(LW34, DELTA, n_values)):
            with pytest.raises(ValueError,
                               match="n_values must be positive integers"):
                check()

    @pytest.mark.parametrize("n_values", [(0, 100), (2.5,), (True, 100),
                                          (10.9, 100)])
    def test_growth_nonpositive_refused(self, n_values):
        with pytest.raises(ValueError, match="n_values must be positive"):
            growth_series(LW34, n_values)

    def test_numpy_integers_pass(self):
        n_values = (np.int32(100), np.int64(300))
        assert bv_bounds(LW34, n_values).n_values == (100, 300)
        assert growth_series(LW34, np.array(n_values)).n_values == (100, 300)

    def test_duplicates_keep_their_rows(self):
        rep1, rep2, _ = envelope_reports(LW34, (1000, 250, 250))
        for rep in (rep1, rep2):
            assert [n for n, _ in rep.C_fitted_per_n] == [250, 250, 1000]
            assert rep.C_fitted_per_n[0] == rep.C_fitted_per_n[1]
            assert rep.sum_per_n[0] == rep.sum_per_n[1]
        rep = bv_bounds(LW34, (1000, 100, 100))
        assert rep.n_values == (100, 100, 1000)
        assert rep.sup_cumsum_per_n[0] == rep.sup_cumsum_per_n[1]


class TestWorkCap:
    def test_reports_refused_before_loop(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the cap was checked")
        monkeypatch.setattr(np, "convolve", fail)
        monkeypatch.setattr(analysis, "_spectral_window", fail)
        with pytest.raises(WorkBudgetError):
            bv_bounds(LW34, (100, 10 ** 6))
        with pytest.raises(WorkBudgetError):
            envelope_reports(LW34, (250, 10 ** 6))


class TestOneSidedSums:
    def test_fast_sum_below_l1(self):
        rep1, rep2, _ = envelope_reports(LW34, (100, 400))
        for (n, fast), (_, osc) in zip(rep1.sum_per_n, rep2.sum_per_n):
            l1 = float(np.sum(np.abs(green_direct(LW34, n).values)))
            assert 0.0 < fast < l1
            assert osc > 0.0

    def test_decomposition(self):
        n = 800
        rep1, rep2, _ = envelope_reports(LW34, (n,))
        (_, right), = rep1.sum_per_n
        (_, left_diff), = rep2.sum_per_n
        g = green_direct(LW34, n)
        d = g.offsets - LW34_E.alpha * n
        osc = d < 0
        approx_sum = float(np.sum(np.abs(
            approx_G(LW34_PARAMS, n, g.offsets)[osc])))
        full_l1 = float(np.sum(np.abs(g.values)))
        # triangle inequality around the oscillatory-side approximation
        assert abs(full_l1 - right - approx_sum) <= left_diff + 1e-12

    def test_negative_c3_sides(self):
        bw = beam_warming(0.5)
        rep1, rep2, _ = envelope_reports(bw, (400,))
        ref1, ref2, _ = envelope_reports(reflect(bw), (400,))
        (_, right), = rep1.sum_per_n
        (_, left_diff), = rep2.sum_per_n
        assert right > 0 and left_diff > 0
        # mirrored scheme gives identical split
        assert right == pytest.approx(ref1.sum_per_n[0][1], rel=1e-12)
        assert left_diff == pytest.approx(ref2.sum_per_n[0][1], rel=1e-12)


class TestGrowthSeries:
    def test_lw_report_shape(self):
        rep = growth_series(LW34, (50, 200))
        assert rep.n_values == (50, 200)
        assert len(rep.l1_values) == len(rep.ratios) == 2
        assert rep.ell_target == pytest.approx(
            growth_constant(LW34_E.c3, LW34_E.c4), rel=1e-15)
        assert rep.errors_decreasing

    def test_monotone_upwind_ratios(self):
        rep = growth_series(Stencil(0, (0.25, 0.75)), (64, 256))
        assert_allclose(rep.l1_values, [1.0, 1.0], atol=1e-12)
        assert_allclose(rep.ratios, [64 ** -0.125, 256 ** -0.125],
                        atol=1e-12)

    def test_negative_c3_matches_reflection(self):
        bw = beam_warming(0.5)
        rep = growth_series(bw, (100, 400))
        ref = growth_series(reflect(bw), (100, 400))
        assert rep.ell_target == pytest.approx(ref.ell_target, rel=1e-15)
        assert_allclose(rep.l1_values, ref.l1_values, rtol=1e-12)

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            growth_series(LW34, (100, 100))

    def test_shift_rejected(self):
        with pytest.raises(ValueError):
            growth_series(lax_wendroff(1.0), (10, 20))


class TestBVBounds:
    def test_identity_between_routes(self):
        rep = bv_bounds(LW34, (50, 200))
        gaps = [abs(a - b) for a, b in zip(rep.sup_cumsum_per_n,
                                           rep.heaviside_linf_per_n)]
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.3),
                                         beam_warming(0.36)])
    def test_routes_power_one_stencil(self, stencil):
        # Float coefficients that sum to 1 + delta: a spectral route that
        # powered a stencil of sum 1 read gaps of 1.3e-13 and 3.1e-13.
        rep = bv_bounds(stencil, (100, 1000, 3000))
        assert rep.max_identity_gap <= 1e-14

    def test_verdict_in_report(self):
        rep = bv_bounds(LW34, (100, 1000, 3000))
        assert rep.max_identity_gap == max(
            abs(a - b) for a, b in zip(rep.sup_cumsum_per_n,
                                       rep.heaviside_linf_per_n))
        assert rep.stable is (
            rep.sup_overall <= 1.5 * float(np.median(rep.sup_cumsum_per_n)))
        assert rep.stable

    def test_cumsum_telescopes_to_one(self):
        g = green_spectral(LW34, 200)
        cs = np.cumsum(g.values)
        assert abs(complex(cs[-1]) - 1.0) <= 1e-12

    def test_n1_bounded_by_l1(self):
        rep = bv_bounds(LW34, (1,))
        assert rep.sup_overall <= float(np.sum(np.abs(LW34.as_array()))) + 1e-15

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            bv_bounds(Stencil(0, (0.25, 0.75)), (10,))


class TestBVApplyBound:
    def test_delta_variation(self):
        sup, tv = bv_apply_bound(LW34, GridFunction(0, (1.0,)), (1, 8, 64))
        assert tv == 2.0
        assert sup <= 2.0

    def test_heaviside_matches_bv_bounds(self):
        rep = bv_bounds(LW34, (200,))
        assert heaviside_sup(LW34, 200) == pytest.approx(
            rep.sup_cumsum_per_n[0], abs=1e-12)

    def test_total_variation_includes_tail_jumps(self):
        # The jumps from and to the zeros outside the window count.
        u = GridFunction(0, (0.25, 1.0, 0.5))
        assert total_variation(u) == pytest.approx(
            0.25 + 0.75 + 0.5 + 0.5, abs=1e-15)

    def test_box_overshoot_bounded(self):
        # step data of unit height: overshoot stays below the variation
        box = GridFunction(0, np.ones(120))
        sup, tv = bv_apply_bound(LW34, box, (300,))
        assert tv == 2.0
        assert 1.0 < sup < tv


class TestOscillationSide:
    @pytest.mark.parametrize("stencil,side", [
        (LW34, "left"),
        (beam_warming(1.5), "left"),
        (beam_warming(0.5), "right"),
    ])
    def test_sides(self, stencil, side):
        assert envelope_reports(stencil, (250, 600))[2] == side
        g = green_spectral(stencil, 600)
        assert oscillation_side(g, expansion_coefficients(stencil)) == side

    @pytest.mark.parametrize("stencil", [
        *(lax_wendroff(lam) for lam in (0.05, 0.3, 0.5, 0.95)),
        *(beam_warming(lam) for lam in (0.1, 0.5, 0.9, 1.1, 1.5, 1.95)),
        Stencil(-2, tuple(np.convolve(lax_wendroff(0.75).as_array().real,
                                      lax_wendroff(0.5).as_array().real)),
                label="lw(0.75)*lw(0.5)"),
    ], ids=lambda s: s.label)
    @pytest.mark.parametrize("n", [100, 700, 2000])
    def test_matches_reference_and_c3(self, stencil, n):
        e = expansion_coefficients(stencil)
        g = green_direct(stencil, n)
        side = analysis._oscillation_side(g, e)
        assert side == oscillation_side(g, e)
        assert side == ("left" if e.c3 > 0 else "right")

    def test_small_n_has_no_side(self):
        g = green_direct(LW34, 99)
        assert analysis._oscillation_side(g, LW34_E) is None
        assert oscillation_side(g, LW34_E) is None
        assert envelope_reports(LW34, (20, 40))[2] is None

    def test_tie_has_no_side(self):
        flat = GreenTable(n=100, min_offset=0, values=np.ones(5),
                          method="direct")
        assert analysis._oscillation_side(flat, LW34_E) is None
        assert oscillation_side(flat, LW34_E) is None
