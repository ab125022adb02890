import bisect
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dgreen import green
from dgreen.analysis import bv_bounds, growth_series
from dgreen.green import (
    GreenTable,
    GridFunction,
    MEMORY_BUDGET_ENV,
    MemoryBudgetError,
    WorkBudgetError,
    _spectral_size,
    _spectral_window,
    cell_average_indicator,
    evolve,
    green_direct,
    green_spectral,
    norms,
    sample_step,
    spectral_sweep,
)
from dgreen.stencil import (
    Stencil,
    assumption_audit,
    beam_warming,
    lax_wendroff,
    symbol_eval,
)


def delta():
    return GridFunction(min_index=0, values=(1.0,))


COMPLEX = Stencil(-1, (0.25 - 0.05j, 0.5 + 0.1j, 0.25 - 0.05j))


def step_loop(stencil, u, n):
    """Reference evolution: n single steps on a window padded with the tails."""
    kernel = stencil.as_array()
    width = stencil.support_width
    total = stencil.coefficient_sum()
    values, lo = u.values, u.min_index
    left, right = complex(u.left_tail), complex(u.right_tail)
    for _ in range(n):
        padded = np.concatenate([np.full(width, left), values,
                                 np.full(width, right)])
        values = np.convolve(kernel, padded)[width:width + len(values) + width]
        lo += stencil.min_offset
        left, right = left * total, right * total
    return GridFunction(lo, values, left_tail=left, right_tail=right)


class TestGridFunction:
    def test_tails(self):
        u = GridFunction(2, (1.0, 2.0), left_tail=-1.0, right_tail=3.0)
        assert u.value_at(1) == -1.0
        assert u.value_at(2) == 1.0
        assert u.value_at(3) == 2.0
        assert u.value_at(4) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(0, ())


class TestApply:
    def test_single_step_is_stencil(self):
        s = lax_wendroff(0.75)
        u = evolve(s, delta(), 1)
        assert u.min_index == s.min_offset
        assert_allclose(u.values, s.as_array(), atol=0)

    def test_convolution_identity(self):
        # (L_a u)_j = sum_l a_l u_{j-l} checked entrywise on a dense window
        s = beam_warming(1.5)
        u = GridFunction(-1, (0.5, -1.0, 2.0, 0.25))
        v = evolve(s, u, 1)
        for j in range(v.min_index - 2, v.max_index + 3):
            expected = sum(s.coefficient(l) * u.value_at(j - l)
                           for l in range(s.min_offset, s.max_offset + 1))
            assert v.value_at(j) == pytest.approx(expected, abs=1e-15)

    def test_constant_tails_propagate(self):
        s = lax_wendroff(0.5)
        u = GridFunction(0, (0.3,), left_tail=1.0, right_tail=2.0)
        v = evolve(s, u, 1)
        # conservative stencil maps constant tails to themselves
        assert v.left_tail == pytest.approx(1.0, abs=1e-15)
        assert v.right_tail == pytest.approx(2.0, abs=1e-15)


class TestGreenTables:
    def test_n1_is_stencil(self):
        s = lax_wendroff(0.75)
        g = green_direct(s, 1)
        assert g.min_offset == -1
        assert_allclose(g.values, s.as_array(), atol=0)

    def test_n2_explicit_self_convolution(self):
        s = lax_wendroff(0.5)
        g = green_direct(s, 2)
        a = s.as_array()
        assert_allclose(g.values, np.convolve(a, a), atol=1e-16)

    @pytest.mark.parametrize("make,lam", [(lax_wendroff, 0.75),
                                          (beam_warming, 1.5),
                                          (beam_warming, 0.5)])
    @pytest.mark.parametrize("n", (1, 2, 7, 50, 64))
    def test_direct_vs_spectral(self, make, lam, n):
        s = make(lam)
        gd = green_direct(s, n)
        gs = green_spectral(s, n)
        assert gd.min_offset == gs.min_offset
        assert len(gd.values) == len(gs.values)
        assert np.max(np.abs(gd.values - gs.values)) <= 1e-10

    def test_value_at_outside_support(self):
        g = green_direct(lax_wendroff(0.75), 3)
        assert g.value_at(10) == 0.0
        assert g.value_at(-10) == 0.0

    def test_pure_shift_spectral(self):
        g = green_spectral(beam_warming(2.0), 5)
        assert g.min_offset == 10
        assert_allclose(g.values, [1.0], atol=0)

    def test_conservation_direct(self):
        g = green_direct(beam_warming(1.5), 40)
        assert complex(g.values.sum()).real == pytest.approx(1.0, abs=1e-12)

    def test_evolve_delta_matches_green(self):
        s = lax_wendroff(0.75)
        g = green_direct(s, 9)
        u = evolve(s, delta(), 9)
        assert u.min_index == g.min_offset
        assert_allclose(u.values, g.values, atol=1e-15)

    def test_memory_budget_refusal(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1.0")
        with pytest.raises(MemoryBudgetError):
            green_spectral(lax_wendroff(0.75), 100000)

    def test_memory_budget_env(self, monkeypatch):
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", "0.001")
        with pytest.raises(MemoryBudgetError):
            green_spectral(lax_wendroff(0.75), 10000)

    def test_direct_budget_checked_before_work(self, monkeypatch):
        # Three complex tables of 2n + 1 entries: 0.096 MB at n = 1000.
        s = lax_wendroff(0.75)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.095")
        with pytest.raises(MemoryBudgetError):
            green_direct(s, 1000)
        with pytest.raises(MemoryBudgetError):
            evolve(s, delta(), 1000)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.097")
        green_direct(s, 1000)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "nan")
        with pytest.raises(ValueError, match=MEMORY_BUDGET_ENV):
            green_direct(s, 1000)

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), beam_warming(1.5), COMPLEX,
        Stencil(-2, (0.05, 0.2, 0.5, 0.2, 0.05))])
    def test_direct_traced_peak_within_model(self, stencil):
        n_values = [1000, 2000]
        modelled = 16 * 3 * (n_values[-1] * stencil.support_width + 1)
        for tables in (lambda: green_direct(stencil, n_values[-1]),
                       lambda: [g.n for g in green._direct_tables(stencil,
                                                                  n_values)]):
            tracemalloc.start()
            try:
                tables()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= modelled


class TestEvolveEquivalence:
    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), beam_warming(1.5), COMPLEX,
        Stencil(-1, (0.1, 0.7, 0.1)),            # not conservative
    ])
    @pytest.mark.parametrize("kind", ("real", "complex"))
    @pytest.mark.parametrize("n", (0, 1, 7, 50))
    def test_matches_step_loop(self, stencil, kind, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=9)
        left, right = 0.5, -1.5
        if kind == "complex":
            values = values + 1j * rng.normal(size=9)
            left, right = 0.5 - 0.25j, -1.5 + 2j
        u = GridFunction(-3, values, left_tail=left, right_tail=right)
        got, want = evolve(stencil, u, n), step_loop(stencil, u, n)
        assert got.min_index == want.min_index
        assert len(got.values) == len(want.values)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13
        assert abs(got.left_tail - want.left_tail) <= 1e-13
        assert abs(got.right_tail - want.right_tail) <= 1e-13

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.75),
                                         beam_warming(0.5), COMPLEX])
    @pytest.mark.parametrize("n", (1, 7, 50))
    def test_delta_is_green_bit_for_bit(self, stencil, n):
        u = evolve(stencil, delta(), n)
        g = green_direct(stencil, n)
        assert u.min_index == g.min_offset
        assert np.array_equal(u.values, g.values)

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.75), COMPLEX])
    def test_one_pass_tables_match_separate_calls(self, stencil):
        n_values = [1, 1, 7, 50, 64]
        tables = list(green._direct_tables(stencil, n_values))
        assert [g.n for g in tables] == n_values
        for g in tables:
            ref = green_direct(stencil, g.n)
            assert g.min_offset == ref.min_offset
            assert g.values.dtype == ref.values.dtype == complex
            assert np.array_equal(g.values, ref.values)


@st.composite
def admissible_stencils(draw):
    """Real conservative admissible stencils of 3 to 5 points.

    Three coefficients are solved for so that sum a = 1, the drift is alpha
    and the second cumulant vanishes; the rest are drawn freely.
    """
    width = draw(st.integers(2, 4))
    lo = draw(st.integers(-2, 0))
    offsets = np.arange(lo, lo + width + 1)
    alpha = draw(st.floats(lo, lo + width, exclude_min=True,
                           exclude_max=True))
    coeffs = np.zeros(width + 1)
    solved = [0, width // 2, width]
    free = [k for k in range(width + 1) if k not in solved]
    coeffs[free] = draw(st.lists(st.floats(-0.5, 0.5), min_size=len(free),
                                 max_size=len(free)))
    rows = np.vstack([np.ones(width + 1), offsets, offsets ** 2.0])
    rhs = np.array([1.0, alpha, alpha * alpha]) - rows @ coeffs
    coeffs[solved] = np.linalg.solve(rows[:, solved], rhs)
    stencil = Stencil(lo, tuple(coeffs))
    assume(assumption_audit(stencil).admissible)
    return stencil


def _semigroup_residual(stencil, n):
    """max |G^(2n) - G^n * G^n| / max |G^(2n)| on the window tables."""
    g, _ = _spectral_window(stencil, n)
    g2, _ = _spectral_window(stencil, 2 * n)
    length = 2 * len(g.values) - 1
    size = 1 << (length - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(g.values, size) ** 2, size)[:length]
    lo = min(2 * g.min_offset, g2.min_offset)
    hi = max(2 * g.min_offset + length, g2.min_offset + len(g2.values))
    diff = np.zeros(hi - lo)
    diff[2 * g.min_offset - lo:][:length] += conv
    diff[g2.min_offset - lo:][:len(g2.values)] -= g2.values
    return float(np.max(np.abs(diff)) / np.max(np.abs(g2.values)))


# Fixed examples, so the suite runs the same cases every time.
_PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.filter_too_much])


class TestWindowedRoute:
    @_PROPERTY_SETTINGS
    @given(stencil=admissible_stencils(), n=st.integers(1, 2000))
    def test_matches_direct(self, stencil, n):
        gs = green_spectral(stencil, n)
        gd = green_direct(stencil, n)
        assert gs.min_offset == gd.min_offset
        assert len(gs.values) == len(gd.values)
        assert np.max(np.abs(gs.values - gd.values)) <= 1e-13
        assert abs(complex(gs.values.sum()) - 1.0) <= 1e-12
        assert not np.any(gs.values.imag)

    @_PROPERTY_SETTINGS
    @given(stencil=admissible_stencils(),
           n=st.integers(1, 10 ** 5))
    def test_reflection_keeps_norms(self, stencil, n):
        g = green_spectral(stencil, n)
        a = norms(g)
        b = norms(green_spectral(stencil.reflected(), n))
        # l1 also sums the rounding floor of every entry left in the window.
        assert b.l1 == pytest.approx(a.l1, rel=1e-12,
                                     abs=1e-15 * len(g.values))
        assert b.l2 == pytest.approx(a.l2, rel=1e-12)
        assert b.linf == pytest.approx(a.linf, rel=1e-12)

    @pytest.mark.parametrize("n", (10 ** 4, 10 ** 5, 10 ** 6))
    def test_semigroup(self, n):
        assert _semigroup_residual(lax_wendroff(0.75), n) <= 1e-13

    @pytest.mark.parametrize("stencil,l1_full", [
        # l1(G^(10^6)) from the alias-free transform of the whole support
        (lax_wendroff(0.3), 5.292780429039197),
        (lax_wendroff(0.85), 3.6377225035370677),
        (beam_warming(0.3), 4.072232785789819),
        (beam_warming(1.5), 4.597435639630483),
    ])
    def test_l1_matches_full_route(self, stencil, l1_full):
        g, _ = _spectral_window(stencil, 10 ** 6)
        assert float(np.abs(g.values).sum()) == pytest.approx(l1_full,
                                                              rel=1e-8)

    def test_window_is_short_at_large_n(self):
        g, size = _spectral_window(lax_wendroff(0.75), 10 ** 6)
        assert size <= 1 << 15
        assert len(g.values) <= size
        assert g.min_offset <= 750000 <= g.max_offset

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75),                      # small n: window > support
        Stencil(0, (0.25, 0.75)),                # upwind: kappa2 != 0
        Stencil(-1, (0.1, 0.7, 0.1)),            # not conservative
        Stencil(-1, (0.25 - 0.05j, 0.5 + 0.1j, 0.25 - 0.05j)),  # complex
    ])
    def test_alias_free_fallback(self, stencil):
        n = 100
        g, size = _spectral_window(stencil, n)
        assert size == _spectral_size(n, stencil.support_width)
        assert g.min_offset == n * stencil.min_offset
        assert len(g.values) == n * stencil.support_width + 1
        gd = green_direct(stencil, n)
        assert np.max(np.abs(g.values - gd.values)) <= 1e-13

    def test_averaging_stencil_is_exactly_real(self):
        g = green_spectral(Stencil(0, (0.5, 0.5)), 1000)
        assert not np.any(g.values.imag)

    def test_budget_checked_before_each_doubling(self, monkeypatch):
        # A short a-priori window fails the guard check and doubles.
        monkeypatch.setattr(green, "_TAIL_LOG", 1.0)
        s = lax_wendroff(0.75)
        first = green._window_plan(s, 10 ** 5)[1]
        _, size = _spectral_window(s, 10 ** 5)
        assert size > first
        # Room for the first transform but not for the doubled one.
        budget = 16 * 12 * (first // 2 + 1) * 1.5 / 1e6
        monkeypatch.setenv(MEMORY_BUDGET_ENV, repr(budget))
        with pytest.raises(MemoryBudgetError):
            _spectral_window(s, 10 ** 5)


class TestWorkCap:
    def test_direct_refused_before_work(self):
        with pytest.raises(WorkBudgetError):
            green_direct(lax_wendroff(0.75), 10 ** 6)

    def test_evolve_refused_before_work(self):
        with pytest.raises(WorkBudgetError):
            evolve(lax_wendroff(0.75), delta(), 10 ** 6)

    def test_pure_shift_is_one_power(self):
        g = green_direct(Stencil(-1, (-1.0,)), 10 ** 9 + 1)
        assert g.min_offset == -(10 ** 9 + 1) and g.values.tolist() == [-1.0]
        with pytest.raises(ValueError, match="overflows"):
            green_direct(Stencil(0, (2.0,)), 2000)

    def test_cap_arithmetic(self):
        # start + steps * (start + steps * width) against WORK_LIMIT = 2e9
        green._check_work(31622, 1, 2)
        with pytest.raises(WorkBudgetError):
            green._check_work(31623, 1, 2)
        with pytest.raises(WorkBudgetError):
            green._check_work(0.0, float("inf"), 2)


class TestSweep:
    def test_sweep_matches_individual_tables(self):
        s = lax_wendroff(0.75)
        sums, l1, l2, linf = spectral_sweep(s, 12)
        for n in (1, 5, 12):
            g = green_spectral(s, n)
            mags = np.abs(g.values)
            assert sums[n - 1] == pytest.approx(complex(g.values.sum()),
                                                abs=1e-13)
            assert l1[n - 1] == pytest.approx(mags.sum(), abs=1e-13)
            assert linf[n - 1] == pytest.approx(mags.max(), abs=1e-13)
        assert l2.shape == (12,)

    @pytest.mark.parametrize("coefficient,n_max", [
        (2.0, 2000), (-2.0, 1025), (1.5 + 1.5j, 2000),
        (1.7e308 + 1.7e308j, 1),   # |a| itself overflows
    ])
    def test_pure_shift_overflow_refused(self, coefficient, n_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"G\\^{n_max} overflows"):
                spectral_sweep(Stencil(0, (coefficient,)), n_max)

    def test_pure_shift_powers(self):
        sums, l1, l2, linf = spectral_sweep(Stencil(3, (-0.5,)), 4)
        assert sums.tolist() == [-0.5, 0.25, -0.125, 0.0625]
        assert l1.tolist() == l2.tolist() == linf.tolist() == [
            0.5, 0.25, 0.125, 0.0625]

    def test_sweep_conservation_and_contraction(self):
        sums, _, l2, _ = spectral_sweep(beam_warming(1.5), 300)
        assert np.max(np.abs(sums - 1.0)) <= 1e-11
        assert np.all(np.diff(l2) <= 1e-12)
        assert l2[0] <= 1.0 + 1e-12


def alias_free_sweep(stencil, n_max):
    """Reference sweep: one full FFT per n on the alias-free grid of n_max,
    norms over the support of each G^n."""
    size = _spectral_size(n_max, stencil.support_width)
    theta = 2.0 * np.pi * np.arange(size) / size
    symbol = symbol_eval(stencil, theta)
    powered = np.ones(size, dtype=complex)
    sums = np.empty(n_max, dtype=complex)
    l1, l2, linf = np.empty(n_max), np.empty(n_max), np.empty(n_max)
    with np.errstate(under="ignore"):
        for n in range(1, n_max + 1):
            powered *= symbol
            coeffs = np.fft.fft(powered) / size
            window = coeffs[np.arange(n * stencil.min_offset,
                                      n * stencil.max_offset + 1) % size]
            mags = np.abs(window)
            sums[n - 1] = window.sum()
            l1[n - 1] = mags.sum()
            l2[n - 1] = np.sqrt((mags * mags).sum())
            linf[n - 1] = mags.max()
    return sums, l1, l2, linf


@functools.lru_cache(maxsize=None)
def sweep_references(stencil, n_max):
    """The alias-free reference sweep and l1 of every direct table."""
    direct_l1 = np.array([np.abs(g.values).sum() for g in
                          green._direct_tables(stencil, range(1, n_max + 1))])
    return alias_free_sweep(stencil, n_max), direct_l1


LW5 = Stencil(-2, tuple(np.convolve(lax_wendroff(0.75).as_array().real,
                                    lax_wendroff(0.5).as_array().real)))
SWEEP_N = 2000
SWEEP_CASES = [
    lax_wendroff(0.75),                  # c3 > 0
    lax_wendroff(0.75).reflected(),      # c3 < 0
    beam_warming(0.5),                   # c3 < 0
    beam_warming(1.5),                   # c3 > 0
    LW5,                                 # 5 points, LW(3/4) * LW(1/2)
    COMPLEX,                             # alias-free length
    Stencil(-1, (0.1, 0.7, 0.1)),        # not conservative: alias-free
]


def assert_sweep_close(stencil, n_max, result):
    (sums, _, l2, linf), direct_l1 = sweep_references(stencil, n_max)
    assert np.max(np.abs(result[0] - sums)) <= 1e-12
    assert np.max(np.abs(result[2] - l2)) <= 1e-13
    assert np.max(np.abs(result[3] - linf)) <= 1e-13
    # l1 sums a rounding floor over every entry, the reference's over the
    # alias-free support (BW 3/2: 6.1e-12 from an 80-bit table at n = 2000,
    # the windowed sweep 1.1e-12), so l1 is held to the exact direct tables.
    tol = 1e-15 * (n_max * stencil.support_width + 1)
    assert np.max(np.abs(result[1] - direct_l1)) <= tol


class TestWindowedSweep:
    @pytest.mark.parametrize("stencil", SWEEP_CASES)
    def test_matches_alias_free_reference(self, stencil):
        assert_sweep_close(stencil, SWEEP_N, spectral_sweep(stencil, SWEEP_N))

    def test_window_is_shorter_than_alias_free(self):
        s = lax_wendroff(0.75)
        assert _spectral_window(s, SWEEP_N)[1] < _spectral_size(
            SWEEP_N, s.support_width)

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.75), LW5])
    def test_guard_checked_for_every_aliasing_n(self, stencil, monkeypatch):
        seen = []
        drift = green._drift

        def spy(alpha, n):
            seen.append(n)
            return drift(alpha, n)

        monkeypatch.setattr(green, "_drift", spy)
        size = _spectral_window(stencil, SWEEP_N)[1]
        seen.clear()
        spectral_sweep(stencil, SWEEP_N)
        aliasing = [n for n in range(1, SWEEP_N + 1)
                    if n * stencil.support_width + 1 > size]
        assert aliasing and seen == [SWEEP_N] + aliasing

    def test_short_a_priori_window_doubles(self, monkeypatch):
        s = beam_warming(1.5)
        plan = green._window_plan
        monkeypatch.setattr(green, "_window_plan",
                            lambda stencil, n: (plan(stencil, n)[0], 16))
        assert_sweep_close(s, SWEEP_N, spectral_sweep(s, SWEEP_N))

    def test_failed_guard_band_doubles(self, monkeypatch):
        # A transform length too short for n_max: the sweep's own guard
        # check must fail, double and rerun.
        s = lax_wendroff(0.75)
        window = green._spectral_window
        monkeypatch.setattr(green, "_spectral_window", lambda *a, **k: (
            None, window(*a, **k)[1] // 8))
        sizes = []
        sample = green.symbol_eval

        def spy(stencil, theta):      # one symbol grid per sweep attempt
            sizes.append(len(theta))
            return sample(stencil, theta)

        monkeypatch.setattr(green, "symbol_eval", spy)
        assert_sweep_close(s, SWEEP_N, spectral_sweep(s, SWEEP_N))
        assert len(sizes) > 1 and sizes == sorted(sizes)

    def test_budget(self, monkeypatch):
        s = lax_wendroff(0.75)
        size = _spectral_window(s, SWEEP_N)[1]
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1e-3")
        with pytest.raises(MemoryBudgetError):
            spectral_sweep(s, SWEEP_N)
        # Room for the planning transform, not for the sweep's blocks.
        planning = 16 * 12 * (size // 2 + 1) / 1e6
        monkeypatch.setenv(MEMORY_BUDGET_ENV, repr(1.5 * planning))
        with pytest.raises(MemoryBudgetError):
            spectral_sweep(s, SWEEP_N)

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), beam_warming(1.5), LW5, COMPLEX,
        Stencil(-1, (0.1, 0.7, 0.1))])
    def test_traced_peak_within_model(self, stencil):
        size = _spectral_window(stencil, SWEEP_N)[1]
        real = not any(c.imag for c in stencil.coefficients)
        samples = size // 2 + 1 if real else size
        block = min(green._SWEEP_BLOCK, SWEEP_N)
        modelled = 16 * green._sweep_entries(block, samples, size, SWEEP_N)
        tracemalloc.start()
        try:
            spectral_sweep(stencil, SWEEP_N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= modelled


def smooth_lengths(limit):
    """Every 16 * 2^a * 3^b * 5^c <= limit, sorted, by brute force."""
    return sorted(16 * 2 ** a * 3 ** b * 5 ** c
                  for a in range(limit.bit_length())
                  for b in range(limit.bit_length())
                  for c in range(limit.bit_length())
                  if 16 * 2 ** a * 3 ** b * 5 ** c <= limit)


def is_smooth(size):
    """size = 16 * 2^a * 3^b * 5^c, by trial division."""
    if size % 16:
        return False
    size //= 16
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    return size == 1


def power_of_two_length(needed):
    """The length rule the spectral routes used before smooth lengths."""
    return max(16, 1 << (needed - 1).bit_length())


class TestTransformLengths:
    def test_smallest_smooth_length(self):
        lengths = smooth_lengths(1 << 22)
        for m in [*range(1, 20001), 2 * 10 ** 5 + 1, 2 ** 21 + 1]:
            assert green._fft_length(m) == lengths[bisect.bisect_left(
                lengths, m)]

    @staticmethod
    def transform_lengths(run):
        lengths = []
        irfft, ifft = np.fft.irfft, np.fft.ifft

        def spy_irfft(a, n=None, *args, **kwargs):
            lengths.append(n)
            return irfft(a, n, *args, **kwargs)

        def spy_ifft(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return ifft(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.fft, "irfft", spy_irfft)
            patch.setattr(np.fft, "ifft", spy_ifft)
            run()
        return lengths

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.75),
                                         beam_warming(1.5), LW5, COMPLEX])
    def test_every_transform_is_smooth(self, stencil, monkeypatch):
        runs = [lambda: green_spectral(stencil, 1200),
                lambda: spectral_sweep(stencil, 1200)]
        if stencil is not COMPLEX:      # c3 = 0: both reports refuse it
            runs += [lambda: growth_series(stencil, [10, 100, 1000, 10 ** 5]),
                     lambda: bv_bounds(stencil, [100, 1000, 5000])]
        shorter = False
        for run in runs:
            new = self.transform_lengths(run)
            with monkeypatch.context() as patch:
                patch.setattr(green, "_fft_length", power_of_two_length)
                old = self.transform_lengths(run)
            assert new and all(is_smooth(size) for size in new)
            assert len(new) == len(old)
            assert all(a <= b for a, b in zip(new, old))
            shorter = shorter or any(a < b for a, b in zip(new, old))
        assert shorter      # the sizes are chosen so that the rule matters


class TestStepData:
    def test_cell_average_edges(self):
        assert cell_average_indicator(-2.0, -1.0, 0.5) == 0.0
        assert cell_average_indicator(-0.1, 0.1, 0.5) == 1.0
        # cell straddling the right edge of [-0.5, 0.5]
        assert cell_average_indicator(0.4, 0.6, 0.5) == pytest.approx(0.5)

    def test_sample_step_partition(self):
        u = sample_step(0.25, 0.5, -4, 4)
        # cell sums times dx recover the measure of [-0.5, 0.5]
        assert float(u.values.real.sum()) * 0.25 == pytest.approx(1.0)
        assert u.left_tail == 0.0

    def test_norms_tuple(self):
        res = norms(np.asarray([3.0, -4.0]))
        assert res.l1 == 7.0
        assert res.l2 == 5.0
        assert res.linf == 4.0
        assert res.sum == pytest.approx(-1.0)

    def test_norms_accepts_table(self):
        g = green_direct(lax_wendroff(0.5), 4)
        assert norms(g).sum == pytest.approx(1.0, abs=1e-14)
