import bisect
import functools
import hashlib
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
# numpy loads numpy.fft on first use; loaded here, its module code stays
# out of the traced peaks.
import numpy.fft  # noqa: F401
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dgreen import cli, green
from dgreen.analysis import bv_bounds, growth_series
from dgreen.green import (
    GreenTable,
    GridFunction,
    MEMORY_BUDGET_ENV,
    MemoryBudgetError,
    WorkBudgetError,
    _spectral_window,
    evolve,
    green_direct,
    green_spectral,
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
from references import (cell_average_indicator, dd_green, dd_greens,
                        dd_power, reflect)


def delta():
    return GridFunction(min_index=0, values=(1.0,))


COMPLEX = Stencil(-1, (0.25 - 0.05j, 0.5 + 0.1j, 0.25 - 0.05j))
LW5 = Stencil(-2, tuple(np.convolve(lax_wendroff(0.75).as_array().real,
                                    lax_wendroff(0.5).as_array().real)))
# The stencils whose traced peaks the memory tests hold to their charges.
PEAK_STENCILS = (lax_wendroff(0.75), lax_wendroff(0.3), beam_warming(1.5),
                 LW5, COMPLEX)
SWEEP_STENCILS = (lax_wendroff(0.75), beam_warming(1.5), LW5, COMPLEX,
                  Stencil(-1, (0.1, 0.7, 0.1)))


def traced(route, *args):
    """The traced peak of route(*args) and the largest need it checked:
    a charge in bytes plus the fixed term of _check_budget."""
    checked = []
    check = green._check_budget

    def spy(nbytes):
        checked.append(nbytes)
        check(nbytes)

    with mock.patch.object(green, "_check_budget", spy):
        tracemalloc.start()
        try:
            route(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, max(checked) + green._FIXED_BYTES


def step_loop(stencil, u, n):
    """Reference evolution: n single steps, each widening the window by the
    stencil's support."""
    kernel = stencil.as_array()
    values, lo = u.values, u.min_index
    for _ in range(n):
        values = np.convolve(kernel, values)
        lo += stencil.min_offset
    return GridFunction(lo, values)


class TestGridFunction:
    def test_window(self):
        u = GridFunction(2, (1.0, 2.0))
        assert (u.min_index, u.max_index) == (2, 3)
        assert u.values.tolist() == [1.0, 2.0]
        assert u.values.dtype == float
        assert GridFunction(0, (1, 2j)).values.dtype == complex

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(0, ())

    @pytest.mark.parametrize("values", [np.ones((2, 2)), ("a", "b")])
    def test_non_numeric_or_2d_rejected(self, values):
        with pytest.raises(ValueError):
            GridFunction(0, values)

    @pytest.mark.parametrize("values", [
        (None, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf),
        (1.0, complex(0.0, np.nan))])
    def test_non_finite_rejected(self, values):
        with pytest.raises(ValueError, match="finite"):
            GridFunction(0, values)


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
        # Both have zero tails: entries off their windows read 0.
        u_at = dict(zip(range(u.min_index, u.max_index + 1), u.values))
        v_at = dict(zip(range(v.min_index, v.max_index + 1), v.values))
        for j in range(v.min_index - 2, v.max_index + 3):
            expected = sum(a * u_at.get(j - l, 0.0) for l, a in s.terms)
            assert v_at.get(j, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_constant_tails_propagate(self):
        # A conservative stencil maps a constant run to itself wherever the
        # run covers its support: data 1 then 2, each on 20 sites.
        s = lax_wendroff(0.5)
        u = GridFunction(0, np.repeat([1.0, 2.0], 20))
        v = evolve(s, u, 1)
        assert v.min_index == -1
        assert_allclose(v.values[2:20].real, 1.0, rtol=0, atol=1e-15)
        assert_allclose(v.values[22:40].real, 2.0, rtol=0, atol=1e-15)


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

    def test_offsets_cover_support(self):
        g = green_direct(lax_wendroff(0.75), 3)
        assert g.offsets.tolist() == list(range(-3, 4))
        assert (g.min_offset, g.max_offset) == (-3, 3)
        assert len(g.values) == len(g.offsets)

    def test_offsets_built_once_read_only(self):
        g = GreenTable(n=3, min_offset=-3, values=np.ones(7), method="direct")
        assert g.offsets is g.offsets
        with pytest.raises(ValueError):
            g.offsets[0] = 0

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
        # Seven float64 tables of 2n + 1 entries and the fixed term of
        # 64 KiB: 0.1776 MB at n = 1000.
        s = lax_wendroff(0.75)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.177")
        with pytest.raises(MemoryBudgetError, match="needs about 0.178 MB"):
            green_direct(s, 1000)
        with pytest.raises(MemoryBudgetError):
            evolve(s, delta(), 1000)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.178")
        green_direct(s, 1000)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "nan")
        with pytest.raises(ValueError, match=MEMORY_BUDGET_ENV):
            green_direct(s, 1000)

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), beam_warming(1.5), COMPLEX,
        Stencil(-2, (0.05, 0.2, 0.5, 0.2, 0.05)), lax_wendroff(0.3)])
    def test_direct_traced_peak_within_model(self, stencil):
        # Lists that users pass, each table held while the next is built.
        # Measured: at most 6.14 tables of the stencil's dtype (COMPLEX on
        # [1000, 1001]) against the seven of _direct_bytes.
        grids = [[1000, 1001], [1000, 2000], [4000, 4112], [4112, 4112],
                 [100, 1000, 3000], [250, 500, 1000, 2000],
                 list(range(1, 2001))]
        if stencil.support_width == 2:
            grids.append([20000, 31622])        # the work cap
        for n_values in grids:
            for tables in (lambda: green_direct(stencil, n_values[-1]),
                           lambda: [g.n for g in green._direct_tables(
                               stencil, n_values)]):
                peak, need = traced(tables)
                assert peak <= need, n_values

    @pytest.mark.parametrize("stencil,n", [
        *((s, n) for s in (lax_wendroff(0.75), lax_wendroff(0.3),
                           beam_warming(1.5), LW5)
          for n in (10 ** 4, 10 ** 5, 10 ** 6)),
        # The alias-free grid of a complex stencil at n = 1e6 would hold
        # about 400 MB.
        (COMPLEX, 10 ** 4), (COMPLEX, 10 ** 5)])
    def test_spectral_traced_peak_within_model(self, stencil, n):
        # The largest need checked, the last transform plus the
        # full-support table, bounds the traced peak of the whole call.
        # Measured: at most 0.907 of it (LW5 at 1e6).
        peak, need = traced(green_spectral, stencil, n)
        assert peak <= need

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    @pytest.mark.parametrize("stencil", PEAK_STENCILS)
    def test_small_n_spectral_traced_peak_within_model(self, stencil, n):
        peak, need = traced(green_spectral, stencil, n)
        assert peak <= need

    @pytest.mark.parametrize("stencil,n", [
        (s, n) for s in PEAK_STENCILS
        for n in (1, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6)
        # COMPLEX's alias-free grid at 1e6 would hold about 400 MB.
        if s is not COMPLEX or n <= 10 ** 5])
    def test_window_traced_peak_within_model(self, stencil, n):
        # growth and bv read the window alone.  Measured: at most 0.998
        # of the need (COMPLEX at 1e5).
        peak, need = traced(_spectral_window, stencil, n)
        assert peak <= need

    @pytest.mark.parametrize("route", [green_direct, green_spectral])
    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), COMPLEX, Stencil(-1, (0.1, 0.7, 0.1)),
        Stencil(-1, (-1.0,))])
    def test_offsets_built_by_route(self, route, stencil):
        g = route(stencil, 2000)
        tracemalloc.start()
        try:
            first, second = g.offsets, g.offsets
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < 1024
        assert first is second and not first.flags.writeable
        assert first.tolist() == list(range(g.min_offset, g.max_offset + 1))


class TestEvolveBudget:
    def test_checked_before_work(self, monkeypatch):
        # The direct charge of 5-entry tables (seven float64 tables), one
        # float64 window of 100004 with its 1 B finiteness mask, and the
        # fixed term of 64 KiB: 0.966 MB.  The data and the stencil are
        # both float64, so np.convolve copies neither.
        u = GridFunction(0, np.ones(100000))
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.96")
        with pytest.raises(MemoryBudgetError, match="needs about 0.966 MB"):
            evolve(lax_wendroff(0.75), u, 2)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "0.97")
        evolve(lax_wendroff(0.75), u, 2)

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), beam_warming(1.5), COMPLEX,
        Stencil(-2, (0.05, 0.2, 0.5, 0.2, 0.05))])
    @pytest.mark.parametrize("cells,n,kind", [
        (1, 1, "real"), (1, 1, "complex"),
        (100000, 3, "real"), (100000, 3, "tails"), (50000, 3, "complex"),
        (11, 3000, "real"), (11, 3000, "tails"), (11, 3000, "complex"),
        (5000, 1000, "tails")])
    def test_traced_peak_within_model(self, stencil, cells, n, kind):
        rng = np.random.default_rng(cells + n)
        values = rng.normal(size=cells)
        if kind != "real":
            # Data whose ends are constant runs, as step data's are.
            values[:cells // 4], values[len(values) - cells // 4:] = 0.5, -1.5
        if kind == "complex":
            values = values + 1j * rng.normal(size=cells)
        u = GridFunction(-3, values)
        peak, need = traced(evolve, stencil, u, n)
        assert peak <= need

    @pytest.mark.parametrize("stencil,data", [
        (lax_wendroff(0.75), float), (lax_wendroff(0.75), complex),
        (COMPLEX, float), (COMPLEX, complex)])
    @pytest.mark.parametrize("cells,n", [(200000, 10), (20, 20000)])
    def test_copy_charged_only_across_dtypes(self, stencil, data, cells, n):
        # np.convolve copies the real side to complex128 only when the data
        # and the stencil differ in dtype.  Measured: at most 0.97 of the
        # need for real/real, 0.96 for a complex stencil on real data, 0.51
        # for a real stencil on complex data and 0.98 for complex/complex.
        rng = np.random.default_rng(cells)
        u = GridFunction(0, rng.normal(size=cells).astype(data))
        peak, need = traced(evolve, stencil, u, n)
        assert peak <= need
        dtype = stencil_dtype(stencil)
        windows = 1 if u.values.dtype == dtype else 2
        itemsize = np.result_type(u.values, dtype).itemsize
        assert need == (green._FIXED_BYTES + green._direct_bytes(stencil, n)
                        + (windows * itemsize + 1)
                        * (cells + n * stencil.support_width))


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
        if kind == "complex":
            values = values + 1j * rng.normal(size=9)
        u = GridFunction(-3, values)
        got, want = evolve(stencil, u, n), step_loop(stencil, u, n)
        assert got.min_index == want.min_index
        assert len(got.values) == len(want.values)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.75), beam_warming(0.5),
                                         beam_warming(0.36), COMPLEX])
    @pytest.mark.parametrize("n", (1, 7, 50, 500, 3000))
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
            assert g.values.dtype == ref.values.dtype == stencil_dtype(stencil)
            assert np.array_equal(g.values, ref.values)


def stencil_dtype(stencil):
    """The dtype of every table and norm of the stencil: float64 for real
    coefficients, else complex128."""
    return np.dtype(float if stencil.is_real else complex)


def ieee_direct_tables(stencil, n_values):
    """The step loop that the direct route once was, over the whole support:
    subnormal and underflowed tails follow IEEE arithmetic all the way.  Its
    error against the double-double tables is the yardstick of the route's
    own."""
    kernel = stencil.as_array()
    if not kernel.imag.any():
        kernel = kernel.real.copy()
    values, done = kernel, 1
    for n in n_values:
        if stencil.support_width == 0:
            with np.errstate(over="ignore"):
                values = kernel ** n
        else:
            for _ in range(n - done):
                values = np.convolve(values, kernel)
            done = n
        yield GreenTable(n=n, min_offset=n * stencil.min_offset,
                         values=values, method="direct")


TINY = np.finfo(float).tiny
UNDERFLOW_CASES = [
    *(lax_wendroff(lam) for lam in (0.1, 0.3, 0.49, 0.75, 0.95)),
    *(beam_warming(lam) for lam in (0.2, 0.36, 0.5, 0.8, 1.2, 1.5, 1.8)),
    COMPLEX,
    Stencil(-2, tuple(np.convolve(lax_wendroff(0.75).as_array().real,
                                  lax_wendroff(0.5).as_array().real))),
    Stencil(-2, (0.15, 0.0, 0.6, 0.0, -0.05, 0.3)),  # interior zeros
]
UNDERFLOW_N = [1, 1, 7, 500, 500, 3000]


@functools.lru_cache(maxsize=None)
def ieee_tables(stencil):
    return {g.n: g for g in ieee_direct_tables(stencil, UNDERFLOW_N)}


@functools.lru_cache(maxsize=None)
def exact_tables(stencil):
    """dd_green at every n of UNDERFLOW_N, from one double-double loop."""
    n_values = sorted(set(UNDERFLOW_N))
    return dict(zip(n_values, dd_greens(stencil, n_values)))


def assert_near_exact(values, exact, loop):
    """values lie within 1e-15 of peak of the double-double table `exact`,
    and on the entries with |G| >= 1e-250 their largest relative error is
    no larger than that of `loop`, the step loop's table."""
    assert np.max(np.abs(values - exact)) <= 1e-15 * np.max(np.abs(exact))
    big = np.abs(exact) >= 1e-250

    def rel_error(table):
        return np.max(np.abs(table[big] - exact[big]) / np.abs(exact[big]),
                      initial=0.0)

    assert rel_error(values) <= rel_error(loop)


def assert_underflow_rule(stencil, g, ref, exact):
    """g obeys the underflow rule and is as close to the double-double
    table `exact` as the step loop's table over the whole support, ref."""
    assert g.n == ref.n and g.min_offset == ref.min_offset
    assert g.values.dtype == ref.values.dtype == stencil_dtype(stencil)
    assert len(g.values) == len(ref.values) == len(exact)
    parts = np.concatenate([g.values.real, g.values.imag])
    assert not np.any(np.signbit(parts) & (parts == 0))      # no -0.0
    assert_near_exact(g.values, exact, ref.values)
    # Outside the live span every entry is +0.0, and its ends are normal.
    live = np.flatnonzero(g.values)
    assert len(live) and np.abs(g.values[live[[0, -1]]]).min() >= TINY


def exact_direct_tables(stencil, n_values):
    """_direct_tables of a real stencil from dd_greens."""
    for n, values in zip(n_values, dd_greens(stencil, n_values)):
        yield GreenTable(n=n, min_offset=n * stencil.min_offset,
                         values=values, method="direct")


class TestUnderflowRule:
    @pytest.mark.parametrize("stencil", UNDERFLOW_CASES)
    def test_matches_ieee_reference(self, stencil):
        # Measured against dd_green: the route's largest relative error on
        # |G| >= 1e-250 is 8.6e-10 (the step loop's 5.8e-8), both on the
        # stencil with interior zeros at n = 3000, and its largest error
        # 5.1e-16 of peak.
        refs, exact = ieee_tables(stencil), exact_tables(stencil)
        tables = list(green._direct_tables(stencil, UNDERFLOW_N))
        assert [g.n for g in tables] == UNDERFLOW_N
        for g in tables:
            assert_underflow_rule(stencil, g, refs[g.n], exact[g.n])
        assert_underflow_rule(stencil, green_direct(stencil, 3000),
                              refs[3000], exact[3000])

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.3), beam_warming(0.36),
                                         COMPLEX])
    def test_tails_are_trimmed(self, stencil):
        # The reference carries subnormal tails that the span leaves out.
        ref = ieee_tables(stencil)[3000].values
        live = np.flatnonzero(green_direct(stencil, 3000).values)
        tails = np.concatenate([ref[:live[0]], ref[live[-1] + 1:]])
        assert np.count_nonzero(tails) >= 50
        assert np.abs(tails).max() < 1e-300

    def test_whole_table_underflows(self):
        # sum a = 0.4: G^n falls below the smallest normal everywhere.
        s = Stencil(-1, (0.1, 0.2, 0.1))
        n_values = [100, 1000, 1000, 1200]
        refs = list(ieee_direct_tables(s, n_values))
        assert np.abs(refs[1].values).max() < TINY
        for g, ref in zip(green._direct_tables(s, n_values), refs):
            assert g.n == ref.n and len(g.values) == len(ref.values)
            if g.n == 100:
                assert_near_exact(g.values, dd_green(s, 100), ref.values)
            else:
                assert g.values.tobytes() == bytes(g.values.nbytes)

    @pytest.mark.parametrize("argv", [
        ("green", "--scheme", "bw", "--lambda", "0.36", "--n", "2500",
         "--method", "direct"),
        ("green", "--scheme", "lw", "--lambda", "0.75", "--n", "500",
         "--method", "direct", "--format", "json"),
        ("evolve", "--scheme", "lw", "--lambda", "0.49", "--dx", "0.0005",
         "--t", "0.6125"),
        ("evolve", "--scheme", "bw", "--lambda", "0.36", "--dx", "0.001",
         "--t", "1.08"),
    ])
    def test_artifacts_differ_only_below_1e_280(self, tmp_path, monkeypatch,
                                                argv):
        """The artifacts of the direct route against those written from
        the double-double tables and from the step loop's.

        Named for the first form of this check, when the route was the step
        loop and its underflow rule moved only cells below 1e-280.  Cells
        that differ between the three artifacts are the table's (or the
        evolved data's); the route's lie within 1e-15 of peak of the exact
        ones, and on cells of at least 1e-250 its largest relative error is
        no larger than the step loop's.
        """
        cells = {}
        for name, tables in (("new", green._direct_tables),
                             ("loop", ieee_direct_tables),
                             ("exact", exact_direct_tables)):
            monkeypatch.setattr(green, "_direct_tables", tables)
            path = tmp_path / name
            assert cli.main([*argv, "--out", str(path)]) == 0
            cells[name] = re.split(r"[\s,\[\]]+", path.read_text())
        assert len(set(map(len, cells.values()))) == 1
        moved = [tuple(map(float, row)) for row in zip(*cells.values())
                 if len(set(row)) > 1]
        assert moved
        new, loop, exact = np.array(moved).T
        assert_near_exact(new, exact, loop)

    @pytest.mark.parametrize("stencil", [Stencil(2, (-0.5,)),
                                         Stencil(-1, (0.5 + 0.5j,))])
    def test_pure_shift_unchanged(self, stencil):
        n_values = [1, 3, 3, 1000, 1075, 2000]
        for g, ref in zip(green._direct_tables(stencil, n_values),
                          ieee_direct_tables(stencil, n_values)):
            assert g.min_offset == ref.min_offset
            assert g.values.tobytes() == ref.values.tobytes()


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
        a = np.abs(g.values)
        b = np.abs(green_spectral(reflect(stencil), n).values)
        # l1 also sums the rounding floor of every entry left in the window.
        assert b.sum() == pytest.approx(a.sum(), rel=1e-12,
                                        abs=1e-15 * len(g.values))
        assert np.sqrt((b * b).sum()) == pytest.approx(
            np.sqrt((a * a).sum()), rel=1e-12)
        assert b.max() == pytest.approx(a.max(), rel=1e-12)

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
        assert size == green._fft_length(n * stencil.support_width + 1)
        assert g.min_offset == n * stencil.min_offset
        assert len(g.values) == n * stencil.support_width + 1
        gd = green_direct(stencil, n)
        assert np.max(np.abs(g.values - gd.values)) <= 1e-13

    @pytest.mark.parametrize("tail", [-0.4999, -0.49999999])
    def test_small_sum_centered_in_support(self, tail):
        # Normalized by the sum, the drift lies near -5e3 and -5e7, and
        # lags that long cancel the tails of z to noise.  Measured: 59 and
        # 52 eps of peak, the route's own n * eps rounding.
        n = 100
        stencil = Stencil(0, (0.5, tail))
        assert assumption_audit(stencil).expansion.alpha < -4000
        gap = _route_gap(green_direct(stencil, n), green_spectral(stencil, n))
        assert gap <= 2 * n * np.finfo(float).eps

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
        budget = (1.5 * green._window_bytes(first, True)
                  + green._FIXED_BYTES) / 1e6
        monkeypatch.setenv(MEMORY_BUDGET_ENV, repr(budget))
        with pytest.raises(MemoryBudgetError):
            _spectral_window(s, 10 ** 5)


_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def paper_stencils(draw):
    """Lax-Wendroff at lambda in (0, 1), Beam-Warming at lambda in (0, 2)
    without 1, and 5-point products of two Lax-Wendroff stencils.

    Their float coefficients sum to 1 only up to rounding, so the direct
    route powers a stencil of mass 1 + delta."""
    kind = draw(st.sampled_from(["lw", "bw", "lw*lw"]))
    if kind == "lw":
        return lax_wendroff(draw(_UNIT))
    if kind == "bw":
        return beam_warming(draw(st.floats(0.0, 2.0, exclude_min=True,
                                           exclude_max=True).filter(
                                               lambda lam: lam != 1.0)))
    a, b = [lax_wendroff(draw(_UNIT)).as_array().real for _ in range(2)]
    return Stencil(-2, tuple(np.convolve(a, b)))


def _route_gap(direct, spectral):
    """max |direct - spectral| / max |direct|."""
    return float(np.max(np.abs(direct.values - spectral.values))
                 / np.max(np.abs(direct.values)))


# max |direct - spectral| <= _ROUTE_C * sqrt(n) * eps * peak.  Over 400
# draws of paper_stencils at n = 1000 and 4000 the largest ratio read 1.23,
# on a product of two Lax-Wendroff stencils of lambda near 0.015 at
# n = 1000, where the double-double table puts the error on the spectral
# route (the direct route reads 0.04); the constant leaves 4.1 times that.
# Before the spectral route took the defect and moments as exact sums,
# LW 0.3 and BW 0.36 read 6.0 and 11.9 at n = 1000 and twice that at
# n = 4000.
_ROUTE_C = 5.0

# A coefficient far below the others: a float64 step loop rounded it away
# at every step and drifted by about n |a_l| of the peak (3.8 and
# 7.9 sqrt(n) eps from the spectral route at n = 1000 and 4000).  The
# direct route's short products are extended, so it keeps the term.
_TINY_TERM = Stencil(-2, tuple(np.convolve(
    lax_wendroff(1 - 1e-16).as_array().real,
    lax_wendroff(0.5).as_array().real)))


class TestBothRoutesPowerOneStencil:
    @_PROPERTY_SETTINGS
    @given(stencil=paper_stencils(), n=st.sampled_from([1000, 4000]))
    @example(stencil=lax_wendroff(0.3), n=1000)
    @example(stencil=lax_wendroff(0.3), n=4000)
    @example(stencil=beam_warming(0.36), n=1000)
    @example(stencil=beam_warming(0.36), n=4000)
    @example(stencil=_TINY_TERM, n=4000)
    def test_gap_is_rounding(self, stencil, n):
        gap = _route_gap(green_direct(stencil, n), green_spectral(stencil, n))
        assert gap <= _ROUTE_C * np.sqrt(n) * np.finfo(float).eps

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.3),
                                         beam_warming(0.36)])
    def test_no_drift_at_large_n(self, stencil):
        # A spectral route that powered a stencil of sum exactly 1 drifted
        # from the direct one by n * delta: 1.3e-12 and 2.6e-12 at 31622.
        n_values = [1000, 10000, 31622]
        for g in green._direct_tables(stencil, n_values):
            assert _route_gap(g, green_spectral(stencil, g.n)) <= 1e-14

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.3), beam_warming(0.36), lax_wendroff(0.75),
        _TINY_TERM])
    def test_against_double_double(self, stencil):
        # Measured: spectral at most 5.9e-16 of peak, direct 2.6e-16.  The
        # float64 step loop that the direct route once was read 2.9e-15,
        # and 2.7e-14 on _TINY_TERM at n = 1000.
        for n, exact in zip((1000, 2000), dd_greens(stencil, (1000, 2000))):
            peak = np.max(np.abs(exact))
            for table in (green_spectral(stencil, n), green_direct(stencil, n)):
                assert not np.any(table.values.imag)
                assert np.max(np.abs(table.values.real - exact)) <= (
                    1e-15 * peak)

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.3),
                                         beam_warming(0.36)])
    def test_against_double_double_powers(self, stencil):
        # G^4112 = G^16 * G^4096 takes a short factor times a long one in
        # blocks; 31622 is the work cap.  Measured at the cap: direct
        # 2.1e-16 and 1.2e-16 of peak, spectral 1.5e-15 and 1.2e-15.
        for n in (4112, 31622):
            exact = dd_power(stencil, n)
            table = green_direct(stencil, n)
            assert not np.any(table.values.imag)
            assert np.max(np.abs(table.values.real - exact)) <= (
                1e-15 * np.max(np.abs(exact)))


class TestBinaryPowering:
    def test_dense_grid_takes_one_product_per_n(self, monkeypatch):
        # Each n past the first is G^(n-1) times the kernel: one product
        # per n besides the squarings.
        products = []
        span_product = green._span_product

        def spy(a, b, repeats):
            products.append(repeats)
            return span_product(a, b, repeats)

        monkeypatch.setattr(green, "_span_product", spy)
        n_values = list(range(1, 2001))
        tables = list(green._direct_tables(LW5, n_values))
        assert [g.n for g in tables] == n_values
        squarings = n_values[-1].bit_length() - 1
        assert len(products) <= squarings + len(n_values)

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.3),
                                         beam_warming(0.36), _TINY_TERM])
    def test_grid_tables_against_double_double(self, stencil):
        # A table built from the previous n of its list, or with the tower
        # of a larger n, differs in its last bits from green_direct at the
        # same n.  Measured on the dense list: at most 1.0e-15 of peak from
        # the exact table (green_direct 2.6e-16), and 1.1e-15 from
        # green_direct; the float64 step loop read 2.9e-15 and 2.7e-14 on
        # _TINY_TERM.
        checked = (1000, 2000)
        exact = dict(zip(checked, dd_greens(stencil, checked)))
        for n_values in (range(1, 2001), [999, 1000, 1001, 2000]):
            for g in green._direct_tables(stencil, list(n_values)):
                if g.n in checked:
                    peak = np.max(np.abs(exact[g.n]))
                    single = green_direct(stencil, g.n).values
                    for other in (exact[g.n], single):
                        assert np.max(np.abs(g.values - other)) <= (
                            2e-15 * peak)

    def test_one_tower_serves_the_grid(self, monkeypatch):
        # floor(log2 2000) squarings and popcount(n) - 1 products per n;
        # here the double-double level is not reached and every long
        # factor fits one block.
        shapes = []
        convolve = np.convolve

        def spy(a, v, *args, **kwargs):
            shapes.append((len(a), len(v)))
            return convolve(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "convolve", spy)
        n_values = [250, 500, 1000, 2000]
        tables = list(green._direct_tables(lax_wendroff(0.75), n_values))
        assert [g.n for g in tables] == n_values
        squarings = n_values[-1].bit_length() - 1
        products = sum(bin(n).count("1") - 1 for n in n_values)
        assert 0 < len(shapes) <= squarings + products

    @pytest.mark.parametrize("stencil", [lax_wendroff(0.75), COMPLEX])
    @pytest.mark.parametrize("n_values", [[1000, 1001], list(range(1, 65))])
    def test_yielded_tables_can_be_written(self, stencil, n_values):
        # Each table is its own array: zeroing one leaves the next intact.
        clean = [g.values.copy()
                 for g in green._direct_tables(stencil, n_values)]
        for g, want in zip(green._direct_tables(stencil, n_values), clean):
            assert g.values.tobytes() == want.tobytes()
            g.values[:] = 0

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="numpy's long double is not the x87 format "
                               "here")
    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("m,size", [(1, 1), (3, 3), (7, 300), (500, 500),
                                        (33, 2000), (500, 3000)])
    def test_double_double_kernel_matches_long_double(self, kind, m, size):
        # Operands with bits beyond float64's, products agreeing to four
        # long double roundings of the sum of |a_i b_j| (measured: 1.6).
        rng = np.random.default_rng(m + size)
        ld, dd = green._LongDouble, green._DoubleDouble

        def operand(length):
            parts = [rng.normal(size=length) for _ in range(2)]
            if kind is complex:
                parts = [p + 1j * rng.normal(size=length) for p in parts]
            return ld.widen(parts[0]) + ld.widen(parts[1]) * 2.0 ** -55

        def split(x):            # x == hi + lo exactly
            hi = green._narrow(x)
            return np.stack([hi, green._narrow(x - hi)])

        a, b = operand(m), operand(size)
        exact = ld.convolve(a, b)
        fallback = ld.widen(dd.convolve(split(a), split(b)))
        scale = np.convolve(np.abs(green._narrow(a)), np.abs(green._narrow(b)))
        assert np.all(np.abs(fallback - exact)
                      <= 4 * np.finfo(np.longdouble).eps * scale)

    def test_short_times_long_in_blocks(self):
        # Blocks of _BLOCK outputs give the bits of one extended convolution.
        rng = np.random.default_rng(5)
        wide = green._EXTENDED
        a = wide.widen(rng.normal(size=300))
        b = rng.normal(size=5 * green._BLOCK + 7)
        expected = green._narrow(wide.convolve(a, wide.widen(b)))
        assert np.array_equal(green._mixed_product(wide, a, b), expected)

    @pytest.mark.parametrize("stencil,n", [(lax_wendroff(0.3), 2000),
                                           (beam_warming(0.36), 2000),
                                           (COMPLEX, 500)])
    def test_double_double_fallback(self, monkeypatch, stencil, n):
        # The route as it runs where long double has no 63-bit mantissa.
        monkeypatch.setattr(green, "_EXTENDED", green._DoubleDouble)
        exact = dd_green(stencil, n)
        values = green_direct(stencil, n).values
        assert np.max(np.abs(values - exact)) <= 1e-15 * np.max(np.abs(exact))

    def test_double_double_levels_at_large_n(self, monkeypatch):
        # From n = 2048 on, G^2 recurs 1024 times in G^n: its squaring runs
        # in double-double, by shift and add rather than np.convolve.
        calls = []
        convolve = green._DoubleDouble.convolve

        def spy(a, b):
            calls.append(a.shape)
            return convolve(a, b)

        monkeypatch.setattr(green._DoubleDouble, "convolve", staticmethod(spy))
        s = lax_wendroff(0.3)
        green_direct(s, 2047)
        assert calls == []
        green_direct(s, 2048)
        assert calls == [(2, 3)]


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

    def test_pure_shift_budget_checked_before_powers(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a power was taken before the budget check")
        monkeypatch.setattr(green, "_shift_powers", fail)
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1")
        with pytest.raises(MemoryBudgetError):
            spectral_sweep(Stencil(0, (0.5,)), 10 ** 6)

    def test_pure_shift_traced_peak_within_model(self):
        # The four outputs at their dtypes and the finiteness mask.
        # Measured: at most 0.985 of the need (the complex a).
        for a in (0.5, 0.3 + 0.4j):
            peak, need = traced(spectral_sweep, Stencil(0, (a,)), 10 ** 5)
            assert peak <= need, a

    @pytest.mark.parametrize("a", [0.5, 0.3 + 0.4j])
    @pytest.mark.parametrize("n_max", [1, 100])
    def test_pure_shift_small_n_max_traced_peak_within_model(self, a,
                                                             n_max):
        peak, need = traced(spectral_sweep, Stencil(0, (a,)), n_max)
        assert peak <= need

    def test_sweep_conservation_and_contraction(self):
        sums, _, l2, _ = spectral_sweep(beam_warming(1.5), 300)
        assert np.max(np.abs(sums - 1.0)) <= 1e-11
        assert np.all(np.diff(l2) <= 1e-12)
        assert l2[0] <= 1.0 + 1e-12


class TestCoefficientData:
    """Every route reads the stencil's coefficient data from one place."""

    @pytest.mark.parametrize("a", [0.9, -0.7, 0.3 + 0.4j])
    def test_pure_shift_routes_agree(self, a):
        s = Stencil(2, (a,))
        n_values = [1, 99, 100, 101, 1500]
        sums, l1, _, _ = spectral_sweep(s, n_values[-1])
        for n, direct in zip(n_values, green._direct_tables(s, n_values)):
            spectral = green_spectral(s, n)
            assert spectral.min_offset == direct.min_offset == 2 * n
            assert spectral.values.tobytes() == direct.values.tobytes()
            assert sums[n - 1:n].tobytes() == direct.values.tobytes()
            assert l1[n - 1] == abs(direct.values[0])
            assert direct.values.dtype == spectral.values.dtype == sums.dtype
        assert sums.dtype == (float if isinstance(a, float) else complex)

    @pytest.mark.parametrize("a", [0.9, -0.7, 1.0000001, 1.5])
    def test_real_pure_shift_powers_are_per_n_powers(self, a):
        # One array power gives each n the bits of its own a ** n, the
        # square at n = 2 and the overflow to inf included.
        n_values = list(range(1, 2001))
        with np.errstate(all="ignore"):
            expected = [(np.array([a]) ** n)[0] for n in n_values]
        powers = green._shift_powers(Stencil(0, (a,)), np.array(n_values))
        assert powers.tolist() == expected
        assert powers.dtype == float

    @pytest.mark.parametrize("a", [0.3 + 0.4j, -0.8753008417002488
                                   - 0.05618056128241955j])
    def test_complex_pure_shift_square_routes_agree(self, a):
        # numpy's complex a ** 2 takes its square loop, which for the
        # second a differs from np.power in the last bit; the routes all
        # take np.power and agree.
        s = Stencil(0, (a,))
        direct = [g.values for g in green._direct_tables(s, [1, 2, 3])]
        spectral = [green_spectral(s, n).values for n in (1, 2, 3)]
        sums = spectral_sweep(s, 3)[0]
        assert (np.concatenate(direct).tobytes()
                == np.concatenate(spectral).tobytes() == sums.tobytes())

    @pytest.mark.parametrize("stencil,digests", [
        (Stencil(0, (0.5, 0, 0, 0.5)), (
            "e57caf536255da2c077af5d5ece12ec625b0b4a66aba1c3e6d67eab0ef87f030",
            "3b466f4a454448595f3dca8b81f0d3490fa785285313b4c26a17fa1f1ae2120f")),
        (Stencil(-2, (0.25, 0, 0.5, 0, 0.25)), (
            "d21493991d32eb13f865746de4904216c59a36ddaf5e92041e9dc53ba2c48797",
            "58e905cd4634459b25acf9dd9a0f637a250bf472b487bbd833dd6572042f7082")),
        (Stencil(-1, (0.5 + 0.1j, 0, 0.5 - 0.1j)), (
            "9d991afb1627f5c950b42467b2e9c0d5793195882832679c4f1b82a7ab0f43ec",
            "123c3ca98fcdabc387bf2ad78274940053e5f8c801ef960326f84ef1a3fd322c")),
    ])
    def test_interior_zeros_keep_bits(self, stencil, digests):
        # sha256 of the spectral tables at n = 1, 50, 400 and of the sweep
        # to 400, recorded when the spectral route still carried the zero
        # coefficients through its lag loop (numpy 2.4.6, x86-64).
        # The tables and the sums were complex128 then, so they are hashed
        # as complex128.
        def digest(arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(a.tobytes())
            return h.hexdigest()

        n_values = (1, 50, 400)
        sums, *norms = spectral_sweep(stencil, 400)
        assert (digest(green_spectral(stencil, n).values.astype(complex)
                       for n in n_values),
                digest([sums.astype(complex), *norms])) == digests
        # The direct tables: as close to the double-double ones as the step
        # loop's, and exactly zero where they are.
        for n, exact, loop in zip(n_values, dd_greens(stencil, n_values),
                                  ieee_direct_tables(stencil, n_values)):
            values = green_direct(stencil, n).values
            assert_near_exact(values, exact, loop.values)
            assert np.array_equal(values == 0, exact == 0)


# The stencils and step counts of the live-band tests: Lax-Wendroff and
# Beam-Warming over their Courant ranges, a 5-point product, two complex
# stencils (the second with complex autocorrelation), a non-conservative
# one, one with interior zeros and a wide sparse one.
LIVE_STENCILS = (
    *(lax_wendroff(lam) for lam in (0.1, 0.3, 0.5, 0.75, 0.9)),
    *(beam_warming(lam) for lam in (0.3, 0.5, 1.5, 1.8)),
    LW5, COMPLEX, Stencil(-1, (0.2 + 0.1j, 0.5, 0.2 - 0.05j)),
    Stencil(-1, (0.1, 0.7, 0.1)), Stencil(-2, (0.25, 0, 0.5, 0, 0.25)),
    Stencil(0, (0.5,) + (0.0,) * 399999 + (0.5,)))
# Those whose alias-free grid would take more than 64 MB are left out.
LIVE_CASES = [
    (s, n) for s in LIVE_STENCILS
    for n in (1, 7, 100, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
    if green._window_plan(s, n)[1] is not None and s.is_real
    or green._window_bytes(green._fft_length(n * s.support_width + 1),
                           s.is_real) <= 64e6]
KERNEL = green._aliased_coefficients


def transforms(monkeypatch, stencil, n):
    """The (size, half, coeffs, floor, far_mass) of every transform of
    _spectral_window(stencil, n)."""
    seen = []

    def spy(stencil, n, size, alpha, frac, half):
        out = KERNEL(stencil, n, size, alpha, frac, half)
        seen.append((size, half, *out))
        return out

    monkeypatch.setattr(green, "_aliased_coefficients", spy)
    _spectral_window(stencil, n)
    return seen


def long_double_square(stencil, size, samples):
    """|F(theta_k)|^2 in long double at theta_k = -2 pi k / size, k <
    samples, each l theta_k reduced in integers."""
    k = np.arange(samples)
    re = np.zeros(samples, dtype=np.longdouble)
    im = np.zeros(samples, dtype=np.longdouble)
    turn = 2 * np.pi * np.longdouble(1) / size
    for offset, coeff in stencil.terms:
        angle = turn * (offset * k % size)
        cos, sin = np.cos(angle), -np.sin(angle)
        a, b = np.longdouble(coeff.real), np.longdouble(coeff.imag)
        re += a * cos - b * sin
        im += a * sin + b * cos
    return re * re + im * im


class TestLiveBand:
    """The spectral route evaluates only the samples whose n-th power can
    be nonzero; the others are +0 and every result keeps its bits."""

    @pytest.mark.parametrize("stencil,n", LIVE_CASES)
    def test_bound_is_an_upper_bound(self, monkeypatch, stencil, n):
        seen = transforms(monkeypatch, stencil, n)
        base, lags = green._autocorrelation(stencil, 0.0)
        for size, half, *_ in seen:
            samples = size // 2 + 1 if half else size
            bound = green._square_bound(size, samples, base, lags)
            exact = long_double_square(stencil, size, samples)
            assert np.all(bound.astype(np.longdouble) >= exact)

    @pytest.mark.parametrize("stencil,n", LIVE_CASES)
    def test_every_sample_live_keeps_bits(self, monkeypatch, stencil, n):
        live = transforms(monkeypatch, stencil, n)
        monkeypatch.setattr(green, "_live_band", lambda *args: None)
        every = transforms(monkeypatch, stencil, n)
        assert len(live) == len(every)
        for ours, theirs in zip(live, every):
            assert ours[:2] == theirs[:2]
            for a, b in zip(ours[2:], theirs[2:]):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_live_fraction(self, monkeypatch):
        # Measured for Lax-Wendroff 3/4: every sample at n = 100, 0.127 of
        # them at n = 1e6.
        fractions = []
        band = green._live_band

        def spy(stencil, n, size, samples, rounding):
            live = band(stencil, n, size, samples, rounding)
            fractions.append(1.0 if live is None else live.mean())
            return live

        monkeypatch.setattr(green, "_live_band", spy)
        _spectral_window(lax_wendroff(0.75), 100)
        assert fractions and set(fractions) == {1.0}
        fractions.clear()
        _spectral_window(lax_wendroff(0.75), 10 ** 6)
        assert fractions and max(fractions) < 0.2


class TestDtypeRule:
    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), COMPLEX, Stencil(2, (-0.5,)),
        Stencil(-1, (0.5 + 0.5j,))])
    def test_every_route_takes_the_stencil_dtype(self, stencil):
        dtype = stencil_dtype(stencil)
        tables = [green_direct(stencil, 50), green_spectral(stencil, 50),
                  _spectral_window(stencil, 50)[0],
                  *green._direct_tables(stencil, [1, 7, 7, 50])]
        assert [g.values.dtype for g in tables] == [dtype] * len(tables)
        sums, *norms = spectral_sweep(stencil, 50)
        assert sums.dtype == dtype
        assert [a.dtype for a in norms] == [np.dtype(float)] * 3
        assert evolve(stencil, delta(), 50).values.dtype == dtype
        data = GridFunction(0, (1.0, 0.5j))
        assert evolve(stencil, data, 50).values.dtype == complex


def alias_free_sweep(stencil, n_max):
    """Reference sweep: one full FFT per n on the alias-free grid of n_max,
    norms over the support of each G^n."""
    size = green._fft_length(n_max * stencil.support_width + 1)
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


SWEEP_N = 2000
SWEEP_CASES = [
    lax_wendroff(0.75),                  # c3 > 0
    reflect(lax_wendroff(0.75)),         # c3 < 0
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
        assert _spectral_window(s, SWEEP_N)[1] < green._fft_length(
            SWEEP_N * s.support_width + 1)

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
        planning = green._window_bytes(size, True)
        monkeypatch.setenv(MEMORY_BUDGET_ENV,
                           repr((1.5 * planning + green._FIXED_BYTES) / 1e6))
        with pytest.raises(MemoryBudgetError):
            spectral_sweep(s, SWEEP_N)

    @pytest.mark.parametrize("stencil", SWEEP_STENCILS)
    def test_traced_peak_within_model(self, stencil):
        # The largest need checked, the planning transform's or the
        # sweep's, bounds the traced peak of the whole call.  Measured: at
        # most 0.90 of it (LW5 at 2000).
        peak, need = traced(spectral_sweep, stencil, SWEEP_N)
        assert peak <= need

    # One batch, part of one, a block and a batch past it, and many.
    @pytest.mark.parametrize("n_max", [1, 8, 9, 16, 17, 50, 100, 500])
    @pytest.mark.parametrize("stencil", SWEEP_STENCILS)
    def test_small_n_max_traced_peak_within_model(self, stencil, n_max):
        peak, need = traced(spectral_sweep, stencil, n_max)
        assert peak <= need


PURE_SHIFT = Stencil(2, (0.999,))
# sha256 of the bytes of (sums, l1, l2, linf) from spectral_sweep, taken
# when each block of eight n was inverted, reduced and checked on its own
# (numpy 2.4.6, x86-64).  Batching the blocks must not change a bit.
SWEEP_DIGESTS = {
    "lw075": (lax_wendroff(0.75), {
        1: "036f5fd0eee43632d85974e7abe101112262571fee907e16991205df11543423",
        8: "ff7356f023d604e4b98d61f69946baee9e21c7a46302696e2b9d4c87362fa426",
        9: "db0c65481c333c38b66e135e1a51b47e9c406550e49741b4bbecb3dca1f0e6f4",
        16: "c58f4ccd7a7bee68dc5929edca3578af88b087c630c8d7b68b96246852fb5ffa",
        17: "b12e0864ae3c6309a2476a08676a08199dd0246df18ab595b9762e0dd21a591f",
        100: "f705765b458b73d7cbb2092f21cbe162fac04040026daf0f138e90451e8ee4f9",
        2000: "bc4cd7d27ead7dcf031373b8a8b6a9195315c9d469050f97e809fee2c9e6f22d",
    }),
    "lw03": (lax_wendroff(0.3), {
        1: "5dabd39abe81140543cc52682060aadd80780b8dcccebf8a8e07fb744fea7cef",
        8: "1104c748f3bebc7f32a5dc7b566827ed9e09454b9a9c5688af39e3189af27190",
        9: "6e2c2cf46833cb5b9d0dced0f4c7e9e2bf8fed5a39e033b66cf2908be7743442",
        16: "1fa3bd29ec7b8d16c0ce101c2921da71f64dc6c6dc7b243e42aecff6d6941c8a",
        17: "26d06a7710bce1ba207c69c7f298e09f8481f9fdc2df6b89dc404b85a974733c",
        100: "d1fbafc8ceb3e779cd9440d5f40652eb750ebdf143c80b70aeb4c98f891a8efa",
        2000: "92d7c3ab05e0569ca9f9047773416372376c775cd4158a6fd250e4c516ec3931",
    }),
    "bw15": (beam_warming(1.5), {
        1: "6cd99a6c9c659641f6697cb19aa92f4c4561528c42124bb5e9775223629d5476",
        8: "27f46fe7f77e2059e47b59e223484fb966d6fbb855d90b11c03422bf14004c40",
        9: "7ce3f0d4faaaa52e487e157df3e326b63a407f1feb61f088970d1f48b1acc2c6",
        16: "197ad6ff52850d4ab475cb4ece1454f4f8963fdedd9f3131ae5d34e1ed65ab87",
        17: "e7abc870b656cd00e32b73bad689b320d998cacbee5d5fb1547b5d28ee2ef800",
        100: "b6f7d3c58a0891d73ea87c91b53ebac96834e0d312ca3398359d35a98576502b",
        2000: "21307b6f01e2826f04c6d025b19e660d96a039cda994bcdd6083e53c5ac91830",
    }),
    "bw05": (beam_warming(0.5), {
        1: "79ebda10b880218d3fcfcb79fc5a32de6b4f63bd70fd8894f09daf47b576418d",
        8: "9cce8311c3fbfaef12c67aacd5cbc2485cd3a0e489fbb930f658976a4a795135",
        9: "be776176cce9942ce583db59ccd5063efecbd30d9e0e47dbd1b269c6015a3107",
        16: "b562e4499f1f8d6c9e424d38dda00f154551c03b8f15137669e9f31cb9baf87f",
        17: "27fce70ae3e2642a8909587ecad57abbf00dbe303c1b79188ea0ef2615900643",
        100: "d220f84a68e431833706022092532f60e8b0d7982dcb1735181ba26fbee63504",
        2000: "8d0880dba71d6bcf685f5f087ef9841697c2224f1664286968f96982ec328898",
    }),
    "lw5": (LW5, {
        1: "f283f0442dd2932bcb5ff733938684ae66979e2428c1d687b55b93ac6c899432",
        8: "fc64853809d62b320c5a0b1b37b712e331166e076bea93e235c40869893d9032",
        9: "52b3d5189dc4689094f5b903756a7f2927d1f23148894ba3c9d71aafaf254443",
        16: "e8a22e8f8c913a4516d833464236bd7c83cc745d442aa2e30d68fd93f69d6e65",
        17: "3471ef5ba97a86544743b06f0b50e3ebe32f40f63984a598de390738966338ab",
        100: "7f2934224b6c5693c4fbc92ada68c1ce9194fe018ddad7a143db451cdd9d9d74",
        2000: "d1db1045e7b4168360e4d3ebcba831c65e06f62899cfcf5cb2d0ac8be0d89443",
    }),
    "complex": (COMPLEX, {
        1: "3de11fb06969d8195addca0077290819b643eb68360b0a17bd02c5893cd91cc4",
        8: "d5941d9b20f5d88349d0b394c63aaa10820a23900147a519d42513213b49bf57",
        9: "9f796ec6691412328a35784caa307d97b6947d88d11fd1712caae280de13b314",
        16: "17eabd2d80310b805e9a890907bb6585245e6f0d7486e031f51d6cdadc1741df",
        17: "6c861acad0d70e749e49c558d41ec747af414c17f661bd251ab0a294413ca70d",
        100: "70885e6097c8f7b1cc44bb777a3a073557f8af44dfdafb10581aa6b5b3d8f30e",
        500: "82c9520d1766c20710b4384dc265b222174cfcd033fe815e7e006d4f0dcbee15",
    }),
    "shift": (PURE_SHIFT, {
        1: "7e17e72c840ee35712c1957e46e7616c8bad1bb16398418890737e43d9ea13f5",
        8: "cf3a667623e60c778783217a3b66340860d98d123d52eece652e8a3e1c309c35",
        9: "82fa189c51c0e9d8a17afb6edab0585bf4a658f7febf76055c262951ba3cd629",
        16: "60576b7b21c3f34a01d4a4cfc73ba7afa92078012e5829f1c9a60ba5c5f43cf8",
        17: "96b14262a0a13f20508fac54ed888da56f3dfe873d05f68dd087d7bdd24ed179",
        100: "1fe4eedc6c3296d109b7b9b7b1c4f100b8c682d092cc4c7ee62877fc14087cb2",
        2000: "d41dd63ad1a69aebe6b433effbbb2409d1a428be6c07b311df1d0a6905c9b197",
    }),
}


def sweep_digest(result):
    h = hashlib.sha256()
    for a in result:
        h.update(a.tobytes())
    return h.hexdigest()


class TestSweepBits:
    @pytest.mark.parametrize("key,n_max", [
        (key, n_max) for key, (_, pins) in SWEEP_DIGESTS.items()
        for n_max in pins])
    def test_bits_pinned(self, key, n_max):
        stencil, pins = SWEEP_DIGESTS[key]
        assert sweep_digest(spectral_sweep(stencil, n_max)) == pins[n_max]

    def test_doubling_path_pinned(self, monkeypatch):
        # The path test_failed_guard_band_doubles forces: an eighth of the
        # settled length, doubled back by failed guard bands.
        window = green._spectral_window
        monkeypatch.setattr(green, "_spectral_window", lambda *a, **k: (
            None, window(*a, **k)[1] // 8))
        runs = []
        norms = green._sweep_norms

        def spy(*args):
            runs.append(args[2])
            return norms(*args)

        monkeypatch.setattr(green, "_sweep_norms", spy)
        result = spectral_sweep(lax_wendroff(0.75), SWEEP_N)
        assert len(runs) == 4
        assert sweep_digest(result) == SWEEP_DIGESTS["lw075"][1][SWEEP_N]


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

    @pytest.mark.parametrize("dx,half_width,j_min,j_max", [
        (0.25, 0.5, -4, 4), (0.1, 0.5, -7, 7), (1e-4, 1.0, -10002, 10002),
        (0.7, 2.05, -5, 5), (3.0, 0.5, -2, 2), (0.3, 1.0, 2, 40),
        (1e-3, 0.3337, -400, 100), (2.0 ** -20, 0.1, -104859, 104859),
        # Edge cells whose bits change if (j + 1) * dx becomes j * dx + dx.
        (0.1, 0.55, -7, 7), (0.11, 1.05, -11, 11), (0.007, 1.0, -144, 144),
    ])
    def test_sample_step_bits(self, dx, half_width, j_min, j_max):
        u = sample_step(dx, half_width, j_min, j_max)
        cells = [cell_average_indicator(j * dx, (j + 1) * dx, half_width)
                 for j in range(j_min, j_max + 1)]
        assert u.min_index == j_min
        assert u.values.tobytes() == np.asarray(cells, dtype=float).tobytes()

    def test_sample_step_empty_cell(self):
        # Cells 2 and 3 run from inf to inf, as cell_average_indicator
        # refuses them.
        with pytest.raises(ValueError, match="empty cell"):
            cell_average_indicator(2 * 1e308, 3 * 1e308, 1.0)
        with pytest.raises(ValueError, match="empty cell"):
            sample_step(1e308, 1.0, 0, 2)
        assert sample_step(1e308, 1.0, -1, 0).values.tolist() == [
            cell_average_indicator(j * 1e308, (j + 1) * 1e308, 1.0)
            for j in (-1, 0)]

    def test_table_mass_is_one(self):
        g = green_direct(lax_wendroff(0.5), 4)
        assert complex(g.values.sum()) == pytest.approx(1.0, abs=1e-14)
