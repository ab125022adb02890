import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dgreen import stencil as stencil_module
from dgreen.stencil import (
    CONSERVATION_TOL,
    Stencil,
    _power_sums,
    assumption_audit,
    beam_warming,
    dissipation_check,
    expansion_coefficients,
    lax_wendroff,
    symbol_eval,
)
from references import modulus_identity_check, power_sums, reflect

LW_LAMBDAS = (0.25, 0.5, 0.75)
BW_LAMBDAS = (0.5, 1.5)


def upwind(lam):
    return Stencil(0, (1.0 - lam, lam), label="upwind")


class TestStencil:
    def test_offsets_and_coefficients(self):
        s = lax_wendroff(0.75)
        assert s.min_offset == -1
        assert s.max_offset == 1
        assert s.support_width == 2
        assert_allclose(s.as_array(),
                        [-0.09375, 0.4375, 0.65625], atol=0)
        assert s.terms[2] == (1, 0.65625)
        assert s.offsets.tolist() == [-1, 0, 1]

    def test_zero_ends_trimmed(self):
        s = Stencil(-2, (0.0, 0.25, 0.5, 0.25, 0.0))
        assert s.min_offset == -1
        assert s.max_offset == 1
        assert len(s.coefficients) == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Stencil(0, (0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf,
                                     complex(0.5, math.nan)])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Stencil(0, (0.5, bad))

    def test_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            Stencil(0, (1e308, 1e308))
        with pytest.raises(ValueError, match="overflows"):
            Stencil(-1, (1e308j, 0.0, 1e308j))

    def test_coefficient_sums_are_exact(self, monkeypatch):
        # Array passes give the bits of the per-coefficient Python sums.
        rng = np.random.default_rng(7)
        coeffs = (rng.normal(size=2001) * 10.0 ** rng.integers(-30, 30, 2001)
                  + 1j * rng.normal(size=2001))
        coeffs[[5, 700, 1500]] = 0.0
        s = Stencil(-1000, tuple(coeffs))
        assert s.coefficient_sum() == complex(
            math.fsum(c.real for c in s.coefficients),
            math.fsum(c.imag for c in s.coefficients))
        # The dissipation floor sums abs(complex) of every coefficient;
        # numpy's complex abs differs from it in the last bit for about a
        # third of these.
        summed = []

        def fsum(values):
            summed.append(list(values))
            return math.fsum(summed[-1])

        monkeypatch.setattr(stencil_module, "math",
                            types.SimpleNamespace(pi=math.pi, fsum=fsum))
        dissipation_check(s)
        assert summed == [[abs(c) for c in s.coefficients]]

    def test_trimming_keeps_bits(self):
        s = Stencil(-3, (0.0, -0.0, complex(0.25, -0.0), -0.0, 0.5, 0.25, 0j))
        assert s.min_offset == -1
        assert all(type(c) is complex for c in s.coefficients)
        assert list(map(repr, s.coefficients)) == [
            "(0.25-0j)", "(-0+0j)", "(0.5+0j)", "(0.25+0j)"]
        with pytest.raises(ValueError, match="no nonzero"):
            Stencil(0, (0.0, -0.0, 0j))
        with pytest.raises(ValueError, match="no nonzero"):
            Stencil(0, ())

    def test_derived_state(self):
        coeffs = np.array([0.0, 0.5, 0.0, -0.0, 0.5 + 0.25j, 0.0])
        s = Stencil(-2, coeffs)
        coeffs[1] = 7.0                 # the caller's array stays its own
        assert coeffs.flags.writeable
        assert s.as_array() is s.as_array()
        assert not s.as_array().flags.writeable
        assert s.as_array().tolist() == [0.5, 0j, -0.0, 0.5 + 0.25j]
        assert s.terms == ((-1, 0.5 + 0j), (2, 0.5 + 0.25j))
        assert all(type(l) is int and type(c) is complex for l, c in s.terms)
        assert s.coefficient_sum() == 1 + 0.25j and not s.is_real
        assert lax_wendroff(0.75).is_real and Stencil(0, (-0.0j, 1.0)).is_real
        # Only the three fields take part in equality, hashing and repr.
        assert [f.name for f in dataclasses.fields(Stencil)] == [
            "min_offset", "coefficients", "label"]
        same = Stencil(-1, (0.5, 0, 0, 0.5 + 0.25j))
        assert same == s and hash(same) == hash(s)
        assert repr(s) == ("Stencil(min_offset=-1, coefficients=((0.5+0j), "
                           "0j, (-0+0j), (0.5+0.25j)), label='')")
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.terms = ()

    def test_difference_from_one_overflows(self):
        # The sum is finite, but |sum - 1| exceeds the largest float.
        s = Stencil(0, (1.7e308 + 1.7e308j,))
        with pytest.raises(ValueError, match="coefficient sum overflows"):
            s.is_conservative()
        with pytest.raises(ValueError, match="coefficient sum overflows"):
            assumption_audit(s)

    def test_conservative_sum(self):
        s = beam_warming(1.5)
        assert abs(s.coefficient_sum() - 1.0) <= CONSERVATION_TOL
        assert s.is_conservative()
        assert not Stencil(0, (0.25, 0.5)).is_conservative()

    def test_reflection_involution(self):
        s = beam_warming(0.5)
        r = reflect(s)
        assert r.min_offset == -s.max_offset
        assert_allclose(r.as_array(), s.as_array()[::-1], atol=0)
        assert_allclose(reflect(r).as_array(), s.as_array(), atol=0)


class TestSchemes:
    @pytest.mark.parametrize("lam", LW_LAMBDAS)
    def test_lax_wendroff_coefficients(self, lam):
        s = lax_wendroff(lam)
        expected = [-(lam - lam * lam) / 2, 1 - lam * lam,
                    (lam + lam * lam) / 2]
        assert_allclose(s.as_array(), expected, rtol=0, atol=0)

    @pytest.mark.parametrize("lam", BW_LAMBDAS)
    def test_beam_warming_coefficients(self, lam):
        s = beam_warming(lam)
        expected = [(1 - lam) * (2 - lam) / 2, lam * (2 - lam),
                    -(lam - lam * lam) / 2]
        assert_allclose(s.as_array(), expected, rtol=0, atol=0)

    @pytest.mark.parametrize("lam", (-0.5, 0.0, 1.5))
    def test_lax_wendroff_range(self, lam):
        with pytest.raises(ValueError):
            lax_wendroff(lam)

    @pytest.mark.parametrize("lam", (0.0, 2.5))
    def test_beam_warming_range(self, lam):
        with pytest.raises(ValueError):
            beam_warming(lam)

    def test_shift_degenerations(self):
        # lam = 1 collapses both schemes to a one-point shift stencil.
        assert len(lax_wendroff(1.0).coefficients) == 1
        assert len(beam_warming(1.0).coefficients) == 1
        assert beam_warming(2.0).support_width == 0


class TestSymbol:
    def test_symbol_at_zero_is_sum(self):
        s = lax_wendroff(0.5)
        assert symbol_eval(s, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_symbol_array_shape(self):
        theta = np.linspace(-math.pi, math.pi, 33)
        vals = symbol_eval(lax_wendroff(0.75), theta)
        assert vals.shape == theta.shape
        # F_a(-theta) = conj(F_a(theta)) for real coefficients
        assert_allclose(vals, np.conj(vals[::-1]), atol=1e-15)

    @pytest.mark.parametrize("lam", LW_LAMBDAS)
    def test_modulus_identity_lw(self, lam):
        # |F|^2 = 1 - 4 lam^2 (1-lam^2) sin(theta/2)^4 sampled on 4096 points
        assert modulus_identity_check("lw", lam) <= 1e-12

    @pytest.mark.parametrize("lam", BW_LAMBDAS)
    def test_modulus_identity_bw(self, lam):
        assert modulus_identity_check("bw", lam) <= 1e-12

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.75), beam_warming(1.5),
        Stencil(-2, (0.01171875, -0.125, 0.2109375, 0.65625, 0.24609375)),
        Stencil(-1, (0.25 - 0.05j, 0.5 + 0.1j, 0.25 - 0.05j)),
        Stencil(0, (0.25, 0.0, 0.5, 0.0, 0.25)),
    ])
    def test_values_of_the_dense_sum(self, stencil):
        # Skipping zero coefficients changes no bit of the dense sum.
        theta = np.linspace(-math.pi, math.pi, 4097)
        dense = np.zeros(theta.shape, dtype=complex)
        for offset, coeff in zip(stencil.offsets, stencil.coefficients):
            dense += coeff * np.exp(1j * offset * theta)
        assert np.array_equal(symbol_eval(stencil, theta), dense)

    def test_modulus_identity_rejects_kind(self):
        with pytest.raises(ValueError):
            modulus_identity_check("other", 0.5)

    def test_dissipation_margin_positive(self):
        ok, margin = dissipation_check(lax_wendroff(0.75))
        assert ok
        assert margin > 0

    def test_shift_not_dissipative(self):
        ok, margin = dissipation_check(lax_wendroff(1.0))
        assert not ok
        assert margin <= 1e-15


# Coefficient parts and centers: moderate values, and any finite float, so
# that sums leave the float range too.
_PARTS = st.one_of(st.floats(-2.0, 2.0),
                   st.floats(allow_nan=False, allow_infinity=False))
_CENTERS = st.one_of(st.floats(-4e5, 4e5),
                     st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sparse_stencils(draw):
    """The nonzero terms of real or complex stencils of 2 to 7 terms with
    offsets up to +-400000.  _power_sums reads a stencil's terms alone, so
    a namespace of them stands for a stencil of any span."""
    offsets = draw(st.lists(st.integers(-400000, 400000), min_size=2,
                            max_size=7, unique=True))
    imag = _PARTS if draw(st.booleans()) else st.just(0.0)
    coeffs = st.builds(complex, _PARTS, imag).filter(bool)
    return types.SimpleNamespace(terms=tuple(
        (offset, draw(coeffs)) for offset in sorted(offsets)))


class TestExpansion:
    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(stencil=sparse_stencils(), center=_CENTERS,
           count=st.integers(1, 5))
    def test_power_sums_are_exact(self, stencil, center, count):
        try:
            expected = power_sums(stencil, center, count)
        except OverflowError:
            with pytest.raises(OverflowError):
                _power_sums(stencil, center, count)
        else:
            assert _power_sums(stencil, center, count) == expected

    def test_power_sums_of_lax_wendroff(self):
        # The float coefficients of LW 0.3 sum to 1 + 4.16e-17, which fsum
        # rounds to 1; the defect itself is exact.
        s = lax_wendroff(0.3)
        assert s.coefficient_sum() == 1.0
        assert _power_sums(s, 0.0, 1) == [3 * 2.0 ** -56]

    @pytest.mark.parametrize("lam", LW_LAMBDAS)
    def test_lw_closed_forms(self, lam):
        e = expansion_coefficients(lax_wendroff(lam))
        assert e.alpha == pytest.approx(lam, abs=1e-12)
        assert e.kappa2 <= 1e-12
        assert e.c3 == pytest.approx(lam * (1 - lam * lam) / 6, abs=1e-12)
        assert e.c4 == pytest.approx(lam * lam * (1 - lam * lam) / 8,
                                     abs=1e-12)

    @pytest.mark.parametrize("lam", BW_LAMBDAS)
    def test_bw_closed_forms(self, lam):
        e = expansion_coefficients(beam_warming(lam))
        assert e.alpha == pytest.approx(lam, abs=1e-12)
        assert e.kappa2 <= 1e-12
        assert e.c3 == pytest.approx(-lam * (1 - lam) * (2 - lam) / 6,
                                     abs=1e-12)
        assert e.c4 == pytest.approx(lam * (1 - lam) ** 2 * (2 - lam) / 8,
                                     abs=1e-12)

    def test_bw_c3_sign_flips_at_one(self):
        assert expansion_coefficients(beam_warming(0.5)).c3 < 0
        assert expansion_coefficients(beam_warming(1.5)).c3 > 0

    def test_residual5_small_near_origin(self):
        # fifth order remainder of the cubic-quartic model, probed on
        # theta in [-0.1, 0.1]
        assert expansion_coefficients(lax_wendroff(0.75)).residual5 < 0.1

    def test_reflection_flips_c3(self):
        s = beam_warming(0.5)
        e = expansion_coefficients(s)
        r = expansion_coefficients(reflect(s))
        assert r.c3 == pytest.approx(-e.c3, rel=1e-14)
        assert r.c4 == pytest.approx(e.c4, rel=1e-14)
        assert r.alpha == pytest.approx(-e.alpha, rel=1e-14)

    def test_non_conservative_rejected(self):
        with pytest.raises(ValueError):
            expansion_coefficients(Stencil(0, (0.25, 0.5)))

    def test_wide_offsets_exact(self):
        # Two halves 1e5 apart: kappa2 = N^2 / 4, c4 = N^4 / 192; l^4 = 1e20
        # is past the int64 range.
        e = expansion_coefficients(Stencil(0, (0.5,) + (0,) * 99999 + (0.5,)))
        assert e.kappa2 == pytest.approx(1e10 / 4, rel=1e-15)
        assert e.c4 == pytest.approx(1e20 / 192, rel=1e-15)

    def test_overflowing_moments_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            expansion_coefficients(Stencil(0, (1e200, -1e200, 1.0)))

    def test_upwind_kappa2(self):
        e = expansion_coefficients(upwind(0.75))
        assert e.kappa2 == pytest.approx(0.75 * 0.25, abs=1e-14)


class TestAudit:
    def test_lw_admissible(self):
        audit = assumption_audit(lax_wendroff(0.75))
        assert audit.sums_to_one
        assert audit.dissipative
        assert audit.min_margin > 0
        assert audit.admissible

    def test_shift_inadmissible(self):
        audit = assumption_audit(lax_wendroff(1.0))
        assert audit.sums_to_one
        assert not audit.dissipative
        assert not audit.admissible

    def test_upwind_inadmissible(self):
        # dissipative but kappa2 != 0
        audit = assumption_audit(upwind(0.75))
        assert audit.dissipative
        assert audit.expansion.kappa2 > 1e-2
        assert not audit.admissible

    def test_rounding_level_margin_refused(self):
        # Lax-Wendroff spread onto even sites: |F(pi)| = 1 - 1.3e-14.
        audit = assumption_audit(Stencil(0, (0.375, 0, 0.75, 1.3e-14,
                                             -0.125)))
        assert 0 < audit.min_margin < 1e-13
        assert not audit.dissipative
        assert not audit.admissible

    @pytest.mark.parametrize("stencil", [
        lax_wendroff(0.05), lax_wendroff(0.75), beam_warming(0.9),
        beam_warming(1.5),
        # Two Lax-Wendroff steps: the 5-point stencil of the benchmark.
        Stencil(-2, tuple(np.convolve(lax_wendroff(0.3).as_array(),
                                      lax_wendroff(0.85).as_array()).real)),
    ])
    def test_margin_floor_keeps_schemes(self, stencil):
        # Lax-Wendroff 0.05 and Beam-Warming 0.9 have margins below the
        # floor's constant next to theta = 0; the sin(theta/2)^4 weight
        # leaves that neighbourhood to the c4 > 0 check.
        audit = assumption_audit(stencil)
        assert audit.dissipative
        assert audit.admissible

    def test_non_conservative_audited_normalized(self):
        # the audit normalizes by the coefficient sum so the expansion stays
        # informative, and the verdict is still inadmissible
        audit = assumption_audit(Stencil(0, (0.5, 1.0)))
        assert not audit.sums_to_one
        assert not audit.admissible
        assert math.isfinite(audit.expansion.alpha)
