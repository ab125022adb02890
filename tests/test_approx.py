import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

from dgreen import approx
from dgreen.approx import (
    ApproxParams,
    airy_ai,
    approx_G,
    approx_H,
    erf,
    growth_constant,
)
from dgreen.stencil import beam_warming, expansion_coefficients, lax_wendroff

# High-precision references frozen from a 50-digit mpmath evaluation.
ERF_REFS = {
    0.03125: 0.035250373867322825999,
    0.25: 0.27632639016823693299,
    0.5: 0.52049987781304653768,
    1.0: 0.84270079294971486934,
    1.5: 0.96610514647531072707,
    1.9: 0.99279042923525746724,
    2.0: 0.99532226501895273416,
    2.1: 0.99702053334366701571,
    2.5: 0.99959304798255504106,
    3.0: 0.99997790950300141456,
    4.0: 0.99999998458274209972,
    5.5: 0.99999999999999264215,
    7.0: 1.0,
}

AIRY_REFS = {
    -12.5: -0.27627456138116024823,
    -10.0: 0.040241238486443190689,
    -8.25: -0.25453632099656064655,
    -6.75: -0.033384790588764958991,
    -6.0: -0.32914517362982310523,
    -4.5: 0.29215278105595946688,
    -3.0: -0.37881429367765807435,
    -2.0: 0.22740742820168557599,
    -1.0: 0.5355608832923521188,
    -0.5: 0.4757280916105395888,
    0.0: 0.35502805388781723926,
    0.5: 0.23169360648083348977,
    1.0: 0.13529241631288141552,
    2.0: 0.034924130423274379135,
    3.0: 0.0065911393574607191443,
    3.9: 0.0011676548729914496993,
    4.3: 0.00050778716815614948461,
    5.0: 0.00010834442813607441735,
    5.75: 0.000018421246197730245821,
    6.5: 2.7958823432049135855e-6,
    7.3: 3.3251378244377592157e-7,
    7.9: 6.2396400972839341797e-8,
    8.1: 3.5224356235735714843e-8,
    9.0: 2.4711684308724898433e-9,
    10.0: 1.1047532552898685934e-10,
    12.0: 1.393184688875360839e-13,
    20.0: 1.6916728686705403136e-27,
    35.0: 1.2981999731218426944e-61,
    50.0: 4.5849417240748284783e-104,
}

GROWTH_ELL_LW34 = 0.6362153564491495


def lw34_params():
    return ApproxParams.from_expansion(
        expansion_coefficients(lax_wendroff(0.75)))


def quad_G(params, n, j):
    """Adaptive quadrature of the defining integral of approx_G."""
    d = j - params.alpha * n
    if params.c3_sign < 0:
        d = -d
    if d == 0.0:
        return 0.0
    a = abs(d)
    c3 = params.c3_abs
    k = math.sqrt(3.0 * c3 * n * a)
    half = math.sqrt(2.0 * a / (3.0 * c3 * n))
    integral, err = integrate.quad(lambda u: math.exp(-k * u * u),
                                   -half, half, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    gauss = math.exp(-params.beta0 * d * d / n)
    osc = math.cos(params.beta1 * a ** 1.5 / math.sqrt(n) - math.pi / 4.0)
    return gauss * osc * integral / math.pi


def approx_G_everywhere(params, n, j):
    """approx_G with its erf window evaluated at every point, also where
    the Gaussian factor underflows: the reference for approx_G's bits."""
    d, scalar = approx._front_distance(params, n, j)
    ad = np.abs(d)
    c3n = 3.0 * params.c3_abs * n
    out = np.zeros_like(ad)
    nz = ad > 0.0
    adn = ad[nz]
    with np.errstate(under="ignore"):
        gauss = np.exp(-params.beta0 * d[nz] ** 2 / n)
        osc = np.cos(params.beta1 * adn ** 1.5 / math.sqrt(n) - 0.25 * math.pi)
        window = (math.sqrt(math.pi) / (c3n * adn) ** 0.25
                  * erf(math.sqrt(2.0) * adn ** 0.75 / c3n ** 0.25))
        out[nz] = gauss * osc * window / math.pi
    return float(out[0]) if scalar else out


def ai_asymp_pos_everywhere(x):
    """Ai's decaying expansion summed at every x, also where exp(-zeta)
    underflows: the reference for airy_ai's bits on x >= 8."""
    zeta = (2.0 / 3.0) * x ** 1.5
    term = np.ones_like(x)
    acc = term.copy()
    for k in range(1, 25):
        term = term * (-approx._u_ratio(k)) / zeta
        acc += term
    with np.errstate(under="ignore"):
        return np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x ** 0.25) * acc


def approx_H_everywhere(params, n, j):
    """approx_H with Ai evaluated at every point, also where the damping or
    exp(-zeta) underflows: the reference for approx_H's bits."""
    d, scalar = approx._front_distance(params, n, j)
    z = (3.0 * params.c3_abs * n) ** (1.0 / 3.0)
    with np.errstate(under="ignore"):
        x = d / z
        ai = airy_ai(x)
        ahead = x >= approx._ASYMP_POS
        ai[ahead] = ai_asymp_pos_everywhere(x[ahead])
        vals = ai / z
        behind = d < 0.0
        if behind.any():
            vals[behind] *= np.exp(-params.beta0 * d[behind] ** 2 / n)
    return float(vals[0]) if scalar else vals


class TestErf:
    @pytest.mark.parametrize("x,ref", sorted(ERF_REFS.items()))
    def test_frozen_references(self, x, ref):
        assert abs(erf(x) - ref) <= 1e-12
        assert abs(erf(-x) + ref) <= 1e-12

    def test_zero_and_range(self):
        assert erf(0.0) == 0.0
        x = np.linspace(-8, 8, 401)
        y = erf(x)
        assert np.all(np.abs(y) < 1.0 + 1e-15)
        assert np.all(np.diff(y) >= 0)

    def test_against_scipy_dense(self):
        x = np.linspace(-6, 6, 2401)
        assert np.max(np.abs(erf(x) - special.erf(x))) <= 1e-13

    def test_series_cf_seam(self):
        # the implementation switches method near |x| = 2
        x = np.linspace(1.9, 2.1, 101)
        assert np.max(np.abs(erf(x) - special.erf(x))) <= 1e-14

    def test_scalar_type(self):
        assert isinstance(erf(0.7), float)


class TestAiryAi:
    @pytest.mark.parametrize("x,ref", sorted(AIRY_REFS.items()))
    def test_frozen_references(self, x, ref):
        assert_allclose(airy_ai(x), ref, rtol=1e-10, atol=1e-13)

    def test_against_scipy_dense(self):
        # relative accuracy away from zeros, absolute 1e-12 near them where
        # relative error is ill-posed
        x = np.linspace(-10, 10, 4001)
        assert_allclose(airy_ai(x), special.airy(x)[0],
                        rtol=1e-10, atol=1e-12)

    def test_against_scipy_far_right(self):
        x = np.linspace(10, 50, 401)
        ours = airy_ai(x)
        ref = special.airy(x)[0]
        assert np.max(np.abs(ours - ref)) <= 1e-12
        assert np.max(np.abs(ours / ref - 1.0)) <= 1e-10

    def test_against_scipy_far_left(self):
        x = np.linspace(-50, -10, 801)
        ours = airy_ai(x)
        ref = special.airy(x)[0]
        assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_closed_form_origin(self):
        ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert airy_ai(0.0) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("x", (-2.0, 0.0, 1.0, 3.0))
    def test_ode_residual(self, x):
        # Ai'' = x Ai via central second difference
        h = 1e-3
        second = (airy_ai(x - h) - 2.0 * airy_ai(x) + airy_ai(x + h)) / h ** 2
        assert abs(second - x * airy_ai(x)) <= 1e-6

    def test_sign_margin(self):
        # The asymptotic sums of _ai_asymp_neg at its smallest zeta: odd and
        # even - 1 are bounded by the sums of their term magnitudes, which
        # fall with zeta.
        zeta = (2.0 / 3.0) * (-approx._MACLAURIN_LO) ** 1.5
        term, odd, even = 1.0, 0.0, 0.0
        for m in range(1, 22):
            term *= approx._u_ratio(m) / zeta
            odd, even = (odd + term, even) if m % 2 else (odd, even + term)
        assert odd / (1.0 - even) < approx._AI_SIGN_MARGIN / 4

    def test_sign_from_phase(self):
        # Dense over the far left, and at the zeros of Ai, where the
        # margin hands the sign back to the sums.
        x = np.concatenate([np.linspace(-3000.0, approx._MACLAURIN_LO,
                                        400001),
                            special.ai_zeros(2000)[0]])
        x = x[x <= approx._MACLAURIN_LO]
        sign = approx._ai_asymp_neg_sign(x)
        full = approx._ai_asymp_neg(x)
        decided = sign != 0.0
        assert np.array_equal(sign[decided], np.sign(full[decided]))
        assert 0.02 < np.mean(~decided) < 0.05
        assert not decided[-1000:].any()

    def test_positive_decay(self):
        assert airy_ai(5.0) > 0
        assert airy_ai(5.0) < airy_ai(0.0) * 1e-3

    def test_nan_gives_nan(self):
        # Finite points in every branch: asymptotic left, Maclaurin, anchor,
        # asymptotic right; NaN at both ends, between them and in a block.
        finite = np.array([-10.0, 1.0, 3.0, 9.0, 200.0])
        x = np.full(64, np.nan)
        where = np.array([3, 17, 18, 40, 62])
        x[where] = finite
        got = airy_ai(x)
        assert np.isnan(np.delete(got, where)).all()
        assert got[where].tobytes() == airy_ai(finite).tobytes()
        assert math.isnan(airy_ai(math.nan))
        assert math.isnan(airy_ai(np.float64(math.nan)))


class TestApproxParams:
    def test_beta_identities(self):
        p = lw34_params()
        c3, c4 = p.c3_abs, p.c4
        assert p.beta0 == pytest.approx(c4 / (9 * c3 * c3), rel=1e-14)
        assert p.beta1 == pytest.approx(2 / (3 * math.sqrt(3 * c3)),
                                        rel=1e-14)

    def test_sign_rule(self):
        assert lw34_params().c3_sign == 1
        bw_hi = ApproxParams.from_expansion(
            expansion_coefficients(beam_warming(1.5)))
        assert bw_hi.c3_sign == 1
        bw_lo = ApproxParams.from_expansion(
            expansion_coefficients(beam_warming(0.5)))
        assert bw_lo.c3_sign == -1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ApproxParams.from_values(0.5, 0.0, 0.01)
        with pytest.raises(ValueError):
            ApproxParams.from_values(0.5, 0.05, -0.01)
        with pytest.raises(ValueError):
            ApproxParams.from_values(0.5, math.nan, 0.01)
        # beta0 and beta1 derive from c3 and c4; they cannot be passed.
        with pytest.raises(TypeError):
            ApproxParams(alpha=0.5, c3_abs=0.05, c3_sign=1, c4=0.01,
                         beta0=1.0, beta1=1.0)


class TestApproxG:
    def test_zero_at_front(self):
        p = lw34_params()
        n = 16  # alpha*n = 12 lands on the lattice
        assert approx_G(p, n, 12) == 0.0

    def test_even_in_distance(self):
        p = lw34_params()
        n = 400
        d = np.asarray([3.5, 11.0, 27.25])
        left = approx_G(p, n, p.alpha * n - d)
        right = approx_G(p, n, p.alpha * n + d)
        assert_allclose(left, right, rtol=1e-13, atol=0)

    def test_negative_c3_reflects(self):
        pos = ApproxParams.from_values(0.5, 0.0625, 0.0234375)
        neg = ApproxParams.from_values(0.5, -0.0625, 0.0234375)
        n = 300
        for t in (-40.0, -7.5, 13.0):
            assert approx_G(neg, n, 0.5 * n + t) == pytest.approx(
                approx_G(pos, n, 0.5 * n - t), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("n,t", [(240, -30.0), (240, -7.0),
                                     (1000, -55.5), (1000, -12.25),
                                     (2400, -200.0), (2400, -41.0),
                                     (2400, 18.0), (2400, -3.0),
                                     (500, 9.5), (777, -24.0)])
    def test_against_quadrature(self, n, t):
        p = lw34_params()
        j = p.alpha * n + t
        assert abs(approx_G(p, n, j) - quad_G(p, n, j)) <= 1e-10

    def test_quadrature_bw_negative_c3(self):
        p = ApproxParams.from_expansion(
            expansion_coefficients(beam_warming(0.5)))
        for t in (25.0, 60.5):
            j = p.alpha * 900 + t
            assert abs(approx_G(p, 900, j) - quad_G(p, 900, j)) <= 1e-10

    def test_trivial_amplitude_bound(self):
        p = lw34_params()
        n = 2400
        j = np.arange(-n, 2 * n + 1)
        d = np.abs(j - p.alpha * n)
        cap = (2.0 / math.pi) * np.sqrt(2.0 * d / (3.0 * p.c3_abs * n))
        assert np.all(np.abs(approx_G(p, n, j)) <= cap + 1e-15)


def _table_offsets(stencil, n):
    return np.arange(stencil.min_offset * n, stencil.max_offset * n + 1)


class TestUnderflowBits:
    """approx_G and approx_H skip the series where an underflowed factor
    leaves only a signed zero; their bits equal the everywhere-evaluated
    references, signed zeros included."""

    STENCILS = [lax_wendroff(0.35), lax_wendroff(0.6), lax_wendroff(0.84),
                beam_warming(0.5), beam_warming(1.3), beam_warming(1.55)]

    @staticmethod
    def check(stencil, n, j):
        p = ApproxParams.from_expansion(expansion_coefficients(stencil))
        got = approx_G(p, n, j)
        assert np.asarray(got).tobytes() == np.asarray(
            approx_G_everywhere(p, n, j)).tobytes()
        if p.c3_sign > 0:
            got = approx_H(p, n, j)
            assert np.asarray(got).tobytes() == np.asarray(
                approx_H_everywhere(p, n, j)).tobytes()
        return p

    @pytest.mark.parametrize("n", [1, 7, 500, 100_000])
    @pytest.mark.parametrize("stencil", STENCILS, ids=lambda s: s.label)
    def test_tables(self, stencil, n):
        self.check(stencil, n, _table_offsets(stencil, n))

    def test_large_n(self):
        stencil = lax_wendroff(0.6)
        self.check(stencil, 1_000_000, _table_offsets(stencil, 1_000_000))

    def test_scalar_and_front(self):
        lw = lax_wendroff(0.75)
        for j in (12, 11, 40.5, -3):   # alpha n = 12 at n = 16
            self.check(lw, 16, j)
        assert approx_G(lw34_params(), 16, 12) == 0.0
        self.check(beam_warming(1.5), 16, -8)    # alpha n = -8: d = 0
        self.check(lax_wendroff(0.6), 100_000, -90_000)

    def test_airy_tail(self):
        # Around and past x = 107.7, where exp(-zeta) underflows to 0.
        x = np.concatenate([np.linspace(8.0, 1e4, 100_001),
                            np.linspace(107.6, 107.8, 2001), [np.inf]])
        ai = airy_ai(x)
        assert ai.tobytes() == ai_asymp_pos_everywhere(x).tobytes()
        assert (ai > 0.0).any() and (ai == 0.0).any()

    def test_no_underflow(self):
        # n = 7: every point but the front keeps its Gaussian factor.
        stencil = lax_wendroff(0.6)
        j = _table_offsets(stencil, 7)
        p = self.check(stencil, 7, j)
        assert np.all(approx_G_everywhere(p, 7, j)[j != p.alpha * 7] != 0.0)

    def test_signed_zeros_present(self):
        # The cases above do exercise both signs of skipped zeros.
        stencil = lax_wendroff(0.6)
        j = _table_offsets(stencil, 100_000)
        p = ApproxParams.from_expansion(expansion_coefficients(stencil))
        for col in (approx_G(p, 100_000, j), approx_H(p, 100_000, j)):
            zeros = col == 0.0
            assert np.signbit(col[zeros]).any()
            assert not np.signbit(col[zeros]).all()

    def test_traced_peak_approx_G(self):
        # 2e6 + 1 offsets: the inputs and output plus a handful of
        # temporaries; evaluating the window everywhere took 14 arrays.
        stencil = lax_wendroff(0.6)
        j = _table_offsets(stencil, 1_000_000)
        p = ApproxParams.from_expansion(expansion_coefficients(stencil))
        tracemalloc.start()
        try:
            approx_G(p, 1_000_000, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * j.nbytes


class TestApproxH:
    def test_front_value(self):
        p = lw34_params()
        n = 1000
        z = (3.0 * p.c3_abs * n) ** (1.0 / 3.0)
        assert approx_H(p, n, p.alpha * n) == pytest.approx(
            airy_ai(0.0) / z, rel=1e-13)

    def test_gaussian_factor_behind_front(self):
        p = lw34_params()
        n = 1000
        z = (3.0 * p.c3_abs * n) ** (1.0 / 3.0)
        d = -35.0
        bare = airy_ai(d / z) / z
        damped = bare * math.exp(-p.beta0 * d * d / n)
        assert approx_H(p, n, p.alpha * n + d) == pytest.approx(
            damped, rel=1e-13)

    def test_ahead_of_front_no_damping(self):
        p = lw34_params()
        n = 1000
        z = (3.0 * p.c3_abs * n) ** (1.0 / 3.0)
        d = 20.0
        assert approx_H(p, n, p.alpha * n + d) == pytest.approx(
            airy_ai(d / z) / z, rel=1e-13)

    def test_monotone_decay_far_right(self):
        p = lw34_params()
        n = 2400
        z = (3.0 * p.c3_abs * n) ** (1.0 / 3.0)
        start = p.alpha * n + 2.0 * z
        samples = approx_H(p, n, np.linspace(start, start + 30 * z, 60))
        assert np.all(np.diff(samples) < 0)
        assert np.all(samples > 0)

    def test_negative_c3_unsupported(self):
        p = ApproxParams.from_expansion(
            expansion_coefficients(beam_warming(0.5)))
        with pytest.raises(ValueError):
            approx_H(p, 100, 10)


class TestGrowthConstant:
    def test_frozen_reference(self):
        assert growth_constant(0.0546875, 0.03076171875) == pytest.approx(
            GROWTH_ELL_LW34, rel=1e-12)

    def test_homogeneity(self):
        base = growth_constant(0.05, 0.02)
        assert growth_constant(4 * 0.05, 0.02) == pytest.approx(
            2 * base, rel=1e-12)
        s, t = 2.7, 1.9
        assert growth_constant(s * 0.05, t * 0.02) == pytest.approx(
            s ** 0.5 * t ** -0.375 * base, rel=1e-12)

    @pytest.mark.parametrize("lam", (0.25, 0.5, 0.75))
    def test_lw_lambda_form(self, lam):
        # closed form 2^{5/8} Gamma(3/8) / pi^{3/2} (1-lam^2)^{1/8} lam^{-1/4}
        got = growth_constant(lam * (1 - lam * lam) / 6,
                              lam * lam * (1 - lam * lam) / 8)
        ref = (2 ** 0.625 * math.gamma(0.375) / math.pi ** 1.5
               * (1 - lam * lam) ** 0.125 / lam ** 0.25)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_gamma_functional_equation(self):
        assert math.gamma(11 / 8) == pytest.approx(
            (3 / 8) * math.gamma(3 / 8), rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            growth_constant(0.0, 0.01)
        with pytest.raises(ValueError):
            growth_constant(0.05, 0.0)
