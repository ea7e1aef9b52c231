import math

import numpy as np
import pytest
from scipy import special as sp

from fraclap.core import (
    CriticalExponents,
    FracParams,
    Regime,
    critical_exponents,
    dimension_reduction_ratio,
    getoor_constant,
    green_constant_k,
    incomplete_kernel_integral,
    normalization_a,
    poisson_constant_C,
)
from fraclap.kernels import _bump, _bump_norm


class TestFracParams:
    def test_regimes(self):
        assert FracParams(1, 0.25).regime is Regime.N_GT_2S
        assert FracParams(1, 0.5).regime is Regime.N_EQ_2S
        assert FracParams(1, 0.75).regime is Regime.N_LT_2S
        assert FracParams(2, 0.9).regime is Regime.N_GT_2S
        assert FracParams(3, 0.5).regime is Regime.N_GT_2S

    @pytest.mark.parametrize("N,s", [(0, 0.5), (-1, 0.5), (2, 0.0), (2, 1.0), (2, -0.3), (2, 1.5)])
    def test_rejects_bad_params(self, N, s):
        with pytest.raises(ValueError):
            FracParams(N, s)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ValueError):
            FracParams(2.5, 0.5)

    def test_constants_positive(self):
        for N in range(1, 7):
            for s in np.linspace(0.05, 0.95, 19):
                p = FracParams(N, float(s))
                assert normalization_a(p) > 0.0
                assert green_constant_k(p) > 0.0
                assert poisson_constant_C(p) > 0.0


class TestSpecialFunctions:
    # the constants call scipy.special directly; these pin the identities they rely on

    def test_gamma_recurrence(self):
        xs = np.linspace(0.5, 49.0, 400)
        lhs = sp.gamma(xs + 1.0)
        rhs = xs * sp.gamma(xs)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12

    def test_beta_identity(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 20.0, 200)
        b = rng.uniform(0.1, 20.0, 200)
        lhs = sp.beta(a, b)
        rhs = np.exp(sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b))
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12

    def test_bump_normalized(self):
        # the bump behind kernels.regularized_poisson
        r = np.linspace(0.5, 1.0, 100001)
        mass = np.trapezoid(_bump_norm() * _bump(r), r)
        assert abs(mass - 1.0) < 1e-6
        assert _bump(0.5) == 0.0
        assert _bump(1.0) == 0.0
        assert _bump(0.75) > 0.0


class TestNormalizationA:
    def test_one_dimensional_half(self):
        # closed form with Gamma(1) = 1 and Gamma(3/2) = sqrt(pi)/2
        assert normalization_a(FracParams(1, 0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_vanishes_at_endpoints(self):
        for N in (1, 2, 3):
            assert normalization_a(FracParams(N, 1e-8)) < 1e-7
            assert normalization_a(FracParams(N, 1.0 - 1e-8)) < 1e-7

    def test_against_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for N, s in [(2, 0.75), (3, 0.3), (1, 0.9), (5, 0.5)]:
            ref = (
                mp.mpf(s)
                * (1 - mp.mpf(s))
                * mp.pi ** (-mp.mpf(N) / 2)
                * mp.mpf(4) ** s
                * mp.gamma(mp.mpf(N) / 2 + s)
                / mp.gamma(2 - mp.mpf(s))
            )
            assert normalization_a(FracParams(N, s)) == pytest.approx(float(ref), rel=1e-13)

    def test_continuity_in_s(self):
        for N in (1, 2, 3):
            ss = np.arange(0.01, 0.995, 0.01)
            vals = np.array([normalization_a(FracParams(N, float(s))) for s in ss])
            assert np.max(np.abs(np.diff(vals))) < 10.0 * 0.01


class TestGreenConstant:
    def test_known_values(self):
        assert green_constant_k(FracParams(1, 0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert green_constant_k(FracParams(3, 0.5)) == pytest.approx(
            1.0 / (2.0 * math.pi**2), rel=1e-14
        )

    def test_vanishes_as_s_to_zero(self):
        # Gamma(s)^2 blows up at 0; at s -> 1 the constant tends to the
        # classical (local Laplacian) Green normalization instead
        assert green_constant_k(FracParams(2, 1e-6)) < 1e-8
        k1 = green_constant_k(FracParams(3, 1.0 - 1e-9))
        assert k1 == pytest.approx(2.0 * math.gamma(1.5) / (4.0 * math.pi**1.5), rel=1e-6)

    def test_classical_limit(self):
        # s -> 1, N = 3: leading Green coefficient matches 1/((N-2) |S^(N-1)|)
        p = FracParams(3, 1.0 - 1e-10)
        lead = 0.5 * green_constant_k(p) * 2.0 / (3.0 - 2.0)
        assert lead == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-8)

    def test_continuity_in_s(self):
        for N in (1, 2, 4):
            ss = np.arange(0.01, 0.995, 0.01)
            vals = np.array([green_constant_k(FracParams(N, float(s))) for s in ss])
            assert np.max(np.abs(np.diff(vals))) < 10.0 * 0.01


class TestPoissonConstant:
    def test_one_dimensional_half(self):
        # radial reduction: int_1^inf (t^2-1)^(-s) t^(-1) dt = pi/(2 sin(pi s))
        assert poisson_constant_C(FracParams(1, 0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_radial_normalization_1d(self):
        # oracle: adaptive radial quadrature of the exterior integral at x=0
        from scipy import integrate

        for N, s in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (3, 0.3)]:
            C = poisson_constant_C(FracParams(N, s))
            surface = 2.0 if N == 1 else 2.0 * math.pi if N == 2 else 4.0 * math.pi
            # int_{|y|>1} (|y|^2-1)^(-s) |y|^(-N) dy radially: (t^2-1)^(-s)/t
            near, _ = integrate.quad(
                lambda t: (t + 1.0) ** (-s) * t ** (-1.0),
                1.0,
                2.0,
                weight="alg",
                wvar=(-s, 0.0),
            )
            far, _ = integrate.quad(
                lambda t: (t * t - 1.0) ** (-s) / t, 2.0, np.inf, epsabs=1e-12, epsrel=1e-11
            )
            assert C * surface * (near + far) == pytest.approx(1.0, abs=1e-8)


class TestIncompleteKernelIntegral:
    def test_zero(self):
        for N, s in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (3, 0.9)]:
            assert incomplete_kernel_integral(FracParams(N, s), 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            incomplete_kernel_integral(FracParams(2, 0.5), -1.0)

    def test_closed_form_arctan(self):
        # N=2, s=1/2: antiderivative 2 arctan(sqrt(z))
        val = incomplete_kernel_integral(FracParams(2, 0.5), 1.0)
        assert val == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_closed_form_sqrt(self):
        # N=3, s=1/2: antiderivative 2 sqrt(z/(1+z))
        val = incomplete_kernel_integral(FracParams(3, 0.5), 4.0)
        assert val == pytest.approx(2.0 * math.sqrt(4.0 / 5.0), rel=1e-12)

    def test_against_mpmath_all_regimes(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        ts = [1e-10, 1e-4, 0.3, 1.0, 2.5, 50.0, 1e4, 1e8, 1e12]
        for N, s in [(1, 0.25), (1, 0.5), (1, 0.6), (1, 0.75), (1, 0.95), (2, 0.5), (2, 0.75), (3, 0.25), (4, 0.9)]:
            p = FracParams(N, s)
            for t in ts:
                x = mp.mpf(t) / (1 + mp.mpf(t))
                ref = float(mp.betainc(s, mp.mpf(N) / 2 - s, 0, x))
                got = incomplete_kernel_integral(p, t)
                assert got == pytest.approx(ref, rel=1e-10), (N, s, t)

    def test_monotone_in_t(self):
        ts = np.logspace(-8, 12, 300)
        for N, s in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.3), (3, 0.7)]:
            vals = incomplete_kernel_integral(FracParams(N, s), ts)
            assert np.all(np.diff(vals) >= 0.0)

    def test_limit_is_beta(self):
        for N, s in [(2, 0.5), (3, 0.75), (5, 0.9)]:
            p = FracParams(N, s)
            lim = sp.beta(s, N / 2.0 - s)
            assert incomplete_kernel_integral(p, 1e14) == pytest.approx(lim, rel=1e-6)
            assert incomplete_kernel_integral(p, np.inf) == pytest.approx(lim, rel=1e-14)


class TestCriticalExponents:
    def test_three_half(self):
        ce = critical_exponents(FracParams(3, 0.5))
        assert ce.halfspace == pytest.approx(3.0)
        assert ce.fullspace == pytest.approx(2.0)

    def test_one_dimensional_unbounded(self):
        # N <= 1+2s always holds in dimension one, so the half-space bound
        # is absent for every s; the full-space bound is absent iff N <= 2s.
        for s in (0.25, 0.5, 0.75):
            ce = critical_exponents(FracParams(1, s))
            assert ce.halfspace is None
            assert ce.halfspace_subcritical(100.0)
        assert critical_exponents(FracParams(1, 0.5)).fullspace is None
        assert critical_exponents(FracParams(1, 0.75)).fullspace is None
        assert critical_exponents(FracParams(1, 0.25)).fullspace == pytest.approx(3.0)

    def test_boundary_case(self):
        ce = critical_exponents(FracParams(2, 0.5))
        assert ce.halfspace is None
        assert ce.fullspace == pytest.approx(3.0)

    def test_subcritical_predicate(self):
        ce = CriticalExponents(halfspace=3.0, fullspace=2.0)
        assert ce.halfspace_subcritical(2.9)
        assert not ce.halfspace_subcritical(3.0)
        assert not ce.halfspace_subcritical(0.5)


class TestDimensionReduction:
    def test_two_dimensional_half(self):
        assert dimension_reduction_ratio(FracParams(2, 0.5)) == pytest.approx(2.0, rel=1e-13)

    def test_rejects_one_dimension(self):
        with pytest.raises(ValueError):
            dimension_reduction_ratio(FracParams(1, 0.5))

    def test_equals_constant_ratio(self):
        for N in range(2, 7):
            for s in np.arange(0.1, 0.95, 0.1):
                p = FracParams(N, float(s))
                lower = FracParams(N - 1, float(s))
                ratio = normalization_a(lower) / normalization_a(p)
                assert dimension_reduction_ratio(p) == pytest.approx(ratio, rel=1e-12)

    def test_equals_quadrature(self):
        from scipy import integrate

        for N in range(2, 7):
            for s in np.arange(0.1, 0.95, 0.2):
                p = FracParams(N, float(s))
                val, _ = integrate.quad(
                    lambda lam: (1.0 + lam * lam) ** (-N / 2.0 - s), -np.inf, np.inf
                )
                assert dimension_reduction_ratio(p) == pytest.approx(val, rel=1e-10)


def test_getoor_constant_one_dim_half():
    assert getoor_constant(FracParams(1, 0.5)) == pytest.approx(1.0, rel=1e-14)
