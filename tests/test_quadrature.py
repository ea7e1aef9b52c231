import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gamma

from fraclap import core, quadrature
from fraclap.core import FracParams, getoor_constant, poisson_constant_C
from fraclap.kernels import riesz_constant
from fraclap.quadrature import (
    QuadratureSpec,
    ScalarField,
    ToleranceNotMet,
    ball_green_integral,
    box_green_mass,
    constant_field,
    exterior_poisson_integral,
    frac_laplacian_point,
    getoor_field,
    halfspace_green_integral,
    poisson_extension_field,
    strip_mass,
)
from fraclap.solver import solve_ball_dirichlet

P1 = FracParams(1, 0.5)
P2 = FracParams(2, 0.5)
P3 = FracParams(3, 0.5)

ZERO = constant_field(0.0)
ONE = constant_field(1.0)


class TestSpecAndField:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=0)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ScalarField(func=lambda p: 0.0, smoothness="analytic")

    def test_constant_field_shapes(self):
        f = constant_field(2.5)
        assert f(np.zeros((4, 2))).shape == (4,)
        assert float(f(np.zeros(2))) == 2.5


class TestFracLaplacian:
    def test_zero_field(self):
        zero = ScalarField(
            func=lambda p: np.zeros(p.shape[:-1]), smoothness="C2", support_radius=1.0, bound=0.0
        )
        v = frac_laplacian_point(P1, zero, np.array([0.1]))
        assert v == 0.0

    def test_requires_c2_tag(self):
        rough = ScalarField(
            func=lambda p: np.zeros(p.shape[:-1]), smoothness="continuous", support_radius=1.0
        )
        with pytest.raises(ValueError):
            frac_laplacian_point(P1, rough, np.array([0.0]))

    def test_bump_max_is_positive(self):
        bump = ScalarField(
            func=lambda p: np.exp(-np.sum(p * p, axis=-1)),
            smoothness="C2",
            decay_exponent=4.0,
            bound=1.0,
        )
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-8)
        assert frac_laplacian_point(P1, bump, np.array([0.0]), spec) > 0.0
        assert frac_laplacian_point(P2, bump, np.array([0.0, 0.0]), spec) > 0.0

    def test_getoor_oracle_1d(self):
        # (-Delta)^(1/2) (1-x^2)_+^(1/2) = 1 in the unit interval
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)
        for x in (0.0, 0.4, 0.8):
            v = frac_laplacian_point(P1, getoor_field(P1), np.array([x]), spec)
            assert v == pytest.approx(1.0, rel=1e-7)

    def test_getoor_oracle_other_orders(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)
        for s in (0.3, 0.75):
            p = FracParams(1, s)
            v = frac_laplacian_point(p, getoor_field(p), np.array([0.2]), spec)
            assert v == pytest.approx(getoor_constant(p), rel=1e-6)

    def test_getoor_2d(self):
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-8)
        v = frac_laplacian_point(P2, getoor_field(P2), np.array([0.3, 0.1]), spec)
        assert v == pytest.approx(getoor_constant(P2), rel=1e-5)

    def test_riesz_roundtrip(self):
        # convolving the fundamental solution with a smooth bump and applying
        # the fractional Laplacian recovers the bump at the center
        N, s = 3, 0.5
        p = FracParams(N, s)
        c = riesz_constant(p)

        def u_profile(r):
            # int |x-y|^(-2) f(y) dy for radial f(y)=exp(-|y|^2), N=3:
            # sphere average of |x-y|^(-2) = (2 pi/(r rho)) log((r+rho)/|r-rho|)
            def integrand(rho):
                ratio = np.log((r + rho) / abs(r - rho)) if r != rho else 0.0
                return rho * np.exp(-(rho**2)) * ratio

            val, _ = integrate.quad(integrand, 0.0, 12.0, points=[r] if r < 12.0 else None, limit=200)
            return c * 2.0 * math.pi / r * val

        u = ScalarField(
            func=lambda pts: np.array(
                [u_profile(max(np.linalg.norm(q), 1e-9)) for q in np.atleast_2d(pts).reshape(-1, N)]
            ).reshape(np.asarray(pts).shape[:-1]),
            smoothness="C2",
            decay_exponent=2.0,
            bound=1.0,
        )
        spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-5)
        v = frac_laplacian_point(p, u, np.array([0.05, 0.0, 0.0]), spec)
        assert v == pytest.approx(math.exp(-0.05**2), abs=1e-3)

    def test_bubble_identity(self):
        # (-Delta)^s (1+|x|^2)^(-e) = lam (1+|x|^2)^(-e-2s) in R^n, e = (n-2s)/2
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
        cases = [(1, 0.25, 0.0), (1, 0.4, 2.0), (2, 0.25, 0.5), (2, 0.5, 1.0), (2, 0.75, 2.0),
                 (3, 0.25, 1.0), (3, 0.5, 2.0), (3, 0.75, 0.5)]
        for n, s, r in cases:
            e = 0.5 * (n - 2.0 * s)
            w = ScalarField(
                func=lambda y, e=e: (1.0 + np.sum(y * y, axis=-1)) ** (-e),
                smoothness="C2",
                decay_exponent=2.0 * e,
                bound=2.0**e,
            )
            lam = 4.0**s * gamma(0.5 * n + s) / gamma(0.5 * n - s)
            x = np.zeros(n)
            x[0] = r
            v = frac_laplacian_point(FracParams(n, s), w, x, spec)
            assert v == pytest.approx(lam * (1.0 + r * r) ** (-e - 2.0 * s), rel=2e-6), (n, s, r)

    def test_bubble_far_from_origin(self):
        # far out (-Delta)^s w is small against w(x): the tail is cut for the result, not for |w(x)| + 1
        n, s = 2, 0.75
        e = 0.5 * (n - 2.0 * s)
        w = ScalarField(
            func=lambda y: (1.0 + np.sum(y * y, axis=-1)) ** (-e), smoothness="C2", decay_exponent=2.0 * e,
            bound=2.0**e,
        )
        lam = 4.0**s * gamma(0.5 * n + s) / gamma(0.5 * n - s)
        for r in (2.0, 4.0):
            v = frac_laplacian_point(FracParams(n, s), w, np.array([r, 0.0]), QuadratureSpec(rel_tol=1e-6))
            assert v == pytest.approx(lam * (1.0 + r * r) ** (-e - 2.0 * s), rel=2e-7), r

    def test_unreachable_tolerance_raises_with_estimate(self):
        # (-Delta)^(1/2) exp(-|x|^2) = 2 Gamma(N/2 + 1/2) / Gamma(N/2) at x = 0
        bump = ScalarField(
            func=lambda p: np.exp(-np.sum(p * p, axis=-1)), smoothness="C2", decay_exponent=4.0, bound=1.0
        )
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-15, max_refinements=2)
        with pytest.raises(ToleranceNotMet) as err:
            frac_laplacian_point(P2, bump, np.zeros(2), spec)
        assert err.value.estimate == pytest.approx(2.0 * gamma(1.5), rel=1e-10)
        assert err.value.error > 100.0 * spec.tolerance(err.value.estimate)

    def test_unbounded_field_needs_decay(self):
        f = ScalarField(func=lambda p: np.zeros(p.shape[:-1]), smoothness="C2")
        with pytest.raises(ValueError):
            frac_laplacian_point(P1, f, np.array([0.0]))


BALL_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
CLOSED_FORM_POINTS = [
    (P1, [0.0]),
    (P1, [-0.6]),
    (FracParams(1, 0.75), [0.3]),
    (FracParams(1, 0.75), [0.95]),
    (FracParams(2, 0.25), [0.3, -0.4]),
    (FracParams(2, 0.25), [0.99, 0.0]),
    (P2, [0.3, -0.4]),
    (P2, [0.99 * math.cos(1.0), 0.99 * math.sin(1.0)]),
    (FracParams(2, 0.75), [0.3, -0.4]),
    (FracParams(2, 0.75), [0.0, 0.99]),
    (P3, [0.0, 0.0, 0.0]),
    (P3, [0.3, 0.0, 0.4]),
]


def _sweep_points():
    # N in {1, 2, 3} x s in {0.05, 0.25, 0.5, 0.75, 0.95} x |x| in {0, 0.5, 0.9, 0.99}
    unit = np.array([1.0, 2.0, -2.0]) / 3.0
    for N in (1, 2, 3):
        for s in (0.05, 0.25, 0.5, 0.75, 0.95):
            for r in (0.0, 0.5, 0.9, 0.99):
                x = r * unit[:N] / np.linalg.norm(unit[:N])
                marks = [pytest.mark.slow] if N == 3 and r >= 0.9 else []
                yield pytest.param(FracParams(N, s), list(x), marks=marks, id=f"sweep-N{N}-s{s:g}-r{r:g}")


def _point_id(value):
    if isinstance(value, FracParams):
        return f"N{value.N}-s{value.s:g}"
    if isinstance(value, list):
        return "x" + ",".join(f"{c:.3g}" for c in value)
    return "ref"


def ball_closed_form(params, x):
    """int_B G(x, y) dy = (1-|x|^2)^s Gamma(N/2) / (4^s Gamma(1+s) Gamma(N/2+s))."""
    N, s = params.N, params.s
    return (1.0 - float(np.dot(x, x))) ** s * gamma(N / 2) / (4.0**s * gamma(1 + s) * gamma(N / 2 + s))


def _exterior_bump_reference(params, x, c):
    """C (1-|x|^2)^s int_{|y|>1} (|y|^2-1)^(-s) |x-y|^(-N) exp(-4|y-c|^2) dy by nested quad.

    Polar coordinates y = rho (cos t, sin t) at N = 2; at N = 3, x and c on
    the first axis, y = rho (cos t, sin t cos phi, sin t sin phi) and the phi
    integral is 2 pi.  The bump is below 1e-40 beyond rho = 7.
    """
    N, s = params.N, params.s

    def angular(rho):
        def f(t):
            y = rho * np.array([math.cos(t), math.sin(t), 0.0][:N])
            kernel = np.sum((x - y) ** 2) ** (-N / 2.0) * math.exp(-4.0 * np.sum((y - c) ** 2))
            return kernel * rho if N == 2 else 2.0 * math.pi * math.sin(t) * rho**2 * kernel

        lo = -math.pi if N == 2 else 0.0
        return integrate.quad(f, lo, math.pi, points=[0.0] if N == 2 else None, epsabs=0.0, epsrel=1e-12,
                              limit=400)[0]

    # (rho^2 - 1)^(-s) = (rho - 1)^(-s) (rho + 1)^(-s), the first factor as the QAWS weight
    radial = integrate.quad(lambda r: angular(r) * (r + 1.0) ** (-s), 1.0, 7.0, weight="alg", wvar=(-s, 0.0),
                            epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return poisson_constant_C(params) * (1.0 - float(x @ x)) ** s * radial


class TestBallGreenIntegral:
    def test_zero_density(self):
        assert ball_green_integral(P1, 1.0, ZERO, np.array([0.2])) == 0.0

    def test_getoor_value(self):
        v = ball_green_integral(P1, 1.0, ONE, np.array([0.0]))
        assert v == pytest.approx(1.0, abs=1e-4)

    def test_linearity(self):
        f1 = constant_field(1.0)
        f3 = constant_field(3.0)
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
        a = ball_green_integral(P2, 1.0, f1, np.array([0.4, 0.1]), spec)
        b = ball_green_integral(P2, 1.0, f3, np.array([0.4, 0.1]), spec)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_refinement_convergence(self):
        # halving tolerances moves the result by less than the coarse tolerance
        x = np.array([0.2, -0.3])
        coarse = ball_green_integral(P2, 1.0, ONE, x, QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8))
        fine = ball_green_integral(P2, 1.0, ONE, x, QuadratureSpec(rel_tol=5e-6, abs_tol=5e-9))
        assert abs(fine - coarse) < 1e-5 * (1.0 + abs(coarse))

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError):
            ball_green_integral(P1, 1.0, ONE, np.array([1.5]))

    @pytest.mark.parametrize("params, x", CLOSED_FORM_POINTS + list(_sweep_points()), ids=_point_id)
    def test_closed_form(self, params, x):
        v = ball_green_integral(params, 1.0, ONE, np.array(x), BALL_SPEC)
        assert abs(v / ball_closed_form(params, x) - 1.0) <= 1e-7

    def test_angular_error_raises_with_estimate(self):
        # the jump of f along y2 = 0 passes 0.05 from x, so the last two
        # angular levels still differ by about 2e-5
        half_plane = ScalarField(
            func=lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        with pytest.raises(ToleranceNotMet) as err:
            ball_green_integral(P2, 1.0, half_plane, np.array([0.3, 0.05]), BALL_SPEC)
        assert err.value.estimate == pytest.approx(0.3579293, abs=1e-5)
        assert err.value.error > 100.0 * BALL_SPEC.tolerance(err.value.estimate)

    def test_batched_rays_bound_memory(self):
        # the batched ray arrays are chunked at _RAY_CHUNK nodes
        P = FracParams(2, 0.25)
        x = np.array([0.99, 0.0])
        tracemalloc.start()
        try:
            ball_green_integral(P, 1.0, ONE, x, BALL_SPEC)
            exterior_poisson_integral(P, 1.0, ONE, x, BALL_SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.slow
    def test_batched_grid_solve_bounds_memory(self):
        # solve_ball_dirichlet takes all interior nodes in one batch per
        # integral, but the engine runs them in blocks of about _RAY_CHUNK
        # panels, so its peak stays below one bound, 2.5 MB, as the grid
        # grows from 97 to 1477 interior nodes
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        solve_ball_dirichlet(P2, 1.0, ONE, ONE, (np.linspace(-0.5, 0.5, 3),) * 2, spec)  # rule tables
        for n in (11, 41):
            tracemalloc.start()
            try:
                solve_ball_dirichlet(P2, 1.0, ONE, ONE, (np.linspace(-0.9, 0.9, n),) * 2, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5e6, n


class TestEndRules:
    EXPONENTS = (-0.5, 0.0, 0.25, 0.5, 0.75)
    # (beta, alpha): every pair of EXPONENTS, and the exterior integral's
    # sigma^(-s) (1 - sigma)^(s-1), whose alpha + beta = -1 (s = 1/2 is a pair above)
    PAIRS = list(itertools.product(EXPONENTS, repeat=2)) + [(s - 1.0, -s) for s in (0.25, 0.75)]

    @staticmethod
    def _moment(alpha, beta, k):
        # int_{-1}^{1} (1+u)^alpha (1-u)^beta u^k du from u^k = sum_j C(k, j) (1+u)^j (-1)^(k-j)
        with mpmath.workdps(50):
            return float(mpmath.fsum(
                mpmath.binomial(k, j) * (-1) ** (k - j) * mpmath.mpf(2) ** (alpha + beta + j + 1)
                * mpmath.beta(alpha + j + 1, beta + 1)
                for j in range(k + 1)
            ))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("beta, alpha", PAIRS)
    def test_weighted_moments(self, n, alpha, beta):
        # the weight is divided out of the stored weights, so the rule sums the whole integrand
        u, w = core._gj(n, alpha, beta)
        for k in range(2 * n):
            got = float(w @ ((1.0 + u) ** alpha * (1.0 - u) ** beta * u**k))
            assert abs(got - self._moment(alpha, beta, k)) <= 1e-13

    def test_both_ends_weighted_under_bisection(self):
        # r^(-1/2) (1 - r)^(1/4) cos(20 r) on [0, 1]: one panel weighted at both
        # ends, which GJ8 cannot resolve, so the ends pass to the children
        def f(r):
            return r**-0.5 * (1.0 - r) ** 0.25 * np.cos(20.0 * r)

        calls = []

        def fvec(r, d):
            calls.append(len(r))
            return f(r)

        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
        value, err = quadrature._adaptive_panels(fvec, np.array([0.0, 1.0]), spec, ends=(-0.5, 0.25))
        with mpmath.workdps(30):
            ref = float(mpmath.quad(lambda r: r**-0.5 * (1 - r) ** 0.25 * mpmath.cos(20 * r), [0, 0.25, 0.5, 0.75, 1]))
        assert len(calls) > 1
        assert abs(value - ref) <= 1e-12 * abs(ref)
        assert err <= spec.tolerance(value)


class TestExteriorPoisson:
    def test_normalization(self):
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
        for params, x in [
            (P1, [0.0]),
            (P1, [0.9]),
            (P2, [0.5, 0.3]),
            (FracParams(3, 0.25), [0.1, 0.2, 0.0]),
            (FracParams(1, 0.75), [-0.4]),
        ]:
            v = exterior_poisson_integral(params, 1.0, ONE, np.array(x), spec)
            assert v == pytest.approx(1.0, abs=1e-13), (params, x)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_ring_data(self, N):
        # g = 1{|y| < 1.5} jumps along the ray; at x = 0 and s = 1/2 the
        # integral is (2/pi) acos(R/1.5); a value off by more than the
        # tolerance must come with a ToleranceNotMet whose error covers it
        ring = ScalarField(
            func=lambda p: np.where(np.sum(p * p, axis=-1) < 2.25, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        ref = 2.0 / math.pi * math.acos(2.0 / 3.0)
        try:
            v = exterior_poisson_integral(FracParams(N, 0.5), 1.0, ring, np.zeros(N))
        except ToleranceNotMet as err:
            assert abs(err.estimate - ref) <= err.error
        else:
            assert v == pytest.approx(ref, rel=1e-8)

    def test_zero_data(self):
        assert exterior_poisson_integral(P2, 1.0, ZERO, np.array([0.1, 0.0])) == 0.0

    @pytest.mark.parametrize(
        "params, x",
        [
            (FracParams(1, 0.75), [0.95]),
            (FracParams(2, 0.25), [0.99, 0.0]),
            (FracParams(2, 0.75), [0.3, -0.4]),
            (P3, [0.3, 0.0, 0.4]),
            (P2, [0.99, 0.0]),
            (FracParams(2, 0.75), [0.99, 0.0]),
            (FracParams(3, 0.75), [0.0, 0.99, 0.0]),
        ],
        ids=_point_id,
    )
    def test_normalization_near_the_sphere(self, params, x):
        v = exterior_poisson_integral(params, 1.0, ONE, np.array(x), BALL_SPEC)
        assert abs(v - 1.0) <= 5e-11

    @pytest.mark.parametrize("params, x", list(_sweep_points()), ids=_point_id)
    def test_normalization_sweep(self, params, x):
        # the ball closed-form sweep, s near 0 and 1 included
        v = exterior_poisson_integral(params, 1.0, ONE, np.array(x), BALL_SPEC)
        assert abs(v - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "N, x, c",
        [
            (2, [0.95, 0.0], [-1.3, 0.0]),
            (2, [0.95, 0.0], [1.3, 0.2]),
            (3, [0.9, 0.0, 0.0], [-1.3, 0.0, 0.0]),
        ],
        ids=["N2-far-side", "N2-near-side", "N3-far-side"],
    )
    def test_off_centre_bump_near_the_sphere(self, N, x, c):
        params = FracParams(N, 0.5)
        x, c = np.array(x), np.array(c)
        bump = ScalarField(
            func=lambda p: np.exp(-4.0 * np.sum((p - c) ** 2, axis=-1)),
            smoothness="C2",
            decay_exponent=4.0,
            bound=1.0,
        )
        v = exterior_poisson_integral(params, 1.0, bump, x, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12))
        assert v == pytest.approx(_exterior_bump_reference(params, x, c), rel=1e-9)

    def test_half_exterior_indicator(self):
        half1 = ScalarField(
            func=lambda p: np.where(p[..., 0] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        v = exterior_poisson_integral(P1, 1.0, half1, np.array([0.0]))
        assert v == pytest.approx(0.5, abs=1e-6)
        half2 = ScalarField(
            func=lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        v = exterior_poisson_integral(P2, 1.0, half2, np.zeros(2))
        assert v == pytest.approx(0.5, abs=1e-6)

    def test_requires_bound_tag(self):
        g = ScalarField(func=lambda p: np.ones(p.shape[:-1]), smoothness="continuous")
        with pytest.raises(ValueError):
            exterior_poisson_integral(P1, 1.0, g, np.array([0.0]))

    def test_extension_raises_as_the_first_failing_point(self):
        # the half-plane data misses the extension's tolerance at (0.3, 0.2)
        # and (0.0, 0.5), not at (0.9, 0.0); (1.5, 0.3) copies g
        half2 = ScalarField(
            func=lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
        u = poisson_extension_field(P2, 1.0, half2, spec)
        with pytest.raises(ToleranceNotMet) as batch:
            u(np.array([[0.9, 0.0], [1.5, 0.3], [0.3, 0.2], [0.0, 0.5]]))
        with pytest.raises(ToleranceNotMet) as alone:
            exterior_poisson_integral(P2, 1.0, half2, np.array([0.3, 0.2]), spec)
        assert str(batch.value) == str(alone.value)
        assert (batch.value.estimate, batch.value.error) == (alone.value.estimate, alone.value.error)

    def test_harmonic_extension_is_s_harmonic(self):
        # the Poisson extension of smooth decaying data has vanishing
        # fractional Laplacian inside the ball
        g = ScalarField(
            func=lambda p: 1.0 / (1.0 + np.sum(p * p, axis=-1)),
            smoothness="C2",
            decay_exponent=2.0,
            bound=1.0,
        )
        u = poisson_extension_field(P1, 1.0, g)
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-7)
        for x in (0.0, 0.5, 0.75):
            v = frac_laplacian_point(P1, u, np.array([x]), spec)
            assert abs(v) <= 1e-4


class TestHalfspaceIntegral:
    def test_zero(self):
        zero = ScalarField(
            func=lambda p: np.zeros(p.shape[:-1]), smoothness="C2", support_radius=1.0, bound=0.0
        )
        assert halfspace_green_integral(P2, zero, np.array([0.5, 0.0])) == 0.0

    INDICATOR = ScalarField(
        func=lambda p: np.where((p[..., 0] > 1.0) & (p[..., 0] < 2.0) & (np.abs(p[..., 1]) < 1.0), 1.0, 0.0),
        smoothness="continuous",
        support_radius=3.0,
        bound=1.0,
    )

    def test_positive_and_increasing_below_box_support(self):
        # source in a box above the evaluation points: moving up both
        # shrinks |x-y| and grows 4 x1 y1, so the value strictly increases;
        # the indicator's own box gives the integral over its support
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
        vals = [
            halfspace_green_integral(P2, self.INDICATOR, np.array([x1, 0.0]), spec, box=([1.0, -1.0], [2.0, 1.0]))
            for x1 in (0.2, 0.5, 0.8)
        ]
        assert vals[0] > 0.0
        assert vals[2] > vals[1] > vals[0]

    def test_jump_inside_the_box_raises_with_estimate(self):
        # over the support box [0, 3] x [-3, 3] the indicator jumps inside,
        # which no tile rule resolves to 1e-6 in four passes
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=4)
        with pytest.raises(ToleranceNotMet) as err:
            halfspace_green_integral(P2, self.INDICATOR, np.array([0.2, 0.0]), spec)
        assert err.value.estimate > 0.0
        assert err.value.error > spec.tolerance(err.value.estimate)

    def test_missing_descriptor_rejected(self):
        f = ScalarField(func=lambda p: np.ones(p.shape[:-1]), smoothness="continuous", bound=1.0)
        with pytest.raises(ValueError):
            halfspace_green_integral(P2, f, np.array([0.5, 0.0]))

    GAUSSIAN = ScalarField(
        func=lambda p: np.exp(-np.sum(p * p, axis=-1)), smoothness="C2", decay_exponent=4.0, bound=1.0
    )

    def test_tail_is_rigorous_only_when_the_box_holds_its_half_ball(self):
        # the bound covers |y| >= L for L >= 2|x|
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        x = np.array([1.5, 0.0])
        L = 2.0 * np.linalg.norm(x) + 1e-9
        tail = quadrature._halfspace_tail_bound(P2, x, self.GAUSSIAN.bound, self.GAUSSIAN.decay_exponent, L)
        whole = halfspace_green_integral(P2, self.GAUSSIAN, x, spec)
        # a box that misses the mass near the origin misses far more than the bound
        off = halfspace_green_integral(P2, self.GAUSSIAN, x, spec, box=([1.0, -1.0], [2.0, 1.0]))
        assert whole - off > 5.0 * tail
        # a box that holds the half-ball |y| < L misses at most the bound
        held, err = quadrature._box_integral(P2, x, np.array([0.0, -4.0]), np.array([4.0, 4.0]), spec, self.GAUSSIAN)
        assert whole - held <= tail + err + 1e-9
        # the bound itself refuses a radius below 2|x|
        with pytest.raises(ValueError):
            quadrature._halfspace_tail_bound(P2, x, 1.0, 4.0, 2.9)

    def test_whole_box_reports_its_angular_error(self):
        # the value must meet the nested-quadrature mass of TestBoxGreenMass,
        # and the reported error cover its miss
        x, lo, hi, ref = TestBoxGreenMass.REFERENCES[3]
        value, error = quadrature._box_integral(
            P2, np.array(x), np.array(lo), np.array(hi), QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10), ONE
        )
        assert abs(value / ref - 1.0) <= 1e-7
        assert error >= abs(value - ref)

    @pytest.mark.parametrize(
        "params", [FracParams(N, s) for N in (1, 2, 3) for s in (0.25, 0.5, 0.75)],
        ids=lambda p: f"N{p.N}-s{p.s:g}",
    )
    def test_point_outside_the_box(self, params):
        # x1 = 1.5 lies above the box y1 in [0, 1] but inside the boxes with
        # y1 in [0, 2] and [1, 2]: their difference checks the pyramids
        # whose apex is the box point nearest x
        N = params.N
        x = np.array([1.5] + [0.0] * (N - 1))
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        below, whole, above = (
            halfspace_green_integral(
                params, ONE, x, spec, box=(np.array([lo1] + [-1.0] * (N - 1)), np.array([hi1] + [1.0] * (N - 1)))
            )
            for lo1, hi1 in ((0.0, 1.0), (0.0, 2.0), (1.0, 2.0))
        )
        assert below == pytest.approx(whole - above, rel=1e-6)

    @pytest.mark.parametrize("params", [FracParams(2, 0.25), P2], ids=lambda p: f"N{p.N}-s{p.s:g}")
    def test_point_just_outside_a_lateral_face(self, params):
        # x2 = 1.001 is 1e-3 outside the face y2 = 1 of [0, 1] x [-1, 1]
        x = np.array([0.5, 1.001])
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        outside, whole, beside = (
            halfspace_green_integral(params, ONE, x, spec, box=([0.0, lo2], [1.0, hi2]))
            for lo2, hi2 in ((-1.0, 1.0), (-1.0, 1.5), (1.0, 1.5))
        )
        assert outside == pytest.approx(whole - beside, rel=1e-6)

    def test_box_mass_positive(self):
        m = box_green_mass(P2, np.array([0.5, 0.0]), [0.0, -1.0], [1.0, 1.0])
        assert m > 0.0


# N > 2s, N = 1 = 2s and N = 1 < 2s
STRIP_PARAMS = [FracParams(1, 0.5), FracParams(1, 0.75), FracParams(2, 0.5), FracParams(3, 0.25),
                FracParams(3, 0.75)]


class TestStripMass:
    def test_positive(self):
        assert strip_mass(P2, 1.0, np.array([0.5, 0.0])) > 0.0

    def test_rejects_point_outside(self):
        with pytest.raises(ValueError):
            strip_mass(P2, 1.0, np.array([1.5, 0.0]))

    def test_rejects_point_of_the_wrong_dimension(self):
        with pytest.raises(ValueError):
            strip_mass(P1, 1.0, [0.5, 3.0, 1.0])
        with pytest.raises(ValueError):
            strip_mass(P2, 1.0, [0.5])

    # int_0^1 G_1(x1, y1) dy1 to 30 digits (mpmath), from
    # I(t) = t^s/s 2F1(1/2, s; s+1; -t) and green_constant_k(FracParams(1, s))
    HALF_LINE_REFERENCES = {
        0.25: (0.5697185676049543, 0.8971698960214877, 0.7638420706590707),
        0.5: (0.2799114369286984, 0.7307080842481433, 0.6898367576444099),
        0.75: (0.1224858580816233, 0.5447145148532507, 0.6074912061887188),
    }

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_every_dimension_has_the_half_line_mass(self, N, s):
        # the lateral integral of G_N is G_1, whatever x' is
        lateral = [0.7, -2.0][: N - 1]
        for x1, ref in zip((0.05, 0.5, 0.95), self.HALF_LINE_REFERENCES[s]):
            assert strip_mass(FracParams(N, s), 1.0, [x1, *lateral]) == pytest.approx(ref, rel=1e-8)

    def test_halving_decreases(self):
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        masses = [
            strip_mass(P2, lam, np.array([0.5 * lam, 0.0]), spec)
            for lam in (1.0, 0.5, 0.25, 0.125)
        ]
        assert np.all(np.diff(masses) < 0.0)

    def test_frozen_oracle_values(self):
        # frozen from the independent nested-quadrature oracle (rel. 1e-9);
        # the scaling law mass(c lam, c x) = c^(2s) mass(lam, x) pins the rest
        v = strip_mass(P2, 1.0, np.array([0.5, 0.0]))
        assert v == pytest.approx(0.7307080842490862, rel=1e-8)
        v8 = strip_mass(P2, 0.125, np.array([0.0625, 0.0]))
        assert v8 == pytest.approx(v / 8.0, rel=1e-8)

    def test_one_dimensional(self):
        v = strip_mass(P1, 1.0, np.array([0.5]))
        assert v == pytest.approx(0.7307080845, rel=1e-7)

    def test_sup_scale_at_small_lambda(self):
        # sup over x of the strip mass at lam = 2^-7 ~ 0.0078: the measured
        # value is ~6e-3 (scaling 2^(-7) * sup_a M(a) with sup_a M ~ 0.764)
        lam = 2.0**-7
        sup = max(
            strip_mass(P2, lam, np.array([a * lam, 0.0])) for a in np.linspace(0.05, 0.95, 7)
        )
        assert sup == pytest.approx(lam * 0.7637, rel=2e-2)

    @pytest.mark.parametrize("params", STRIP_PARAMS, ids=lambda p: f"N{p.N}-s{p.s:g}")
    def test_homogeneity(self, params):
        # mass(c lam, c x) = c^(2s) mass(lam, x): the law lambda0_estimate rests on
        @settings(max_examples=3, deadline=None, derandomize=True)
        @given(st.floats(0.05, 0.95), st.floats(0.25, 4.0))
        def check(frac, c):
            x = np.zeros(params.N)
            x[0] = frac
            base = strip_mass(params, 1.0, x)
            # two values each within the default rel_tol 1e-8
            assert strip_mass(params, c, c * x) == pytest.approx(c ** (2.0 * params.s) * base, rel=2e-8)

        check()


TINY = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_refinements=1)
BUMP = ScalarField(func=lambda p: np.exp(-np.sum(p * p, axis=-1)), smoothness="C2", decay_exponent=4.0, bound=1.0)
HALF_PLANE = ScalarField(func=lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0)
# every public integrator: a call under a spec, and an independent reference value
CONTRACT_CASES = {
    "ball_green_integral": (
        lambda spec: ball_green_integral(P2, 1.0, ONE, np.array([0.3, 0.1]), spec),
        ball_closed_form(P2, [0.3, 0.1]),
    ),
    "exterior_poisson_integral": (
        lambda spec: exterior_poisson_integral(P2, 1.0, HALF_PLANE, np.array([0.3, 0.05]), spec),
        0.5219222853247635,  # nested scipy.integrate.quad in polar coordinates, epsrel 1e-13
    ),
    "frac_laplacian_point": (
        lambda spec: frac_laplacian_point(P2, BUMP, np.zeros(2), spec),
        2.0 * gamma(1.5),  # (-Delta)^(1/2) exp(-|x|^2) at 0
    ),
    "halfspace_green_integral": (
        lambda spec: halfspace_green_integral(P2, ONE, np.array([0.05, -3.85]), spec, box=([0.05, -3.95], [3.95, 3.95])),
        0.27791192714160856,  # TestBoxGreenMass.REFERENCES[3]
    ),
    "box_green_mass": (
        lambda spec: box_green_mass(P2, np.array([1.05, -3.85]), [1.0, -3.9], [1.1, -3.8], spec),
        0.05562742739603865,  # TestBoxGreenMass.REFERENCES[0]
    ),
    "strip_mass": (
        lambda spec: strip_mass(P2, 1.0, np.array([0.5, 0.1]), spec),
        0.7307080842481433,  # TestStripMass.HALF_LINE_REFERENCES[0.5][1]
    ),
}


class TestToleranceHandling:
    @pytest.mark.parametrize("name", list(CONTRACT_CASES))
    def test_error_contract(self, name):
        # with a tiny budget every integrator raises ToleranceNotMet with its
        # best estimate and an error that covers the estimate's miss
        call, ref = CONTRACT_CASES[name]
        with pytest.raises(ToleranceNotMet) as err:
            call(TINY)
        estimate, error = err.value.estimate, err.value.error
        assert estimate is not None and error is not None
        assert abs(estimate - ref) <= error + 1e-12 * abs(ref)

    def test_impossible_budget_raises(self):
        wild = ScalarField(
            func=lambda p: np.cos(40.0 * p[..., 0]) / np.sqrt(np.abs(p[..., 0]) + 1e-14),
            smoothness="continuous",
            bound=1e7,
        )
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_refinements=1)
        with pytest.raises(ToleranceNotMet) as err:
            ball_green_integral(P1, 1.0, wild, np.array([0.3]), spec)
        assert err.value.estimate is not None


class TestBoxGreenMass:
    # frozen from nested scipy.integrate.quad in polar coordinates around x,
    # breakpoints at the corner angles, epsrel 1e-12; cells and nodes come
    # from verify.default_halfspace_axes(FracParams(2, 0.5))
    REFERENCES = [
        ((1.05, -3.85), (1.0, -3.9), (1.1, -3.8), 0.05562742739603865),
        ((0.05, -3.95), (0.05, -3.95), (0.1, -3.9), 0.01199608394231623),
        ((0.15, 0.05), (0.1, 0.0), (0.2, 0.1), 0.052705942719914856),
        ((0.05, -3.85), (0.05, -3.95), (3.95, 3.95), 0.27791192714160856),
    ]

    def test_cells_lie_on_the_default_grid(self):
        from fraclap.verify import default_halfspace_axes

        ax1, ax2 = default_halfspace_axes(P2)
        for x, lo, hi, _ in self.REFERENCES:
            assert np.min(np.abs(ax1 - x[0])) < 1e-12 and np.min(np.abs(ax2 - x[1])) < 1e-12

    @pytest.mark.parametrize("x, lo, hi, ref", REFERENCES)
    def test_independent_references(self, x, lo, hi, ref):
        v = box_green_mass(P2, np.array(x), np.array(lo), np.array(hi))
        assert abs(v / ref - 1.0) <= 1e-7

    def test_rejects_apex_outside_box(self):
        with pytest.raises(ValueError):
            box_green_mass(P2, np.array([1.2, 0.0]), [1.0, -0.1], [1.1, 0.1])
        with pytest.raises(ValueError):
            box_green_mass(P2, np.array([1.05, 0.0]), [1.0, 0.1], [1.1, 0.2])

    def test_tiny_budget_raises_with_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_refinements=1)
        with pytest.raises(ToleranceNotMet) as err:
            box_green_mass(P2, np.array([1.05, -3.85]), [1.0, -3.9], [1.1, -3.8], spec)
        assert err.value.estimate == pytest.approx(0.05562742739603865, rel=1e-6)
        assert err.value.error > 0.0


# (N, s) pairs covering the three regimes: N > 2s, N = 1 = 2s, N = 1 < 2s
BOX_PARAMS = [FracParams(1, 0.5), FracParams(1, 0.75)] + [
    FracParams(N, s) for N in (2, 3) for s in (0.25, 0.5, 0.75)
]
BOX_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)
MASS_REL = 3e-7  # two values each within the default rel_tol 1e-7, plus slack


@st.composite
def boxes(draw, N, apex=st.floats(0.0, 1.0)):
    """(x, lo, hi) with lo1 >= 0.05, lateral corners in [-1.5, 1.5], widths in [0.05, 1.5]."""
    unit = st.floats(0.0, 1.0)
    lo = np.array([0.05 + 1.45 * draw(unit)] + [3.0 * draw(unit) - 1.5 for _ in range(N - 1)])
    hi = lo + np.array([0.05 + 1.45 * draw(unit) for _ in range(N)])
    frac = np.array([draw(apex) for _ in range(N)])
    return lo + frac * (hi - lo), lo, hi


def _box_id(p):
    return f"N{p.N}-s{p.s:g}"


class TestBoxGreenMassProperties:
    @pytest.mark.parametrize("params", BOX_PARAMS, ids=_box_id)
    def test_scaling_law(self, params):
        @BOX_SETTINGS
        @given(boxes(params.N), st.floats(0.25, 4.0))
        def check(box, c):
            x, lo, hi = box
            base = box_green_mass(params, x, lo, hi)
            scaled = box_green_mass(params, c * x, c * lo, c * hi)
            assert scaled == pytest.approx(c ** (2.0 * params.s) * base, rel=MASS_REL)

        check()

    @pytest.mark.parametrize("params", [p for p in BOX_PARAMS if p.N > 1], ids=_box_id)
    def test_lateral_reflection(self, params):
        @BOX_SETTINGS
        @given(boxes(params.N), st.integers(1, params.N - 1))
        def check(box, j):
            x, lo, hi = box
            xr, lor, hir = x.copy(), lo.copy(), hi.copy()
            xr[j], lor[j], hir[j] = -x[j], -hi[j], -lo[j]
            assert box_green_mass(params, xr, lor, hir) == pytest.approx(
                box_green_mass(params, x, lo, hi), rel=MASS_REL
            )

        check()

    @pytest.mark.parametrize("params", BOX_PARAMS, ids=_box_id)
    def test_additive_over_sub_boxes_at_the_apex(self, params):
        # x is a vertex of each of the 2^N sub-boxes
        @BOX_SETTINGS
        @given(boxes(params.N, apex=st.floats(0.05, 0.95)))
        def check(box):
            x, lo, hi = box
            parts = 0.0
            for corner in range(2**params.N):
                upper = np.array([(corner >> k) & 1 for k in range(params.N)], dtype=bool)
                parts += box_green_mass(params, x, np.where(upper, x, lo), np.where(upper, hi, x))
            assert parts == pytest.approx(box_green_mass(params, x, lo, hi), rel=MASS_REL)

        check()

    @pytest.mark.parametrize("params", BOX_PARAMS, ids=_box_id)
    def test_error_contract(self, params):
        tiny = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_refinements=1)

        @BOX_SETTINGS
        @given(boxes(params.N), st.integers(0, params.N - 1), st.floats(0.01, 1.0))
        def check(box, k, gap):
            x, lo, hi = box
            outside = x.copy()
            outside[k] = hi[k] + gap
            with pytest.raises(ValueError):
                box_green_mass(params, outside, lo, hi)
            with pytest.raises(ToleranceNotMet) as err:
                box_green_mass(params, x, lo, hi, tiny)
            assert err.value.estimate is not None and err.value.estimate > 0.0
            assert err.value.error is not None

        check()
