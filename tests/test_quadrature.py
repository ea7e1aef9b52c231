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
from fraclap.core import FracParams, getoor_constant, normalization_a, poisson_constant_C
from fraclap.quadrature import (
    QuadratureSpec,
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
from fraclap.solver import PicardOperator, _cell_bounds, solve_ball_dirichlet
from fraclap.verify import default_halfspace_axes

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
        for bad in ({"rel_tol": math.nan}, {"abs_tol": math.nan}, {"rel_tol": math.nan, "abs_tol": math.nan}):
            with pytest.raises(ValueError, match="tolerances must be positive"):
                QuadratureSpec(**bad)
        for bad in (2.5, 3.0, math.nan, "4"):
            with pytest.raises(ValueError, match="max_refinements must be an integer"):
                QuadratureSpec(max_refinements=bad)
        assert QuadratureSpec(max_refinements=np.int64(3)).max_refinements == 3

    def test_constant_field_shapes(self):
        f = constant_field(2.5)
        assert f(np.zeros((4, 2))).shape == (4,)
        assert float(f(np.zeros(2))) == 2.5


class TestFracLaplacian:
    def test_zero_field(self):
        zero = lambda p: np.zeros(p.shape[:-1])
        v = frac_laplacian_point(P1, zero, np.array([0.1]))
        assert v == 0.0

    def test_bump_max_is_positive(self):
        bump = lambda p: np.exp(-np.sum(p * p, axis=-1))
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
        c = 1.0 / (2.0 * math.pi**2)  # Riesz constant Gamma(N/2 - s) / (4^s pi^(N/2) Gamma(s))

        def u_profile(r):
            # int |x-y|^(-2) f(y) dy for radial f(y)=exp(-|y|^2), N=3:
            # sphere average of |x-y|^(-2) = (2 pi/(r rho)) log((r+rho)/|r-rho|)
            def integrand(rho):
                ratio = np.log((r + rho) / abs(r - rho)) if r != rho else 0.0
                return rho * np.exp(-(rho**2)) * ratio

            val, _ = integrate.quad(integrand, 0.0, 12.0, points=[r] if r < 12.0 else None, limit=200)
            return c * 2.0 * math.pi / r * val

        u = lambda pts: np.array(
            [u_profile(max(np.linalg.norm(q), 1e-9)) for q in np.atleast_2d(pts).reshape(-1, N)]
        ).reshape(np.asarray(pts).shape[:-1])
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
            w = lambda y, e=e: (1.0 + np.sum(y * y, axis=-1)) ** (-e)
            lam = 4.0**s * gamma(0.5 * n + s) / gamma(0.5 * n - s)
            x = np.zeros(n)
            x[0] = r
            v = frac_laplacian_point(FracParams(n, s), w, x, spec)
            assert v == pytest.approx(lam * (1.0 + r * r) ** (-e - 2.0 * s), rel=2e-6), (n, s, r)

    def test_bubble_far_from_origin(self):
        # far out (-Delta)^s w is small against w(x): the tail is cut for the result, not for |w(x)| + 1
        n, s = 2, 0.75
        e = 0.5 * (n - 2.0 * s)
        w = lambda y: (1.0 + np.sum(y * y, axis=-1)) ** (-e)
        lam = 4.0**s * gamma(0.5 * n + s) / gamma(0.5 * n - s)
        for r in (2.0, 4.0):
            v = frac_laplacian_point(FracParams(n, s), w, np.array([r, 0.0]), QuadratureSpec(rel_tol=1e-6))
            assert v == pytest.approx(lam * (1.0 + r * r) ** (-e - 2.0 * s), rel=2e-7), r

    def test_unreachable_tolerance_raises_with_estimate(self):
        # (-Delta)^(1/2) exp(-|x|^2) = 2 Gamma(N/2 + 1/2) / Gamma(N/2) at x = 0
        bump = lambda p: np.exp(-np.sum(p * p, axis=-1))
        # one bisection pass cannot reach 1e-15 (two passes can)
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-15, max_refinements=1)
        with pytest.raises(ToleranceNotMet) as err:
            frac_laplacian_point(P2, bump, np.zeros(2), spec)
        assert err.value.estimate == pytest.approx(2.0 * gamma(1.5), rel=1e-10)
        assert err.value.error > 100.0 * spec.tolerance(err.value.estimate)

    @pytest.mark.parametrize("g", ["2s", 2.0, 3.0])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_growing_field_raises_with_estimate(self, N, s, g):
        # (1 + |y|^2)^(g/2) with g >= 2s makes the integral diverge at infinity;
        # the untruncated radius must report that, not return a number
        g = 2.0 * s if g == "2s" else g
        f = lambda y: (1.0 + np.sum(y * y, axis=-1)) ** (0.5 * g)
        spec = QuadratureSpec()
        with pytest.raises(ToleranceNotMet) as err:
            frac_laplacian_point(FracParams(N, s), f, np.full(N, 0.3), spec)
        estimate, error = err.value.estimate, err.value.error
        assert math.isfinite(estimate) and math.isfinite(error)
        assert error > 100.0 * spec.tolerance(estimate)


def _meets_or_covers(call, exact, spec):
    """The call's value within 100 x tolerance of ``exact``, or its
    ``ToleranceNotMet`` with an error that covers the estimate's miss."""
    try:
        value = call()
    except ToleranceNotMet as err:
        assert err.error >= abs(err.estimate - exact)
    else:
        assert abs(value - exact) <= 100.0 * spec.tolerance(exact)


def _heaviside(p):
    return np.where(p[..., 0] > 0.0, 1.0, 0.0)


GETOOR_SWEEP = np.linspace(-0.95, 0.95, 39)
# indices into GETOOR_SWEEP where the call returns beyond the error it reports (ROADMAP item 18)
GETOOR_BREACHES = {
    0.25: {0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 17, 18, 19, 20, 21, 22, 27, 30, 31, 33, 34, 35, 36, 37, 38},
    0.5: {0, 1, 2, 4, 8, 30, 34, 36, 37, 38},
    0.75: {4, 8, 30, 34},
}


def _getoor_sweep():
    for s, breaches in GETOOR_BREACHES.items():
        for i, x1 in enumerate(GETOOR_SWEEP):
            marks = pytest.mark.xfail(strict=True, reason="returns beyond its reported error") if i in breaches else ()
            yield pytest.param(s, float(x1), marks=marks, id=f"s{s}-x{x1:+.2f}")


class TestFracLaplacianStub:
    """The Taylor stub on (0, r0) inside the error contract: fields that are
    not C2 near x, where a stub of fixed radius 1e-3 missed without raising."""

    SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)  # frac_laplacian_point's default

    @pytest.mark.parametrize("d", [1e-2, 2e-3, 5e-4, 1e-4])
    @pytest.mark.parametrize("N,s", [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5)])
    def test_getoor_near_the_sphere(self, N, s, d):
        # (1 - |y|^2)_+^s is only Hoelder-s at the sphere, a distance d from x; the
        # evaluation count bounds the far panels, which chase rounding noise when
        # r0 shrinks past it (N = 1, s = 3/4, d = 2e-3 ran out of memory)
        params = FracParams(N, s)
        field, evaluated = getoor_field(params), []

        def counted(p):
            evaluated.append(p.size // N)
            return field(p)

        x = np.zeros(N)
        x[0] = 1.0 - d
        _meets_or_covers(lambda: frac_laplacian_point(params, counted, x), getoor_constant(params), self.SPEC)
        assert sum(evaluated) < 10**6

    @pytest.mark.parametrize("x", [0.0, 1e-4])
    def test_kink_at_or_near_x(self, x):
        # u = |y| exp(-y^2) has a kink at 0: (a/2) int (2u(x) - u(x+z) - u(x-z)) |z|^(-1-2s) dz
        params = FracParams(1, 0.25)
        a, s = normalization_a(params), params.s

        def u(y):
            return np.abs(y) * np.exp(-y * y)

        def d2(z):
            return (2.0 * u(x) - u(x + z) - u(x - z)) * z ** (-1.0 - 2.0 * s)

        if x == 0.0:
            exact = -a * gamma(0.5 - s)  # -2a int z^(-2s) exp(-z^2) dz
        else:
            pieces = [(0.0, x), (x, 1.0), (1.0, math.inf)]
            exact = a * sum(integrate.quad(d2, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for lo, hi in pieces)
        _meets_or_covers(lambda: frac_laplacian_point(params, lambda p: u(p[..., 0]), np.array([x])), exact, self.SPEC)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_heaviside_near_its_jump(self, s):
        # (-Delta)^s 1{y1 > 0} = a x1^(-2s) / (2s) at x1 > 0
        x1 = 1e-3
        exact = normalization_a(FracParams(1, s)) * x1 ** (-2.0 * s) / (2.0 * s)
        v = frac_laplacian_point(FracParams(1, s), _heaviside, np.array([x1]))
        assert abs(v - exact) <= 100.0 * self.SPEC.tolerance(exact)

    @pytest.mark.parametrize(
        "s",
        [
            0.25,
            pytest.param(0.5, marks=pytest.mark.xfail(strict=True, reason="miss 5.6e-2 against error 2.0e-2")),
            pytest.param(0.75, marks=pytest.mark.xfail(strict=True, reason="miss 1.64 against error 5.6e-2")),
        ],
    )
    def test_heaviside_near_its_jump_in_the_plane(self, s):
        # 1{y1 > 0} depends on y1 alone, so at N = 2 its value is the N = 1 one,
        # a1 x1^(-2s) / (2s).  The call raises, and at s >= 1/2 its error does
        # not cover the miss: per direction the radial integral is
        # |w1|^(2s) x1^(-2s) / s, not smooth at w1 = 0, and the last angular
        # level difference underestimates the error of the direction rule
        x1 = 1e-3
        exact = normalization_a(FracParams(1, s)) * x1 ** (-2.0 * s) / (2.0 * s)
        call = lambda: frac_laplacian_point(FracParams(2, s), _heaviside, np.array([x1, 0.0]))
        _meets_or_covers(call, exact, self.SPEC)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 15: a jump inside GL16's central node gap leaves |GL16 - GL8| far below the miss",
    )
    @pytest.mark.parametrize("x1", [1e-3, 3e-3, 1e-2, 0.1, 0.37, 1.0, 3.0])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_heaviside_within_its_reported_error(self, monkeypatch, s, x1):
        # (-Delta)^s 1{y1 > 0} = a x1^(-2s) / (2s) at x1 > 0: the call raises, or
        # its value is within the error it reported to _checked
        exact = normalization_a(FracParams(1, s)) * x1 ** (-2.0 * s) / (2.0 * s)
        reported, checked = [], quadrature._checked
        monkeypatch.setattr(
            quadrature, "_checked", lambda value, err, *rest: reported.append(err) or checked(value, err, *rest)
        )
        try:
            value = frac_laplacian_point(FracParams(1, s), _heaviside, np.array([x1]))
        except ToleranceNotMet:
            return
        assert abs(value - exact) <= reported[-1]

    @pytest.mark.parametrize("s, x1", list(_getoor_sweep()))
    def test_getoor_within_its_reported_error(self, monkeypatch, s, x1):
        # (-Delta)^s (1 - y^2)_+^s is the Getoor constant on (-1, 1): the call
        # returns within the error it reported to _checked, or raises with an
        # error that covers its miss
        params = FracParams(1, s)
        exact = getoor_constant(params)
        reported, checked = [], quadrature._checked
        monkeypatch.setattr(
            quadrature, "_checked", lambda value, err, *rest: reported.append(err) or checked(value, err, *rest)
        )
        try:
            value = frac_laplacian_point(params, getoor_field(params), np.array([x1]))
        except ToleranceNotMet as err:
            assert err.error >= abs(err.estimate - exact)
        else:
            assert abs(value - exact) <= reported[-1]

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("N", [1, 2])
    def test_heaviside_at_its_jump_raises(self, N, s):
        # the value diverges at the jump; u(x) = 0 there, so a noise floor
        # scaled by |u(x)| alone would never stop the stub from halving
        with pytest.raises(ToleranceNotMet):
            frac_laplacian_point(FracParams(N, s), _heaviside, np.zeros(N))

    @pytest.mark.parametrize("N", [1, 2])
    def test_nan_inside_the_stub_raises_with_its_estimate(self, N):
        # NaN stub samples stop the halving without a RuntimeWarning (an error here)
        field = lambda p: np.where(p[..., 0] > 0.0, np.nan, 1.0)
        with pytest.raises(ToleranceNotMet) as err:
            frac_laplacian_point(FracParams(N, 0.5), field, np.zeros(N))
        assert math.isnan(err.value.estimate) and math.isnan(err.value.error)


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
        half_plane = lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0)
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
        ring = lambda p: np.where(np.sum(p * p, axis=-1) < 2.25, 1.0, 0.0)
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
        bump = lambda p: np.exp(-4.0 * np.sum((p - c) ** 2, axis=-1))
        v = exterior_poisson_integral(params, 1.0, bump, x, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12))
        assert v == pytest.approx(_exterior_bump_reference(params, x, c), rel=1e-9)

    def test_half_exterior_indicator(self):
        half1 = lambda p: np.where(p[..., 0] > 0.0, 1.0, 0.0)
        v = exterior_poisson_integral(P1, 1.0, half1, np.array([0.0]))
        assert v == pytest.approx(0.5, abs=1e-6)
        half2 = lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0)
        v = exterior_poisson_integral(P2, 1.0, half2, np.zeros(2))
        assert v == pytest.approx(0.5, abs=1e-6)

    def test_extension_raises_as_the_first_failing_point(self):
        # the half-plane data misses the extension's tolerance at (0.3, 0.2)
        # and (0.0, 0.5), not at (0.9, 0.0); (1.5, 0.3) copies g
        half2 = lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0)
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
        g = lambda p: 1.0 / (1.0 + np.sum(p * p, axis=-1))
        u = poisson_extension_field(P1, 1.0, g)
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-7)
        for x in (0.0, 0.5, 0.75):
            v = frac_laplacian_point(P1, u, np.array([x]), spec)
            assert abs(v) <= 1e-4

    def test_radial_at_one_level_only(self):
        # g = 2 + cos(64 theta) at x = (1/2, 0): the level-16 directions sit at
        # theta = (k + 1/2) pi / 16, where the remainder is exactly 0, and the
        # level-32 ones where it is exactly -2, so level 32 must run its
        # direction rows; a point judged radial once for all returns 3.  The
        # cos(64 theta) mode adds below 0.5^64 at |x| = 1/2, so the value is 2
        g = lambda p: 2.0 + np.cos(64.0 * np.arctan2(p[..., 1], p[..., 0]))
        rho = 1.0 / np.sqrt(1.0 - np.linspace(0.0, 1.0, 4097)[:-1])
        for m, rest in ((16, 0.0), (32, -2.0)):
            dirs, _ = quadrature._sphere_rule(2, m)
            y = dirs * rho[:, None, None]
            assert np.all(g(y) - g(np.stack([rho, 0.0 * rho], axis=-1))[:, None] == rest)
        value, err = quadrature._exterior_poisson_batch(P2, 1.0, g, np.array([0.5, 0.0]), QuadratureSpec())
        assert value[0] == pytest.approx(1.9999999999999973, rel=0.0, abs=1e-14)
        assert abs(value[0] - 2.0) <= err[0]

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_radial_near_the_sphere_only(self, N):
        # g = (1 - 4/|y|^2)_+^4 y1/|y| vanishes for |y| <= 2, so its remainder is
        # 0.0 at nodes near the sphere but not on the last sigma panel; it is
        # odd in y1, so the value at x = 0 is 0, where the axis row alone
        # (g(rho e1) times the kernel's mass) gives 0.13
        def g(p):
            r2 = np.sum(p * p, axis=-1)
            return np.maximum(1.0 - 4.0 / r2, 0.0) ** 4 * p[..., 0] / np.sqrt(r2)

        assert abs(exterior_poisson_integral(FracParams(N, 0.5), 1.0, g, np.zeros(N))) <= 1e-12

    @pytest.mark.parametrize("data", ["constant", "bump"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_calls_of_g_take_at_most_a_chunk(self, N, data, monkeypatch):
        # every call of g, the radial test's included, takes at most _RAY_CHUNK
        # points, and a smaller chunk (below the 512 level-16 directions at
        # N = 3) leaves every value and error as they were
        pts = {1: [[0.0], [0.5], [-0.97]], 2: [[0.0, 0.0], [0.5, -0.3], [-0.2, 0.9]], 3: [[0.0, 0.0, 0.0], [0.3, 0.0, -0.2]]}
        c = 0.5 * np.eye(N)[0]
        field = ONE if data == "constant" else lambda p: 1.0 / (1.0 + np.sum((p - c) ** 2, axis=-1))
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        runs = []
        for chunk in (quadrature._RAY_CHUNK, 200):
            monkeypatch.setattr(quadrature, "_RAY_CHUNK", chunk)
            sizes = []

            def g(p):
                sizes.append(math.prod(p.shape[:-1]))
                return field(p)

            runs.append(quadrature._exterior_poisson_batch(FracParams(N, 0.5), 1.0, g, np.array(pts[N]), spec))
            assert max(sizes) <= chunk
        for before, after in zip(*runs):
            assert before.tobytes() == after.tobytes()
        value, err = runs[0]
        assert not np.any(quadrature._misses(value, err, spec))
        if data == "constant":
            assert np.all(np.abs(value - 1.0) <= 1e-12)


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "non-radial"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_probe_nodes_are_the_engines_first_nodes(monkeypatch, N, radial):
    # at each level the radial test samples a point's initial sigma panels at the
    # nodes that the engine's first pass then evaluates on each of its rows
    events = []  # ("nodes", array) of each _panel_nodes call, ("engine", initial panels) and ("done", None)
    nodes, engine = quadrature._panel_nodes, quadrature._adaptive_panels

    def recorded_nodes(*args):
        events.append(("nodes", nodes(*args)))
        return events[-1][1]

    def recorded_engine(fvec, edges, *args, **kwargs):
        events.append(("engine", len(edges[0])))
        out = engine(fvec, edges, *args, **kwargs)
        events.append(("done", None))
        return out

    monkeypatch.setattr(quadrature, "_panel_nodes", recorded_nodes)
    monkeypatch.setattr(quadrature, "_adaptive_panels", recorded_engine)
    x = np.zeros(N)
    x[0] = 0.9
    g = ONE if radial else (lambda p: 1.0 + 0.1 * p[..., 0])
    quadrature._exterior_poisson_batch(FracParams(N, 0.5), 1.0, g, x, QuadratureSpec())
    kinds = [kind for kind, _ in events]
    levels = [i for i, kind in enumerate(kinds) if kind == "engine"]
    assert len(levels) == 1 if N == 1 else len(levels) >= 2
    for i in levels:
        (_, probe), (_, count) = events[i - 1], events[i]
        first_pass = np.concatenate([a for _, a in events[i + 1 : kinds.index("done", i)]])[:count]
        assert count == len(probe) if radial else count > len(probe)
        for row in first_pass.reshape(-1, *probe.shape):
            assert row.tobytes() == probe.tobytes()


class TestHalfspaceIntegral:
    def test_zero(self):
        zero = lambda p: np.zeros(p.shape[:-1])
        assert halfspace_green_integral(P2, zero, np.array([0.5, 0.0]), box=([0.0, -1.0], [1.0, 1.0])) == 0.0

    INDICATOR = staticmethod(
        lambda p: np.where((p[..., 0] > 1.0) & (p[..., 0] < 2.0) & (np.abs(p[..., 1]) < 1.0), 1.0, 0.0)
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
        # over the box [0, 3] x [-3, 3] the indicator jumps inside, which no
        # tile rule resolves to 1e-6 in four passes
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=4)
        with pytest.raises(ToleranceNotMet) as err:
            halfspace_green_integral(P2, self.INDICATOR, np.array([0.2, 0.0]), spec, box=([0.0, -3.0], [3.0, 3.0]))
        assert err.value.estimate > 0.0
        assert err.value.error > spec.tolerance(err.value.estimate)

    def test_rejects_corners_of_the_wrong_shape(self):
        for box in (([0.0, -1.0, 0.0], [1.0, 1.0, 1.0]), ([[0.0, -1.0]], [[1.0, 1.0]])):
            with pytest.raises(ValueError, match="box corners"):
                halfspace_green_integral(P2, ONE, np.array([0.5, 0.0]), box=box)

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
        # the lateral integral of G_N is G_1, whatever x' is; so the value is the
        # N = 1 one to the last bit, the same half-line integral being computed.
        # The box engine's mass of the N = 1 box [0, 1] is the same integral, so
        # the references pin both engines (its default spec is rel 1e-7; measured
        # at most 3.3e-8 off)
        lateral = [0.7, -2.0][: N - 1]
        for x1, ref in zip((0.05, 0.5, 0.95), self.HALF_LINE_REFERENCES[s]):
            value = strip_mass(FracParams(N, s), 1.0, [x1, *lateral])
            assert value == pytest.approx(ref, rel=1e-8)
            assert value == strip_mass(FracParams(1, s), 1.0, [x1])
            assert box_green_mass(FracParams(1, s), [x1], [0.0], [1.0]) == pytest.approx(ref, rel=1e-7)

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
BUMP = lambda p: np.exp(-np.sum(p * p, axis=-1))
HALF_PLANE = lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0)
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


# every one-point integrator of a field, at x
ONE_POINT_CALLS = {
    "ball_green_integral": lambda f, x: ball_green_integral(P2, 1.0, f, x),
    "exterior_poisson_integral": lambda f, x: exterior_poisson_integral(P2, 1.0, f, x),
    "frac_laplacian_point": lambda f, x: frac_laplacian_point(P2, f, x),
    "halfspace_green_integral": lambda f, x: halfspace_green_integral(P2, f, x, box=([0.0, -1.0], [1.0, 1.0])),
}


@pytest.mark.parametrize(
    "x", [[[0.1, 0.0], [0.5, 0.0]], [0.1, 0.0, 0.5, 0.0], [0.1]], ids=["two-points", "flat-pair", "short"]
)
@pytest.mark.parametrize("name", list(ONE_POINT_CALLS))
def test_one_point_integrators_reject_a_wrongly_shaped_point(name, x):
    # the batch forms take (n, N); a one-point call takes x of shape (N,) and
    # raises for any other shape before it evaluates anything
    evaluated = []
    field = lambda p: evaluated.append(p) or np.ones(p.shape[:-1])
    with pytest.raises(ValueError, match=r"x needs shape \(N,\)"):
        ONE_POINT_CALLS[name](field, np.array(x))
    assert evaluated == []


@pytest.mark.parametrize("name", list(ONE_POINT_CALLS))
def test_nan_values_raise_with_their_estimate(name):
    # a field that is NaN for y1 > 0.3 gives NaN panel values and errors;
    # NaN is no error within tolerance, so every one-point call raises
    field = lambda p: np.where(p[..., 0] > 0.3, np.nan, 1.0)
    with pytest.raises(ToleranceNotMet) as err:
        ONE_POINT_CALLS[name](field, np.array([0.2, 0.1]))
    assert math.isnan(err.value.estimate) and math.isnan(err.value.error)


@pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [ball_green_integral, exterior_poisson_integral, poisson_extension_field])
def test_ball_calls_reject_a_radius_that_is_not_positive(call, R):
    # the radius is checked before any evaluation; the extension when it is built
    evaluated = []
    field = lambda p: evaluated.append(p) or np.ones(p.shape[:-1])
    args = (field,) if call is poisson_extension_field else (field, np.array([0.2, 0.1]))
    with pytest.raises(ValueError, match="ball radius must be positive"):
        call(P2, R, *args)
    assert evaluated == []


class TestDilation:
    """The ball integrals on B_R are the unit ball's, dilated: with u = x/R,
    int_{B_R} G_R(x, y) f(y) dy = R^(2s) int_{B_1} G_1(u, z) f(R z) dz, and the
    exterior integral is the unit ball's of g(R .).  At the extreme radii the
    integrals on B_R itself overflowed (R = 1e80, 1e160) or underflowed
    (R = 1e-100) to a NaN psi or a point rejected as outside."""

    RADII = [1e-100, 1e80, 1e160]
    PARAMS = [FracParams(1, 0.75), P2, FracParams(3, 0.25)]
    X = np.array([0.3, -0.2, 0.1])

    @staticmethod
    def source(R):
        return lambda y: 1.0 + y[..., 0] / R

    @staticmethod
    def data(R):
        return lambda y: 1.0 / (1.0 + np.sum((y / R - 0.5 * np.eye(y.shape[-1])[0]) ** 2, axis=-1))

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("params", PARAMS, ids=_point_id)
    def test_ball_green_integral(self, params, R):
        u = self.X[: params.N]
        unit = ball_green_integral(params, 1.0, self.source(1.0), u)
        v = ball_green_integral(params, R, self.source(R), R * u)
        assert abs(v / R ** (2.0 * params.s) / unit - 1.0) <= 1e-12

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("params", PARAMS, ids=_point_id)
    def test_exterior_poisson_integral(self, params, R):
        u = self.X[: params.N]
        unit = exterior_poisson_integral(params, 1.0, self.data(1.0), u)
        v = exterior_poisson_integral(params, R, self.data(R), R * u)
        assert abs(v / unit - 1.0) <= 1e-12

    @pytest.mark.parametrize("R", RADII)
    def test_poisson_extension_field(self, R):
        # two points inside, one outside, where the field is g itself
        pts = np.array([[0.3, -0.2], [0.0, 0.9], [1.5, 0.5]])
        unit = poisson_extension_field(P2, 1.0, self.data(1.0))(pts)
        np.testing.assert_allclose(poisson_extension_field(P2, R, self.data(R))(R * pts), unit, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("R", RADII)
    def test_solve_ball_dirichlet(self, R):
        # on R-scaled axes each node is inside or outside as on the unit grid:
        # the exterior part equals the unit grid's, g itself outside, and the
        # Green part is R^(2s) times the unit grid's, 0 outside
        axes = (np.linspace(-1.2, 1.2, 7),) * 2
        zero = lambda R: ZERO
        for f, g, power in ((zero, self.data, 0.0), (self.source, zero, 2.0 * P2.s)):
            unit = solve_ball_dirichlet(P2, 1.0, f(1.0), g(1.0), axes).values
            v = solve_ball_dirichlet(P2, R, f(R), g(R), tuple(R * a for a in axes)).values
            np.testing.assert_allclose(v / R**power, unit, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", list(ONE_POINT_CALLS))
def test_one_point_integrators_reject_a_point_that_is_not_finite(name, bad):
    evaluated = []
    field = lambda p: evaluated.append(p) or np.ones(p.shape[:-1])
    with pytest.raises(ValueError, match="finite"):
        ONE_POINT_CALLS[name](field, np.array([0.2, bad]))
    assert evaluated == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extension_field_rejects_a_point_that_is_not_finite(bad):
    # checked before g or the exterior batch sees any point of the call
    evaluated = []
    field = lambda p: evaluated.append(p) or np.ones(p.shape[:-1])
    u = poisson_extension_field(P2, 1.0, field)
    with pytest.raises(ValueError, match="must be finite"):
        u(np.array([[bad, 0.0], [0.2, 0.1], [2.0, 0.0]]))
    assert evaluated == []


@pytest.mark.parametrize("batch", [quadrature._ball_green_batch, quadrature._exterior_poisson_batch])
def test_batches_reject_a_nan_point(batch):
    # a NaN point is not inside the ball, whatever the comparison's order
    evaluated = []
    field = lambda p: evaluated.append(p) or np.ones(p.shape[:-1])
    with pytest.raises(ValueError, match="inside the ball"):
        batch(P2, 1.0, field, np.array([[0.2, 0.1], [math.nan, 0.0]]), QuadratureSpec())
    assert evaluated == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("corner", [0, 1, 2], ids=["x", "lo", "hi"])
def test_box_green_mass_rejects_corners_that_are_not_finite(monkeypatch, corner, bad):
    monkeypatch.setattr(quadrature, "_box_integral", lambda *args: pytest.fail("box evaluated"))
    box = [np.array([0.5, 0.0]), np.array([0.0, -1.0]), np.array([1.0, 1.0])]
    box[corner][1] = bad
    with pytest.raises(ValueError, match="finite"):
        box_green_mass(P2, *box)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("corner", [0, 1])
def test_halfspace_green_integral_rejects_corners_that_are_not_finite(corner, bad):
    evaluated = []
    field = lambda p: evaluated.append(p) or np.ones(p.shape[:-1])
    box = [[0.0, -1.0], [1.0, 1.0]]
    box[corner][1] = bad
    with pytest.raises(ValueError, match="finite"):
        halfspace_green_integral(P2, field, np.array([0.5, 0.0]), box=box)
    assert evaluated == []


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_strip_mass_rejects_a_width_that_is_not_finite(lam):
    with pytest.raises(ValueError, match="strip_mass needs"):
        strip_mass(P2, lam, np.array([0.5, 0.0]))


def _toy_refine(kinds, spec):
    """``_refine`` on [0, 1] with one owner per entry of ``kinds``: kind 0
    integrates 1, which Simpson's rule and the midpoint rule agree on at
    once, kind 1 integrates sqrt(y).  Returns (values, errors, live) and the
    owners of the cells of every ``evaluate`` call."""
    evaluated = []

    def evaluate(owner, a, b, kind):
        evaluated.append(owner)
        mid = 0.5 * (a + b)

        def f(y):
            return np.where(kind == 0, 1.0, np.sqrt(y))

        simpson = (b - a) / 6.0 * (f(a) + 4.0 * f(mid) + f(b))
        return simpson, np.abs(simpson - (b - a) * f(mid))

    def bisect(owner, a, b, kind, *_):
        mid = 0.5 * (a + b)
        return tuple(np.concatenate(pair) for pair in ((owner, owner), (a, mid), (mid, b), (kind, kind)))

    n = len(kinds)
    cells = (np.arange(n)[::-1], np.zeros(n), np.ones(n), np.array(kinds)[::-1])
    return quadrature._refine(cells, n, spec, evaluate, bisect, chunk=3), evaluated


class TestRefine:
    """The bisection driver both engines refine through, on a toy cell family."""

    SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12, max_refinements=40)

    def test_owners_refine_alone(self):
        (values, errors, live), evaluated = _toy_refine([0, 1], self.SPEC)
        (alone, alone_error, _), _ = _toy_refine([1], self.SPEC)
        # the met owner's one cell is evaluated once, in the first pass
        assert sum(int(np.sum(owner == 0)) for owner in evaluated) == 1
        assert len(evaluated) > 2
        assert values[0] == 1.0 and errors[0] == 0.0
        # the other owner's sums are those of its one-owner call, bit for bit
        assert (values[1], errors[1]) == (alone[0], alone_error[0])
        assert values[1] == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert not np.any(live)

    def test_live_marks_the_owner_that_misses(self):
        tiny = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_refinements=1)
        (values, errors, live), evaluated = _toy_refine([0, 1], tiny)
        assert live.tolist() == [False, True]
        assert errors[1] > tiny.tolerance(values[1])
        assert len(evaluated) == 2  # the first pass and one bisection


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
        wild = lambda p: np.cos(40.0 * p[..., 0]) / np.sqrt(np.abs(p[..., 0]) + 1e-14)
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


# the spec PicardOperator._build_diagonal gives box_green_mass
PICARD_SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=20)


def _cells(axes, picks=None):
    """(x, lo, hi) rows of the node cells of a tensor grid, at the indices ``picks`` per axis (all by default)."""
    picks = picks or [np.arange(len(a)) for a in axes]
    index = quadrature._grid_nodes(picks)
    columns = [(a, *_cell_bounds(a)) for a in axes]
    return tuple(np.column_stack([col[k][index[:, j]] for j, col in enumerate(columns)]) for k in range(3))


def _default_cells(params):
    """One cell of each shape on ``default_halfspace_axes``: every x1 row and, on each
    lateral axis, the first node, an interior one and the last."""
    axes = default_halfspace_axes(params)
    return _cells(axes, [np.arange(len(axes[0]))] + [np.array([0, 1, len(a) - 1]) for a in axes[1:]])


def _one_box_calls(params, x, lo, hi, spec):
    return np.array([box_green_mass(params, *box, spec) for box in zip(x, lo, hi)])


def _loop_pyramid_tiles(c, lo, hi, e, scale):
    """``quadrature._pyramid_tiles`` for one apex, written as a loop over faces and edge sets: the reference."""
    N = len(c)
    parts = []
    for k in range(N):
        for face in (lo[k], hi[k]):
            h = abs(face - c[k])
            if h == 0.0:
                continue
            edges = [np.array([0.0, 1.0])]
            for j in range(N):
                if j == k:
                    continue
                cut = {lo[j] - c[j], 0.0, hi[j] - c[j]}
                for end in (lo[j] - c[j], hi[j] - c[j]):
                    step = h
                    while step < 0.75 * abs(end):
                        cut.add(math.copysign(step, end))
                        step *= 2.0
                edges.append(np.array(sorted(cut)))
            for index in itertools.product(*[range(len(ed) - 1) for ed in edges]):
                a = np.array([ed[i] for ed, i in zip(edges, index)])
                b = np.array([ed[i + 1] for ed, i in zip(edges, index)])
                halvings = 0
                if scale is not None:
                    lateral = np.linalg.norm(np.maximum(np.maximum(a[None, 1:], -b[None, 1:]), 0.0), axis=-1)
                    halvings = max(int(np.ceil(np.log2(np.hypot(h, lateral[0]) / scale))), 0)
                for n in range(halvings, -1, -1):
                    sub_a, sub_b = a.copy(), b.copy()
                    if scale is not None:
                        top = np.power(2.0, -e * n)
                        sub_a[0], sub_b[0] = (0.0 if n == halvings else top * 2.0**-e), top
                    parts.append((sub_a, sub_b, k, face - c[k]))
    a, b, axis, offset = zip(*parts)
    return np.array(a), np.array(b), np.array(axis), np.array(offset)


class TestBoxBatch:
    """Rows of boxes in one box-engine call: each value is its one-box call's, bit for bit."""

    @pytest.mark.parametrize("spec", [PICARD_SPEC, None], ids=["picard-spec", "default-spec"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_default_grid_cells(self, N, spec):
        params = FracParams(N, 0.5)
        x, lo, hi = _default_cells(params)
        assert len(x) == {1: 64, 2: 120, 3: 108}[N]
        np.testing.assert_array_equal(box_green_mass(params, x, lo, hi, spec), _one_box_calls(params, x, lo, hi, spec))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_tiles_match_the_per_apex_loop(self, N):
        # apexes inside, on a face and outside (clipped), with and without the density's v-axis cuts
        @BOX_SETTINGS
        @given(st.lists(boxes(N, apex=st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.7])), min_size=1, max_size=4),
               st.sampled_from([0.5, 1.0, 1.5]), st.booleans())
        def check(batch, e, cut):
            x, lo, hi = (np.array(v) for v in zip(*batch))
            c = np.clip(x, lo, hi)
            scale = np.where(cut, np.min(hi - lo, axis=1) / 3.0, np.nan)
            tiles = quadrature._pyramid_tiles(c, lo, hi, e, scale if cut else None)
            for row in range(len(x)):
                mine = [t[tiles[4] == row] for t in tiles[:4]]
                ref = _loop_pyramid_tiles(c[row], lo[row], hi[row], e, scale[row] if cut else None)
                for got, want in zip(mine, ref):
                    np.testing.assert_array_equal(got, want)

        check()

    def test_edge_steps_stay_below_three_quarters_of_the_end(self):
        # h 2^i = 1.5 is exactly 3/4 of the distance 2 to either end, so it is no edge
        a, b, h = np.array([-2.0, 0.0]), np.array([2.0, 1.0]), np.array([0.375, 0.25])
        edges, panels = quadrature._edges_about_foot(a, b, h)
        assert panels.tolist() == [6, 3]
        np.testing.assert_array_equal(edges[0, :7], [-2.0, -0.75, -0.375, 0.0, 0.375, 0.75, 2.0])
        np.testing.assert_array_equal(edges[1, :4], [0.0, 0.25, 0.5, 1.0])

    @pytest.mark.parametrize("params", BOX_PARAMS, ids=_box_id)
    def test_hypothesis_batches(self, params):
        @BOX_SETTINGS
        @given(st.lists(boxes(params.N), min_size=2, max_size=3))
        def check(batch):
            x, lo, hi = (np.array(v) for v in zip(*batch))
            np.testing.assert_array_equal(
                box_green_mass(params, x, lo, hi, PICARD_SPEC), _one_box_calls(params, x, lo, hi, PICARD_SPEC)
            )

        check()

    # at rel_tol 1e-9 the centred cell converges within one pass, the thin
    # slab and the whole box with their apexes at a corner need six
    SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-15)
    SHALLOW = ([0.55, 0.05], [0.5, 0.0], [0.6, 0.1])
    DEEP = [([0.01, -1.0], [0.01, -1.0], [0.02, 1.0]), ([0.05, -3.85], [0.05, -3.95], [3.95, 3.95])]

    @staticmethod
    def _passes(box, spec):
        """The fewest refinement passes with which the one-box call meets ``spec``."""
        for passes in range(1, spec.max_refinements + 1):
            try:
                box_green_mass(P2, *map(np.array, box), QuadratureSpec(spec.rel_tol, spec.abs_tol, passes))
                return passes
            except ToleranceNotMet:
                pass

    def test_boxes_of_different_depths(self):
        batch = [self.DEEP[0], self.SHALLOW, self.DEEP[1]]
        assert [self._passes(box, self.SPEC) for box in batch] == [6, 1, 6]
        x, lo, hi = (np.array(v) for v in zip(*batch))
        batched = box_green_mass(P2, x, lo, hi, self.SPEC)
        np.testing.assert_array_equal(batched, _one_box_calls(P2, x, lo, hi, self.SPEC))

    def test_first_missing_box_raises_with_its_estimate(self):
        # with three passes the shallow box meets the spec and both deep ones miss
        spec = QuadratureSpec(self.SPEC.rel_tol, self.SPEC.abs_tol, 3)
        batch = [self.SHALLOW, *self.DEEP]
        x, lo, hi = (np.array(v) for v in zip(*batch))
        with pytest.raises(ToleranceNotMet) as alone:
            box_green_mass(P2, x[1], lo[1], hi[1], spec)
        with pytest.raises(ToleranceNotMet) as err:
            box_green_mass(P2, x, lo, hi, spec)
        assert (err.value.estimate, err.value.error) == (alone.value.estimate, alone.value.error)
        assert err.value.error > spec.tolerance(err.value.estimate)

    @pytest.mark.parametrize(
        "row, message",
        [
            (([1.2, 0.0], [1.0, -0.1], [1.1, 0.1]), "closed box"),
            (([1.05, 0.0], [1.0, 0.1], [1.1, 0.2]), "closed box"),
            (([1.05, 0.0], [1.1, -0.1], [1.0, 0.1]), "lo < hi"),
        ],
    )
    def test_bad_row_raises_before_any_evaluation(self, monkeypatch, row, message):
        evaluated = []
        monkeypatch.setattr(quadrature, "_tile_sums", lambda *args, **kwargs: evaluated.append(args))
        x, lo, hi = (np.array(v) for v in zip(self.SHALLOW, *self.DEEP, row))
        with pytest.raises(ValueError, match=message):
            box_green_mass(P2, x, lo, hi)
        assert evaluated == []

    def test_rows_need_one_shape(self):
        x, lo, hi = (np.array(v) for v in zip(self.SHALLOW, self.DEEP[0]))
        for args in ((x, lo[0], hi), (x[:, :1], lo[:, :1], hi[:, :1]), (x[None], lo[None], hi[None])):
            with pytest.raises(ValueError, match="one shape"):
                box_green_mass(P2, *args)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_zero_rows(self, N):
        got = box_green_mass(FracParams(N, 0.5), *(np.empty((0, N)) for _ in range(3)))
        assert got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_operator_diagonal_is_the_one_box_call(self, N):
        # on dyadic nodes every cell's offsets lo - x and hi - x are exact, so
        # each node's one-box call is the call the operator made for its cell shape
        params = FracParams(N, 0.5)
        axes = (0.125 * np.arange(1, 7),) + (0.25 * np.arange(-2, 3),) * (N - 1)
        op = PicardOperator(params, axes)
        x, lo, hi = _cells(axes)
        np.testing.assert_array_equal(op.nodes, x)
        np.testing.assert_array_equal(op.diag_mass, _one_box_calls(params, x, lo, hi, PICARD_SPEC))

    def test_operator_self_cells_bound_memory(self, monkeypatch):
        # the self-cell masses of the 3200-node operator are one batched call over
        # 120 cells, evaluated in chunks of _TILE_CHUNK = 2^14 kernel values.  The
        # peak from the start of _build_diagonal on, with the kernel table held, is
        # 6.4 MB (4.2 MB held) with one usable CPU or two; 2^15-value chunks read
        # 8.3 MB, 2^17-value chunks 17.4 MB.  The bound leaves 1.1 MB (17 %) above
        # the measured peak.  The whole build peaks at 15-19 MB in _build_matrix,
        # whatever the chunk, so the peak is taken from the self-cell masses on.
        build = PicardOperator._build_diagonal

        def from_here(self):
            tracemalloc.reset_peak()
            return build(self)

        monkeypatch.setattr(PicardOperator, "_build_diagonal", from_here)
        axes = default_halfspace_axes(P2)
        PicardOperator(P2, tuple(a[:3] for a in axes))  # rule tables and kernel set-up
        tracemalloc.start()
        try:
            PicardOperator(P2, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6
