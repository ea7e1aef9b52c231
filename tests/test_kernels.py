import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy import integrate

from fraclap.core import FracParams, getoor_constant, green_constant_k, incomplete_kernel_integral
from fraclap.kernels import (
    _dist2,
    Ball,
    DiagonalSingularity,
    HalfSpace,
    green_ball,
    green_halfspace,
    green_shifted_ball,
    h_function,
    h_function_partials,
    poisson_ball,
    poisson_shifted_ball,
    reflect_point,
    regularized_poisson,
    riesz_constant,
    riesz_potential,
    shifted_center,
)

P1 = FracParams(1, 0.5)
P2 = FracParams(2, 0.5)
P3 = FracParams(3, 0.5)


def rand_points(rng, n, N, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=(n, N))


class TestDomains:
    def test_ball_membership(self):
        assert Ball(2.0).radius == 2.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Ball(0.0)


class TestPoissonBall:
    def test_zero_inside_and_on_sphere(self):
        assert poisson_ball(P2, 1.0, [0.0, 0.0], [0.5, 0.0]) == 0.0
        assert poisson_ball(P2, 1.0, [0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_rotational_invariance_at_center(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=3)
            y *= 2.0 / np.linalg.norm(y)
            v = poisson_ball(P3, 1.0, np.zeros(3), y)
            assert v == pytest.approx(poisson_ball(P3, 1.0, np.zeros(3), [2.0, 0.0, 0.0]), rel=1e-12)

    def test_closed_form_value(self):
        # C = 1/pi, ((1-0)/(4-1))^(1/2) * |0-2|^(-1)
        v = poisson_ball(P1, 1.0, [0.0], [2.0])
        assert v == pytest.approx((1.0 / math.pi) * (1.0 / 3.0) ** 0.5 * 0.5, rel=1e-12)
        assert v == pytest.approx(0.091888, abs=1e-6)

    def test_vectorized(self):
        ys = np.array([[2.0], [3.0], [0.5]])
        vals = poisson_ball(P1, 1.0, np.array([0.0]), ys)
        assert vals.shape == (3,)
        assert vals[2] == 0.0 and vals[0] > vals[1] > 0.0


class TestGreenBall:
    def test_support(self):
        assert green_ball(P2, 1.0, [1.5, 0.0], [0.2, 0.1]) == 0.0
        assert green_ball(P2, 1.0, [0.2, 0.1], [1.5, 0.0]) == 0.0

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(2)
        for params in (P1, P2, P3, FracParams(1, 0.75), FracParams(3, 0.25)):
            x = rand_points(rng, 10_000, params.N, 0.999)
            y = rand_points(rng, 10_000, params.N, 0.999)
            gxy = green_ball(params, 1.0, x, y)
            gyx = green_ball(params, 1.0, y, x)
            assert np.all(np.abs(gxy - gyx) <= 1e-12 * (1.0 + gxy))

    def test_log_form_matches_kernel_integral_route(self):
        # independent route: (k/2) |x-y|^(2s-N) I(psi) with I(3) = 2 arcsinh(sqrt(3))
        x, y = np.array([0.0]), np.array([0.5])
        psi = (1.0 - 0.0) * (1.0 - 0.25) / 0.25
        assert psi == pytest.approx(3.0)
        route2 = 0.5 * green_constant_k(P1) * 2.0 * math.asinh(math.sqrt(3.0))
        v = green_ball(P1, 1.0, x, y)
        assert v == pytest.approx((1.0 / math.pi) * math.log(3.7320508), abs=1e-6)
        assert abs(v - route2) <= 1e-12

    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularity):
            green_ball(P2, 1.0, [0.3, 0.1], [0.3, 0.1])
        # diagonal outside the ball is just 0, not singular
        assert green_ball(P2, 1.0, [3.0, 0.0], [3.0, 0.0]) == 0.0

    def test_dilation(self):
        # G_R(x,y) = R^(2s-N) G_1(x/R, y/R)
        rng = np.random.default_rng(3)
        for params in (P2, FracParams(3, 0.75), FracParams(1, 0.25)):
            R = 5.0
            x = rand_points(rng, 100, params.N, 0.9 * R)
            y = rand_points(rng, 100, params.N, 0.9 * R)
            lhs = green_ball(params, R, x, y)
            rhs = R ** (2 * params.s - params.N) * green_ball(params, 1.0, x / R, y / R)
            assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-14)


class TestGreenShiftedBall:
    def test_translation_identity(self):
        rng = np.random.default_rng(4)
        for params in (P1, P2, P3, FracParams(1, 0.75)):
            R = 2.0
            p = shifted_center(params.N, R)
            x = p + rand_points(rng, 1000, params.N, 0.99 * R)
            y = p + rand_points(rng, 1000, params.N, 0.99 * R)
            direct = green_shifted_ball(params, R, x, y)
            translated = green_ball(params, R, x - p, y - p)
            assert np.all(np.abs(direct - translated) <= 1e-12 * (1.0 + direct))

    def test_support(self):
        assert green_shifted_ball(P2, 1.0, [-0.1, 0.0], [1.0, 0.0]) == 0.0
        assert green_shifted_ball(P2, 1.0, [1.0, 0.0], [2.5, 0.0]) == 0.0

    def test_monotone_in_radius(self):
        # Green functions of nested shifted balls are pointwise nondecreasing
        rng = np.random.default_rng(5)
        R0 = 1.0
        p0 = shifted_center(2, R0)
        for _ in range(200):
            x = p0 + rng.uniform(-0.7, 0.7, 2)
            y = p0 + rng.uniform(-0.7, 0.7, 2)
            if np.allclose(x, y):
                continue
            vals = [green_shifted_ball(P2, R, x, y) for R in (R0, 2 * R0, 4 * R0, 64 * R0)]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_large_radius_stability(self):
        # the cancellation-free psi stays accurate where the centered form dies
        x = np.array([0.5, 0.2])
        y = np.array([1.2, -0.3])
        R = 1e12
        v = green_shifted_ball(P2, R, x, y)
        assert v == pytest.approx(green_halfspace(P2, x, y), rel=1e-9)


class TestPoissonShiftedBall:
    def test_zero_inside(self):
        assert poisson_shifted_ball(P2, 1.0, [1.0, 0.0], [0.5, 0.1]) == 0.0

    def test_matches_translated(self):
        rng = np.random.default_rng(6)
        R = 1.5
        p = shifted_center(2, R)
        x = p + rand_points(rng, 500, 2, 0.99 * R)
        y = p + 3.0 * rand_points(rng, 500, 2, R)
        a = poisson_shifted_ball(P2, R, x, y)
        b = poisson_ball(P2, R, x - p, y - p)
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + a))


# off the diagonal with both points outside the domain: fx < 0 and fy < 0,
# so fx fy > 0, and only a zero set built from each factor gives 0
BOTH_OUTSIDE = {
    "ball": (lambda p, x, y: green_ball(p, 1.0, x, y), 3.0, -2.0),
    "shifted-ball": (lambda p, x, y: green_shifted_ball(p, 1.0, x, y), -1.0, 3.0),
    "halfspace": (green_halfspace, -1.0, -2.0),
}


@pytest.mark.parametrize("kernel", BOTH_OUTSIDE)
@pytest.mark.parametrize(
    "params", [P1, FracParams(1, 0.25), FracParams(1, 0.75), P2, FracParams(3, 0.75)],
    ids=lambda p: f"N{p.N}-s{p.s:g}",
)
def test_zero_with_both_points_outside(kernel, params):
    green, x1, y1 = BOTH_OUTSIDE[kernel]
    e1 = np.eye(params.N)[0]
    assert green(params, x1 * e1, y1 * e1) == 0.0
    tangent = 0.5 * np.eye(params.N)[-1]
    assert np.all(green(params, np.stack([x1 * e1, x1 * e1 + tangent]), y1 * e1 - tangent) == 0.0)


class TestGreenHalfspace:
    def test_boundary_vanishing(self):
        assert green_halfspace(P2, [0.0, 0.3], [1.0, 0.0]) == 0.0
        vals = [green_halfspace(P2, [eps, 0.0], [1.0, 0.0]) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert vals[2] < 1e-3

    def test_tangential_translation_invariance(self):
        rng = np.random.default_rng(7)
        for params in (P2, P3, FracParams(3, 0.75)):
            x = rand_points(rng, 200, params.N)
            y = rand_points(rng, 200, params.N)
            x[:, 0] = np.abs(x[:, 0]) + 0.01
            y[:, 0] = np.abs(y[:, 0]) + 0.01
            z = rand_points(rng, 200, params.N)
            z[:, 0] = 0.0
            assert np.allclose(
                green_halfspace(params, x + z, y + z),
                green_halfspace(params, x, y),
                rtol=1e-11,
                atol=1e-15,
            )

    def test_closed_form_value(self):
        v = green_halfspace(P3, [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
        expect = 0.5 * (1.0 / (2.0 * math.pi**2)) * 2.0 * math.sqrt(4.0 / 5.0)
        assert v == pytest.approx(expect, rel=1e-12)
        assert v == pytest.approx(0.045313, abs=1e-6)

    def test_homogeneity(self):
        # G(cx, cy) = c^(2s-N) G(x,y)
        rng = np.random.default_rng(8)
        for params in (P2, P3, FracParams(1, 0.75)):
            x = np.abs(rand_points(rng, 100, params.N)) + 0.01
            y = np.abs(rand_points(rng, 100, params.N)) + 0.01
            c = 3.7
            assert np.allclose(
                green_halfspace(params, c * x, c * y),
                c ** (2 * params.s - params.N) * green_halfspace(params, x, y),
                rtol=1e-11,
            )

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x = np.abs(rand_points(rng, 10_000, 2)) + 1e-3
        y = np.abs(rand_points(rng, 10_000, 2)) + 1e-3
        gxy = green_halfspace(P2, x, y)
        gyx = green_halfspace(P2, y, x)
        assert np.all(np.abs(gxy - gyx) <= 1e-12 * (1.0 + gxy))


# (value, d_r, d_t, d_rt) of H(r, t) = (k/2) r^(s-N/2) I(t/r) at 40 digits with
# mpmath: I(z) = z^s/s 2F1(N/2, s; s+1; -z), partials by mpmath.diff; keys are
# (N, s, r, t) in the five regimes of the benchmark
H_REFERENCES = {
    (1, 0.5, 0.01, 100.0): (
        1.6865147553602627, -1.5914698594152204e+1, 1.5914698594152205e-3, -7.9565536417119311e-6,
    ),
    (1, 0.5, 1.0, 1.0): (
        2.8054992616959006e-1, -1.1253953951963826e-1, 1.1253953951963826e-1, -2.8134884879909565e-2,
    ),
    (1, 0.5, 100.0, 0.01): (
        3.1830458125773915e-3, -1.5914698594152205e-5, 1.5914698594152204e-1, -7.956553641711931e-4,
    ),
    (1, 0.75, 0.01, 100.0): (
        2.7258921345701046, -6.3028680311924061, 7.4450171395445022e-3, -3.7221363561366374e-5,
    ),
    (1, 0.75, 1.0, 1.0): (
        2.6699359060196785e-1, -9.9735570100358169e-2, 1.6648396775085013e-1, -4.1620991937712533e-2,
    ),
    (1, 0.75, 100.0, 0.01): (
        9.9269731262021927e-4, -4.9632738579939541e-6, 7.4450171395445022e-2, -3.7221363561366374e-4,
    ),
    (2, 0.5, 0.01, 100.0): (
        1.5814176502717356, -7.9577437776272198e+1, 5.0655526268542032e-5, -5.065046122241979e-7,
    ),
    (2, 0.5, 1.0, 1.0): (
        7.9577471545947668e-2, -6.5119031683558277e-2, 2.5330295910584443e-2, -1.2665147955292221e-2,
    ),
    (2, 0.5, 100.0, 0.01): (
        1.0131780647217759e-4, -1.0131442950463083e-6, 5.0655526268542031e-3, -5.0650461222419789e-5,
    ),
    (3, 0.25, 0.01, 100.0): (
        1.0039203666961291e+1, -1.2549031653052572e+3, 2.7069350957618058e-7, -4.0599966439783109e-9,
    ),
    (3, 0.25, 1.0, 1.0): (
        2.798100666582821e-2, -3.8003157752852254e-2, 3.0268994205669918e-3, -2.2701745654252439e-3,
    ),
    (3, 0.25, 100.0, 0.01): (
        1.0829039726329843e-5, -1.624323475367411e-7, 2.7069350957618058e-4, -4.0599966439783108e-6,
    ),
    (3, 0.75, 0.01, 100.0): (
        2.0062652056403076, -1.505883697030113e+2, 1.1847927998824024e-5, -1.7770114986737362e-7,
    ),
    (3, 0.75, 1.0, 1.0): (
        3.1746817967120485e-2, -3.7058486681890109e-2, 1.3248373206549745e-2, -9.9362799049123091e-3,
    ),
    (3, 0.75, 100.0, 0.01): (
        1.5798591368370392e-6, -2.3696871525101818e-8, 1.1847927998824024e-4, -1.7770114986737362e-6,
    ),
}
PARTIALS_REGIMES = [(1, 0.5), (2, 0.5), (3, 0.25), (3, 0.75), (1, 0.25), (1, 0.75), (3, 0.5), (4, 0.5), (2, 0.75),
                    (1, 0.6)]


def _partials_from_h_function(params, r, t):
    """(value, d_r, d_t, d_rt) with H from ``h_function`` and the closed forms
    of ``h_function_partials``: the array path its scalar path replaces."""
    value = h_function(params, r, t)
    s, half_n = params.s, params.N / 2.0
    r, t = np.float64(r), np.float64(t)
    kt = 0.5 * green_constant_k(params) * (r + t) ** -half_n
    with np.errstate(divide="ignore"):
        d_t = kt * t ** (s - 1.0)
    d_rt = -half_n * d_t / (r + t)
    d_r = ((s - half_n) * value - kt * t**s) / r
    return value, float(d_r), float(d_t), float(d_rt)


H_PARAMS = sorted({FracParams(N, s) for N, s, _, _ in H_REFERENCES}, key=lambda p: (p.N, p.s))


class TestHFunction:
    def test_consistency_with_halfspace_kernel(self):
        rng = np.random.default_rng(10)
        for params in (P1, P2, P3, FracParams(1, 0.8)):
            x = np.abs(rand_points(rng, 300, params.N)) + 1e-3
            y = np.abs(rand_points(rng, 300, params.N)) + 1e-3
            r = np.sum((x - y) ** 2, axis=-1)
            t = 4.0 * x[:, 0] * y[:, 0]
            keep = r > 0
            h = h_function(params, r[keep], t[keep])
            g = green_halfspace(params, x[keep], y[keep])
            assert np.all(np.abs(h - g) <= 1e-12 * (1.0 + np.abs(g)))

    def test_monotonicity_signs(self):
        rng = np.random.default_rng(11)
        for params in (P2, P3, FracParams(1, 0.75), FracParams(1, 0.3)):
            for _ in range(60):
                r = rng.uniform(0.1, 10.0)
                t = rng.uniform(0.1, 10.0)
                d = h_function_partials(params, r, t)
                assert d.d_r < 0.0
                assert d.d_t > 0.0
                assert d.d_rt < 0.0

    def test_zero_t_row(self):
        # the true limits as t -> 0+ for s < 1
        for params in H_PARAMS:
            d = h_function_partials(params, 1.0, 0.0)
            assert d.value == 0.0
            assert d.d_r == 0.0
            assert d.d_t == math.inf
            assert d.d_rt == -math.inf

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            h_function(P2, 0.0, 1.0)
        with pytest.raises(ValueError):
            h_function(P2, 1.0, -0.5)
        with pytest.raises(ValueError):
            h_function_partials(P2, 0.0, 1.0)
        with pytest.raises(ValueError):
            h_function_partials(P2, 1.0, -0.5)

    @pytest.mark.parametrize("params", [P1, P2, FracParams(3, 0.25)], ids=str)
    @pytest.mark.parametrize("r,t", [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf)])
    def test_rejects_nan(self, params, r, t):
        # r = t = inf is psi = inf / inf
        for h in (h_function, h_function_partials):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                h(params, r, t)

    @pytest.mark.parametrize("params", [P1, P2, FracParams(3, 0.25), FracParams(1, 0.75)], ids=str)
    def test_partials_reject_infinite_t(self, params):
        # d_r's second term would be 0 * inf
        with pytest.raises(ValueError, match="t < inf"):
            h_function_partials(params, 1.0, math.inf)

    @pytest.mark.parametrize("params", [P1, P2, FracParams(3, 0.25)], ids=str)
    def test_infinite_pair_on_arrays_names_psi(self, params):
        # r = t = inf is psi = inf / inf; the error names psi, not the kernel integral's t
        with pytest.raises(ValueError, match="psi = .* is NaN"), np.errstate(invalid="ignore"):
            h_function(params, np.array([1.0, math.inf]), np.array([1.0, math.inf]))

    @pytest.mark.parametrize(
        "params", [FracParams(N, s) for N, s in PARTIALS_REGIMES], ids=lambda p: f"N{p.N}-s{p.s:g}"
    )
    def test_partials_bit_identical_to_array_path(self, params):
        # the benchmark's 30 x 30 grid and the row t = 0
        rr = np.logspace(-2.0, 2.0, 30)
        got = [astuple(h_function_partials(params, float(r), float(t))) for r in rr for t in [0.0, *rr]]
        ref = [_partials_from_h_function(params, float(r), float(t)) for r in rr for t in [0.0, *rr]]
        assert np.array(got).tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("key", sorted(H_REFERENCES), ids=lambda k: "N{}-s{}-r{}-t{}".format(*k))
    def test_partials_match_mpmath(self, key):
        N, s, r, t = key
        d = h_function_partials(FracParams(N, s), r, t)
        got = np.array([d.value, d.d_r, d.d_t, d.d_rt])
        ref = np.array(H_REFERENCES[key])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


class TestReflection:
    def test_involution(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 3))
        lam = 0.8
        assert np.allclose(reflect_point(reflect_point(x, lam), lam), x)

    def test_fixed_plane(self):
        x = np.array([0.8, 1.0, -1.0])
        assert np.allclose(reflect_point(x, 0.8), x)

    def test_example(self):
        assert np.allclose(reflect_point(np.array([0.2, 1.0, -1.0]), 1.0), [1.8, 1.0, -1.0])


class TestRieszPotential:
    def test_negative_branch_sign(self):
        p = FracParams(1, 0.75)
        assert riesz_potential(p, [0.0], [1.0]) < 0.0
        assert riesz_constant(p) < 0.0

    def test_log_zero_at_unit_distance(self):
        assert riesz_potential(P1, [0.0], [1.0]) == 0.0

    def test_positive_branch(self):
        # Gamma(1) / (2 pi^(3/2) Gamma(1/2)) = 1/(2 pi^2) for N=3, s=1/2
        assert riesz_potential(P3, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) > 0.0
        assert riesz_constant(P3) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)

    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularity):
            riesz_potential(P3, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestRegularizedPoisson:
    def test_scaling_exact(self):
        y = np.array([0.9, 0.3])
        eps = 0.25
        direct = regularized_poisson(P2, eps, y)
        base = regularized_poisson(P2, 1.0, y / eps)
        assert direct == eps ** (-2.0) * base

    def test_support(self):
        assert regularized_poisson(P2, 1.0, np.array([0.2, 0.2])) == 0.0
        assert regularized_poisson(P2, 1.0, np.array([0.8, 0.0])) > 0.0
        assert regularized_poisson(P2, 1.0, np.array([5.0, 0.0])) > 0.0

    def test_unit_mass(self):
        # radial quadrature oracle of the total mass
        for params in (P1, P2):
            N = params.N
            surface = 2.0 if N == 1 else 2.0 * math.pi
            f = lambda m: regularized_poisson(params, 1.0, np.array([m] + [0.0] * (N - 1))) * m ** (
                N - 1
            )
            v1, _ = integrate.quad(f, 0.5, 1.0, limit=200, epsabs=1e-11)
            v2, _ = integrate.quad(f, 1.0, 400.0, limit=400, epsabs=1e-11)
            # tail: integrand ~ C m^(-1-2s), constant fitted at the cutoff
            c_tail = f(400.0) * 400.0 ** (1 + 2 * params.s)
            tail = c_tail * 400.0 ** (-2 * params.s) / (2 * params.s)
            assert surface * (v1 + v2 + tail) == pytest.approx(1.0, abs=1e-6)

    def test_continuity_and_smooth_interior_peak(self):
        ms = np.linspace(0.4, 3.0, 400)
        vals = np.array([regularized_poisson(P1, 1.0, np.array([m])) for m in ms])
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(np.diff(vals))) < 1.0  # no jumps at the 0.5/1.0 seams

    def test_decay_product_bounded(self):
        # sampled sup of value * (1 + |y|^(N+2+2s)) stays finite over |y| <= 1e3
        radii = np.logspace(0.1, 3, 60)
        prods = []
        for m in radii:
            v = regularized_poisson(P2, 1.0, np.array([m, 0.0]))
            prods.append(v * (1.0 + m ** (2 + 2 + 2 * 0.5)))
        assert np.all(np.isfinite(prods))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            regularized_poisson(P2, 0.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("params", [P1, P2, FracParams(1, 0.75)])
    def test_batch_matches_points(self, params):
        # one array through the mid-range (1/2 < m < 1) and far branches, against one point per call
        m = np.linspace(0.3, 2.0, 41)
        y = np.zeros((m.size, params.N))
        y[:, 0] = m
        batch = regularized_poisson(params, 1.0, y)
        single = np.array([regularized_poisson(params, 1.0, yi) for yi in y])
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)


class TestReflectionInequalities:
    # strict kernel comparisons behind the moving-plane argument
    def test_strip_inequalities(self):
        rng = np.random.default_rng(13)
        for params in (P1, P2, P3, FracParams(3, 0.25), FracParams(3, 0.75)):
            N = params.N
            for _ in range(300):
                lam = rng.uniform(0.1, 5.0)
                x = rng.uniform(-1, 1, N)
                y = rng.uniform(-1, 1, N)
                x[0] = rng.uniform(0.0, 1.0) * lam
                y[0] = rng.uniform(0.0, 1.0) * lam
                if x[0] == 0 or y[0] == 0:
                    continue
                xl = reflect_point(x, lam)
                yl = reflect_point(y, lam)
                if np.allclose(x, y) or np.allclose(x, yl):
                    continue
                g_ll = green_halfspace(params, xl, yl)
                g_xl = green_halfspace(params, x, yl)
                g_lx = green_halfspace(params, xl, y)
                g_xx = green_halfspace(params, x, y)
                assert g_ll - g_xl > 1e-14
                assert (g_ll - g_xx) - (g_xl - g_lx) > 1e-14

    def test_far_region_inequality(self):
        rng = np.random.default_rng(14)
        for params in (P2, P3):
            N = params.N
            for _ in range(300):
                lam = rng.uniform(0.1, 2.0)
                x = rng.uniform(-1, 1, N)
                y = rng.uniform(-1, 1, N)
                x[0] = rng.uniform(0.05, 0.95) * lam
                y[0] = 2.0 * lam + rng.uniform(0.0, 3.0)
                xl = reflect_point(x, lam)
                assert green_halfspace(params, xl, y) - green_halfspace(params, x, y) > 1e-14


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_dist2_column_sum_bit_identical_to_reduction(N):
    rng = np.random.default_rng(N)
    x = rng.normal(size=(2000, N)) * rng.choice([1e-8, 1.0, 1e8], size=(2000, N))
    y = rng.normal(size=(2000, N))
    y[::3] = x[::3]  # the same point
    y[1::3, : (N + 1) // 2] = x[1::3, : (N + 1) // 2]  # shared coordinates
    for a, b in ((x, y), (x, y[0]), (x[:, None, :], y[None, :50, :]), (x.T.copy().T, y)):
        d = a - b
        assert _dist2(a, b).tobytes() == np.sum(d * d, axis=-1).tobytes()


PUBLIC_KERNELS = {
    "poisson_ball": lambda p, x, y: poisson_ball(p, 1.0, x, y),
    "poisson_shifted_ball": lambda p, x, y: poisson_shifted_ball(p, 1.0, x, y),
    "green_ball": lambda p, x, y: green_ball(p, 1.0, x, y),
    "green_shifted_ball": lambda p, x, y: green_shifted_ball(p, 1.0, x, y),
    "green_halfspace": green_halfspace,
    "riesz_potential": riesz_potential,
    "regularized_poisson": lambda p, x, y: regularized_poisson(p, 0.5, x) + regularized_poisson(p, 0.5, y),
}


@pytest.mark.parametrize("kernel", PUBLIC_KERNELS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_public_kernels_reject_nonfinite_points(kernel, bad):
    green = PUBLIC_KERNELS[kernel]
    x, y = np.array([[0.3, 0.1], [0.4, -0.2]]), np.array([0.5, 0.2])
    green(P2, x, y)  # finite: no error
    for which in (0, 1):
        pts = [x.copy(), y.copy()]
        pts[which].flat[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            green(P2, *pts)


BALL_KERNELS = {
    "Ball": lambda p, R, x, y: Ball(R),
    "poisson_ball": poisson_ball,
    "poisson_shifted_ball": poisson_shifted_ball,
    "green_ball": green_ball,
    "green_shifted_ball": green_shifted_ball,
}


@pytest.mark.parametrize("kernel", BALL_KERNELS)
@pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, math.inf])
def test_ball_kernels_reject_a_radius_that_is_not_positive(kernel, R):
    # green_ball(P2, -1.0, ...) returned the R = 1 value and R = NaN returned 0
    with pytest.raises(ValueError, match="ball radius must be positive"):
        BALL_KERNELS[kernel](P2, R, [0.3, 0.1], [0.5, 0.2])
