import numpy as np
import pytest
from scipy import integrate

from fraclap import solver
from fraclap.core import FracParams, getoor_constant
from fraclap.kernels import HalfSpace, _green_from_psi, green_halfspace
from fraclap.quadrature import QuadratureSpec, ScalarField, box_green_mass, constant_field, strip_mass
from fraclap.solver import (
    GridFunction,
    MonotonicityProfile,
    Nonlinearity,
    PicardOperator,
    SolveReport,
    holder_estimate_check,
    lambda0_estimate,
    monotonicity_profile,
    moving_plane_check,
    picard_semilinear,
    solve_ball_dirichlet,
    solve_halfspace_linear,
)

P1 = FracParams(1, 0.5)
P2 = FracParams(2, 0.5)

ZERO = constant_field(0.0)
ONE = constant_field(1.0)


def halfspace_grid(n1=14, n2=20, L1=4.0, L2=4.0):
    ax1 = np.linspace(L1 / (2 * n1), L1 * (1 - 1 / (2 * n1)), n1)
    ax2 = np.linspace(-L2 * (1 - 1 / (2 * n2)), L2 * (1 - 1 / (2 * n2)), n2)
    return (ax1, ax2)


@pytest.fixture(scope="module")
def small_operator():
    return PicardOperator(P2, halfspace_grid())


class TestGridFunction:
    def test_interpolation_and_exterior_zero(self):
        axes = (np.linspace(0.5, 2.5, 5), np.linspace(-1.0, 1.0, 5))
        vals = np.add.outer(axes[0], np.zeros(5))
        gf = GridFunction(domain=HalfSpace(), axes=axes, values=vals)
        assert gf.eval(np.array([1.0, 0.3])) == pytest.approx(1.0, abs=1e-12)
        assert gf.eval(np.array([1.25, 0.1])) == pytest.approx(1.25, abs=1e-12)
        assert gf.eval(np.array([5.0, 0.0])) == 0.0
        assert gf.eval(np.array([-1.0, 0.0])) == 0.0

    def test_clamped_extrapolation(self):
        axes = (np.linspace(0.5, 2.5, 5), np.linspace(-1.0, 1.0, 5))
        vals = np.add.outer(axes[0], np.zeros(5))
        gf = GridFunction(domain=HalfSpace(), axes=axes, values=vals)
        assert gf.eval(np.array([5.0, 0.0]), extrapolation="clamp") == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(domain=HalfSpace(), axes=(np.array([1.0, 0.5]),), values=np.zeros(2))
        with pytest.raises(ValueError):
            GridFunction(domain=HalfSpace(), axes=(np.array([0.5, 1.0]),), values=np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(
                domain=HalfSpace(),
                axes=(np.array([0.5, 1.0]),),
                values=np.array([np.inf, 0.0]),
            )


class TestNonlinearity:
    def test_power_tags(self):
        f = Nonlinearity.power(2.0)
        assert f.zero_derivative_at_zero
        assert f(np.array([0.0, 2.0]))[1] == 4.0
        f.validate(10.0)

    def test_zero(self):
        f = Nonlinearity.zero()
        assert np.all(f(np.linspace(0, 5, 7)) == 0.0)
        assert f.lipschitz_on(3.0) == 0.0

    def test_validate_rejects_mislabeled(self):
        bad = Nonlinearity(func=lambda t: -t, nonnegative=True, nondecreasing=True)
        with pytest.raises(ValueError):
            bad.validate(1.0)
        shrink = Nonlinearity(func=lambda t: 5.0 * t, lipschitz_const=1.0)
        with pytest.raises(ValueError):
            shrink.validate(1.0)


class TestBallSolve:
    def test_zero_data(self):
        grid = (np.linspace(-0.8, 0.8, 9),)
        gf = solve_ball_dirichlet(P1, 1.0, ZERO, ZERO, grid)
        assert np.max(np.abs(gf.values)) == 0.0

    def test_getoor_profile(self):
        # f == 1, g == 0: exact solution (1-x^2)^(1/2) since the constant is 1
        grid = (np.linspace(-0.9, 0.9, 19),)
        gf = solve_ball_dirichlet(P1, 1.0, ONE, ZERO, grid)
        exact = np.sqrt(1.0 - grid[0] ** 2)
        assert np.max(np.abs(gf.values - exact)) <= 1e-3

    def test_pure_boundary_data_is_one(self):
        grid = (np.linspace(-0.7, 0.7, 8),)
        gf = solve_ball_dirichlet(P1, 1.0, ZERO, ONE, grid)
        assert np.max(np.abs(gf.values - 1.0)) <= 1e-8

    def test_exterior_nodes_copy_data(self):
        grid = (np.linspace(-1.5, 1.5, 7),)
        gf = solve_ball_dirichlet(P1, 1.0, ZERO, ONE, grid)
        assert gf.values[0] == 1.0 and gf.values[-1] == 1.0

    def test_flagged_node_keeps_every_term(self):
        # the ball integral of the half-plane indicator raises at (0.3, 0.05);
        # the node must still hold the exterior term (1 for g == 1) plus the
        # ball estimate, and report their combined error; the other nodes
        # lie outside the ball
        half_plane = ScalarField(
            func=lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        node_errors = {}
        grid = ([0.3, 1.5], [0.05, 1.5])
        gf = solve_ball_dirichlet(P2, 1.0, half_plane, ONE, grid, node_errors=node_errors)
        estimate, error = node_errors[(0, 0)]
        assert gf.values[0, 0] == estimate
        assert estimate == pytest.approx(1.0 + 0.3579293, abs=1e-5)
        assert error > 0.0
        assert list(node_errors) == [(0, 0)]


class TestHalfspaceLinear:
    def test_zero(self):
        zero = ScalarField(
            func=lambda p: np.zeros(p.shape[:-1]),
            smoothness="C2",
            support_radius=1.0,
            bound=0.0,
        )
        gf = solve_halfspace_linear(P2, zero, halfspace_grid(6, 8, 2.0, 2.0))
        assert np.max(np.abs(gf.values)) == 0.0

    def test_tangential_invariance(self):
        # f depending on x1 only; the lateral box is wide enough that the
        # kernel's own decay puts the dropped tail below the tolerance
        f = ScalarField(
            func=lambda p: np.where(p[..., 0] < 1.0, 1.0, 0.0),
            smoothness="continuous",
            bound=1.0,
        )
        box = (np.array([0.0, -1e8]), np.array([1.0, 1e8]))
        grid = (np.linspace(0.25, 1.75, 4), np.linspace(-0.5, 0.5, 3))
        gf = solve_halfspace_linear(P2, f, grid, QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9), box=box)
        spread = np.max(np.abs(gf.values - gf.values[:, :1]), axis=1)
        assert np.max(spread) <= 1e-8 * (1.0 + np.max(np.abs(gf.values)))
        # the profile is the half-line mass int_0^1 G_1(x1, y1) dy1, in the
        # rows inside the slab and above it (x1 > 1) alike
        ref = np.array([
            integrate.quad(
                lambda y: green_halfspace(P1, [x1], [y]), 0.0, 1.0,
                points=[x1] if x1 < 1.0 else None, epsabs=1e-13, epsrel=1e-12, limit=200,
            )[0]
            for x1 in grid[0]
        ])
        rel = np.abs(gf.values[:, 0] / ref - 1.0)
        assert np.all(rel <= 1e-7)

    def test_monotone_in_x1_in_reflection_range(self):
        # slab source 1 on {y1 < 1}: the reflection comparison proves
        # u(a) <= u(b) for a < b with a + b <= 1, so test x1 in (0, 1/2]
        f = ScalarField(
            func=lambda p: np.where(p[..., 0] < 1.0, 1.0, 0.0),
            smoothness="continuous",
            bound=1.0,
        )
        box = (np.array([0.0, -8.0]), np.array([1.0, 8.0]))
        grid = (np.linspace(0.1, 0.5, 5), np.linspace(-0.1, 0.1, 2))
        gf = solve_halfspace_linear(P2, f, grid, QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9), box=box)
        profile = gf.values[:, 0]
        assert np.all(np.diff(profile) > 0.0)

    def test_jump_density_keeps_estimates_and_flags_nodes(self):
        # the indicator of [1, 2] x [-1, 1] jumps inside its support box
        # [0, 3] x [-3, 3], which four passes do not resolve to 1e-6: every
        # node with x1 > 0 keeps its estimate, within its reported error of
        # the integral over the indicator's own box, and lands in node_errors
        indicator = ScalarField(
            func=lambda p: np.where((p[..., 0] > 1.0) & (p[..., 0] < 2.0) & (np.abs(p[..., 1]) < 1.0), 1.0, 0.0),
            smoothness="continuous",
            support_radius=3.0,
            bound=1.0,
        )
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=4)
        grid = ([0.0, 0.2, 0.5], [0.0, 0.5])
        node_errors = {}
        gf = solve_halfspace_linear(P2, indicator, grid, spec, node_errors=node_errors)
        exact = solve_halfspace_linear(P2, indicator, grid, spec, box=([1.0, -1.0], [2.0, 1.0]))
        assert sorted(node_errors) == [(1, 0), (1, 1), (2, 0), (2, 1)]
        for key, (estimate, error) in node_errors.items():
            assert gf.values[key] == estimate > 0.0
            assert spec.tolerance(estimate) < error
            assert abs(estimate - exact.values[key]) <= error
        assert np.all(gf.values[0] == 0.0)


class TestPicard:
    def test_zero_nonlinearity_single_iteration(self, small_operator):
        axes = small_operator.axes
        u0 = GridFunction(
            domain=HalfSpace(), axes=axes, values=np.zeros([len(a) for a in axes])
        )
        gf, rep = picard_semilinear(P2, Nonlinearity.zero(), u0, operator=small_operator)
        assert rep.verdict == "converged-to-zero"
        assert rep.iterations == 1

    def test_power_collapses_to_zero(self, small_operator):
        axes = small_operator.axes
        u0 = GridFunction(
            domain=HalfSpace(),
            axes=axes,
            values=np.full([len(a) for a in axes], 0.01),
        )
        gf, rep = picard_semilinear(P2, Nonlinearity.power(2.0), u0, operator=small_operator)
        assert rep.verdict == "converged-to-zero"
        assert rep.iterations <= 10
        assert np.all(gf.values >= 0.0)

    def test_monotone_start_stays_monotone(self, small_operator):
        # if u1 <= u0 nodewise then the whole sequence decreases nodewise
        axes = small_operator.axes
        shape = [len(a) for a in axes]
        f = Nonlinearity.power(1.5)
        u = np.full(shape, 0.05)
        new = small_operator.apply(f(u))
        assert np.all(new <= u)
        for _ in range(8):
            nxt = small_operator.apply(f(new))
            assert np.all(nxt <= new + 1e-15)
            new = nxt

    def test_operator_coefficients_nonnegative(self, small_operator):
        assert np.all(small_operator.matrix >= 0.0)
        assert np.all(small_operator.diag_mass > 0.0)

    def test_rejects_negative_start(self, small_operator):
        axes = small_operator.axes
        vals = np.full([len(a) for a in axes], -0.1)
        u0 = GridFunction(domain=HalfSpace(), axes=axes, values=vals)
        with pytest.raises(ValueError):
            picard_semilinear(P2, Nonlinearity.power(2.0), u0, operator=small_operator)

    def test_report_consistency(self, small_operator):
        with pytest.raises(ValueError):
            SolveReport(iterations=2, sup_norms=[1.0], residual=0.0, verdict="converged-to-zero")
        with pytest.raises(ValueError):
            SolveReport(iterations=1, sup_norms=[1.0], residual=0.0, verdict="nonsense")


def dense_reference(op, rows=None):
    """G(x_i, y_j) w_j by ``_green_from_psi`` at every node pair, zero at x_i = y_j,
    for the given rows of ``op`` (all by default): the pairwise dense build."""
    nodes = op.nodes
    xs = nodes if rows is None else nodes[rows]
    diff = xs[:, None, :] - nodes[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    live = d2 > 0.0
    d2safe = np.where(live, d2, 1.0)
    psi = np.where(live, 4.0 * xs[:, None, 0] * nodes[None, :, 0] / d2safe, 0.0)
    return np.where(live, _green_from_psi(op.params, d2safe, psi), 0.0) * op.weights


def operator_grid(N):
    if N == 1:
        return (np.linspace(0.05, 3.95, 40),)
    if N == 2:
        return halfspace_grid()
    # unequal lateral node counts, one lateral axis off centre
    return (np.linspace(0.125, 2.875, 6), np.linspace(-2.5, 2.5, 8), np.linspace(-1.5, 2.5, 7))


def assert_matches_reference(op, rows=None, seed=0):
    K = dense_reference(op, rows)
    rows = np.arange(len(op.nodes)) if rows is None else rows
    u = np.random.default_rng(seed).random(op.shape).ravel()
    ref = K @ u + op.diag_mass[rows] * u[rows]
    np.testing.assert_allclose(op.apply(u.reshape(op.shape)).ravel()[rows], ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(op.mass_row_sums()[rows], K.sum(axis=1) + op.diag_mass[rows], rtol=1e-13, atol=0)
    return K


class TestPicardOperator:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_matches_dense_reference(self, N, s):
        op = PicardOperator(FracParams(N, s), operator_grid(N))
        K = assert_matches_reference(op)
        dense = op.matrix
        np.testing.assert_allclose(dense, K, rtol=1e-13, atol=0)
        assert np.all(np.diag(dense) == 0.0)

    def test_graded_x1_axis(self):
        axes = (0.05 * 1.4 ** np.arange(10), np.linspace(-2.0, 2.0, 9))
        op = PicardOperator(P2, axes)
        K = assert_matches_reference(op)
        np.testing.assert_allclose(op.matrix, K, rtol=1e-13, atol=0)

    def test_large_three_dimensional_grid_rows(self):
        # 9216 nodes: the dense matrix would take 680 MB, the reference only 50 rows
        lat = np.linspace(-3.0, 3.0, 24)
        op = PicardOperator(FracParams(3, 0.5), (np.linspace(0.1, 3.1, 16), lat, lat))
        rows = np.sort(np.random.default_rng(3).choice(len(op.nodes), 50, replace=False))
        assert_matches_reference(op, rows, seed=4)

    def test_diagonal_is_own_cell_mass(self, small_operator):
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=20)
        for row in (0, 19, 151, 279):
            idx = np.unravel_index(row, small_operator.shape)
            lo, hi = [], []
            for a, i in zip(small_operator.axes, idx):
                lo.append(a[0] if i == 0 else 0.5 * (a[i - 1] + a[i]))
                hi.append(a[-1] if i == len(a) - 1 else 0.5 * (a[i] + a[i + 1]))
            mass = box_green_mass(P2, small_operator.nodes[row], np.array(lo), np.array(hi), spec)
            assert small_operator.diag_mass[row] == pytest.approx(mass, rel=1e-12)

    def test_rejects_nonuniform_lateral_axis(self):
        x1 = np.linspace(0.1, 1.0, 5)
        bent = np.array([-1.0, -0.5, 0.0, 0.6, 1.0])
        with pytest.raises(ValueError, match="lateral axis 1"):
            PicardOperator(P2, (x1, bent))
        with pytest.raises(ValueError, match="lateral axis 2"):
            PicardOperator(FracParams(3, 0.5), (x1, np.linspace(-1.0, 1.0, 5), bent))
        with pytest.raises(ValueError, match="two nodes"):
            PicardOperator(P2, (x1, np.array([0.0])))


class TestMovingPlane:
    def _linear_gf(self):
        axes = halfspace_grid(10, 6, 3.0, 2.0)
        vals = np.broadcast_to(axes[0][:, None], (10, 6)).copy()
        return GridFunction(domain=HalfSpace(), axes=axes, values=vals)

    def test_zero_field_no_violations(self):
        axes = halfspace_grid(8, 6, 3.0, 2.0)
        gf = GridFunction(domain=HalfSpace(), axes=axes, values=np.zeros((8, 6)))
        rep = moving_plane_check(gf, 1.0)
        assert rep.passed

    def test_monotone_field_passes_all_levels(self):
        gf = self._linear_gf()
        for lam in np.linspace(0.3, 1.4, 6):
            assert moving_plane_check(gf, float(lam)).passed

    def test_synthetic_violation_detected(self):
        gf = self._linear_gf()
        vals = gf.values.copy()
        vals[0, :] = 2.0  # spike near the boundary breaks u(x) <= u(x^lam)
        bad = GridFunction(domain=HalfSpace(), axes=gf.axes, values=vals)
        rep = moving_plane_check(bad, 1.0)
        assert not rep.passed
        assert len(rep.violations) >= 1

    def test_rejects_uncovered_level(self):
        gf = self._linear_gf()
        with pytest.raises(ValueError):
            moving_plane_check(gf, 10.0)

    def test_extrapolation_flagged(self):
        gf = self._linear_gf()
        rep = moving_plane_check(gf, 1.6)  # reflected points cross the hull at 2.85
        assert rep.used_extrapolation


class TestMonotonicityProfile:
    def test_zero(self):
        axes = halfspace_grid(6, 4, 2.0, 2.0)
        gf = GridFunction(domain=HalfSpace(), axes=axes, values=np.zeros((6, 4)))
        assert monotonicity_profile(gf).min_slope == 0.0

    def test_linear(self):
        axes = halfspace_grid(6, 4, 2.0, 2.0)
        vals = np.broadcast_to(axes[0][:, None], (6, 4)).copy()
        gf = GridFunction(domain=HalfSpace(), axes=axes, values=vals)
        assert monotonicity_profile(gf).min_slope == pytest.approx(1.0, rel=1e-12)

    def test_picard_output_monotone(self, small_operator):
        axes = small_operator.axes
        u0 = GridFunction(
            domain=HalfSpace(), axes=axes, values=np.full([len(a) for a in axes], 0.01)
        )
        gf, rep = picard_semilinear(P2, Nonlinearity.power(2.0), u0, operator=small_operator)
        assert monotonicity_profile(gf).min_slope >= -1e-6


class TestLambda0:
    @pytest.mark.slow
    def test_golden_value_and_margin(self):
        # 0.61810303: bisection on sup strip_mass(2 lam) = 0.9, resolution 4e-5
        lam0 = lambda0_estimate(P2, 1.0)
        assert lam0 == pytest.approx(0.61810303, rel=1e-4)
        sup = max(
            strip_mass(P2, 2.0 * lam0, np.array([a * lam0, 0.0]))
            for a in np.linspace(0.02, 0.98, 17)
        )
        assert sup < 1.0 / 1.0  # strict inequality with margin
        assert sup <= 0.9 + 1e-3

    def test_monotone_in_lipschitz_constant(self):
        lam_small = lambda0_estimate(P2, 4.0, n_samples=8)
        lam_large = lambda0_estimate(P2, 1.0, n_samples=8)
        assert lam_small <= lam_large + 1e-9
        # lambda0 ~ c_lip^(-1/(2s)) exactly, and 2s = 1 here
        assert lam_small == pytest.approx(lam_large / 4.0, rel=1e-12)

    def test_scaling_law_from_one_strip_mass_per_sample(self, monkeypatch):
        calls = []

        def fake_strip_mass(params, lam, x, spec=None):
            calls.append((lam, float(x[0])))
            return 0.5 + x[0] * (1.0 - x[0])

        monkeypatch.setattr(solver, "strip_mass", fake_strip_mass)
        P3 = FracParams(3, 0.25)
        lam0 = lambda0_estimate(P3, 2.0, n_samples=8)
        fracs = solver._vdc_sequence(8)
        assert calls == [(2.0, f) for f in fracs]
        sup = max(0.5 + f * (1.0 - f) for f in fracs)
        assert lam0 == pytest.approx((0.9 / (2.0 * sup)) ** 2.0, rel=1e-15)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_depends_on_s_and_lipschitz_constant_only(self, s):
        lam0 = [lambda0_estimate(FracParams(N, s), 1.0) for N in (1, 2, 3)]
        assert lam0[0] == lam0[1] == lam0[2]

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            lambda0_estimate(P2, 0.0)


class TestHolder:
    def _ball_solution(self, n):
        grid = (np.linspace(-0.9, 0.9, n),)
        return solve_ball_dirichlet(P1, 1.0, ONE, ZERO, grid)

    def test_zero_field(self):
        axes = (np.linspace(-0.9, 0.9, 11),)
        gf = GridFunction(domain=HalfSpace(), axes=axes, values=np.zeros(11))
        res = holder_estimate_check(P1, gf, ZERO, 0.5, 0.25)
        assert res.quotient == 0.0

    def test_getoor_quotient_finite(self):
        gf = self._ball_solution(19)
        res = holder_estimate_check(P1, gf, ONE, 0.5, 0.5 * min(1.0, 2 * P1.s) * 0.9)
        assert np.isfinite(res.quotient)
        assert 0.0 < res.bound_ratio < 10.0

    def test_rejects_alpha_out_of_range(self):
        gf = self._ball_solution(9)
        with pytest.raises(ValueError):
            holder_estimate_check(P1, gf, ONE, 0.5, 1.5)
        with pytest.raises(ValueError):
            holder_estimate_check(P1, gf, ONE, 0.5, 1.0)
