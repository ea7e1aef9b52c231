import numpy as np
import pytest
from scipy import integrate

from fraclap import solver
from fraclap.core import FracParams, getoor_constant
from fraclap.kernels import HalfSpace, _green_from_psi, green_halfspace
from fraclap.quadrature import (
    QuadratureSpec,
    ScalarField,
    ToleranceNotMet,
    ball_green_integral,
    box_green_mass,
    constant_field,
    exterior_poisson_integral,
    halfspace_green_integral,
    strip_mass,
)
from fraclap.solver import (
    GridFunction,
    MonotonicityProfile,
    Nonlinearity,
    PicardOperator,
    SolveReport,
    lambda0_estimate,
    monotonicity_profile,
    moving_plane_check,
    picard_semilinear,
    solve_ball_dirichlet,
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
        assert f(np.array([0.0, 2.0]))[1] == 4.0
        f.validate(10.0)

    def test_zero(self):
        f = Nonlinearity.zero()
        assert np.all(f(np.linspace(0, 5, 7)) == 0.0)
        assert f.lipschitz_const == 0.0
        f.validate(3.0)

    def test_validate_rejects_mislabeled(self):
        bad = Nonlinearity(func=lambda t: -t)
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

    def test_eval_returns_exterior_data_outside_the_hull(self):
        # the solve stores g as the exterior field: outside the grid hull
        # (here, outside B_1) eval returns g, inside it interpolates the nodes
        g = ScalarField(
            func=lambda p: 1.0 / (1.0 + np.sum((p - 0.5) ** 2, axis=-1)),
            smoothness="C2",
            decay_exponent=2.0,
            bound=1.0,
        )
        grid = (np.linspace(-0.8, 0.8, 5),)
        gf = solve_ball_dirichlet(P1, 1.0, ONE, g, grid)
        outside = np.array([[-3.0], [-1.0], [1.0], [1.5]])
        np.testing.assert_array_equal(gf.eval(outside), g(outside))
        assert gf.eval(np.array([1.5])) == g(np.array([1.5]))
        inside = np.array([[-0.8], [-0.25], [0.1], [0.8]])
        np.testing.assert_allclose(gf.eval(inside), np.interp(inside[:, 0], grid[0], gf.values), rtol=1e-14)
        bare = GridFunction(domain=gf.domain, axes=gf.axes, values=gf.values)
        assert np.all(bare.eval(outside) == 0.0)

    def test_exterior_nodes_copy_data(self):
        grid = (np.linspace(-1.5, 1.5, 7),)
        gf = solve_ball_dirichlet(P1, 1.0, ZERO, ONE, grid)
        assert gf.values[0] == 1.0 and gf.values[-1] == 1.0

    def test_flagged_node_keeps_every_term(self):
        # the ball integral of the half-plane indicator raises at (0.3, 0.05);
        # the node must still hold the exterior term (1 for g == 1) plus the
        # ball estimate, and report their combined error.  Its neighbours
        # (0.3, 0.6) and (0.3, 0.8) share its batch but meet their
        # tolerance: they are not flagged and keep their one-point values;
        # the other nodes lie outside the ball
        half_plane = ScalarField(
            func=lambda p: np.where(p[..., 1] > 0.0, 1.0, 0.0), smoothness="continuous", bound=1.0
        )
        node_errors = {}
        grid = ([0.3, 1.5], [0.05, 0.6, 0.8, 1.5])
        gf = solve_ball_dirichlet(P2, 1.0, half_plane, ONE, grid, node_errors=node_errors)
        estimate, error = node_errors[(0, 0)]
        assert gf.values[0, 0] == estimate
        assert estimate == pytest.approx(1.0 + 0.3579293, abs=1e-5)
        assert error > 0.0
        assert list(node_errors) == [(0, 0)]
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        x = np.array([0.3, 0.05])
        with pytest.raises(ToleranceNotMet) as missed:
            ball_green_integral(P2, 1.0, half_plane, x, spec)
        assert estimate == pytest.approx(exterior_poisson_integral(P2, 1.0, ONE, x, spec) + missed.value.estimate, rel=1e-12)
        assert error == missed.value.error
        for j in (1, 2):
            x = np.array([0.3, grid[1][j]])
            alone = exterior_poisson_integral(P2, 1.0, ONE, x, spec) + ball_green_integral(P2, 1.0, half_plane, x, spec)
            assert gf.values[0, j] == pytest.approx(alone, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "N, s, grid",
        [
            (1, 0.5, ([-0.98, -0.4, 0.0, 0.55, 0.97, 1.2],)),
            (1, 0.75, ([-0.99, -0.3, 0.2, 0.97],)),
            (2, 0.25, ([0.0, 0.5, 0.97], [-0.2, 0.0])),
            (2, 0.5, ([-0.6, 0.0, 0.99], [0.0, 0.4])),
            (3, 0.5, ([0.0, 0.97], [0.0, 0.5], [0.0, 0.5])),
        ],
        ids=["N1-s0.5", "N1-s0.75", "N2-s0.25", "N2-s0.5", "N3-s0.5"],
    )
    def test_grid_matches_one_point_calls(self, N, s, grid):
        # one batched evaluation per integral gives every node the value of
        # its own one-point calls, and flags exactly the nodes where one of
        # them raises; each grid has a node with |x| >= 0.97.  The data are
        # not radial, except g at N = 3 (the direction remainder there costs
        # seconds per node)
        params = FracParams(N, s)
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        c = 0.5 * np.eye(N)[0] if N < 3 else np.zeros(N)
        f = ScalarField(func=lambda p: 1.0 + 0.5 * p[..., 0] * p[..., -1], smoothness="C2", bound=2.0)
        g = ScalarField(
            func=lambda p: 1.0 / (1.0 + np.sum((p - c) ** 2, axis=-1)),
            smoothness="C2",
            decay_exponent=2.0,
            bound=1.0,
        )
        node_errors = {}
        gf = solve_ball_dirichlet(params, 1.0, f, g, grid, spec, node_errors=node_errors)
        raised = set()
        for index in np.ndindex(gf.values.shape):
            x = np.array([axis[i] for axis, i in zip(grid, index)])
            if x @ x >= 1.0:
                assert gf.values[index] == g(x)
                continue
            alone = 0.0
            for integral, data in ((exterior_poisson_integral, g), (ball_green_integral, f)):
                try:
                    alone += integral(params, 1.0, data, x, spec)
                except ToleranceNotMet as exc:
                    alone += exc.estimate
                    raised.add(index)
            assert gf.values[index] == pytest.approx(alone, rel=1e-12, abs=0.0), x
        assert set(node_errors) == raised


def halfspace_values(f, grid, spec, box, node_errors=None):
    """u(x) = half-space Green integral of f over ``box`` at every node of the tensor grid,
    0 at nodes with x1 <= 0; a node whose integral raises ``ToleranceNotMet``
    keeps the estimate and lands in ``node_errors`` (index -> (value, error))."""
    u = np.zeros(tuple(len(a) for a in grid))
    for index in np.ndindex(u.shape):
        x = np.array([a[i] for a, i in zip(grid, index)], dtype=float)
        if x[0] <= 0.0:
            continue
        try:
            u[index] = halfspace_green_integral(P2, f, x, spec, box=box)
        except ToleranceNotMet as exc:
            u[index] = exc.estimate
            if node_errors is not None:
                node_errors[index] = (exc.estimate, exc.error)
    return u


class TestHalfspaceLinear:
    def test_zero(self):
        zero = ScalarField(
            func=lambda p: np.zeros(p.shape[:-1]),
            smoothness="C2",
            support_radius=1.0,
            bound=0.0,
        )
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)
        u = halfspace_values(zero, halfspace_grid(6, 8, 2.0, 2.0), spec, box=([0.0, -1.0], [1.0, 1.0]))
        assert np.max(np.abs(u)) == 0.0

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
        u = halfspace_values(f, grid, QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9), box=box)
        spread = np.max(np.abs(u - u[:, :1]), axis=1)
        assert np.max(spread) <= 1e-8 * (1.0 + np.max(np.abs(u)))
        # the profile is the half-line mass int_0^1 G_1(x1, y1) dy1, in the
        # rows inside the slab and above it (x1 > 1) alike
        ref = np.array([
            integrate.quad(
                lambda y: green_halfspace(P1, [x1], [y]), 0.0, 1.0,
                points=[x1] if x1 < 1.0 else None, epsabs=1e-13, epsrel=1e-12, limit=200,
            )[0]
            for x1 in grid[0]
        ])
        rel = np.abs(u[:, 0] / ref - 1.0)
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
        profile = halfspace_values(f, grid, QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9), box=box)[:, 0]
        assert np.all(np.diff(profile) > 0.0)

    def test_jump_density_keeps_estimates_and_flags_nodes(self):
        # the indicator of [1, 2] x [-1, 1] jumps inside the box
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
        u = halfspace_values(indicator, grid, spec, box=([0.0, -3.0], [3.0, 3.0]), node_errors=node_errors)
        exact = halfspace_values(indicator, grid, spec, box=([1.0, -1.0], [2.0, 1.0]))
        assert sorted(node_errors) == [(1, 0), (1, 1), (2, 0), (2, 1)]
        for key, (estimate, error) in node_errors.items():
            assert u[key] == estimate > 0.0
            assert spec.tolerance(estimate) < error
            assert abs(estimate - exact[key]) <= error
        assert np.all(u[0] == 0.0)


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

    def test_large_start_diverges(self, small_operator):
        # u0 = 10 with f(t) = t^2: the sup passes 1e3 on the second iterate
        axes = small_operator.axes
        u0 = GridFunction(domain=HalfSpace(), axes=axes, values=np.full([len(a) for a in axes], 10.0))
        gf, rep = picard_semilinear(P2, Nonlinearity.power(2.0), u0, operator=small_operator)
        assert rep.verdict == "diverged"
        assert rep.iterations == 2
        assert gf.sup_norm() > 1e3

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
            SolveReport(iterations=1, residual=0.0, verdict="nonsense")


def dense_reference(op, rows=None):
    """G(x_i, y_j) w_j by ``_green_from_psi`` at every node pair, zero at x_i = y_j,
    for the given rows of ``op`` (all by default): the pairwise dense build."""
    nodes = op.nodes
    xs = nodes if rows is None else nodes[rows]
    diff = xs[:, None, :] - nodes[None, :, :]
    d2 = np.sum(diff * diff, axis=-1)
    return _green_from_psi(op.params, d2, 4.0 * xs[:, None, 0] * nodes[None, :, 0], 1.0) * op.weights


def operator_grid(N):
    if N == 1:
        return (np.linspace(0.05, 3.95, 40),)
    if N == 2:
        return halfspace_grid()
    # unequal lateral node counts, one lateral axis off centre
    return (np.linspace(0.125, 2.875, 6), np.linspace(-2.5, 2.5, 8), np.linspace(-1.5, 2.5, 7))


GRADED_AXES = (0.05 * 1.4 ** np.arange(10), np.linspace(-2.0, 2.0, 9))


def full_table(op):
    """The kernel table T[i1, j1, d'] by ``_green_from_psi`` at every x1, y1 and
    every lateral offset d'_k = (m_k - n_k + 1) h_k, m_k = 0 .. 2 n_k - 2."""
    a1, lateral = op.axes[0], op.shape[1:]
    ones = (1,) * len(lateral)
    r2 = np.zeros([2 * n - 1 for n in lateral])
    for k, (a, n) in enumerate(zip(op.axes[1:], lateral)):
        d = np.arange(1 - n, n) * ((a[-1] - a[0]) / (n - 1))
        r2 = r2 + (d * d).reshape(ones[:k] + (-1,) + ones[k + 1 :])
    x1 = a1.reshape((-1, 1) + ones)
    y1 = a1.reshape((1, -1) + ones)
    d2 = (x1 - y1) ** 2 + r2
    return _green_from_psi(op.params, d2, np.broadcast_to(4.0 * x1 * y1, d2.shape), 1.0)


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
        op = PicardOperator(P2, GRADED_AXES)
        K = assert_matches_reference(op)
        np.testing.assert_allclose(op.matrix, K, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("s", [0.5, 0.75])
    @pytest.mark.parametrize("axes", [operator_grid(1), operator_grid(2), operator_grid(3), GRADED_AXES],
                             ids=["N1", "N2", "N3-unequal-off-centre", "N2-graded"])
    def test_table_is_the_full_build(self, axes, s):
        # evaluated at d'_k >= 0 and i1 <= j1 only, then mirrored: bit for bit the full grid
        op = PicardOperator(FracParams(len(axes), s), axes)
        assert op._table.tobytes() == full_table(op).tobytes()

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

    @pytest.mark.parametrize(
        "axes",
        [
            (np.linspace(0.1, 1.0, 5), np.linspace(1.0, -1.0, 5)),
            (np.linspace(1.0, 0.1, 5), np.linspace(-1.0, 1.0, 5)),
            (np.array([0.1, 0.4, 0.4, 0.7, 1.0]), np.linspace(-1.0, 1.0, 5)),
        ],
        ids=["descending-lateral", "descending-x1", "repeated-x1-node"],
    )
    def test_rejects_axes_not_strictly_increasing(self, monkeypatch, axes):
        def kernel(*args, **kwargs):
            raise AssertionError("kernel evaluated before the axes were checked")

        monkeypatch.setattr(solver, "_green_from_psi", kernel)
        monkeypatch.setattr(solver, "box_green_mass", kernel)
        with pytest.raises(ValueError, match="grid axes must be strictly increasing"):
            PicardOperator(P2, axes)

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

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_rejects_no_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            lambda0_estimate(P2, 1.0, n_samples=n_samples)

