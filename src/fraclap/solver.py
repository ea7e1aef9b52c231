"""Dirichlet solvers via Green representation, the semilinear Picard
iterator on the half-space, moving-plane diagnostics, and the interior
Hoelder check.

The Picard operator is a locally corrected Nystroem discretization: cell
midpoint weights away from the kernel diagonal plus the Duffy-pyramid Green
mass of each node's own cell.  All its coefficients are nonnegative, so the
discrete operator inherits the monotonicity of the continuous one.  The
half-space Green function is invariant under tangential translations, so
on uniform lateral axes the off-diagonal part is a kernel table over
(x1, y1, x' - y') of n1^2 prod(2 n_k - 1) values, applied by FFT over the
lateral axes; no M x M matrix is held.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FracParams
from .kernels import Ball, Domain, HalfSpace, _green_from_psi, reflect_point
from .quadrature import (
    QuadratureSpec,
    ScalarField,
    ToleranceNotMet,
    ball_green_integral,
    box_green_mass,
    exterior_poisson_integral,
    halfspace_green_integral,
    strip_mass,
)

__all__ = [
    "GridFunction",
    "SolveReport",
    "Nonlinearity",
    "PicardOperator",
    "MovingPlaneReport",
    "HolderCheck",
    "MonotonicityProfile",
    "solve_ball_dirichlet",
    "solve_halfspace_linear",
    "picard_semilinear",
    "moving_plane_check",
    "lambda0_estimate",
    "monotonicity_profile",
    "holder_estimate_check",
]


@dataclass
class GridFunction:
    """Scalar field sampled on a tensor grid, multilinearly interpolated.

    Outside the grid hull the exterior rule applies: "zero" returns 0
    (matching zero complementary data and box truncation), while
    "provided-field" delegates to the stored exterior data.
    """

    domain: Domain
    axes: tuple
    values: np.ndarray
    exterior_rule: str = "zero"
    exterior_field: ScalarField | None = None

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if any(len(a) < 2 for a in self.axes):
            raise ValueError("grid axes need at least two nodes")
        if any(np.any(np.diff(a) <= 0.0) for a in self.axes):
            raise ValueError("grid axes must be strictly increasing")
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("values shape does not match grid axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if self.exterior_rule not in ("zero", "provided-field"):
            raise ValueError(f"unknown exterior rule {self.exterior_rule!r}")
        if self.exterior_rule == "provided-field" and self.exterior_field is None:
            raise ValueError("provided-field rule needs an exterior field")

    @property
    def ndim(self):
        return len(self.axes)

    def nodes(self):
        """All grid nodes as an (M, N) array in C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def _inside_hull(self, pts):
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for k, a in enumerate(self.axes):
            ok &= (pts[..., k] >= a[0]) & (pts[..., k] <= a[-1])
        return ok

    def _interp(self, pts):
        # multilinear interpolation with coordinates clipped to the hull
        idx = []
        frac = []
        for k, a in enumerate(self.axes):
            c = np.clip(pts[..., k], a[0], a[-1])
            i = np.clip(np.searchsorted(a, c, side="right") - 1, 0, len(a) - 2)
            h = a[i + 1] - a[i]
            idx.append(i)
            frac.append((c - a[i]) / h)
        out = np.zeros(pts.shape[:-1])
        for corner in range(2**self.ndim):
            weight = np.ones(pts.shape[:-1])
            index = []
            for k in range(self.ndim):
                bit = (corner >> k) & 1
                weight = weight * (frac[k] if bit else (1.0 - frac[k]))
                index.append(idx[k] + bit)
            out += weight * self.values[tuple(index)]
        return out

    def eval(self, pts, extrapolation: str = "rule"):
        """Evaluate at points (..., N).

        extrapolation="rule": exterior rule outside the hull.
        extrapolation="clamp": clamp coordinates to the hull (used for
        reflected points that leave the truncation box); callers flag it.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        inside = self._inside_hull(pts)
        out = np.where(inside, self._interp(pts), 0.0)
        if extrapolation == "clamp":
            out = self._interp(pts)
        elif self.exterior_rule == "provided-field" and np.any(~inside):
            ext = np.asarray(self.exterior_field(pts), dtype=float)
            out = np.where(inside, out, ext)
        return float(out[0]) if scalar else out

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def hull(self):
        lo = np.array([a[0] for a in self.axes])
        hi = np.array([a[-1] for a in self.axes])
        return lo, hi


@dataclass
class SolveReport:
    iterations: int
    sup_norms: list
    residual: float
    verdict: str
    truncation: tuple | None = None
    seed: int | None = None

    VERDICTS = ("converged-to-zero", "converged-nonzero", "diverged", "budget-exhausted")

    def __post_init__(self):
        if self.verdict not in self.VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if len(self.sup_norms) != self.iterations:
            raise ValueError("sup_norms length must equal iteration count")


@dataclass(frozen=True)
class Nonlinearity:
    """Source nonlinearity t -> f(t) with the tags the iteration relies on."""

    func: object
    nonnegative: bool = True
    nondecreasing: bool = True
    lipschitz_const: float | None = None
    zero_derivative_at_zero: bool = False
    name: str = "custom"

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=float))

    @classmethod
    def power(cls, q: float):
        if q < 1.0:
            raise ValueError("power nonlinearity needs q >= 1")
        return cls(
            func=lambda t: np.maximum(t, 0.0) ** q,
            nonnegative=True,
            nondecreasing=True,
            lipschitz_const=None,
            zero_derivative_at_zero=q > 1.0,
            name=f"power({q:g})",
        )

    @classmethod
    def zero(cls):
        return cls(
            func=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            nonnegative=True,
            nondecreasing=True,
            lipschitz_const=0.0,
            zero_derivative_at_zero=True,
            name="zero",
        )

    def lipschitz_on(self, M: float, samples: int = 513):
        """Measured Lipschitz constant on [0, M] (falls back to the tag)."""
        ts = np.linspace(0.0, max(M, 1e-12), samples)
        fs = self(ts)
        slopes = np.abs(np.diff(fs) / np.diff(ts))
        measured = float(np.max(slopes))
        if self.lipschitz_const is not None:
            return max(self.lipschitz_const, measured)
        return measured

    def validate(self, M: float, samples: int = 257):
        ts = np.linspace(0.0, max(M, 1e-12), samples)
        fs = self(ts)
        if self.nonnegative and np.any(fs < 0.0):
            raise ValueError("nonlinearity tagged nonnegative but takes negative values")
        if fs[0] < 0.0:
            raise ValueError("nonlinearity must satisfy f(0) >= 0")
        if self.nondecreasing and np.any(np.diff(fs) < -1e-12 * (1.0 + np.max(np.abs(fs)))):
            raise ValueError("nonlinearity tagged nondecreasing but decreases on [0, M]")
        if self.lipschitz_const is not None:
            slopes = np.abs(np.diff(fs) / np.diff(ts))
            if np.max(slopes) > self.lipschitz_const * (1.0 + 1e-9) + 1e-12:
                raise ValueError("sampled slope exceeds the declared Lipschitz constant")


# ---------------------------------------------------------------------------
# linear solves


def solve_ball_dirichlet(
    params: FracParams,
    R: float,
    f: ScalarField,
    g: ScalarField,
    grid,
    spec: QuadratureSpec | None = None,
    node_errors: dict | None = None,
):
    """Green-Poisson representation on a tensor grid over B_R.

    v(x) = exterior Poisson integral of g plus ball Green integral of f at
    every node inside the ball; nodes outside copy the exterior data.
    Where an integrator cannot meet its tolerance the node keeps its
    estimate in the sum and lands in ``node_errors`` (index -> (value,
    summed error of the integrators that raised)).
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    axes = tuple(np.asarray(a, dtype=float) for a in grid)
    shape = tuple(len(a) for a in axes)
    values = np.zeros(shape)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    flat = values.reshape(-1)
    for i, x in enumerate(pts):
        if float(np.dot(x, x)) >= R * R:
            flat[i] = float(np.asarray(g(x)))
            continue
        total, errors = 0.0, []
        for integral, data in ((exterior_poisson_integral, g), (ball_green_integral, f)):
            try:
                total += integral(params, R, data, x, spec)
            except ToleranceNotMet as exc:
                total += exc.estimate
                errors.append(exc.error)
        if errors and node_errors is not None:
            node_errors[np.unravel_index(i, shape)] = (total, sum(errors))
        flat[i] = total
    return GridFunction(
        domain=Ball(R),
        axes=axes,
        values=values,
        exterior_rule="provided-field",
        exterior_field=g,
    )


def solve_halfspace_linear(
    params: FracParams,
    f: ScalarField,
    grid,
    spec: QuadratureSpec | None = None,
    box=None,
    node_errors: dict | None = None,
):
    """u(x) = half-space Green integral of f at every grid node; a node whose
    integral misses its tolerance keeps the estimate and lands in
    ``node_errors`` (index -> (value, error))."""
    spec = spec or QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)
    axes = tuple(np.asarray(a, dtype=float) for a in grid)
    shape = tuple(len(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.zeros(len(pts))
    for i, x in enumerate(pts):
        if x[0] <= 0.0:
            continue
        try:
            vals[i] = halfspace_green_integral(params, f, x, spec, box=box)
        except ToleranceNotMet as exc:
            vals[i] = exc.estimate
            if node_errors is not None:
                node_errors[np.unravel_index(i, shape)] = (exc.estimate, exc.error)
    return GridFunction(
        domain=HalfSpace(), axes=axes, values=vals.reshape(shape), exterior_rule="zero"
    )


# ---------------------------------------------------------------------------
# Picard iteration


def _axis_weights(a):
    w = np.zeros_like(a)
    w[1:-1] = 0.5 * (a[2:] - a[:-2])
    w[0] = 0.5 * (a[1] - a[0])
    w[-1] = 0.5 * (a[-1] - a[-2])
    return w


def _cell_bounds(a):
    lo = np.empty_like(a)
    hi = np.empty_like(a)
    lo[0] = a[0]
    lo[1:] = 0.5 * (a[:-1] + a[1:])
    hi[-1] = a[-1]
    hi[:-1] = 0.5 * (a[:-1] + a[1:])
    return lo, hi


class PicardOperator:
    """Discrete half-space Green operator v -> int_box G(x_i, y) v(y) dy.

    Off-diagonal: node-cell midpoint weights, G(x_i, y_j) w_j with zero at
    x_i = y_j.  The half-space Green function is invariant under tangential
    translations: G(x, y) depends on x1, y1 and x' - y' only.  On uniform
    lateral axes (x2 ... xN; the x1 axis may be graded) the coefficients
    are therefore the table T[i1, j1, d'] over the lateral offsets
    d'_k in {-(n_k - 1) .. n_k - 1} h_k, n1^2 prod(2 n_k - 1) kernel values
    in place of M^2.  ``apply`` multiplies by the weights, takes an FFT over
    the lateral axes zero-padded to 2 n_k (so the circular convolution is
    the linear one), contracts with the transformed table over j1 (one
    n1 x n1 matvec per frequency), transforms back, crops and adds the
    diagonal; with N = 1 the table is the n1 x n1 matrix and ``apply`` is a
    matvec.  Non-uniform lateral axes raise ``ValueError``.  ``matrix`` is
    a dense M x M view assembled from the table on each access; ``apply``
    does not use it.

    Diagonal: the Green mass of the node's own cell by ``box_green_mass``
    (Duffy pyramids with their apex at the node, which lies in the closed
    cell), computed once per distinct cell shape and height.  Every
    coefficient is nonnegative, so the operator is monotone nodewise.
    """

    def __init__(self, params: FracParams, axes, spec: QuadratureSpec | None = None):
        self.params = params
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if len(self.axes) != params.N:
            raise ValueError("grid dimension does not match params")
        if any(len(a) < 2 for a in self.axes):
            raise ValueError("grid axes need at least two nodes")
        for k, a in enumerate(self.axes[1:], start=1):
            if not np.allclose(np.diff(a), a[1] - a[0], rtol=1e-12, atol=0):
                raise ValueError(f"lateral axis {k} must be uniformly spaced")
        spec = spec or QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=20)
        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.shape = tuple(len(a) for a in self.axes)
        self.nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        if np.any(self.nodes[:, 0] <= 0.0):
            raise ValueError("grid nodes must lie strictly inside the half-space")
        axis_w = [_axis_weights(a) for a in self.axes]
        wmesh = np.meshgrid(*axis_w, indexing="ij")
        self.weights = np.prod(np.stack([m.ravel() for m in wmesh], axis=0), axis=0)
        self._table, self._table_hat = self._build_matrix()
        self.diag_mass = self._build_diagonal(spec)
        lo = np.array([a[0] for a in self.axes])
        hi = np.array([a[-1] for a in self.axes])
        self.box = (lo, hi)

    def _build_matrix(self):
        """The kernel table T[i1, j1, d'] and its lateral transform.

        Offset index m_k = 0 .. 2 n_k - 2 stands for x_k - y_k = (m_k - n_k + 1) h_k.
        The benchmark's tracer (``bench/fraclap_bench/tracing.py``) times
        this method, ``_build_diagonal`` and ``apply`` by name.
        """
        a1, lateral = self.axes[0], self.shape[1:]
        ones = (1,) * len(lateral)
        r2 = np.zeros([2 * n - 1 for n in lateral])
        for k, (a, n) in enumerate(zip(self.axes[1:], lateral)):
            d = np.arange(1 - n, n) * ((a[-1] - a[0]) / (n - 1))
            r2 = r2 + (d * d).reshape(ones[:k] + (-1,) + ones[k + 1 :])
        x1 = a1.reshape((-1, 1) + ones)
        y1 = a1.reshape((1, -1) + ones)
        d2 = (x1 - y1) ** 2 + r2
        live = d2 > 0.0
        d2safe = np.where(live, d2, 1.0)
        psi = np.where(live, 4.0 * x1 * y1 / d2safe, 0.0)
        table = np.where(live, _green_from_psi(self.params, d2safe, psi), 0.0)
        if not lateral:
            return table, None
        # zero-padded to 2 n_k, the output node i_k reads the product at
        # i_k + n_k - 1; frequencies first, so apply is one batched matmul
        table_hat = np.fft.rfftn(np.moveaxis(table, (0, 1), (-2, -1)), s=[2 * n for n in lateral],
                                 axes=tuple(range(len(lateral))))
        return table, np.ascontiguousarray(table_hat)

    def _build_diagonal(self, spec):
        bounds = [_cell_bounds(a) for a in self.axes]
        lo = np.stack([m.ravel() for m in np.meshgrid(*[b[0] for b in bounds], indexing="ij")], axis=-1)
        hi = np.stack([m.ravel() for m in np.meshgrid(*[b[1] for b in bounds], indexing="ij")], axis=-1)
        x = self.nodes
        keys = np.round(np.column_stack([x[:, :1], lo - x, hi - x]), 12)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        masses = np.array([box_green_mass(self.params, x[i], lo[i], hi[i], spec) for i in first])
        return masses[inverse.reshape(-1)]

    def _off_diagonal(self, u):
        v = self.weights.reshape(self.shape) * u
        lateral = self.shape[1:]
        if not lateral:
            return self._table @ v
        axes = tuple(range(len(lateral)))
        pad = [2 * n for n in lateral]
        v_hat = np.fft.rfftn(np.moveaxis(v, 0, -1), s=pad, axes=axes)
        out = np.fft.irfftn((self._table_hat @ v_hat[..., None])[..., 0], s=pad, axes=axes)
        return np.moveaxis(out[tuple(slice(n - 1, 2 * n - 1) for n in lateral)], -1, 0)

    def apply(self, values):
        u = np.asarray(values, dtype=float).reshape(self.shape)
        return self._off_diagonal(u) + self.diag_mass.reshape(self.shape) * u

    def mass_row_sums(self):
        return self._off_diagonal(np.ones(self.shape)).reshape(-1) + self.diag_mass

    @property
    def matrix(self):
        """Dense M x M off-diagonal coefficients G(x_i, y_j) w_j, assembled from
        the table on each access (exact zeros on the diagonal, no FFT)."""
        N = len(self.shape)
        i = np.indices(self.shape + self.shape, sparse=True)
        index = (i[0], i[N]) + tuple(i[k] - i[N + k] + n - 1 for k, n in enumerate(self.shape[1:], start=1))
        dense = self._table[index].reshape(len(self.nodes), -1)
        dense *= self.weights
        return dense


def picard_semilinear(
    params: FracParams,
    f: Nonlinearity,
    u0: GridFunction,
    box=None,
    max_iter: int = 200,
    spec: QuadratureSpec | None = None,
    operator: PicardOperator | None = None,
    seed: int | None = None,
):
    """Iterate u_{k+1}(x) = int_box G(x,y) f(u_k(y)) dy on u0's grid.

    Stops when the residual drops below 1e-6 (1 + sup u_k) (converged;
    "converged-to-zero" when the final sup is below 1e-6), the sup norm
    exceeds 1e3 (diverged), or the budget runs out.  The dropped exterior
    tail is nonnegative, so zero verdicts are conservative.
    """
    if np.any(u0.values < 0.0):
        raise ValueError("Picard iteration needs a nonnegative start")
    if not (f.nonnegative and f.nondecreasing):
        raise ValueError("Picard iteration needs a nonnegative nondecreasing nonlinearity")
    f.validate(max(u0.sup_norm() * 2.0, 1.0))
    if box is not None:
        lo, hi = u0.hull()
        if not (np.allclose(box[0], lo) and np.allclose(box[1], hi)):
            raise ValueError("box must coincide with the grid hull of u0")
    op = operator or PicardOperator(params, u0.axes, spec)
    u = u0.values.copy()
    sup_norms = []
    residual = np.inf
    verdict = "budget-exhausted"
    iterations = 0
    for _ in range(max_iter):
        new = op.apply(f(u))
        residual = float(np.max(np.abs(new - u)))
        u = new
        sup = float(np.max(np.abs(u)))
        sup_norms.append(sup)
        iterations += 1
        if sup > 1e3:
            verdict = "diverged"
            break
        if residual < 1e-6 * (1.0 + sup):
            verdict = "converged-to-zero" if sup < 1e-6 else "converged-nonzero"
            break
    gf = GridFunction(domain=HalfSpace(), axes=u0.axes, values=u, exterior_rule="zero")
    report = SolveReport(
        iterations=iterations,
        sup_norms=sup_norms,
        residual=residual,
        verdict=verdict,
        truncation=tuple(map(tuple, op.box)),
        seed=seed,
    )
    return gf, report


# ---------------------------------------------------------------------------
# moving-plane diagnostics


@dataclass
class MovingPlaneReport:
    lam: float
    tol: float
    violations: list
    used_extrapolation: bool

    @property
    def passed(self):
        return len(self.violations) == 0


def moving_plane_check(u: GridFunction, lam: float, tol: float | None = None):
    """List grid nodes x in the slab {0 < x1 < lam} with u(x) > u(x^lam) + tol.

    Reflected points beyond the grid hull (but still in the half-space)
    are evaluated by clamped interpolation and flagged in the report.
    """
    axes = u.axes
    if lam <= axes[0][0] or lam >= axes[0][-1]:
        raise ValueError("reflection level lam must lie inside the grid's x1 range")
    if tol is None:
        tol = 1e-9 + 1e-6 * u.sup_norm()
    nodes = u.nodes()
    vals = u.values.reshape(-1)
    in_slab = (nodes[:, 0] > 0.0) & (nodes[:, 0] < lam)
    slab_nodes = nodes[in_slab]
    slab_vals = vals[in_slab]
    reflected = reflect_point(slab_nodes, lam)
    beyond = reflected[:, 0] > axes[0][-1]
    used_extrapolation = bool(np.any(beyond))
    refl_vals = u.eval(reflected, extrapolation="clamp")
    deficit = slab_vals - refl_vals
    bad = deficit > tol
    violations = [
        (tuple(slab_nodes[i]), float(deficit[i])) for i in np.nonzero(bad)[0]
    ]
    return MovingPlaneReport(
        lam=lam, tol=tol, violations=violations, used_extrapolation=used_extrapolation
    )


@dataclass
class MonotonicityProfile:
    min_slope: float
    location: tuple


def monotonicity_profile(u: GridFunction) -> MonotonicityProfile:
    """Minimum forward difference quotient along x1 over all grid nodes."""
    a = u.axes[0]
    h = np.diff(a)
    shape = [1] * u.ndim
    shape[0] = len(h)
    slopes = np.diff(u.values, axis=0) / h.reshape(shape)
    flat = int(np.argmin(slopes))
    idx = np.unravel_index(flat, slopes.shape)
    loc = tuple(float(u.axes[k][idx[k]]) for k in range(u.ndim))
    return MonotonicityProfile(min_slope=float(slopes[idx]), location=loc)


def _vdc_sequence(n, base=2):
    """van der Corput low-discrepancy points in (0, 1)."""
    out = np.empty(n)
    for i in range(n):
        v, denom, k = 0.0, 1.0, i + 1
        while k:
            k, rem = divmod(k, base)
            denom *= base
            v += rem / denom
        out[i] = v
    return out


def lambda0_estimate(
    params: FracParams,
    c_lip: float,
    spec: QuadratureSpec | None = None,
    n_samples: int = 64,
):
    """Largest slab width lambda0 whose doubled-slab Green mass
    sup_x int_{0 < y1 < 2 lambda0} G(x, y) dy is at most 0.9 / c_lip, i.e.
    strictly below 1/c_lip with a 10% margin.

    The mass is exactly homogeneous, strip_mass(c lam, c x) =
    c^(2s) strip_mass(lam, x), and it is the half-line mass of
    ``FracParams(1, s)`` in every dimension, so lambda0 depends on s and
    c_lip only.  With S the sup of strip_mass(2, (f, 0, ...)) over n_samples
    low-discrepancy fractions f in (0, 1), lambda0 = (0.9 / (c_lip S))^(1/(2s)):
    n_samples ``strip_mass`` calls, no bracketing and no cap on lambda0.
    """
    if c_lip <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    spec = spec or QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8, max_refinements=10)
    xs = np.zeros((n_samples, params.N))
    xs[:, 0] = _vdc_sequence(n_samples)
    sup = max(strip_mass(params, 2.0, x, spec) for x in xs)
    return (0.9 / (c_lip * sup)) ** (1.0 / (2.0 * params.s))


# ---------------------------------------------------------------------------
# interior Hoelder check


@dataclass
class HolderCheck:
    quotient: float
    bound_ratio: float
    alpha: float
    r: float


def holder_estimate_check(
    params: FracParams,
    u: GridFunction,
    f: ScalarField,
    r: float,
    alpha: float,
    ball_radius: float = 1.0,
) -> HolderCheck:
    """Max difference quotient |u(x)-u(y)|/|x-y|^alpha over node pairs in B_r,
    normalized by sup|u| on B_r plus sup|f| on B_1."""
    if not (0.0 < alpha < min(1.0, 2.0 * params.s)):
        raise ValueError("alpha must lie in (0, min(1, 2s))")
    if not (0.0 < r < ball_radius):
        raise ValueError("inner radius must lie in (0, ball_radius)")
    nodes = u.nodes()
    vals = u.values.reshape(-1)
    inside = np.sum(nodes * nodes, axis=-1) < r * r
    pts = nodes[inside]
    uv = vals[inside]
    if len(pts) < 2:
        raise ValueError("grid has fewer than two nodes inside B_r")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(len(pts), k=1)
    quotient = float(np.max(np.abs(uv[:, None] - uv[None, :])[iu] / dist[iu] ** alpha))
    sup_u = float(np.max(np.abs(uv)))
    ball_nodes = nodes[np.sum(nodes * nodes, axis=-1) < ball_radius**2]
    sup_f = float(np.max(np.abs(np.asarray(f(ball_nodes), dtype=float)))) if len(ball_nodes) else 0.0
    denom = sup_u + sup_f
    ratio = quotient / denom if denom > 0.0 else 0.0
    return HolderCheck(quotient=quotient, bound_ratio=ratio, alpha=alpha, r=r)
