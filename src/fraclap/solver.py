"""The Dirichlet solver on a ball via Green representation, the semilinear
Picard iterator on the half-space, and moving-plane diagnostics.

The Picard operator is a locally corrected Nystroem discretization: cell
midpoint weights away from the kernel diagonal plus the Duffy-pyramid Green
mass of each node's own cell.  All its coefficients are nonnegative, so the
discrete operator inherits the monotonicity of the continuous one.  The
half-space Green function is invariant under tangential translations, so
on uniform lateral axes the off-diagonal part is a kernel table over
(x1, y1, x' - y') of n1^2 prod(2 n_k - 1) values, applied by FFT over the
lateral axes; no M x M matrix is held.  The kernel is even in each lateral
offset and symmetric in (x1, y1), so the table is built from
n1 (n1 + 1)/2 prod n_k kernel values and mirrored.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import FracParams
from .kernels import Ball, HalfSpace, _green_from_psi, _radius
# ball_green_integral and exterior_poisson_integral are not called here, but stay
# names of this module: bench/fraclap_bench patches them on it to trace and lap
from .quadrature import (  # noqa: F401
    QuadratureSpec,
    _ball_green_batch,
    _exterior_poisson_batch,
    _finite,
    _grid_nodes,
    _misses,
    ball_green_integral,
    box_green_mass,
    exterior_poisson_integral,
    strip_mass,
)

__all__ = [
    "GridFunction",
    "SolveReport",
    "Nonlinearity",
    "PicardOperator",
    "MovingPlaneReport",
    "MonotonicityProfile",
    "solve_ball_dirichlet",
    "picard_semilinear",
    "moving_plane_check",
    "lambda0_estimate",
    "monotonicity_profile",
]


def _grid_axes(axes):
    """``axes`` as float arrays, each with at least two finite, strictly increasing nodes."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if any(len(a) < 2 for a in axes):
        raise ValueError("grid axes need at least two nodes")
    if not all(np.isfinite(a).all() for a in axes):
        raise ValueError("grid axes must be finite")
    if any(np.any(np.diff(a) <= 0.0) for a in axes):
        raise ValueError("grid axes must be strictly increasing")
    return axes


@dataclass
class GridFunction:
    """Scalar field sampled on a tensor grid, multilinearly interpolated.

    Each axis has at least two strictly increasing nodes.  Outside the grid
    hull ``eval`` returns ``exterior_field`` where one is stored, else 0
    (matching zero complementary data and box truncation).
    """

    domain: Ball | HalfSpace
    axes: tuple
    values: np.ndarray
    exterior_field: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.axes = _grid_axes(self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("values shape does not match grid axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def ndim(self):
        return len(self.axes)

    def nodes(self):
        """All grid nodes as an (M, N) array in C order."""
        return _grid_nodes(self.axes)

    def _interp(self, pts):
        # multilinear interpolation with coordinates clipped to the hull; a point
        # is inside the hull when clipping changed none of its coordinates
        inside = np.ones(pts.shape[:-1], dtype=bool)
        idx = []
        frac = []
        for k, a in enumerate(self.axes):
            c = np.clip(pts[..., k], a[0], a[-1])
            inside &= c == pts[..., k]
            i = np.clip(np.searchsorted(a, c, side="right") - 1, 0, len(a) - 2)
            idx.append(i)
            frac.append((c - a[i]) / (a[i + 1] - a[i]))
        out = np.zeros(pts.shape[:-1])
        for corner in range(2**self.ndim):
            weight = np.ones(pts.shape[:-1])
            index = []
            for k in range(self.ndim):
                bit = (corner >> k) & 1
                weight = weight * (frac[k] if bit else (1.0 - frac[k]))
                index.append(idx[k] + bit)
            out += weight * self.values[tuple(index)]
        return out, inside

    def eval(self, pts):
        """Evaluate at finite points of shape (N,) or (..., N), else
        ``ValueError``: multilinear inside the hull; outside it the exterior
        field, or 0 where none is stored."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != self.ndim:
            raise ValueError(f"points need a last axis of length {self.ndim}")
        _finite(pts)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out, inside = self._interp(pts)
        out = np.where(inside, out, 0.0)
        if self.exterior_field is not None and np.any(~inside):
            out[~inside] = self.exterior_field(pts[~inside])
        return float(out[0]) if scalar else out

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


@dataclass
class SolveReport:
    iterations: int
    residual: float
    verdict: str

    VERDICTS = ("converged-to-zero", "converged-nonzero", "diverged", "budget-exhausted")

    def __post_init__(self):
        if self.verdict not in self.VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class Nonlinearity:
    """Source nonlinearity t -> f(t).  The iteration needs f nonnegative and
    nondecreasing on [0, M], which ``validate`` samples, and an optional
    declared Lipschitz constant is checked against the sampled slopes."""

    func: object
    lipschitz_const: float | None = None

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=float))

    @classmethod
    def power(cls, q: float):
        if not q >= 1.0:
            raise ValueError("power nonlinearity needs q >= 1")
        return cls(func=lambda t: np.maximum(t, 0.0) ** q)

    @classmethod
    def zero(cls):
        return cls(func=lambda t: np.zeros_like(np.asarray(t, dtype=float)), lipschitz_const=0.0)

    def validate(self, M: float):
        ts = np.linspace(0.0, max(M, 1e-12), 257)
        fs = self(ts)
        if np.any(fs < 0.0):
            raise ValueError("nonlinearity takes negative values on [0, M]")
        if np.any(np.diff(fs) < -1e-12 * (1.0 + np.max(np.abs(fs)))):
            raise ValueError("nonlinearity decreases on [0, M]")
        if self.lipschitz_const is not None:
            slopes = np.abs(np.diff(fs) / np.diff(ts))
            if np.max(slopes) > self.lipschitz_const * (1.0 + 1e-9) + 1e-12:
                raise ValueError("sampled slope exceeds the declared Lipschitz constant")


# ---------------------------------------------------------------------------
# linear solves


def solve_ball_dirichlet(
    params: FracParams,
    R: float,
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    grid,
    spec: QuadratureSpec | None = None,
    node_errors: dict | None = None,
):
    """Green-Poisson representation on a tensor grid over B_R.

    v(x) = exterior Poisson integral of g plus ball Green integral of f at
    every node inside the ball, each integral one batched evaluation over
    all those nodes; nodes outside copy the exterior data.  Where an
    integral misses its tolerance (where ``exterior_poisson_integral`` or
    ``ball_green_integral`` would raise ``ToleranceNotMet`` for that node)
    the node keeps its estimate in the sum and lands in ``node_errors``
    (index -> (value, summed error of the integrals that missed)).  A
    radius that is not positive raises ``ValueError`` before any evaluation.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    R = _radius(R)
    axes = _grid_axes(grid)
    shape = tuple(len(a) for a in axes)
    pts = _grid_nodes(axes)
    inside = np.sum(pts * pts, axis=-1) < R * R
    flat = np.empty(len(pts))
    if not np.all(inside):
        flat[~inside] = g(pts[~inside])
    nodes = np.flatnonzero(inside)
    total, missed = np.zeros(len(nodes)), np.zeros(len(nodes))
    for batch, data in ((_exterior_poisson_batch, g), (_ball_green_batch, f)):
        value, err = batch(params, R, data, pts[nodes], spec)
        total += value
        missed += np.where(_misses(value, err, spec), err, 0.0)
    flat[nodes] = total
    if node_errors is not None:
        for k in np.flatnonzero(missed):
            node_errors[np.unravel_index(nodes[k], shape)] = (total[k], missed[k])
    return GridFunction(
        domain=Ball(R),
        axes=axes,
        values=flat.reshape(shape),
        exterior_field=g,
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
    in place of M^2.  G is even in each d'_k and symmetric in (x1, y1), so
    the build evaluates only the n1 (n1 + 1)/2 prod n_k values at d'_k >= 0
    and i1 <= j1 and mirrors the rest, bit-identical to evaluating them all.
    ``apply`` multiplies by the weights, takes an FFT over the lateral axes
    zero-padded to 2 n_k (so the circular convolution is the linear one),
    contracts with the transformed table over j1 (one n1 x n1 matvec per
    frequency), transforms back, crops and adds the diagonal; with N = 1
    the table is the n1 x n1 matrix and ``apply`` is a matvec.  Axes that
    are not strictly increasing, and non-uniform lateral axes, raise
    ``ValueError`` before any kernel value is computed.  ``matrix`` is
    a dense M x M view assembled from the table on each access; ``apply``
    does not use it.

    Diagonal: the Green mass of the node's own cell by ``box_green_mass``
    (Duffy pyramids with their apex at the node, which lies in the closed
    cell), computed once per distinct cell shape and height, all distinct
    cells in one batched call; each mass is bit-identical to that cell's
    one-box call.  Every coefficient is nonnegative, so the operator is
    monotone nodewise.
    """

    def __init__(self, params: FracParams, axes):
        self.params = params
        self.axes = _grid_axes(axes)
        if len(self.axes) != params.N:
            raise ValueError("grid dimension does not match params")
        for k, a in enumerate(self.axes[1:], start=1):
            if not np.allclose(np.diff(a), a[1] - a[0], rtol=1e-12, atol=0):
                raise ValueError(f"lateral axis {k} must be uniformly spaced")
        self.shape = tuple(len(a) for a in self.axes)
        self.nodes = _grid_nodes(self.axes)
        if np.any(self.nodes[:, 0] <= 0.0):
            raise ValueError("grid nodes must lie strictly inside the half-space")
        self.weights = np.prod(_grid_nodes([_axis_weights(a) for a in self.axes]), axis=-1)
        self._table, self._table_hat = self._build_matrix()
        self.diag_mass = self._build_diagonal()
        lo = np.array([a[0] for a in self.axes])
        hi = np.array([a[-1] for a in self.axes])
        self.box = (lo, hi)

    def _build_matrix(self):
        """The kernel table T[i1, j1, d'] and its lateral transform.

        Offset index m_k = 0 .. 2 n_k - 2 stands for x_k - y_k = (m_k - n_k + 1) h_k.
        The kernel is evaluated at offsets d'_k >= 0 and pairs i1 <= j1 only
        and mirrored: (-d)^2 = d^2 and (4a) b = (4b) a hold exactly in
        floating point, so the table is bit-identical to evaluating every
        entry.  The benchmark's tracer (``bench/fraclap_bench/tracing.py``)
        times this method, ``_build_diagonal`` and ``apply`` by name.
        """
        a1, lateral = self.axes[0], self.shape[1:]
        ones = (1,) * len(lateral)
        r2 = np.zeros(lateral)
        for k, (a, n) in enumerate(zip(self.axes[1:], lateral)):
            d = np.arange(n) * ((a[-1] - a[0]) / (n - 1))
            r2 = r2 + (d * d).reshape(ones[:k] + (-1,) + ones[k + 1 :])
        i, j = np.triu_indices(len(a1))
        x1 = a1[i].reshape((-1,) + ones)
        y1 = a1[j].reshape((-1,) + ones)
        d2 = (x1 - y1) ** 2 + r2
        # zero on the diagonal d2 = 0, whose mass is diag_mass
        half = _green_from_psi(self.params, d2, np.broadcast_to(4.0 * x1 * y1, d2.shape), 1.0)
        table = np.empty((len(a1), len(a1)) + tuple(2 * n - 1 for n in lateral))
        corner = table[(slice(None), slice(None)) + tuple(slice(n - 1, None) for n in lateral)]  # d'_k >= 0
        corner[i, j] = half
        corner[j, i] = half
        for k, n in enumerate(lateral, start=2):
            lo = (slice(None),) * k
            table[lo + (slice(n - 1),)] = table[lo + (slice(2 * n - 2, n - 1, -1),)]
        if not lateral:
            return table, None
        # zero-padded to 2 n_k, the output node i_k reads the product at
        # i_k + n_k - 1; frequencies first, so apply is one batched matmul
        table_hat = np.fft.rfftn(np.moveaxis(table, (0, 1), (-2, -1)), s=[2 * n for n in lateral],
                                 axes=tuple(range(len(lateral))))
        return table, np.ascontiguousarray(table_hat)

    def _build_diagonal(self):
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_refinements=20)
        lo, hi = (_grid_nodes(b) for b in zip(*(_cell_bounds(a) for a in self.axes)))
        x = self.nodes
        keys = np.round(np.column_stack([x[:, :1], lo - x, hi - x]), 12)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        return box_green_mass(self.params, x[first], lo[first], hi[first], spec)[inverse.reshape(-1)]

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
    operator: PicardOperator | None = None,
):
    """Iterate u_{k+1}(x) = int_box G(x,y) f(u_k(y)) dy on u0's grid, the box
    being the grid hull, with ``operator`` or a ``PicardOperator`` built on
    u0's axes.  A given ``operator`` must have been built for ``params`` on
    u0's axes, else ``ValueError``.

    Stops when the residual drops below 1e-6 (1 + sup u_k) (converged;
    "converged-to-zero" when the final sup is below 1e-6), the sup norm
    exceeds 1e3 (diverged), or after 200 iterations (budget-exhausted).
    The dropped exterior tail is nonnegative, so zero verdicts are
    conservative.  ``f.validate`` rejects an f that is negative or
    decreasing on [0, max(2 sup u0, 1)].
    """
    if np.any(u0.values < 0.0):
        raise ValueError("Picard iteration needs a nonnegative start")
    f.validate(max(u0.sup_norm() * 2.0, 1.0))
    op = operator or PicardOperator(params, u0.axes)
    if op.params != params or len(op.axes) != u0.ndim or not all(map(np.array_equal, op.axes, u0.axes)):
        raise ValueError("operator was not built for params on u0's axes")
    u = u0.values.copy()
    residual = np.inf
    verdict = "budget-exhausted"
    iterations = 0
    for _ in range(200):
        new = op.apply(f(u))
        residual = float(np.max(np.abs(new - u)))
        u = new
        sup = float(np.max(np.abs(u)))
        iterations += 1
        if sup > 1e3:
            verdict = "diverged"
            break
        if residual < 1e-6 * (1.0 + sup):
            verdict = "converged-to-zero" if sup < 1e-6 else "converged-nonzero"
            break
    gf = GridFunction(domain=HalfSpace(), axes=u0.axes, values=u)
    return gf, SolveReport(iterations=iterations, residual=residual, verdict=verdict)


# ---------------------------------------------------------------------------
# moving-plane diagnostics


@dataclass
class MovingPlaneReport:
    lam: float
    tol: float
    violations: list

    @property
    def passed(self):
        return len(self.violations) == 0


def moving_plane_check(u: GridFunction, lam: float):
    """List grid nodes x in the slab {0 < x1 < lam} with u(x) > u(x^lam) + tol,
    tol = 1e-9 + 1e-6 sup |u|.

    The reflection x^lam = (2 lam - x1, x') moves x1 only, so the slab is a
    set of x1 rows and u(x^lam) is the linear interpolation of u along the
    x1 axis at 2 lam - x1, clamped to the axis ends (reflected points past
    the grid hull take the value of its last x1 row).  Raises ``ValueError``
    unless lam lies strictly inside the x1 range of the grid.
    """
    a = u.axes[0]
    if not a[0] < lam < a[-1]:
        raise ValueError("reflection level lam must lie inside the grid's x1 range")
    tol = 1e-9 + 1e-6 * u.sup_norm()
    rows = np.flatnonzero((a > 0.0) & (a < lam))
    c = np.clip(2.0 * lam - a[rows], a[0], a[-1])
    i = np.clip(np.searchsorted(a, c, side="right") - 1, 0, len(a) - 2)
    f = ((c - a[i]) / (a[i + 1] - a[i])).reshape((-1,) + (1,) * (u.ndim - 1))
    deficit = u.values[rows] - ((1.0 - f) * u.values[i] + f * u.values[i + 1])
    violations = [
        ((a[rows[k]],) + tuple(ax[j] for ax, j in zip(u.axes[1:], rest)), float(deficit[(k, *rest)]))
        for k, *rest in np.argwhere(deficit > tol)
    ]
    return MovingPlaneReport(lam=lam, tol=tol, violations=violations)


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


def _vdc_sequence(n):
    """Base-2 van der Corput low-discrepancy points in (0, 1)."""
    out = np.empty(n)
    for i in range(n):
        v, denom, k = 0.0, 1.0, i + 1
        while k:
            k, rem = divmod(k, 2)
            denom *= 2
            v += rem / denom
        out[i] = v
    return out


def lambda0_estimate(params: FracParams, c_lip: float, n_samples: int = 64):
    """Largest slab width lambda0 whose doubled-slab Green mass
    sup_x int_{0 < y1 < 2 lambda0} G(x, y) dy is at most 0.9 / c_lip, i.e.
    strictly below 1/c_lip with a 10% margin.

    The mass is exactly homogeneous, strip_mass(c lam, c x) =
    c^(2s) strip_mass(lam, x), and it is the half-line mass of
    ``FracParams(1, s)`` in every dimension, so lambda0 depends on s and
    c_lip only.  With S the sup of strip_mass(2, (f, 0, ...)) over n_samples
    low-discrepancy fractions f in (0, 1), lambda0 = (0.9 / (c_lip S))^(1/(2s)):
    n_samples ``strip_mass`` calls at rel_tol 1e-5, abs_tol 1e-8, no
    bracketing and no cap on lambda0.
    """
    if not 0.0 < c_lip < np.inf:
        raise ValueError("Lipschitz constant must be positive and finite")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8, max_refinements=10)
    xs = np.zeros((n_samples, params.N))
    xs[:, 0] = _vdc_sequence(n_samples)
    sup = max(strip_mass(params, 2.0, x, spec) for x in xs)
    return (0.9 / (c_lip * sup)) ** (1.0 / (2.0 * params.s))
