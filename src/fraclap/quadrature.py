"""Singular-integral quadrature: the pointwise fractional Laplacian, ball and
half-space Green integrals, exterior Poisson integrals and strip masses.

One radial engine, ``_adaptive_panels``, integrates every ray family: at
each angular level of a sphere rule it takes all (point, direction, radial
panel) triples of a block of evaluation points in one array, a 16-point
Gauss rule per panel checked against the 8-point one.  Every point has its
own tolerance (``spec.tolerance`` of its own value) and its own
refinement: its worst panels are bisected only while its own summed error
exceeds that tolerance, and its sums run over its own panels in the order
a call for it alone would hold them, so a point's value and error do not
depend on the points batched with it.  A row's end panels carry
Gauss-Jacobi weights from the one rule table ``core._gj``.  The polar-ray
integrals (``_ray_integral``: the ball integral and the strip mass) start
every ray at x, with the weight (r - a)^(2s-1) for the |x-y|^(2s-N)
singularity there and (t_exit - r)^beta where the ray leaves the domain
(beta = s at the sphere and at y1 = 0).
``exterior_poisson_integral`` maps rho in [R, inf) to sigma = 1 - (R/rho)^2
in [0, 1) with the weights sigma^(-s) and (1 - sigma)^(s-1), so the whole
exterior is integrated without a truncation radius; its row 0 is the peak
of the kernel |x - rho w|^(-N), whose angular mass is known in closed
form, and the other rows sum only g(rho w) - g(rho x/|x|) over directions.
``frac_laplacian_point`` runs the engine on the symmetrized second
difference, with a Taylor stub at 0 and an exact-or-bounded tail.  Levels
double until two agree (``_angular_converge``), point by point: a point
that converges, or whose level error stalls above 100 x tolerance, retires
while the others go on, and a level runs its live points in blocks of
about ``_RAY_CHUNK`` panels.  A point's error is its final level's panel
error plus its last level difference.  The box engine
``_box_integral`` serves every half-space box (``box_green_mass``,
``halfspace_green_integral``): Duffy pyramids with their apex at the box
point nearest x, tiled and bisected against GL(n)/GL(2n) estimates.
``strip_mass`` is [0, lam] of the one-dimensional half-line for every N.

Every integrator returns a value with an error within its contract or
raises ``ToleranceNotMet`` carrying the estimate and the error.  The panel
engine never raises; ``_checked`` is its one raise site, for the ray,
exterior and fractional-Laplacian integrals (and ``verify``'s reductions)
when the error exceeds 100 x tolerance.  The batch error contract: the
ball and exterior integrals have private batch forms
(``_ball_green_batch``, ``_exterior_poisson_batch``) that return arrays of
values and errors and raise for no missed tolerance; the public functions
are their one-point calls through ``_checked``, ``solve_ball_dirichlet``
flags the nodes ``_misses`` marks, and ``poisson_extension_field`` raises
what the one-point call of its first such point would.  The box engine
raises when its summed estimate misses the tolerance after
``max_refinements`` passes.  Batched evaluations take a bounded number of
nodes at a time (``_RAY_CHUNK``, ``_TILE_CHUNK``).  Field callables must
accept ``(..., N)`` arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    FracParams,
    _gj,
    _gl,
    green_constant_k,
    normalization_a,
    poisson_constant_C,
)
from .kernels import _green_from_psi, green_halfspace


__all__ = [
    "QuadratureSpec",
    "ScalarField",
    "ToleranceNotMet",
    "constant_field",
    "getoor_field",
    "poisson_extension_field",
    "frac_laplacian_point",
    "ball_green_integral",
    "exterior_poisson_integral",
    "halfspace_green_integral",
    "box_green_mass",
    "strip_mass",
]

_SMOOTHNESS = ("C2", "continuous")


class ToleranceNotMet(ArithmeticError):
    """Requested tolerance could not be reached; carries the best estimate."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_refinements: int = 30

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")

    def tolerance(self, scale=1.0):
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(scale))


@dataclass(frozen=True)
class ScalarField:
    """Scalar density with the metadata integrators need for truncation.

    ``func`` must be vectorized over points of shape (..., N).  ``bound``
    and ``decay_exponent`` encode |f(y)| <= bound * (1+|y|)^(-decay);
    ``support_radius`` marks exact vanishing outside a centered ball.
    """

    func: Callable
    smoothness: str = "continuous"
    support_radius: float | None = None
    decay_exponent: float = 0.0
    bound: float | None = None

    def __post_init__(self):
        if self.smoothness not in _SMOOTHNESS:
            raise ValueError(f"unknown smoothness tag {self.smoothness!r}")

    def __call__(self, pts):
        return self.func(np.asarray(pts, dtype=float))


def constant_field(value: float) -> ScalarField:
    value = float(value)
    return ScalarField(
        func=lambda pts: np.full(np.asarray(pts).shape[:-1], value),
        smoothness="C2",
        bound=abs(value),
    )


# ---------------------------------------------------------------------------
# panel engines

_RAY_CHUNK = 1 << 12  # integrand nodes per call of a ray rule, initial panels per block of points


def _adaptive_panels(fvec, edges, spec: QuadratureSpec, weights=(1.0,), ends=(0.0, 0.0), point=None):
    """Adaptive Gauss panels on rays, for one or more evaluation points.

    ``edges`` holds one row of panel edges per ray (a 1-D array is one
    ray); rows of different lengths come as flat panels ``(a, b, row)``,
    each row's panels adjacent and in order.  ``weights`` are the rows'
    angular weights and ``point`` the index of each row's evaluation point
    (all rows one point by default).
    ``fvec(r, d)`` evaluates the integrand at radial nodes ``r`` on the
    rows with indices ``d`` (1-D arrays of at most ``_RAY_CHUNK`` nodes,
    mixing points).  ``ends = (alpha, beta)``, scalars or one value per
    row, are the integrand's endpoint exponents: a row's first panel
    [a, b] integrates with the Gauss-Jacobi rule for the weight
    (r - a)^alpha and its last with the one for (b - r)^beta, the weight
    divided out (``_gj``), so every panel is a plain sum of f(r_i) w_i.
    Each panel's 16-point value and |16-point - 8-point| error are scaled
    by its row's weight.  Every point p has its own tolerance
    ``spec.tolerance(value_p)``: while its summed error err_p exceeds it,
    a pass bisects the point's panels at or above 0.25 err_p / n_p (n_p
    panels; the worst one always qualifies), and a point that meets it
    keeps its panels.  A bisected end panel passes its weight to the
    child that holds that end, and the other child is a Gauss-Legendre
    panel.  A point's panels keep their order whatever the other points
    do, so its value and decisions are those of a call for it alone.
    Returns arrays (values, errors), one entry per point, once every point
    meets its tolerance or after ``spec.max_refinements`` passes; it never
    raises, and the caller's ``_checked`` judges each error.
    """
    if isinstance(edges, tuple):
        a, b, d = edges
    else:
        edges = np.atleast_2d(np.asarray(edges, dtype=float))
        a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        d = np.repeat(np.arange(len(edges)), edges.shape[1] - 1)
    rows = int(d[-1]) + 1
    new_row = d[1:] != d[:-1]
    first, last = np.concatenate(([True], new_row)), np.concatenate((new_row, [True]))
    weights = np.asarray(weights, dtype=float)
    point = np.zeros(rows, dtype=int) if point is None else np.asarray(point)
    n_points = int(point.max()) + 1
    # a panel's rule indexes (0, *alphas) at its left end and (0, *betas) at its right
    (alphas, ia), (betas, ib) = (
        np.unique(np.broadcast_to(np.asarray(e, dtype=float), (rows,)), return_inverse=True) for e in ends
    )
    nb = len(betas) + 1
    rule = np.where(first, ia[d] + 1, 0) * nb + np.where(last, ib[d] + 1, 0)
    n_low, n_high = 8, 16
    low, high = (
        [_gj(n, ka, kb) for ka in (0.0, *alphas) for kb in (0.0, *betas)] for n in (n_low, n_high)
    )
    u = np.array([np.concatenate([lo[0], hi[0]]) for lo, hi in zip(low, high)])
    w_low = np.array([lo[1] for lo in low])
    w_high = np.array([hi[1] for hi in high])
    step = max(1, _RAY_CHUNK // (n_low + n_high))

    def _eval(a_arr, b_arr, d_arr, r_arr):
        vals, errs = [np.zeros(0)], [np.zeros(0)]
        for i in range(0, len(a_arr), step):
            pa, pb, pd, pr = (v[i : i + step] for v in (a_arr, b_arr, d_arr, r_arr))
            half = 0.5 * (pb - pa)
            # np.take: row gathers of small 2-D tables, much faster than fancy indexing
            nodes = (0.5 * (pa + pb))[:, None] + half[:, None] * np.take(u, pr, axis=0)
            f = fvec(nodes.ravel(), np.repeat(pd, n_low + n_high)).reshape(nodes.shape)
            vl = np.sum(f[:, :n_low] * np.take(w_low, pr, axis=0), axis=-1)
            vh = np.sum(f[:, n_low:] * np.take(w_high, pr, axis=0), axis=-1)
            w = weights[pd] * half
            vals.append(vh * w)
            errs.append(np.abs(vh - vl) * w)
        return np.concatenate(vals), np.concatenate(errs)

    def grouped(panels):
        # by point; the stable sort keeps each point's panels in the order a call for it alone holds them
        if n_points == 1:
            return panels
        order = np.argsort(point[panels[2]], kind="stable")
        return tuple(v[order] for v in panels)

    panels = grouped((a, b, d, rule, *_eval(a, b, d, rule)))
    total, err = np.zeros(n_points), np.zeros(n_points)
    changed = range(n_points)
    for k in range(spec.max_refinements + 1):
        # each point's np.sum over its own panels, as in a call for it alone; only split points change
        bounds = np.searchsorted(point[panels[2]], np.arange(n_points + 1))
        ends_at = bounds.tolist()
        for p in changed:
            i, j = ends_at[p], ends_at[p + 1]
            total[p], err[p] = panels[4][i:j].sum(), panels[5][i:j].sum()
        live = ~(err <= spec.tolerance(total))
        if k == spec.max_refinements or not np.any(live):
            break
        # bisect every panel holding more than its share of its point's error
        count = np.diff(bounds)
        share = np.where(live, np.maximum(0.25 * err / count, 1e-300), np.inf)
        a, b, d, rule, vals, errs = panels
        split = errs >= np.repeat(share, count)
        sa, sb, sd, sr = a[split], b[split], d[split], rule[split]
        smid = 0.5 * (sa + sb)
        # the left child keeps the left end's weight, the right child the right end's
        children = (
            np.concatenate([sa, smid]),
            np.concatenate([smid, sb]),
            np.concatenate([sd, sd]),
            np.concatenate([sr - sr % nb, sr % nb]),
        )
        children += _eval(*children)
        panels = grouped(tuple(np.concatenate([old[~split], new]) for old, new in zip(panels, children)))
        changed = np.flatnonzero(live).tolist()
    return total, err


def _graded_edges(depth, n_coarse=6):
    """Edges on [0, 1]: halvings toward 0 down to 2^-depth, and the outer half
    in ``n_coarse`` even panels."""
    return np.concatenate([[0.0], 2.0 ** -np.arange(depth, 1, -1.0), np.linspace(0.5, 1.0, n_coarse + 1)])


def _end_rule_at_x(N, s, spec: QuadratureSpec):
    """(alpha, depth): the weight exponent of a ray's end panel at x and the
    number of halvings toward x that panel needs.

    r^(N-1) G = (k/2) r^(2s-1) I(psi) with psi ~ r^-2, and I(psi) tends to
    B(s, N/2 - s) plus powers of 1/psi, so for N > 2s the weight r^(2s-1)
    is exact and the first term its rule misses is r^(N-1) =
    r^(2s-1) r^(N-2s).  For N = 1 = 2s the kernel is -log(r)/pi plus a
    smooth part and for N = 1 < 2s a smooth part plus c r^(2s-1); there the
    end rule is Gauss-Legendre and the term is log r or r^(2s-1).  The
    rule's error estimate |GJ16 - GJ8| on that term over [0, h] is its
    value on [0, 1] times h^p; the depth brings it below the target.
    """
    if N > 2.0 * s:
        alpha, p, term = 2.0 * s - 1.0, float(N), lambda t: t ** (N - 1.0)
    elif N == 2.0 * s:
        alpha, p, term = 0.0, 1.0, np.log
    else:
        alpha, p, term = 0.0, 2.0 * s, lambda t: t ** (2.0 * s - 1.0)
    (u8, w8), (u16, w16) = _gj(8, alpha), _gj(16, alpha)
    est = 0.5 * abs(w16 @ term(0.5 + 0.5 * u16) - w8 @ term(0.5 + 0.5 * u8))
    target = min(max(min(spec.rel_tol, spec.abs_tol) * 1e-2, 1e-13), 1e-4)
    return alpha, max(1, math.ceil(math.log2(max(est / target, 1.0)) / p))


# ---------------------------------------------------------------------------
# sphere rules

def sphere_surface(N):
    from scipy import special as _spec
    return 2.0 * math.pi ** (N / 2.0) / _spec.gamma(N / 2.0)


def _sphere_rule(N, m, antipodal=False):
    """Directions and weights integrating over the full unit sphere S^(N-1).

    With ``antipodal=True`` only representatives of each +/- pair are
    returned, weighted doubly; valid for even integrands.
    """
    if N == 1:
        if antipodal:
            return np.array([[1.0]]), np.array([2.0])
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if N == 2:
        if antipodal:
            theta = (np.arange(m) + 0.5) * math.pi / m
            w = np.full(m, 2.0 * math.pi / m)
        else:
            theta = (np.arange(2 * m) + 0.5) * math.pi / m
            w = np.full(2 * m, math.pi / m)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), w
    if N == 3:
        mu, glw = _gl(m)
        phi = (np.arange(2 * m) + 0.5) * math.pi / m
        mu_g, phi_g = np.meshgrid(mu, phi, indexing="ij")
        sin_t = np.sqrt(1.0 - mu_g**2)
        dirs = np.stack([mu_g, sin_t * np.cos(phi_g), sin_t * np.sin(phi_g)], axis=-1)
        w = np.broadcast_to(glw[:, None] * (math.pi / m), mu_g.shape)
        dirs = dirs.reshape(-1, 3)
        w = w.reshape(-1).copy()
        if antipodal:
            keep = dirs[:, 0] > 0
            # pair (mu, phi) <-> (-mu, phi+pi); GL nodes are symmetric in mu
            dirs, w = dirs[keep], 2.0 * w[keep]
        return dirs, w
    raise ValueError("volume quadrature supports N <= 3 at desk scale")


# ---------------------------------------------------------------------------
# pointwise fractional Laplacian


def frac_laplacian_point(params: FracParams, u: ScalarField, x, spec: QuadratureSpec | None = None):
    """(a/2) * integral of (2u(x)-u(x+z)-u(x-z)) |z|^(-N-2s) dz.

    The symmetrized second difference D2(r, w) removes the principal value
    for C^2 fields and is even in the direction w, so each angular level
    runs the antipodal sphere rule.  On (0, r0) every direction gets a
    Taylor-fitted stub (second differences drown in rounding noise there);
    on [r0, r_far] one ``_adaptive_panels`` call integrates (a/2) D2
    r^(-1-2s) over all (direction, geometric panel) pairs, panel bisection
    resolving any kink sphere of the field; beyond r_far the u(x) term is
    exact and the rest is bounded from the support/decay descriptor.
    Levels double until two agree (``_angular_converge``).  The decay
    bound first sets r_far for a target relative to |u(x)| + 1; when the
    bound then exceeds a tenth of the tolerance of the result (which can be
    far smaller than u(x)), r_far is set for that and the levels run again.

    Raises ``ValueError`` for a field not tagged C2, or one with neither a
    support radius nor a decay exponent and bound.  Raises
    ``ToleranceNotMet``, carrying the estimate and the error, when the
    error (the final level's panel error plus the last level difference
    plus the tail bound) exceeds 100 x tolerance.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)
    if u.smoothness != "C2":
        raise ValueError("frac_laplacian_point requires a C2-tagged field")
    x = np.asarray(x, dtype=float)
    N, s = params.N, params.s
    half_a = 0.5 * normalization_a(params)
    ux = float(u(x))

    if u.support_radius is not None:
        r_far = float(u.support_radius) + float(np.linalg.norm(x)) + 1e-12
        tail_err = 0.0
    else:
        p = u.decay_exponent
        if p <= 0.0 or u.bound is None:
            raise ValueError("unbounded field needs a decay exponent and bound")

        def tail_radius(target):
            r = (2.0 * u.bound / (target * (p + 2.0 * s))) ** (1.0 / (p + 2.0 * s))
            return max(r, 10.0)

        def tail_bound(r):
            return 2.0 * u.bound * r ** (-(p + 2.0 * s)) / (p + 2.0 * s)

        r_far = tail_radius(max(spec.abs_tol, spec.rel_tol * (abs(ux) + 1.0)) * 0.1)
        tail_err = tail_bound(r_far)

    r0 = 1e-3
    shell = half_a * sphere_surface(N)  # weight of a direction-independent radial term

    def run_level(m, r_far):
        dirs, wts = _sphere_rule(N, m, antipodal=True)
        wts = half_a * wts
        edges = np.geomspace(r0, r_far, max(1, math.ceil(math.log(r_far / r0, 8.0))) + 1)
        tail = 2.0 * ux * r_far ** (-2.0 * s) / (2.0 * s)

        def d2(r, d):
            step = r[:, None] * dirs[d]
            return 2.0 * ux - u(np.concatenate([x + step, x - step])).reshape(2, -1).sum(axis=0)

        # Taylor stub: D2(r)/r^2 ~ c1 + c2 r^2 near 0
        every = np.arange(len(dirs))
        f1 = d2(np.full(len(dirs), r0), every) / r0**2
        f2 = d2(np.full(len(dirs), 0.5 * r0), every) / (0.5 * r0) ** 2
        c2 = (f1 - f2) / (0.75 * r0**2)
        c1 = f1 - c2 * r0**2
        stub = c1 * r0 ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) + c2 * r0 ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s)
        mid, err = _adaptive_panels(
            lambda r, d: d2(r, d) * r ** (-1.0 - 2.0 * s), np.tile(edges, (len(dirs), 1)), spec, wts
        )
        return float(wts @ stub) + shell * tail + mid, err

    def levels(r_far):
        # one point, so each level is one block of one call
        value, err = _angular_converge(
            lambda m: (1, lambda _: run_level(m, r_far)), spec, 4 if N == 2 else 2, 5 if N > 1 else 0
        )
        return float(value[0]), float(err[0])

    value, err = levels(r_far)
    if shell * tail_err > 0.1 * spec.tolerance(value):
        # the tail was cut for |u(x)| + 1; cut it again for the result itself
        r_far = tail_radius(0.1 * spec.tolerance(value) / shell)
        tail_err = tail_bound(r_far)
        value, err = levels(r_far)
    return _checked(value, err + shell * tail_err, spec, "fractional Laplacian")


def getoor_field(params: FracParams) -> ScalarField:
    """(1 - |x|^2)_+^s, whose fractional Laplacian is constant in the unit ball."""
    s = params.s

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return np.maximum(1.0 - r2, 0.0) ** s

    return ScalarField(func=f, smoothness="C2", support_radius=1.0, bound=1.0)


# ---------------------------------------------------------------------------
# polar-ray engine and the ball Green integral


def _angular_converge(level, spec, start, max_doublings, n_points=1):
    """Run the points 0 .. n_points-1 at doubling angular resolutions m.

    ``level(m)`` sets up a level and returns (panels, run): the number of
    initial panels per point and ``run(pts) -> (values, errors)`` for the
    points with indices ``pts``.  Each point runs its own level sequence:
    it retires once two of its levels agree to 10 x its tolerance, or once
    a doubled level's own error exceeds 100 x its tolerance (its panels
    stalled; a finer level would not mend that), and the points still live
    go on to the next level.  A level takes its live points in blocks of
    about ``_RAY_CHUNK`` panels, at least one point per block, so the
    engine's state is bounded whatever the number of points.

    Returns arrays (values, errors), one entry per point: the point's last
    value and its error, the last level's own error plus its difference
    from the level before.  Never raises: a one-point caller hands its
    value to ``_checked``, and a batch caller marks the points ``_misses``
    finds (the ones ``_checked`` would raise for).
    """
    value, err, diff = np.zeros(n_points), np.zeros(n_points), np.zeros(n_points)
    live = np.arange(n_points)
    for k in range(max_doublings + 1):
        if not len(live):
            break
        panels, run = level(start * 2**k)
        block = max(1, _RAY_CHUNK // panels)
        parts = [run(live[i : i + block]) for i in range(0, len(live), block)]
        new, new_err = (np.concatenate(part) for part in zip(*parts))
        if k:
            diff[live] = np.abs(new - value[live])
            tol = spec.tolerance(new)
            done = (diff[live] <= 10.0 * tol) | (new_err > 100.0 * tol)
        value[live], err[live] = new, new_err
        if k:
            live = live[~done]
    return value, err + diff


def _misses(value, err, spec):
    """Where ``err`` exceeds 100 x tolerance: the values ``_checked`` raises for."""
    return err > 100.0 * spec.tolerance(value)


def _checked(value, err, spec, what):
    """``value``, unless ``err`` exceeds 100 x tolerance: then ``ToleranceNotMet``.

    The one raise site of the panel integrals (ray, exterior, fractional
    Laplacian and the ``verify`` reductions); batch forms return arrays of
    values and errors, and their one-point callers come here.
    """
    value, err = float(value), float(err)
    if _misses(value, err, spec):
        raise ToleranceNotMet(f"{what} error {err:.2e} exceeds tolerance", estimate=value, error=err)
    return value


def _ray_integral(params, rays, spec, n_points=1):
    """int over directions w and r in [0, t_exit(w)] of integrand(r, w) r^(N-1) dr dw,
    for each of ``n_points`` points.

    The polar-ray engine; every ray starts at its point.  ``rays(dirs,
    pts)`` sets up the rays of the points with indices ``pts`` along the
    directions ``dirs``: it returns each ray's exit distance t_exit, shape
    (len(pts), len(dirs)), the exponent beta (scalar or of that shape) of
    the integrand's (t_exit - r)^beta layer there, and ``integrand(r, d)``,
    which evaluates at nodes r on the rays with flat indices
    d = i len(dirs) + j (point pts[i], direction dirs[j]).  Panels are
    halved toward the point, the first weighted by r^alpha
    (``_end_rule_at_x``) and the last by (t_exit - r)^beta; one
    ``_adaptive_panels`` call takes all (point, direction, panel) triples
    of an angular level and a block of points.  Levels double from m = 8 to
    m = 128; N = 1 runs one level, its two-point rule being exact.  Returns
    arrays (values, errors): each point's final level's summed panel error
    plus its difference from the level before.
    """
    N = params.N
    alpha, depth = _end_rule_at_x(N, params.s, spec)
    graded = _graded_edges(depth)

    def level(m):
        dirs, wts = _sphere_rule(N, m)

        def run(pts):
            t_exit, beta, integrand = rays(dirs, pts)
            return _adaptive_panels(
                lambda r, d: integrand(r, d) * r ** (N - 1.0),
                (t_exit[..., None] * graded).reshape(-1, len(graded)),
                spec,
                np.tile(wts, len(pts)),
                ends=(alpha, np.ravel(beta)),
                point=np.repeat(np.arange(len(pts)), len(dirs)),
            )

        return len(dirs) * (len(graded) - 1), run

    return _angular_converge(level, spec, 8, 4 if N > 1 else 0, n_points)


def _inside(params, R, xs):
    """Points (n, N) and their squared norms; ``ValueError`` unless all lie inside B_R."""
    xs = np.asarray(xs, dtype=float).reshape(-1, params.N)
    x2 = np.sum(xs * xs, axis=-1)
    if np.any(x2 >= R * R):
        raise ValueError("evaluation point must lie inside the ball")
    return xs, x2


def _ball_green_batch(params, R, f, xs, spec):
    """(values, errors) of ``ball_green_integral`` at every point of ``xs`` (n, N)."""
    xs, x2 = _inside(params, R, xs)
    h = R * R - x2

    def rays(dirs, pts):
        # t_exit and -t_neg of r^2 + 2 c r - h, c = x.w, each without cancellation
        c, hp = np.sum(xs[pts][:, None, :] * dirs, axis=-1), h[pts][:, None]
        q = np.sqrt(c * c + hp) + np.abs(c)
        t_exit, t_back = np.where(c > 0.0, hp / q, q), np.where(c > 0.0, q, hp / q)
        x = np.repeat(xs[pts], len(dirs), axis=0)
        omega = np.tile(dirs, (len(pts), 1))
        hr, te, tb = np.repeat(h[pts], len(dirs)), t_exit.ravel(), t_back.ravel()

        def integrand(r, d):
            live = (r < te[d]) & (r > 0.0)
            r2 = np.where(live, r * r, 1.0)
            psi = np.where(live, hr[d] * (te[d] - r) * (r + tb[d]) / (R * R * r2), 0.0)
            y = np.take(x, d, axis=0) + r[:, None] * np.take(omega, d, axis=0)
            return np.where(live, _green_from_psi(params, r2, psi), 0.0) * f(y)

        return t_exit, params.s, integrand

    return _ray_integral(params, rays, spec, len(xs))


def ball_green_integral(
    params: FracParams, R: float, f: ScalarField, x, spec: QuadratureSpec | None = None
):
    """int_{B_R} G_R(x, y) f(y) dy for x inside B_R.

    Polar rays around x on the ray engine (``_ray_integral``).  With
    c = x.w and h = R^2 - |x|^2, the ray x + r w leaves the ball at the
    root t_exit of r^2 + 2 c r - h, and R^2 - |x + r w|^2 = (t_exit - r)
    (r - t_neg) in terms of both roots, so psi is formed without
    cancellation.  The |x-y|^(2s-N) singularity at x is the weight of the
    first panel of each ray; at the sphere I(psi) is psi^s times an
    analytic function, so the last panel carries the weight
    (t_exit - r)^s.  Returns a value whose error (the final level's summed
    panel error plus the last angular level difference) is within
    100 x tolerance, or raises ``ToleranceNotMet`` carrying the estimate
    and the error.
    """
    spec = spec or QuadratureSpec()
    value, err = _ball_green_batch(params, R, f, x, spec)
    return _checked(value[0], err[0], spec, "ball Green integral")


# ---------------------------------------------------------------------------
# exterior Poisson integral


def _exterior_poisson_batch(params, R, g, xs, spec):
    """(values, errors) of ``exterior_poisson_integral`` at every point of ``xs`` (n, N).

    A point's rows are its axis row and the directions of the level.  Its
    sigma edges depend on its distance to the sphere, so the rows of a
    block go to the engine as flat panels, read from one table of every
    point's edges.
    """
    xs, x2 = _inside(params, R, xs)
    if g.bound is None:
        raise ValueError("exterior data needs a bound (weighted integrability tag)")
    N, s = params.N, params.s
    norm = np.sqrt(x2)
    axis = np.tile(np.eye(N)[0], (len(xs), 1))
    off = x2 > 0.0
    axis[off] = xs[off] / norm[off, None]
    # edges[p]: 0, then layer * 2^j for j < halvings, then 1/2, 3/4, 1 (halvings + 3 panels)
    layer = np.maximum(2.0 * (1.0 - norm / R), 1e-12)
    halvings = np.maximum(np.ceil(np.log2(0.5 / layer)), 0.0).astype(int)
    i, h = np.arange(halvings.max(initial=0) + 4), halvings[:, None]
    edges = np.where(i <= h, layer[:, None] * 2.0 ** (i - 1), np.array([0.5, 0.75, 1.0])[np.clip(i - h - 1, 0, 2)])
    edges[:, 0] = 0.0
    # with t = R/rho, |x - rho w|^(-N) = (t/R)^N |w - x t/R|^(-N) and the angular
    # mass is (t/R)^N |S^(N-1)| R^2 / (R^2 - |x|^2 t^2): the (t/R)^N cancels the
    # Jacobian's (1 - sigma)^(-N/2) and leaves C (R^2 - |x|^2)^s R^(-2s) / 2 outside
    scale = 0.5 * poisson_constant_C(params) * (1.0 - x2 / (R * R)) ** s
    peak = sphere_surface(N) * R * R

    def level(m):
        dirs, wts = _sphere_rule(N, m)
        n = len(dirs) + 1

        def run(pts):
            # per row: its direction (the axis on row 0 of a point), its point's axis, x and |x|^2
            rows = np.concatenate([axis[pts][:, None, :], np.broadcast_to(dirs, (len(pts),) + dirs.shape)], axis=1)
            rows = rows.reshape(-1, N)
            row_axis, row_x, row_x2 = (np.repeat(v[pts], n, axis=0) for v in (axis, xs, x2))
            first = np.arange(len(rows)) % n == 0
            # flat panels: row d holds panel j = 0 .. halvings + 2 of its point's edges
            per_row = np.repeat(halvings[pts] + 3, n)
            d = np.repeat(np.arange(len(rows)), per_row)
            j = np.arange(len(d)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
            at = np.repeat(pts, n * (halvings[pts] + 3)) * edges.shape[1] + j
            panels = (np.take(edges, at), np.take(edges, at + 1), d)

            def integrand(sigma, d):
                t = np.sqrt(1.0 - sigma)  # R / rho
                on_axis, x2d, w = first[d], row_x2[d], np.take(rows, d, axis=0)
                g_axis = np.asarray(g(np.take(row_axis, d, axis=0) * (R / t)[:, None]), dtype=float)
                out = np.where(on_axis, peak * g_axis / (R * R - x2d + x2d * sigma), 0.0)
                rest = np.asarray(g(w * (R / t)[:, None]), dtype=float) - g_axis
                if np.any(rest[~on_axis]):  # a zero remainder (radial data) adds exactly 0.0
                    kernel = np.sum((w - np.take(row_x, d, axis=0) * (t / R)[:, None]) ** 2, axis=-1) ** (-N / 2.0)
                    out = np.where(on_axis, out, kernel * rest)
                return sigma**-s * (1.0 - sigma) ** (s - 1.0) * out

            return _adaptive_panels(
                integrand,
                panels,
                spec,
                (scale[pts][:, None] * np.concatenate([[1.0], wts])).ravel(),
                ends=(-s, s - 1.0),
                point=np.repeat(np.arange(len(pts)), n),
            )

        return n * (halvings.max(initial=0) + 3), run

    return _angular_converge(level, spec, 16, 6 if N > 1 else 0, len(xs))


def exterior_poisson_integral(
    params: FracParams, R: float, g: ScalarField, x, spec: QuadratureSpec | None = None
):
    """int_{|y|>R} Poisson_R(x, y) g(y) dy for x inside B_R.

    The radius maps to sigma = 1 - (R/rho)^2 in [0, 1), which takes the
    whole exterior with no truncation radius:

        rho^(N-1) (rho^2 - R^2)^(-s) drho = (R^(N-2s)/2) sigma^(-s) (1 - sigma)^(s-1-N/2) dsigma.

    The kernel's angular mass is exact (the normalisation of the Poisson
    kernel, for every N):

        int over S^(N-1) of |x - rho w|^(-N) dw = |S^(N-1)| rho^(2-N) / (rho^2 - |x|^2),

    so row 0 of one ``_adaptive_panels`` call integrates g(rho x^) times
    that mass, x^ = x/|x| (e_1 at x = 0), and the rows of a sphere rule
    integrate only |x - rho w|^(-N) (g(rho w) - g(rho x^)); a chunk whose
    remainder is exactly zero (radial data) skips the kernel.  Both decay
    like rho^(-N) = R^(-N) (1 - sigma)^(N/2), so every row is
    sigma^(-s) (1 - sigma)^(s-1) times a function smooth at both ends for
    data smooth in 1/|y|^2 at infinity, and both ends are Gauss-Jacobi
    weights.  Data that is not (a jump, slow or oscillating decay) makes
    the panels bisect or the call raise; it is never truncated.  The sigma
    edges halve from 1/2 down to 2 (R - |x|)/R, the kernel's boundary layer
    R - |x| (sigma ~ 2 (rho - R)/R there).  Angular levels double from
    m = 16 (``_angular_converge``); N = 1 runs one level, its two
    directions being exact.  Raises ``ValueError`` for data without a
    ``bound`` and ``ToleranceNotMet``, carrying the estimate and the error,
    when the error exceeds 100 x tolerance.
    """
    spec = spec or QuadratureSpec()
    value, err = _exterior_poisson_batch(params, R, g, x, spec)
    return _checked(value[0], err[0], spec, "exterior integral")


def poisson_extension_field(
    params: FracParams, R: float, g: ScalarField, spec: QuadratureSpec | None = None
) -> ScalarField:
    """The s-harmonic extension of exterior data g into B_R, as a field.

    Inside the ball the value is the exterior Poisson integral of g, from
    one batched evaluation over the inside points of a call; outside it is
    g itself, from one call of g.  A point whose integral misses its
    tolerance raises ``ToleranceNotMet`` as ``exterior_poisson_integral``
    would there (the first such point of the call).  The field is
    C-infinity inside.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)

    def func(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, params.N)
        inside = np.sum(flat * flat, axis=-1) < R * R
        out = np.empty(len(flat))
        if not np.all(inside):
            out[~inside] = g(flat[~inside])
        if np.any(inside):
            value, err = _exterior_poisson_batch(params, R, g, flat[inside], spec)
            missed = np.flatnonzero(_misses(value, err, spec))
            if len(missed):
                _checked(value[missed[0]], err[missed[0]], spec, "exterior integral")
            out[inside] = value
        return out.reshape(pts.shape[:-1])

    return ScalarField(
        func=func,
        smoothness="C2",
        support_radius=None,
        decay_exponent=g.decay_exponent,
        bound=g.bound,
    )


# ---------------------------------------------------------------------------
# half-space Green integral over a truncated box


def _halfspace_tail_bound(params, x, bound, p, L):
    """Bound on int over the half-space outside B_L of G(x,y) |f(y)| dy.

    Uses G <= (k/2s) (4 x1 y1)^s |x-y|^(-N) (the kernel integral is below
    psi^s/s) with y1 <= |y| and |x-y| >= |y|/2 for |y| >= L >= 2|x|.
    """
    N, s = params.N, params.s
    k = green_constant_k(params)
    if p <= s:
        raise ValueError("half-space tail needs decay exponent > s")
    if L < 2.0 * float(np.linalg.norm(x)):
        raise ValueError("half-space tail needs L >= 2|x|")
    x1 = max(float(np.asarray(x)[0]), 0.0)
    surface = 0.5 * sphere_surface(N)
    return (k / (2.0 * s)) * (4.0 * x1) ** s * bound * (2.0**N) * surface * L ** (s - p) / (p - s)


_TILE_ORDER = {1: 8, 2: 6, 3: 4}  # GL(n) per tile axis, checked against GL(2n)
_TILE_CHUNK = 1 << 17  # kernel evaluations per call; bounds the tile arrays
_TILE_RULES = {}


def _tile_rule(N):
    """Tensor GL(2n) and GL(n) nodes on [-1, 1]^N stacked in one array.

    Returns (nodes, w_high, w_low, modes, m): the weights are zero-padded
    to the stacked nodes, and ``modes`` holds the two highest Legendre
    polynomials at the m = 2n GL(2n) nodes of one axis.
    """
    if N not in _TILE_RULES:
        n = _TILE_ORDER[N]
        nodes, weights = [], []
        for m in (2 * n, n):
            t, w = _gl(m)
            nodes.append(np.stack([g.ravel() for g in np.meshgrid(*[t] * N, indexing="ij")], -1))
            weights.append(np.prod(np.meshgrid(*[w] * N, indexing="ij"), axis=0).ravel())
        pad_high, pad_low = np.zeros(len(weights[1])), np.zeros(len(weights[0]))
        modes = np.polynomial.legendre.legvander(_gl(2 * n)[0], 2 * n - 1)[:, -2:]
        _TILE_RULES[N] = (
            np.concatenate(nodes),
            np.concatenate([weights[0], pad_high]),
            np.concatenate([pad_low, weights[1]]),
            modes,
            2 * n,
        )
    return _TILE_RULES[N]


def _edges_about_foot(a, b, h):
    """Panel edges on [a, b] (a <= 0 <= b) graded geometrically from 0 at scale h."""
    edges = {a, 0.0, b}
    for end in (a, b):
        step = h
        while step < 0.75 * abs(end):
            edges.add(math.copysign(step, end))
            step *= 2.0
    return np.array(sorted(edges))


def _pyramid_tiles(c, lo, hi, e, scale=None):
    """Initial tiles of the pyramids with apex c over the faces of [lo, hi].

    A tile is a box in (v, d) coordinates: v in [0, 1] maps to the ray
    parameter u = v^(1/e), and d = p' - c' is the lateral offset of the face
    point p from the foot of the perpendicular, graded from the foot at the
    pyramid's height h.  With a ``scale`` the v axis is cut where u halves
    from 1 down to scale / D, D the distance from c to the lateral panel's
    nearest face point.  Returns (a, b, axis, offset): tile corners (T, N),
    the face's axis k and its offset p_k - c_k (|.| = h).
    """
    N = len(c)
    parts = []
    for k in range(N):
        lateral = [j for j in range(N) if j != k]
        for face in (lo[k], hi[k]):
            h = abs(face - c[k])
            if h == 0.0:
                continue
            edges = [np.array([0.0, 1.0])]
            edges += [_edges_about_foot(lo[j] - c[j], hi[j] - c[j], h) for j in lateral]
            panel = np.meshgrid(*[np.arange(len(ed) - 1) for ed in edges], indexing="ij")
            a = np.stack([ed[i.ravel()] for ed, i in zip(edges, panel)], -1)
            b = np.stack([ed[i.ravel() + 1] for ed, i in zip(edges, panel)], -1)
            if scale is not None:
                near = np.hypot(h, np.linalg.norm(np.maximum(np.maximum(a[:, 1:], -b[:, 1:]), 0.0), axis=-1))
                halvings = np.maximum(np.ceil(np.log2(near / scale)), 0.0).astype(int)
                tile = np.repeat(np.arange(len(a)), halvings + 1)
                top = np.concatenate([2.0 ** (-e * np.arange(n, -1.0, -1.0)) for n in halvings])
                a, b = a[tile], b[tile]
                a[:, 0] = np.where(np.r_[True, tile[1:] != tile[:-1]], 0.0, top * 2.0**-e)
                b[:, 0] = top
            parts.append((a, b, np.full(len(a), k), np.full(len(a), face - c[k])))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _tile_sums(params, x, c, e, tiles, f=None):
    """GL(2n) value, |GL(2n) - GL(n)| estimate and split axis of each tile.

    The kernel takes the true x; the nodes are y = c + u P, P = p - c, and
    with delta = c - x, |y - x|^2 = u^2 (h^2 + |d|^2) + |delta|^2 +
    2 u delta.P, each term >= 0 as c is the box point nearest x.  ``f``,
    if given, multiplies the kernel at y; without it (the mass, whose apex
    is x) delta is 0 and only y1 is formed.  The split axis is the one whose
    marginal has the largest top two Legendre coefficients.
    """
    N = params.N
    nodes, w_high, w_low, modes, m = _tile_rule(N)
    a, b, axis, offset = tiles
    h = np.abs(offset)
    half = 0.5 * (b - a)
    z = (0.5 * (a + b))[:, None, :] + half[:, None, :] * nodes
    u = z[..., 0] ** (1.0 / e)
    d = z[..., 1:]
    r2 = u * u * (h[:, None] ** 2 + np.sum(d * d, axis=-1))
    if f is None:  # the mass, apex at x (box_green_mass): only y1 is needed
        dp1 = np.where((axis == 0)[:, None], offset[:, None], d[..., 0]) if N > 1 else offset[:, None]
        y1 = c[0] + u * dp1
    else:  # P on the face axis is the offset, on the other axes d in order
        face = np.broadcast_to(offset[:, None, None], d.shape[:-1] + (1,))
        j = np.arange(N)
        column = np.where(j == axis[:, None], 0, j + (j < axis[:, None]))
        P = np.take_along_axis(np.concatenate([face, d], axis=-1), column[:, None, :], axis=-1)
        delta = c - x
        r2 = r2 + (delta @ delta + 2.0 * u * (P @ delta))
        y = c + u[..., None] * P
        y1 = y[..., 0]
    live = y1 > 0.0
    psi = np.where(live, 4.0 * x[0] * y1 / r2, 0.0)
    # dy = h u^(N-1) du dd and du = u^(1-e)/e dv
    jac = (h * np.prod(half, axis=-1) / e)[:, None] * u ** (N - e)
    g = np.where(live, _green_from_psi(params, r2, psi), 0.0) * jac
    if f is not None:
        g = g * f(y)
    high = g @ w_high
    grid = (g[:, : m**N] * w_high[: m**N]).reshape((len(a),) + (m,) * N)
    tails = [
        np.sum(np.abs(np.sum(grid, axis=tuple(i + 1 for i in range(N) if i != j)) @ modes), axis=-1)
        for j in range(N)
    ]
    return high, np.abs(high - g @ w_low), np.argmax(np.stack(tails, -1), axis=-1)


def _box_integral(params, x, lo, hi, spec, f=None):
    """(value, error) of int over the box [lo, hi], lo1 >= 0, of G(x, y) f(y) dy.

    Duffy pyramids (M. G. Duffy, SIAM J. Numer. Anal. 19, 1982) with apex
    c, the box point nearest x: one per face not holding c, y = c + u (p - c)
    for p on the face, and u = v^(1/e), e = 2s when N > 2s (else 1), removes
    the u^(2s-1) singularity of an apex at x.  A density's length scale is
    unknown, so its tiles are also graded toward c, down to the smallest
    nonzero face height or |x - c|.  Tiles above their share of the
    tolerance are bisected along their roughest axis, a pass in one kernel
    call.  A density that jumps inside the box converges slowly.  Raises
    ``ToleranceNotMet`` (estimate and error) if the summed estimate misses
    ``spec`` after ``spec.max_refinements`` passes.
    """
    N, s = params.N, params.s
    e = 2.0 * s if N > 2.0 * s else 1.0
    c = np.clip(x, lo, hi)
    lengths = np.append(np.abs(np.concatenate([lo - c, hi - c])), np.linalg.norm(c - x))
    scale = None if f is None else float(np.min(lengths[lengths > 0.0]))
    chunk = max(1, _TILE_CHUNK // len(_tile_rule(N)[0]))

    def evaluate(tiles):
        parts = [
            _tile_sums(params, x, c, e, tuple(t[i : i + chunk] for t in tiles), f)
            for i in range(0, len(tiles[0]), chunk)
        ]
        return [np.concatenate(p) for p in zip(*parts)]

    tiles = _pyramid_tiles(c, lo, hi, e, scale)
    vals, errs, axis = evaluate(tiles)
    for level in range(spec.max_refinements + 1):
        total, err = float(np.sum(vals)), float(np.sum(errs))
        tol = spec.tolerance(total)
        if err <= tol:
            return total, err
        if level == spec.max_refinements:
            break
        # bisect every tile above its share of the tolerance, along its roughest axis
        split = errs > tol / len(errs)
        at = (np.arange(int(np.sum(split))), axis[split])
        a, b = tiles[0][split], tiles[1][split]
        b_left, a_right = b.copy(), a.copy()
        b_left[at] = a_right[at] = 0.5 * (a[at] + b[at])
        children = (np.concatenate([a, a_right]), np.concatenate([b_left, b])) + tuple(
            np.concatenate([t[split], t[split]]) for t in tiles[2:]
        )
        new = evaluate(children)
        tiles = tuple(np.concatenate([t[~split], child]) for t, child in zip(tiles, children))
        vals, errs, axis = (np.concatenate([old[~split], n]) for old, n in zip((vals, errs, axis), new))
    raise ToleranceNotMet(
        f"box integral stalled at error {err:.3e} after {spec.max_refinements} refinements",
        estimate=total,
        error=err,
    )


def box_green_mass(params: FracParams, x, lo, hi, spec: QuadratureSpec | None = None):
    """int over the box [lo, hi] of G_halfspace(x, y) dy, x in the closed box.

    The box engine (``_box_integral``) with its apex at x and no density;
    raises ``ToleranceNotMet`` carrying the estimate and the error, and
    ``ValueError`` unless x, lo, hi have shape (N,), lo < hi and x is in
    the closed box.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    x, lo, hi = (np.asarray(v, dtype=float) for v in (x, lo, hi))
    if not (x.shape == lo.shape == hi.shape == (params.N,)):
        raise ValueError("x, lo and hi need shape (N,)")
    if np.any(lo >= hi):
        raise ValueError("box needs lo < hi in every coordinate")
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("apex x must lie in the closed box")
    return _box_integral(params, x, lo, hi, spec)[0]


def halfspace_green_integral(
    params: FracParams,
    f: ScalarField,
    x,
    spec: QuadratureSpec | None = None,
    box=None,
):
    """int over the half-space of G(x,y) f(y) dy, truncated to a box.

    Over ``box`` if given, else over the support of f or, for a decay tag,
    a box holding |y| < L, L doubled until the explicit kernel bound on the
    tail beyond |y| >= L is below a quarter of ``spec.abs_tol``.  x may lie
    outside the box; the box engine
    (``_box_integral``) raises ``ToleranceNotMet``, carrying the estimate
    and the error, when its error misses ``spec``.  Integrate a density
    that jumps inside the box over the pieces where it is smooth.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9)
    x = np.asarray(x, dtype=float)
    N, p = params.N, f.decay_exponent
    if box is not None:
        lo, hi = (np.array(v, dtype=float) for v in box)
    else:
        if f.support_radius is not None:
            L = float(f.support_radius)
        elif f.bound is not None and p > params.s:
            L = max(4.0, 4.0 * float(np.linalg.norm(x)))
            while _halfspace_tail_bound(params, x, f.bound, p, L) > 0.25 * spec.abs_tol and L < 1e12:
                L *= 2.0
        else:
            raise ValueError("half-space integral needs a support radius or decay exponent > s")
        lo, hi = np.array([0.0] + [-L] * (N - 1)), np.full(N, L)
    lo[0] = max(lo[0], 0.0)
    if np.any(lo >= hi):
        raise ValueError("box needs lo < hi in every coordinate, and hi1 > 0")
    return _box_integral(params, x, lo, hi, spec, f)[0]


# ---------------------------------------------------------------------------
# strip mass


def strip_mass(params: FracParams, lam: float, x, spec: QuadratureSpec | None = None):
    """int over the slab {0 < y1 < lam} of G_halfspace(x, y) dy, 0 < x1 < lam.

    The mass depends on s, lam and x1 only:

        int over R^(N-1) of G_N((x1, x'), (y1, y')) dy' = G_1(x1, y1),

    with G_1 the half-line Green function of ``FracParams(1, s)``: the
    half-space is invariant under tangential translations, and on functions
    of x1 alone the symbol |xi|^(2s) acts as the one-dimensional
    |xi1|^(2s).  So the slab is [0, lam] of the half-line: two rays from x1
    on the ray engine, the one toward y1 = 0 ending in the weight y1^s
    (G_1 is y1^s times an analytic function there).  ``x`` must have shape
    (N,).  Raises ``ToleranceNotMet`` as ``ball_green_integral`` does.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    x = np.asarray(x, dtype=float)
    if x.shape != (params.N,):
        raise ValueError("x needs shape (N,)")
    x1 = float(x[0])
    if not (0.0 < x1 < lam):
        raise ValueError("strip_mass needs 0 < x1 < lam")
    line = FracParams(1, params.s)

    def rays(dirs, _):
        up = dirs[:, 0] > 0.0

        def integrand(r, d):
            y1 = x1 + r * dirs[d, 0]
            live = (y1 > 0.0) & (r > 0.0)
            r2 = np.where(live, r * r, 1.0)
            psi = np.where(live, 4.0 * x1 * y1 / r2, 0.0)
            return np.where(live, _green_from_psi(line, r2, psi), 0.0)

        return np.where(up, lam - x1, x1)[None], np.where(up, 0.0, params.s)[None], integrand

    value, err = _ray_integral(line, rays, spec)
    return _checked(value[0], err[0], spec, "strip mass")
