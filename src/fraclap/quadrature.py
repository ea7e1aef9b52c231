"""Singular-integral quadrature: the pointwise fractional Laplacian, ball and
half-space Green integrals, exterior Poisson integrals and strip masses.

Two adaptive engines refine through one bisection driver, ``_refine``,
and share its contract.  Each cell has an owner (an evaluation point or a
box), and every owner has its own tolerance, ``spec.tolerance`` of its own
value: while its summed error exceeds it, a pass bisects its cells whose
error exceeds that tolerance over its number of cells, and its sums run
over its own cells in the order a call for it alone would hold them, so
its value and error do not depend on the owners batched with it.

The radial engine, ``_adaptive_panels``, integrates every ray family: at
each angular level of a sphere rule it takes all (point, direction, radial
panel) triples of a block of evaluation points in one array, a 16-point
Gauss rule per panel checked against the 8-point one, each point the
owner of its panels.  A row's end panels carry Gauss-Jacobi weights from
the one rule table ``core._gj``.  The polar-ray integrals (the ball
integral and the strip mass) start every ray at x, with the weight
(r - a)^(2s-1) for the |x-y|^(2s-N) singularity there and
(t_exit - r)^beta where the ray leaves the domain (beta = s at the sphere
and at y1 = 0).
``exterior_poisson_integral`` maps rho in [R, inf) to sigma = 1 - (R/rho)^2
in [0, 1) with the weights sigma^(-s) and (1 - sigma)^(s-1), so the whole
exterior is integrated without a truncation radius; its row 0 is the peak
of the kernel |x - rho w|^(-N), whose angular mass is known in closed
form, and the other rows sum only g(rho w) - g(rho x/|x|) over directions;
a point whose remainder is exactly zero at every node of its initial
panels in every direction of a level (radial data) runs row 0 alone there.
``frac_laplacian_point`` runs the engine on the symmetrized second
difference, with a Taylor stub at 0 and r = r0 + (1 - t)/t mapping the rest
of the radius onto t in (0, 1], so it has no truncation radius either (the
stub halves its radius until two fits agree, and carries an error).
Levels double until two agree (``_angular_converge``), point by point: a
point that converges, or whose level error stalls above 100 x tolerance or
is NaN, retires while the others go on, and a level runs its live points in
blocks of about ``_RAY_CHUNK`` panels.  A point's error is its final level's
panel error plus its last level difference.  The box engine
``_box_integral`` serves every half-space box: Duffy pyramids with their
apex at the box point nearest x, tiled and bisected against GL(n)/GL(2n)
estimates, each box the owner of its tiles.  ``box_green_mass`` takes
rows of boxes (``PicardOperator`` gets all its self-cell masses from one
call), and ``halfspace_green_integral`` is the engine's one-box call.
``strip_mass`` is [0, lam] of the one-dimensional half-line for every N.
Every integrand forms its Green values in one ``kernels._green_from_psi``
call on |x-y|^2 and the factors of psi, the one place where psi and its
zero set are formed.

Every integrator returns a value with an error within its contract or
raises ``ToleranceNotMet`` carrying the estimate and the error.  The radial
engine never raises; ``_checked`` is its one raise site, for the ray,
exterior and fractional-Laplacian integrals (and ``verify``'s reductions)
when the error exceeds 100 x tolerance or is NaN (``_misses``).  The batch
error contract: the ball and exterior integrals have private batch forms
(``_ball_green_batch``, ``_exterior_poisson_batch``) that return arrays of
values and errors and raise for no missed tolerance; the public functions
are their one-point calls through ``_checked``, ``solve_ball_dirichlet``
flags the nodes ``_misses`` marks, and ``poisson_extension_field`` raises
what the one-point call of its first such point would.  The box engine
raises for the first box that still misses its tolerance when ``_refine``
stops, carrying that box's estimate and error, which are its one-box
call's.  Batched evaluations take a bounded number of values at a time:
``_RAY_CHUNK`` integrand nodes, and ``_TILE_CHUNK`` (2^14) kernel values
of whole tiles.  A field is a function of an ``(..., N)`` float array; one
too rough for an integrator makes it raise ``ToleranceNotMet``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (
    FracParams,
    _gj,
    _gl,
    normalization_a,
    poisson_constant_C,
)
from .kernels import _green_from_psi, _radius


__all__ = [
    "QuadratureSpec",
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
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not isinstance(self.max_refinements, numbers.Integral) or self.max_refinements < 1:
            raise ValueError("max_refinements must be an integer >= 1")

    def tolerance(self, scale=1.0):
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(scale))


def constant_field(value: float):
    """The field equal to ``value`` everywhere."""
    value = float(value)
    return lambda pts: np.full(np.shape(pts)[:-1], value)


# ---------------------------------------------------------------------------
# panel engines

_RAY_CHUNK = 1 << 12  # integrand nodes per call of a ray rule, initial panels per block of points
_N_LOW, _N_HIGH = 8, 16  # nodes of a panel's error rule and of its value rule


def _refine(cells, n, spec: QuadratureSpec, evaluate, bisect, chunk):
    """Bisect a family of cells with owners 0 .. n-1 until each owner meets its tolerance.

    ``cells`` is a tuple of per-cell arrays, its first column each cell's
    owner (an evaluation point or a box).  ``evaluate(*columns)`` takes at
    most ``chunk`` cells and returns (values, errors, *more), one entry per
    cell and each from its own cell alone; ``bisect(*columns)`` takes the
    cells to split, with those columns appended, and returns their
    children's cells.  The refinement contract: every owner has its own
    tolerance ``spec.tolerance`` of its own value; while its summed error
    exceeds it, a pass bisects its cells whose error exceeds that tolerance
    over its number of cells (the worst one always does), and an owner that
    meets it keeps its cells.  An owner's value and error are sums over its
    own cells in the order a call for it alone holds them (a stable sort by
    owner after every pass; only the owners that split are summed again),
    so neither depends on the owners refined with it.  Stops once no cell
    splits or after ``spec.max_refinements`` passes and never raises.
    Returns arrays (values, errors, live), one entry per owner, ``live``
    marking the owners whose error still exceeds their tolerance.
    """
    width = len(cells)

    def run(cells):
        parts = [evaluate(*(c[i : i + chunk] for c in cells)) for i in range(0, len(cells[0]), chunk)]
        return cells + tuple(np.concatenate(part) for part in zip(*parts))

    def grouped(cells):
        order = np.argsort(cells[0], kind="stable")
        return tuple(c[order] for c in cells)

    cells = grouped(run(cells))
    total, err = np.zeros(n), np.zeros(n)
    changed = range(n)
    for k in range(spec.max_refinements + 1):
        vals, errs = cells[width], cells[width + 1]
        bounds = np.searchsorted(cells[0], np.arange(n + 1))
        ends_at = bounds.tolist()
        for i in changed:
            start, stop = ends_at[i], ends_at[i + 1]
            total[i], err[i] = vals[start:stop].sum(), errs[start:stop].sum()
        tol = spec.tolerance(total)
        live = ~(err <= tol)
        count = np.diff(bounds)
        split = errs > np.repeat(np.where(live, tol / count, np.inf), count)
        if k == spec.max_refinements or not np.any(split):
            break
        children = run(bisect(*(c[split] for c in cells)))
        cells = grouped(tuple(np.concatenate([c[~split], child]) for c, child in zip(cells, children)))
        changed = np.flatnonzero(live).tolist()
    return total, err, live


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
    by its row's weight.  Each point owns its panels in ``_refine``; a
    bisected end panel passes its weight to the child that holds that end,
    and the other child is a Gauss-Legendre panel.  Returns arrays (values,
    errors), one entry per point; it never raises, and the caller's
    ``_checked`` judges each error.
    """
    if isinstance(edges, tuple):
        a, b, d = edges
    else:
        edges = np.atleast_2d(np.asarray(edges, dtype=float))
        a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        d = np.repeat(np.arange(len(edges)), edges.shape[1] - 1)
    rows = int(d[-1]) + 1
    weights = np.asarray(weights, dtype=float)
    point = np.zeros(rows, dtype=int) if point is None else np.asarray(point)
    rule, nb, u, w_low, w_high = _panel_rules(d, ends)

    def evaluate(_, pa, pb, pd, pr):
        nodes = _panel_nodes(pa, pb, u, pr)
        f = fvec(nodes.ravel(), np.repeat(pd, _N_LOW + _N_HIGH)).reshape(nodes.shape)
        # np.take: row gathers of small 2-D tables, much faster than fancy indexing
        vl = np.sum(f[:, :_N_LOW] * np.take(w_low, pr, axis=0), axis=-1)
        vh = np.sum(f[:, _N_LOW:] * np.take(w_high, pr, axis=0), axis=-1)
        w = weights[pd] * (0.5 * (pb - pa))
        return vh * w, np.abs(vh - vl) * w

    def bisect(owner, sa, sb, sd, sr, *_):
        smid = 0.5 * (sa + sb)
        # the left child keeps the left end's weight, the right child the right end's
        pairs = ((owner, owner), (sa, smid), (smid, sb), (sd, sd), (sr - sr % nb, sr % nb))
        return tuple(np.concatenate(pair) for pair in pairs)

    panels = (point[d], a, b, d, rule)
    return _refine(panels, int(point.max()) + 1, spec, evaluate, bisect, _RAY_CHUNK // (_N_LOW + _N_HIGH))[:2]


def _panel_rules(d, ends):
    """Each panel's rule, and the rule tables, of ``_adaptive_panels`` on
    panels of rows ``d`` (each row's panels adjacent and in order) with the
    endpoint exponents ``ends``.

    Returns (rule, nb, u, w_low, w_high).  A rule indexes (0, *alphas) at
    its panel's left end and (0, *betas) at its right, as ``nb`` times the
    one plus the other, 0 being Gauss-Legendre and the exponents the
    distinct ones of the rows; ``u`` holds each rule's 8- then 16-point
    nodes on [-1, 1], and ``w_low`` and ``w_high`` their weights.
    """
    rows = int(d[-1]) + 1
    new_row = d[1:] != d[:-1]
    first, last = np.concatenate(([True], new_row)), np.concatenate((new_row, [True]))
    (alphas, ia), (betas, ib) = (
        np.unique(np.broadcast_to(np.asarray(e, dtype=float), (rows,)), return_inverse=True) for e in ends
    )
    nb = len(betas) + 1
    rule = np.where(first, ia[d] + 1, 0) * nb + np.where(last, ib[d] + 1, 0)
    low, high = ([_gj(n, ka, kb) for ka in (0.0, *alphas) for kb in (0.0, *betas)] for n in (_N_LOW, _N_HIGH))
    u = np.array([np.concatenate([lo[0], hi[0]]) for lo, hi in zip(low, high)])
    return rule, nb, u, np.array([lo[1] for lo in low]), np.array([hi[1] for hi in high])


def _panel_nodes(a, b, u, rule):
    """The nodes (panels, 24) that ``_adaptive_panels`` evaluates on
    panels [a, b] with the rules ``rule`` of the table ``u``."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * np.take(u, rule, axis=0)


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


_STUB_R0 = 1e-3  # the Taylor stub's first radius
_STUB_HALVINGS = 30  # it halves at most this often, down to 1e-3 2^-30 ~ 9e-13


def frac_laplacian_point(params: FracParams, u, x, spec: QuadratureSpec | None = None):
    """(a/2) * integral of (2u(x)-u(x+z)-u(x-z)) |z|^(-N-2s) dz.

    The symmetrized second difference D2(r, w) removes the principal value
    and is even in w, so each angular level runs the antipodal sphere rule.
    On (0, r0) a Taylor stub takes every direction, since D2 drowns in
    rounding noise there: c1 + c2 r^2 through D2(r)/r^2 at r0 and r0/2,
    checked over (0, r0/2) by the fit through r0/2 and r0/4.  r0 halves
    from 1e-3 while the two differ by more than a tenth of the stub's
    tolerance and its rounding noise eps U (r0/2)^(-2s) is below that, U
    the weighted size of the values D2 cancels plus |x| times the slope;
    the difference plus the noise is the stub's error.  [r0, inf) maps to
    t in (0, 1] by r = r0 + (1 - t)/t, so one ``_adaptive_panels`` call
    integrates (a/2) D2 r^(-1-2s) / t^2 over all (direction, panel) pairs
    with no truncation radius, bisection resolving any kink sphere beyond
    r0; the panels start at the images of r0 8^k, up to r ~ 33.  Near t = 0
    the factor r^(-1-2s) / t^2 ~ t^(2s-1) is the first panel's Gauss-Jacobi
    weight.  A field that grows at infinity makes the call raise, and one
    that oscillates there without decay may.  Levels double until two
    agree (``_angular_converge``).

    Raises ``ValueError`` for an x not of shape (N,), and
    ``ToleranceNotMet``, carrying the estimate and the error, when the
    error (the final level's panel and stub errors plus the last level
    difference) exceeds 100 x tolerance, as at a jump of u at x.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-9)
    x = _point(params, x)
    N, s = params.N, params.s
    half_a = 0.5 * normalization_a(params)
    ux = float(u(x))
    eps, size = float(np.finfo(float).eps), float(np.sqrt(x @ x))

    def fit(r, f1, f2, top):
        # c1 + c2 r^2 through f1 at r and f2 at r/2, integrated against r^(1-2s) over (0, top)
        c2 = (f1 - f2) / (0.75 * r**2)
        c1 = f1 - c2 * r**2
        return c1 * top ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) + c2 * top ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s)

    def run_level(m):
        dirs, wts = _sphere_rule(N, m, antipodal=True)
        wts = half_a * wts

        def pair(r, d):
            step = r[:, None] * dirs[d]
            return u(np.concatenate([x + step, x - step])).reshape(2, -1)

        def quotient(r):
            # D2(r)/r^2 in every direction, and the size of the values D2 cancels
            up, down = pair(np.full(len(dirs), r), np.arange(len(dirs)))
            cancelled = 2.0 * abs(ux) + np.abs(up) + np.abs(down) + size * np.abs(up - down) / r
            return (2.0 * ux - (up + down)) / r**2, cancelled

        r0 = _STUB_R0
        samples = [quotient(r0), quotient(0.5 * r0), quotient(0.25 * r0)]
        for halvings in range(_STUB_HALVINGS + 1):
            (f1, cancelled), (f2, _), (f3, _) = samples
            stub = float(wts @ fit(r0, f1, f2, r0))
            diff = float(wts @ np.abs(fit(r0, f1, f2, 0.5 * r0) - fit(0.5 * r0, f2, f3, 0.5 * r0)))
            noise = eps * float(wts @ cancelled) * (0.5 * r0) ** (-2.0 * s)
            tol = float(spec.tolerance(stub))
            if halvings == _STUB_HALVINGS or not (diff > 0.1 * tol and noise < tol):
                break
            r0 = 0.5 * r0
            samples = samples[1:] + [quotient(0.25 * r0)]
        # t = 1 / (1 + r - r0) at r = r0 8^k, k = 5 + ceil(halvings / 3) .. 0, after t = 0
        k = np.arange(5.0 + -(-halvings // 3), -1.0, -1.0)
        edges = np.concatenate([[0.0], 1.0 / (1.0 + r0 * (8.0**k - 1.0))])

        def integrand(t, d):
            r = r0 + (1.0 - t) / t
            return (2.0 * ux - pair(r, d).sum(axis=0)) * r ** (-1.0 - 2.0 * s) / (t * t)

        far, err = _adaptive_panels(
            integrand, np.tile(edges, (len(dirs), 1)), spec, wts, ends=(2.0 * s - 1.0, 0.0)
        )
        return stub + far, err + diff + noise

    # one point, so each level is one block of one call
    value, err = _angular_converge(
        lambda m: (1, lambda _: run_level(m)), spec, 4 if N == 2 else 2, 5 if N > 1 else 0
    )
    return _checked(value[0], err[0], spec, "fractional Laplacian")


def getoor_field(params: FracParams):
    """(1 - |x|^2)_+^s, whose fractional Laplacian is constant in the unit ball."""
    s = params.s

    def f(pts):
        return np.maximum(1.0 - np.sum(pts * pts, axis=-1), 0.0) ** s

    return f


# ---------------------------------------------------------------------------
# angular levels and the ball Green integral


def _angular_converge(level, spec, start, max_doublings, n_points=1):
    """Run the points 0 .. n_points-1 at doubling angular resolutions m.

    ``level(m)`` sets up a level and returns (panels, run): the number of
    initial panels per point and ``run(pts) -> (values, errors)`` for the
    points with indices ``pts``.  Each point runs its own level sequence:
    it retires once two of its levels agree to 10 x its tolerance, or once
    a doubled level's own error exceeds 100 x its tolerance or is NaN (its
    panels stalled; a finer level would not mend that), and the points
    still live go on to the next level.  A level takes its live points in blocks of
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
            done = (diff[live] <= 10.0 * tol) | ~(new_err <= 100.0 * tol)
        value[live], err[live] = new, new_err
        if k:
            live = live[~done]
    return value, err + diff


def _misses(value, err, spec):
    """Where ``err`` exceeds 100 x tolerance or either is NaN: the values ``_checked`` raises for."""
    return ~(err <= 100.0 * spec.tolerance(value))


def _checked(value, err, spec, what):
    """``value``, unless ``_misses`` marks it: then ``ToleranceNotMet``.

    The one raise site of the panel integrals (ray, exterior, fractional
    Laplacian and the ``verify`` reductions); batch forms return arrays of
    values and errors, and their one-point callers come here.
    """
    value, err = float(value), float(err)
    if _misses(value, err, spec):
        raise ToleranceNotMet(f"{what} error {err:.2e} exceeds tolerance", estimate=value, error=err)
    return value


def _inside(params, R, xs):
    """Points (n, N) and their squared norms; ``ValueError`` unless R is a
    radius (``_radius``) and all lie inside B_R (a NaN point does not)."""
    R = _radius(R)
    xs = np.asarray(xs, dtype=float).reshape(-1, params.N)
    x2 = np.sum(xs * xs, axis=-1)
    if not np.all(x2 < R * R):
        raise ValueError("evaluation point must lie inside the ball")
    return xs, x2


def _finite(*arrays):
    """``ValueError`` unless every coordinate of ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("points and box corners must be finite")


def _point(params, x):
    """``x`` as a float array; ``ValueError`` unless it is one finite point, shape (N,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.N,):
        raise ValueError("x needs shape (N,)")
    _finite(x)
    return x


def _ball_green_batch(params, R, f, xs, spec):
    """(values, errors) of ``ball_green_integral`` at every point of ``xs`` (n, N)."""
    xs, x2 = _inside(params, R, xs)
    h = R * R - x2
    N = params.N
    alpha, depth = _end_rule_at_x(N, params.s, spec)
    graded = _graded_edges(depth)

    def level(m):
        dirs, wts = _sphere_rule(N, m)

        def run(pts):
            # t_exit and -t_neg of r^2 + 2 c r - h, c = x.w, each without cancellation
            c, hp = np.sum(xs[pts][:, None, :] * dirs, axis=-1), h[pts][:, None]
            q = np.sqrt(c * c + hp) + np.abs(c)
            t_exit, t_back = np.where(c > 0.0, hp / q, q), np.where(c > 0.0, q, hp / q)
            x = np.repeat(xs[pts], len(dirs), axis=0)
            omega = np.tile(dirs, (len(pts), 1))
            hr, te, tb = np.repeat(h[pts], len(dirs)), t_exit.ravel(), t_back.ravel()

            def integrand(r, d):
                y = np.take(x, d, axis=0) + r[:, None] * np.take(omega, d, axis=0)
                g = _green_from_psi(params, r * r, hr[d] * (te[d] - r), r + tb[d], R * R)
                return g * f(y) * r ** (N - 1.0)

            return _adaptive_panels(
                integrand,
                te[:, None] * graded,
                spec,
                np.tile(wts, len(pts)),
                ends=(alpha, params.s),
                point=np.repeat(np.arange(len(pts)), len(dirs)),
            )

        return len(dirs) * (len(graded) - 1), run

    return _angular_converge(level, spec, 8, 4 if N > 1 else 0, len(xs))


def ball_green_integral(params: FracParams, R: float, f, x, spec: QuadratureSpec | None = None):
    """int_{B_R} G_R(x, y) f(y) dy for x inside B_R.

    Polar rays around x: one ``_adaptive_panels`` call takes all (point,
    direction, panel) triples of an angular level and a block of points,
    and ``_angular_converge`` doubles the levels from m = 8 to m = 128
    (N = 1 runs one level, its two-point rule being exact).  With
    c = x.w and h = R^2 - |x|^2, the ray x + r w leaves the ball at the
    root t_exit of r^2 + 2 c r - h, and R^2 - |x + r w|^2 = (t_exit - r)
    (r - t_neg) in terms of both roots, so psi is formed without
    cancellation.  The panels are halved toward x, where the |x-y|^(2s-N)
    singularity is the weight r^alpha of the first panel
    (``_end_rule_at_x``); at the sphere I(psi) is psi^s times an analytic
    function, so the last panel carries the weight (t_exit - r)^s.
    ``x`` must have shape (N,) and R be positive (``ValueError`` before any
    evaluation).  Returns a value whose error (the final level's summed
    panel error plus the last angular level difference) is within 100 x
    tolerance, or raises ``ToleranceNotMet`` carrying the estimate and the
    error.
    """
    spec = spec or QuadratureSpec()
    value, err = _ball_green_batch(params, R, f, _point(params, x), spec)
    return _checked(value[0], err[0], spec, "ball Green integral")


# ---------------------------------------------------------------------------
# exterior Poisson integral


def _ranks(counts):
    """(group, rank) of every item of groups of ``counts`` items laid end to end."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)


def _exterior_poisson_batch(params, R, g, xs, spec):
    """(values, errors) of ``exterior_poisson_integral`` at every point of ``xs`` (n, N).

    At each level a point's rows are its axis row and the directions of the
    level, or its axis row alone where its remainder g(rho w) - g(rho x^)
    is 0.0 at every node of its initial sigma panels in every direction:
    the engine samples exactly those nodes first, and rows that are zero
    there never bisect, so they would add exactly 0.0.  Its sigma edges
    depend on its distance to the sphere, so the rows of a block go to the
    engine as flat panels, read from one table of every point's edges.
    """
    xs, x2 = _inside(params, R, xs)
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
    ends = (-s, s - 1.0)  # the weights sigma^(-s) and (1 - sigma)^(s-1)

    def level(m):
        dirs, wts = _sphere_rule(N, m)
        n = len(dirs) + 1

        def vanishes(pts, sigma, owner):
            """Per point of ``pts``, whether g(rho w) - g(rho x^) is 0.0 at each of its
            nodes ``sigma`` (``owner``: each node's place in ``pts``) in every direction w."""
            rho = R / np.sqrt(1.0 - sigma)  # as the integrand forms it, bit for bit
            zero = np.ones(len(rho), dtype=bool)
            step = max(1, _RAY_CHUNK // len(dirs))  # nodes per call of g, with every direction
            for i in range(0, len(rho), step):
                r = rho[i : i + step, None, None]
                at_axis = np.asarray(g(axis[pts[owner[i : i + step]]] * r[:, 0]), dtype=float)
                for k in range(0, len(dirs), _RAY_CHUNK):
                    y = dirs[k : k + _RAY_CHUNK] * r
                    rest = np.asarray(g(y.reshape(-1, N)), dtype=float).reshape(y.shape[:2]) - at_axis[:, None]
                    zero[i : i + step] &= np.all(rest == 0.0, axis=1)
            ok = np.ones(len(pts), dtype=bool)
            ok[owner[~zero]] = False
            return ok

        def run(pts):
            # the nodes of every point's initial panels, as the engine forms them
            owner, j = _ranks(halvings[pts] + 3)
            at = pts[owner] * edges.shape[1] + j
            rule, _, u, _, _ = _panel_rules(owner, ends)
            sigma = _panel_nodes(np.take(edges, at), np.take(edges, at + 1), u, rule).ravel()
            owner = np.repeat(owner, _N_LOW + _N_HIGH)
            # each point's first node, then every node of the points that pass there
            radial = vanishes(pts, sigma[owner.searchsorted(np.arange(len(pts)))], np.arange(len(pts)))
            probed = radial[owner]
            radial &= vanishes(pts, sigma[probed], owner[probed])
            # per row: its point, its place there (0 the axis row), its direction, the point's axis, x and |x|^2
            row_point, k = _ranks(np.where(radial, 1, n))
            p = pts[row_point]
            first = k == 0
            rows = np.where(first[:, None], axis[p], dirs[np.maximum(k - 1, 0)])
            row_axis, row_x, row_x2 = axis[p], xs[p], x2[p]
            # flat panels: row d holds panel j = 0 .. halvings + 2 of its point's edges
            d, j = _ranks(halvings[p] + 3)
            at = p[d] * edges.shape[1] + j
            panels = (np.take(edges, at), np.take(edges, at + 1), d)

            def integrand(sigma, d):
                t = np.sqrt(1.0 - sigma)  # R / rho
                x2d, w = row_x2[d], np.take(rows, d, axis=0)
                g_axis = np.asarray(g(np.take(row_axis, d, axis=0) * (R / t)[:, None]), dtype=float)
                rest = np.asarray(g(w * (R / t)[:, None]), dtype=float) - g_axis
                kernel = np.sum((w - np.take(row_x, d, axis=0) * (t / R)[:, None]) ** 2, axis=-1) ** (-N / 2.0)
                out = np.where(first[d], peak * g_axis / (R * R - x2d + x2d * sigma), kernel * rest)
                return sigma**-s * (1.0 - sigma) ** (s - 1.0) * out

            return _adaptive_panels(
                integrand,
                panels,
                spec,
                scale[p] * np.concatenate([[1.0], wts])[k],
                ends=ends,
                point=row_point,
            )

        return n * (halvings.max(initial=0) + 3), run

    return _angular_converge(level, spec, 16, 6 if N > 1 else 0, len(xs))


def exterior_poisson_integral(params: FracParams, R: float, g, x, spec: QuadratureSpec | None = None):
    """int_{|y|>R} Poisson_R(x, y) g(y) dy for x inside B_R.

    The radius maps to sigma = 1 - (R/rho)^2 in [0, 1), which takes the
    whole exterior with no truncation radius:

        rho^(N-1) (rho^2 - R^2)^(-s) drho = (R^(N-2s)/2) sigma^(-s) (1 - sigma)^(s-1-N/2) dsigma.

    The kernel's angular mass is exact (the normalisation of the Poisson
    kernel, for every N):

        int over S^(N-1) of |x - rho w|^(-N) dw = |S^(N-1)| rho^(2-N) / (rho^2 - |x|^2),

    so row 0 of one ``_adaptive_panels`` call integrates g(rho x^) times
    that mass, x^ = x/|x| (e_1 at x = 0), and the rows of a sphere rule
    integrate only |x - rho w|^(-N) (g(rho w) - g(rho x^)).  At each level
    the points of a block are tested at once, one sigma node in every
    direction and then every node of the points that pass: a point whose
    remainder is 0.0 at every node of its initial panels in every direction
    (radial data) runs row 0 alone.  Its direction rows would add exactly
    0.0, since those are the nodes they sample first and a zero row never
    bisects.  Row 0 and the direction rows decay like rho^(-N) =
    R^(-N) (1 - sigma)^(N/2), so every row is sigma^(-s) (1 - sigma)^(s-1)
    times a function smooth at both ends for data smooth in 1/|y|^2 at
    infinity, and both ends are Gauss-Jacobi weights.  Data that is not (a
    jump, slow or oscillating decay) makes the panels bisect or the call
    raise; it is never truncated.  The sigma
    edges halve from 1/2 down to 2 (R - |x|)/R, the kernel's boundary layer
    R - |x| (sigma ~ 2 (rho - R)/R there).  Angular levels double from
    m = 16 (``_angular_converge``); N = 1 runs one level, its two
    directions being exact.  Raises ``ValueError`` for an x not of shape
    (N,) or a radius that is not positive, and ``ToleranceNotMet``,
    carrying the estimate and the error, when the error exceeds 100 x
    tolerance.
    """
    spec = spec or QuadratureSpec()
    value, err = _exterior_poisson_batch(params, R, g, _point(params, x), spec)
    return _checked(value[0], err[0], spec, "exterior integral")


def poisson_extension_field(params: FracParams, R: float, g, spec: QuadratureSpec | None = None):
    """The s-harmonic extension of exterior data g into B_R, as a field.

    Inside the ball the value is the exterior Poisson integral of g, from
    one batched evaluation over the inside points of a call; outside it is
    g itself, from one call of g.  A point whose integral misses its
    tolerance raises ``ToleranceNotMet`` as ``exterior_poisson_integral``
    would there (the first such point of the call).  The field is
    C-infinity inside.  Raises ``ValueError`` for a radius that is not
    positive, and the field raises it for a point that is not finite.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    R = _radius(R)

    def func(pts):
        flat = pts.reshape(-1, params.N)
        _finite(flat)
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

    return func


# ---------------------------------------------------------------------------
# half-space Green integrals over boxes


_TILE_ORDER = {1: 8, 2: 6, 3: 4}  # GL(n) per tile axis, checked against GL(2n)
_TILE_CHUNK = 1 << 14  # kernel evaluations per call; bounds the tile arrays of a batch


def _grid_nodes(axes):
    """The tensor grid of ``axes`` as an (M, len(axes)) array in C order."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@cache
def _tile_rule(N):
    """Tensor GL(2n) and GL(n) nodes on [-1, 1]^N stacked in one array.

    Returns (nodes, w_high, w_low, modes): the first m^N nodes (m = 2n) are
    GL(2n)'s, with the weights ``w_high``, the other n^N GL(n)'s, with
    ``w_low``, and ``modes`` holds the two highest Legendre polynomials at
    the m GL(2n) nodes of one axis, one polynomial per row.
    """
    n = _TILE_ORDER[N]
    rules = [_gl(m) for m in (2 * n, n)]
    nodes = np.concatenate([_grid_nodes([t] * N) for t, _ in rules])
    w_high, w_low = (np.prod(_grid_nodes([w] * N), axis=-1) for _, w in rules)
    modes = np.polynomial.legendre.legvander(rules[0][0], 2 * n - 1)[:, -2:].T.copy()
    return nodes, w_high, w_low, modes


def _edges_about_foot(a, b, h):
    """Panel edges on [a, b] (a <= 0 <= b) graded geometrically from 0 at scale h > 0.

    One row per apex: a, the steps -h 2^i and h 2^i below 3/4 of the
    distance to their end, 0 and b, ascending and each edge once.  Returns
    (edges, panels): the rows, padded with inf past their last edge, and
    the number of panels in each.
    """
    reach = np.abs(np.stack([a, b], axis=1))
    count = int(np.ceil(np.log2(max(float(np.max(reach / h[:, None])), 1.0)))) + 1
    steps = np.ldexp(h[:, None], np.arange(count))  # h doubled i times, exactly
    row = np.concatenate([a[:, None], -steps, np.zeros((len(h), 1)), steps, b[:, None]], axis=1)
    valid = np.concatenate(
        [a[:, None] < 0.0, steps < 0.75 * reach[:, :1], np.ones((len(h), 1), bool), steps < 0.75 * reach[:, 1:],
         b[:, None] > 0.0],
        axis=1,
    )
    edges = np.sort(np.where(valid, row, np.inf), axis=1)
    return edges, np.sum(valid, axis=1) - 1


def _pyramid_tiles(c, lo, hi, e, scale=None):
    """Initial tiles of the pyramids with apex c[i] over the faces of [lo[i], hi[i]], every row i.

    A tile is a box in (v, d) coordinates: v in [0, 1] maps to the ray
    parameter u = v^(1/e), and d = p' - c' is the lateral offset of the face
    point p from the foot of the perpendicular, graded from the foot at the
    pyramid's height h.  With a ``scale`` (one per row) the v axis is cut
    where u halves from 1 down to scale / D, D the distance from c to the
    lateral panel's nearest face point.  Returns (a, b, axis, offset, box):
    tile corners (T, N), the face's axis k, its offset p_k - c_k (|.| = h)
    and the tile's row.  A row's tiles are consecutive and in the order a
    one-row call makes them: by face (axis k, lo before hi), a face's
    panels in C order, a panel's v cuts upward.
    """
    N = c.shape[1]
    parts = []
    for k in range(N):
        for face in (lo[:, k], hi[:, k]):
            live = np.flatnonzero(face != c[:, k])
            if not len(live):
                continue
            offset = face[live] - c[live, k]
            # the v axis is one panel; each lateral axis j is graded about the foot
            cuts = [(np.tile([0.0, 1.0], (len(live), 1)), np.ones(len(live), dtype=int))]
            cuts += [
                _edges_about_foot(lo[live, j] - c[live, j], hi[live, j] - c[live, j], np.abs(offset))
                for j in range(N)
                if j != k
            ]
            panels = np.column_stack([count for _, count in cuts])
            # every apex's panel indices in C order: the widest grid, cut to the apex's counts
            grid = _grid_nodes([np.arange(n) for n in np.max(panels, axis=0)])
            row, index = np.nonzero(np.all(grid < panels[:, None, :], axis=-1))
            i = grid[index]
            a = np.column_stack([edges[row, i[:, j]] for j, (edges, _) in enumerate(cuts)])
            b = np.column_stack([edges[row, i[:, j] + 1] for j, (edges, _) in enumerate(cuts)])
            parts.append((a, b, np.full(len(row), k), offset[row], live[row]))
    tiles = tuple(np.concatenate(part) for part in zip(*parts))
    # grouped by row; the stable sort keeps a row's faces in the order above
    order = np.argsort(tiles[4], kind="stable")
    a, b, axis, offset, box = (t[order] for t in tiles)
    if scale is not None:
        near = np.hypot(np.abs(offset), np.linalg.norm(np.maximum(np.maximum(a[:, 1:], -b[:, 1:]), 0.0), axis=-1))
        halvings = np.maximum(np.ceil(np.log2(near / scale[box])), 0.0).astype(int)
        tile = np.repeat(np.arange(len(a)), halvings + 1)
        cut = np.arange(len(tile)) - np.repeat(np.cumsum(halvings + 1) - halvings - 1, halvings + 1)
        top = 2.0 ** (-e * (halvings[tile] - cut))
        a, b, axis, offset, box = (t[tile] for t in (a, b, axis, offset, box))
        a[:, 0] = np.where(cut == 0, 0.0, top * 2.0**-e)
        b[:, 0] = top
    return a, b, axis, offset, box


def _tile_sums(params, x, c, e, tiles, f=None):
    """GL(2n) value, |GL(2n) - GL(n)| estimate and split axis of each tile.

    ``x`` and ``c`` hold each tile's evaluation point and apex, (T, N).  The
    kernel takes the true x; the nodes are y = c + u P, P = p - c, and
    with delta = c - x, |y - x|^2 = u^2 (h^2 + |d|^2) + |delta|^2 +
    2 u delta.P, each term >= 0 as c is the box point nearest x.  ``f``,
    if given, multiplies the kernel at y; without it (the mass, whose apex
    is x) delta is 0 and only y1 is formed.  The split axis is the one whose
    marginal has the largest top two Legendre coefficients.  Every sum is
    a row sum over one tile's nodes, so a tile's results do not depend on
    the tiles evaluated with it.
    """
    N = params.N
    nodes, w_high, w_low, modes = _tile_rule(N)
    m = modes.shape[1]
    a, b, axis, offset = tiles[:4]
    h = np.abs(offset)
    half = 0.5 * (b - a)
    z = (0.5 * (a + b))[:, None, :] + half[:, None, :] * nodes
    u = z[..., 0] ** (1.0 / e)
    d = z[..., 1:]
    r2 = u * u * (h[:, None] ** 2 + np.sum(d * d, axis=-1))
    if f is None:  # the mass, apex at x (box_green_mass): only y1 is needed
        dp1 = np.where((axis == 0)[:, None], offset[:, None], d[..., 0]) if N > 1 else offset[:, None]
        y1 = c[:, :1] + u * dp1
    else:  # P on the face axis is the offset, on the other axes d in order
        face = np.broadcast_to(offset[:, None, None], d.shape[:-1] + (1,))
        j = np.arange(N)
        column = np.where(j == axis[:, None], 0, j + (j < axis[:, None]))
        P = np.take_along_axis(np.concatenate([face, d], axis=-1), column[:, None, :], axis=-1)
        delta = c - x
        r2 = r2 + (np.sum(delta * delta, axis=-1)[:, None] + 2.0 * u * np.sum(P * delta[:, None, :], axis=-1))
        y = c[:, None, :] + u[..., None] * P
        y1 = y[..., 0]
    # dy = h u^(N-1) du dd and du = u^(1-e)/e dv
    jac = (h * np.prod(half, axis=-1) / e)[:, None] * u ** (N - e)
    g = _green_from_psi(params, r2, y1, 4.0 * x[:, :1]) * jac
    if f is not None:
        g = g * f(y)
    grid = g[:, : m**N] * w_high
    high = np.sum(grid, axis=-1)
    low = np.sum(g[:, m**N :] * w_low, axis=-1)
    grid = grid.reshape((len(a),) + (m,) * N)
    marginals = [np.sum(grid, axis=tuple(i + 1 for i in range(N) if i != j)) for j in range(N)]
    tails = [np.sum(np.abs(np.sum(marginal[:, None, :] * modes, axis=-1)), axis=-1) for marginal in marginals]
    return high, np.abs(high - low), np.argmax(np.stack(tails, -1), axis=-1)


def _box_integral(params, x, lo, hi, spec, f=None):
    """(values, errors) of the integrals of G(x, y) f(y) dy over boxes [lo, hi], lo1 >= 0.

    One box per row of ``x``, ``lo`` and ``hi`` ((n, N); (N,) is one box).
    Duffy pyramids (M. G. Duffy, SIAM J. Numer. Anal. 19, 1982) with apex
    c, the box point nearest x: one per face not holding c, y = c + u (p - c)
    for p on the face, and u = v^(1/e), e = 2s when N > 2s (else 1), removes
    the u^(2s-1) singularity of an apex at x.  A density's length scale is
    unknown, so its tiles are also graded toward c, down to the smallest
    nonzero face height or |x - c|.  The tiles of each box refine through
    ``_refine``, the box their owner, a tile splitting along its roughest
    axis; a pass evaluates the new tiles of every box in chunks of about
    ``_TILE_CHUNK`` kernel values, and each box's value and error are
    bit-identical to its one-box call.  A density that jumps inside a box
    converges slowly.  Raises ``ToleranceNotMet``, carrying the estimate and
    the error of the first box that still misses its tolerance.
    """
    N, s = params.N, params.s
    e = 2.0 * s if N > 2.0 * s else 1.0
    x, lo, hi = (np.reshape(v, (-1, N)) for v in (x, lo, hi))
    n = len(x)
    c = np.clip(x, lo, hi)
    scale = None
    if f is not None:
        lengths = np.column_stack([np.abs(lo - c), np.abs(hi - c), np.linalg.norm(c - x, axis=-1)])
        scale = np.min(lengths, axis=1, where=lengths > 0.0, initial=np.inf)

    def evaluate(box, *tiles):
        return _tile_sums(params, x[box], c[box], e, tiles, f)

    def bisect(box, a, b, axis, offset, _, __, roughest):
        # along each tile's roughest axis
        at = (np.arange(len(box)), roughest)
        b_left, a_right = b.copy(), a.copy()
        b_left[at] = a_right[at] = 0.5 * (a[at] + b[at])
        pairs = ((box, box), (a, a_right), (b_left, b), (axis, axis), (offset, offset))
        return tuple(np.concatenate(pair) for pair in pairs)

    a, b, axis, offset, box = _pyramid_tiles(c, lo, hi, e, scale)
    total, err, live = _refine(
        (box, a, b, axis, offset), n, spec, evaluate, bisect, _TILE_CHUNK // len(_tile_rule(N)[0])
    )
    missed = np.flatnonzero(live)
    if len(missed):
        i = missed[0]
        raise ToleranceNotMet(
            f"box integral error {err[i]:.3e} exceeds tolerance",
            estimate=float(total[i]),
            error=float(err[i]),
        )
    return total, err


def box_green_mass(params: FracParams, x, lo, hi, spec: QuadratureSpec | None = None):
    """int over the box [lo, hi] of G_halfspace(x, y) dy, x in the closed box.

    ``x``, ``lo`` and ``hi`` are one box, shape (N,), or n boxes, one per
    row of shape (n, N), and return a float or an array of n values.  The
    rows go to one call of the box engine (``_box_integral``) with their
    apexes at x and no density; each box keeps its own tolerance and
    refinement, so its value is bit-identical to its one-box call.  Every
    row is checked before any evaluation: ``ValueError`` unless the three
    have one shape, (N,) or (n, N), lo < hi and x is in the closed box.
    Raises ``ToleranceNotMet`` carrying the estimate and the error of the
    first box that misses ``spec``.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    x, lo, hi = (np.asarray(v, dtype=float) for v in (x, lo, hi))
    if not (x.shape == lo.shape == hi.shape and x.ndim in (1, 2) and x.shape[-1] == params.N):
        raise ValueError("x, lo and hi need one shape, (N,) or (n, N)")
    _finite(x, lo, hi)
    if np.any(lo >= hi):
        raise ValueError("box needs lo < hi in every coordinate")
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("apex x must lie in the closed box")
    if not x.size:  # zero rows
        return np.empty(0)
    values = _box_integral(params, x, lo, hi, spec)[0]
    return float(values[0]) if x.ndim == 1 else values


def halfspace_green_integral(
    params: FracParams,
    f,
    x,
    spec: QuadratureSpec | None = None,
    *,
    box,
):
    """int over the box ``box`` = (lo, hi), cut to y1 >= 0, of G(x,y) f(y) dy.

    x, lo and hi have shape (N,), and x may lie outside the box; the box
    engine (``_box_integral``) raises ``ToleranceNotMet``, carrying the
    estimate and the error, when its error misses ``spec``.  Integrate a
    density that jumps inside the box over the pieces where it is smooth.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9)
    x = _point(params, x)
    lo, hi = (np.array(v, dtype=float) for v in box)
    if lo.shape != x.shape or hi.shape != x.shape:
        raise ValueError("box corners need shape (N,)")
    _finite(lo, hi)
    lo[0] = max(lo[0], 0.0)
    if np.any(lo >= hi):
        raise ValueError("box needs lo < hi in every coordinate, and hi1 > 0")
    return float(_box_integral(params, x, lo, hi, spec, f)[0][0])


# ---------------------------------------------------------------------------
# strip mass


def strip_mass(params: FracParams, lam: float, x, spec: QuadratureSpec | None = None):
    """int over the slab {0 < y1 < lam} of G_halfspace(x, y) dy, 0 < x1 < lam.

    The mass depends on s, lam and x1 only:

        int over R^(N-1) of G_N((x1, x'), (y1, y')) dy' = G_1(x1, y1),

    with G_1 the half-line Green function of ``FracParams(1, s)``: the
    half-space is invariant under tangential translations, and on functions
    of x1 alone the symbol |xi|^(2s) acts as the one-dimensional
    |xi1|^(2s).  So the slab is [0, lam] of the half-line: one two-row
    ``_adaptive_panels`` call, the rows being the rays from x1 to lam and
    to 0, halved toward x1 as ``ball_green_integral``'s rays are, the one
    toward y1 = 0 ending in the weight y1^s (G_1 is y1^s times an analytic
    function there).  ``x`` must have shape (N,).  Raises
    ``ToleranceNotMet`` as ``ball_green_integral`` does.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    x1 = float(_point(params, x)[0])
    if not (0.0 < x1 < lam < math.inf):
        raise ValueError("strip_mass needs 0 < x1 < lam, lam finite")
    line = FracParams(1, params.s)
    alpha, depth = _end_rule_at_x(1, params.s, spec)
    sign = np.array([1.0, -1.0])  # the rays toward y1 = lam and toward y1 = 0

    def integrand(r, d):
        return _green_from_psi(line, r * r, x1 + r * sign[d], 4.0 * x1)

    edges = np.array([[lam - x1], [x1]]) * _graded_edges(depth)
    value, err = _adaptive_panels(integrand, edges, spec, (1.0, 1.0), ends=(alpha, [0.0, params.s]))
    return _checked(value[0], err[0], spec, "strip mass")
