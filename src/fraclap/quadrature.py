"""Singular-integral quadrature: the pointwise fractional Laplacian, ball and
half-space Green integrals, exterior Poisson integrals and strip masses.

Two engines integrate the Green kernels.  The polar-ray engine
``_ray_integral`` serves the ball integral and the strip mass, whose rays
all start at x: at each angular level of a sphere rule ``_adaptive_panels``
integrates all (direction, radial panel) pairs in one array, a 16-point
Gauss rule per panel checked against the 8-point one, the worst panels
bisected against one summed tolerance.  A ray's end panels carry
Gauss-Jacobi weights from the one rule table ``core._gj``: (r - a)^(2s-1)
for the |x-y|^(2s-N) singularity at x, and (t_exit - r)^beta where the ray
leaves the domain (beta = s at the sphere and at y1 = 0).  Levels double
until two agree; the error is the final level's panel error plus the last
level difference.  The box engine ``_box_integral`` serves every
half-space box (``box_green_mass``, ``halfspace_green_integral``): Duffy
pyramids with their apex at the box point nearest x, tiled and bisected
against GL(n)/GL(2n) estimates.  ``exterior_poisson_integral`` takes the
peak of its kernel |x - rho w|^(-N) out of the sphere rule: the kernel's
angular mass is known in closed form, so only g(rho w) - g(rho x/|x|) is
summed over directions.  ``frac_laplacian_point`` runs
``_adaptive_panels`` and ``_angular_converge`` on the symmetrized second
difference, with a Taylor stub at 0 and an exact-or-bounded tail.
``strip_mass`` is [0, lam] of the one-dimensional half-line for every N.

Every integrator returns a value with an error within its contract or
raises ``ToleranceNotMet`` carrying the estimate and the error: the ray,
exterior and fractional-Laplacian integrals when the error exceeds
100 x tolerance, the box engine when its summed estimate misses the
tolerance after ``max_refinements`` passes.  Batched evaluations take a
bounded number of nodes at a time (``_RAY_CHUNK``, ``_TILE_CHUNK``).
Field callables must accept ``(..., N)`` arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    FracParams,
    _gj,
    _gj_left,
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

_SMOOTHNESS = ("C2", "continuous", "grid-sampled")


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
        return max(self.abs_tol, self.rel_tol * abs(scale))


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


def constant_field(value: float, smoothness: str = "C2") -> ScalarField:
    value = float(value)
    return ScalarField(
        func=lambda pts: np.full(np.asarray(pts).shape[:-1], value),
        smoothness=smoothness,
        bound=abs(value),
    )


# ---------------------------------------------------------------------------
# panel engines

def _panel_nodes(a, b, n):
    x, w = _gl(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * x
    weights = half[..., None] * w
    return nodes, weights


_RAY_CHUNK = 1 << 12  # integrand nodes per call of a ray rule; bounds its arrays


def _adaptive_panels(fvec, edges, spec: QuadratureSpec, weights=(1.0,), ends=(0.0, 0.0), n_low=8, n_high=16):
    """Adaptive Gauss panels on one or more rays.

    ``edges`` holds one row of panel edges per ray direction (a 1-D array
    is one direction) and ``weights`` the directions' angular weights;
    ``fvec(r, d)`` evaluates the integrand at radial nodes ``r`` on the
    directions with indices ``d`` (1-D arrays of at most ``_RAY_CHUNK``
    nodes).  ``ends = (alpha, beta)``, scalars or one value per row, are
    the integrand's endpoint exponents: a row's first panel [a, b]
    integrates with the Gauss-Jacobi rule for the weight (r - a)^alpha and
    its last with the one for (b - r)^beta, the weight divided out
    (``_gj``), so every panel is a plain sum of f(r_i) w_i.  Each panel's
    n_high-point value and |n_high - n_low| error are scaled by its
    direction's weight, and the panels above a quarter of the mean error
    are bisected until the summed error meets the spec; a bisected end
    panel passes its weight to the child that holds that end, and the
    other child is a Gauss-Legendre panel.  Returns (value, error); raises
    ``ToleranceNotMet`` if the error is still above 100 x tolerance after
    ``spec.max_refinements`` passes.
    """
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    weights = np.asarray(weights, dtype=float)
    rows = len(edges)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    d = np.repeat(np.arange(rows), edges.shape[1] - 1)
    # a panel's rule indexes (0, *alphas) at its left end and (0, *betas) at its right
    (alphas, ia), (betas, ib) = (
        np.unique(np.broadcast_to(np.asarray(e, dtype=float), (rows,)), return_inverse=True) for e in ends
    )
    nb = len(betas) + 1
    rule = np.where(a == edges[d, 0], ia[d] + 1, 0) * nb + np.where(b == edges[d, -1], ib[d] + 1, 0)
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
            nodes = (0.5 * (pa + pb))[:, None] + half[:, None] * u[pr]
            f = fvec(nodes.ravel(), np.repeat(pd, n_low + n_high)).reshape(nodes.shape)
            vl = np.sum(f[:, :n_low] * w_low[pr], axis=-1)
            vh = np.sum(f[:, n_low:] * w_high[pr], axis=-1)
            w = weights[pd] * half
            vals.append(vh * w)
            errs.append(np.abs(vh - vl) * w)
        return np.concatenate(vals), np.concatenate(errs)

    vals, errs = _eval(a, b, d, rule)
    for _ in range(spec.max_refinements):
        total = float(np.sum(vals))
        err = float(np.sum(errs))
        if err <= spec.tolerance(total):
            return total, err
        # bisect every panel holding more than its share of the error
        split = errs >= max(0.25 * err / len(a), 1e-300)
        if not np.any(split):
            split = errs == errs.max()
        sa, sb, sd, sr = a[split], b[split], d[split], rule[split]
        smid = 0.5 * (sa + sb)
        # the left child keeps the left end's weight, the right child the right end's
        children = (
            np.concatenate([sa, smid]),
            np.concatenate([smid, sb]),
            np.concatenate([sd, sd]),
            np.concatenate([sr - sr % nb, sr % nb]),
        )
        nv, ne = _eval(*children)
        a, b, d, rule = (np.concatenate([old[~split], new]) for old, new in zip((a, b, d, rule), children))
        vals = np.concatenate([vals[~split], nv])
        errs = np.concatenate([errs[~split], ne])
    total = float(np.sum(vals))
    err = float(np.sum(errs))
    if err <= 100.0 * spec.tolerance(total):
        return total, err
    raise ToleranceNotMet(
        f"adaptive quadrature stalled at error {err:.3e}", estimate=total, error=err
    )


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
    panels stall or when the error (the final level's panel error plus the
    last level difference plus the tail bound) exceeds 100 x tolerance.
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
        outer = float(wts @ stub) + shell * tail
        try:
            mid, err = _adaptive_panels(
                lambda r, d: d2(r, d) * r ** (-1.0 - 2.0 * s), np.tile(edges, (len(dirs), 1)), spec, wts
            )
        except ToleranceNotMet as exc:
            raise ToleranceNotMet(str(exc), estimate=outer + exc.estimate, error=exc.error) from exc
        return outer + mid, err

    def levels(r_far):
        return _angular_converge(lambda m: run_level(m, r_far), spec, 4 if N == 2 else 2, 5 if N > 1 else 0)

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


def _angular_converge(run_level, spec, start, max_doublings):
    """Run ``run_level(m) -> (value, error)`` at doubling angular resolutions
    until two levels agree to 10 x tolerance.

    Returns the last value and its error: the last level's own error plus
    its difference from the level before.
    """
    value, err = run_level(start)
    diff = 0.0
    for _ in range(max_doublings):
        start *= 2
        prev = value
        value, err = run_level(start)
        diff = abs(value - prev)
        if diff <= 10.0 * spec.tolerance(value):
            break
    return value, err + diff


def _checked(value, err, spec, what):
    """``value``, unless ``err`` exceeds 100 x tolerance: then ``ToleranceNotMet``."""
    if err > 100.0 * spec.tolerance(value) + 1e-9:
        raise ToleranceNotMet(f"{what} error {err:.2e} exceeds tolerance", estimate=value, error=err)
    return value


def _ray_integral(params, exits, integrand, spec):
    """int over directions w and r in [0, t_exit(w)] of integrand(r, w) r^(N-1) dr dw.

    The polar-ray engine; every ray starts at x.  ``exits(dirs)`` gives each
    direction's exit distance t_exit and the exponent beta (scalar or per
    direction) of the integrand's (t_exit - r)^beta layer there.  Panels
    are halved toward x, the first weighted by r^alpha (``_end_rule_at_x``)
    and the last by (t_exit - r)^beta; one ``_adaptive_panels`` call takes
    all (direction, panel) pairs of an angular level.  Levels double from
    m = 8 to m = 128; N = 1 runs one level, its two-point rule being exact.
    Returns (value, error): the final level's summed panel error plus its
    difference from the level before.
    """
    N = params.N
    alpha, depth = _end_rule_at_x(N, params.s, spec)
    graded = _graded_edges(depth)

    def run_level(m):
        dirs, wts = _sphere_rule(N, m)
        t_exit, beta = exits(dirs)
        return _adaptive_panels(
            lambda r, d: integrand(r, dirs[d]) * r ** (N - 1.0),
            t_exit[:, None] * graded,
            spec,
            wts,
            ends=(alpha, beta),
        )

    return _angular_converge(run_level, spec, 8, 4 if N > 1 else 0)


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
    x = np.asarray(x, dtype=float)
    h = R * R - float(np.dot(x, x))
    if h <= 0.0:
        raise ValueError("evaluation point must lie inside the ball")

    def roots(c):
        # t_exit and -t_neg of r^2 + 2 c r - h, each without cancellation
        q = np.sqrt(c * c + h) + np.abs(c)
        return np.where(c > 0.0, h / q, q), np.where(c > 0.0, q, h / q)

    def exits(dirs):
        return roots(dirs @ x)[0], params.s

    def integrand(r, omega):
        t_exit, t_back = roots(omega @ x)
        live = (r < t_exit) & (r > 0.0)
        r2 = np.where(live, r * r, 1.0)
        psi = np.where(live, h * (t_exit - r) * (r + t_back) / (R * R * r2), 0.0)
        return np.where(live, _green_from_psi(params, r2, psi), 0.0) * f(x + r[:, None] * omega)

    value, err = _ray_integral(params, exits, integrand, spec)
    return _checked(value, err, spec, "ball Green integral")


# ---------------------------------------------------------------------------
# exterior Poisson integral


def exterior_poisson_integral(
    params: FracParams, R: float, g: ScalarField, x, spec: QuadratureSpec | None = None
):
    """int_{|y|>R} Poisson_R(x, y) g(y) dy for x inside B_R.

    One fixed radial rule serves every direction of an angular level: a
    Gauss-Jacobi panel on [R, R + d] with the (rho-R)^(-s) factor taken as
    the weight (it factors exactly out of (rho^2-R^2)^(-s)), geometric
    Gauss-Legendre panels out to a truncation radius, and a kernel-bound
    tail below tolerance.  At each radial node the kernel's angular mass is
    exact (the normalisation of the Poisson kernel, for every N):

        int over S^(N-1) of |x - rho w|^(-N) dw = |S^(N-1)| rho^(2-N) / (rho^2 - |x|^2),

    so the node takes g(rho x^) times that mass, x^ = x/|x| (e_1 at x = 0),
    and the sphere rule integrates only |x - rho w|^(-N) (g(rho w) -
    g(rho x^)).  The kernel peaks toward x^ with width about R - |x|, which
    a uniform rule resolves only at high levels; the remainder vanishes
    there.  For radial data it vanishes everywhere, and the levels differ
    only through the radial rule, which grows with m; for constant and
    1/(1 + |y|^2) data at N = 1, 2, 3, up to |x| = 0.99 R, the first two
    levels already agree and the rule stops at m = 32.  The directions
    are evaluated together, at most ``_RAY_CHUNK`` nodes at a time, and a
    chunk whose remainder is exactly zero skips the kernel.  The
    error (last angular level difference plus the tail bound) above
    100 x tolerance raises ``ToleranceNotMet`` carrying the estimate.
    """
    spec = spec or QuadratureSpec()
    x = np.asarray(x, dtype=float)
    N, s = params.N, params.s
    x2 = float(np.dot(x, x))
    if x2 >= R * R:
        raise ValueError("evaluation point must lie inside the ball")
    if g.bound is None:
        raise ValueError("exterior data needs a bound (weighted integrability tag)")
    C = poisson_constant_C(params)
    pref = C * (R * R - x2) ** s
    p = max(g.decay_exponent, 0.0)
    surface = sphere_surface(N)
    axis = x / math.sqrt(x2) if x2 > 0.0 else np.eye(N)[0]

    # truncation radius: remaining tail below tolerance
    if g.support_radius is not None:
        L = max(2.0 * R, g.support_radius)
        tail_bound = 0.0
    else:
        L = 4.0 * R

        def bound_at(LL):
            geom = (1.0 - math.sqrt(x2) / LL) ** (-N) * (1.0 - (R / LL) ** 2) ** (-s)
            return (
                pref
                * g.bound
                * surface
                * geom
                * (1.0 + LL) ** (-p)
                * LL ** (-2.0 * s)
                / (2.0 * s + p)
            )

        while bound_at(L) > 0.25 * spec.abs_tol and L < 1e30:
            L *= 2.0
        tail_bound = bound_at(L)

    # near-boundary evaluation points need the (rho - R) boundary layer at
    # the scale of their distance to the sphere
    layer = max(R - math.sqrt(x2), 1e-12 * R)

    def run_level(m):
        dirs, wts = _sphere_rule(N, m, antipodal=False)
        n_j = min(16 + m, 96)
        n_gl = min(8 + m // 4, 24)
        u_j, w_j = _gj_left(n_j, s)
        # Jacobi panel [R, R + d]: rho = R + (d/2)(1+u), weight (rho-R)^(-s)
        d0 = min(layer, R)
        rho_j = R + 0.5 * d0 * (1.0 + u_j)

        # geometrically growing panels [R + d, 2R], then [2R, L]
        inner_edges = [R + d0]
        while inner_edges[-1] < 2.0 * R:
            inner_edges.append(min(R + 2.0 * (inner_edges[-1] - R), 2.0 * R))
        n_pan = max(3, int(math.ceil(math.log2(L / (2.0 * R)))) + 1)
        outer = 2.0 * R * (L / (2.0 * R)) ** (np.linspace(0.0, 1.0, n_pan + 1))
        edges = np.unique(np.concatenate([inner_edges, outer]))
        gl_nodes, gl_wts = _panel_nodes(edges[:-1], edges[1:], n_gl)
        rho_g = gl_nodes.ravel()

        # one radial rule for every direction, (rho^2 - R^2)^(-s) rho^(N-1) in its weights
        rho = np.concatenate([rho_j, rho_g])
        w_rho = np.concatenate([
            (0.5 * d0) ** (1.0 - s) * w_j * (rho_j + R) ** (-s),
            gl_wts.ravel() * (rho_g * rho_g - R * R) ** (-s),
        ]) * rho ** (N - 1.0)
        # the peak g(rho x^) times the kernel's exact angular mass, then the
        # sphere rule on the remainder |x - rho w|^(-N) (g(rho w) - g(rho x^))
        g_axis = np.asarray(g(rho[:, None] * axis), dtype=float)
        total = float(w_rho @ (g_axis * surface * rho ** (2.0 - N) / (rho * rho - x2)))
        step = max(1, _RAY_CHUNK // len(rho))
        for i in range(0, len(dirs), step):
            pts = rho[:, None] * dirs[i : i + step, None, :]
            rest = np.asarray(g(pts), dtype=float) - g_axis
            if np.any(rest):  # a zero remainder (radial data) adds exactly 0.0
                kernel = np.sum((x - pts) ** 2, axis=-1) ** (-N / 2.0)
                total += float(wts[i : i + step] @ ((kernel * rest) @ w_rho))
        return pref * total, 0.0  # the fixed radial rule has no error estimate of its own

    value, err = _angular_converge(run_level, spec, 16, 6)
    return _checked(value, err + tail_bound, spec, "exterior integral")


def poisson_extension_field(
    params: FracParams, R: float, g: ScalarField, spec: QuadratureSpec | None = None
) -> ScalarField:
    """The s-harmonic extension of exterior data g into B_R, as a field.

    Inside the ball the value is the exterior Poisson integral of g;
    outside it is g itself.  The field is C-infinity inside.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)

    def func(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, params.N)
        out = np.empty(len(flat))
        for i, x in enumerate(flat):
            if float(np.dot(x, x)) >= R * R:
                out[i] = float(np.asarray(g(x)))
            else:
                out[i] = exterior_poisson_integral(params, R, g, x, spec)
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


@dataclass(frozen=True)
class BoxIntegral:
    value: float
    error: float
    tail_bound: float
    tail_rigorous: bool


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
    detail: bool = False,
):
    """int over the half-space of G(x,y) f(y) dy, truncated to a box.

    Over ``box`` if given, else over the support of f or, for a decay tag,
    a box holding |y| < L with the tail beyond bounded by the explicit
    kernel bound.  ``detail=True`` returns the tile error, that tail bound
    and ``tail_rigorous``: the dropped region lies in |y| >= L, so the
    bound covers it.  x may lie outside the box; the box engine
    (``_box_integral``) raises ``ToleranceNotMet``, carrying the estimate
    and the error, when its error misses ``spec``.  Integrate a density
    that jumps inside the box over the pieces where it is smooth.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9)
    x = np.asarray(x, dtype=float)
    N, p = params.N, f.decay_exponent
    decays = f.support_radius is None and f.bound is not None and p > params.s
    tail, rigorous = 0.0, True
    if box is not None:
        lo, hi = (np.array(v, dtype=float) for v in box)
        # the tail bound covers |y| >= L: rigorous if the box holds that half-ball
        L = max(0.5 * float(np.min(hi - lo)), 2.0 * float(np.linalg.norm(x)) + 1e-9)
        rigorous = decays and bool(lo[0] <= 0.0 and np.all(hi >= L) and np.all(lo[1:] <= -L))
        if decays:
            tail = _halfspace_tail_bound(params, x, f.bound, p, L)
    else:
        if f.support_radius is not None:
            L = float(f.support_radius)
        elif decays:
            L = max(4.0, 4.0 * float(np.linalg.norm(x)))
            while (tail := _halfspace_tail_bound(params, x, f.bound, p, L)) > 0.25 * spec.abs_tol and L < 1e12:
                L *= 2.0
        else:
            raise ValueError("half-space integral needs a support radius or decay exponent > s")
        lo, hi = np.array([0.0] + [-L] * (N - 1)), np.full(N, L)
    lo[0] = max(lo[0], 0.0)
    if np.any(lo >= hi):
        raise ValueError("box needs lo < hi in every coordinate, and hi1 > 0")
    value, err = _box_integral(params, x, lo, hi, spec, f)
    if detail:
        return BoxIntegral(value=value, error=err, tail_bound=tail, tail_rigorous=rigorous)
    return value


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

    def exits(dirs):
        up = dirs[:, 0] > 0.0
        return np.where(up, lam - x1, x1), np.where(up, 0.0, params.s)

    def integrand(r, omega):
        y1 = x1 + r * omega[:, 0]
        live = (y1 > 0.0) & (r > 0.0)
        r2 = np.where(live, r * r, 1.0)
        psi = np.where(live, 4.0 * x1 * y1 / r2, 0.0)
        return np.where(live, _green_from_psi(line, r2, psi), 0.0)

    value, err = _ray_integral(line, exits, integrand, spec)
    return _checked(value, err, spec, "strip mass")
