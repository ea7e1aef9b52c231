"""Closed-form kernels: Poisson and Green functions on balls, shifted balls
and the half-space, the H(r,t) reparametrization and the regularized
Poisson kernel.

All kernel functions broadcast over trailing point axes: ``x`` and ``y``
are arrays of shape ``(..., N)`` and the returned values have the
broadcast shape ``(...)``.  Every kernel is symmetric in (x, y) exactly in
floating point, vanishes outside its domain, and raises
:class:`DiagonalSingularity` instead of overflowing when asked for a value
on the diagonal inside the domain.

Every Green value, here and in ``quadrature`` and ``solver``, is
``_green_body`` on |x-y|^2 and the factors of psi = fx fy / (scale
|x-y|^2): it is the one place where psi and its zero set are formed.
``quadrature`` and ``solver`` reach it through ``_green_from_psi`` with
|x-y|^2 in hand, one call in the calling thread; the public Green kernels
through ``_green_between``, which forms |x-y|^2 from the points.

``_green_between`` is the one pooled pipeline: a batch of at least two
blocks of 2^16 pairs, in a process allowed at least two CPUs, runs in
blocks on a thread pool, one worker per usable CPU (NumPy's ufuncs
release the GIL), each block forming its |x-y|^2, scanning it for the
diagonal and running the body in one pass, bit-identical to one serial
call.  If a block raises, the whole batch runs again in one serial call,
which raises what that call raises.  The pool is ``_pool``'s cached
executor, made on the first split, not at import; a forked child clears
the cache and makes its own.  The workers run only private names, so a
wrapper around a public function sees one call per batch, and only read
the caches of ``core._kernel_fit`` and ``green_constant_k``, which the
calling thread fills before the split.
"""
from __future__ import annotations

import math
import os
from contextvars import copy_context
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import core
from .core import (
    FracParams,
    Regime,
    _gj,
    _gl,
    green_constant_k,
    incomplete_kernel_integral,
    poisson_constant_C,
)

__all__ = [
    "Ball",
    "HalfSpace",
    "DiagonalSingularity",
    "shifted_center",
    "poisson_ball",
    "green_ball",
    "green_shifted_ball",
    "green_halfspace",
    "h_function",
    "h_function_partials",
    "HDerivatives",
    "reflect_point",
    "regularized_poisson",
]


class DiagonalSingularity(ArithmeticError):
    """A kernel was evaluated at x = y inside its domain, where it is +inf."""


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Ball:
    """Origin-centered open ball of radius R."""

    radius: float

    def __post_init__(self):
        _radius(self.radius)


@dataclass(frozen=True)
class HalfSpace:
    """Open half-space x1 > 0."""


def _radius(R):
    """``R`` as a float; ``ValueError`` unless it is positive and finite."""
    R = float(R)
    if not 0.0 < R < math.inf:
        raise ValueError("ball radius must be positive and finite")
    return R


def shifted_center(N: int, R: float):
    p = np.zeros(N)
    p[0] = R
    return p


def _as_points(params, *arrays):
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.ndim == 0 or a.shape[-1] != params.N:
            raise ValueError(
                f"point has wrong dimension: expected trailing axis {params.N}, got shape {a.shape}"
            )
        if not np.isfinite(a).all():
            raise ValueError("point coordinates must be finite")
        out.append(a)
    return out


def _dist2(x, y):
    """|x-y|^2 for points ``x`` and ``y``."""
    return _column_dist2(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0))


def _column_dist2(xs, ys):
    """|x-y|^2 from the coordinate columns: ``xs[i]`` is x[..., i], ``ys[i]`` is y[..., i]."""
    # a sum of columns, 2-5x faster than np.sum(d * d, axis=-1) over the short
    # last axis and bit-identical to it for N < 8, where NumPy adds in order
    d2 = (xs[0] - ys[0]) ** 2
    for xi, yi in zip(xs[1:], ys[1:]):
        d2 = d2 + (xi - yi) ** 2
    return d2


# ---------------------------------------------------------------------------
# Poisson kernels


def poisson_ball(params: FracParams, R: float, x, y):
    """Exit density C ((R^2-|x|^2)/(|y|^2-R^2))^s |x-y|^(-N); zero unless |x|<R<|y|.
    Evaluated as R^(-N) P_1(x/R, y/R), where no square of R over- or underflows."""
    R = _radius(R)
    x, y = (p / R for p in _as_points(params, x, y))
    C = poisson_constant_C(params)
    s, N = params.s, params.N
    x2 = np.sum(x * x, axis=-1)
    y2 = np.sum(y * y, axis=-1)
    d2 = _dist2(x, y)
    live = (x2 < 1.0) & (y2 > 1.0)
    num = np.where(live, 1.0 - x2, 1.0)
    den = np.where(live, y2 - 1.0, 1.0)
    d2safe = np.where(live, d2, 1.0)
    val = C * (num / den) ** s * d2safe ** (-N / 2.0) * R**-N
    out = np.where(live, val, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Green functions


def _green_from_psi(params: FracParams, d2, fx, fy, scale=1.0):
    """(k/2) d2^(s-N/2) I(psi) at psi = fx fy / (scale d2), with the exact log
    form when N = 1 = 2s, where fx > 0, fy > 0 and d2 > 0; 0 elsewhere.

    ``d2`` is |x-y|^2.  One ``_green_body`` call in the calling thread,
    whatever the batch's size.  A NaN psi (from products that overflow)
    raises ``ValueError``.
    """
    return _green_body(params, scale, incomplete_kernel_integral, d2, fx, fy)


def _private_integral(params, t):
    """``incomplete_kernel_integral``'s check and body, for the workers."""
    return core._kernel_integral(params, core._nonnegative(t))


def _green_body(params, scale, integral, d2, fx, fy):
    """``_green_from_psi`` with I(psi) from ``integral(params, psi)``; the
    integral's t >= 0 check finds a NaN psi (inf / inf), raised naming psi.
    The one place where psi and its zero set are formed."""
    s, N = params.s, params.N
    live = (fx > 0.0) & (fy > 0.0) & (d2 > 0.0)
    d2 = np.where(live, d2, 1.0)
    psi = np.where(live, fx * fy / (scale * d2), 0.0)
    try:
        if params.regime is Regime.N_EQ_2S:
            # (1/pi) log(sqrt(psi) + sqrt(1+psi)); |x-y|^(2s-N) = 1
            return np.where(live, np.arcsinh(np.sqrt(core._nonnegative(psi))) / np.pi, 0.0)
        # I(psi) is a temporary, freed before the where allocates the result: on
        # large batches the result then reuses its memory instead of growing the heap
        val = 0.5 * green_constant_k(params) * d2 ** ((2.0 * s - N) / 2.0) * integral(params, psi)
    except ValueError as error:
        raise ValueError("psi = fx fy / (scale |x-y|^2) is NaN: its factors are infinite or overflow") from error
    return np.where(live, val, 0.0)


_BLOCK = 1 << 16  # values per pool task; batches under two blocks run in one serial call


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _pool(workers):
    # one pool per worker count, kept across calls: a pool per call, with fresh
    # threads, read kernel-batch's wall time 1-3 % higher on a shared 2-vCPU host.
    # concurrent.futures loads here, on the first split, not at import: it
    # pulls in logging, 6 ms of the import
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="fraclap-block")


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool object but none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _green_between(params: FracParams, x, y, fx, fy, scale=1.0):
    """``_green_from_psi``'s values at d2 = |x-y|^2 for checked points ``x`` and ``y``.

    ``_green_pairs`` gets the point columns with fx and fy and forms d2
    itself: in one call, or, on a batch of at least two ``_BLOCK``s in a
    process allowed at least two CPUs, in blocks on the module's pool,
    bit-identical to the one call.  A block is a run of whole subarrays
    along the first axis, as many as fit in ``_BLOCK`` values and at least
    one, of views: a broadcast input is never copied to the batch's shape.
    Each block runs in a copy of the caller's context, so that its
    ``np.errstate`` holds there too.  If a block raised, once every block
    is done, ``_green_pairs`` runs over the whole batch in the calling
    thread and raises what one serial call raises.  Raises
    ``DiagonalSingularity`` at x = y where fx > 0 and fy > 0.
    """
    columns = (*np.moveaxis(x, -1, 0), *np.moveaxis(y, -1, 0))
    batch = np.broadcast(columns[0], columns[-1], fx, fy)
    workers = _usable_cpus()
    if batch.size < 2 * _BLOCK or workers < 2:
        out = _green_pairs(params, scale, incomplete_kernel_integral, fx, fy, *columns)
        return float(out) if out.ndim == 0 else out
    from concurrent.futures import wait

    # filled here once; the workers only read the caches
    core._kernel_fit(params)
    green_constant_k(params)
    shape = batch.shape
    views = [np.broadcast_to(a, shape) for a in (fx, fy, *columns)]
    # each worker writes into one output array: concatenating per-block
    # results held a second copy and raised kernel-batch's peak RSS by 8 MB
    out = np.empty(shape)

    def block(rows):
        out[rows] = _green_pairs(params, scale, _private_integral, *(v[rows] for v in views))

    step = max(1, _BLOCK // math.prod(shape[1:]))
    futures = [
        _pool(workers).submit(copy_context().run, block, slice(a, a + step)) for a in range(0, shape[0], step)
    ]
    wait(futures)
    errors = [f.exception() for f in futures if f.exception() is not None]
    if errors:
        _green_pairs(params, scale, incomplete_kernel_integral, fx, fy, *columns)
        raise errors[0]
    return out


def _green_pairs(params, scale, integral, fx, fy, *columns):
    """``_green_body`` at d2 = |x-y|^2 from the N columns of x, then the N of
    y; ``DiagonalSingularity`` at d2 = 0 where fx > 0 and fy > 0."""
    n = len(columns) // 2
    d2 = _column_dist2(columns[:n], columns[n:])
    zero = d2 == 0.0
    if np.any(zero) and np.any(zero & (fx > 0.0) & (fy > 0.0)):
        raise DiagonalSingularity("Green kernel requested on the diagonal x = y")
    return _green_body(params, scale, integral, d2, fx, fy)


def green_ball(params: FracParams, R: float, x, y):
    """Green function of the ball B_R; zero if either point leaves the closed ball.

    The kernel-integral form with psi = (R^2-|x|^2)(R^2-|y|^2)/(R^2 |x-y|^2)
    (for N = 1 = 2s, ``_green_from_psi``'s log form), evaluated as
    R^(2s-N) G_1(x/R, y/R): on B_R, psi's factors overflow from R ~ 1e77.
    """
    R = _radius(R)
    x, y = (p / R for p in _as_points(params, x, y))
    g = _green_between(params, x, y, 1.0 - np.sum(x * x, axis=-1), 1.0 - np.sum(y * y, axis=-1))
    return g * R ** (2.0 * params.s - params.N)


def green_shifted_ball(params: FracParams, R: float, x, y):
    """Green function of B_R^+ via the cancellation-free form of psi.

    psi = (2 x1 - |x|^2/R)(2 y1 - |y|^2/R)/|x-y|^2 stays accurate as
    R -> infinity, where the centered form loses all digits.
    """
    R = _radius(R)
    x, y = _as_points(params, x, y)
    qx = 2.0 * x[..., 0] - np.sum(x * x, axis=-1) / R
    qy = 2.0 * y[..., 0] - np.sum(y * y, axis=-1) / R
    return _green_between(params, x, y, qx, qy)


def green_halfspace(params: FracParams, x, y):
    """Half-space Green function with psi = 4 x1 y1 / |x-y|^2.

    Zero when either point sits on or beyond the boundary x1 = 0;
    symmetric; invariant under common tangential translations.
    """
    x, y = _as_points(params, x, y)
    # views, not a 4 x1 array held through the call: the same psi to the last bit
    return _green_between(params, x, y, x[..., 0], y[..., 0], 0.25)


# ---------------------------------------------------------------------------
# H(r, t) reparametrization: G_halfspace(x,y) = H(|x-y|^2, 4 x1 y1)


def h_function(params: FracParams, r, t):
    """H(r,t) = r^(s - N/2) I(t/r) for 0 < r < inf, t >= 0; ``ValueError`` otherwise."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.all((r > 0.0) & (r < np.inf)):
        raise ValueError("H(r,t) requires 0 < r < inf")
    if not np.all(t >= 0.0):
        raise ValueError("H(r,t) requires t >= 0")
    out = _green_from_psi(params, r, t, 1.0)
    return float(out) if np.ndim(out) == 0 else out


def _h_value(params: FracParams, r, t) -> float:
    """H at NumPy floats r > 0 and 0 <= t < inf: ``_green_from_psi``'s operations
    on one value, to the same bits, without the array path's masks."""
    if not t > 0.0:
        return 0.0
    psi = t / r
    if params.regime is Regime.N_EQ_2S:
        return float(np.arcsinh(np.sqrt(psi)) / np.pi)
    # ndarray ** on a 0-d array, as in the array path: NumPy's power loop, which
    # on an AVX-512 host differs from np.float64 ** (the C library's pow)
    # by 1 ulp at about 5% of arguments
    i_psi = core._kernel_integral_scalar(params, float(psi))
    return float(0.5 * green_constant_k(params) * np.asarray(r) ** ((2.0 * params.s - params.N) / 2.0) * i_psi)


@dataclass(frozen=True)
class HDerivatives:
    value: float
    d_r: float
    d_t: float
    d_rt: float


def h_function_partials(params: FracParams, r: float, t: float) -> HDerivatives:
    """H and its partials in closed form, from I'(z) = z^(s-1) (1+z)^(-N/2):

        d_t  = (k/2) t^(s-1) (r+t)^(-N/2)
        d_rt = -(N/2) d_t / (r+t)
        d_r  = ((s - N/2) H - (k/2) t^s (r+t)^(-N/2)) / r

    with k = ``green_constant_k``.  They hold in all three regimes (at
    N = 1 = 2s, k = 1/pi and they are the derivatives of the arcsinh form).
    At t = 0 the true limits for s < 1 are returned: value = d_r = 0,
    d_t = +inf, d_rt = -inf.  Requires 0 < r < inf and 0 <= t < inf, else
    ``ValueError``: at t = inf, d_r's second term would be 0 * inf, and at
    r = inf a product 0 * inf turns the value or the partials NaN.

    H is ``h_function`` on scalars, the same bits.
    """
    if not 0.0 < r < math.inf:
        raise ValueError("H(r,t) requires 0 < r < inf")
    if not 0.0 <= t < math.inf:
        raise ValueError("H(r,t) partials require 0 <= t < inf")
    s, half_n = params.s, params.N / 2.0
    r, t = np.float64(r), np.float64(t)  # 0.0 ** (s - 1) is inf, not ZeroDivisionError
    value = _h_value(params, r, t)
    kt = 0.5 * green_constant_k(params) * (r + t) ** -half_n
    with np.errstate(divide="ignore"):
        d_t = kt * t ** (s - 1.0)
    d_rt = -half_n * d_t / (r + t)
    d_r = ((s - half_n) * value - kt * t**s) / r
    return HDerivatives(value=value, d_r=float(d_r), d_t=float(d_t), d_rt=float(d_rt))


# ---------------------------------------------------------------------------
# reflection at {x1 = lambda}


def reflect_point(x, lam: float):
    """x -> (2 lambda - x1, x2, ..., xN)."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = 2.0 * lam - x[..., 0]
    return out


# ---------------------------------------------------------------------------
# regularized Poisson kernel


def _bump(r):
    """Unnormalized bump exp(-1/(1-(4r-3)^2)) on (1/2, 1); zero elsewhere."""
    t = 4.0 * np.asarray(r, dtype=float) - 3.0
    inside = np.abs(t) < 1.0
    return np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - t * t, 1.0)), 0.0)


@cache
def _bump_norm():
    """Constant c with integral of c*bump over (1/2,1) equal to 1."""
    # C^infty integrand, flat at both endpoints: high-order GL converges fast
    nodes, weights = _gl(200)
    return 1.0 / (0.25 * np.dot(weights, _bump(0.75 + 0.25 * nodes)))


def regularized_poisson(params: FracParams, eps: float, y):
    """Smooth kernel: bump-averaged Poisson kernels of balls B_r, r in (1/2,1),
    rescaled by eps: value is eps^(-N) * avg(y/eps).

    The radial profile at m = |y/eps| is
    integral over r of chi(r) C r^(2s) (m^2-r^2)^(-s) m^(-N);
    the (m-r)^(-s) endpoint for m < 1 is handled by a Gauss-Jacobi rule
    with the singular weight factored exactly.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    (y,) = _as_points(params, y)
    m = np.sqrt(np.sum((y / eps) ** 2, axis=-1))
    scalar = m.ndim == 0
    m = np.atleast_1d(m)
    s, N = params.s, params.N
    C = poisson_constant_C(params)
    cnorm = _bump_norm()
    out = np.zeros_like(m)

    far = m >= 1.0
    if np.any(far):
        nodes, weights = _gl(64)
        r = 0.75 + 0.25 * nodes  # (1/2, 1)
        mm = m[far][:, None]
        integrand = (
            cnorm * _bump(r)[None, :] * r[None, :] ** (2.0 * s) * (mm * mm - r[None, :] ** 2) ** (-s)
        )
        out[far] = 0.25 * C * (integrand @ weights) * m[far] ** (-N)

    mid = (m > 0.5) & (m < 1.0)
    if np.any(mid):
        # rule for the weight (1-u)^(-s), singular at r = m, with the weight multiplied back in
        nodes, weights = _gj(48, 0.0, -s)
        weights = weights * (1.0 - nodes) ** (-s)
        mi = m[mid]
        half = 0.5 * (mi - 0.5)
        r = 0.5 + half[:, None] * (1.0 + nodes)  # (1/2, m)
        smooth = cnorm * _bump(r) * r ** (2.0 * s) * (mi[:, None] + r) ** (-s)
        out[mid] = half ** (1.0 - s) * C * (smooth @ weights) * mi ** (-N)

    out *= eps ** (-float(N))
    return float(out[0]) if scalar else out
