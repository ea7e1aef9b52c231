"""Closed-form kernels: Poisson and Green functions on balls, shifted balls
and the half-space, the H(r,t) reparametrization, the Riesz potential and
the regularized Poisson kernel.

All kernel functions broadcast over trailing point axes: ``x`` and ``y``
are arrays of shape ``(..., N)`` and the returned values have the
broadcast shape ``(...)``.  Every kernel is symmetric in (x, y) exactly in
floating point, vanishes outside its domain, and raises
:class:`DiagonalSingularity` instead of overflowing when asked for a value
on the diagonal inside the domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

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
    "poisson_shifted_ball",
    "green_ball",
    "green_shifted_ball",
    "green_halfspace",
    "h_function",
    "h_function_partials",
    "HDerivatives",
    "reflect_point",
    "riesz_constant",
    "riesz_potential",
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
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class HalfSpace:
    """Open half-space x1 > 0."""


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
        out.append(a)
    return out


def _dist2(x, y):
    d = x - y
    return np.sum(d * d, axis=-1)


# ---------------------------------------------------------------------------
# Poisson kernels


def poisson_ball(params: FracParams, R: float, x, y):
    """Exit density C ((R^2-|x|^2)/(|y|^2-R^2))^s |x-y|^(-N); zero unless |x|<R<|y|."""
    x, y = _as_points(params, x, y)
    C = poisson_constant_C(params)
    s, N = params.s, params.N
    x2 = np.sum(x * x, axis=-1)
    y2 = np.sum(y * y, axis=-1)
    d2 = _dist2(x, y)
    live = (x2 < R * R) & (y2 > R * R)
    num = np.where(live, R * R - x2, 1.0)
    den = np.where(live, y2 - R * R, 1.0)
    d2safe = np.where(live, d2, 1.0)
    val = C * (num / den) ** s * d2safe ** (-N / 2.0)
    out = np.where(live, val, 0.0)
    return float(out) if out.ndim == 0 else out


def poisson_shifted_ball(params: FracParams, R: float, x, y):
    """Poisson kernel of the ball centered at P_R = (R, 0, ..., 0)."""
    x, y = _as_points(params, x, y)
    p = shifted_center(params.N, R)
    return poisson_ball(params, R, x - p, y - p)


# ---------------------------------------------------------------------------
# Green functions


def _green_from_psi(params: FracParams, d2, psi):
    """(k/2) |x-y|^(2s-N) I(psi), with the exact log form when N = 1 = 2s.

    ``d2`` is |x-y|^2; entries with psi <= 0 give 0.
    """
    s, N = params.s, params.N
    psi = np.maximum(psi, 0.0)
    if params.regime is Regime.N_EQ_2S:
        # (1/pi) log(sqrt(psi) + sqrt(1+psi)); |x-y|^(2s-N) = 1
        return np.arcsinh(np.sqrt(psi)) / np.pi
    k = green_constant_k(params)
    ivals = incomplete_kernel_integral(params, psi)
    return 0.5 * k * d2 ** ((2.0 * s - N) / 2.0) * ivals


def _raise_if_diagonal(live, d2):
    bad = live & (d2 == 0.0)
    if np.any(bad):
        raise DiagonalSingularity("Green kernel requested on the diagonal x = y")


def green_ball(params: FracParams, R: float, x, y):
    """Green function of the ball B_R; zero if either point leaves the closed ball.

    The kernel-integral form with psi = (R^2-|x|^2)(R^2-|y|^2)/(R^2 |x-y|^2)
    (for N = 1 = 2s, ``_green_from_psi``'s log form).
    """
    x, y = _as_points(params, x, y)
    x2 = np.sum(x * x, axis=-1)
    y2 = np.sum(y * y, axis=-1)
    d2 = _dist2(x, y)
    live = (x2 < R * R) & (y2 < R * R)
    _raise_if_diagonal(live, d2)
    d2safe = np.where(live, d2, 1.0)
    psi = np.where(live, (R * R - x2) * (R * R - y2) / (R * R * d2safe), 0.0)
    out = np.where(live, _green_from_psi(params, d2safe, psi), 0.0)
    return float(out) if out.ndim == 0 else out


def green_shifted_ball(params: FracParams, R: float, x, y):
    """Green function of B_R^+ via the cancellation-free form of psi.

    psi = (2 x1 - |x|^2/R)(2 y1 - |y|^2/R)/|x-y|^2 stays accurate as
    R -> infinity, where the centered form loses all digits.
    """
    x, y = _as_points(params, x, y)
    x2 = np.sum(x * x, axis=-1)
    y2 = np.sum(y * y, axis=-1)
    qx = 2.0 * x[..., 0] - x2 / R
    qy = 2.0 * y[..., 0] - y2 / R
    d2 = _dist2(x, y)
    live = (qx > 0.0) & (qy > 0.0)
    _raise_if_diagonal(live, d2)
    d2safe = np.where(live, d2, 1.0)
    psi = np.where(live, qx * qy / d2safe, 0.0)
    out = np.where(live, _green_from_psi(params, d2safe, psi), 0.0)
    return float(out) if out.ndim == 0 else out


def green_halfspace(params: FracParams, x, y):
    """Half-space Green function with psi = 4 x1 y1 / |x-y|^2.

    Zero when either point sits on or beyond the boundary x1 = 0;
    symmetric; invariant under common tangential translations.
    """
    x, y = _as_points(params, x, y)
    x1 = x[..., 0]
    y1 = y[..., 0]
    d2 = _dist2(x, y)
    live = (x1 > 0.0) & (y1 > 0.0)
    _raise_if_diagonal(live, d2)
    d2safe = np.where(live, d2, 1.0)
    psi = np.where(live, 4.0 * x1 * y1 / d2safe, 0.0)
    out = np.where(live, _green_from_psi(params, d2safe, psi), 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# H(r, t) reparametrization: G_halfspace(x,y) = H(|x-y|^2, 4 x1 y1)


def h_function(params: FracParams, r, t):
    """H(r,t) = r^(s - N/2) I(t/r) for r > 0, t >= 0."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("H(r,t) requires r > 0")
    if np.any(t < 0.0):
        raise ValueError("H(r,t) requires t >= 0")
    out = _green_from_psi(params, r, t / r)
    return float(out) if np.ndim(out) == 0 else out


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
    d_t = +inf, d_rt = -inf.  Requires r > 0 and t >= 0.
    """
    value = h_function(params, r, t)  # raises ValueError on r <= 0 or t < 0
    s, half_n = params.s, params.N / 2.0
    r, t = np.float64(r), np.float64(t)  # 0.0 ** (s - 1) is inf, not ZeroDivisionError
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
# Riesz potential (fundamental solution)


def riesz_constant(params: FracParams) -> float:
    """Signed Riesz normalization Gamma(N/2-s) / (4^s pi^(N/2) Gamma(s)).

    Positive for N > 2s; negative for N = 1 < 2s, which produces the
    -C |x-y|^(2s-1) branch with C > 0.  Not used for N = 1 = 2s.
    """
    from scipy import special as _spec
    N, s = params.N, params.s
    return _spec.gamma(N / 2.0 - s) / (4.0**s * np.pi ** (N / 2.0) * _spec.gamma(s))


def riesz_potential(params: FracParams, x, y):
    """Fundamental-solution kernel of (-Delta)^s evaluated at (x, y), x != y."""
    x, y = _as_points(params, x, y)
    d2 = _dist2(x, y)
    if np.any(d2 == 0.0):
        raise DiagonalSingularity("Riesz potential requested on the diagonal x = y")
    s, N = params.s, params.N
    if params.regime is Regime.N_EQ_2S:
        out = np.log(1.0 / np.sqrt(d2)) / np.pi
    else:
        out = riesz_constant(params) * d2 ** ((2.0 * s - N) / 2.0)
    return float(out) if np.ndim(out) == 0 else out


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
