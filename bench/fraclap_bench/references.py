"""Independent references, evaluated outside the timed region.

The kernel references work at 30 significant digits with mpmath and use a
closed form per regime of the kernel integral
I(t) = int_0^t z^(s-1) (1+z)^(-N/2) dz:

* N > 2s: the unregularized incomplete Beta B(t/(1+t); s, N/2 - s);
* N = 1 = 2s: 2 asinh(sqrt(t));
* N = 1 < 2s: (t^s / s) 2F1(1/2, s; s+1; -t).

``mp.quad`` is deliberately not used: at default precision it is itself off
by about 2e-5 near t = 1e6.  Nothing here imports fraclap, so a defect in
the library cannot leak into its own reference.
"""
from __future__ import annotations

import math

import mpmath as mp

DPS = 30


def kernel_integral_betainc(N: int, s: float, t: float):
    """I(t) for N > 2s as an incomplete Beta function (an mpf)."""
    with mp.workdps(DPS):
        s_, t_ = mp.mpf(s), mp.mpf(t)
        return mp.betainc(s_, mp.mpf(N) / 2 - s_, 0, t_ / (1 + t_))


def kernel_integral_log(t: float):
    """I(t) for N = 1 = 2s."""
    with mp.workdps(DPS):
        return 2 * mp.asinh(mp.sqrt(mp.mpf(t)))


def kernel_integral_hyp(s: float, t: float):
    """I(t) for N = 1 by the Euler integral of 2F1; valid for every s."""
    with mp.workdps(DPS):
        s_, t_ = mp.mpf(s), mp.mpf(t)
        return t_**s_ / s_ * mp.hyp2f1(mp.mpf(1) / 2, s_, s_ + 1, -t_)


def kernel_integral(N: int, s: float, t: float):
    """30-digit I(t) by the closed form of the (N, s) regime."""
    if N > 2 * s:
        return kernel_integral_betainc(N, s, t)
    if N == 1 and s == 0.5:
        return kernel_integral_log(t)
    return kernel_integral_hyp(s, t)


def green_constant(N: int, s: float):
    """k = 2 Gamma(N/2) / (4^s pi^(N/2) Gamma(s)^2) at 30 digits."""
    with mp.workdps(DPS):
        s_, h = mp.mpf(s), mp.mpf(N) / 2
        return 2 * mp.gamma(h) / (4**s_ * mp.pi**h * mp.gamma(s_) ** 2)


def green_halfspace(N: int, s: float, x, y):
    """Half-space Green function G(x, y) at 30 digits from float coordinates.

    G = (k/2) |x-y|^(2s-N) I(4 x1 y1 / |x-y|^2), and (1/pi) asinh(sqrt(psi))
    when N = 1 = 2s.  Zero when either point is off the open half-space.
    """
    with mp.workdps(DPS):
        xs = [mp.mpf(float(v)) for v in x]
        ys = [mp.mpf(float(v)) for v in y]
        if xs[0] <= 0 or ys[0] <= 0:
            return mp.mpf(0)
        d2 = sum((a - b) ** 2 for a, b in zip(xs, ys))
        psi = 4 * xs[0] * ys[0] / d2
        if N == 1 and s == 0.5:
            return mp.asinh(mp.sqrt(psi)) / mp.pi
        s_ = mp.mpf(s)
        return green_constant(N, s) / 2 * d2 ** ((2 * s_ - N) / 2) * kernel_integral(N, s, psi)


def relative_error(value: float, reference) -> float:
    """|value - reference| / |reference| in double precision."""
    ref = float(reference)
    return abs(float(value) - ref) / abs(ref)


def getoor_constant(N: int, s: float) -> float:
    """(-Delta)^s (1 - |x|^2)_+^s inside the unit ball: 4^s Gamma(1+s) Gamma(N/2+s) / Gamma(N/2)."""
    return 4.0**s * math.gamma(1.0 + s) * math.gamma(N / 2.0 + s) / math.gamma(N / 2.0)


def ball_solution(N: int, s: float, r2: float) -> float:
    """Exact solution of (-Delta)^s u = 1 in B_1, u = 1 outside, at |x|^2 = r2 < 1.

    u = 1 + (1 - |x|^2)^s / getoor_constant: the exterior Poisson integral of
    1 is 1 and the Green integral of 1 is Getoor's profile.
    """
    return 1.0 + (1.0 - r2) ** s / getoor_constant(N, s)
