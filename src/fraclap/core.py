"""Parameters, normalization constants, the kernel integral and the Gauss rules.

Everything here is a closed-form function of the dimension N and the
fractional order s in (0,1).  The three kernel regimes (N above, equal to,
or below 2s) are decided once at parameter construction and drive branch
selection in the kernel modules.  The kernel integral I(t) has closed forms
at s = 1/2; at every other s it is x^s Q(x) or B - u^b (1/b + H(u)), with
two polynomials Q and H fitted once per (N, s) on first use, not at import
(``_kernel_fit``), and no special function per value.  The Gauss-Legendre
and Gauss-Jacobi rule table (``_gl``, ``_gj``) lives here so that
``kernels`` and ``quadrature`` share it.

``scipy.special`` is imported inside the functions that call it, so it
loads on first use.  Importing it pulls in scipy's array-API layer
(``numpy.f2py``, ``numpy.testing``), about 0.4 s of a 0.7 s import of
fraclap and its submodules on a 2-vCPU host, and nothing needs it at
import time.  The constants keep scipy's gamma: ``math.gamma``
differs from scipy's by 1-2 ulp at some quarter-integer arguments.

Nothing here starts a thread: the one pooled pipeline, the point batches of
the public Green kernels, lives in ``kernels``.  Its calling thread fills
the caches of ``_kernel_fit`` and ``green_constant_k`` (and so loads
``scipy.special``) before the split, and its workers only read them.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "Regime",
    "FracParams",
    "CriticalExponents",
    "normalization_a",
    "green_constant_k",
    "poisson_constant_C",
    "incomplete_kernel_integral",
    "critical_exponents",
    "dimension_reduction_ratio",
    "getoor_constant",
]


class Regime(enum.Enum):
    """Kernel regime: decides power-law vs. logarithmic vs. bounded kernels."""

    N_GT_2S = "N>2s"
    N_EQ_2S = "N=1=2s"
    N_LT_2S = "N=1<2s"


@dataclass(frozen=True)
class FracParams:
    """Dimension N >= 1 and fractional order s in (0,1).

    Invalid combinations are rejected at construction; all derived
    constants are finite and strictly positive for valid parameters.
    """

    N: int
    s: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise ValueError(f"dimension N must be an integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"dimension N must be >= 1, got {self.N}")
        s = float(self.s)
        if not (0.0 < s < 1.0) or not math.isfinite(s):
            raise ValueError(f"order s must lie in (0,1), got {self.s!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "s", s)

    @property
    def regime(self) -> Regime:
        if self.N > 2.0 * self.s:
            return Regime.N_GT_2S
        if self.N == 1 and self.s == 0.5:
            return Regime.N_EQ_2S
        return Regime.N_LT_2S

    def __str__(self):
        return f"(N={self.N}, s={self.s:g}, {self.regime.value})"


def normalization_a(params: FracParams) -> float:
    """Constant in front of the singular integral defining (-Delta)^s."""
    from scipy import special as _spec
    N, s = params.N, params.s
    return (
        s
        * (1.0 - s)
        * math.pi ** (-N / 2.0)
        * 4.0**s
        * _spec.gamma(N / 2.0 + s)
        / _spec.gamma(2.0 - s)
    )


@cache
def green_constant_k(params: FracParams) -> float:
    """Normalization of the ball/half-space Green functions.

    2 Gamma(N/2) / (4^s pi^(N/2) Gamma(s)^2): the constant that makes the
    kernel-integral form reproduce (-Delta)^s inverses (checked against
    the singular-integral quadrature and the classical s -> 1 limit).  At
    s = 1/2 it equals pi^(-(N/2+1)) Gamma(N/2) sin(pi s).
    """
    from scipy import special as _spec
    N, s = params.N, params.s
    return (
        2.0 * _spec.gamma(N / 2.0) / (4.0**s * math.pi ** (N / 2.0) * _spec.gamma(s) ** 2)
    )


def poisson_constant_C(params: FracParams) -> float:
    """Constant making the exterior integral of the ball Poisson kernel 1."""
    from scipy import special as _spec
    N, s = params.N, params.s
    return _spec.gamma(N / 2.0) * math.sin(math.pi * s) * math.pi ** (-N / 2.0 - 1.0)


def getoor_constant(params: FracParams) -> float:
    """Value of (-Delta)^s applied to (1-|x|^2)_+^s inside the unit ball."""
    from scipy import special as _spec
    N, s = params.N, params.s
    return 4.0**s * _spec.gamma(1.0 + s) * _spec.gamma(N / 2.0 + s) / _spec.gamma(N / 2.0)


def incomplete_kernel_integral(params: FracParams, t):
    """The kernel integral I(t) = int_0^t z^(s-1) (1+z)^(-N/2) dz.

    Monotone nondecreasing in t; converges to B(s, N/2-s) as t -> infinity
    when N > 2s, and diverges to +inf when N = 1 <= 2s.  Vectorized over t.
    Branch strategy:

    * N = 1 = 2s: exact closed form 2*arcsinh(sqrt(t)).
    * s = 1/2, N >= 2: closed form 2 int_0^theta cos^(N-2) at
      theta = arctan(sqrt(t)), by a recursion in N, and above t = 99
      B(1/2, (N-1)/2) minus a nine-term series in u = 1/(1+t); see
      ``_half_order_integral``.
    * every other (N, s), N > 2s or N = 1 < 2s: with a = s, b = N/2 - s,
      x = t/(1+t) and u = 1/(1+t), I = x^a Q(x) for t <= 1 and
      I = B(a, b) - u^b (1/b + H(u)) above, where Q and H are power series
      on [0, 1/2] fitted once per (N, s) by polynomials; see ``_kernel_fit``.
      B is continued to b < 0, where u^b/b carries the divergence.
    """
    t_arr = np.asarray(t, dtype=float)
    out = _kernel_integral(params, _checked(np.atleast_1d(t_arr)))
    return float(out[0]) if t_arr.ndim == 0 else out


def _checked(t):
    """``t``, after a ``ValueError`` if any value is negative or NaN."""
    if not np.all(t >= 0.0):
        raise ValueError("incomplete_kernel_integral requires t >= 0")
    return t


def _kernel_integral(params: FracParams, t_arr):
    """Body of ``incomplete_kernel_integral`` on a checked array of t >= 0."""
    if params.regime is Regime.N_EQ_2S:
        return 2.0 * np.arcsinh(np.sqrt(t_arr))
    if params.s == 0.5:
        return _half_order_integral(params.N, t_arr)
    return _fitted_integral(_kernel_fit(params), t_arr)


def _fitted_integral(fit, t_arr):
    """I(t) from the fitted pieces of ``_kernel_fit`` on an array of t >= 0."""
    flat = t_arr.ravel()
    out = np.empty_like(flat)
    left = flat <= 1.0
    # gathered and scattered by index: psi puts t on both sides of 1 in random
    # order, where a boolean compaction mispredicts its branch on each value
    idx = np.flatnonzero(left)
    t = np.take(flat, idx)
    x = t / (1.0 + t)
    out[idx] = x**fit.a * _horner(fit.q, 4.0 * x - 1.0)
    idx = np.flatnonzero(~left)
    t = np.take(flat, idx)
    u = 1.0 / (1.0 + t)
    y = -fit.b * np.log1p(t)
    e = np.expm1(y)  # u^b - 1, without the cancellation of u^b - 1 as b -> 0
    if fit.b < 0.0:
        # expm1 carries the rounding of y, up to 745|b| ulps where u is tiny
        big = np.flatnonzero(y > 1.0)
        with np.errstate(divide="ignore"):  # u = 0 at t = inf gives +inf
            e[big] = np.take(u, big) ** fit.b - 1.0
    h = _horner(fit.h, 4.0 * u - 1.0)
    out[idx] = (fit.c - h) - e * (fit.r + h)
    return out.reshape(t_arr.shape)


def _kernel_integral_scalar(params: FracParams, t: float) -> float:
    """``_kernel_integral`` at one float t >= 0 unless N = 1 = 2s, to the
    same bits, in Python floats.

    The elementwise additions, products and quotients round as NumPy's do;
    the powers, ``log1p`` and ``expm1`` are taken on 1-element arrays,
    because on an AVX-512 host NumPy's array loops differ from the C
    library's (``float.__pow__``, ``math.log1p``, ``math.expm1``) by 1 ulp
    at 1-6% of arguments.  Python's float ``**`` would also raise at 0.0 to
    a negative power, where t = inf and b < 0.
    """
    if params.s == 0.5:
        return _half_order_scalar(params.N, t)
    fit = _kernel_fit(params)
    if t <= 1.0:
        x = t / (1.0 + t)
        return float((np.array([x]) ** fit.a)[0]) * _horner(fit.q, 4.0 * x - 1.0)
    u = 1.0 / (1.0 + t)
    y = -fit.b * float(np.log1p(np.array([t]))[0])
    if fit.b < 0.0 and y > 1.0:
        with np.errstate(divide="ignore"):
            e = float((np.array([u]) ** fit.b)[0]) - 1.0
    else:
        e = float(np.expm1(np.array([y]))[0])
    h = _horner(fit.h, 4.0 * u - 1.0)
    return (fit.c - h) - e * (fit.r + h)


def _horner(coefficients, xi):
    """The polynomial with ``coefficients`` (highest degree first) at ``xi``:
    in place on an array, in Python floats on a float, to the same bits."""
    p = coefficients[0] * xi
    for c in coefficients[1:-1]:
        p += c
        p *= xi
    p += coefficients[-1]
    return p


_TERMS = 24  # Chebyshev terms of Q and H; the last is below 1e-18 of the first


class _KernelFit(NamedTuple):
    a: float  # s
    b: float  # N/2 - s
    c: float  # B(a, b) - 1/b
    r: float  # 1/b
    q: tuple  # Q(x) in xi = 4x - 1, highest degree first
    h: tuple  # H(u) in xi = 4u - 1, highest degree first


@cache
def _kernel_fit(params: FracParams) -> _KernelFit | None:
    """The pieces of I(t) at s != 1/2, fitted once per (N, s); None at
    s = 1/2, where I(t) has closed forms.

    With a = s, b = N/2 - s, x = t/(1+t) and u = 1/(1+t), I(t) is the
    incomplete Beta function B_x(a, b) = B(a, b) - B_u(b, a) (DLMF 8.17.4),
    and B_x(a, b) = x^a Q(x) with (DLMF 8.17.7)

        Q(x) = 2F1(a, 1-b; a+1; x) / a = sum_k (1-b)_k x^k / (k! (a+k)).

    So I = x^a Q(x) for x <= 1/2 (t <= 1), and above

        I = B - u^b (1/b + H(u)) = (c - H) - e (1/b + H),
        H(u) = sum_(k>=1) (1-a)_k u^k / (k! (b+k)),

    with e = u^b - 1 = expm1(-b log1p(t)) and c = B - 1/b: no term grows
    like 1/b as b -> 0, and c is finite for the b < 0 of N = 1 < 2s.  Q and
    H are analytic on the disc |z| < 1, so on [0, 1/2] (xi = 4z - 1 in
    [-1, 1], the singularity at xi = 3) their Chebyshev coefficients fall
    like (3 + sqrt 8)^-n: ``_TERMS`` = 24 reach 5.8^-24 = 4e-19 (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2).  They are
    interpolated at the Chebyshev points from their series, in long double
    (80-bit on x86: the fit is then exact to double precision), and stored
    as monomials in xi for Horner's rule.  c comes from continuity at t = 1,
    then is raised ulp by ulp until the evaluated right branch at t = 1+ is
    not below the left one at t = 1, so that rounding makes no step down
    where the branches meet.
    """
    if params.s == 0.5:
        return None
    ld = np.longdouble
    a = ld(params.s)
    b = ld(params.N) / 2 - a
    half = np.array([0.5], dtype=ld)
    h_half = _series(1 - a, b, half, 1)[0]
    i_half = (half**a * _series(1 - b, a, half, 0))[0]
    e_half = np.expm1(-b * np.log(ld(2)))
    fit = _KernelFit(
        a=params.s,
        b=float(b),
        c=float(i_half + e_half / b + (1 + e_half) * h_half),
        r=1.0 / float(b),
        q=_chebyshev_monomials(lambda x: _series(1 - b, a, x, 0)),
        h=_chebyshev_monomials(lambda u: _series(1 - a, b, u, 1)),
    )
    ends = np.array([1.0, np.nextafter(1.0, 2.0)])
    while True:
        at_one, above = _fitted_integral(fit, ends)
        if above >= at_one:
            return fit
        fit = fit._replace(c=float(np.nextafter(fit.c, math.inf)))


def _series(c, d, z, k0):
    """sum_(k>=k0) (c)_k z^k / (k! (d+k)) at z in [0, 1/2], to the last bit of ``z``'s dtype."""
    term = np.ones_like(z)
    for k in range(k0):
        term *= (c + k) / (k + 1) * z
    total = np.zeros_like(z)
    for k in itertools.count(k0):
        step = term / (d + k)
        total += step
        if np.all(np.abs(step) <= 1e-21 * np.abs(total)):
            return total
        term *= (c + k) / (k + 1) * z


def _chebyshev_monomials(func):
    """Monomial coefficients in xi = 4z - 1, highest degree first, of the
    interpolant of ``func`` at ``_TERMS`` Chebyshev points of z in [0, 1/2],
    computed in long double and rounded to floats."""
    ld = np.longdouble
    theta = (np.arange(_TERMS, dtype=ld) + ld(0.5)) * (4 * np.arctan(ld(1))) / _TERMS
    values = func((np.cos(theta) + 1) / 4)
    cheb = 2 * np.cos(np.outer(np.arange(_TERMS, dtype=ld), theta)) @ values / _TERMS
    cheb[0] /= 2
    return tuple(float(v) for v in np.polynomial.chebyshev.cheb2poly(cheb)[::-1])


def _half_order_integral(N, t):
    """I(t) at s = 1/2 and N >= 2, in closed form.

    z = tan^2(theta) gives I(t) = 2 J_(N-2)(theta) at theta = arctan(sqrt(t)),
    where J_n(theta) = int_0^theta cos^n, from J_0 = theta or J_1 = sin by
    the recursion J_n = cos^(n-1) sin / n + (n-1)/n J_(n-2), a sum of
    positive terms, with tan = sqrt(t), sin = sqrt(t u) and
    cos^2 = u = 1/(1+t).  Above t = 99 that sum is flat to its last bit and
    did not round monotonically (at N = 4 it stepped down 1 ulp near
    t = 3e10), so there I = B(1/2, b) minus the tail
    sum_k binom(2k, k) 4^-k u^(b+k) / (b+k), b = (N-1)/2, in nine terms (the
    rest is below 1e-19 of it at u < 0.01); see ``_half_order_tail``.
    """
    n = N - 2
    u = 1.0 / (1.0 + t)
    with np.errstate(invalid="ignore"):  # inf * 0 at t = inf, where the tail is taken
        if n % 2:
            J = c = np.sqrt(t * u)  # J_1 = sin = cos^0 sin
        else:
            c = np.sqrt(t)  # tan = cos^-1 sin
            J = np.arctan(c)
        for m in range(2 + n % 2, n + 1, 2):
            c = c * u  # cos^(m-1) sin
            J = c / m + (m - 1) / m * J
    out = 2.0 * J
    near = u < 0.01
    if near.any():
        B, b, tail = _half_order_tail(N)
        un = u[near]
        out[near] = B - _horner(tail, un) * un**b
    return out


def _half_order_scalar(N, t):
    """``_half_order_integral`` at one float t >= 0, to the same bits: the
    recursion and the tail in Python floats, with ``arctan`` and the power
    on 1-element arrays (see ``_kernel_integral_scalar``)."""
    n = N - 2
    u = 1.0 / (1.0 + t)
    if u < 0.01:
        B, b, tail = _half_order_tail(N)
        return B - _horner(tail, u) * float((np.array([u]) ** b)[0])
    if n % 2:
        J = c = math.sqrt(t * u)
    else:
        c = math.sqrt(t)
        J = float(np.arctan(np.array([c]))[0])
    for m in range(2 + n % 2, n + 1, 2):
        c = c * u
        J = c / m + (m - 1) / m * J
    return 2.0 * J


@cache
def _half_order_tail(N):
    """(B, b, coefficients) of I(t) = B - u^b T(u) at s = 1/2 and u < 0.01:
    B = B(1/2, b) = 2 J_(N-2)(pi/2) by the recursion of
    ``_half_order_integral``, b = (N-1)/2 and the nine coefficients
    binom(2k, k) 4^-k / (b+k) of T, highest degree first, for ``_horner``."""
    n = N - 2
    B = 2.0 if n % 2 else math.pi  # 2 J_n(pi/2)
    for m in range(2 + n % 2, n + 1, 2):
        B = (m - 1) / m * B
    b = (N - 1) / 2.0
    return B, b, tuple(math.comb(2 * k, k) / 4.0**k / (b + k) for k in range(8, -1, -1))


@dataclass(frozen=True)
class CriticalExponents:
    """Critical powers for the half-space and full-space Liouville theorems.

    A value of None means the theorem branch imposes no upper bound on q
    ("unbounded"); it is never encoded as a sentinel float.
    """

    halfspace: float | None
    fullspace: float | None

    def halfspace_subcritical(self, q: float) -> bool:
        """True when q > 1 falls in the half-space nonexistence range."""
        return q > 1.0 and (self.halfspace is None or q < self.halfspace)


def critical_exponents(params: FracParams) -> CriticalExponents:
    """Upper exponent bounds (N-1+2s)/(N-1-2s) and (N+2s)/(N-2s)."""
    N, s = params.N, params.s
    half = (N - 1.0 + 2.0 * s) / (N - 1.0 - 2.0 * s) if N > 1.0 + 2.0 * s else None
    full = (N + 2.0 * s) / (N - 2.0 * s) if N > 2.0 * s else None
    return CriticalExponents(halfspace=half, fullspace=full)


def dimension_reduction_ratio(params: FracParams) -> float:
    """B(1/2, (N-1)/2 + s) = sqrt(pi) Gamma((N-1)/2+s) / Gamma(N/2+s).

    Equals the ratio of the singular-integral constants in dimensions N-1
    and N, and the full-line integral of (1+lambda^2)^(-N/2-s).
    """
    from scipy import special as _spec
    N, s = params.N, params.s
    if N < 2:
        raise ValueError("dimension reduction needs N >= 2")
    return math.sqrt(math.pi) * _spec.gamma((N - 1.0) / 2.0 + s) / _spec.gamma(N / 2.0 + s)


# ---------------------------------------------------------------------------
# Gauss rules

@cache
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


@cache
def _gj(n, alpha=0.0, beta=0.0):
    """n-point rule on [-1, 1] for int (1+u)^alpha (1-u)^beta g(u) du, the weight
    divided out of its weights: sum f(u_i) w_i integrates f itself.

    Gauss-Jacobi nodes from ``scipy.special.roots_jacobi`` (Gauss-Legendre
    when both exponents vanish).  The weights come from the closed form
    C / ((1 - u^2) P_n'(u)^2): at n = 16 the moments of the weights
    ``roots_jacobi`` returns are off by up to 1.2e-13, these by 4e-14.
    """
    if alpha == beta == 0.0:
        return _gl(n)
    from scipy import special as _spec
    # scipy's P_n^(a, b) has the weight (1-u)^a (1+u)^b; at a + b = -1
    # roots_jacobi divides by zero in a branch its np.where discards
    with np.errstate(divide="ignore", invalid="ignore"):
        u = _spec.roots_jacobi(n, beta, alpha)[0]
        dp = 0.5 * (n + alpha + beta + 1.0) * _spec.eval_jacobi(n - 1, beta + 1.0, alpha + 1.0, u)
    c = math.exp(
        (alpha + beta + 1.0) * math.log(2.0) + _spec.gammaln(n + alpha + 1.0)
        + _spec.gammaln(n + beta + 1.0) - _spec.gammaln(n + alpha + beta + 1.0) - _spec.gammaln(n + 1.0)
    )
    return u, c / ((1.0 + u) ** (alpha + 1.0) * (1.0 - u) ** (beta + 1.0) * dp * dp)
