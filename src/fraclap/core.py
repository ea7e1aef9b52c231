"""Parameters, normalization constants, the kernel integral and the Gauss rules.

Everything here is a closed-form function of the dimension N and the
fractional order s in (0,1).  The three kernel regimes (N above, equal to,
or below 2s) are decided once at parameter construction and drive branch
selection in the kernel modules.  The Gauss-Legendre and Gauss-Jacobi rule
table (``_gl``, ``_gj``) lives here so that ``kernels`` and
``quadrature`` share it.

``scipy.special`` is imported inside the functions that call it, so it
loads on first use.  Importing it pulls in scipy's array-API layer
(``numpy.f2py``, ``numpy.testing``), about 0.4 s of a 0.7 s import of
fraclap and its submodules on a 2-vCPU host, and nothing needs it at
import time.  The constants keep scipy's gamma and beta: ``math.gamma``
differs from scipy's by 1-2 ulp at some quarter-integer arguments.

``incomplete_kernel_integral`` is the inner loop of every Green kernel.
An input of at least two blocks of 2^16 values, in a process allowed at
least two CPUs, is split into those blocks and evaluated on a thread pool
with one worker per usable CPU (scipy's ``betainc`` and ``hyp2f1``, and
NumPy's ufuncs, release the GIL); smaller inputs, or a one-CPU process,
take one serial call.  The pool is created on the first such call, not at
import, and a forked child starts a new one.  The body is elementwise, so the blocked result is
bit-identical to the serial one.  Validation happens once, in the calling
thread, and the workers run only the private body, never a public name,
so a wrapper around the public function sees one call per batch.
"""
from __future__ import annotations

import contextvars
import enum
import math
import os
import threading
from dataclasses import dataclass

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
    * other N > 2s: regularized incomplete Beta at x = t/(1+t); for x near 1
      the complement is evaluated at u = 1/(1+t) so no precision is lost.
    * N = 1 < 2s: x^s/s 2F1(s, s+1/2; s+1; x) for x <= 0.7, and above it
      the u -> 0 connection formula B(s, 1/2-s) + x^s u^(1/2-s)/(s-1/2)
      2F1(1, 1/2; 3/2-s; u), again with u = 1/(1+t) kept exact; both 2F1
      are scipy's ``hyp2f1``.

    An input of at least ``_MIN_BLOCKS * _BLOCK`` values, on a process
    allowed at least two CPUs, is evaluated in blocks of ``_BLOCK`` on the
    module's thread pool (see ``_in_blocks``).  Every branch is elementwise,
    so the result is bit-identical to one serial call.  The input is
    checked, and ``scipy.special`` loaded, here in the calling thread; the
    workers run only the private body, never this public name.
    """
    from scipy import special  # noqa: F401  loaded in this thread, not raced for by the workers
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(np.isnan(t_arr)):
        raise ValueError("incomplete_kernel_integral requires t >= 0")
    if t_arr.size >= _MIN_BLOCKS * _BLOCK and _usable_cpus() >= 2:
        return _in_blocks(_kernel_integral, params, t_arr)
    out = _kernel_integral(params, np.atleast_1d(t_arr))
    return float(out[0]) if t_arr.ndim == 0 else out


def _kernel_integral(params: FracParams, t_arr):
    """Body of ``incomplete_kernel_integral`` on a checked array of t >= 0."""
    from scipy import special as _spec
    N, s = params.N, params.s
    regime = params.regime

    if regime is Regime.N_EQ_2S:
        return 2.0 * np.arcsinh(np.sqrt(t_arr))
    if s == 0.5:
        return _half_order_integral(N, t_arr)
    if regime is Regime.N_GT_2S:
        b = N / 2.0 - s
        B = _spec.beta(s, b)
        with np.errstate(invalid="ignore"):
            x = t_arr / (1.0 + t_arr)
            u = 1.0 / (1.0 + t_arr)
        inf = np.isinf(t_arr)
        near1 = (x > 0.9) | inf
        out = np.empty_like(t_arr)
        out[~near1] = B * _spec.betainc(s, b, x[~near1])
        out[near1] = B * (1.0 - _spec.betainc(b, s, u[near1]))
        out[inf] = B
        return out
    # N = 1 < 2s: diverges like t^(s-1/2)/(s-1/2) as t -> infinity
    with np.errstate(invalid="ignore"):
        x = t_arr / (1.0 + t_arr)
        u = 1.0 / (1.0 + t_arr)
    out = np.empty_like(t_arr)
    small = x <= 0.7
    xs = x[small]
    out[small] = np.where(
        xs > 0.0, xs**s / s * _spec.hyp2f1(s, s + 0.5, s + 1.0, xs), 0.0
    )
    if np.any(~small):
        ub = u[~small]
        b_cont = _spec.gamma(s) * _spec.gamma(0.5 - s) / _spec.gamma(0.5)
        x_pow_s = np.exp(s * np.log1p(-ub))
        hyp = _spec.hyp2f1(1.0, 0.5, 1.5 - s, ub)
        with np.errstate(divide="ignore"):  # u = 0 at t = inf gives +inf
            out[~small] = b_cont + x_pow_s * ub ** (0.5 - s) / (s - 0.5) * hyp
    return out


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
    rest is below 1e-19 of it at u < 0.01).
    """
    n = N - 2
    u = 1.0 / (1.0 + t)
    with np.errstate(invalid="ignore"):  # inf * 0 at t = inf, where the tail is taken
        if n % 2:
            J = c = np.sqrt(t * u)  # J_1 = sin = cos^0 sin
        else:
            c = np.sqrt(t)  # tan = cos^-1 sin
            J = np.arctan(c)
        B = 2.0 if n % 2 else math.pi  # 2 J_n(pi/2)
        for m in range(2 + n % 2, n + 1, 2):
            c = c * u  # cos^(m-1) sin
            J = c / m + (m - 1) / m * J
            B = (m - 1) / m * B
    out = 2.0 * J
    near = u < 0.01
    b, un = (N - 1) / 2.0, u[near]
    tail = np.zeros_like(un)
    for k in range(8, -1, -1):
        tail *= un
        tail += math.comb(2 * k, k) / 4.0**k / (b + k)
    out[near] = B - tail * un**b
    return out


# ---------------------------------------------------------------------------
# Blocked evaluation on a thread pool

_BLOCK = 1 << 16  # values per pool task
_MIN_BLOCKS = 2  # smaller inputs run in one serial call
_pool = None
_pool_lock = threading.Lock()


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reset_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _in_blocks(func, params, t):
    """``func(params, block)`` on consecutive blocks of ``_BLOCK`` values of ``t``.

    ``func`` must be elementwise and return an array of its block's shape.
    The blocks run on the module's pool, created on first use with one
    worker per usable CPU, each in a copy of the caller's context so that
    its ``np.errstate`` holds there too.  Returns the results in ``t``'s
    shape.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="fraclap-block")
        pool = _pool
    flat = t.reshape(-1)
    # each worker writes into one output array: concatenating per-block
    # results held a second copy and raised kernel-batch's peak RSS by 8 MB
    out = np.empty_like(flat)

    def block(a):
        out[a:a + _BLOCK] = func(params, flat[a:a + _BLOCK])

    futures = [pool.submit(contextvars.copy_context().run, block, a) for a in range(0, flat.size, _BLOCK)]
    for f in futures:
        f.result()
    return out.reshape(t.shape)


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

_GL_CACHE = {}
_GJ_CACHE = {}


def _gl(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _gj(n, alpha=0.0, beta=0.0):
    """n-point rule on [-1, 1] for int (1+u)^alpha (1-u)^beta g(u) du, the weight
    divided out of its weights: sum f(u_i) w_i integrates f itself.

    Gauss-Jacobi nodes from ``scipy.special.roots_jacobi`` (Gauss-Legendre
    when both exponents vanish).  The weights come from the closed form
    C / ((1 - u^2) P_n'(u)^2): at n = 16 the moments of the weights
    ``roots_jacobi`` returns are off by up to 1.2e-13, these by 4e-14.
    """
    key = (n, float(alpha), float(beta))
    if key not in _GJ_CACHE:
        if alpha == beta == 0.0:
            _GJ_CACHE[key] = _gl(n)
        else:
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
            _GJ_CACHE[key] = (u, c / ((1.0 + u) ** (alpha + 1.0) * (1.0 - u) ** (beta + 1.0) * dp * dp))
    return _GJ_CACHE[key]

