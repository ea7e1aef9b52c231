import math
import multiprocessing
import queue
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

import fraclap
import fraclap.solver  # loads fraclap.quadrature too, both read by tracing.boundaries
from fraclap import core, kernels
from fraclap.core import (
    CriticalExponents,
    FracParams,
    Regime,
    critical_exponents,
    dimension_reduction_ratio,
    getoor_constant,
    green_constant_k,
    incomplete_kernel_integral,
    normalization_a,
    poisson_constant_C,
)
from fraclap.kernels import _bump, _bump_norm

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from fraclap_bench import tracing  # noqa: E402


class TestFracParams:
    def test_regimes(self):
        assert FracParams(1, 0.25).regime is Regime.N_GT_2S
        assert FracParams(1, 0.5).regime is Regime.N_EQ_2S
        assert FracParams(1, 0.75).regime is Regime.N_LT_2S
        assert FracParams(2, 0.9).regime is Regime.N_GT_2S
        assert FracParams(3, 0.5).regime is Regime.N_GT_2S

    @pytest.mark.parametrize("N,s", [(0, 0.5), (-1, 0.5), (2, 0.0), (2, 1.0), (2, -0.3), (2, 1.5)])
    def test_rejects_bad_params(self, N, s):
        with pytest.raises(ValueError):
            FracParams(N, s)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ValueError):
            FracParams(2.5, 0.5)

    def test_constants_positive(self):
        for N in range(1, 7):
            for s in np.linspace(0.05, 0.95, 19):
                p = FracParams(N, float(s))
                assert normalization_a(p) > 0.0
                assert green_constant_k(p) > 0.0
                assert poisson_constant_C(p) > 0.0


class TestSpecialFunctions:
    # the constants call scipy.special directly; these pin the identities they rely on

    def test_gamma_recurrence(self):
        xs = np.linspace(0.5, 49.0, 400)
        lhs = sp.gamma(xs + 1.0)
        rhs = xs * sp.gamma(xs)
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12

    def test_beta_identity(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 20.0, 200)
        b = rng.uniform(0.1, 20.0, 200)
        lhs = sp.beta(a, b)
        rhs = np.exp(sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b))
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12

    def test_bump_normalized(self):
        # the bump behind kernels.regularized_poisson
        r = np.linspace(0.5, 1.0, 100001)
        mass = np.trapezoid(_bump_norm() * _bump(r), r)
        assert abs(mass - 1.0) < 1e-6
        assert _bump(0.5) == 0.0
        assert _bump(1.0) == 0.0
        assert _bump(0.75) > 0.0


class TestNormalizationA:
    def test_one_dimensional_half(self):
        # closed form with Gamma(1) = 1 and Gamma(3/2) = sqrt(pi)/2
        assert normalization_a(FracParams(1, 0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_vanishes_at_endpoints(self):
        for N in (1, 2, 3):
            assert normalization_a(FracParams(N, 1e-8)) < 1e-7
            assert normalization_a(FracParams(N, 1.0 - 1e-8)) < 1e-7

    def test_against_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for N, s in [(2, 0.75), (3, 0.3), (1, 0.9), (5, 0.5)]:
            ref = (
                mp.mpf(s)
                * (1 - mp.mpf(s))
                * mp.pi ** (-mp.mpf(N) / 2)
                * mp.mpf(4) ** s
                * mp.gamma(mp.mpf(N) / 2 + s)
                / mp.gamma(2 - mp.mpf(s))
            )
            assert normalization_a(FracParams(N, s)) == pytest.approx(float(ref), rel=1e-13)

    def test_continuity_in_s(self):
        for N in (1, 2, 3):
            ss = np.arange(0.01, 0.995, 0.01)
            vals = np.array([normalization_a(FracParams(N, float(s))) for s in ss])
            assert np.max(np.abs(np.diff(vals))) < 10.0 * 0.01


class TestGreenConstant:
    def test_known_values(self):
        assert green_constant_k(FracParams(1, 0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert green_constant_k(FracParams(3, 0.5)) == pytest.approx(
            1.0 / (2.0 * math.pi**2), rel=1e-14
        )

    def test_vanishes_as_s_to_zero(self):
        # Gamma(s)^2 blows up at 0; at s -> 1 the constant tends to the
        # classical (local Laplacian) Green normalization instead
        assert green_constant_k(FracParams(2, 1e-6)) < 1e-8
        k1 = green_constant_k(FracParams(3, 1.0 - 1e-9))
        assert k1 == pytest.approx(2.0 * math.gamma(1.5) / (4.0 * math.pi**1.5), rel=1e-6)

    def test_classical_limit(self):
        # s -> 1, N = 3: leading Green coefficient matches 1/((N-2) |S^(N-1)|)
        p = FracParams(3, 1.0 - 1e-10)
        lead = 0.5 * green_constant_k(p) * 2.0 / (3.0 - 2.0)
        assert lead == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-8)

    def test_continuity_in_s(self):
        for N in (1, 2, 4):
            ss = np.arange(0.01, 0.995, 0.01)
            vals = np.array([green_constant_k(FracParams(N, float(s))) for s in ss])
            assert np.max(np.abs(np.diff(vals))) < 10.0 * 0.01


class TestPoissonConstant:
    def test_one_dimensional_half(self):
        # radial reduction: int_1^inf (t^2-1)^(-s) t^(-1) dt = pi/(2 sin(pi s))
        assert poisson_constant_C(FracParams(1, 0.5)) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_radial_normalization_1d(self):
        # oracle: adaptive radial quadrature of the exterior integral at x=0
        from scipy import integrate

        for N, s in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (3, 0.3)]:
            C = poisson_constant_C(FracParams(N, s))
            surface = 2.0 if N == 1 else 2.0 * math.pi if N == 2 else 4.0 * math.pi
            # int_{|y|>1} (|y|^2-1)^(-s) |y|^(-N) dy radially: (t^2-1)^(-s)/t
            near, _ = integrate.quad(
                lambda t: (t + 1.0) ** (-s) * t ** (-1.0),
                1.0,
                2.0,
                weight="alg",
                wvar=(-s, 0.0),
            )
            far, _ = integrate.quad(
                lambda t: (t * t - 1.0) ** (-s) / t, 2.0, np.inf, epsabs=1e-12, epsrel=1e-11
            )
            assert C * surface * (near + far) == pytest.approx(1.0, abs=1e-8)


DENSE_REGIMES = [(N, s) for N in range(1, 6) for s in (0.02, 0.25, 0.6, 0.75, 0.98)]


class TestIncompleteKernelIntegral:
    def test_zero(self):
        for N, s in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (3, 0.9)]:
            assert incomplete_kernel_integral(FracParams(N, s), 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            incomplete_kernel_integral(FracParams(2, 0.5), -1.0)

    def test_closed_form_arctan(self):
        # N=2, s=1/2: antiderivative 2 arctan(sqrt(z))
        val = incomplete_kernel_integral(FracParams(2, 0.5), 1.0)
        assert val == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_closed_form_sqrt(self):
        # N=3, s=1/2: antiderivative 2 sqrt(z/(1+z))
        val = incomplete_kernel_integral(FracParams(3, 0.5), 4.0)
        assert val == pytest.approx(2.0 * math.sqrt(4.0 / 5.0), rel=1e-12)

    def test_against_mpmath_all_regimes(self, kernel_integral_ref):
        # t = 1 is x = t/(1+t) = 1/2, where the fitted regimes switch branch
        ts = [1e-10, 1e-4, 0.3, 1.0, 7.0 / 3.0, 2.5, 50.0, 1e4, 1e8, 1e12]
        regimes = [(1, 0.25), (1, 0.5), (1, 0.6), (1, 0.75), (1, 0.95), (2, 0.5), (2, 0.75), (3, 0.25), (3, 0.5),
                   (4, 0.9)]
        for N, s in regimes:
            p = FracParams(N, s)
            # the ends t = 0 (x = 0) and t = inf (x = 1); I(inf) is finite for N > 2s
            ends = [0.0, math.inf] if N > 2 * s else []
            for t in ts + ends:
                ref = kernel_integral_ref(N, s, t)
                got = incomplete_kernel_integral(p, t)
                assert got == pytest.approx(ref, rel=1e-10), (N, s, t)

    @pytest.mark.parametrize("N,s", DENSE_REGIMES)
    def test_dense_against_mpmath(self, kernel_integral_ref, N, s):
        # the fitted body: t over the whole float range, uniform on (0, 5), the
        # switch t = 1 and its neighbours, and both ends
        rng = np.random.default_rng(N * 100 + int(100 * s))
        switch = 1.0 + np.arange(-4, 5) * 2.0**-52
        ts = np.concatenate([np.logspace(-300, 300, 61), rng.uniform(0.0, 5.0, 40), switch, [0.0, math.inf]])
        got = incomplete_kernel_integral(FracParams(N, s), ts)
        for t, g in zip(ts, got):
            ref = kernel_integral_ref(N, s, t)
            if ref in (0.0, math.inf):
                assert g == ref, (t, g)
            else:
                assert g == pytest.approx(ref, rel=1e-14, abs=0.0), t

    @pytest.mark.parametrize("N,s", DENSE_REGIMES)
    def test_monotone_and_continuous_at_the_switch(self, N, s):
        # the fitted branches meet at t = 1: 64 ulps below, the switch, 1 and 64 ulps above
        ts = [1.0 - 64 * 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.0 + 64 * 2.0**-52]
        got = incomplete_kernel_integral(FracParams(N, s), ts)
        assert np.all(np.diff(got) >= 0.0), got
        assert got[2] - got[1] <= 4.0 * np.spacing(got[1])

    @pytest.mark.parametrize("N,s", DENSE_REGIMES)
    def test_scalar_path_bit_identical(self, N, s):
        # h_function_partials' float path against the array body, on both branches,
        # b < 0's power above y = 1, the switch and both ends
        b = N / 2.0 - s
        ts = [0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.7, 42.0, 1e6, 1e300, math.inf]
        if b < 0.0:
            t_y1 = math.expm1(-1.0 / b)
            ts += [t_y1 * (1.0 + k * 2.0**-52) for k in range(-3, 4)]
        p = FracParams(N, s)
        got = np.array([core._kernel_integral_scalar(p, t) for t in ts])
        assert got.tobytes() == core._kernel_integral(p, np.array(ts)).tobytes()

    @pytest.mark.parametrize("N,s", DENSE_REGIMES)
    def test_branch_split_keeps_bits(self, N, s):
        # 2^17 + 3 values of t on both sides of the switch in random order, with
        # both ends, the switch and b < 0's power above y = 1 among them
        rng = np.random.default_rng(N * 100 + int(100 * s))
        special = [0.0, 5e-324, 1e-300, 1e300, math.inf] + [1.0 + k * 2.0**-52 for k in range(-3, 4)]
        special += [1.0 - k * 2.0**-53 for k in (1, 3)]
        b = N / 2.0 - s
        if b < 0.0:
            t_y1 = math.expm1(-1.0 / b)
            special += [t_y1 * (1.0 + k * 2.0**-52) for k in range(-3, 4)]
        n = 2**17 + 3  # 245 x 535
        wide_range = np.exp(rng.uniform(-40.0, 40.0, n // 2))
        draws = np.concatenate([wide_range, rng.uniform(0.0, 3.0, n - n // 2 - len(special))])
        order = rng.permutation(n)
        t = np.concatenate([special, draws])[order]
        p = FracParams(N, s)
        got = incomplete_kernel_integral(p, t)
        left = t <= 1.0
        assert 0.3 < left.mean() < 0.7
        perm = rng.permutation(n)
        assert incomplete_kernel_integral(p, t[perm]).tobytes() == got[perm].tobytes()
        table = t.reshape(245, 535)
        assert incomplete_kernel_integral(p, table.T).tobytes() == got.reshape(245, 535).T.tobytes()
        wide = np.zeros((245, 2 * 535))
        wide[:, ::2] = table
        assert incomplete_kernel_integral(p, wide[:, ::2]).tobytes() == got.reshape(245, 535).tobytes()
        for part in (left, ~left, slice(0, 1), slice(0, 0)):
            assert incomplete_kernel_integral(p, t[part]).tobytes() == got[part].tobytes()
        # every special value and random others against the float path
        sample = np.concatenate([np.argsort(order)[: len(special)], rng.choice(n, 500 - len(special), replace=False)])
        scalar = np.array([core._kernel_integral_scalar(p, float(t[i])) for i in sample])
        assert scalar.tobytes() == got[sample].tobytes()

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_half_order_scalar_path_bit_identical(self, N):
        # s = 1/2: the cosine recursion up to t = 99 (u = 0.01) and the tail series above, in floats
        ts = [0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 7.0 / 3.0, 42.0, math.inf]
        ts += [99.0 * (1.0 + k * 2.0**-52) for k in range(-3, 4)]
        ts += list(np.random.default_rng(N).uniform(0.0, 99.0, 40)) + list(np.logspace(2.0, 300.0, 60))
        p = FracParams(N, 0.5)
        got = np.array([core._kernel_integral_scalar(p, t) for t in ts])
        assert got.tobytes() == core._kernel_integral(p, np.array(ts)).tobytes()

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_half_order_closed_form(self, N, kernel_integral_ref):
        # s = 1/2: I = 2 int_0^theta cos^(N-2), theta = arctan(sqrt(t)); I(inf) = B(1/2, (N-1)/2)
        # t = 99 is the last point of the cosine recursion, 99.5 the first of the tail series
        ts = [0.0, 1e-10, 1e-4, 0.3, 1.0, 7.0 / 3.0, 2.5, 50.0, 99.0, 99.5, 1e4, 1e8, 1e12, math.inf]
        got = incomplete_kernel_integral(FracParams(N, 0.5), ts)
        assert got[0] == 0.0
        for t, g in zip(ts[1:], got[1:]):
            assert g == pytest.approx(kernel_integral_ref(N, 0.5, t), rel=1e-14), (N, t)

    @pytest.mark.parametrize("s", [0.55, 0.6, 0.75, 0.9, 0.95])
    def test_large_t_branch_one_dimensional(self, s, kernel_integral_ref):
        # N = 1 < 2s above t = 1: B - u^b (1/b + H(u)) with b = 1/2 - s < 0, and u^b
        # by a power above y = -b log1p(t) = 1
        ts = np.concatenate([np.linspace(2.34, 60.0, 9), np.logspace(2, 12, 11)])
        got = incomplete_kernel_integral(FracParams(1, s), ts)
        for t, g in zip(ts, got):
            assert g == pytest.approx(kernel_integral_ref(1, s, t), rel=1e-13), (s, t)

    def test_monotone_in_t(self):
        ts = np.logspace(-8, 12, 300)
        for N, s in [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.3), (3, 0.7), (3, 0.5), (4, 0.5)]:
            vals = incomplete_kernel_integral(FracParams(N, s), ts)
            assert np.all(np.diff(vals) >= 0.0)

    def test_limit_is_beta(self):
        for N, s in [(2, 0.5), (3, 0.75), (5, 0.9), (3, 0.5), (4, 0.5)]:
            p = FracParams(N, s)
            lim = sp.beta(s, N / 2.0 - s)
            assert incomplete_kernel_integral(p, 1e14) == pytest.approx(lim, rel=1e-6)
            assert incomplete_kernel_integral(p, np.inf) == pytest.approx(lim, rel=1e-14)

    def test_infinity_one_dimensional_silent(self):
        # N = 1 < 2s diverges: t = inf gives +inf without a RuntimeWarning
        p = FracParams(1, 0.75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = incomplete_kernel_integral(p, [0.0, np.inf])
            assert incomplete_kernel_integral(p, np.inf) == np.inf
        assert got.tolist() == [0.0, np.inf]


BLOCK_REGIMES = [(1, 0.5), (1, 0.75), (2, 0.5), (3, 0.25), (3, 0.75), (1, 0.25), (3, 0.5), (4, 0.5), (2, 0.75),
                 (1, 0.6)]


def _record_body(monkeypatch):
    """Wrap the Green body; returns its calls as (thread id, broadcast size, errstate)."""
    calls = []
    body = kernels._green_body

    def recorder(params, scale, integral, d2, fx, fy):
        calls.append((threading.get_ident(), np.broadcast(d2, fx, fy).size, np.geterr()))
        return body(params, scale, integral, d2, fx, fy)

    monkeypatch.setattr(kernels, "_green_body", recorder)
    return calls


def _green_arguments(shape, seed=0):
    """(d2, fx, fy) for ``_green_from_psi`` at scale 1/4: psi over many decades,
    with zeros of d2 and fx and some fx < 0 (outside the zero set)."""
    rng = np.random.default_rng(seed)
    d2 = rng.exponential(2.0, shape) ** 3
    fx = rng.uniform(-0.1, 2.0, shape)
    fy = rng.exponential(1.0, shape) ** 2
    d2.reshape(-1)[::997] = 0.0
    fx.reshape(-1)[5::1009] = 0.0
    return d2, fx, fy


def _halfspace_points(n, N, seed=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, N))
    y = rng.uniform(-2.0, 2.0, (n, N))
    x[:, 0] = rng.uniform(0.01, 2.0, n)
    y[:, 0] = rng.uniform(0.01, 2.0, n)
    return x, y


GREEN_KERNELS = {
    "ball": lambda p, x, y: kernels.green_ball(p, 1.5, x, y),
    "shifted_ball": lambda p, x, y: kernels.green_shifted_ball(p, 2.0, x, y),
    "halfspace": kernels.green_halfspace,
}
BOUNDARY_POINTS = {"ball": [1.5, 0.0], "shifted_ball": [0.0, 0.0], "halfspace": [0.0, 0.7]}  # fx = 0
PAIR_SHAPES = {  # pair batches and the number of Green body calls on two workers
    (2 * kernels._BLOCK - 1,): 1,  # one short of the threshold: serial
    (2 * kernels._BLOCK,): 2,
    (2 * kernels._BLOCK + 12345,): 3,  # ragged last block
    "2d": 3,  # blocks of 21845 rows of 3 pairs
    "broadcast": 3,  # blocks of 218 rows of 300 pairs
}


OVERFLOWS = {  # errstate, x1 and y1 of a pair whose products overflow, and what a diagonal pair elsewhere meets
    "nan_psi": ({"over": "ignore", "invalid": "ignore"}, 1e200, 3e200, kernels.DiagonalSingularity),
    "raising_psi": ({"over": "raise"}, 1e160, math.nextafter(1e160, 2e160), kernels.DiagonalSingularity),  # finite d2
    "raising_d2": ({"over": "raise"}, 1e200, 3e200, FloatingPointError),  # raised forming |x-y|^2, before the scan
}


def _point_pairs(shape, N, seed=4):
    """x and y for the Green kernels on a batch of ``shape`` pairs, x1 in (-0.5, 2)
    and the rest in (-2, 2): inside and outside each kernel's domain."""
    if shape == "2d":  # transposed, non-contiguous views of a (B - 7) x 3 batch
        flat = _point_pairs((3 * (kernels._BLOCK - 7),), N, seed)
        return [np.moveaxis(a.reshape(3, kernels._BLOCK - 7, N), 0, 1) for a in flat]
    if shape == "broadcast":  # every pair of 512 x and 300 y
        x, y = _point_pairs((512,), N, seed)
        return x[:, None, :], y[None, :300, :]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (*shape, N))
    y = rng.uniform(-2.0, 2.0, (*shape, N))
    x[..., 0] = rng.uniform(-0.5, 2.0, shape)
    y[..., 0] = rng.uniform(-0.5, 2.0, shape)
    return x, y


class TestBlockedKernelIntegral:
    """``kernels._green_from_psi`` runs ``kernels._green_body`` (the zero set,
    psi, the kernel integral and the |x-y| power) whole in the calling
    thread; a large batch of a public Green kernel runs it in blocks on
    ``kernels``'s thread pool, bit-identical to one serial call."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("N,s", BLOCK_REGIMES)
    @pytest.mark.parametrize("shape", [(5,), (2**18,), "2d", "broadcast"], ids=str)
    def test_green_from_psi_runs_whole(self, cpus, monkeypatch, workers, N, s, shape):
        if shape == "2d":  # transposed, non-contiguous 2-D views
            args = [a.T for a in _green_arguments((3, kernels._BLOCK - 7))]
        elif shape == "broadcast":  # PicardOperator's call: fx a broadcast view of a column, fy the scalar 1
            d2, fx, _ = _green_arguments((4, kernels._BLOCK))
            args = [d2, np.broadcast_to(fx[:, :1], d2.shape), 1.0]
        else:
            args = _green_arguments(shape)
        p = FracParams(N, s)
        # the body block by block, as a split of the batch would run it
        views = np.broadcast_arrays(*args)
        step = max(1, kernels._BLOCK // math.prod(views[0].shape[1:]))
        ref = np.concatenate([
            kernels._green_body(p, 0.25, kernels._private_integral, *(v[a : a + step] for v in views))
            for a in range(0, len(views[0]), step)
        ])
        cpus(workers)
        calls = _record_body(monkeypatch)
        got = kernels._green_from_psi(p, *args, 0.25)
        assert got.shape == views[0].shape
        assert got.tobytes() == ref.tobytes()
        assert [(ident, size) for ident, size, _ in calls] == [(threading.get_ident(), got.size)]

    def test_kernel_fit_in_the_calling_thread(self, cpus, monkeypatch):
        # the workers only read the caches of _kernel_fit and green_constant_k:
        # the caller fills them before the split
        cpus(2)
        fitted, gammas = [], []
        fit, gamma = core._chebyshev_monomials, sp.gamma
        monkeypatch.setattr(core, "_chebyshev_monomials", lambda func: fitted.append(threading.get_ident()) or fit(func))
        monkeypatch.setattr(sp, "gamma", lambda z: gammas.append(threading.get_ident()) or gamma(z))
        core._kernel_fit.cache_clear()
        core.green_constant_k.cache_clear()
        calls = _record_body(monkeypatch)
        kernels.green_halfspace(FracParams(3, 0.3), *_halfspace_points(2 * kernels._BLOCK, 3))
        assert len(calls) == 2
        assert all(ident != threading.get_ident() for ident, _, _ in calls)
        assert fitted == [threading.get_ident()] * 2  # Q and H, once
        assert gammas and set(gammas) == {threading.get_ident()}

    @pytest.mark.parametrize("kernel", sorted(GREEN_KERNELS))
    @pytest.mark.parametrize("N,s", BLOCK_REGIMES)
    @pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
    def test_green_kernels_bit_identical_to_serial(self, cpus, monkeypatch, kernel, N, s, shape):
        # each block forms its own |x-y|^2 from the point columns and scans it for the diagonal
        x, y = _point_pairs(shape, N)
        p, green = FracParams(N, s), GREEN_KERNELS[kernel]
        cpus(1)
        ref = green(p, x, y)
        cpus(2)
        calls = _record_body(monkeypatch)
        got = green(p, x, y)
        size = ref.size
        assert got.shape == ref.shape == np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        assert got.tobytes() == ref.tobytes()
        assert 0 < np.count_nonzero(ref) < size
        assert len(calls) == PAIR_SHAPES[shape]
        assert sum(n for _, n, _ in calls) == size

    @pytest.mark.parametrize("kernel", sorted(GREEN_KERNELS))
    def test_diagonal_off_the_domain_in_a_late_block(self, cpus, kernel):
        # x = y where fx = 0 is a zero of the kernel, not a singularity
        x, y = _point_pairs((3 * kernels._BLOCK,), 2)
        x[-5] = y[-5] = BOUNDARY_POINTS[kernel]
        p, green = FracParams(2, 0.75), GREEN_KERNELS[kernel]
        cpus(1)
        ref = green(p, x, y)
        cpus(2)
        got = green(p, x, y)
        assert got[-5] == 0.0
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("diagonal,overflow", [(0, 2), (2, 0), (1, 1)])
    @pytest.mark.parametrize("N,s", [(1, 0.5), (2, 0.5), (3, 0.25)])
    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_diagonal_ahead_of_overflowing_psi(self, cpus, workers, diagonal, overflow, N, s, case):
        # one call over the whole batch forms |x-y|^2, scans it for the diagonal, then
        # forms psi: the blocks raise what it raises, whichever block holds each pair
        errstate, x1, y1, raised = OVERFLOWS[case]
        cpus(workers)
        x, y = _halfspace_points(3 * kernels._BLOCK, N)
        i = overflow * kernels._BLOCK + 5
        x[i, 0], y[i, 0] = x1, y1
        y[diagonal * kernels._BLOCK + 9] = x[diagonal * kernels._BLOCK + 9]
        with np.errstate(**errstate), pytest.raises(raised):
            kernels.green_halfspace(FracParams(N, s), x, y)

    def test_halfspace_batch_bounds_memory(self, cpus):
        # one 2^20-pair call holds its 8 MB result and the temporaries of the two
        # blocks in flight; |x-y|^2 formed whole before the split peaked at 26 MB
        cpus(2)
        x, y = _halfspace_points(2**20, 3)
        p = FracParams(3, 0.25)
        kernels.green_halfspace(p, x, y)  # the pool's threads and the kernel fit
        tracemalloc.start()
        try:
            kernels.green_halfspace(p, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_rejects_before_split(self, cpus, monkeypatch):
        cpus(2)
        calls = _record_body(monkeypatch)
        x, y = _halfspace_points(3 * kernels._BLOCK, 2)
        x[-1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            kernels.green_halfspace(FracParams(2, 0.5), x, y)
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("N,s", [(1, 0.5), (2, 0.5), (3, 0.25)])
    def test_overflowing_psi_raises(self, cpus, monkeypatch, workers, N, s):
        # finite points whose products overflow: 4 x1 y1 = |x-y|^2 = inf, psi = NaN
        cpus(workers)
        x, y = _halfspace_points(2 * kernels._BLOCK + 3, N)
        x[5, 0], y[5, 0] = 1e200, 3e200
        finished = []
        body = kernels._green_body

        def late_unless_raising(params, scale, integral, d2, fx, fy):
            if not np.isinf(d2).any():
                time.sleep(0.1)
            out = body(params, scale, integral, d2, fx, fy)
            finished.append(np.size(out))
            return out

        monkeypatch.setattr(kernels, "_green_body", late_unless_raising)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="psi = .* is NaN"):
            kernels.green_halfspace(FracParams(N, s), x, y)
        # the first block raised at once; the error surfaced only after the other two finished
        assert len(finished) == (2 if workers == 2 else 0)

    def test_green_halfspace_symmetric(self, cpus):
        cpus(2)
        x, y = _halfspace_points(2 * kernels._BLOCK + 5, 3, seed=1)
        p = FracParams(3, 0.75)
        g = kernels.green_halfspace(p, x, y)
        assert np.array_equal(g, kernels.green_halfspace(p, y, x))

    def test_one_traced_call_per_green_batch(self, cpus, monkeypatch):
        # the benchmark tracer patches every name in tracing.boundaries and keeps a
        # single-threaded span stack: the workers must enter none of them
        cpus(2)
        entered = []

        def recorder(layer, func):
            def entry(*args, **kwargs):
                entered.append((layer, threading.get_ident()))
                return func(*args, **kwargs)

            return entry

        for owner, name, layer, _ in tracing.boundaries(fraclap):
            monkeypatch.setattr(owner, name, recorder(layer, getattr(owner, name)))
        blocks = _record_body(monkeypatch)
        x, y = _halfspace_points(2**18, 2)
        kernels.green_halfspace(FracParams(2, 0.75), x, y)
        assert entered == [("kernels.green_halfspace", threading.get_ident())]
        assert len(blocks) == 2**18 // kernels._BLOCK
        assert all(ident != threading.get_ident() for ident, _, _ in blocks)

    def test_blocks_see_callers_errstate(self, cpus, monkeypatch):
        cpus(2)
        calls = _record_body(monkeypatch)
        x, y = _halfspace_points(2 * kernels._BLOCK, 3)
        with np.errstate(over="raise"):
            caller = np.geterr()
            kernels.green_halfspace(FracParams(3, 0.25), x, y)
        assert caller["over"] == "raise"
        assert len(calls) == 2
        assert all(ident != threading.get_ident() and err == caller for ident, _, err in calls)

    def test_concurrent_callers_get_serial_bits(self, cpus):
        # two threads split their batches at once, both meeting an empty pool cache
        p = FracParams(3, 0.25)
        batches = [_halfspace_points(3 * kernels._BLOCK, 3, seed) for seed in (5, 6)]
        cpus(1)
        ref = [kernels.green_halfspace(p, x, y) for x, y in batches]
        cpus(2)
        kernels._pool.cache_clear()
        got = [None, None]
        start = threading.Barrier(2)

        def call(k):
            start.wait()
            got[k] = kernels.green_halfspace(p, *batches[k])

        callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        assert [g is not None and g.tobytes() for g in got] == [r.tobytes() for r in ref]

    def test_successive_calls_share_the_workers(self, cpus, monkeypatch):
        cpus(2)
        workers = []
        body = kernels._green_body

        def recorder(*args):
            time.sleep(0.01)  # a block outlasts the next submit: both workers take blocks
            workers.append(threading.current_thread())
            return body(*args)

        monkeypatch.setattr(kernels, "_green_body", recorder)
        x, y = _halfspace_points(4 * kernels._BLOCK, 2)
        kernels.green_halfspace(FracParams(2, 0.75), x, y)
        first = set(workers)
        workers.clear()
        kernels.green_halfspace(FracParams(2, 0.75), x, y)
        assert len(first) == 2 and threading.current_thread() not in first
        assert set(workers) == first

    def test_forked_child_gets_a_fresh_pool(self, cpus):
        cpus(2)
        p = FracParams(2, 0.5)
        x, y = _halfspace_points(2 * kernels._BLOCK, 2)
        ref = kernels.green_halfspace(p, x, y)  # the parent's pool now has threads
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(kernels.green_halfspace(p, x, y)))
        child.start()
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            got = None
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert got is not None, "the forked child returned no result"
        assert child.exitcode == 0
        assert got.tobytes() == ref.tobytes()


class TestCriticalExponents:
    def test_three_half(self):
        ce = critical_exponents(FracParams(3, 0.5))
        assert ce.halfspace == pytest.approx(3.0)
        assert ce.fullspace == pytest.approx(2.0)

    def test_one_dimensional_unbounded(self):
        # N <= 1+2s always holds in dimension one, so the half-space bound
        # is absent for every s; the full-space bound is absent iff N <= 2s.
        for s in (0.25, 0.5, 0.75):
            ce = critical_exponents(FracParams(1, s))
            assert ce.halfspace is None
            assert ce.halfspace_subcritical(100.0)
        assert critical_exponents(FracParams(1, 0.5)).fullspace is None
        assert critical_exponents(FracParams(1, 0.75)).fullspace is None
        assert critical_exponents(FracParams(1, 0.25)).fullspace == pytest.approx(3.0)

    def test_boundary_case(self):
        ce = critical_exponents(FracParams(2, 0.5))
        assert ce.halfspace is None
        assert ce.fullspace == pytest.approx(3.0)

    def test_subcritical_predicate(self):
        ce = CriticalExponents(halfspace=3.0, fullspace=2.0)
        assert ce.halfspace_subcritical(2.9)
        assert not ce.halfspace_subcritical(3.0)
        assert not ce.halfspace_subcritical(0.5)


class TestDimensionReduction:
    def test_two_dimensional_half(self):
        assert dimension_reduction_ratio(FracParams(2, 0.5)) == pytest.approx(2.0, rel=1e-13)

    def test_rejects_one_dimension(self):
        with pytest.raises(ValueError):
            dimension_reduction_ratio(FracParams(1, 0.5))

    def test_equals_constant_ratio(self):
        for N in range(2, 7):
            for s in np.arange(0.1, 0.95, 0.1):
                p = FracParams(N, float(s))
                lower = FracParams(N - 1, float(s))
                ratio = normalization_a(lower) / normalization_a(p)
                assert dimension_reduction_ratio(p) == pytest.approx(ratio, rel=1e-12)

    def test_equals_quadrature(self):
        from scipy import integrate

        for N in range(2, 7):
            for s in np.arange(0.1, 0.95, 0.2):
                p = FracParams(N, float(s))
                val, _ = integrate.quad(
                    lambda lam: (1.0 + lam * lam) ** (-N / 2.0 - s), -np.inf, np.inf
                )
                assert dimension_reduction_ratio(p) == pytest.approx(val, rel=1e-10)


def test_getoor_constant_one_dim_half():
    assert getoor_constant(FracParams(1, 0.5)) == pytest.approx(1.0, rel=1e-14)
