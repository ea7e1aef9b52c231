import math
import multiprocessing
import queue
import threading
import warnings

import numpy as np
import pytest
from scipy import special as sp

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

    def test_against_mpmath_all_regimes(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        # t = 7/3 is x = t/(1+t) = 0.7, where N = 1 < 2s switches branch
        ts = [1e-10, 1e-4, 0.3, 1.0, 7.0 / 3.0, 2.5, 50.0, 1e4, 1e8, 1e12]
        regimes = [(1, 0.25), (1, 0.5), (1, 0.6), (1, 0.75), (1, 0.95), (2, 0.5), (2, 0.75), (3, 0.25), (3, 0.5),
                   (4, 0.9)]
        for N, s in regimes:
            p = FracParams(N, s)
            # the ends t = 0 (x = 0) and t = inf (x = 1); I(inf) is finite for N > 2s
            ends = [0.0, math.inf] if N > 2 * s else []
            for t in ts + ends:
                x = 1 if t == math.inf else mp.mpf(t) / (1 + mp.mpf(t))
                ref = float(mp.betainc(s, mp.mpf(N) / 2 - s, 0, x))
                got = incomplete_kernel_integral(p, t)
                assert got == pytest.approx(ref, rel=1e-10), (N, s, t)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_half_order_closed_form(self, N):
        # s = 1/2: I = 2 int_0^theta cos^(N-2), theta = arctan(sqrt(t)); I(inf) = B(1/2, (N-1)/2)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        # t = 99 is the last point of the cosine recursion, 99.5 the first of the tail series
        ts = [0.0, 1e-10, 1e-4, 0.3, 1.0, 7.0 / 3.0, 2.5, 50.0, 99.0, 99.5, 1e4, 1e8, 1e12, math.inf]
        got = incomplete_kernel_integral(FracParams(N, 0.5), ts)
        assert got[0] == 0.0
        for t, g in zip(ts[1:], got[1:]):
            x = 1 if t == math.inf else mp.mpf(t) / (1 + mp.mpf(t))
            ref = float(mp.betainc(0.5, mp.mpf(N - 1) / 2, 0, x))
            assert g == pytest.approx(ref, rel=1e-14), (N, t)

    @pytest.mark.parametrize("s", [0.55, 0.6, 0.75, 0.9, 0.95])
    def test_large_t_branch_one_dimensional(self, s):
        # N = 1 < 2s above x = 0.7: the connection formula with 2F1(1, 1/2; 3/2-s; u)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        ts = np.concatenate([np.linspace(2.34, 60.0, 9), np.logspace(2, 12, 11)])
        got = incomplete_kernel_integral(FracParams(1, s), ts)
        for t, g in zip(ts, got):
            ref = float(mp.betainc(s, mp.mpf(0.5) - s, 0, mp.mpf(t) / (1 + mp.mpf(t))))
            assert g == pytest.approx(ref, rel=1e-13), (s, t)

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


BLOCK_REGIMES = [(1, 0.5), (1, 0.75), (2, 0.5), (3, 0.25), (3, 0.75), (1, 0.25), (3, 0.5), (4, 0.5)]


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count for one test, on a fresh pool that is shut down after it."""
    monkeypatch.setattr(core, "_pool", None)
    yield lambda n: monkeypatch.setattr(core, "_usable_cpus", lambda: n)
    if core._pool is not None:
        core._pool.shutdown()


def _record_body(monkeypatch):
    """Wrap the private kernel-integral body; returns its calls as (thread id, size, errstate)."""
    calls = []
    body = core._kernel_integral

    def recorder(params, t):
        calls.append((threading.get_ident(), t.size, np.geterr()))
        return body(params, t)

    monkeypatch.setattr(core, "_kernel_integral", recorder)
    return calls


def _kernel_arguments(shape, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.exponential(2.0, shape) ** 3
    flat = t.reshape(-1)
    flat[::997] = 0.0
    flat[5::1009] = np.inf
    flat[-1] = np.inf
    return t


class TestBlockedKernelIntegral:
    """Large inputs run in blocks on the thread pool, bit-identical to one serial call."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("N,s", BLOCK_REGIMES)
    @pytest.mark.parametrize(
        "shape",
        [
            (2 * core._BLOCK - 1,),  # one short of the threshold: serial
            (2 * core._BLOCK,),
            (2 * core._BLOCK + 12345,),  # ragged last block
            "2d",
        ],
    )
    def test_bit_identical_to_serial(self, cpus, monkeypatch, workers, N, s, shape):
        if shape == "2d":  # a transposed, non-contiguous 2-D view
            t = _kernel_arguments((3, core._BLOCK - 7)).T
        else:
            t = _kernel_arguments(shape)
        p = FracParams(N, s)
        cpus(1)
        ref = incomplete_kernel_integral(p, t)
        cpus(workers)
        calls = _record_body(monkeypatch)
        got = incomplete_kernel_integral(p, t)
        assert got.shape == ref.shape == t.shape
        assert got.tobytes() == ref.tobytes()
        blocked = workers >= 2 and t.size >= 2 * core._BLOCK
        assert len(calls) == (-(-t.size // core._BLOCK) if blocked else 1)
        assert sum(n for _, n, _ in calls) == t.size

    def test_rejects_before_split(self, cpus, monkeypatch):
        cpus(2)
        calls = _record_body(monkeypatch)
        t = _kernel_arguments(3 * core._BLOCK)
        t[-1] = np.nan
        with pytest.raises(ValueError):
            incomplete_kernel_integral(FracParams(2, 0.5), t)
        assert calls == []

    def test_green_halfspace_symmetric(self, cpus):
        cpus(2)
        rng = np.random.default_rng(1)
        n = 2 * core._BLOCK + 5
        x = rng.uniform(-2.0, 2.0, (n, 3))
        y = rng.uniform(-2.0, 2.0, (n, 3))
        x[:, 0] = rng.uniform(0.01, 2.0, n)
        y[:, 0] = rng.uniform(0.01, 2.0, n)
        p = FracParams(3, 0.75)
        g = kernels.green_halfspace(p, x, y)
        assert np.array_equal(g, kernels.green_halfspace(p, y, x))

    def test_one_traced_call_per_green_batch(self, cpus, monkeypatch):
        # the benchmark tracer patches kernels.incomplete_kernel_integral and keeps a
        # single-threaded span stack: the split must stay below that name
        cpus(2)
        outer = []
        public = kernels.incomplete_kernel_integral

        def recorder(params, t):
            outer.append((threading.get_ident(), np.size(t)))
            return public(params, t)

        monkeypatch.setattr(kernels, "incomplete_kernel_integral", recorder)
        blocks = _record_body(monkeypatch)
        rng = np.random.default_rng(2)
        n = 2**18
        x = rng.uniform(0.01, 2.0, (n, 2))
        y = rng.uniform(0.01, 2.0, (n, 2))
        kernels.green_halfspace(FracParams(2, 0.75), x, y)
        assert outer == [(threading.get_ident(), n)]
        assert len(blocks) == n // core._BLOCK
        assert all(ident != threading.get_ident() for ident, _, _ in blocks)

    def test_blocks_see_callers_errstate(self, cpus, monkeypatch):
        cpus(2)
        calls = _record_body(monkeypatch)
        t = _kernel_arguments(2 * core._BLOCK)
        with np.errstate(over="raise"):
            caller = np.geterr()
            incomplete_kernel_integral(FracParams(3, 0.25), t)
        assert caller["over"] == "raise"
        assert len(calls) == 2
        assert all(ident != threading.get_ident() and err == caller for ident, _, err in calls)

    def test_forked_child_gets_a_fresh_pool(self, cpus):
        cpus(2)
        p = FracParams(2, 0.5)
        t = _kernel_arguments(2 * core._BLOCK)
        ref = incomplete_kernel_integral(p, t)  # the parent's pool now has threads
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(incomplete_kernel_integral(p, t)))
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
