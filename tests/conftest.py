import math

import pytest

from fraclap import kernels


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count for one test."""
    return lambda n: monkeypatch.setattr(kernels, "_usable_cpus", lambda: n)


@pytest.fixture(scope="session")
def kernel_integral_ref():
    """I(t) = int_0^t z^(s-1) (1+z)^(-N/2) dz as a float, from mpmath at 40 digits.

    I = t^s/s 2F1(N/2, s; s+1; -t) in every regime; I(inf) is B(s, N/2 - s)
    when N > 2s and +inf otherwise.
    """
    mp = pytest.importorskip("mpmath")

    def ref(N, s, t):
        with mp.workdps(40):
            s_, t_, h = mp.mpf(s), mp.mpf(t), mp.mpf(N) / 2
            if t == math.inf:
                return float(mp.beta(s_, h - s_)) if N > 2 * s else math.inf
            return float(t_**s_ / s_ * mp.hyp2f1(h, s_, s_ + 1, -t_))

    return ref
