"""The benchmark's references reproduce known values."""
import math

import mpmath as mp
import pytest

from fraclap_bench import references as ref


@pytest.mark.parametrize("t", [1e-6, 0.3, 1.0, 57.0, 1e6, 1e12])
def test_hypergeometric_form_is_two_asinh_at_n1_s_half(t):
    # the N = 1 < 2s form, taken to s = 1/2, must reproduce the log regime
    a = ref.kernel_integral_hyp(0.5, t)
    b = ref.kernel_integral_log(t)
    assert abs(a - b) <= mp.mpf(10) ** -25 * abs(b)


@pytest.mark.parametrize("N,s", [(1, 0.25), (2, 0.5), (3, 0.25), (3, 0.75)])
def test_betainc_form_tends_to_beta(N, s):
    with mp.workdps(ref.DPS):
        full = mp.beta(s, mp.mpf(N) / 2 - s)
    assert abs(ref.kernel_integral_betainc(N, s, 1e40) - full) <= mp.mpf(10) ** -25 * full


@pytest.mark.parametrize("N,s", [(1, 0.5), (1, 0.75), (2, 0.5), (3, 0.25)])
def test_closed_forms_match_smoothed_quadrature(N, s):
    # u = z^s removes the endpoint singularity: I(t) = (1/s) int_0^(t^s) (1 + u^(1/s))^(-N/2) du
    t = 2.5
    with mp.workdps(40):
        direct = mp.quad(lambda u: (1 + u ** (1 / mp.mpf(s))) ** (-mp.mpf(N) / 2) / s, [0, mp.mpf(t) ** s])
    assert abs(ref.kernel_integral(N, s, t) - direct) <= mp.mpf(10) ** -25 * direct


def test_kernel_integral_small_t_power_law():
    # I(t) ~ t^s / s as t -> 0 in every regime
    for N, s in [(1, 0.5), (1, 0.75), (3, 0.25)]:
        t = 1e-20
        assert float(ref.kernel_integral(N, s, t) / (t**s / s)) == pytest.approx(1.0, rel=1e-12)


def test_green_log_regime_and_symmetry():
    x, y = (0.3,), (1.1,)
    with mp.workdps(ref.DPS):
        x1, y1 = mp.mpf(0.3), mp.mpf(1.1)
        expected = mp.asinh(mp.sqrt(4 * x1 * y1 / (y1 - x1) ** 2)) / mp.pi
    assert abs(ref.green_halfspace(1, 0.5, x, y) - expected) < mp.mpf(10) ** -25
    a = ref.green_halfspace(3, 0.25, (0.2, 0.5, -1.0), (1.7, -0.4, 0.3))
    b = ref.green_halfspace(3, 0.25, (1.7, -0.4, 0.3), (0.2, 0.5, -1.0))
    assert a == b and a > 0
    assert ref.green_halfspace(2, 0.5, (0.0, 0.1), (1.0, 0.0)) == 0


def test_green_constant_at_s_half():
    # k = pi^(-(N/2+1)) Gamma(N/2) sin(pi s) at s = 1/2
    for N in (1, 2, 3):
        expected = math.pi ** (-(N / 2 + 1)) * math.gamma(N / 2)
        assert float(ref.green_constant(N, 0.5)) == pytest.approx(expected, rel=1e-14)


def test_ball_solution_known_values():
    # Getoor's constant is 1 at N = 1, s = 1/2, so u(0) = 2 there
    assert ref.getoor_constant(1, 0.5) == pytest.approx(1.0, rel=1e-15)
    assert ref.ball_solution(1, 0.5, 0.0) == pytest.approx(2.0, rel=1e-15)
    # N = 2, s = 1/2: 2 Gamma(3/2)^2 = pi / 2
    assert ref.getoor_constant(2, 0.5) == pytest.approx(math.pi / 2, rel=1e-15)
    assert ref.ball_solution(2, 0.5, 0.75) == pytest.approx(1.0 + 0.5 / (math.pi / 2), rel=1e-15)
