import inspect

import numpy as np
import pytest

from fraclap import verify
from fraclap.core import FracParams
from fraclap.quadrature import QuadratureSpec, ToleranceNotMet

# Picard verdicts of the angular-sweep self-cells this rule replaced: the
# corrected diagonal must leave every verdict and the pass state unchanged
SEED_LIOUVILLE = {
    "verdict_N2_s0.5_q1.5": "converged-to-zero",
    "verdict_N2_s0.5_q1.5_iters": 5.0,
    "verdict_N2_s0.5_q2": "converged-to-zero",
    "verdict_N2_s0.5_q2_iters": 3.0,
    "verdict_N2_s0.5_q3": "converged-to-zero",
    "verdict_N2_s0.5_q3_iters": 3.0,
    "verdict_N3_s0.5_q2": "converged-to-zero",
    "verdict_N3_s0.5_q2_iters": 3.0,
}
def test_every_check_takes_only_the_seed():
    # each check runs the one sweep its Report states: no caller can shrink it
    for check_id, runner in verify._RUNNERS.items():
        assert str(inspect.signature(runner)) == "(seed=42)", check_id


SEED_MONOTONICITY = {
    "verdict_zero": "converged-to-zero",
    "verdict_power2": "converged-to-zero",
    "plane_violations_zero": 0.0,
    "plane_violations_power2": 0.0,
    "control_detected": 1.0,
}


@pytest.mark.slow
def test_liouville_passes_with_seed_verdicts():
    rep = verify.run_check("liouville")
    assert rep.passed
    assert rep.measured == SEED_LIOUVILLE


@pytest.mark.slow
def test_monotonicity_passes_with_seed_verdicts():
    rep = verify.run_check("monotonicity")
    assert rep.passed
    assert {k: rep.measured[k] for k in SEED_MONOTONICITY} == SEED_MONOTONICITY
    assert rep.measured["min_slope_power2"] >= rep.tolerance["min_slope"]


def test_h_monotonicity_passes_without_sign_violations():
    rep = verify.run_check("h-monotonicity")
    assert rep.passed
    assert rep.samples == 4 * 30 * 30
    assert rep.measured == {"sign_violations": 0.0}


@pytest.mark.slow
def test_boundary_estimate_passes_with_seed_slopes():
    rep = verify.run_check("boundary-estimate")
    assert rep.passed
    assert rep.measured == pytest.approx(
        {
            "slope_N2_s0.3": 0.297213,
            "slope_N2_s0.5": 0.495355,
            "slope_N1_s0.5": 0.495355,
            "slope_N1_s0.75": 0.743032,
        },
        abs=1e-6,
    )


@pytest.mark.slow
def test_poisson_normalization_passes():
    rep = verify.run_check("poisson-normalization")
    assert rep.passed
    assert rep.measured["max_abs_error"] <= 1e-11


def test_strip_mass_stays_red_against_the_stated_constant():
    # the mass decreases with the slab width, but at lam = 0.01 its sup is
    # 7.6e-3, above the asserted 1e-3
    rep = verify.run_check("strip-mass")
    assert not rep.passed
    assert rep.measured["decreasing"] == 1.0
    assert rep.measured["sup_mass_at_0.01"] == pytest.approx(7.637357e-3, rel=1e-6)
    # why: the mass scales as lam^(2s), and at lam = 1 the sup is 0.76374, not below 0.1
    assert rep.measured["sup_ratio_0.01_to_1"] == pytest.approx(0.01 ** (2 * 0.5), rel=1e-7)
    assert rep.measured["sup_mass_at_1"] == pytest.approx(0.7637357, rel=1e-6)
    assert rep.tolerance == {"sup_mass_at_0.01": 1e-3}


def test_dimension_reduction_passes():
    rep = verify.run_check("dimension-reduction")
    assert rep.passed
    assert rep.measured["max_rel_mismatch"] <= 1e-14


def test_critical_bubble_passes():
    rep = verify.run_check("critical-bubble")
    assert rep.passed
    assert rep.samples == 28
    assert rep.measured["max_ratio_spread"] <= 1e-5
    assert rep.measured["max_rel_dev_from_lambda"] <= 1e-5
    # negative control: off the critical power the ratio is not constant
    assert rep.measured["min_control_spread"] >= 0.1


@pytest.mark.slow
def test_green_limit_passes():
    rep = verify.run_check("green-limit")
    assert rep.passed
    assert rep.measured == pytest.approx(
        {"min_monotone_step": 1.1798e-8, "final_gap": 1.2701e-8, "psi_gap": 2.4381e-12}, rel=1e-4
    )


@pytest.mark.slow
def test_reflection_inequalities_pass_without_violations():
    rep = verify.run_check("reflection-inequalities")
    assert rep.passed
    assert rep.samples == 60000
    assert rep.measured == pytest.approx(
        {"violations": 0.0, "worst_margin": 4.8775e-8, "control_missed": 0.0}, rel=1e-4
    )


def test_decay_regimes_pass_with_seed_slopes():
    rep = verify.run_check("decay-regimes")
    assert rep.passed
    assert rep.measured == pytest.approx(
        {"slope_s0.25": -0.0020849, "log_ratio_drift_s0.5": 0.051075, "slope_s0.75": -0.50204},
        abs=1e-6,
    )


def _decay_reference_n1(x1, s):
    """T(x1) at N = 1: int_{y > 2} (y - x1)^(-1) ((y - 1)^2 - 1)^(-s) dy, by mpmath
    with y = 2 + v^(1/(1-s)), which makes the integrand smooth at y = 2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        s, x1 = mp.mpf(s), mp.mpf(x1)

        def f(v):
            y = 2 + v ** (1 / (1 - s))
            return y**-s / ((y - x1) * (1 - s))

        return float(mp.quad(f, [0, 1, mp.inf]))


# T(1/4) by nested quad in polar coordinates about e1 (no reduction to the cap)
DECAY_FROZEN = {
    (2, 0.25): 8.132760332524, (2, 0.5): 7.775238462761, (2, 0.75): 17.19320717922,
    (3, 0.25): 18.32542634827, (3, 0.5): 18.47924984772, (3, 0.75): 39.77082928823,
}


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("x1", [0.25, 2.0**-16])
def test_decay_integral_matches_mpmath_on_the_line(x1, s):
    ref = _decay_reference_n1(x1, s)
    assert verify.decay_integral(FracParams(1, s), x1) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("N, s", sorted(DECAY_FROZEN))
def test_decay_integral_matches_polar_references(N, s):
    assert verify.decay_integral(FracParams(N, s), 0.25) == pytest.approx(DECAY_FROZEN[N, s], rel=1e-8)


def test_decay_integral_rejects_unsupported_input():
    with pytest.raises(ValueError):
        verify.decay_integral(FracParams(4, 0.5), 0.25)
    # x outside B_1(e1) puts the kernel's singularity inside the domain
    with pytest.raises(ValueError):
        verify.decay_integral(FracParams(2, 0.5), 2.5)


def test_decay_integral_error_covers_its_miss_when_it_raises():
    # one pass leaves N = 2 about 4e-4 off; N = 1 and 3 are exact to reference precision by then
    spec = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_refinements=1)
    with pytest.raises(ToleranceNotMet) as err:
        verify.decay_integral(FracParams(2, 0.5), 0.25, spec)
    assert err.value.error >= abs(err.value.estimate - DECAY_FROZEN[(2, 0.5)])


def test_harmonicity_meanvalue_passes():
    rep = verify.run_check("harmonicity-meanvalue")
    assert rep.passed
    assert max(rep.measured.values()) <= 1e-6


def test_kernel_bounds_passes_on_explicit_constants():
    # every sample lies below the explicit bound, and within 1 % of it (the
    # bound scaled by 0.99 fails), so a kernel 0.1 % too large fails too
    rep = verify.run_check("kernel-bounds")
    assert rep.passed
    assert rep.measured == pytest.approx(
        {"max_ratio_N3_s0.5": 0.9999783, "max_ratio_N1_s0.75": 0.9991142,
         "max_ratio_N1_s0.5": 0.9995127, "control_missed": 0.0},
        abs=1e-7,
    )
    assert rep.tolerance == {"max_ratio": 1.0, "control_ratio": 0.99}


def test_kernel_bounds_fails_on_an_inflated_kernel(monkeypatch):
    # a criterion on sampled-sup growth is blind to a constant factor; the bound is not
    green = verify.green_halfspace
    monkeypatch.setattr(verify, "green_halfspace", lambda p, x, y: 1.001 * green(p, x, y))
    rep = verify.run_check("kernel-bounds")
    assert not rep.passed
    assert all(rep.measured[k] > 1.0 for k in rep.measured if k.startswith("max_ratio"))


def test_cached_operator_keys_on_every_node():
    # same endpoints and count, different interior nodes: two operators
    params = FracParams(1, 0.5)
    uniform = (np.linspace(0.1, 4.0, 16),)
    geometric = (0.1 * 40.0 ** (np.arange(16) / 15.0),)
    a = verify._cached_operator(params, uniform)
    b = verify._cached_operator(params, geometric)
    assert not np.array_equal(a.nodes, b.nodes)
    np.testing.assert_allclose(b.nodes[:, 0], geometric[0])
    assert verify._cached_operator(params, (np.linspace(0.1, 4.0, 16),)) is a
