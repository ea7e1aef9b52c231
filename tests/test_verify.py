import numpy as np
import pytest

from fraclap import verify
from fraclap.core import FracParams

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


@pytest.mark.slow
def test_decay_regimes_pass_with_seed_slopes():
    rep = verify.run_check("decay-regimes")
    assert rep.passed
    assert rep.measured == pytest.approx(
        {"slope_s0.25": -0.0020849, "log_ratio_drift_s0.5": 0.051075, "slope_s0.75": -0.50204},
        abs=1e-6,
    )


@pytest.mark.slow
def test_harmonicity_meanvalue_passes():
    rep = verify.run_check("harmonicity-meanvalue")
    assert rep.passed
    assert max(rep.measured.values()) <= 1e-6


@pytest.mark.slow
def test_kernel_bounds_stays_red_on_its_sampled_sup():
    # a sampled sup keeps growing with the sample count: at (3, 0.5) it
    # moves 0.16494 -> 0.17352 when the samples double, past the 1.05 allowed
    rep = verify.run_check("kernel-bounds")
    assert not rep.passed
    assert rep.measured["ratio_sup_N3_s0.5"] == pytest.approx(0.164937, rel=1e-5)
    assert rep.measured["ratio_sup_doubled_N3_s0.5"] == pytest.approx(0.173522, rel=1e-5)
    assert rep.tolerance == {"doubling_growth": 1.05}


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
