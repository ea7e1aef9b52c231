"""Negative controls: the workload scores count a planted defect."""
import numpy as np
import pytest

from fraclap_bench import references as ref
from fraclap_bench.workloads import BallDirichlet, HalfspacePicard, KernelBatch, sign_violations


def _ball_case():
    axes = (np.linspace(-0.5, 0.5, 5),)
    x = np.array([0.9, 0.0])
    inputs = {"grids": [(1, 0.5, axes)], "points": [(2, 0.5, x)]}
    values = np.array([ref.ball_solution(1, 0.5, float(a * a)) for a in axes[0]])
    green = ref.ball_solution(2, 0.5, 0.81) - 1.0
    facts = {"grids": [(values, {}, None)], "points": [((1.0, None), (green, None))]}
    return inputs, facts


def test_ball_exact_results_pass():
    inputs, facts = _ball_case()
    sc = BallDirichlet().score(inputs, facts)
    assert (sc.attempted, sc.failed, sc.correct) == (6, 0, True)
    assert sc.min_digits > 14


def test_ball_perturbed_result_fails_and_lowers_digits():
    inputs, facts = _ball_case()
    facts["grids"][0][0][2] *= 1.0 + 1e-6
    sc = BallDirichlet().score(inputs, facts)
    assert sc.failed == 1
    assert sc.min_digits == pytest.approx(6.0, abs=0.01)
    assert not sc.correct  # returned as valid, so the miss was unreported


def test_ball_reported_tolerance_miss_counts_but_stays_correct():
    inputs, facts = _ball_case()
    facts["points"][0] = ((1.0 + 3e-10, "ToleranceNotMet"), facts["points"][0][1])
    facts["grids"][0][1][(3,)] = (0.0, 1e-3)
    sc = BallDirichlet().score(inputs, facts)
    assert sc.failed == 2 and sc.correct
    assert sc.min_digits == pytest.approx(-np.log10(3e-10 / ref.ball_solution(2, 0.5, 0.81)), abs=0.01)


def _kernel_case():
    wl = KernelBatch()
    inputs = {"h_r": [0.1, 1.0], "h_t": [0.5, 2.0], "lams": [1.0, 0.5, 0.25]}
    partials = [np.tile([-1.0, 1.0, -1.0], (2, 2, 1)) for _ in wl.h_regimes]
    facts = {
        "batches": [{"symmetric": True, "rel_errors": [2e-16, 1e-15]} for _ in wl.regimes],
        "partials": partials,
        "strip_sups": [0.76, 0.38, 0.19],
        "lambda0": 0.64,
        "lambda0_sup": 0.8999,
    }
    return wl, inputs, facts


def test_kernel_clean_case_passes():
    wl, inputs, facts = _kernel_case()
    sc = wl.score(inputs, facts)
    assert (sc.attempted, sc.failed, sc.correct) == (5 + 4 + 3 + 1, 0, True)
    assert sc.min_digits == pytest.approx(15.0)


def test_kernel_flipped_dt_sign_counts():
    wl, inputs, facts = _kernel_case()
    facts["partials"][2][1, 0, 1] = -1e-7
    sc = wl.score(inputs, facts)
    assert sc.failed == 1 and sc.correct
    assert sign_violations(facts["partials"]) == 1


def test_kernel_sign_violations_count_once_per_regime():
    wl, inputs, facts = _kernel_case()
    facts["partials"][2][:, :, 1] = -1e-7
    facts["partials"][3][0, 1, 0] = 1e-7
    sc = wl.score(inputs, facts)
    assert (sc.attempted, sc.failed, sc.correct) == (13, 2, True)
    assert sign_violations(facts["partials"]) == 5


def test_kernel_raised_batches_are_unchecked():
    wl, inputs, facts = _kernel_case()
    clean = wl.score(inputs, facts)
    facts["batches"] = [{"error": "ValueError"} for _ in wl.regimes]
    sc = wl.score(inputs, facts)
    assert (sc.failed, sc.unreported, sc.correct) == (5, 5, False)
    assert sc.min_digits < clean.min_digits and np.isfinite(sc.min_digits)


def test_picard_raised_operator_is_unchecked():
    wl, inputs, facts = _picard_case()
    facts = {"error": "MemoryError", "solves": [{"error": "MemoryError"} for _ in wl.powers]}
    sc = wl.score(inputs, facts)
    assert (sc.attempted, sc.failed, sc.correct) == (49, 49, False)
    assert sc.min_digits < 0


def test_kernel_asymmetry_ladder_and_lambda0_count():
    wl, inputs, facts = _kernel_case()
    facts["batches"][0]["symmetric"] = False
    facts["strip_sups"][2] = 0.38  # not strictly below the previous level
    facts["lambda0_sup"] = 0.9011
    assert wl.score(inputs, facts).failed == 3


def test_kernel_reference_miss_is_unreported():
    wl, inputs, facts = _kernel_case()
    facts["batches"][3]["rel_errors"].append(2e-10)
    sc = wl.score(inputs, facts)
    assert sc.failed == 1 and not sc.correct


def _picard_case():
    wl = HalfspacePicard()
    inputs = {"lams": np.linspace(0.2, 0.8, wl.plane_levels)}
    solve = {"verdict": "converged-to-zero", "iterations": 3, "min_slope": 0.0,
             "plane_violations": [0] * wl.plane_levels}
    facts = {"error": None, "min_coefficient": 0.0, "row_sums": [1.0, 2.0], "row_refs": [1.01, 2.0],
             "solves": [dict(solve, plane_violations=list(solve["plane_violations"])) for _ in wl.powers]}
    return wl, inputs, facts


def test_picard_clean_case_passes():
    wl, inputs, facts = _picard_case()
    sc = wl.score(inputs, facts)
    assert (sc.attempted, sc.failed, sc.correct) == (1 + 4 * 12, 0, True)
    assert sc.min_digits == pytest.approx(-np.log10(0.01 / 1.01))


def test_picard_converged_nonzero_counts():
    wl, inputs, facts = _picard_case()
    facts["solves"][2]["verdict"] = "converged-nonzero"
    assert wl.score(inputs, facts).failed == 1


def test_picard_negative_coefficient_and_plane_violation_count():
    wl, inputs, facts = _picard_case()
    facts["min_coefficient"] = -1e-300
    facts["solves"][0]["plane_violations"][4] = 2
    sc = wl.score(inputs, facts)
    assert sc.failed == 2 and sc.correct


def test_picard_raised_solve_keeps_attempted_constant():
    wl, inputs, facts = _picard_case()
    facts["solves"][1] = {"error": "ValueError"}
    sc = wl.score(inputs, facts)
    assert (sc.attempted, sc.failed) == (49, 12)


def test_nan_result_is_unreported_and_digits_stay_finite():
    inputs, facts = _ball_case()
    facts["grids"][0][0][1] = np.nan
    sc = BallDirichlet().score(inputs, facts)
    assert sc.failed == 1 and not sc.correct
    assert np.isfinite(sc.min_digits) and sc.min_digits < 0
    wl, k_inputs, k_facts = _kernel_case()
    k_facts["batches"][1]["rel_errors"].insert(0, float("nan"))
    assert not wl.score(k_inputs, k_facts).correct
