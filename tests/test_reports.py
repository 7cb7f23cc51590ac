"""The one serialization rule behind every result's to_dict: each field
becomes a key holding a JSON-native value of its annotated type."""

import json

import numpy as np
import pytest

from ccmkit.model import MetricBoundsResult, Report
from ccmkit.simulator import ConvergenceReport
from ccmkit.transforms import ConvexityResult, InvarianceResult
from ccmkit.verifier import (
    Condition1Result,
    ContractionResult,
    OrthogonalityResult,
    PowerLawFit,
    StrongConditionsResult,
    VerificationReport,
)

f64, i64, b_ = np.float64, np.int64, np.bool_
AT = {"x": [0.5], "t": 0.0}

# numpy scalars, Python ints in float fields, tuples and None throughout
ORTH = OrthogonalityResult(b_(True), f64(1e-9), 1)
ORTH_D = {"passed": True, "residual": 1e-9, "tol": 1.0}
BOUNDS = MetricBoundsResult(b_(False), f64(0.5), 2, AT, AT, tol=f64(1e-9))
BOUNDS_D = {"passed": False, "min_eig": 0.5, "max_eig": 2.0, "argmin": AT,
            "argmax": AT, "tol": 1e-9}
CONTRACTION = ContractionResult(b_(True), i64(801), i64(800), f64(-1.0), AT,
                                [{**AT, "reason": "margin"}], ORTH)
CONTRACTION_D = {"passed": True, "checked_points": 801, "vacuous_points": 800,
                 "worst_margin": -1.0, "worst_at": AT,
                 "failures": [{**AT, "reason": "margin"}], "orthogonality": ORTH_D}
FIT = PowerLawFit(f64(-3.0), (1.0,), 0, (f64(0.5), f64(0.25)), [f64(32.0), 256])
FIT_D = {"exponent": -3.0, "direction": [1.0], "t": 0.0, "scales": [0.5, 0.25],
         "psi_values": [32.0, 256]}
CONDITION1 = Condition1Result(b_(False), i64(801), f64(3e7), AT,
                              invalid_count=i64(2), blow_up=b_(True), power_law=FIT)
CONDITION1_D = {"passed": False, "checked_points": 801, "max_psi": 3e7,
                "max_psi_at": AT, "psi_cap": 1e6, "invalid_count": 2,
                "invalid_examples": [], "blow_up": True, "power_law": FIT_D}
STRONG = StrongConditionsResult(b_(True), b_(True), b_(True), 0,
                                psi_zero_confirmed=b_(True))
STRONG_D = {"c1_passed": True, "c2_passed": True, "strong": True,
            "max_H_norm": 0.0, "c2_tol": 1e-8, "psi_zero_confirmed": True}

CASES = [
    (ORTH, ORTH_D),
    (BOUNDS, BOUNDS_D),
    (CONTRACTION, CONTRACTION_D),
    (ContractionResult(True, 1, 1, None), {
        "passed": True, "checked_points": 1, "vacuous_points": 1,
        "worst_margin": None, "worst_at": {}, "failures": [], "orthogonality": None}),
    (FIT, FIT_D),
    (CONDITION1, CONDITION1_D),
    (STRONG, STRONG_D),
    (VerificationReport({"seed": 42}, "grid only", BOUNDS, CONTRACTION, CONDITION1,
                        STRONG, 1, b_(False)), {
        "domain": {"seed": 42}, "scope": "grid only", "metric_bounds": BOUNDS_D,
        "contraction": CONTRACTION_D, "condition1": CONDITION1_D,
        "strong_conditions": STRONG_D, "lambda": 1.0, "verdict": False}),
    (ConvergenceReport(np.array([4.0, 1.0, 0.25]), f64(0.5), 2, fitted_rate=f64(0.49),
                       rate_pass=b_(True), overshoot_pass=b_(False),
                       infeasible_time=f64(0.3), passed=b_(False)), {
        "claimed_rate": 0.5, "claimed_overshoot": 2.0, "fitted_rate": 0.49,
        "rate_status": "fitted", "overshoot": None, "rate_pass": True,
        "overshoot_pass": False, "V_initial": 4.0, "V_final": 0.25,
        "infeasible_time": 0.3, "infeasible_message": "", "abort_time": None,
        "passed": False}),
    (ConvergenceReport(np.array([]), 0.5, 1.0, rate_status="converged"), {
        "claimed_rate": 0.5, "claimed_overshoot": 1.0, "fitted_rate": None,
        "rate_status": "converged", "overshoot": None, "rate_pass": False,
        "overshoot_pass": False, "V_initial": None, "V_final": None,
        "infeasible_time": None, "infeasible_message": "", "abort_time": None,
        "passed": False}),
    (ConvexityResult(b_(True), f64(-1e-3), (0.25, f64(0.5)), i64(12)), {
        "feasible": True, "worst_residual": -1e-3, "thetas": [0.25, 0.5],
        "samples": 12}),
    (InvarianceResult(b_(True), i64(968), i64(0), f64(15.0), 2, f64(0.25), f64(30.5),
                      fd_checked=i64(8), fd_max_err=0, margins_match=b_(True)), {
        "passed": True, "checked_points": 968, "skipped_invalid": 0,
        "min_slack": 15.0, "kappa_max": 2.0, "gamma_min": 0.25,
        "psibar_max": 30.5, "fd_checked": 8, "fd_max_err": 0.0,
        "margin_max_diff": 0.0, "margins_match": True}),
]


def _assert_native(got, want, where="report"):
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_native(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_native(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("result, want", CASES,
                         ids=[f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(CASES)])
def test_to_dict_gives_json_native_annotated_types(result, want):
    d = result.to_dict()
    _assert_native(d, want)
    assert json.loads(json.dumps(d)) == want
    if isinstance(result, VerificationReport):
        assert "lam" not in d and "strong" not in d
    if isinstance(result, ConvergenceReport):
        assert "V" not in d


def test_every_result_class_is_in_the_table():
    assert {type(r) for r, _ in CASES} == set(Report.__subclasses__())
