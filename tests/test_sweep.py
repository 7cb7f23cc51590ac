"""The batched grid sweep against the per-point reference functions.

verify, check_contraction, check_condition1, check_strong_conditions and
invariance_probe all read one stacked pass over the grid.  Here every
grid point is recomputed with the single-point API (kernel_basis,
check_orthogonality, check_ccm_point, eps_margin, construct_psi,
compute_H): flags must match exactly, floats to 1e-12 relative, and the
summaries must list failures in grid order with their cap of 16.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from ccmkit.differential import compute_H, compute_Q
from ccmkit.model import bundled_spec_path, load_spec, plant_for, raw_slice
from ccmkit.verifier import (
    CertificateInvalid,
    _sweep,
    check_ccm_point,
    check_condition1,
    check_contraction,
    check_orthogonality,
    check_strong_conditions,
    construct_psi,
    eps_margin,
    kernel_basis,
)
from conftest import curved_system, grid_of, metric_of, system_of, \
    two_input_system

RTOL = 1e-12


def _bundled(name, lam=None):
    sys, met, grid = load_spec(bundled_spec_path(name))
    return sys, met, grid, met.lam if lam is None else lam


def _curved():
    sys, met = curved_system()
    grid = grid_of([(-2.0, 2.0, 41), (-2.0, 2.0, 41)], [[0.0]],
                   t_samples=(0.0, 0.4, 1.3))
    return sys, met, grid, met.lam


def _two_input():
    sys, met, grid = two_input_system()
    return sys, met, grid, met.lam


def _orthogonality_failure():
    # B = (1, x2)': the kernel e2 sees e2' H e2 = 2 at every point
    sys = system_of(["0", "0"], [["1"], ["x2"]])
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(-1.0, 1.0, 21), (-1.0, 1.0, 21)], [[0.0]])
    return sys, met, grid, met.lam


def _three_state_two_input():
    # m = 2 inputs with a one-dimensional kernel, so the per-input
    # orthogonality residuals differ; B loses rank where x1 = 0
    sys = system_of(["x2", "x3 - x1", "-x1*x2"],
                    [["1", "0"], ["0", "x1"], ["x2", "1"]])
    met = metric_of([["2 + 0.5*sin(x1)", "0.1*x3", "0"],
                     ["2", "0.2"], ["1.5 + 0.3*cos(x2)"]], 0.5, 3.0, 0.4)
    grid = grid_of([(-1.0, 1.0, 9)] * 3, [[0.0, 0.0]], t_samples=(0.0, 0.5))
    return sys, met, grid, met.lam


CASES = {
    "counterexample": lambda: _bundled("counterexample"),
    "double-integrator": lambda: _bundled("double-integrator"),
    "bounded-gain": lambda: _bundled("bounded-gain"),
    "curved-41x41-3t": _curved,
    "two-input": _two_input,
    "orthogonality-failure": _orthogonality_failure,
    "counterexample-lambda-1.5": lambda: _bundled("counterexample", 1.5),
    "three-state-two-input": _three_state_two_input,
}


@lru_cache(maxsize=None)
def _case(name):
    sys, met, grid, lam = CASES[name]()
    return sys, met, grid, lam, _reference_rows(sys, met, grid, lam)


def _reference_rows(sys, met, grid, lam):
    """Per-point results in grid order (t samples outermost)."""
    plant = plant_for(sys, met)
    X = grid.x_points()
    rows = []
    for t in grid.t_samples:
        rb = plant.raw_batch(X, float(t))
        for i in range(X.shape[0]):
            raw = raw_slice(rb, i)
            H = compute_H(raw)
            N = kernel_basis(raw.M @ raw.B)
            row = {"x": X[i].tolist(), "t": float(t),
                   "h_norm": max(float(np.linalg.norm(Hi)) for Hi in H),
                   "vacuous": N.shape[1] == 0, "eps": eps_margin(raw.M),
                   "margin": math.nan, "orth_ok": True, "orth_residual": 0.0}
            if N.shape[1]:
                orth = check_orthogonality(H, N)
                row.update(margin=check_ccm_point(raw, lam), orth_ok=orth.passed,
                           orth_residual=orth.residual)
            try:
                cert = construct_psi(compute_Q(raw), H)
                row.update(valid=True, psi=cert.psi, cert_residual=cert.residual)
            except CertificateInvalid as err:
                row.update(valid=False, psi=math.nan, cert_residual=err.residual)
            rows.append(row)
    return rows


def _same(got, want, where="result"):
    """Recursive equality with floats compared to RTOL relative."""
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for k in want:
            _same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{k}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=RTOL, abs=0.0, nan_ok=True), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", list(CASES))
def test_sweep_matches_point_functions(name):
    sys, met, grid, lam, rows = _case(name)
    sw = _sweep(sys, met, grid, lam)
    assert sw.x.tolist() == [r["x"] for r in rows]
    assert sw.t.tolist() == [r["t"] for r in rows]
    assert np.isnan(sw.margin).tolist() == [r["vacuous"] for r in rows]
    assert sw.orth_ok.tolist() == [r["orth_ok"] for r in rows]
    assert sw.valid.tolist() == [r["valid"] for r in rows]
    for field in ("margin", "eps", "orth_residual", "psi", "cert_residual",
                  "h_norm"):
        np.testing.assert_allclose(getattr(sw, field), [r[field] for r in rows],
                                   rtol=RTOL, atol=0.0, equal_nan=True,
                                   err_msg=field)


def _reference_contraction(rows):
    """The summary loop of the per-point contraction sweep."""
    failures, worst, worst_at, vacuous = [], None, {}, 0
    for r in rows:
        at = {"x": r["x"], "t": r["t"]}
        if r["vacuous"]:
            vacuous += 1
            continue
        if not r["orth_ok"] and len(failures) < 16:
            failures.append({**at, "reason": "orthogonality",
                             "residual": r["orth_residual"]})
        if worst is None or r["margin"] > worst:
            worst, worst_at = r["margin"], at
        if r["margin"] >= -r["eps"] and len(failures) < 16:
            failures.append({**at, "reason": "margin", "margin": r["margin"],
                             "eps": r["eps"]})
    passed = all(r["vacuous"] or (r["orth_ok"] and r["margin"] < -r["eps"])
                 for r in rows)
    return {"passed": passed, "checked_points": len(rows),
            "vacuous_points": vacuous, "worst_margin": worst,
            "worst_at": worst_at, "failures": failures}


def _reference_condition1(rows):
    max_psi, max_at, examples = 0.0, {}, []
    for r in rows:
        at = {"x": r["x"], "t": r["t"]}
        if not r["valid"]:
            if len(examples) < 16:
                examples.append({**at, "residual": r["cert_residual"]})
        elif r["psi"] > max_psi:
            max_psi, max_at = r["psi"], at
    return {"checked_points": len(rows), "max_psi": max_psi,
            "max_psi_at": max_at,
            "invalid_count": sum(not r["valid"] for r in rows),
            "invalid_examples": examples}


@pytest.mark.parametrize("name", list(CASES))
def test_summaries_keep_grid_order_and_cap(name):
    sys, met, grid, lam, rows = _case(name)
    got = check_contraction(sys, met, grid, lam=lam).to_dict()
    want = _reference_contraction(rows)
    _same({k: got[k] for k in want}, want, "contraction")
    assert got["orthogonality"]["passed"] == all(r["orth_ok"] for r in rows)
    _same(got["orthogonality"]["residual"],
          max(r["orth_residual"] for r in rows), "orthogonality.residual")

    got = check_condition1(sys, met, grid).to_dict()
    want = _reference_condition1(rows)
    _same({k: got[k] for k in want}, want, "condition1")

    if lam == met.lam:
        strong = check_strong_conditions(sys, met, grid)
        _same(strong.max_H_norm, max(r["h_norm"] for r in rows), "max_H_norm")


def test_capped_lists_on_the_curved_grid():
    sys, met, grid, lam, rows = _case("curved-41x41-3t")
    c = check_contraction(sys, met, grid)
    c1 = check_condition1(sys, met, grid)
    assert sum(not r["valid"] for r in rows) == c1.invalid_count == 5040
    assert len(c.failures) == 16 and len(c1.invalid_examples) == 16
    assert {f["t"] for f in c.failures} == {0.0}
