"""The batched grid sweep against the per-point reference functions.

verify, check_contraction, check_condition1, check_strong_conditions,
fit_psi_power_law and invariance_probe all read the verifier's stacked
stages.  Here every grid point is recomputed with the per-point
reference of tests/reference.py (kernel_basis, check_orthogonality,
check_ccm_point, eps_margin, construct_psi, compute_H): flags must match
exactly, floats to 1e-12 relative, and the summaries must list failures
in grid order with their cap of 16.  The dual form's kernel pencil is a
second oracle of the margin, in other coordinates.  The scans read the grid in chunks:
every summary must come out byte for byte the same at any chunk length.
"""

import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import reference as ref
from ccmkit import model
from ccmkit.model import (
    NonFiniteEvalError,
    bundled_spec_path,
    check_metric_bounds,
    load_spec_file,
    plant_for,
)
from ccmkit.verifier import (
    MAX_EXAMPLES,
    CertificateInvalid,
    _sweep,
    check_condition1,
    check_contraction,
    check_strong_conditions,
    construct_psi,
    fit_psi_power_law,
    kernel_basis,
    verify,
)
from conftest import curved_system, grid_of, metric_of, set_chunk_points, \
    system_of, two_input_system

RTOL = 1e-12


def _bundled(name, lam=None):
    sf = load_spec_file(bundled_spec_path(name))
    met = sf.metric if lam is None else replace(sf.metric, lam=lam)
    return sf.system, met, sf.grid


def _curved():
    sys, met = curved_system()
    grid = grid_of([(-2.0, 2.0, 41), (-2.0, 2.0, 41)], [[0.0]],
                   t_samples=(0.0, 0.4, 1.3))
    return sys, met, grid


def _two_input():
    sys, met, grid = two_input_system()
    return sys, met, grid


def _orthogonality_failure():
    # B = (1, x2)': the kernel e2 sees e2' H e2 = 2 at every point
    sys = system_of(["0", "0"], [["1"], ["x2"]])
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(-1.0, 1.0, 21), (-1.0, 1.0, 21)], [[0.0]])
    return sys, met, grid


def _orthogonality_near_tolerance():
    # B = (1, c x2)' with M = I: H = diag(0, 2c) and the kernel residual is
    # 2c / (1 + c^2 x2^2) = 5e-8 to rounding, five times the tolerance
    # 1e-8 (1 + ||H||_F): a tolerance 10x looser would pass every point
    sys = system_of(["-x1", "-x2"], [["1"], ["2.5e-8*x2"]])
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(-1.0, 1.0, 5), (-1.0, 1.0, 5)], [[0.0]])
    return sys, met, grid


def _three_state_two_input():
    # m = 2 inputs with a one-dimensional kernel, so the per-input
    # orthogonality residuals differ; B loses rank where x1 = 0
    sys = system_of(["x2", "x3 - x1", "-x1*x2"],
                    [["1", "0"], ["0", "x1"], ["x2", "1"]])
    met = metric_of([["2 + 0.5*sin(x1)", "0.1*x3", "0"],
                     ["2", "0.2"], ["1.5 + 0.3*cos(x2)"]], 0.5, 3.0, 0.4)
    grid = grid_of([(-1.0, 1.0, 9)] * 3, [[0.0, 0.0]], t_samples=(0.0, 0.5))
    return sys, met, grid


def _three_state_one_input():
    # one input in three states: a two-dimensional kernel everywhere, so
    # the margin is the larger of two eigenvalues
    sys = system_of(["x2", "x3 - sin(x1)", "-x1 - x2*x3"],
                    [["0"], ["0.5*x1"], ["1 + 0.2*x2^2"]])
    met = metric_of([["2 + 0.5*sin(x1)", "0.1*x3", "0"],
                     ["2", "0.2"], ["1.5 + 0.3*cos(x2)"]], 0.5, 3.0, 0.4)
    grid = grid_of([(-1.0, 1.0, 7)] * 3, [[0.0]], t_samples=(0.0, 0.5))
    return sys, met, grid


def _indefinite_metric():
    # M = diag(1, -9) with the kernel e1: the margin -5e-7 lies between
    # 1e-7 (1 + |lambda_min|) and 1e-7 (1 + |lambda_max|)
    sys = system_of(["-0.5*x1 - 2.5e-7*x1", "-x2"], [["0"], ["1"]])
    met = metric_of([["1", "0"], ["-9"]], -9.0, 1.0, 0.5)
    grid = grid_of([(-1.0, 1.0, 5), (-1.0, 1.0, 5)], [[0.0]])
    return sys, met, grid


CASES = {
    "counterexample": lambda: _bundled("counterexample"),
    "double-integrator": lambda: _bundled("double-integrator"),
    "bounded-gain": lambda: _bundled("bounded-gain"),
    "curved-41x41-3t": _curved,
    "two-input": _two_input,
    "orthogonality-failure": _orthogonality_failure,
    "orthogonality-5x-tolerance": _orthogonality_near_tolerance,
    "counterexample-lambda-1.5": lambda: _bundled("counterexample", 1.5),
    "three-state-two-input": _three_state_two_input,
    "three-state-one-input": _three_state_one_input,
    "indefinite-metric": _indefinite_metric,
}


@lru_cache(maxsize=None)
def _case(name):
    sys, met, grid = CASES[name]()
    return sys, met, grid, _reference_rows(sys, met, grid)


def _reference_rows(sys, met, grid):
    """Per-point results in grid order (t samples outermost)."""
    plant = plant_for(sys, met)
    X = grid.x_points()
    rows = []
    for t in grid.t_samples:
        rb = plant.raw_batch(X, float(t))
        for i in range(X.shape[0]):
            raw = ref.raw_slice(rb, i)
            H = ref.compute_H(raw)
            N = ref.kernel_basis(raw.M @ raw.B)
            row = {"x": X[i].tolist(), "t": float(t),
                   "h_norm": max(float(np.linalg.norm(Hi)) for Hi in H),
                   "vacuous": N.shape[1] == 0, "eps": ref.eps_margin(raw.M),
                   "margin": math.nan, "orth_ok": True, "orth_residual": 0.0}
            if N.shape[1]:
                orth = ref.check_orthogonality(H, N)
                row.update(margin=ref.check_ccm_point(raw, met.lam), orth_ok=orth.passed,
                           orth_residual=orth.residual)
            try:
                cert = ref.construct_psi(ref.compute_Q(raw), H)
                row.update(valid=True, psi=cert.psi, cert_residual=cert.residual)
            except ref.CertificateInvalid as err:
                row.update(valid=False, psi=math.nan, cert_residual=err.residual)
            rows.append(row)
    return rows


def _whole_grid(sys, met, grid):
    """The per-chunk stage on the whole grid as one chunk."""
    return _sweep(plant_for(sys, met), met.lam, *grid.samples())


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
    sys, met, grid, rows = _case(name)
    sw = _whole_grid(sys, met, grid)
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


@pytest.mark.parametrize("name", [c for c in CASES if c != "indefinite-metric"])
def test_dual_pencil_matches_the_margin(name):
    # in the dual form (W = M^{-1}, eta = M delta) the kernel is ker B'
    # and the margin becomes the largest eigenvalue mu of the pencil
    # (K' W S W K, K' W K): ker B' is empty exactly where the margin is
    # vacuous, mu has the margin's sign wherever the margin clears eps,
    # and mu equals the primal pencil (N' S N, N' M N); the pencil needs
    # a positive definite M, which the indefinite-metric case lacks
    sys, met, grid, _rows = _case(name)
    sw = _whole_grid(sys, met, grid)
    mu, primal = ref.kernel_pencils(sw.raw, met.lam)
    assert np.isnan(mu).tolist() == np.isnan(sw.margin).tolist()
    assert np.isnan(primal).tolist() == np.isnan(sw.margin).tolist()
    clear = np.abs(sw.margin) > sw.eps
    assert np.array_equal(np.sign(mu[clear]), np.sign(sw.margin[clear]))
    both = ~np.isnan(mu)
    assert np.all(np.abs(mu - primal)[both] <= 1e-12 * (1.0 + np.abs(mu[both])))


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
    sys, met, grid, rows = _case(name)
    got = check_contraction(sys, met, grid).to_dict()
    want = _reference_contraction(rows)
    _same({k: got[k] for k in want}, want, "contraction")
    assert got["orthogonality"]["passed"] == all(r["orth_ok"] for r in rows)
    _same(got["orthogonality"]["residual"],
          max(r["orth_residual"] for r in rows), "orthogonality.residual")

    got = check_condition1(sys, met, grid).to_dict()
    want = _reference_condition1(rows)
    _same({k: got[k] for k in want}, want, "condition1")

    strong = check_strong_conditions(sys, met, grid)
    _same(strong.max_H_norm, max(r["h_norm"] for r in rows), "max_H_norm")


@pytest.mark.parametrize("name", list(CASES))
def test_grid_chunks_concatenate_to_samples(name):
    _sys, _met, grid, rows = _case(name)
    x, t = grid.samples()
    for points in (1, 7, len(rows), len(rows) + 5):
        chunks = list(grid.chunks(points))
        assert [c[0].shape[0] for c in chunks[:-1]] == [points] * (len(chunks) - 1)
        assert 0 < chunks[-1][0].shape[0] <= points
        cx, ct = (np.concatenate(c) for c in zip(*chunks))
        assert cx.dtype == x.dtype and cx.shape == x.shape and cx.tobytes() == x.tobytes()
        assert ct.dtype == t.dtype and ct.shape == t.shape and ct.tobytes() == t.tobytes()


def _all_summaries(sys, met, grid):
    """Every grid summary, serialized as the reports write them."""
    return json.dumps([verify(sys, met, grid).to_dict(),
                       check_contraction(sys, met, grid).to_dict(),
                       check_condition1(sys, met, grid).to_dict(),
                       check_strong_conditions(sys, met, grid).to_dict(),
                       check_metric_bounds(met, grid).to_dict()])


@pytest.mark.parametrize("name", list(CASES))
def test_summaries_do_not_depend_on_chunk_length(name, monkeypatch):
    # each reduction folds the chunks in grid order with the whole-grid
    # tie rules, so one point per chunk, seven, and the whole grid in
    # one chunk give the same bytes as the default budget
    sys, met, grid, rows = _case(name)
    want = _all_summaries(sys, met, grid)
    for points in (1, 7, len(rows)):
        set_chunk_points(monkeypatch, sys.n, sys.m, points)
        assert _all_summaries(sys, met, grid) == want, points


def test_scans_hold_one_chunk_at_a_time(monkeypatch):
    # no grid scan evaluates more than one chunk of points at once
    sys, met, grid, rows = _case("curved-41x41-3t")
    set_chunk_points(monkeypatch, sys.n, sys.m, 7)
    raw, bounds = [], []
    for spec, name, log in ((sys, "eval_raw", raw), (met, "eval_raw", raw),
                            (met, "eval_M", bounds)):
        fn = getattr(spec, name)
        monkeypatch.setitem(vars(spec), name,
                            lambda X, T, fn=fn, log=log: log.append(len(X)) or fn(X, T))
    check_metric_bounds(met, grid)
    check_contraction(sys, met, grid)
    assert max(raw) == 7 and sum(raw) == 2 * len(rows)
    assert max(bounds) == model.chunk_points(2, 0) and sum(bounds) == len(rows)


def test_orthogonality_residual_between_one_and_ten_tolerances():
    sys, met, grid, rows = _case("orthogonality-5x-tolerance")
    sw = _whole_grid(sys, met, grid)
    ratio = sw.orth_residual / (1e-8 * (1.0 + sw.h_norm))
    assert ((ratio > 4.9) & (ratio < 5.1)).all()
    assert not sw.orth_ok.any() and not any(r["orth_ok"] for r in rows)
    c = check_contraction(sys, met, grid)
    assert not c.passed and not c.orthogonality.passed
    assert {f["reason"] for f in c.failures} == {"orthogonality"}


def test_capped_lists_on_the_curved_grid():
    sys, met, grid, rows = _case("curved-41x41-3t")
    c = check_contraction(sys, met, grid)
    c1 = check_condition1(sys, met, grid)
    assert sum(not r["valid"] for r in rows) == c1.invalid_count == 5040
    assert len(c.failures) == len(c1.invalid_examples) == MAX_EXAMPLES == 16
    assert {f["t"] for f in c.failures} == {0.0}


@pytest.mark.parametrize("name", ["counterexample", "curved-41x41-3t",
                                  "orthogonality-failure",
                                  "three-state-two-input"])
def test_one_point_calls_match_point_functions(name):
    # kernel_basis and construct_psi are one-point calls into the stages
    sys, met, grid, _rows = _case(name)
    rb = plant_for(sys, met).raw_batch(grid.x_points(), float(grid.t_samples[-1]))
    for i in range(rb.f.shape[0]):
        raw = ref.raw_slice(rb, i)
        MB = raw.M @ raw.B
        np.testing.assert_allclose(kernel_basis(MB), ref.kernel_basis(MB),
                                   rtol=RTOL, atol=0.0)
        H, Q = ref.compute_H(raw), ref.compute_Q(raw)
        try:
            want = ref.construct_psi(Q, H)
        except ref.CertificateInvalid as err:
            with pytest.raises(CertificateInvalid) as got:
                construct_psi(Q, H)
            assert str(got.value) == str(err)
            assert got.value.residual == pytest.approx(err.residual, rel=RTOL)
            continue
        got = construct_psi(Q, H)
        for f in ("Vtilde", "Dtilde", "Htilde"):
            np.testing.assert_allclose(getattr(got, f), getattr(want, f),
                                       rtol=RTOL, atol=0.0, err_msg=f)
        assert got.psi == pytest.approx(want.psi, rel=RTOL, abs=0.0)
        assert got.residual == pytest.approx(want.residual, rel=RTOL, abs=0.0)


def _ray(rows):
    """The ray check_condition1 fits along: through the invalid point
    nearest the origin (the first one on ties), else the largest psi."""
    off = [r for r in rows if not r["valid"] and any(r["x"])]
    if off:
        return min(off, key=lambda r: np.linalg.norm(r["x"]))
    return max((r for r in rows if r["valid"]), key=lambda r: r["psi"])


@pytest.mark.parametrize("name", list(CASES))
def test_power_law_ray_is_the_reference_ray(name):
    sys, met, grid, rows = _case(name)
    c1 = check_condition1(sys, met, grid)
    if not c1.blow_up:
        assert c1.power_law is None
        return
    r = _ray(rows)
    x = np.array(r["x"])
    assert c1.power_law.direction == (x / np.linalg.norm(x)).tolist()
    assert c1.power_law.t == r["t"]


@pytest.mark.parametrize("name", ["counterexample", "curved-41x41-3t",
                                  "bounded-gain", "two-input",
                                  "double-integrator"])
def test_power_law_fit_matches_point_loop(name):
    sys, met, _grid, rows = _case(name)
    r = _ray(rows)
    for scales in (None, np.array([0.5, 0.25, 0.125, 1e-3, 1e-4]),
                   np.array([0.5]), np.array([])):
        want = ref.fit_psi_power_law(sys, met, np.array(r["x"]), r["t"], scales)
        got = fit_psi_power_law(sys, met, np.array(r["x"]), r["t"], scales)
        assert got.scales == want.scales
        _same(got.to_dict(), want.to_dict(), "fit")


def _non_finite_cases():
    """(sys, met, grid, message) whose raw values are not finite somewhere
    on the 5-point grid at two times."""
    grid = grid_of([(-1.0, 1.0, 5)], [[0.0]], t_samples=(0.25, 0.5))
    met = metric_of([["1"]], 1.0, 1.0, 0.5)
    return [
        # 1/x1 is infinite at the middle of the grid; the error names the
        # entry without the batch index and gives that point, not the grid
        (system_of(["-x1 + 1/x1"], [["1"]]), met, grid,
         r"entry f\[0\] at x=\[0\.0\], t=0\.25$"),
        # M and B both degenerate at 0: M is named, not an SVD failure
        (system_of(["-x1"], [["x1^2"]]), metric_of([["1 + 1/x1^2"]], 1.0, 1.0, 0.5),
         grid, r"entry M\[0\]\[0\] at x=\[0\.0\]"),
        # the first offending point in grid order carries its own t
        (system_of(["-x1"], [["1/(x1 - t)"]]), met, grid,
         r"entry B\[0\]\[0\] at x=\[0\.5\], t=0\.5$"),
    ]


def test_non_finite_flagged_once_on_the_stacked_batch():
    for sys, met, grid, message in _non_finite_cases():
        with pytest.raises(NonFiniteEvalError, match=message):
            _whole_grid(sys, met, grid)
    # the power-law probe flags the points of its ray the same way
    sys = system_of(["-x1"], [["x1^2"]])
    with pytest.raises(NonFiniteEvalError,
                       match=r"entry M\[0\]\[0\] at x=\[0\.25\], t=0\.0$"):
        fit_psi_power_law(sys, metric_of([["1 + 1/(x1 - 0.25)"]], 1.0, 1.0, 0.5),
                          np.array([2.0]), scales=np.array([0.5, 0.25, 0.125]))


def test_non_finite_flagged_at_one_point_per_chunk(monkeypatch):
    # verify streams the grid; with one point per chunk the error still
    # names the first offending point in grid order
    set_chunk_points(monkeypatch, 1, 1, 1)
    for sys, met, grid, message in _non_finite_cases():
        with pytest.raises(NonFiniteEvalError, match=message):
            verify(sys, met, grid)
