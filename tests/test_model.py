"""Spec loading, raw evaluation blocks and metric bounds.

Derivative blocks are checked against central finite differences; the
bundled spec files double as schema fixtures.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ccmkit.model import (
    METRIC_BOUNDS_TOL,
    GridSpec,
    NonFiniteEvalError,
    SpecError,
    bundled_spec_path,
    check_metric_bounds,
    load_spec,
    load_spec_file,
    plant_for,
)
from ccmkit.verifier import verify
from conftest import curved_system, grid_of, metric_of, system_of


def test_bundled_specs_load():
    for name in ("counterexample", "double-integrator", "bounded-gain"):
        sf = load_spec_file(bundled_spec_path(name))
        assert sf.name == name
        assert sf.system.n == sf.metric.n
        assert len(sf.grid.x_ranges) == sf.system.n
    sys, met, grid = load_spec(bundled_spec_path("counterexample"))
    assert (sys.n, sys.m) == (1, 1)
    assert met.lam == 0.5
    assert grid.x_ranges == [(-2.0, 2.0, 801)]


def test_bundled_name_unknown():
    with pytest.raises(SpecError, match="bundled"):
        bundled_spec_path("nope")


def _write(tmp_path, doc):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return p


def _minimal_doc():
    return {
        "schema": 1, "name": "tiny", "n": 1, "m": 1,
        "f": ["-x1"], "B": [["1"]], "M_upper": [["1"]],
        "alpha1": 1.0, "alpha2": 1.0, "lambda": 0.5,
        "grid": {"x": [[-1, 1, 5]], "u": [[0]], "t": [0]},
    }


def test_minimal_spec_loads(tmp_path):
    sf = load_spec_file(_write(tmp_path, _minimal_doc()))
    assert sf.name == "tiny"
    assert sf.scenario is None and sf.transform is None
    assert sf.grid.delta_samples == 16 and sf.grid.seed == 42


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("schema"), "schema"),
    (lambda d: d.update(schema=2), "schema"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d.pop("f"), "'f'"),
    (lambda d: d.update(f=["-x1", "0"]), "f"),
    (lambda d: d.update(f=["-x1 +"]), "f[0]"),
    (lambda d: d.update(f=["u1"]), "not allowed"),
    (lambda d: d.update(B=[[]]), "B[0]"),
    (lambda d: d.update(M_upper=[["1", "0"]]), "M_upper[0]"),
    (lambda d: d.update(alpha1=0.0), "alpha1"),
    (lambda d: d.update(alpha2=0.5), "alpha2"),
    (lambda d: d.update(**{"lambda": -1.0}), "lambda"),
    (lambda d: d.update(n="one"), "n"),
    (lambda d: d["grid"].pop("x"), "grid.x"),
    (lambda d: d["grid"].update(x=[[1, -1, 5]]), "grid.x[0]"),
    (lambda d: d["grid"].update(x=[[-1, 1, 0]]), "grid.x[0][2]"),
    (lambda d: d["grid"].update(u=[]), "grid.u"),
    (lambda d: d["grid"].update(u=[[0, 0]]), "grid.u[0]"),
    (lambda d: d["grid"].update(bogus=3), "grid"),
    (lambda d: d.update(scenario={"x0": [0]}), "scenario"),
    (lambda d: d.update(scenario={"x0": [0], "x_star": [1], "u_star": [0],
                                  "step": 0}), "scenario.step"),
    (lambda d: d.update(transform={"alpha": ["0"]}), "transform"),
    (lambda d: d.update(transform={"alpha": ["0"], "beta": [["1", "0"]]}),
     "transform.beta"),
])
def test_schema_errors_name_the_field(tmp_path, mutate, fragment):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SpecError) as ei:
        load_spec_file(_write(tmp_path, doc))
    assert fragment in str(ei.value)


def test_spec_file_not_found(tmp_path):
    with pytest.raises(SpecError, match="not found"):
        load_spec_file(tmp_path / "missing.json")


def test_spec_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    with pytest.raises(SpecError, match="invalid JSON"):
        load_spec_file(p)


def test_metric_mirror_shares_objects():
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    M = sf.metric.M
    assert M[0][1] is M[1][0]
    # shared objects make evaluated metrics symmetric bitwise
    X = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
    (arr,) = sf.metric.eval_M(X, 0.0)
    assert np.array_equal(arr, np.swapaxes(arr, -1, -2))


def test_grid_points_and_deltas():
    grid = grid_of([(-1.0, 1.0, 3), (0.0, 2.0, 2)], [[0.0]])
    X = grid.x_points()
    assert X.shape == (6, 2)
    # meshgrid ij order: the first axis varies slowest
    assert np.array_equal(X[:2, 0], [-1.0, -1.0])
    assert np.array_equal(X[:, 1][:2], [0.0, 2.0])
    d1 = grid.deltas(2)
    d2 = grid.deltas(2)
    assert np.array_equal(d1, d2)              # reproducible
    assert d1.shape == (16, 2)
    assert np.allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-14)
    grid.seed = 43
    assert not np.array_equal(grid.deltas(2), d1)


def test_raw_shapes_and_slicing():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    x = np.array([0.3, -0.7])
    raw = plant.raw(x, 0.1)
    assert raw.f.shape == (2,)
    assert raw.B.shape == (2, 1)
    assert raw.M.shape == (2, 2)
    assert raw.dfdx.shape == (2, 2)
    assert raw.dBdx.shape == (1, 2, 2)
    assert raw.dMdx.shape == (2, 2, 2)
    assert raw.dMdt.shape == (2, 2)
    rb = plant.raw_batch(np.stack([x, 2 * x]), 0.1)
    assert rb.dBdx.shape == (2, 1, 2, 2)
    assert np.array_equal(rb.f[0], raw.f)
    assert np.array_equal(rb.dMdx[0], raw.dMdx)


def test_raw_rejects_bad_shapes():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    with pytest.raises(SpecError, match="x has shape"):
        plant.raw(np.zeros(3), 0.0)
    with pytest.raises(SpecError, match="x has shape"):
        plant.raw(np.zeros((2, 2)), 0.0)     # a batch goes through raw_batch


def test_derivative_blocks_match_finite_differences():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, size=2)
        t = float(rng.uniform(0.0, 2.0))
        raw = plant.raw(x, t)
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = h
            up = plant.raw(x + dx, t)
            dn = plant.raw(x - dx, t)
            fd_f = (up.f - dn.f) / (2 * h)
            assert np.allclose(raw.dfdx[:, k], fd_f, atol=1e-6, rtol=1e-6)
            fd_B = (up.B - dn.B) / (2 * h)
            assert np.allclose(raw.dBdx[:, :, k].T, fd_B, atol=1e-6, rtol=1e-6)
            fd_M = (up.M - dn.M) / (2 * h)
            assert np.allclose(raw.dMdx[k], fd_M, atol=1e-6, rtol=1e-6)
        up = plant.raw(x, t + h)
        dn = plant.raw(x, t - h)
        assert np.allclose(raw.dMdt, (up.M - dn.M) / (2 * h), atol=1e-6)


def test_jacobian_orientations():
    # dfdx[i, j] = d f_i / d x_j and dBdx[i] is the Jacobian of column i
    sys = system_of(["x2", "0"], [["x2"], ["x1"]])
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5)
    raw = plant_for(sys, met).raw(np.array([2.0, 3.0]), 0.0)
    assert np.array_equal(raw.dfdx, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(raw.dBdx[0], [[0.0, 1.0], [1.0, 0.0]])


def test_non_finite_flagged_with_entry_name():
    sys = system_of(["1/x1"], [["1"]])
    met = metric_of([["1"]], 1.0, 1.0, 0.5)
    with pytest.raises(NonFiniteEvalError) as ei:
        plant_for(sys, met).raw(np.array([0.0]), 0.0)
    msg = str(ei.value)
    assert "f[0]" in msg and "x=[0.0]" in msg

    met_bad = metric_of([["1/(x1 - 1)"]], 1.0, 1.0, 0.5)
    sys_ok = system_of(["-x1"], [["1"]])
    with pytest.raises(NonFiniteEvalError) as ei:
        plant_for(sys_ok, met_bad).raw(np.array([1.0]), 0.0)
    assert "M[0][0]" in str(ei.value)


def test_evaluator_caches(monkeypatch):
    # each spec compiles its functions on first use and keeps them: two
    # plants of one (system, metric) pair compile two functions in all
    from ccmkit import model
    compiled, original = [], model.compile_matrix

    def counting(tables, n):
        compiled.append(len(tables))
        return original(tables, n)

    monkeypatch.setattr(model, "compile_matrix", counting)
    sys, met = curved_system()
    X = np.random.default_rng(3).uniform(-1, 1, size=(4, 2))
    first = plant_for(sys, met).raw_batch(X, 0.2)
    second = plant_for(sys, met).raw_batch(X, 0.2)
    assert compiled == [4, 3]
    assert sys.eval_raw is sys.eval_raw and met.eval_raw is met.eval_raw
    for name in ("f", "B", "M", "dfdx", "dBdx", "dMdx", "dMdt"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_metric_bounds_pass_and_fail():
    met = metric_of([["1", "0"], ["2 + sin(x1)"]], 1.0, 3.0, 0.5)
    grid = grid_of([(-2.0, 2.0, 41), (-1.0, 1.0, 3)], [[0.0]])
    res = check_metric_bounds(met, grid)
    assert res.passed
    assert res.min_eig == pytest.approx(1.0, abs=1e-12)
    # sin peaks at x1 = pi/2, off this grid; the max is at the nearest node
    xs = np.linspace(-2, 2, 41)
    assert res.max_eig == pytest.approx(2 + np.max(np.sin(xs)), abs=1e-12)
    assert res.argmax["x"][0] == pytest.approx(xs[np.argmax(np.sin(xs))])

    tight = metric_of([["1", "0"], ["2 + sin(x1)"]], 1.5, 3.0, 0.5)
    res = check_metric_bounds(tight, grid)
    assert not res.passed
    assert res.min_eig < 1.5 - res.tol

    low = metric_of([["1", "0"], ["2 + sin(x1)"]], 1.0, 2.5, 0.5)
    assert not check_metric_bounds(low, grid).passed


def test_metric_bounds_tolerance_boundary():
    # M = 1 against alpha1 = 1 + k * METRIC_BOUNDS_TOL: passes at k = 0.5,
    # fails at k = 3 (and symmetrically against alpha2)
    grid = grid_of([(-1.0, 1.0, 3)], [[0.0]])
    for k, passed in ((0.5, True), (3.0, False)):
        low = metric_of([["1"]], 1.0 + k * METRIC_BOUNDS_TOL, 2.0, 0.5)
        high = metric_of([["1"]], 0.5, 1.0 - k * METRIC_BOUNDS_TOL, 0.5)
        assert check_metric_bounds(low, grid).passed is passed
        assert check_metric_bounds(high, grid).passed is passed


def _bounds_per_t(met, grid, tol):
    """The former scan: one M evaluation and one eigvalsh per t sample,
    keeping the first extreme point in grid order."""
    X = grid.x_points()
    best = [math.inf, -math.inf, {}, {}]
    for t in grid.t_samples:
        (M,) = met.eval_M(X, float(t))
        eigs = np.linalg.eigvalsh(M)
        i, j = int(np.argmin(eigs[:, 0])), int(np.argmax(eigs[:, -1]))
        if eigs[i, 0] < best[0]:
            best[0], best[2] = float(eigs[i, 0]), {"x": X[i].tolist(), "t": float(t)}
        if eigs[j, -1] > best[1]:
            best[1], best[3] = float(eigs[j, -1]), {"x": X[j].tolist(), "t": float(t)}
    passed = best[0] >= met.alpha1 - tol and best[1] <= met.alpha2 + tol
    return {"passed": passed, "min_eig": best[0], "max_eig": best[1],
            "argmin": best[2], "argmax": best[3], "tol": tol}


@pytest.mark.parametrize("case", ["curved", "warped", "double-integrator"])
def test_metric_bounds_one_stacked_scan(case):
    # check_metric_bounds and verify's bounds (read off the sweep's
    # eigenvalues) both equal the per-t scan, ties resolved alike
    if case == "curved":
        sys, met = curved_system()
        grid = grid_of([(-2.0, 2.0, 11), (-2.0, 2.0, 11)], [[0.0]],
                       t_samples=(0.0, 0.4, 1.3, 0.4))
    elif case == "warped":
        root = Path(__file__).parents[1]
        sys, met, grid = load_spec(root / "perfbench/specs/warped_double_integrator.json")
    else:
        sys, met, grid = load_spec(bundled_spec_path(case))
    want = _bounds_per_t(met, grid, METRIC_BOUNDS_TOL)
    assert check_metric_bounds(met, grid).to_dict() == want
    assert verify(sys, met, grid).metric_bounds.to_dict() == want


def test_metric_bounds_to_dict_serializes():
    met = metric_of([["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(-1.0, 1.0, 3)], [[0.0]])
    d = check_metric_bounds(met, grid).to_dict()
    json.dumps(d)
    assert d["passed"] is True


def test_scenario_and_transform_blocks(tmp_path):
    doc = _minimal_doc()
    doc["scenario"] = {"x0": [0.0], "x_star": [1.0], "u_star": [1.0],
                       "horizon": 5.0, "step": 0.01, "segments": 64}
    doc["transform"] = {"alpha": ["-x1"], "beta": [["2"]]}
    sf = load_spec_file(_write(tmp_path, doc))
    sc = sf.scenario
    assert np.array_equal(sc.x0, [0.0]) and np.array_equal(sc.x_star, [1.0])
    assert sc.horizon == 5.0 and sc.step == 0.01 and sc.segments == 64
    assert len(sf.transform["alpha"]) == 1
    assert len(sf.transform["beta"][0]) == 1


def test_plant_cache_lets_specs_be_freed():
    # each spec owns its compiled functions; nothing that outlives a run
    # (a module-level cache, a compiled function) may keep a spec alive
    import gc
    import weakref
    sys_, met = curved_system()
    plant_for(sys_, met).raw_batch(np.zeros((3, 2)), 0.0)
    refs = [weakref.ref(sys_), weakref.ref(met)]
    del sys_, met
    gc.collect()
    assert [r() for r in refs] == [None, None]
