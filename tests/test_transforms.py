"""Dual (inverse-metric) coordinates and input-side feedback transforms."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ccmkit import transforms
from ccmkit.differential import compute_H, compute_Q
from ccmkit.model import bundled_spec_path, load_spec_file, plant_for
from ccmkit.transforms import (
    DUAL_TOL,
    FD_TOL,
    DualPoint,
    FeedbackTransform,
    apply_feedback_transform,
    convexity_probe,
    dual_constraint_residual,
    dual_point,
    invariance_probe,
)
from conftest import curved_system, grid_of, scalar_counterexample, set_chunk_points, \
    two_input_system


def _dual_forms(dp, raw):
    """T_i = W J_i' + J_i W - d_{b_i}W for each input column."""
    out = []
    for i in range(raw.B.shape[1]):
        Ji = raw.dBdx[i]
        dbiW = np.tensordot(raw.B[:, i], dp.dWdx, axes=(0, 0))
        out.append(dp.W @ Ji.T + Ji @ dp.W - dbiW)
    return out


def test_dual_point_scalar_worked_values():
    sys, met = scalar_counterexample()
    raw = plant_for(sys, met).raw(np.array([1.0]), 0.0)
    dp = dual_point(raw, np.array([0.7]))
    assert np.array_equal(dp.W, [[1.0]])
    assert np.array_equal(dp.eta, [0.7])
    assert np.array_equal(dp.dWdx, np.zeros((1, 1, 1)))


def test_dual_point_inverts_metric():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0, 1))
        delta = rng.normal(size=2)
        raw = plant.raw(x, t)
        dp = dual_point(raw, delta)
        assert np.allclose(dp.W @ raw.M, np.eye(2), atol=1e-12)
        assert np.array_equal(dp.W, dp.W.T)
        assert np.array_equal(dp.eta, raw.M @ delta)
        for k in range(2):
            want = -dp.W @ raw.dMdx[k] @ dp.W
            assert np.allclose(dp.dWdx[k], want, atol=1e-13)


def test_primal_dual_forms_agree_exactly():
    # delta' H_i delta == eta' T_i eta with eta = M delta, W = M^{-1}
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        x = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0, 1))
        delta = rng.normal(size=2)
        raw = plant.raw(x, t)
        H = compute_H(raw)
        dp = dual_point(raw, delta)
        for Hi, Ti in zip(H, _dual_forms(dp, raw)):
            lhs = float(delta @ Hi @ delta)
            rhs = float(dp.eta @ Ti @ dp.eta)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
            checked += 1
    assert checked == 60


def test_dual_residual_sign_matches_psi():
    # scalar system at x=0.5 needs psi = 32: feasible there, 31.9 is not
    sys, met = scalar_counterexample()
    raw = plant_for(sys, met).raw(np.array([0.5]), 0.0)
    dp = dual_point(raw, np.array([1.0]))
    assert dual_constraint_residual(dp, raw, 32.0) == pytest.approx(0.0, abs=1e-12)
    assert dual_constraint_residual(dp, raw, 40.0) < 0.0
    assert dual_constraint_residual(dp, raw, 31.9) > 0.0
    # the primal certificate lands on the same number
    H = compute_H(raw)
    from ccmkit.verifier import construct_psi
    assert construct_psi(compute_Q(raw), H).psi == pytest.approx(32.0, rel=1e-12)


def _feasible_psi(duals, raws, eta_lists):
    worst = 0.0
    for dp, raw, etas in zip(duals, raws, eta_lists):
        for eta in etas:
            rhs = float((raw.B.T @ eta) @ (raw.B.T @ eta))
            assert rhs > 1e-12      # redraw the sample points otherwise
            for Ti in _dual_forms(dp, raw):
                worst = max(worst, abs(float(eta @ Ti @ eta)) / rhs)
    return worst


def test_convexity_probe_accepts_combinations():
    sys, met, _grid = two_input_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(23)
    raws, duals1, duals2 = [], [], []
    for _ in range(12):
        raw = plant.raw(rng.uniform(-2, 2, size=2), 0.0)
        delta = rng.normal(size=2)
        dp1 = dual_point(raw, delta)
        raws.append(raw)
        duals1.append(dp1)
        # an unrelated constant-W certificate against a fresh eta
        duals2.append(DualPoint(W=np.diag([1.0, 2.0]), eta=rng.normal(size=2),
                                dWdx=np.zeros((2, 2, 2))))
    etas = [(d1.eta, d2.eta) for d1, d2 in zip(duals1, duals2)]
    psi1 = _feasible_psi(duals1, raws, etas) + 1e-9
    psi2 = _feasible_psi(duals2, raws, etas) + 1e-9
    res = convexity_probe(duals1, duals2, raws, psi1, psi2)
    assert res.feasible
    assert res.worst_residual <= 1e-9
    assert res.samples == 12 and res.thetas == (0.25, 0.5, 0.75)
    d = res.to_dict()
    assert d["feasible"] is True and d["samples"] == 12


def test_convexity_probe_rejects_infeasible_input():
    sys, met = scalar_counterexample()
    raw = plant_for(sys, met).raw(np.array([0.5]), 0.0)
    dp = dual_point(raw, np.array([1.0]))
    with pytest.raises(ValueError, match="not feasible"):
        convexity_probe([dp], [dp], [raw], 1.0, 32.0)   # needs 32 at x=0.5
    with pytest.raises(ValueError, match="equal length"):
        convexity_probe([dp], [dp, dp], [raw], 32.0, 32.0)


def test_convexity_probe_dual_tolerance_boundary():
    # at x = 0.5 the residual is 2 - psi/16 for eta = 1, zero at psi = 32:
    # three DUAL_TOL above zero is infeasible, half of it is not
    sys, met = scalar_counterexample()
    raw = plant_for(sys, met).raw(np.array([0.5]), 0.0)
    dp = dual_point(raw, np.array([1.0]))
    for excess, feasible in ((3.0, False), (0.5, True)):
        psi = 32.0 - 16.0 * excess * DUAL_TOL
        assert dual_constraint_residual(dp, raw, psi) == pytest.approx(
            excess * DUAL_TOL, rel=1e-6)
        if feasible:
            assert convexity_probe([dp], [dp], [raw], psi, 32.0).feasible
        else:
            with pytest.raises(ValueError, match="first certificate is not feasible"):
                convexity_probe([dp], [dp], [raw], psi, 32.0)


def test_convex_combination_is_affine_per_input():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(31)
    raw = plant.raw(np.array([0.4, -0.8]), 0.1)
    d1 = dual_point(raw, rng.normal(size=2))
    d2 = DualPoint(W=np.diag([2.0, 0.5]), eta=rng.normal(size=2),
                   dWdx=np.zeros((2, 2, 2)))
    mid = DualPoint(W=0.5 * (d1.W + d2.W), eta=d1.eta,
                    dWdx=0.5 * (d1.dWdx + d2.dWdx))
    f1 = _dual_forms(DualPoint(W=d1.W, eta=d1.eta, dWdx=d1.dWdx), raw)
    f2 = _dual_forms(DualPoint(W=d2.W, eta=d1.eta, dWdx=d2.dWdx), raw)
    fm = _dual_forms(mid, raw)
    for T1, T2, Tm in zip(f1, f2, fm):
        a = float(d1.eta @ Tm @ d1.eta)
        b = 0.5 * (float(d1.eta @ T1 @ d1.eta) + float(d1.eta @ T2 @ d1.eta))
        assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_feedback_transform_at_and_gains():
    tf = FeedbackTransform(n=2, alpha=_exprs(["0", "0"]),
                           beta=_matrix([["1", "1"], ["0", "1"]]))
    a, b, kappa, gamma = tf.at(np.array([0.3, -0.7]))
    assert np.array_equal(a, [0.0, 0.0])
    assert np.array_equal(b, [[1.0, 1.0], [0.0, 1.0]])
    assert kappa == 2.0
    assert gamma == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)


def test_feedback_transform_singular_beta_raises():
    tf = FeedbackTransform(n=1, alpha=_exprs(["0"]), beta=_matrix([["x1"]]))
    a, b, kappa, gamma = tf.at(np.array([2.0]))
    assert b[0, 0] == 2.0 and kappa == 2.0 and gamma == 4.0
    with pytest.raises(ValueError, match="singular"):
        tf.at(np.array([0.0]))


def test_feedback_transform_from_spec(tmp_path):
    base = json.loads(bundled_spec_path("counterexample").read_text())
    base["transform"] = {"alpha": ["-x1"], "beta": [["2"]]}
    p = tmp_path / "ce_t.json"
    p.write_text(json.dumps(base))
    sf = load_spec_file(p)
    tf = FeedbackTransform.from_spec(sf)
    a, b, kappa, gamma = tf.at(np.array([0.5]))
    assert a[0] == -0.5 and b[0, 0] == 2.0
    with pytest.raises(ValueError, match="no transform"):
        FeedbackTransform.from_spec(load_spec_file(bundled_spec_path("counterexample")))


def test_apply_feedback_transform_symbolic():
    sys, _met = scalar_counterexample()     # f = -x, B = x^2
    tf = FeedbackTransform(n=1, alpha=_exprs(["-x1"]), beta=_matrix([["2"]]))
    new = apply_feedback_transform(sys, tf)
    from ccmkit.expr import evaluate
    for x in (-1.5, -0.2, 0.0, 0.7, 2.0):
        env = {"x1": x, "t": 0.0}
        assert evaluate(new.f[0], env) == pytest.approx(-x - x ** 3, rel=1e-14)
        assert evaluate(new.B[0][0], env) == pytest.approx(2 * x * x, rel=1e-14)


def test_apply_feedback_transform_shape_mismatch():
    sys, _met = scalar_counterexample()
    tf = FeedbackTransform(n=1, alpha=_exprs(["0", "0"]),
                           beta=_matrix([["1", "0"], ["0", "1"]]))
    with pytest.raises(ValueError, match="transform is"):
        apply_feedback_transform(sys, tf)


def test_invariance_probe_bounded_gain_scaled_input():
    sf = load_spec_file(bundled_spec_path("bounded-gain"))
    tf = FeedbackTransform(n=1, alpha=_exprs(["0"]), beta=_matrix([["2"]]))
    res = invariance_probe(sf.system, sf.metric, tf, sf.grid)
    assert res.passed
    assert res.skipped_invalid == 0
    assert res.checked_points == 121 * 16
    assert res.kappa_max == 2.0 and res.gamma_min == 4.0
    assert res.min_slack >= 0.0       # the transported bound has headroom
    assert res.fd_checked == 8 and res.fd_max_err <= 1e-6
    assert res.margins_match and res.margin_max_diff <= 1e-9
    assert set(res.to_dict()) == {
        "passed", "checked_points", "skipped_invalid", "min_slack",
        "kappa_max", "gamma_min", "psibar_max", "fd_checked", "fd_max_err",
        "margin_max_diff", "margins_match"}


def test_invariance_probe_counterexample_skips_invalid_points():
    sf = load_spec_file(bundled_spec_path("counterexample"))
    tf = FeedbackTransform(n=1, alpha=_exprs(["-x1"]), beta=_matrix([["2"]]))
    res = invariance_probe(sf.system, sf.metric, tf, sf.grid)
    # the two near-origin points have no certificate and are skipped;
    # x = 0 itself (H = Q = 0) stays, and its margin survives the shift
    # because the Jacobian there does not depend on the input
    assert res.skipped_invalid == 2
    assert res.checked_points == (801 - 2) * 16
    assert res.margins_match and res.margin_max_diff <= 1e-9
    assert res.min_slack >= 0.0
    assert res.passed


def test_invariance_probe_two_input_mixing():
    sys, met, grid = two_input_system()
    tf = FeedbackTransform(n=2, alpha=_exprs(["0", "0"]),
                           beta=_matrix([["1", "1"], ["0", "1"]]))
    res = invariance_probe(sys, met, tf, grid)
    assert res.passed
    assert res.kappa_max == 2.0
    assert res.gamma_min == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
    assert res.min_slack >= -1e-8
    assert res.psibar_max <= res.kappa_max / res.gamma_min * 1e6


def test_invariance_probe_slope_check_catches_a_wrong_transform(monkeypatch):
    # the transformed system built with beta' in place of beta mixes the
    # wrong columns of the shear, so its input slopes disagree with
    # beta' (delta' H_i delta) and the cross-check must fail the probe
    sys, met, grid = two_input_system()
    tf = FeedbackTransform(n=2, alpha=_exprs(["0", "0"]),
                           beta=_matrix([["1", "1"], ["0", "1"]]))
    right = invariance_probe(sys, met, tf, grid)
    assert right.passed and right.fd_checked == 8 and right.fd_max_err <= 1e-14

    transposed = FeedbackTransform(n=2, alpha=tf.alpha,
                                   beta=[list(col) for col in zip(*tf.beta)])
    build = transforms.apply_feedback_transform
    monkeypatch.setattr(transforms, "apply_feedback_transform",
                        lambda s, _tf: build(s, transposed))
    wrong = invariance_probe(sys, met, tf, grid)
    assert wrong.fd_max_err > FD_TOL
    assert not wrong.passed
    assert wrong.min_slack == right.min_slack and wrong.margins_match


@pytest.mark.parametrize("beta", ["2", "2 + 0.5*sin(x1)"])
def test_invariance_probe_checks_constant_beta_only(beta):
    # the transport psibar = kappa psi / gamma leaves out the slope term
    # 2 sum_j (delta' M b_j)(d beta_ji/dx . delta) of a state-dependent
    # beta; the transported bound and the margins do not notice, the
    # slope check does
    sf = load_spec_file(bundled_spec_path("bounded-gain"))
    tf = FeedbackTransform(n=1, alpha=_exprs(["0"]), beta=_matrix([[beta]]))
    res = invariance_probe(sf.system, sf.metric, tf, sf.grid)
    assert res.min_slack > 0.0 and res.margins_match
    if beta == "2":
        assert res.passed and res.fd_max_err <= FD_TOL
    else:
        assert res.fd_max_err > 0.1
        assert not res.passed


def _probe_cases():
    warped = load_spec_file(Path(__file__).parents[1]
                            / "perfbench/specs/warped_double_integrator.json")
    bounded = load_spec_file(bundled_spec_path("bounded-gain"))
    counter = load_spec_file(bundled_spec_path("counterexample"))
    return [(warped.system, warped.metric, FeedbackTransform.from_spec(warped),
             warped.grid),
            # a state-dependent beta: the slope check fails across chunks
            (bounded.system, bounded.metric,
             FeedbackTransform(n=1, alpha=_exprs(["0"]),
                               beta=_matrix([["2 + 0.5*sin(x1)"]])), bounded.grid),
            # invalid points near the origin are skipped
            (counter.system, counter.metric,
             FeedbackTransform(n=1, alpha=_exprs(["-x1"]), beta=_matrix([["2"]])),
             counter.grid)]


@pytest.mark.parametrize("case", range(3))
def test_invariance_probe_does_not_depend_on_chunk_length(case, monkeypatch):
    # both systems' chunks are walked in step; the slope cross-check
    # still takes the first FD_POINTS valid points of the whole grid
    sys, met, tf, grid = _probe_cases()[case]
    want = json.dumps(invariance_probe(sys, met, tf, grid).to_dict())
    points = len(grid.samples()[1])
    for chunk in (1, 7, points):
        set_chunk_points(monkeypatch, sys.n, sys.m, chunk)
        assert json.dumps(invariance_probe(sys, met, tf, grid).to_dict()) == want


@pytest.mark.parametrize("chunk", [1, 7, 9])
def test_invariance_probe_singular_beta_names_first_point(chunk, monkeypatch):
    # beta vanishes at x1 = -0.25 and x1 = 0.5 of the 9-point grid
    sf = load_spec_file(bundled_spec_path("bounded-gain"))
    grid = grid_of([(-1.0, 1.0, 9)], [[0.0]])
    tf = FeedbackTransform(n=1, alpha=_exprs(["0"]),
                           beta=_matrix([["(x1 - 0.5)*(x1 + 0.25)"]]))
    set_chunk_points(monkeypatch, 1, 1, chunk)
    with pytest.raises(ValueError, match=r"beta is singular at x=\[-0\.25\], t=0\.0"):
        invariance_probe(sf.system, sf.metric, tf, grid)


def _exprs(texts):
    from ccmkit.expr import parse
    return [parse(s) for s in texts]


def _matrix(rows):
    from ccmkit.expr import parse
    return [[parse(s) for s in row] for row in rows]
