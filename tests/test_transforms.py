"""Input-side feedback transforms, and compute_H and construct_psi
against the dual form of tests/reference.py."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from ccmkit import transforms
from ccmkit.differential import compute_H, compute_Q
from ccmkit.model import bundled_spec_path, load_spec_file, plant_for
from ccmkit.transforms import (
    FD_TOL,
    FeedbackTransform,
    apply_feedback_transform,
    invariance_probe,
)
from ccmkit.verifier import construct_psi
from conftest import curved_system, grid_of, scalar_counterexample, set_chunk_points, \
    two_input_system


def test_primal_dual_forms_agree_exactly():
    # delta' H_i delta == eta' T_i eta with eta = M delta, W = M^{-1}
    sys, met = curved_system()
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, size=(60, 2))
    raw = plant_for(sys, met).raw_batch(X, rng.uniform(0, 1, size=60))
    delta = rng.normal(size=(60, 2))
    eta = np.einsum("pab,pb->pa", raw.M, delta)
    lhs = np.einsum("pa,piab,pb->pi", delta, compute_H(raw), delta)
    rhs = np.einsum("pa,piab,pb->pi", eta, ref.dual_form(raw), eta)
    assert lhs.shape == (60, 1)
    assert np.all(np.abs(lhs - rhs) <= 1e-9 * (1.0 + np.abs(lhs)))


def test_dual_residual_sign_matches_psi():
    # scalar system at x=0.5 needs psi = 32: feasible there, 31.9 is not
    sys, met = scalar_counterexample()
    raw = plant_for(sys, met).raw(np.array([0.5]), 0.0)
    eta = raw.M @ np.array([1.0])
    assert ref.dual_residual(raw, eta, 32.0) == pytest.approx(0.0, abs=1e-12)
    assert ref.dual_residual(raw, eta, 40.0) < 0.0
    assert ref.dual_residual(raw, eta, 31.9) > 0.0
    # the primal certificate lands on the same number
    assert construct_psi(compute_Q(raw), compute_H(raw)).psi == pytest.approx(
        32.0, rel=1e-12)


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
