"""Feedback gain, the Newton geodesic on the path energy and the
tracking control."""

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ccmkit.controller import (
    B_FLOOR,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ControllerConfig,
    Infeasible,
    build_path,
    differential_feedback,
    path_energy,
    rho,
    tracking_feedback,
)
import ccmkit.controller as controller
import reference as ref
from ccmkit.model import bundled_spec_path, load_spec_file, plant_for
from ccmkit.simulator import simulate_closed_loop
from conftest import curved_system, metric_of, scalar_counterexample, \
    system_of, two_input_system
from test_sweep import CASES as SWEEP_CASES

WARPED = Path(__file__).parents[1] / "perfbench" / "specs" / "warped_double_integrator.json"


def test_rho_branches():
    assert rho(-1.0, 0.0) == 0.0         # a < 0 never consults b
    assert rho(-1e-300, 0.0) == 0.0
    assert rho(3.0, 4.0) == 2.0
    assert rho(0.0, 2.0) == 1.0          # the jump at a = 0
    assert rho(0.0, 1e-6) == 1.0
    with pytest.raises(Infeasible) as ei:
        rho(1e-3, 0.0)
    assert ei.value.a == 1e-3 and ei.value.b == 0.0
    with pytest.raises(Infeasible):
        rho(0.0, 1e-13)                  # at or below the floor counts
    with pytest.raises(Infeasible):
        rho(1.0, B_FLOOR)
    # a few times the floor still has authority (a 10x floor would not)
    assert rho(1.0, 3.0 * B_FLOOR) == pytest.approx(2.0 / (3.0 * B_FLOOR), rel=1e-15)


def test_differential_feedback_worked_value():
    sys, met = scalar_counterexample()
    raw = plant_for(sys, met).raw(np.array([1.0]), 0.0)
    du = differential_feedback(raw, np.array([1.0]), np.array([1.0]), lam=0.5)
    assert du == pytest.approx(np.array([-2.0]), abs=1e-14)
    # a < 0 branch and the zero tangent both return exact zeros
    assert np.array_equal(
        differential_feedback(raw, np.array([1.0]), np.array([0.0]), 0.5),
        [0.0])
    assert np.array_equal(
        differential_feedback(raw, np.array([0.0]), np.array([1.0]), 0.5),
        [0.0])


def _vdot_closed(raw, u, delta, du):
    """delta' Mdot delta + 2 delta' M (A delta + B du) via the identity
    Vdot = (a - 2 lam V) + 2 delta'MB du with lam folded back out."""
    a, _ = ref.compute_ab(raw, u, delta, 0.0)   # lam = 0 gives the raw quadratic
    return a + 2.0 * float(delta @ raw.M @ (raw.B @ du))


def test_closed_tangent_loop_decreases():
    # Vdot <= -2 lam V on both branches of the gain
    rng = np.random.default_rng(61)
    sysb = load_spec_file(bundled_spec_path("bounded-gain"))
    sysc, metc = curved_system()
    cases = [(sysb.system, sysb.metric, 0.5), (sysc, metc, 0.3)]
    hit_pos = hit_neg = 0
    for sys, met, lam in cases:
        plant = plant_for(sys, met)
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5, size=sys.n)
            u = rng.uniform(-2, 2, size=sys.m)
            delta = rng.normal(size=sys.n)
            raw = plant.raw(x, float(rng.uniform(0, 1)))
            a, b = ref.compute_ab(raw, u, delta, lam)
            if b <= 1e-12:
                continue
            du = differential_feedback(raw, delta, u, lam)
            V = ref.compute_V(raw, delta)
            vdot = _vdot_closed(raw, u, delta, du)
            assert vdot <= -2.0 * lam * V + 1e-10 * (1.0 + abs(vdot))
            if a >= 0.0:
                hit_pos += 1
                # exact decrease margin on the active branch
                want = -2.0 * lam * V + 0.5 * (a - math.sqrt(a * a + b * b))
                assert vdot == pytest.approx(want, abs=1e-9 * (1 + abs(want)))
            else:
                hit_neg += 1
                assert np.array_equal(du, np.zeros(sys.m))
    assert hit_pos > 50 and hit_neg > 50


def test_path_energy_closed_forms():
    met = metric_of([["1", "0"], ["10"]], 1.0, 10.0, 0.5)
    # straight line between (0,0) and (1,1): energy 11 at any resolution
    for K in (1, 2, 8, 33):
        nodes = np.linspace([0.0, 0.0], [1.0, 1.0], K + 1)
        assert path_energy(nodes, met) == pytest.approx(11.0, rel=1e-12)
    # the axis-aligned detour costs 22
    detour = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert path_energy(detour, met) == pytest.approx(22.0, rel=1e-12)
    assert path_energy(np.zeros((1, 2)), met) == 0.0


def test_build_path_constant_metric_is_straight():
    met = metric_of([["1", "0"], ["10"]], 1.0, 10.0, 0.5)
    cfg = ControllerConfig(lam=0.5, path_segments=8)
    path = build_path(np.array([0.0, 0.0]), np.array([1.0, 1.0]), met, cfg)
    assert np.array_equal(path.nodes, np.linspace([0, 0], [1, 1], 9))
    assert path.energy == pytest.approx(11.0, rel=1e-12)
    # coincident endpoints short-circuit to zero energy
    same = build_path(np.ones(2), np.ones(2), met, cfg)
    assert same.energy == 0.0
    assert np.array_equal(same.nodes, np.ones((9, 2)))


def test_build_path_refinement_descends():
    _, met = curved_system()
    a = np.array([-1.0, 0.0])
    b = np.array([1.0, 1.0])
    cfg = ControllerConfig(lam=0.3, path_segments=16)
    straight = path_energy(np.linspace(a, b, 17), met)
    path = build_path(a, b, met, cfg)
    assert np.array_equal(path.nodes[0], a)    # endpoints never move
    assert np.array_equal(path.nodes[-1], b)
    assert 1 <= path.iterations <= NEWTON_MAX_ITER
    assert path.residual <= NEWTON_TOL * path.energy
    # below the steepest descent that Newton replaced
    descent = ref.build_path_sequential(a, b, met, cfg).energy
    assert path.energy <= descent <= straight
    assert path.energy < straight - 1e-4           # strictly better somewhere


def _affine_metric():
    # dM/dx is constant, so the dropped d' d2M d term is zero and the
    # assembled Hessian is the exact one
    return metric_of([["2 + 0.3*x1 + 0.1*t", "0.2*x2 - 0.1*x1"],
                      ["2 - 0.1*x1 + 0.2*x2"]], 1.0, 3.0, 0.5)


def test_newton_system_gradient_and_hessian():
    rng = np.random.default_rng(41)
    _, met_c = curved_system()
    for met in (met_c, _affine_metric()):
        for segments in (2, 3, 9):
            nodes = rng.uniform(-1.0, 1.0, size=(segments + 1, 2))
            energy, terms = controller._midpoint_eval(nodes, met, 0.6)
            assert energy == path_energy(nodes, met, 0.6)
            g, H = controller._assemble(*terms)
            want = ref.energy_gradient(nodes, met, 0.6)[1:-1].reshape(-1)
            np.testing.assert_allclose(g, want, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(want)))
            assert np.array_equal(H, H.T)
    # central differences of the reference gradient give the exact Hessian
    met = _affine_metric()
    h = 1e-6
    for segments in (2, 3, 9):
        nodes = rng.uniform(-1.0, 1.0, size=(segments + 1, 2))
        _, H = controller._assemble(*controller._midpoint_eval(nodes, met, 0.6)[1])
        fd = np.empty_like(H)
        for col in range(H.shape[1]):
            step = np.zeros((segments - 1) * 2)
            step[col] = h
            up, down = nodes.copy(), nodes.copy()
            up[1:-1] += step.reshape(-1, 2)
            down[1:-1] -= step.reshape(-1, 2)
            diff = ref.energy_gradient(up, met, 0.6) - ref.energy_gradient(down, met, 0.6)
            fd[:, col] = diff[1:-1].reshape(-1) / (2.0 * h)
        np.testing.assert_allclose(H, fd, rtol=0.0, atol=1e-6 * np.max(np.abs(H)))


def test_build_path_matches_closed_form_geodesic():
    met = load_spec_file(WARPED).metric

    def gaps(x_star, x, segments):
        cfg = ControllerConfig(lam=met.lam, path_segments=segments)
        got = build_path(x_star, x, met, cfg, 0.3)
        nodes, _ = ref.warped_geodesic(x_star, x, segments)
        assert got.iterations >= 1
        assert got.residual <= NEWTON_TOL * got.energy
        return (got.energy - path_energy(nodes, met, 0.3),
                float(np.max(np.abs(got.nodes - nodes))))

    # the scenario's start: the discrete minimizer and the pulled-back
    # line agree to the solver's precision
    x_star, x = np.zeros(2), np.array([1.0, 0.5])
    for segments in (32, 128):
        energy_gap, node_gap = gaps(x_star, x, segments)
        assert abs(energy_gap) <= 1e-10 and node_gap <= 1e-6
    # farther apart they differ at second order in 1/S, with the Newton
    # path never above the pulled-back line
    for x_star, x in ((np.array([-1.0, 0.3]), np.array([1.5, -1.2])),
                      (np.array([0.2, -0.1]), np.array([-0.7, 1.1]))):
        (e32, n32), (e128, n128) = gaps(x_star, x, 32), gaps(x_star, x, 128)
        assert e32 <= 1e-12 and e128 <= 1e-12
        assert n128 < n32 / 10.0
    # the oracle itself: its discrete energy tends to its continuous one
    x_star, x = np.zeros(2), np.array([1.0, 0.5])
    _, continuous = ref.warped_geodesic(x_star, x, 2)
    excess = [path_energy(ref.warped_geodesic(x_star, x, s)[0], met) - continuous
              for s in (32, 128)]
    assert 0.0 < excess[1] < excess[0] / 10.0 < 1e-6


@pytest.mark.parametrize("segments", [2, 4, 8, 16, 32])
def test_build_path_energy_positive_and_below_straight_line(segments):
    # curved_system's M is indefinite for |x2| above about 7.5, so a step
    # that leaves the box can reach a non-positive energy
    _, met_c = curved_system()
    _, met_3, _ = SWEEP_CASES["three-state-two-input"]()
    rng = np.random.default_rng(53)
    cases = [(met, *rng.uniform(-box, box, size=(2, met.n)),
              float(rng.uniform(0.0, 2.0)))
             for met, box in ((met_c, 2.0), (met_3, 1.0)) for _ in range(50)]
    # straight lines across that band, where full Newton steps do reach
    # negative energies
    cases += [(met_c, np.array(a), np.array(b), t) for a, b, t in
              (((-1.2, -5.5), (-1.6, 11.4), 0.6), ((0.3, -11.8), (-1.1, 0.9), 1.6))]
    for met, x_star, x, t in cases:
        cfg = ControllerConfig(lam=met.lam, path_segments=segments)
        straight = path_energy(np.linspace(x_star, x, segments + 1), met, t)
        path = build_path(x_star, x, met, cfg, t)
        assert 0.0 < path.energy <= straight


def _counting_path_energy(monkeypatch):
    calls = []

    def counted(nodes, met, t=0.0):
        calls.append(np.shape(nodes))
        return path_energy(nodes, met, t)

    monkeypatch.setattr(controller, "path_energy", counted)
    return calls


def _rejecting_metrics():
    """Metrics whose full Newton step is often rejected over +-2.5."""
    return (metric_of([["1 + x1^4", "0"], ["1 + x2^4"]], 1.0, 100.0, 0.5),
            metric_of([["exp(2*x1)", "0"], ["exp(2*x1)"]], 0.01, 200.0, 0.5))


def _matches_separate_scoring(met, box, rng, segments_list, draws):
    for segments in segments_list:
        cfg = ControllerConfig(lam=met.lam, path_segments=segments)
        for _ in range(draws):
            x_star, x = rng.uniform(-box, box, size=(2, met.n))
            t = float(rng.uniform(0.0, 2.0))
            want = ref.build_path_separate_scoring(x_star, x, met, cfg, t)
            got = build_path(x_star, x, met, cfg, t)
            assert np.array_equal(got.nodes, want.nodes)
            assert type(got.energy) is float and got.energy == want.energy
            assert got.iterations == want.iterations
            assert got.residual == want.residual


def test_build_path_matches_separate_scoring():
    rng = np.random.default_rng(59)
    for met, box in ((load_spec_file(WARPED).metric, 2.0),
                     (curved_system()[1], 2.0),
                     (SWEEP_CASES["three-state-two-input"]()[1], 1.0)):
        _matches_separate_scoring(met, box, rng, (1, 2, 8, 32), 8)


def test_build_path_matches_separate_scoring_after_rejected_steps():
    rng = np.random.default_rng(67)
    for met in _rejecting_metrics():
        _matches_separate_scoring(met, 2.5, rng, (2, 4, 8, 32, 128), 18)


@pytest.mark.parametrize("x_star, x", [((-1.0, 2.0), (2.0, -1.0)),
                                       ((0.0, 0.0), (2.0, -2.0))])
def test_build_path_descends_through_a_negative_decrement(x_star, x):
    # the model Hessian drops d' d2M d, so on diag(1 + x1^4, 1 + x2^4) it
    # is indefinite at the straight line and g' H^-1 g < 0 there; a
    # negative decrement is no convergence, and the path must still get
    # at least as low as the steepest descent of the sequential oracle
    met = _rejecting_metrics()[0]
    cfg = ControllerConfig(lam=met.lam, path_segments=16)
    x_star, x = np.array(x_star), np.array(x)
    _, terms = controller._midpoint_eval(np.linspace(x_star, x, 17), met, 0.0)
    g, H = controller._assemble(*terms)
    assert g @ np.linalg.solve(H, g) < 0.0
    got = build_path(x_star, x, met, cfg)
    want = ref.build_path_sequential(x_star, x, met, cfg)
    assert got.iterations > 0
    assert got.energy <= want.energy * (1.0 + 1e-12)
    assert got.energy == pytest.approx(path_energy(got.nodes, met), rel=1e-14)


def test_build_path_scores_each_round_in_one_call(monkeypatch):
    calls = _counting_path_energy(monkeypatch)
    met = load_spec_file(WARPED).metric
    systems = []
    eval_raw = met.eval_raw
    monkeypatch.setitem(vars(met), "eval_raw",
                        lambda X, T: systems.append(np.shape(X)) or eval_raw(X, T))
    cfg = ControllerConfig(lam=met.lam, path_segments=32)
    path = build_path(np.zeros(2), np.array([1.0, 0.5]), met, cfg, 0.4)
    # the straight line's call gives its energy and its Newton system;
    # the full step's call gives its energy and the system that stops
    assert path.iterations == 1
    assert systems == [(32, 2)] * 2
    assert calls == []


def test_build_path_halves_only_after_a_rejected_full_step(monkeypatch):
    calls = _counting_path_energy(monkeypatch)
    events = []
    midpoint_eval, assemble = controller._midpoint_eval, controller._assemble

    def logged_eval(nodes, met, t):
        energy, terms = midpoint_eval(nodes, met, t)
        events.append(("eval", nodes.copy(), energy))
        return energy, terms

    def logged_assemble(*terms):
        g, H = assemble(*terms)
        events.append(("assemble", g, H))
        return g, H

    monkeypatch.setattr(controller, "_midpoint_eval", logged_eval)
    monkeypatch.setattr(controller, "_assemble", logged_assemble)
    met = _rejecting_metrics()[1]
    cfg = ControllerConfig(lam=met.lam, path_segments=16)
    path = build_path(np.zeros(2), np.array([2.0, -2.0]), met, cfg)
    # replay: the straight line's call and system, then per step the
    # fractions 1, 1/2, 1/4, ... of the step, one call each, until the
    # first with 0 < E <= E_current, whose system is assembled next
    assert [e[0] for e in events[:2]] == ["eval", "assemble"]
    (_, current, energy), (_, g, H) = events[:2]
    rest = events[2:]
    kept = rejected = 0
    while rest:
        step = np.linalg.solve(H, g)
        if g @ step < 0.0:
            step = energy / (g @ g) * g
        step = step.reshape(-1, 2)
        for k, event in enumerate(rest):
            assert event[0] == "eval" and k < 30
            _, cand, cand_energy = event
            assert np.array_equal(cand[1:-1], current[1:-1] - 0.5 ** k * step)
            if 0.0 < cand_energy <= energy:
                break
            rejected += 1
        else:
            assert len(rest) == 30      # no fraction qualified
            break
        kind, g, H = rest[k + 1]
        assert kind == "assemble"
        current, energy, rest = cand, cand_energy, rest[k + 2:]
        kept += 1
    assert rejected >= 1 and kept == path.iterations >= 1
    assert np.array_equal(path.nodes, current) and path.energy == energy
    assert sum(e[0] == "assemble" for e in events) == kept + 1
    # no metric's build_path scores with path_energy
    rng = np.random.default_rng(73)
    for met, box in (*((m, 2.5) for m in _rejecting_metrics()),
                     (load_spec_file(WARPED).metric, 2.0), (curved_system()[1], 2.0)):
        for _ in range(4):
            build_path(*rng.uniform(-box, box, size=(2, met.n)), met, cfg)
    assert calls == []


def test_warped_scenario_keeps_every_full_step(monkeypatch):
    # the closed loop that track-curved runs: if a build_path call here
    # makes a third metric evaluation, a full Newton step was rejected
    sf = load_spec_file(WARPED)
    sc = sf.scenario
    evals = []
    build, midpoint_eval = controller.build_path, controller._midpoint_eval

    def counted_build(*args):
        evals.append(0)
        return build(*args)

    def counted_eval(*args):
        evals[-1] += 1
        return midpoint_eval(*args)

    monkeypatch.setattr(controller, "build_path", counted_build)
    monkeypatch.setattr(controller, "_midpoint_eval", counted_eval)
    cfg = ControllerConfig(lam=sf.metric.lam)
    _, rep = simulate_closed_loop(sf.system, sf.metric, cfg, sc.x_star, sc.u_star,
                                  sc.x0, horizon=sc.horizon, step=sc.step)
    assert (sc.horizon, sc.step, cfg.path_segments) == (2.0, 0.01, 32)
    assert rep.passed and len(evals) > 200
    assert max(evals) <= 2


def test_constant_metric_makes_no_path_energy_call(monkeypatch):
    calls = _counting_path_energy(monkeypatch)
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    assert sf.metric.constant
    cfg = ControllerConfig(lam=sf.metric.lam, path_segments=32)
    x, x_star = np.array([1.0, -0.5]), np.array([0.2, 0.3])
    path = build_path(x_star, x, sf.metric, cfg, 0.5)
    tracking_feedback(x, x_star, np.zeros(1), sf.system, sf.metric, cfg, 0.5)
    assert calls == []
    # the energy is still the straight line's
    assert path.energy == pytest.approx(path_energy(path.nodes, sf.metric, 0.5),
                                        rel=1e-14)


def _dominates_sequential_descent(met, box, rng):
    for segments in (2, 8, 32, 128):
        cfg = ControllerConfig(lam=met.lam, path_segments=segments)
        for _ in range(8):
            x_star, x = rng.uniform(-box, box, size=(2, met.n))
            t = float(rng.uniform(0.0, 2.0))
            want = ref.build_path_sequential(x_star, x, met, cfg, t)
            got = build_path(x_star, x, met, cfg, t)
            assert type(got.energy) is float
            # the descent can leave the metric's domain (energy <= 0)
            if want.energy > 0.0:
                assert got.energy <= want.energy * (1.0 + 1e-12)


def test_build_path_dominates_sequential_line_search():
    rng = np.random.default_rng(29)
    for met in (load_spec_file(WARPED).metric, curved_system()[1]):
        assert not met.constant
        _dominates_sequential_descent(met, 2.0, rng)


def test_build_path_dominates_sequential_line_search_three_states():
    _, met, _ = SWEEP_CASES["three-state-two-input"]()
    _dominates_sequential_descent(met, 1.0, np.random.default_rng(31))


@pytest.mark.parametrize("x", [(1.0, 0.5), (-0.8, 1.2)])
def test_warped_control_tends_to_double_integrator_control(x):
    # the warped spec is the double integrator in x = phi^-1(z), with the
    # same input, so its control from x* = 0 tends to the double
    # integrator's at phi(x) as the path is refined; the forward-Euler
    # sum along the path halves its error per doubling of the segments
    warped = load_spec_file(WARPED)
    di = load_spec_file(bundled_spec_path("double-integrator"))
    x = np.array(x)
    z = np.array([x[0] + 0.3 * math.sin(x[1]), x[1]])
    zero, u0 = np.zeros(2), np.zeros(1)
    limit = tracking_feedback(z, zero, u0, di.system, di.metric,
                              ControllerConfig(lam=di.metric.lam))
    errors = np.array([
        abs(tracking_feedback(x, zero, u0, warped.system, warped.metric,
                              ControllerConfig(lam=warped.metric.lam,
                                               path_segments=s))[0] - limit[0])
        for s in (8, 16, 32, 64, 128, 256)])
    np.testing.assert_allclose(errors[:-1] / errors[1:], 2.0, rtol=0.0, atol=0.1)


def test_tracking_feedback_exact_at_target():
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    cfg = ControllerConfig(lam=sf.metric.lam, path_segments=32)
    u_star = np.array([0.37])
    u = tracking_feedback(np.array([1.0, -2.0]), np.array([1.0, -2.0]),
                          u_star, sf.system, sf.metric, cfg)
    assert np.array_equal(u, u_star)


def test_tracking_feedback_moves_toward_target():
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    cfg = ControllerConfig(lam=sf.metric.lam, path_segments=32)
    x = np.array([1.0, 0.0])
    target = np.zeros(2)
    u = tracking_feedback(x, target, np.zeros(1), sf.system, sf.metric, cfg)
    # any sensible gain pushes the double integrator back: u < 0 here
    assert u.shape == (1,) and u[0] < 0.0


def test_tracking_infeasible_near_vanishing_gain():
    sys, met = scalar_counterexample()
    cfg = ControllerConfig(lam=0.5, path_segments=256)
    with pytest.raises(Infeasible) as ei:
        tracking_feedback(np.array([0.0]), np.array([1.0]), np.array([1.0]),
                          sys, met, cfg, t=0.0)
    err = ei.value
    assert err.a >= 0.0 and err.b <= B_FLOOR
    assert err.node is not None and err.time == 0.0
    assert "path node" in str(err)
    # a coarser path skips the degenerate zone and returns a finite input:
    # feasibility of the discretized loop depends on the discretization
    coarse = ControllerConfig(lam=0.5, path_segments=32)
    u = tracking_feedback(np.array([0.0]), np.array([1.0]), np.array([1.0]),
                          sys, met, coarse, t=0.0)
    assert np.isfinite(u).all()


def _segmentwise_feedback(x, x_star, u_star, sys, met, cfg, t):
    """Reference: tracking_feedback as one per-point compute_ab call per segment."""
    u = np.asarray(u_star, dtype=float).copy()
    nodes = build_path(x_star, x, met, cfg, t).nodes
    diffs = nodes[1:] - nodes[:-1]
    raws = plant_for(sys, met).raw_batch(nodes[:-1], t)
    for j in range(diffs.shape[0]):
        if not diffs[j].any():
            continue
        raw = ref.raw_slice(raws, j)
        a, b = ref.compute_ab(raw, u, diffs[j], cfg.lam)
        try:
            r = rho(a, b)
        except Infeasible:
            raise Infeasible(a, b, x=nodes[j], node=j, time=t) from None
        u = u - r * (raw.B.T @ (raw.M @ diffs[j]))
    return u


def test_tracking_feedback_matches_segmentwise_reference():
    specs = [load_spec_file(bundled_spec_path(name))
             for name in ("double-integrator", "bounded-gain")]
    specs.append(load_spec_file(WARPED))
    cases = [(sf.system, sf.metric) for sf in specs] + [curved_system()]
    cases.append(two_input_system()[:2])    # m = 2 pins the sum over inputs
    rng = np.random.default_rng(83)
    for sys, met in cases:
        cfg = ControllerConfig(lam=met.lam, path_segments=16)
        for _ in range(25):
            x, x_star = rng.uniform(-2.0, 2.0, size=(2, sys.n))
            u_star = rng.uniform(-2.0, 2.0, size=sys.m)
            t = float(rng.uniform(0.0, 2.0))
            want = _segmentwise_feedback(x, x_star, u_star, sys, met, cfg, t)
            got = tracking_feedback(x, x_star, u_star, sys, met, cfg, t)
            scale = float(np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_tracking_feedback_infeasible_like_segmentwise_reference():
    sys, met = scalar_counterexample()
    cfg = ControllerConfig(lam=0.5, path_segments=256)
    args = (np.array([0.0]), np.array([1.0]), np.array([1.0]), sys, met, cfg, 0.0)
    with pytest.raises(Infeasible) as ref:
        _segmentwise_feedback(*args)
    with pytest.raises(Infeasible) as ei:
        tracking_feedback(*args)
    want, got = ref.value, ei.value
    assert got.node == want.node and got.time == want.time == 0.0
    assert np.array_equal(got.x, want.x)
    assert got.a == pytest.approx(want.a, rel=1e-12, abs=1e-300)
    assert got.b == pytest.approx(want.b, rel=1e-12, abs=1e-300)


def _scan_cases():
    specs = [load_spec_file(bundled_spec_path(name))
             for name in ("double-integrator", "bounded-gain", "counterexample")]
    specs.append(load_spec_file(WARPED))
    cases = [(sf.system, sf.metric) for sf in specs]
    return cases + [curved_system(), two_input_system()[:2], scalar_counterexample()]


def _same_outcome(args, monkeypatch):
    """tracking_feedback against the scalar scan, bitwise; True when the
    scan called rho (the scalar branch ran)."""
    try:
        want, want_err = ref.tracking_feedback_scalar(*args), None
    except Infeasible as err:
        want, want_err = None, err
    gains = []
    monkeypatch.setattr(controller, "rho", lambda a, b: gains.append(a) or rho(a, b))
    try:
        got, got_err = tracking_feedback(*args), None
    except Infeasible as err:
        got, got_err = None, err
    finally:
        monkeypatch.setattr(controller, "rho", rho)
    if want_err is None:
        assert got_err is None
        assert np.array_equal(got, want) and got.dtype == want.dtype
    else:
        assert got_err is not None
        assert (got_err.node, got_err.a, got_err.b, got_err.time) == \
            (want_err.node, want_err.a, want_err.b, want_err.time)
        assert np.array_equal(got_err.x, want_err.x)
    return bool(gains)


def test_tracking_feedback_matches_scalar_scan(monkeypatch):
    rng = np.random.default_rng(71)
    scalar_runs = {}
    for k, (sys, met) in enumerate(_scan_cases()):
        scalar_runs[k] = 0
        for segments in (4, 16):
            cfg = ControllerConfig(lam=met.lam, path_segments=segments)
            for _ in range(12):
                x, x_star = rng.uniform(-2.0, 2.0, size=(2, sys.n))
                u_star = rng.uniform(-2.0, 2.0, size=sys.m)
                t = float(rng.uniform(0.0, 2.0))
                args = (x, x_star, u_star, sys, met, cfg, t)
                scalar_runs[k] += _same_outcome(args, monkeypatch)
    # the double integrator's constant B and M (H = 0): every gain in
    # closed form; bounded-gain's B(x) feeds u back into later gains
    assert scalar_runs[0] == 0
    assert scalar_runs[1] > 0
    # Infeasible through the scalar branch
    sys, met = scalar_counterexample()
    args = (np.array([0.0]), np.array([1.0]), np.array([1.0]), sys, met,
            ControllerConfig(lam=0.5, path_segments=256), 0.0)
    with pytest.raises(Infeasible):
        tracking_feedback(*args)
    assert _same_outcome(args, monkeypatch)


def test_tracking_feedback_closed_form_infeasible_like_scalar_scan(monkeypatch):
    # dx/dt = u with M = 1 close to the target: b = 4 |delta|^2 falls
    # under the absolute B_FLOOR on every segment, and H = 0 puts the
    # whole scan in closed form
    sys = system_of(["0"], [["1"]])
    met = metric_of([["1"]], 1.0, 1.0, 0.5)
    args = (np.array([1e-6]), np.zeros(1), np.zeros(1), sys, met,
            ControllerConfig(lam=0.5, path_segments=4), 0.0)
    with pytest.raises(Infeasible) as ei:
        tracking_feedback(*args)
    assert ei.value.node == 0 and ei.value.a >= 0.0 and ei.value.b <= B_FLOOR
    assert not _same_outcome(args, monkeypatch)


def test_controller_config_defaults():
    cfg = ControllerConfig(lam=0.4)
    assert cfg.path_segments == 32
    assert [f.name for f in fields(cfg)] == ["lam", "path_segments"]
