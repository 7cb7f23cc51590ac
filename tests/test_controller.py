"""Feedback gain, path energy descent and the tracking control."""

import math
from pathlib import Path

import numpy as np
import pytest

from ccmkit.controller import (
    B_FLOOR,
    ControllerConfig,
    Infeasible,
    build_path,
    differential_feedback,
    path_energy,
    rho,
    tracking_feedback,
)
import reference as ref
from ccmkit.model import bundled_spec_path, load_spec_file, plant_for
from conftest import curved_system, metric_of, scalar_counterexample


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
    straight = path_energy(np.linspace(a, b, 17), met)
    energies = []
    for iters in (0, 3, 20):
        cfg = ControllerConfig(lam=0.3, path_segments=16,
                               geodesic_iterations=iters)
        path = build_path(a, b, met, cfg)
        energies.append(path.energy)
        assert np.array_equal(path.nodes[0], a)    # endpoints never move
        assert np.array_equal(path.nodes[-1], b)
    assert energies[0] == pytest.approx(straight, rel=1e-12)
    assert energies[2] <= energies[1] <= energies[0]
    assert energies[2] < straight - 1e-4           # strictly better somewhere


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
    warped = Path(__file__).parents[1] / "perfbench" / "specs" / "warped_double_integrator.json"
    specs = [load_spec_file(bundled_spec_path(name))
             for name in ("double-integrator", "bounded-gain")]
    specs.append(load_spec_file(warped))
    cases = [(sf.system, sf.metric) for sf in specs] + [curved_system()]
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


def test_controller_config_defaults():
    cfg = ControllerConfig(lam=0.4)
    assert cfg.path_segments == 32
    assert cfg.geodesic_iterations == 20
