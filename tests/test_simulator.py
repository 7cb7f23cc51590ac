"""Integrator order, abort handling, and closed-loop tracking runs."""

import math
from pathlib import Path

import numpy as np
import pytest

from ccmkit.controller import ControllerConfig
from ccmkit.model import bundled_spec_path, load_spec_file
from ccmkit.simulator import (
    TARGET_TOL,
    ConvergenceReport,
    NonFiniteStateError,
    Trajectory,
    convergence_metrics,
    integrate,
    simulate_closed_loop,
    tracking_cost,
    write_csv,
)
import ccmkit.simulator as simulator
import reference as ref
from conftest import curved_system, metric_of, scalar_counterexample, system_of

WARPED = Path(__file__).parents[1] / "perfbench" / "specs" / "warped_double_integrator.json"


def test_rk4_fourth_order_on_linear_decay():
    sys = system_of(["-x1"], [["0"]])
    errs = []
    for h in (0.1, 0.05):
        traj = integrate(sys, [0.0], np.array([1.0]), horizon=1.0, step=h)
        errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0          # halving h ~ 2^4 error drop


def test_integrate_shapes_and_grid():
    sys = system_of(["-x1"], [["0"]])
    traj = integrate(sys, [0.0], np.array([2.0]), t0=1.5, horizon=0.5,
                     step=0.1)
    assert traj.times.shape == (6,)
    assert traj.times[0] == 1.5
    assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
    assert traj.states.shape == (6, 1) and traj.inputs.shape == (6, 1)
    assert np.array_equal(traj.states[0], [2.0])


def test_integrate_constant_vs_callable_input():
    sys = system_of(["-x1 + x2", "-x2"], [["1"], ["0"]])
    x0 = np.array([1.0, -1.0])
    a = integrate(sys, [0.25], x0, horizon=1.0, step=0.05)
    b = integrate(sys, lambda t: np.array([0.25]), x0, horizon=1.0, step=0.05)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)


def test_integrate_autonomous_time_shift():
    sys = system_of(["-x1"], [["0"]])
    a = integrate(sys, [0.0], np.array([1.0]), t0=0.0, horizon=1.0, step=0.01)
    b = integrate(sys, [0.0], np.array([1.0]), t0=7.0, horizon=1.0, step=0.01)
    assert np.array_equal(a.states, b.states)
    assert np.allclose(b.times - a.times, 7.0)


def test_finite_escape_raises_with_time():
    sys = system_of(["x1^2"], [["0"]])   # solution 2/(1-2t): escapes at 0.5
    with pytest.raises(NonFiniteStateError) as ei:
        integrate(sys, [0.0], np.array([2.0]), horizon=1.0, step=1e-3)
    assert 0.45 < ei.value.time < 0.6
    assert "non-finite state" in str(ei.value)


def counting_rk4(monkeypatch):
    calls = []
    rk4_step = simulator._rk4_step
    monkeypatch.setattr(simulator, "_rk4_step",
                        lambda *args: calls.append(0) or rk4_step(*args))
    return calls


def _assert_same_run(got, want):
    for name in ("times", "states", "inputs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


SHIPPED = [bundled_spec_path(name) for name in
           ("double-integrator", "bounded-gain", "counterexample")] + [WARPED]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_integrate_stops_at_a_shipped_target(path, monkeypatch):
    # every shipped target is a rest point under a constant u*: one step
    # shows it, and the rest of the horizon repeats that row
    sf = load_spec_file(path)
    sys, sc = sf.system, sf.scenario
    assert sys.autonomous
    want = ref.integrate_stepwise(sys, sc.u_star, sc.x_star, 0.0, sc.horizon, sc.step)
    calls = counting_rk4(monkeypatch)
    got = integrate(sys, sc.u_star, sc.x_star, 0.0, sc.horizon, sc.step)
    assert len(calls) == 1
    _assert_same_run(got, want)


def test_integrate_negative_zero_is_not_a_fixed_point(monkeypatch):
    # from -0.0 the first step gives +0.0: equal as floats, not as bytes,
    # so the run stops one step later, at +0.0 -> +0.0
    sys = system_of(["-x1"], [["1"]])
    want = ref.integrate_stepwise(sys, [0.0], np.array([-0.0]), horizon=1.0, step=0.1)
    assert np.signbit(want.states[0, 0]) and not np.signbit(want.states[1, 0])
    calls = counting_rk4(monkeypatch)
    got = integrate(sys, [0.0], np.array([-0.0]), horizon=1.0, step=0.1)
    assert len(calls) == 2
    _assert_same_run(got, want)


@pytest.mark.parametrize("f, u", [
    ("-x1*(1 + 0.5*sin(t))", [0.0]),             # t in f
    ("-x1", lambda t: np.zeros(1)),              # a callable input
])
def test_integrate_runs_every_step_without_a_fixed_map(f, u, monkeypatch):
    # x = 0 is a rest point of both, but the step map may change with t
    sys = system_of([f], [["1"]])
    want = ref.integrate_stepwise(sys, u, np.zeros(1), horizon=1.0, step=0.01)
    calls = counting_rk4(monkeypatch)
    got = integrate(sys, u, np.zeros(1), horizon=1.0, step=0.01)
    assert len(calls) == 100
    _assert_same_run(got, want)


def test_system_autonomous():
    assert system_of(["-x1", "x1*x2"], [["1"], ["cos(x1)"]]).autonomous
    assert not system_of(["-x1"], [["1 + t"]]).autonomous
    assert not curved_system()[0].autonomous


def test_finite_escape_raises_like_the_stepwise_run():
    sys = system_of(["x1^2"], [["0"]])
    with pytest.raises(NonFiniteStateError) as want:
        ref.integrate_stepwise(sys, [0.0], np.array([2.0]), horizon=1.0, step=1e-3)
    with pytest.raises(NonFiniteStateError) as got:
        integrate(sys, [0.0], np.array([2.0]), horizon=1.0, step=1e-3)
    assert got.value.time == want.value.time


def _synthetic_decay(lam, T=5.0, step=1e-2, d0=(1.0, -0.5)):
    t = np.arange(0.0, T + step / 2, step)
    states = np.exp(-lam * t)[:, None] * np.asarray(d0)
    return Trajectory(times=t, states=states, inputs=np.zeros((t.size, 1)))


def test_convergence_metrics_recovers_exact_rate():
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.4)
    traj = _synthetic_decay(lam=0.4)
    rep = convergence_metrics(traj, np.zeros(2), met)
    assert rep.fitted_rate == pytest.approx(0.4, rel=1e-9)
    assert rep.rate_status == "fitted"
    assert rep.overshoot == pytest.approx(1.0, rel=1e-12)
    assert rep.rate_pass and rep.overshoot_pass and rep.passed
    # V is the plain squared deviation under the identity metric
    assert rep.V[0] == pytest.approx(1.25, rel=1e-12)


def test_convergence_metrics_converged_branch():
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.4)
    t = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(times=t, states=np.full((11, 2), 3.0),
                      inputs=np.zeros((11, 1)))
    rep = convergence_metrics(traj, np.full(2, 3.0), met)
    assert rep.rate_status == "converged"
    assert rep.fitted_rate is None
    assert rep.passed


def test_convergence_metrics_flags_slow_decay():
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.4)
    traj = _synthetic_decay(lam=0.1)     # only a quarter of the claimed rate
    rep = convergence_metrics(traj, np.zeros(2), met)
    assert rep.fitted_rate == pytest.approx(0.1, rel=1e-6)
    assert not rep.rate_pass and not rep.passed


def test_closed_loop_rejects_inconsistent_target():
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    cfg = ControllerConfig(lam=sf.metric.lam, path_segments=32)
    with pytest.raises(ValueError, match="violates the dynamics"):
        simulate_closed_loop(sf.system, sf.metric, cfg,
                             x_star=np.array([1.0, 1.0]),
                             u_star=np.zeros(1),
                             x0=np.zeros(2), horizon=2.0)


def test_closed_loop_target_tolerance_boundary():
    # x* = c t under u* = 0 on dx/dt = u: re-integration stays at 0, so
    # the deviation is c at t = 1 against the tolerance TARGET_TOL * 1
    sys, met = system_of(["0"], [["1"]]), metric_of([["1"]], 1.0, 1.0, 0.5)
    cfg = ControllerConfig(lam=0.5, path_segments=4)

    def run(c):
        return simulate_closed_loop(sys, met, cfg, x_star=lambda t: np.array([c * t]),
                                    u_star=np.zeros(1), x0=np.ones(1),
                                    horizon=1.0, step=0.1)

    with pytest.raises(ValueError, match="deviates by 3.000e-06"):
        run(3.0 * TARGET_TOL)
    traj, _ = run(0.5 * TARGET_TOL)
    assert traj.times.shape == (11,)


def test_closed_loop_double_integrator_per_step_decrease():
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    lam = sf.metric.lam
    cfg = ControllerConfig(lam=lam, path_segments=32)
    h = 1e-3
    traj, rep = simulate_closed_loop(sf.system, sf.metric, cfg,
                                     x_star=np.zeros(2), u_star=np.zeros(1),
                                     x0=np.array([1.5, 0.0]),
                                     horizon=2.0, step=h)
    assert rep.infeasible_time is None and rep.abort_time is None
    V = tracking_cost(traj, np.zeros(2), sf.metric)
    decay = math.exp(-2.0 * lam * h)
    # zero-order hold on u costs a small per-step slack, nothing more
    assert np.all(V[1:] <= V[:-1] * decay + 1e-6)
    assert V[-1] < V[0] * math.exp(-2.0 * lam * 2.0) * 1.01
    assert rep.passed
    assert rep.fitted_rate >= 0.95 * lam
    assert rep.overshoot <= math.sqrt(sf.metric.alpha2 / sf.metric.alpha1) * 1.05


def test_closed_loop_infeasible_prefix():
    sys, met = scalar_counterexample()
    cfg = ControllerConfig(lam=0.5, path_segments=256)
    traj, rep = simulate_closed_loop(sys, met, cfg,
                                     x_star=np.array([1.0]),
                                     u_star=np.array([1.0]),
                                     x0=np.array([0.0]),
                                     horizon=1.0, step=1e-2)
    assert rep.infeasible_time == 0.0
    assert "path node" in rep.infeasible_message
    assert not rep.passed
    assert traj.times.shape == (1,)      # nothing integrated, prefix only
    assert np.array_equal(traj.states, [[0.0]])


def test_closed_loop_infeasible_start_calls_the_feedback_once(monkeypatch):
    # the failed feedback is not retried at the same state and time: the
    # stopped sample records u*(t) directly
    from ccmkit import simulator
    calls, original = [], simulator.tracking_feedback

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(simulator, "tracking_feedback", counting)
    sys, met = scalar_counterexample()
    cfg = ControllerConfig(lam=0.5, path_segments=256)
    traj, rep = simulate_closed_loop(sys, met, cfg, x_star=np.array([1.0]),
                                     u_star=np.array([1.0]), x0=np.array([0.0]),
                                     horizon=1.0, step=1e-2)
    assert rep.infeasible_time == 0.0
    assert calls == [0.0]
    assert np.array_equal(traj.inputs, [[1.0]])


def test_write_csv_round_trip(tmp_path):
    sys = system_of(["-x1 + x2", "-x2"], [["1"], ["0"]])
    traj = integrate(sys, [0.5], np.array([1.0, 2.0]), horizon=0.2, step=0.05)
    V = np.arange(traj.times.size, dtype=float) * 0.125
    out = tmp_path / "run.csv"
    write_csv(out, traj, V)
    text = out.read_text().splitlines()
    assert text[0] == "t,x1,x2,u1,V"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (traj.times.size, 5)
    assert np.array_equal(data[:, 0], traj.times)       # %.17g is lossless
    assert np.array_equal(data[:, 1:3], traj.states)
    assert np.array_equal(data[:, 3], traj.inputs[:, 0])
    assert np.array_equal(data[:, 4], V)


def test_write_csv_defaults_v_to_zero(tmp_path):
    sys = system_of(["-x1"], [["1"]])
    traj = integrate(sys, [0.0], np.array([1.0]), horizon=0.1, step=0.05)
    out = tmp_path / "run.csv"
    write_csv(out, traj)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, -1], np.zeros(3))


def _same_csv_bytes(tmp_path, traj, V=None):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, traj, V)
    ref.write_csv_per_value(want, traj, V)
    assert got.read_bytes() == want.read_bytes()
    return got.read_text()


def test_write_csv_matches_per_value_writer_on_a_run(tmp_path):
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    sc = sf.scenario
    cfg = ControllerConfig(lam=sf.metric.lam, path_segments=8)
    traj, rep = simulate_closed_loop(sf.system, sf.metric, cfg, sc.x_star, sc.u_star,
                                     sc.x0, horizon=0.2, step=sc.step)
    assert traj.times.size == 201
    _same_csv_bytes(tmp_path, traj, rep.V)
    _same_csv_bytes(tmp_path, traj)


def test_write_csv_matches_per_value_writer_on_special_values(tmp_path):
    traj = Trajectory(times=np.array([0.0, 0.1]),
                      states=np.array([[-0.0, np.nan], [np.inf, -np.inf]]),
                      inputs=np.array([[1e-320], [-1.0 / 3.0]]))
    text = _same_csv_bytes(tmp_path, traj, np.array([np.nan, -0.0]))
    assert text.splitlines()[1:] == ["0,-0,nan,9.9998886718268301e-321,nan",
                                     "0.10000000000000001,inf,-inf,-0.33333333333333331,-0"]


def test_write_csv_matches_per_value_writer_three_states_two_inputs(tmp_path):
    sys = system_of(["-x1 + x2", "-x2 + x3", "-x3"], [["1", "0"], ["0", "x1"], ["1", "1"]])
    traj = integrate(sys, lambda t: np.array([np.sin(t), 0.5]),
                     np.array([1.0, -2.0, 0.3]), horizon=0.5, step=0.05)
    text = _same_csv_bytes(tmp_path, traj, np.linspace(0.0, 1.0, traj.times.size))
    assert text.splitlines()[0] == "t,x1,x2,x3,u1,u2,V"
