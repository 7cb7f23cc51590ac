"""Fixed-step integration and closed-loop tracking runs.

The integrator is classic fourth-order Runge-Kutta on a uniform step;
the control callback is sampled at the stage times.  Closed-loop runs
recompute the tracking feedback once per step and hold it across the
step's stages, then summarize convergence: the empirical rate is read
off a log-linear fit of the tracking cost V over the trailing 80% of
the horizon, and the overshoot surrogate compares the worst
rate-discounted deviation against sqrt(alpha2 / alpha1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import ControllerConfig, Infeasible, tracking_feedback
from .model import MetricSpec, SystemSpec

RATE_FIT_WINDOW = 0.8       # trailing fraction of the horizon used for the fit
RATE_SLACK = 0.95           # fitted rate must reach this fraction of lambda
OVERSHOOT_SLACK = 1.05
V_CONVERGED = 1e-14
TARGET_TOL = 1e-6           # re-integrated target deviation, times max(1, |x*|)


class NonFiniteStateError(Exception):
    """State left the finite floats; time attribute marks when."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"non-finite state at t={time}")


@dataclass
class Trajectory:
    times: np.ndarray    # (k,)
    states: np.ndarray   # (k, n)
    inputs: np.ndarray   # (k, m)


def _as_callable(v, length: int):
    if callable(v):
        return v
    arr = np.asarray(v, dtype=float).reshape(length)
    return lambda _t: arr


def _rk4_step(sys: SystemSpec, x: np.ndarray, t: float, h: float, u0: np.ndarray,
              um: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """One classic RK4 step of dx/dt = f + B u; u0, um and u1 are the
    inputs at t, t + h/2 and t + h."""

    def xdot(xx, uu, tt):
        f, B = sys.eval_fB(xx, tt)
        return f + B @ uu

    k1 = xdot(x, u0, t)
    k2 = xdot(x + 0.5 * h * k1, um, t + 0.5 * h)
    k3 = xdot(x + 0.5 * h * k2, um, t + 0.5 * h)
    k4 = xdot(x + h * k3, u1, t + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(sys: SystemSpec, u_of_t, x0: np.ndarray, t0: float = 0.0,
              horizon: float = 10.0, step: float = 1e-3) -> Trajectory:
    """Open-loop RK4 run of dx/dt = f + B u(t).

    u_of_t may be a callable t -> u or a constant vector.  Raises
    NonFiniteStateError the moment the state goes non-finite.
    """
    u_fn = _as_callable(u_of_t, sys.m)
    steps = max(1, int(round(horizon / step)))
    h = horizon / steps
    times = t0 + h * np.arange(steps + 1)
    states = np.empty((steps + 1, sys.n))
    inputs = np.empty((steps + 1, sys.m))
    x = np.asarray(x0, dtype=float).copy()
    for k in range(steps):
        t = times[k]
        states[k] = x
        u0 = np.asarray(u_fn(t), dtype=float)
        inputs[k] = u0
        um = np.asarray(u_fn(t + 0.5 * h), dtype=float)
        u1 = np.asarray(u_fn(t + h), dtype=float)
        x = _rk4_step(sys, x, t, h, u0, um, u1)
        if not np.isfinite(x).all():
            raise NonFiniteStateError(float(times[k + 1]))
    states[-1] = x
    inputs[-1] = np.asarray(u_fn(times[-1]), dtype=float)
    return Trajectory(times=times, states=states, inputs=inputs)


@dataclass
class ConvergenceReport:
    V: np.ndarray
    claimed_rate: float
    claimed_overshoot: float
    fitted_rate: float | None = None
    rate_status: str = "fitted"          # "fitted" or "converged"
    overshoot: float | None = None
    rate_pass: bool = False
    overshoot_pass: bool = False
    infeasible_time: float | None = None
    infeasible_message: str = ""
    abort_time: float | None = None
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "claimed_rate": float(self.claimed_rate),
            "claimed_overshoot": float(self.claimed_overshoot),
            "fitted_rate": None if self.fitted_rate is None else float(self.fitted_rate),
            "rate_status": self.rate_status,
            "overshoot": None if self.overshoot is None else float(self.overshoot),
            "rate_pass": bool(self.rate_pass),
            "overshoot_pass": bool(self.overshoot_pass),
            "V_initial": float(self.V[0]) if self.V.size else None,
            "V_final": float(self.V[-1]) if self.V.size else None,
            "infeasible_time": self.infeasible_time,
            "infeasible_message": self.infeasible_message,
            "abort_time": self.abort_time,
            "passed": bool(self.passed),
        }


def _target_states(traj: Trajectory, x_star, n: int) -> np.ndarray:
    """x*(t) at every sample time, stacked (k, n)."""
    x_fn = _as_callable(x_star, n)
    return np.array([x_fn(t) for t in traj.times], dtype=float).reshape(-1, n)


def _cost(traj: Trajectory, xs: np.ndarray, met: MetricSpec) -> np.ndarray:
    e = traj.states - xs
    (M,) = met.eval_M(xs, traj.times)
    return ((e[:, None, :] @ M) @ e[:, :, None])[:, 0, 0]


def tracking_cost(traj: Trajectory, x_star, met: MetricSpec) -> np.ndarray:
    """V(t) = (x - x*)' M(x*, t) (x - x*) along the run (for a constant
    metric this is exactly the geodesic energy between x and x*)."""
    return _cost(traj, _target_states(traj, x_star, met.n), met)


def convergence_metrics(traj: Trajectory, x_star, met: MetricSpec,
                        lam: float | None = None) -> ConvergenceReport:
    """Fit the decay rate and overshoot surrogate for a tracking run.

    fitted_rate is -slope/2 of the log V fit over the trailing 80% of
    the horizon; if V stays below V_CONVERGED the run counts as converged with
    no fit.  overshoot is max_t ||x - x*|| e^{lam (t - t0)} / ||x0 - x*0||,
    compared against sqrt(alpha2/alpha1) with 5% slack.
    """
    rate = met.lam if lam is None else lam
    claimed_R = math.sqrt(met.alpha2 / met.alpha1)
    xs = _target_states(traj, x_star, met.n)
    V = _cost(traj, xs, met)
    rep = ConvergenceReport(V=V, claimed_rate=rate, claimed_overshoot=claimed_R)

    t = traj.times
    dev = np.linalg.norm(traj.states - xs, axis=1)

    if float(np.max(V)) < V_CONVERGED:
        rep.rate_status = "converged"
        rep.rate_pass = True
        rep.overshoot_pass = True
        rep.passed = True
        return rep

    start = t[0] + (1.0 - RATE_FIT_WINDOW) * (t[-1] - t[0])
    win = (t >= start) & (V > 1e-300)
    if int(np.sum(win)) >= 2:
        slope = float(np.polyfit(t[win], np.log(V[win]), 1)[0])
        rep.fitted_rate = -0.5 * slope
        rep.rate_pass = rep.fitted_rate >= RATE_SLACK * rate
    if dev[0] > 0.0:
        rep.overshoot = float(np.max(dev * np.exp(rate * (t - t[0]))) / dev[0])
        rep.overshoot_pass = rep.overshoot <= claimed_R * OVERSHOOT_SLACK
    else:
        rep.overshoot_pass = True
    rep.passed = rep.rate_pass and rep.overshoot_pass
    return rep


def simulate_closed_loop(sys: SystemSpec, met: MetricSpec, cfg: ControllerConfig,
                         x_star, u_star, x0: np.ndarray, t0: float = 0.0,
                         horizon: float = 10.0, step: float = 1e-3,
                         ) -> tuple[Trajectory, ConvergenceReport]:
    """Track (x_star, u_star) from x0 with the path-integrated feedback.

    The target pair is first re-integrated under u_star; a deviation
    above TARGET_TOL * max(1, max |x_star|) raises ValueError.  The
    feedback is computed once per step and held.  Infeasible points and
    non-finite aborts stop the run; the report carries the time and the
    returned trajectory holds the prefix that was completed.
    """
    x_fn = _as_callable(x_star, sys.n)
    u_fn = _as_callable(u_star, sys.m)

    ref = integrate(sys, u_fn, np.asarray(x_fn(t0), dtype=float), t0, horizon, step)
    xs = _target_states(ref, x_fn, sys.n)
    worst = float(np.max(np.abs(ref.states - xs)))
    tol = TARGET_TOL * max(1.0, float(np.max(np.abs(xs))))
    if worst > tol:
        raise ValueError(
            f"target trajectory violates the dynamics: re-integration "
            f"deviates by {worst:.3e} (tol {tol:.3e})"
        )

    steps = max(1, int(round(horizon / step)))
    h = horizon / steps
    times = t0 + h * np.arange(steps + 1)
    states = [np.asarray(x0, dtype=float).copy()]
    inputs = []
    infeasible_time: float | None = None
    infeasible_msg = ""
    abort_time: float | None = None
    x = states[0]
    k = 0
    while k < steps:
        t = float(times[k])
        try:
            u = tracking_feedback(x, np.asarray(x_fn(t), dtype=float),
                                  np.asarray(u_fn(t), dtype=float),
                                  sys, met, cfg, t)
        except Infeasible as err:
            infeasible_time = t
            infeasible_msg = str(err)
            break
        inputs.append(u)
        x = _rk4_step(sys, x, t, h, u, u, u)
        if not np.isfinite(x).all():
            abort_time = float(times[k + 1])
            break
        states.append(x)
        k += 1

    done = len(states)
    if len(inputs) < done:
        # final sample, or the point where the run stopped
        t_last = float(times[done - 1])
        try:
            u_last = tracking_feedback(states[-1], np.asarray(x_fn(t_last), dtype=float),
                                       np.asarray(u_fn(t_last), dtype=float),
                                       sys, met, cfg, t_last)
        except Infeasible:
            u_last = np.asarray(u_fn(t_last), dtype=float)
        inputs.append(u_last)
    traj = Trajectory(times=times[:done], states=np.array(states),
                      inputs=np.array(inputs[:done]))
    rep = convergence_metrics(traj, x_fn, met, cfg.lam)
    rep.infeasible_time = infeasible_time
    rep.infeasible_message = infeasible_msg
    rep.abort_time = abort_time
    if infeasible_time is not None or abort_time is not None:
        rep.passed = False
    return traj, rep


def write_csv(path, traj: Trajectory, V: np.ndarray | None = None) -> None:
    """Trajectory CSV with header t,x1..xn,u1..um,V (V zero when absent)."""
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    if V is None:
        V = np.zeros(traj.times.size)
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)]
                      + [f"u{j + 1}" for j in range(m)] + ["V"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(traj.times.size):
            row = [traj.times[k], *traj.states[k], *traj.inputs[k], V[k]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
