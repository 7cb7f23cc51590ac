"""End-to-end checks of the advertised guarantees, one test per claim.

Run with -s to see one [PASS] line per claim.  Tolerances here are the
published contract of the package, not implementation details: loosening
them is an interface change.
"""

import json
import math
import time

import numpy as np
import pytest

from ccmkit.cli import main
from ccmkit.controller import ControllerConfig, differential_feedback, rho
import reference as ref
from ccmkit.differential import compute_H, compute_Q, compute_ab
from ccmkit.expr import NonFiniteError, differentiate, evaluate, parse
from ccmkit.model import bundled_spec_path, load_spec_file, plant_for
from ccmkit.simulator import integrate, simulate_closed_loop
from ccmkit.transforms import FeedbackTransform, invariance_probe
from ccmkit.verifier import CertificateInvalid, construct_psi, verify
from conftest import random_expression, two_input_system

BUNDLED = ("counterexample", "double-integrator", "bounded-gain")


def _pass(msg):
    print(f"[PASS] {msg}")


def test_vanishing_authority_demo_reproduces_all_outcomes(tmp_path):
    t0 = time.monotonic()
    code = main(["demo-counterexample", "--out", str(tmp_path),
                 "--no-timestamp"])
    elapsed = time.monotonic() - t0
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["all_expected_outcomes"] is True
    margin = rep["report"]["contraction"]["worst_margin"]
    assert margin == pytest.approx(-1.0, abs=1e-6)       # 2*0.5 - 2 at x = 0
    exponent = rep["report"]["condition1"]["power_law"]["exponent"]
    assert -3.2 <= exponent <= -2.8
    assert rep["open_loop"]["from_zero_max_dev"] <= 1e-9
    assert rep["open_loop"]["from_one_max_dev"] <= 1e-9
    assert elapsed < 10.0
    _pass(f"counterexample demo: margin {margin:+.3f}, psi exponent "
          f"{exponent:.3f}, both equilibria pinned, {elapsed:.1f}s")


def test_certificate_equals_brute_force_minimum():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_slack = 0.0
    for name in BUNDLED:
        sf = load_spec_file(bundled_spec_path(name))
        plant = plant_for(sf.system, sf.metric)
        lo = np.array([r[0] for r in sf.grid.x_ranges])
        hi = np.array([r[1] for r in sf.grid.x_ranges])
        valid = 0
        while valid < 200:
            raw = plant.raw(rng.uniform(lo, hi), 0.0)
            H = compute_H(raw)
            Q = compute_Q(raw)
            try:
                cert = construct_psi(Q, H)
            except CertificateInvalid:
                continue            # certificate-free point: redraw
            valid += 1
            brute = 0.0
            for _ in range(100):
                d = rng.normal(size=sf.system.n)
                d /= np.linalg.norm(d)
                q = float(d @ Q @ d)
                lhs = max(abs(float(d @ Hi @ d)) for Hi in H)
                worst_slack = min(worst_slack, cert.psi * q - lhs)
                if q <= 1e-300:     # kernel direction: ratio undefined
                    continue
                brute = max(brute, lhs / q)
            if cert.psi == 0.0:
                assert brute == 0.0
            else:
                worst_rel = max(worst_rel, abs(brute - cert.psi) / cert.psi)
    elapsed = time.monotonic() - t0
    assert worst_rel <= 1e-6
    assert worst_slack >= -1e-9
    assert elapsed < 30.0
    _pass(f"certificate == brute-force minimum over 100 directions at "
          f"3x200 points (worst rel {worst_rel:.1e}, worst slack "
          f"{worst_slack:+.1e}), {elapsed:.1f}s")


def test_zero_input_sensitivity_forces_zero_certificate():
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    rep = verify(sf.system, sf.metric, sf.grid)
    assert rep.strong.c1_passed and rep.strong.c2_passed and rep.strong.strong
    assert rep.strong.max_H_norm <= 1e-10
    assert rep.condition1.max_psi == 0.0
    assert rep.verdict
    _pass(f"constant-gain system: max |H|_F = {rep.strong.max_H_norm:.1e}, "
          f"max psi = {rep.condition1.max_psi} exactly")


def test_feedback_gain_is_lipschitz_and_decreasing():
    rng = np.random.default_rng(99)
    sfb = load_spec_file(bundled_spec_path("bounded-gain"))
    s2, m2, _ = two_input_system()
    cases = [(sfb.system, sfb.metric, (-3.0, 3.0)),
             (s2, m2, (-2.0, 2.0))]
    h = 1e-6
    evaluated = 0
    worst_fd = 0.0      # fraction of the allowed Lipschitz bound used
    worst_dec = -math.inf
    for sys_, met, (lo, hi) in cases:
        plant = plant_for(sys_, met)
        lam = met.lam
        got = 0
        while got < 500:
            x = rng.uniform(lo, hi, size=sys_.n)
            u = rng.uniform(-2, 2, size=sys_.m)
            d = rng.normal(size=sys_.n)
            d /= np.linalg.norm(d)
            raw = plant.raw(x, float(rng.uniform(0, 1)))
            try:
                cert = construct_psi(compute_Q(raw), compute_H(raw))
            except CertificateInvalid:
                continue
            _a0, b0 = compute_ab(raw, u, d, lam)
            if b0 <= 1e-12:
                continue
            fds = []
            cross = False
            for i in range(sys_.m):
                e = np.zeros(sys_.m)
                e[i] = h
                ap, bp = compute_ab(raw, u + e, d, lam)
                am, bm = compute_ab(raw, u - e, d, lam)
                if (ap >= 0.0) != (am >= 0.0):
                    cross = True    # stencil straddles the gain's switch
                    break
                fds.append((rho(ap, bp) - rho(am, bm)) / (2.0 * h))
            if cross:
                continue
            got += 1
            evaluated += 1
            bound = 8.0 * cert.psi * (1.0 + 1e-3)
            for fd in fds:
                assert abs(fd) <= bound + 1e-12
                if bound > 0.0:
                    worst_fd = max(worst_fd, abs(fd) / bound)
            du = differential_feedback(raw, d, u, lam)
            a_raw, _ = ref.compute_ab(raw, u, d, 0.0)
            vdot = a_raw + 2.0 * float(d @ raw.M @ (raw.B @ du))
            excess = vdot + 2.0 * lam * ref.compute_V(raw, d)
            worst_dec = max(worst_dec, excess)
            assert excess <= 1e-8
    assert evaluated == 1000
    _pass(f"gain derivative within the Lipschitz budget at 1000 points "
          f"(peak use {100 * worst_fd:.1f}%), Vdot + 2 lam V <= "
          f"{worst_dec:+.1e}")


def test_tracking_meets_claimed_rate_and_overshoot():
    t0 = time.monotonic()
    sf = load_spec_file(bundled_spec_path("double-integrator"))
    lam = sf.metric.lam
    cfg = ControllerConfig(lam=lam, path_segments=32)
    traj, rep = simulate_closed_loop(sf.system, sf.metric, cfg,
                                     x_star=np.zeros(2), u_star=np.zeros(1),
                                     x0=np.array([1.0, 0.0]),
                                     horizon=10.0, step=1e-3)
    elapsed = time.monotonic() - t0
    assert rep.infeasible_time is None and rep.abort_time is None
    assert rep.fitted_rate >= 0.95 * lam
    R = math.sqrt(sf.metric.alpha2 / sf.metric.alpha1)
    assert rep.overshoot <= R * 1.05
    window = traj.times >= 0.5
    envelope = 1.05 * rep.V[0] * np.exp(-2.0 * lam * traj.times)
    assert np.all(rep.V[window] <= envelope[window])
    assert elapsed < 20.0
    _pass(f"closed loop from (1,0): rate {rep.fitted_rate:.2f} >= "
          f"{0.95 * lam:.2f}, overshoot {rep.overshoot:.2f} <= {R * 1.05:.2f}, "
          f"V under its exponential envelope, {elapsed:.1f}s")


def test_scaled_input_bound_and_margins_survive():
    zero = parse("0")
    one = parse("1")
    two = parse("2")
    scalars = [FeedbackTransform(n=1, alpha=[zero], beta=[[one]]),
               FeedbackTransform(n=1, alpha=[zero], beta=[[two]])]
    worst_slack = math.inf
    worst_margin = 0.0
    for name in ("bounded-gain", "counterexample"):
        sf = load_spec_file(bundled_spec_path(name))
        for tf in scalars:
            r = invariance_probe(sf.system, sf.metric, tf, sf.grid)
            assert r.passed, (name, r.to_dict())
            worst_slack = min(worst_slack, r.min_slack)
            worst_margin = max(worst_margin, r.margin_max_diff)
    s2, m2, g2 = two_input_system()
    mix = FeedbackTransform(n=2, alpha=[zero, zero],
                            beta=[[one, one], [zero, one]])
    r = invariance_probe(s2, m2, mix, g2)
    assert r.passed
    assert r.kappa_max == 2.0
    assert r.gamma_min == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
    worst_slack = min(worst_slack, r.min_slack)
    worst_margin = max(worst_margin, r.margin_max_diff)
    assert worst_slack >= -1e-8
    assert worst_margin <= 1e-9
    _pass(f"kappa psi / gamma bound holds under identity, doubled and "
          f"shearing input maps (min slack {worst_slack:+.1e}, margins match "
          f"to {worst_margin:.1e})")


def test_derivatives_integrator_and_determinism(tmp_path):
    # symbolic derivatives against central differences
    rng = np.random.default_rng(11)
    variables = ["x1", "x2", "u1", "t"]
    h = 1e-5
    checked = 0
    worst = 0.0
    for _ in range(1600):
        e = random_expression(rng, variables, depth=4)
        var = str(rng.choice(variables))
        sym = differentiate(e, var)
        env = {v: float(rng.uniform(-2, 2)) for v in variables}
        try:
            want = evaluate(sym, env)
            up = dict(env, **{var: env[var] + h})
            dn = dict(env, **{var: env[var] - h})
            fd = (evaluate(e, up) - evaluate(e, dn)) / (2.0 * h)
        except NonFiniteError:
            continue
        err = abs(fd - want) / max(1.0, abs(want))
        worst = max(worst, err)
        assert err <= 1e-6
        checked += 1
    assert checked >= 1000

    # integrator order on dx/dt = -x over one unit of time
    from conftest import system_of
    sys_ = system_of(["-x1"], [["0"]])
    errs = [abs(integrate(sys_, [0.0], np.array([1.0]), horizon=1.0,
                          step=hh).states[-1, 0] - math.exp(-1.0))
            for hh in (0.1, 0.05)]
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0

    # two identical runs, two identical reports
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["verify", "--spec", "double-integrator", "--out", str(d),
                     "--no-timestamp", "--seed", "7"]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    _pass(f"derivatives match differences at {checked} points (worst "
          f"{worst:.1e}), RK4 error factor {factor:.1f}, reports "
          f"byte-identical")
