"""Kernel bases, psi certificates and the grid sweeps.

Certificate psi values are cross-checked against brute-force ratio
maximization over tangent samples, and the kernel margins against
hand-derived closed forms, both for the per-point reference of
tests/reference.py and for the stacked sweep at the same point.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from ccmkit.differential import compute_H, compute_Q
from ccmkit.model import bundled_spec_path, load_spec_file, plant_for
from ccmkit.verifier import (
    C2_TOL,
    EPS_MARGIN,
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
from conftest import grid_of, metric_of, scalar_counterexample, system_of


def _at_point(sys, met, x):
    """The stacked sweep at the single point x."""
    return _sweep(plant_for(sys, met), met.lam, np.array([x], dtype=float), np.zeros(1))


def _bundled(name):
    sf = load_spec_file(bundled_spec_path(name))
    return sf.system, sf.metric, sf.grid


def test_kernel_basis_cases():
    N = kernel_basis(np.zeros((2, 1)))
    assert N.shape == (2, 2)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-14)

    N = kernel_basis(np.array([[1.0], [0.0]]))
    assert N.shape == (2, 1)
    assert abs(N[1, 0]) == pytest.approx(1.0, abs=1e-14)
    assert N[0, 0] == pytest.approx(0.0, abs=1e-14)

    assert kernel_basis(np.eye(2)).shape == (2, 0)

    # singular values below tau * sigma_max count as zero
    N = kernel_basis(np.array([[1.0, 0.0], [0.0, 1e-12]]))
    assert N.shape == (2, 1)


def test_orthogonality_check():
    N = np.array([[0.0], [1.0]])
    H_ok = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    res = ref.check_orthogonality(H_ok, N)
    assert res.passed and res.residual <= 1e-15

    H_bad = np.array([[[0.0, 0.0], [0.0, 2.0]]])
    res = ref.check_orthogonality(H_bad, N)
    assert not res.passed
    assert res.residual == pytest.approx(2.0)

    empty = np.zeros((2, 0))
    assert ref.check_orthogonality(H_bad, empty).passed

    # the sweep at B = (1, x2)', x = 0: kernel e2, H_0 = [[0, 1], [1, 2]]
    sys = system_of(["0", "0"], [["1"], ["x2"]])
    sw = _at_point(sys, metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5), [0.0, 0.0])
    assert not sw.orth_ok[0] and sw.orth_residual[0] == pytest.approx(2.0)


def test_psi_certificate_worked_values():
    sys, met = scalar_counterexample()
    plant = plant_for(sys, met)

    def psi_at(x):
        raw = plant.raw(np.array([x]), 0.0)
        return construct_psi(compute_Q(raw), compute_H(raw))

    cert = psi_at(1.0)
    assert cert.psi == pytest.approx(4.0, rel=1e-12)
    assert cert.Dtilde == pytest.approx(np.array([1.0]), rel=1e-12)
    cert = psi_at(0.1)
    assert cert.psi == pytest.approx(4000.0, rel=1e-10)
    # at the origin B = 0 kills H too: the zero certificate is valid
    cert = psi_at(0.0)
    assert cert.psi == 0.0 and cert.Dtilde.size == 0
    # just off the origin Q is numerically zero while H is not
    with pytest.raises(CertificateInvalid) as ei:
        psi_at(0.005)
    assert ei.value.residual == pytest.approx(0.02, rel=1e-9)


def test_psi_certificate_range_leak():
    Q = np.diag([1.0, 0.0])
    H_in = np.array([[[2.0, 0.0], [0.0, 0.0]]])
    cert = construct_psi(Q, H_in)
    assert cert.psi == pytest.approx(2.0)
    H_out = np.array([[[0.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(CertificateInvalid):
        construct_psi(Q, H_out)


def test_psi_eigenvalues_descending():
    Q = np.diag([1.0, 4.0])
    H = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    cert = construct_psi(Q, H)
    assert np.array_equal(cert.Dtilde, [4.0, 1.0])
    assert cert.psi == pytest.approx(1.0)  # sigma_max(H) / smallest kept eig


def test_psi_bounds_all_tangents():
    # the defining inequality |delta'H_i delta| <= psi delta'Q delta,
    # on systems where the certificate exists (B full rank, or scalar)
    from conftest import two_input_system
    rng = np.random.default_rng(53)
    sys2, met2, _ = two_input_system()
    sysb, metb, _ = _bundled("bounded-gain")
    for sys, met in ((sys2, met2), (sysb, metb)):
        plant = plant_for(sys, met)
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, size=sys.n)
            raw = plant.raw(x, float(rng.uniform(0, 1)))
            Q = compute_Q(raw)
            H = compute_H(raw)
            cert = construct_psi(Q, H)
            for _ in range(40):
                d = rng.normal(size=sys.n)
                lhs = max(abs(float(d @ Hi @ d)) for Hi in H)
                rhs = cert.psi * float(d @ Q @ d)
                assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_certificate_generically_absent_with_thin_B():
    # with one input and two states, H almost never stays inside the
    # rank-one range of Q: Condition 1 is a real restriction
    from conftest import curved_system
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(53)
    for _ in range(10):
        raw = plant.raw(rng.uniform(-1.5, 1.5, size=2), 0.0)
        with pytest.raises(CertificateInvalid):
            construct_psi(compute_Q(raw), compute_H(raw))


def test_psi_matches_brute_force_ratio():
    # scalar systems make the certificate exactly the ratio |H|/Q
    sys, met = scalar_counterexample()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(59)
    for _ in range(50):
        x = float(rng.uniform(0.05, 2.0)) * float(rng.choice([-1.0, 1.0]))
        raw = plant.raw(np.array([x]), 0.0)
        cert = construct_psi(compute_Q(raw), compute_H(raw))
        brute = abs(4.0 * x) / x ** 4
        assert cert.psi == pytest.approx(brute, rel=1e-12)


def test_ccm_point_margins():
    sys, met = scalar_counterexample()
    plant = plant_for(sys, met)
    # kernel at the origin is the whole line: margin = 2 lambda - 2
    for lam, want in ((0.5, -1.0), (1.5, 1.0)):
        assert ref.check_ccm_point(plant.raw(np.array([0.0]), 0.0), lam) == \
            pytest.approx(want, abs=1e-14)
        assert _at_point(sys, replace(met, lam=lam), [0.0]).margin[0] == pytest.approx(
            want, abs=1e-14)
    # elsewhere the input spans everything: vacuous
    assert ref.check_ccm_point(plant.raw(np.array([0.7]), 0.0), 0.5) == -math.inf
    assert math.isnan(_at_point(sys, met, [0.7]).margin[0])


def test_ccm_point_double_integrator_closed_form():
    sysd, metd, _grid = _bundled("double-integrator")
    lam = metd.lam
    raw = plant_for(sysd, metd).raw(np.array([0.3, -1.2]), 0.0)
    # N ~ (sqrt(3), -1)/2, N'(A'M + MA)N = -1, N'MN = sqrt(3)/2
    want = lam * math.sqrt(3.0) - 1.0
    assert ref.check_ccm_point(raw, lam) == pytest.approx(want, abs=1e-12)
    assert _at_point(sysd, metd, [0.3, -1.2]).margin[0] == pytest.approx(
        want, abs=1e-12)


def test_eps_margin_scales_with_metric():
    assert ref.eps_margin(np.eye(1)) == pytest.approx(2e-7)
    assert ref.eps_margin(np.diag([1.0, 9.0])) == pytest.approx(1e-6)
    sys = system_of(["0", "0"], [["1"], ["0"]])
    for M, want in (([["1", "0"], ["1"]], 2e-7), ([["1", "0"], ["9"]], 1e-6)):
        sw = _at_point(sys, metric_of(M, 1.0, 9.0, 0.5), [0.0, 0.0])
        assert sw.eps[0] == pytest.approx(want)


def test_margin_threshold_of_indefinite_metric():
    # M = diag(1, -9), B = e2: the kernel is e1 and the margin is
    # 2 (dfdx[0, 0] + lam) = -5 EPS_MARGIN, inside the threshold
    # EPS_MARGIN (1 + 9) set by |lambda_min|, outside EPS_MARGIN (1 + 1)
    sys = system_of([f"-0.5*x1 - {2.5 * EPS_MARGIN!r}*x1", "-x2"], [["0"], ["1"]])
    met = metric_of([["1", "0"], ["-9"]], -9.0, 1.0, 0.5)
    sw = _at_point(sys, met, [0.3, -0.2])
    assert sw.margin[0] == pytest.approx(-5.0 * EPS_MARGIN, rel=1e-6)
    assert sw.eps[0] == pytest.approx(10.0 * EPS_MARGIN, rel=1e-12)
    res = check_contraction(sys, met, grid_of([(-1.0, 1.0, 3)] * 2, [[0.0]]))
    assert not res.passed and len(res.failures) == 9
    assert {f["reason"] for f in res.failures} == {"margin"}


def test_contraction_sweep_counterexample():
    sys, met, grid = _bundled("counterexample")
    res = check_contraction(sys, met, grid)
    assert res.passed
    assert res.checked_points == 801
    assert res.vacuous_points == 800
    assert res.worst_margin == pytest.approx(-1.0, abs=1e-12)
    assert res.worst_at["x"] == [0.0]
    assert res.orthogonality.passed

    res = check_contraction(sys, replace(met, lam=1.5), grid)
    assert not res.passed
    assert res.failures and res.failures[0]["reason"] == "margin"
    assert res.failures[0]["margin"] == pytest.approx(1.0, abs=1e-12)


def test_contraction_flags_nonvanishing_H_on_kernel():
    # B = (1, x2)': at x2 = 0 the kernel is e2 and e2' H e2 = 2 != 0,
    # so the premise of the kernel condition fails there
    sys = system_of(["0", "0"], [["1"], ["x2"]])
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(0.0, 0.0, 1), (0.0, 0.0, 1)], [[0.0]])
    res = check_contraction(sys, met, grid)
    assert not res.passed
    assert any(f["reason"] == "orthogonality" for f in res.failures)
    # the same defect kills the certificate: H leaks outside range(Q)
    raw = plant_for(sys, met).raw(np.zeros(2), 0.0)
    with pytest.raises(CertificateInvalid):
        construct_psi(compute_Q(raw), compute_H(raw))


def test_power_law_fit():
    sys, met = scalar_counterexample()
    fit = fit_psi_power_law(sys, met, np.array([1.0]))
    assert fit.exponent == pytest.approx(-3.0, abs=1e-9)
    assert len(fit.scales) == 10
    assert fit.psi_values[0] == pytest.approx(32.0, rel=1e-12)   # 4 / 0.5^3

    assert fit_psi_power_law(sys, met, np.array([0.0])).exponent is None

    # scales where the certificate is invalid are skipped, not fatal
    fit = fit_psi_power_law(sys, met, np.array([1.0]),
                            scales=np.array([0.5, 0.25, 0.125, 1e-3, 1e-4]))
    assert fit.exponent == pytest.approx(-3.0, abs=1e-9)
    assert len(fit.scales) == 3


def test_condition1_sweeps():
    sys, met, grid = _bundled("counterexample")
    res = check_condition1(sys, met, grid)
    assert not res.passed and res.blow_up
    assert res.invalid_count == 2
    assert res.max_psi > res.psi_cap
    assert res.power_law is not None
    assert res.power_law.exponent == pytest.approx(-3.0, abs=1e-6)

    sysb, metb, gridb = _bundled("bounded-gain")
    res = check_condition1(sysb, metb, gridb)
    assert res.passed and not res.blow_up
    assert res.invalid_count == 0
    # independent arithmetic: psi = |cos x| / (1 + 0.5 sin x)^2 on this grid
    xs = np.linspace(-3, 3, 121)
    want = np.max(np.abs(np.cos(xs)) / (1 + 0.5 * np.sin(xs)) ** 2)
    assert res.max_psi == pytest.approx(want, rel=1e-12)


def test_strong_conditions():
    sysd, metd, gridd = _bundled("double-integrator")
    res = check_strong_conditions(sysd, metd, gridd)
    assert res.strong and res.c1_passed and res.c2_passed
    assert res.max_H_norm == 0.0
    assert res.psi_zero_confirmed is True

    sysb, metb, gridb = _bundled("bounded-gain")
    res = check_strong_conditions(sysb, metb, gridb)
    assert not res.c2_passed and not res.strong
    assert res.psi_zero_confirmed is None
    assert res.max_H_norm == pytest.approx(np.max(np.abs(np.cos(
        np.linspace(-3, 3, 121)))), rel=1e-12)


def test_strong_conditions_c2_tolerance_boundary():
    # B = c x1 with M = 1 gives H = 2c at every point: C2 holds at
    # ||H|| = C2_TOL / 2 and fails at 3 C2_TOL
    met = metric_of([["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(-1.0, 1.0, 5)], [[0.0]])
    for k, passed in ((0.5, True), (3.0, False)):
        sys = system_of(["-x1"], [[f"{0.5 * k * C2_TOL!r}*x1"]])
        res = check_strong_conditions(sys, met, grid)
        assert res.max_H_norm == pytest.approx(k * C2_TOL, rel=1e-12)
        assert res.c2_passed is passed


def test_verify_verdicts_and_report_shape():
    sys, met, grid = _bundled("counterexample")
    rep = verify(sys, met, grid)
    assert not rep.verdict
    d = rep.to_dict()
    json.dumps(d)
    assert set(d) == {"domain", "scope", "lambda", "metric_bounds",
                      "contraction", "condition1", "strong_conditions",
                      "verdict"}
    assert "grid" in d["scope"] or "checked" in d["scope"]
    assert d["domain"]["x"] == [[-2.0, 2.0, 801]]

    for name in ("double-integrator", "bounded-gain"):
        s, m, g = _bundled(name)
        assert verify(s, m, g).verdict


def test_threads_do_not_change_results():
    sys, met, grid = _bundled("counterexample")
    one = verify(sys, met, grid, threads=1).to_dict()
    four = verify(sys, met, grid, threads=4).to_dict()
    assert one == four
