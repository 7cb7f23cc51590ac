"""A, Mdot, H, Q and the (a, b) scalars.

The load-bearing identity is d(Vdot)/du_i = delta' H_i delta; it is
checked by finite differences of the quadratic form in u.  a is affine
in u and b must equal 4 delta' Q delta.  A, Mdot and V exist only in the
per-point reference (tests/reference.py), which the closed forms here
keep honest; the stacked H, Q and (a, b) are compared with it row by row.
"""

import numpy as np
import pytest

import reference as ref
from ccmkit.differential import compute_H, compute_Q, compute_ab
from ccmkit.model import plant_for
from conftest import curved_system, scalar_counterexample, two_input_system


def _vdot_open(raw, u, delta):
    """delta'(Mdot + A'M + MA) delta, written out independently."""
    A = raw.dfdx + sum(u[i] * raw.dBdx[i] for i in range(len(u)))
    xdot = raw.f + raw.B @ u
    Mdot = raw.dMdt + sum(xdot[k] * raw.dMdx[k] for k in range(len(xdot)))
    return float(delta @ Mdot @ delta + 2.0 * delta @ raw.M @ (A @ delta))


def test_worked_scalar_values():
    sys, met = scalar_counterexample()
    plant = plant_for(sys, met)
    raw = plant.raw(np.array([1.0]), 0.0)
    delta = np.array([1.0])

    assert ref.compute_A(raw, np.array([0.0])) == pytest.approx(np.array([[-1.0]]))
    assert ref.compute_A(raw, np.array([1.0])) == pytest.approx(np.array([[1.0]]))
    assert np.array_equal(ref.compute_Mdot(raw, np.array([1.0])), [[0.0]])
    assert compute_H(raw) == pytest.approx(np.full((1, 1, 1), 4.0))
    assert compute_Q(raw) == pytest.approx(np.array([[1.0]]))
    assert ref.compute_V(raw, delta) == 1.0

    a, b = compute_ab(raw, np.array([1.0]), delta, lam=0.5)
    assert a == pytest.approx(3.0, abs=1e-14)
    assert b == pytest.approx(4.0, abs=1e-14)
    a, b = compute_ab(raw, np.array([0.0]), delta, lam=0.5)
    assert a == pytest.approx(-1.0, abs=1e-14)
    assert b == pytest.approx(4.0, abs=1e-14)

    raw0 = plant.raw(np.array([0.0]), 0.0)
    a, b = compute_ab(raw0, np.array([1.0]), delta, lam=0.5)
    assert a == pytest.approx(-1.0, abs=1e-15)   # a = -2 + 2*lam at the origin
    assert b == 0.0                              # no authority at all


def test_H_is_input_sensitivity_of_vdot():
    rng = np.random.default_rng(23)
    h = 1e-4
    for sys, met in (curved_system()[:2], two_input_system()[:2]):
        plant = plant_for(sys, met)
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, size=sys.n)
            t = float(rng.uniform(0, 1))
            u = rng.uniform(-2, 2, size=sys.m)
            delta = rng.normal(size=sys.n)
            raw = plant.raw(x, t)
            H = compute_H(raw)
            for i in range(sys.m):
                du = np.zeros(sys.m)
                du[i] = h
                fd = (_vdot_open(raw, u + du, delta)
                      - _vdot_open(raw, u - du, delta)) / (2 * h)
                want = float(delta @ H[i] @ delta)
                assert abs(fd - want) <= 1e-8 * max(1.0, abs(want))


def test_a_is_affine_in_u_and_H_is_its_slope():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(29)
    for _ in range(40):
        raw = plant.raw(rng.uniform(-1.5, 1.5, size=2), float(rng.uniform(0, 1)))
        delta = rng.normal(size=2)
        u1 = rng.uniform(-2, 2, size=1)
        u2 = rng.uniform(-2, 2, size=1)
        a1, b1 = compute_ab(raw, u1, delta, 0.3)
        a2, b2 = compute_ab(raw, u2, delta, 0.3)
        am, bm = compute_ab(raw, 0.5 * (u1 + u2), delta, 0.3)
        assert am == pytest.approx(0.5 * (a1 + a2), abs=1e-12 * max(1, abs(am)))
        assert b1 == b2 == bm                    # b never depends on u
        H = compute_H(raw)
        slope = float(delta @ H[0] @ delta)
        assert a2 - a1 == pytest.approx(slope * (u2[0] - u1[0]),
                                        abs=1e-10 * max(1, abs(slope)))


def test_A_and_Mdot_affine_midpoint():
    sys, met, _ = two_input_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(31)
    for _ in range(20):
        raw = plant.raw(rng.uniform(-2, 2, size=2), 0.0)
        u1 = rng.uniform(-3, 3, size=2)
        u2 = rng.uniform(-3, 3, size=2)
        mid = 0.5 * (u1 + u2)
        A_mid = ref.compute_A(raw, mid)
        assert np.allclose(A_mid, 0.5 * (ref.compute_A(raw, u1) + ref.compute_A(raw, u2)),
                           atol=1e-12)
        M_mid = ref.compute_Mdot(raw, mid)
        assert np.allclose(M_mid, 0.5 * (ref.compute_Mdot(raw, u1)
                                         + ref.compute_Mdot(raw, u2)), atol=1e-12)


def test_b_is_four_delta_Q_delta():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(37)
    for _ in range(50):
        raw = plant.raw(rng.uniform(-1.5, 1.5, size=2), float(rng.uniform(0, 1)))
        delta = rng.normal(size=2)
        _, b = compute_ab(raw, rng.uniform(-1, 1, size=1), delta, 0.3)
        want = 4.0 * float(delta @ compute_Q(raw) @ delta)
        assert b == pytest.approx(want, rel=1e-10)


def test_Q_is_psd_and_symmetric():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    rng = np.random.default_rng(41)
    for _ in range(30):
        Q = compute_Q(plant.raw(rng.uniform(-2, 2, size=2), 0.0))
        assert np.array_equal(Q, Q.T)
        assert np.min(np.linalg.eigvalsh(Q)) >= -1e-12


def test_H_Q_and_ab_match_reference_row_by_row():
    sys, met = curved_system()
    plant = plant_for(sys, met)
    H = compute_H(plant.raw(np.array([0.4, -0.9]), 0.2))
    assert H.shape == (1, 2, 2)
    assert np.array_equal(H[0], H[0].T)
    rng = np.random.default_rng(43)
    for sys, met in (curved_system(), two_input_system()[:2]):
        plant = plant_for(sys, met)
        X = rng.uniform(-2, 2, size=(3, 4, sys.n))   # two batch axes
        rb = plant.raw_batch(X, 0.7)
        H, Q = compute_H(rb), compute_Q(rb)
        assert H.shape == (3, 4, sys.m, sys.n, sys.n)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        for i, j in np.ndindex(3, 4):
            raw = plant.raw(X[i, j], 0.7)
            scale = 1.0 + np.max(np.abs(ref.compute_H(raw)))
            np.testing.assert_allclose(H[i, j], ref.compute_H(raw), rtol=0.0,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(Q[i, j], ref.compute_Q(raw), rtol=1e-12,
                                       atol=1e-15)
            u, d = rng.uniform(-2, 2, size=sys.m), rng.normal(size=sys.n)
            a, b = compute_ab(raw, u, d, 0.3)
            a_ref, b_ref = ref.compute_ab(raw, u, d, 0.3)
            assert a == pytest.approx(a_ref, rel=1e-12, abs=1e-12)
            assert b == pytest.approx(b_ref, rel=1e-12, abs=1e-15)
