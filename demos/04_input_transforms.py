"""
Dual coordinates and input-side transformations
===============================================

Two constructions that make the certificate machinery composable:

* in dual coordinates (W = M^-1, eta = M delta) the certificate
  constraint is affine, so feasible certificates average into feasible
  certificates -- the starting point for synthesizing a metric rather
  than just checking one;
* remapping the input u = alpha + beta v transports a certificate psi
  to psibar = kappa psi / gamma, so verification survives actuator
  scaling and mixing without re-running from scratch.
"""

import numpy as np

from ccmkit import (
    FeedbackTransform,
    bundled_spec_path,
    compute_H,
    convexity_probe,
    dual_point,
    invariance_probe,
    load_spec_file,
    parse,
    plant_for,
)
from ccmkit.transforms import DualPoint

sf = load_spec_file(bundled_spec_path("bounded-gain"))
plant = plant_for(sf.system, sf.metric)
rng = np.random.default_rng(8)

# ---------------------------------------------------------------------
# 1. the primal and dual quadratic forms agree exactly
raw = plant.raw(np.array([0.9]), 0.0)
delta = np.array([1.3])
dp = dual_point(raw, delta)
H = compute_H(raw)
primal = float(delta @ H[0] @ delta)
T = dp.W @ raw.dBdx[0].T + raw.dBdx[0] @ dp.W - np.tensordot(
    raw.B[:, 0], dp.dWdx, axes=(0, 0))
dual = float(dp.eta @ T @ dp.eta)
print(f"primal delta'H delta = {primal:.15f}")
print(f"dual   eta'T eta     = {dual:.15f}")

# 2. feasible certificates average: take the exact dual point and a
#    deliberately different constant-W certificate, then test the
#    segment between them
raws, d1s, d2s = [], [], []
for _ in range(40):
    raw = plant.raw(rng.uniform(-3, 3, size=1), 0.0)
    raws.append(raw)
    d1s.append(dual_point(raw, rng.normal(size=1)))
    d2s.append(DualPoint(W=np.array([[2.0]]), eta=rng.normal(size=1),
                         dWdx=np.zeros((1, 1, 1))))


def needed_psi(duals, others):
    worst = 0.0
    for dp, other, raw in zip(duals, others, raws):
        for eta in (dp.eta, other.eta):
            T = dp.W @ raw.dBdx[0].T + raw.dBdx[0] @ dp.W - np.tensordot(
                raw.B[:, 0], dp.dWdx, axes=(0, 0))
            lhs = abs(float(eta @ T @ eta))
            rhs = float((raw.B.T @ eta) @ (raw.B.T @ eta))
            worst = max(worst, lhs / rhs)
    return worst


psi1 = needed_psi(d1s, d2s) + 1e-9
psi2 = needed_psi(d2s, d1s) + 1e-9
res = convexity_probe(d1s, d2s, raws, psi1, psi2)
print(f"\nconvex combinations at thetas {res.thetas} over {res.samples} "
      f"points: feasible = {res.feasible} "
      f"(worst residual {res.worst_residual:+.2e})")

# 3. doubling the actuator: u = 2v transports the certificate with
#    kappa = 2, gamma = 4, and the kernel margins do not move at all
tf = FeedbackTransform(n=1, alpha=[parse("0")], beta=[[parse("2")]])
r = invariance_probe(sf.system, sf.metric, tf, sf.grid)
print(f"\nu = 2v on the bounded-gain system:")
print(f"  kappa = {r.kappa_max:g}, gamma = {r.gamma_min:g}, "
      f"transported psibar max = {r.psibar_max:.4f}")
print(f"  bound slack >= {r.min_slack:.4f} over {r.checked_points} "
      f"(point, tangent) pairs; margins match to {r.margin_max_diff:g}")
print(f"  cross-checked against the transformed input slope at {r.fd_checked} "
      f"points (max err {r.fd_max_err:.2e}); passed = {r.passed}")

# 4. mixing two actuators through a shear: kappa/gamma pick up the
#    conditioning of beta but the verified inequality survives
from ccmkit import GridSpec, MetricSpec, SystemSpec

two = SystemSpec(n=2, m=2,
                 f=[parse("-x1 + 0.25*x2"), parse("-x2")],
                 B=[[parse("1"), parse("0")], [parse("x1"), parse("1")]])
met2 = MetricSpec(n=2, M=[[parse("1"), parse("0")], [parse("0"), parse("1")]],
                  alpha1=1.0, alpha2=1.0, lam=0.5)
grid2 = GridSpec([(-2.0, 2.0, 11), (-2.0, 2.0, 11)],
                 [[0.0, 0.0], [1.0, -1.0]], (0.0,), 8, 7)
shear = FeedbackTransform(n=2, alpha=[parse("0"), parse("0")],
                          beta=[[parse("1"), parse("1")],
                                [parse("0"), parse("1")]])
r2 = invariance_probe(two, met2, shear, grid2)
print(f"\nu = [[1,1],[0,1]] v on a two-input system: kappa = "
      f"{r2.kappa_max:g}, gamma = {r2.gamma_min:.4f}, slack >= "
      f"{r2.min_slack:.4f}, passed = {r2.passed}")
