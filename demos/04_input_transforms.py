"""
Input-side transformations
==========================

Remapping the input u = alpha + beta v transports a certificate psi to
psibar = kappa psi / gamma, so verification survives actuator scaling
and mixing without re-running from scratch.
"""

from ccmkit import (
    FeedbackTransform,
    GridSpec,
    MetricSpec,
    SystemSpec,
    bundled_spec_path,
    invariance_probe,
    load_spec_file,
    parse,
)

sf = load_spec_file(bundled_spec_path("bounded-gain"))

# ---------------------------------------------------------------------
# 1. doubling the actuator: u = 2v transports the certificate with
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

# 2. mixing two actuators through a shear: kappa/gamma pick up the
#    conditioning of beta but the verified inequality survives
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
