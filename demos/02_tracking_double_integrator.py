"""
Tracking a double integrator at a certified exponential rate
============================================================

The bundled double-integrator spec carries a constant metric solving a
small Riccati equation, so the strong conditions hold, the pairing
certificate is identically zero, and the path-integrated feedback
inherits the full contraction rate.  This script runs the closed loop
and compares the measured decay against the claim.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from ccmkit import (
    ControllerConfig,
    bundled_spec_path,
    load_spec_file,
    simulate_closed_loop,
    verify,
    write_csv,
)

from ccmkit.model import plant_for

sf = load_spec_file(bundled_spec_path("double-integrator"))
met = sf.metric
M0 = plant_for(sf.system, met).raw(np.zeros(2), 0.0).M
print(f"metric M = {np.round(M0, 4).tolist()} "
      f"(claimed bounds [{met.alpha1}, {met.alpha2}], lambda = {met.lam})")

# ---------------------------------------------------------------------
# 1. verify first: bounds, kernel contraction, and the strong case
report = verify(sf.system, sf.metric, sf.grid)
print(f"\nverifier: bounds [{report.metric_bounds.min_eig:.6f}, "
      f"{report.metric_bounds.max_eig:.6f}], worst kernel margin "
      f"{report.contraction.worst_margin:+.6f}")
print(f"strong conditions hold: {report.strong.strong} "
      f"(max |H| = {report.strong.max_H_norm}, psi = "
      f"{report.condition1.max_psi} everywhere)")

# 2. close the loop from (1, 0) onto the origin
cfg = ControllerConfig(lam=met.lam, path_segments=32)
traj, rep = simulate_closed_loop(sf.system, met, cfg,
                                 x_star=np.zeros(2), u_star=np.zeros(1),
                                 x0=np.array([1.0, 0.0]),
                                 horizon=10.0, step=1e-3)
R = math.sqrt(met.alpha2 / met.alpha1)
print(f"\nclosed loop over 10 s:")
print(f"  V(0) = {rep.V[0]:.6f} -> V(10) = {rep.V[-1]:.3e}")
print(f"  fitted rate  {rep.fitted_rate:.3f}  (claimed {met.lam}, "
      f"pass: {rep.rate_pass})")
print(f"  overshoot    {rep.overshoot:.3f}  (claimed {R:.3f}, "
      f"pass: {rep.overshoot_pass})")

# 3. the decay envelope: V never leaves 1.05 V(0) exp(-2 lambda t)
#    once the first transient settles
env = 1.05 * rep.V[0] * np.exp(-2.0 * met.lam * traj.times)
late = traj.times >= 0.5
print(f"  V under the exponential envelope on [0.5, 10]: "
      f"{bool(np.all(rep.V[late] <= env[late]))} "
      f"(peak use {100 * float(np.max(rep.V[late] / env[late])):.1f}%)")

# 4. hand the run to your plotter of choice
csv_path = Path(tempfile.mkdtemp()) / "double_integrator_tracking.csv"
write_csv(csv_path, traj, rep.V)
print(f"\nwrote {csv_path} (t, x1, x2, u1, V)")
