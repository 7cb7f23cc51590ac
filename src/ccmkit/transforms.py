"""Input-side feedback transformations.

u = alpha(x) + beta(x) v maps the system to ftilde = f + B alpha,
Btilde = B beta (computed symbolically here).
For nonsingular beta the certificate transports with
psibar = kappa psi / gamma, where kappa is the largest l1 row norm of
beta and gamma the smallest eigenvalue of beta beta'; invariance_probe
verifies the transported bound and margin coherence pointwise.  The
transport is checked for constant beta only: a state-dependent beta adds
2 sum_j (delta' M b_j)(d beta_ji/dx . delta) to the transformed slope,
which psibar leaves out, so the probe's slope cross-check fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .differential import compute_H  # noqa: F401
from .model import GridSpec, MetricSpec, Report, SpecFile, SystemSpec
from .verifier import _sweep_chunks, construct_psi  # noqa: F401

# compute_H and construct_psi are not used here; they stay importable from
# this module because perfbench/tracer.py patches them under these names.

BETA_DET_TOL = 1e-12      # |det beta| at or below this counts as singular
SLACK_TOL = 1e-8          # absolute slack on the transported pairing bound
MARGIN_TOL = 1e-9         # kernel margins of both systems agree within this
FD_POINTS = 8             # valid points whose v-gradient is cross-checked
FD_TOL = 1e-6             # slope error, relative as |slope - g| / (1 + |g|)


@dataclass
class FeedbackTransform:
    """u = alpha(x, t) + beta(x, t) v with beta nonsingular pointwise."""

    n: int
    alpha: list                       # m Expressions
    beta: list                        # m x m Expressions

    @property
    def m(self) -> int:
        return len(self.alpha)

    @cached_property
    def _eval_ab(self):
        return expr.compile_matrix([self.alpha, self.beta], self.n)

    def at(self, x: np.ndarray, t=0.0):
        """(alpha, beta, kappa, gamma) at a point, or at each row of a
        stack of points (t broadcast against the rows); raises ValueError
        at the first point where beta is singular (|det| <= BETA_DET_TOL
        or gamma <= 0)."""
        a, b = self._eval_ab(x, t)
        det = np.linalg.det(b)
        kappa = np.max(np.sum(np.abs(b), axis=-1), axis=-1)
        gamma = np.min(np.linalg.eigvalsh(b @ np.swapaxes(b, -1, -2)), axis=-1)
        singular = np.ravel((np.abs(det) <= BETA_DET_TOL) | (gamma <= 0.0))
        if singular.any():
            i = int(np.argmax(singular))
            raise ValueError(
                f"beta is singular at x={np.reshape(x, (-1, self.n))[i].tolist()}, "
                f"t={float(np.broadcast_to(t, det.shape).ravel()[i])}: "
                f"det={np.ravel(det)[i]:.3e}, gamma={np.ravel(gamma)[i]:.3e}"
            )
        return a, b, kappa, gamma

    @staticmethod
    def from_spec(sf: SpecFile) -> "FeedbackTransform":
        if sf.transform is None:
            raise ValueError(f"spec {sf.name!r} carries no transform block")
        return FeedbackTransform(n=sf.system.n, alpha=sf.transform["alpha"],
                                 beta=sf.transform["beta"])


def apply_feedback_transform(sys: SystemSpec, tf: FeedbackTransform) -> SystemSpec:
    """Symbolically build the transformed system (f + B alpha, B beta)."""
    if tf.m != sys.m or tf.n != sys.n:
        raise ValueError(
            f"transform is {tf.n} states / {tf.m} inputs, system is "
            f"{sys.n} / {sys.m}"
        )
    f_new = []
    for k in range(sys.n):
        e = sys.f[k]
        for j in range(sys.m):
            e = expr.add(e, expr.mul(sys.B[k][j], tf.alpha[j]))
        f_new.append(e)
    B_new = []
    for k in range(sys.n):
        row = []
        for i in range(sys.m):
            e = expr.Num(0.0)
            for j in range(sys.m):
                e = expr.add(e, expr.mul(sys.B[k][j], tf.beta[j][i]))
            row.append(e)
        B_new.append(row)
    return SystemSpec(n=sys.n, m=sys.m, f=f_new, B=B_new)


@dataclass
class InvarianceResult(Report):
    passed: bool
    checked_points: int
    skipped_invalid: int
    min_slack: float
    kappa_max: float
    gamma_min: float
    psibar_max: float
    fd_checked: int = 0
    fd_max_err: float = 0.0
    margin_max_diff: float = 0.0
    margins_match: bool = True


def invariance_probe(sys: SystemSpec, met: MetricSpec, tf: FeedbackTransform,
                     grid: GridSpec) -> InvarianceResult:
    """Certify that the transported bound survives u = alpha + beta v.

    At every grid (x, t) with a valid certificate psi and every sampled
    tangent delta, checks

        max_i |dVdot/dv_i| <= psibar * (dV/ddelta) B beta beta' B' (dV/ddelta)'

    up to SLACK_TOL, with psibar = kappa psi / gamma and dVdot/dv =
    (delta'H delta) beta.  At the first FD_POINTS points the transformed
    system's own input slope delta' Htilde_i delta cross-checks that
    v-gradient, to FD_TOL; it agrees for constant beta only, so a
    state-dependent beta fails the probe.  The kernel margins of both
    systems must agree pointwise to MARGIN_TOL (both vacuous counts as a
    match).  Both sweeps walk the grid in step, one chunk at a time, with
    every tangent of a chunk checked at once; a singular beta raises
    ValueError at the first valid point that has one.
    """
    deltas = grid.deltas(sys.n)
    rows, cols = deltas[:, None, None, None, :], deltas[:, None, None, :, None]
    tsys = apply_feedback_transform(sys, tf)
    points = valid = fd_checked = 0
    min_slack, fd_max_err, margin_max_diff = math.inf, 0.0, 0.0
    kappa_max, gamma_min, psibar_max = 0.0, math.inf, 0.0
    margins_ok = True
    # both systems' sweeps walk the same chunks of the grid in step; of
    # the transformed system only the margins and H are read
    for sw, sw_t in zip(_sweep_chunks(sys, met, grid),
                        _sweep_chunks(tsys, met, grid, certificate=False)):
        idx = np.flatnonzero(sw.valid)
        points += sw.valid.size
        valid += idx.size
        if idx.size == 0:
            continue
        _, beta, kappa, gamma = tf.at(sw.x[idx], sw.t[idx])
        psibar = kappa * sw.psi[idx] / gamma

        # kernel margins; an empty kernel counts as -inf on both sides
        m1, m2 = (np.where(np.isnan(s.margin[idx]), -np.inf, s.margin[idx])
                  for s in (sw, sw_t))
        with np.errstate(invalid="ignore"):
            diff = np.where(np.isinf(m1) & np.isinf(m2), 0.0, np.abs(m1 - m2))
        margins_ok = margins_ok and not np.any(diff > MARGIN_TOL)

        # every tangent at every point at once, tangents on the first
        # axis: p_i = delta' H_i delta, grad_v = beta' p and w = beta' B' M
        # delta; at the first FD_POINTS valid points of the grid grad_v must
        # equal the transformed slope delta' Htilde_i delta
        H, M = sw.H[idx], sw.raw.M[idx]
        betaT = np.swapaxes(beta, -1, -2)
        BT = np.swapaxes(sw.raw.B[idx], -1, -2)
        grad_v = (betaT @ ((rows @ H) @ cols)[..., 0])[..., 0]
        w = betaT @ (BT @ (M @ deltas[:, None, :, None]))
        rhs = psibar * 4.0 * (np.swapaxes(w, -1, -2) @ w)[..., 0, 0]
        slack = rhs - np.max(np.abs(grad_v), axis=-1, initial=0.0)
        min_slack = min(min_slack, float(np.min(slack)))
        k = min(FD_POINTS - fd_checked, idx.size)
        if k:
            g = grad_v[:, :k]
            err = np.abs(((rows @ sw_t.H[idx[:k]]) @ cols)[..., 0, 0] - g) / (1.0 + np.abs(g))
            fd_max_err = max(fd_max_err, float(np.max(err)))
        fd_checked += k
        margin_max_diff = float(np.max(diff, initial=margin_max_diff))
        kappa_max = float(np.max(kappa, initial=kappa_max))
        gamma_min = float(np.min(gamma, initial=gamma_min))
        psibar_max = float(np.max(psibar, initial=psibar_max))

    if not math.isfinite(min_slack):
        min_slack = 0.0
    passed = (min_slack >= -SLACK_TOL) and margins_ok and (
        fd_checked == 0 or fd_max_err <= FD_TOL
    )
    return InvarianceResult(
        passed=passed, checked_points=valid * len(deltas),
        skipped_invalid=points - valid, min_slack=min_slack, kappa_max=kappa_max,
        gamma_min=gamma_min if math.isfinite(gamma_min) else 0.0,
        psibar_max=psibar_max, fd_checked=fd_checked, fd_max_err=fd_max_err,
        margin_max_diff=margin_max_diff, margins_match=margins_ok,
    )
