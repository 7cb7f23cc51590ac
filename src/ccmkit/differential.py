"""Differential (variational) quantities along the system dynamics.

With dx/dt = f + B u, the tangent dynamics are d(delta)/dt = A delta
+ B delta_u where A(x, u, t) = df/dx + sum_i (db_i/dx) u_i, the sum
running over the m input columns.  On top of A this module builds

    Mdot   = dM/dt + sum_k (dM/dx_k) xdot_k        (metric drift)
    H_i    = d_{b_i} M + (db_i/dx)' M + M (db_i/dx)  (input sensitivity of Vdot)
    Q      = M B B' M                                 (always PSD)
    V      = delta' M delta
    a      = delta' Mdot delta + delta' (A'M + MA) delta + 2 lambda V
    b      = 4 delta' Q delta

a and b are the scalars the feedback formula consumes: a < 0 means the
tangent cost already decays fast enough at this point, and b measures
control authority in the delta direction.  a is affine in u with slope
delta' H_i delta, so feedback_terms returns its value at u = 0 and that
slope.

Every function works on one point or on points stacked over the leading
axes of a RawEval, as Plant.raw_batch produces them.
"""

from __future__ import annotations

import numpy as np

from .model import RawEval


def _T(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def compute_H(raw: RawEval) -> np.ndarray:
    """Stacked H_i, shape (..., m, n, n), symmetrized.

    H_i = sum_k (dM/dx_k) (b_i)_k + (db_i/dx)' M + M (db_i/dx); the
    quadratic form delta' H_i delta is exactly d(Vdot)/du_i.
    """
    *lead, n, m = raw.B.shape
    # contract the state index: dirM[i] = sum_k dMdx[k] * B[k, i]
    dirM = (_T(raw.B) @ raw.dMdx.reshape(*lead, n, n * n)).reshape(*lead, m, n, n)
    M = raw.M[..., None, :, :]
    Hr = dirM + (_T(raw.dBdx) @ M + M @ raw.dBdx)
    return 0.5 * (Hr + _T(Hr))


def compute_Q(raw: RawEval) -> np.ndarray:
    """Q = M B B' M, symmetrized against rounding."""
    MB = raw.M @ raw.B
    Q = MB @ _T(MB)
    return 0.5 * (Q + _T(Q))


def feedback_terms(raw: RawEval, delta: np.ndarray, lam: float):
    """(a0, slope, w, b) for tangents delta stacked like raw: a at input u
    is a0 + slope @ u, slope_i = delta' H_i delta, w = B' M delta and
    b = 4 |w|^2."""
    Md = np.einsum("...ij,...j->...i", raw.M, delta)
    dMd = np.einsum("...kij,...i,...j->...k", raw.dMdx, delta, delta)
    Ad = np.einsum("...ij,...j->...i", raw.dfdx, delta) + lam * delta
    a0 = (np.einsum("...i,...ij,...j->...", delta, raw.dMdt, delta)
          + (raw.f * dMd + 2.0 * Ad * Md).sum(-1))
    slope = (np.einsum("...ki,...k->...i", raw.B, dMd)
             + 2.0 * np.einsum("...ijk,...k,...j->...i", raw.dBdx, delta, Md))
    w = np.einsum("...ki,...k->...i", raw.B, Md)
    return a0, slope, w, 4.0 * (w * w).sum(-1)


def compute_ab(raw: RawEval, u: np.ndarray, delta: np.ndarray,
               lam: float) -> tuple[float, float]:
    """The scalar pair behind the feedback formula at one point (x, u, t, delta)."""
    a0, slope, _, b = feedback_terms(raw, np.asarray(delta, dtype=float), lam)
    return float(a0 + slope @ np.asarray(u, dtype=float)), float(b)
