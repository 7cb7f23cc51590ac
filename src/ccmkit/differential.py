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
control authority in the delta direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RawEval


def _weighted_sum(v: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_k v[k] T[k], by the np.dot call inside np.tensordot(v, T, axes=(0, 0))."""
    return np.dot(v.reshape(1, -1), T.reshape(v.shape[0], -1)).reshape(T.shape[1:])


def compute_A(raw: RawEval, u: np.ndarray) -> np.ndarray:
    """A = df/dx + sum over input columns of (db_i/dx) u_i."""
    return raw.dfdx + _weighted_sum(np.asarray(u, dtype=float), raw.dBdx)


def compute_Mdot(raw: RawEval, u: np.ndarray) -> np.ndarray:
    """Total time derivative of M along xdot = f + B u."""
    xdot = raw.f + raw.B @ np.asarray(u, dtype=float)
    return raw.dMdt + _weighted_sum(xdot, raw.dMdx)


def compute_H(raw: RawEval) -> np.ndarray:
    """Stacked H_i, shape (m, n, n), symmetrized.

    H_i = sum_k (dM/dx_k) (b_i)_k + (db_i/dx)' M + M (db_i/dx); the
    quadratic form delta' H_i delta is exactly d(Vdot)/du_i.
    """
    if raw.B.ndim != 2:
        raise ValueError("compute_H expects a single-point RawEval")
    m = raw.B.shape[-1]
    # contract the state index: dirM[i] = sum_k dMdx[k] * B[k, i]
    dirM = np.tensordot(raw.B, raw.dMdx, axes=(0, 0))
    out = np.empty((m,) + raw.M.shape)
    for i in range(m):
        JB = raw.dBdx[i]
        sym = JB.T @ raw.M + raw.M @ JB
        Hi = dirM[i] + sym
        out[i] = 0.5 * (Hi + Hi.T)
    return out


def compute_Q(raw: RawEval) -> np.ndarray:
    """Q = M B B' M, symmetrized against rounding."""
    MB = raw.M @ raw.B
    Q = MB @ MB.T
    return 0.5 * (Q + Q.T)


def compute_V(raw: RawEval, delta: np.ndarray) -> float:
    d = np.asarray(delta, dtype=float)
    return float(d @ raw.M @ d)


def compute_ab(raw: RawEval, u: np.ndarray, delta: np.ndarray,
               lam: float) -> tuple[float, float]:
    """The scalar pair behind the feedback formula at (x, u, t, delta)."""
    d = np.asarray(delta, dtype=float)
    A = compute_A(raw, u)
    Mdot = compute_Mdot(raw, u)
    Md = raw.M @ d
    a = float(d @ Mdot @ d + 2.0 * (A @ d) @ Md + 2.0 * lam * (d @ Md))
    BtMd = raw.B.T @ Md
    b = 4.0 * float(BtMd @ BtMd)
    return a, b


@dataclass
class DifferentialData:
    A: np.ndarray
    Mdot: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    V: float
    a: float
    b: float


def differential_data(raw: RawEval, u: np.ndarray, delta: np.ndarray,
                      lam: float) -> DifferentialData:
    a, b = compute_ab(raw, u, delta, lam)
    return DifferentialData(
        A=compute_A(raw, u),
        Mdot=compute_Mdot(raw, u),
        H=compute_H(raw),
        Q=compute_Q(raw),
        V=compute_V(raw, delta),
        a=a,
        b=b,
    )
