"""Per-point reference implementations, the oracle of the stacked kernels.

ccmkit computes every pointwise quantity once, over stacked points
(differential.compute_H/compute_Q/feedback_terms and the verifier's
kernel, margin and certificate stages).  This module keeps the original
one-point formulas, written independently of those kernels, so that the
tests compare the package against a second implementation rather than
against itself: tests/test_sweep.py point by point over whole grids, the
segment-wise tracking reference in tests/test_controller.py, and the
closed-form tests.

Only data types (RawEval, OrthogonalityResult, PowerLawFit) and the
tolerance constants are taken from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ccmkit.model import RawEval, plant_for
from ccmkit.verifier import (
    EPS_ORTH,
    TAU_EIG,
    TAU_RANK,
    OrthogonalityResult,
    PowerLawFit,
)


def raw_slice(r: RawEval, i: int) -> RawEval:
    """View row i of a batched RawEval as a single-point RawEval."""
    return RawEval(f=r.f[i], B=r.B[i], M=r.M[i], dfdx=r.dfdx[i],
                   dBdx=r.dBdx[i], dMdx=r.dMdx[i], dMdt=r.dMdt[i])


# ---------------------------------------------------------------------------
# differential quantities

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


# ---------------------------------------------------------------------------
# kernel contraction

def kernel_basis(MB: np.ndarray, tau_rank: float = TAU_RANK) -> np.ndarray:
    """Orthonormal basis (n x k) of {delta : delta' M B = 0}.

    Computed from the SVD of (MB)'; singular values below
    tau_rank * sigma_max count as zero.  MB = 0 gives the full space.
    """
    A = np.asarray(MB, dtype=float).T
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tau_rank * s[0]))
    return vh[rank:].T.copy()


def check_orthogonality(H: np.ndarray, N: np.ndarray,
                        eps: float = EPS_ORTH) -> OrthogonalityResult:
    """Does every H_i vanish on the kernel spanned by N?

    Per input i the tolerance is eps * (1 + ||H_i||_F); the reported
    residual is the largest ||N' H_i N||_F.
    """
    if N.shape[1] == 0:
        return OrthogonalityResult(True, 0.0, eps)
    worst = 0.0
    worst_tol = eps
    ok = True
    for Hi in H:
        ri = float(np.linalg.norm(N.T @ Hi @ N))
        tol_i = eps * (1.0 + float(np.linalg.norm(Hi)))
        if ri > worst:
            worst, worst_tol = ri, tol_i
        if ri > tol_i:
            ok = False
    return OrthogonalityResult(ok, worst, worst_tol)


def eps_margin(M: np.ndarray) -> float:
    """Strictness threshold for the kernel contraction margin."""
    norm2 = float(np.max(np.abs(np.linalg.eigvalsh(M))))
    return 1e-7 * (1.0 + norm2)


def check_ccm_point(raw: RawEval, lam: float) -> float:
    """Largest eigenvalue of N'(Mdot + A'M + MA + 2 lambda M)N at u = 0.

    Returns -inf when the kernel is empty (nothing to check: every
    tangent is controlled).  Negative margin means contraction on the
    kernel at this point.
    """
    N = kernel_basis(raw.M @ raw.B)
    if N.shape[1] == 0:
        return -math.inf
    A0 = raw.dfdx
    Mdot0 = raw.dMdt + np.tensordot(raw.f, raw.dMdx, axes=(0, 0))
    MA = raw.M @ A0
    S = Mdot0 + MA + MA.T + 2.0 * lam * raw.M
    SN = N.T @ S @ N
    return float(np.max(np.linalg.eigvalsh(0.5 * (SN + SN.T))))


# ---------------------------------------------------------------------------
# psi certificate

class CertificateInvalid(Exception):
    """H_i has components outside range(Q): no finite psi can work here."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass
class PsiCertificate:
    """Factorized witness for |delta' H_i delta| <= psi delta' Q delta."""

    Vtilde: np.ndarray
    Dtilde: np.ndarray
    Htilde: np.ndarray
    psi: float
    residual: float


def construct_psi(Q: np.ndarray, H: np.ndarray, tau_eig: float = TAU_EIG,
                  eps_orth: float = EPS_ORTH) -> PsiCertificate:
    """Build the eigenspace certificate at one point.

    Raises CertificateInvalid when some H_i does not vanish on the
    kernel of Q (residual above eps_orth * (1 + ||H_i||_F)): then no
    finite psi satisfies the pairing bound at this point.
    """
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    cutoff = tau_eig * max(1.0, float(w[-1]) if w.size else 1.0)
    nz = w > cutoff
    order = np.argsort(w[nz])[::-1]
    D = w[nz][order]
    Vt = V[:, nz][:, order]
    r = int(D.size)

    m = H.shape[0]
    Ht = np.zeros((m, r, r))
    worst_res = 0.0
    for i in range(m):
        Hi = H[i]
        norm_i = float(np.linalg.norm(Hi))
        if r:
            Ht[i] = Vt.T @ Hi @ Vt
            res = float(np.linalg.norm(Hi - Vt @ Ht[i] @ Vt.T))
        else:
            res = norm_i
        worst_res = max(worst_res, res)
        if res > eps_orth * (1.0 + norm_i):
            raise CertificateInvalid(
                f"H[{i}] leaks outside range(Q): residual {res:.3e} "
                f"exceeds {eps_orth * (1.0 + norm_i):.3e}",
                residual=res,
            )
    if r == 0:
        psi = 0.0
    else:
        sig = max(float(np.max(np.abs(np.linalg.eigvalsh(Ht[i])))) for i in range(m))
        psi = sig / float(D[-1])
    return PsiCertificate(Vtilde=Vt, Dtilde=D, Htilde=Ht, psi=psi,
                          residual=worst_res)


def fit_psi_power_law(sys, met, direction: np.ndarray, t: float = 0.0,
                      scales: np.ndarray | None = None) -> PowerLawFit:
    """Probe psi at x = s * direction one scale at a time and fit
    log psi ~ exponent * log s (the per-point loop)."""
    d = np.asarray(direction, dtype=float)
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        return PowerLawFit(None, d.tolist(), t)
    d = d / nd
    if scales is None:
        scales = np.geomspace(0.5, 0.04, 10)
    plant = plant_for(sys, met)
    used_s: list[float] = []
    used_psi: list[float] = []
    for s in scales:
        raw = plant.raw_batch(s * d, t)
        try:
            cert = construct_psi(compute_Q(raw), compute_H(raw))
        except CertificateInvalid:
            continue
        if cert.psi > 0.0 and math.isfinite(cert.psi):
            used_s.append(float(s))
            used_psi.append(cert.psi)
    if len(used_s) < 3:
        return PowerLawFit(None, d.tolist(), t, used_s, used_psi)
    slope = float(np.polyfit(np.log(used_s), np.log(used_psi), 1)[0])
    return PowerLawFit(slope, d.tolist(), t, used_s, used_psi)
