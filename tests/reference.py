"""Per-point reference implementations, the oracle of the stacked kernels.

ccmkit computes every pointwise quantity once, over stacked points
(differential.compute_H/compute_Q/feedback_terms and the verifier's
kernel, margin and certificate stages).  This module keeps the original
one-point formulas, written independently of those kernels, so that the
tests compare the package against a second implementation rather than
against itself: tests/test_sweep.py point by point over whole grids, the
segment-wise tracking reference, the energy gradient, the steepest
descent that the Newton geodesic must not lose to and the warped spec's
closed-form geodesic in tests/test_controller.py, and the closed-form
tests.

Only data types (RawEval, OrthogonalityResult, PowerLawFit,
PathDiscretization, Infeasible), the tolerance constants and the
single-path energy are taken from the package, with two exceptions:
build_path_separate_scoring and tracking_feedback_scalar keep the
controller's earlier loops, which share its kernels by design, as the
bitwise oracles of the loops that replaced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ccmkit import controller
from ccmkit.controller import Infeasible, PathDiscretization, path_energy
from ccmkit.differential import feedback_terms
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
# paths and geodesics

def energy_gradient(nodes: np.ndarray, met, t: float) -> np.ndarray:
    """Exact gradient of the discrete path energy with respect to every node."""
    segments = nodes.shape[0] - 1
    diffs = nodes[1:] - nodes[:-1]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    Mm, dMm, _ = met.eval_raw(mids, t)
    base = 2.0 * segments * np.einsum("sij,sj->si", Mm, diffs)
    quad = 0.5 * segments * np.einsum("si,saij,sj->sa", diffs, dMm, diffs)
    g = np.zeros_like(nodes)
    g[:-1] += quad - base
    g[1:] += quad + base
    return g


def build_path_sequential(x_star, x, met, cfg, t: float = 0.0) -> PathDiscretization:
    """Steepest descent on the discrete energy with a sequential
    backtracking line search, the geodesic that build_path replaced:
    each of at most 20 rounds halves the step energy / |g|^2 until one
    path's energy does not increase, one path_energy call per trial, for
    at most 30 trials."""
    a = np.asarray(x_star, dtype=float)
    b = np.asarray(x, dtype=float)
    nodes = np.linspace(a, b, cfg.path_segments + 1)
    if np.array_equal(a, b):
        return PathDiscretization(nodes=nodes, energy=0.0)
    energy = path_energy(nodes, met, t)
    if met.constant or cfg.path_segments < 2:
        return PathDiscretization(nodes=nodes, energy=energy)
    for _ in range(20):
        g = energy_gradient(nodes, met, t)
        g[0] = 0.0
        g[-1] = 0.0
        gnorm2 = float(np.sum(g * g))
        if gnorm2 == 0.0:
            break
        step = energy / gnorm2
        improved = False
        for _try in range(30):
            cand = nodes - step * g
            cand[0] = nodes[0]
            cand[-1] = nodes[-1]
            e_cand = path_energy(cand, met, t)
            if e_cand <= energy:
                nodes, energy = cand, e_cand
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return PathDiscretization(nodes=nodes, energy=energy)


def build_path_separate_scoring(x_star, x, met, cfg,
                                t: float = 0.0) -> PathDiscretization:
    """build_path with every Newton iterate scored apart from its system:
    the straight line's path_energy call, then per step one midpoint
    system, one solve and path_energy calls over the halvings 1, 0.5,
    ..., 0.5^29 in turn, the first with 0 < E <= E_current kept."""
    halvings = 0.5 ** np.arange(30)
    a = np.asarray(x_star, dtype=float)
    b = np.asarray(x, dtype=float)
    nodes = np.linspace(a, b, cfg.path_segments + 1)
    if np.array_equal(a, b):
        return PathDiscretization(nodes=nodes, energy=0.0)
    if met.constant:
        e = b - a
        (M,) = met.eval_M(a, t)
        return PathDiscretization(nodes=nodes, energy=float(e @ M @ e))
    energy = path_energy(nodes, met, t)
    if cfg.path_segments < 2:
        return PathDiscretization(nodes=nodes, energy=energy)
    iterations = 0
    while True:
        _, terms = controller._midpoint_eval(nodes, met, t)
        g, H = controller._assemble(*terms)
        step = np.linalg.solve(H, g)
        residual = float(g @ step)
        if 0.0 <= residual <= controller.NEWTON_TOL * energy \
                or iterations == controller.NEWTON_MAX_ITER:
            break
        if residual < 0.0:
            gg = float(g @ g)
            if gg == 0.0:
                break
            step = energy / gg * g
        step = step.reshape(-1, nodes.shape[1])
        for frac in halvings:
            cand = nodes.copy()
            cand[1:-1] -= frac * step
            cand_energy = path_energy(cand, met, t)
            if 0.0 < cand_energy <= energy:
                break
        else:
            break
        nodes, energy = cand, cand_energy
        iterations += 1
    return PathDiscretization(nodes=nodes, energy=energy,
                              iterations=iterations, residual=residual)


def tracking_feedback_scalar(x, x_star, u_star, sys, met, cfg,
                             t: float = 0.0) -> np.ndarray:
    """tracking_feedback with the whole path scanned on Python floats,
    one segment after the other: a = a0 + slope @ u summed over inputs
    in order, u -= rho(a, b) w."""
    u = np.asarray(u_star, dtype=float).copy()
    nodes = controller.build_path(x_star, x, met, cfg, t).nodes
    diffs = nodes[1:] - nodes[:-1]
    if not diffs.any():
        return u
    raws = plant_for(sys, met).raw_batch(nodes[:-1], t)
    a0, slope, w, b = (v.tolist() for v in feedback_terms(raws, diffs, cfg.lam))
    u = u.tolist()
    for j in np.flatnonzero(diffs.any(axis=1)).tolist():
        slope_u = 0.0
        for s_i, u_i in zip(slope[j], u):
            slope_u += s_i * u_i
        try:
            r = controller.rho(a0[j] + slope_u, b[j])
        except Infeasible as err:
            raise Infeasible(err.a, err.b, x=nodes[j], node=j, time=t) from None
        u = [u_i - r * w_i for u_i, w_i in zip(u, w[j])]
    return np.array(u)


def warped_geodesic(x_star, x, segments: int) -> tuple[np.ndarray, float]:
    """Closed-form geodesic of the warped double integrator's metric.

    There M = J'PJ with J = dz/dx for z = phi(x) = (x1 + 0.3 sin x2, x2)
    and the constant Riccati P, so the geodesic from x_star to x is the
    straight line from phi(x_star) to phi(x) pulled back through
    phi^-1(z) = (z1 - 0.3 sin z2, z2).  Returns its nodes at the given
    number of equal parameter steps, shape (segments + 1, 2), and its
    continuous energy (z - z*)' P (z - z*).
    """
    def phi(v):
        v = np.asarray(v, dtype=float)
        return np.array([v[0] + 0.3 * math.sin(v[1]), v[1]])

    P = np.array([[math.sqrt(3.0), 1.0], [1.0, math.sqrt(3.0)]])
    z_star, z = phi(x_star), phi(x)
    zs = np.linspace(z_star, z, segments + 1)
    nodes = np.stack([zs[:, 0] - 0.3 * np.sin(zs[:, 1]), zs[:, 1]], axis=1)
    e = z - z_star
    return nodes, float(e @ P @ e)


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
