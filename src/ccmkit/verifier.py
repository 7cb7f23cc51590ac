"""Grid verification of a candidate contraction metric.

Three layers, each a bounded-domain surrogate for the corresponding
universally quantified condition (reports always carry the checked
domain; a pass certifies the grid, never the whole state space):

* metric bounds: eigenvalues of M against [alpha1, alpha2];
* kernel contraction:  for tangents delta with delta' M B = 0, require
  delta' (Mdot + A'M + MA + 2 lambda M) delta < 0, evaluated through an
  orthonormal basis N of ker (MB)';
* weak-pairing certificate: a scalar psi(x, t) >= 0 with
  |delta' H_i delta| <= psi * delta' Q delta for every tangent, built
  from the nonzero eigenspace of Q.  The certificate degenerates (psi
  blowing up, or H_i leaking outside range Q) exactly where feedback
  design breaks down, and the verifier reports that as a Condition-1
  failure with a power-law growth diagnostic.

The grid is checked one chunk of points at a time: model.chunk_points
keeps each chunk's stage arrays within model.SWEEP_BYTES, so memory does
not grow with the grid.  Every summary is a streaming reduction over the
chunks in grid order, with the tie rules of a whole-grid pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .differential import compute_H, compute_Q
from .model import (
    Extreme,
    GridSpec,
    MetricBoundsResult,
    MetricSpec,
    Plant,
    RawEval,
    Report,
    SystemSpec,
    _flag_non_finite,
    check_metric_bounds,  # noqa: F401
    chunk_points,
    location,
    metric_bounds,
    plant_for,
)

# check_metric_bounds is not used here; it stays importable from this module
# because perfbench/tracer.py patches it under this name

TAU_RANK = 1e-9      # relative singular-value cutoff for ker (MB)'
TAU_EIG = 1e-8       # relative eigenvalue cutoff for range Q
EPS_ORTH = 1e-8      # orthogonality / certificate residual scale
EPS_MARGIN = 1e-7    # kernel margin strictness, times 1 + ||M||_2
PSI_CAP = 1e6        # psi above this is treated as blow-up
C2_TOL = 1e-8        # H_i considered identically zero below this
MAX_EXAMPLES = 16    # entries kept in failures / invalid_examples, grid order

SCOPE_NOTE = (
    "checked on the bounded grid below; a pass certifies these samples, "
    "not the full state space"
)


class CertificateInvalid(Exception):
    """H_i has components outside range(Q): no finite psi can work here."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass
class OrthogonalityResult(Report):
    passed: bool
    residual: float          # max_i ||N' H_i N||_F
    tol: float


@dataclass
class PsiCertificate:
    """Factorized witness for |delta' H_i delta| <= psi delta' Q delta.

    Vtilde spans range(Q) (n x r, orthonormal), Dtilde holds the r
    positive eigenvalues in descending order, Htilde[i] = Vtilde' H_i
    Vtilde, and psi = max_i sigma_max(Htilde[i]) / Dtilde[-1] (zero when
    r = 0 and every H_i vanishes).  residual is the largest Frobenius
    mass of any H_i outside range(Q).
    """

    Vtilde: np.ndarray
    Dtilde: np.ndarray
    Htilde: np.ndarray
    psi: float
    residual: float


# ---------------------------------------------------------------------------
# pointwise stages on points stacked along the first axis: the grid sweep
# runs them on every grid point, fit_psi_power_law on the points of a ray,
# and kernel_basis and construct_psi on a single point

def _T(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def _norms(A: np.ndarray, axes: int = 1) -> np.ndarray:
    """Euclidean norms over the last `axes` axes, summed as np.linalg.norm does."""
    k = A.ndim - axes
    v = A.reshape(A.shape[:k] + (1, math.prod(A.shape[k:])))
    return np.sqrt(v @ _T(v))[..., 0, 0]


def _kernel(MB: np.ndarray):
    """SVD of (MB)' and its numerical rank: singular values below
    TAU_RANK * sigma_max count as zero, and MB = 0 has rank 0.  Rows
    rank: of vh are an orthonormal basis of ker (MB)'."""
    _, s, vh = np.linalg.svd(_T(MB), full_matrices=True)
    return vh, np.where(s[:, 0] > 0.0, np.sum(s > TAU_RANK * s[:, :1], axis=1), 0)


def kernel_basis(MB: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n x k) of {delta : delta' M B = 0} at one point.

    MB = 0 gives the full space.
    """
    vh, rank = _kernel(np.asarray(MB, dtype=float)[None])
    return vh[0, rank[0]:].T.copy()


def _kernel_checks(MB: np.ndarray, H: np.ndarray, S: np.ndarray,
                   Htol: np.ndarray):
    """Kernel stage, grouped by the rank of (MB)'.  With N a basis of the
    kernel: the margin lambda_max(N' S N) (NaN where the kernel is
    empty), the orthogonality residual max_i ||N' H_i N||_F (0 there) and
    whether every ||N' H_i N||_F is within Htol[i]."""
    P, n, _ = MB.shape
    vh, rank = _kernel(MB)
    margin, orth_residual, orth_ok = np.full(P, np.nan), np.zeros(P), np.ones(P, bool)
    for r in np.unique(rank[rank < n]):
        idx = np.flatnonzero(rank == r)
        N = np.ascontiguousarray(_T(vh[idx, r:, :]))
        NT = _T(N)
        ri = _norms(NT[:, None] @ H[idx] @ N[:, None], 2)
        orth_residual[idx] = np.max(ri, axis=1, initial=0.0)
        orth_ok[idx] = ~np.any(ri > Htol[idx], axis=1)
        SN = NT @ S[idx] @ N
        margin[idx] = np.max(np.linalg.eigvalsh(0.5 * (SN + _T(SN))), axis=1)
    return margin, orth_residual, orth_ok


def _range_q(Q: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of Q, and the rank of its
    range: eigenvalues above TAU_EIG * max(1, lambda_max) count."""
    w, V = np.linalg.eigh(0.5 * (Q + _T(Q)))
    return w, V, np.sum(w > TAU_EIG * np.maximum(1.0, w[:, -1:]), axis=1)


def _range_certificate(w: np.ndarray, V: np.ndarray, r: int, H: np.ndarray,
                       Htol: np.ndarray):
    """Certificate at points whose Q has rank r (w, V from _range_q).

    Returns Vt (range Q, eigenvalues D descending), Ht[i] = Vt' H_i Vt,
    res[i] = ||H_i - Vt Ht[i] Vt'||_F and psi = max_i sigma_max(Ht[i]) /
    D[-1] (0 when r = 0), NaN where some res[i] exceeds Htol[i].
    """
    n = w.shape[1]
    Vt = np.ascontiguousarray(V[:, :, n - r:][..., ::-1])
    D = w[:, n - r:][:, ::-1]
    Ht = _T(Vt)[:, None] @ H @ Vt[:, None]
    res = _norms(H - Vt[:, None] @ Ht @ _T(Vt)[:, None], 2)
    ok = ~np.any(res > Htol, axis=1)
    sig = np.max(np.abs(np.linalg.eigvalsh(Ht[ok])), axis=(1, 2), initial=0.0)
    psi = np.full(w.shape[0], np.nan)
    psi[ok] = sig / D[ok, -1] if r else sig
    return Vt, D, Ht, res, psi


def _certificate(H: np.ndarray, Q: np.ndarray, Htol: np.ndarray):
    """Certificate stage, grouped by the rank of Q: psi (NaN where
    invalid), validity, and the residual of the first failing H_i, else
    the largest."""
    P = H.shape[0]
    w, V, qrank = _range_q(Q)
    res, psi = np.empty(Htol.shape), np.empty(P)
    for r in np.unique(qrank):
        idx = np.flatnonzero(qrank == r)
        _, _, _, res[idx], psi[idx] = _range_certificate(w[idx], V[idx], r,
                                                         H[idx], Htol[idx])
    fail = res > Htol
    valid = ~np.any(fail, axis=1)
    cert_residual = np.where(valid, np.max(res, axis=1, initial=0.0),
                             res[np.arange(P), np.argmax(fail, axis=1)])
    return psi, valid, cert_residual


def _h_tol(H: np.ndarray):
    """||H_i||_F and the orthogonality / certificate tolerance
    EPS_ORTH * (1 + ||H_i||_F) per input."""
    Hn = _norms(H, 2)
    return Hn, EPS_ORTH * (1.0 + Hn)


def construct_psi(Q: np.ndarray, H: np.ndarray) -> PsiCertificate:
    """Build the eigenspace certificate at one point.

    Raises CertificateInvalid when some H_i does not vanish on the
    kernel of Q (residual above EPS_ORTH * (1 + ||H_i||_F)): then no
    finite psi satisfies the pairing bound at this point.
    """
    H = np.asarray(H, dtype=float)[None]
    _, tol = _h_tol(H)
    w, V, rank = _range_q(np.asarray(Q, dtype=float)[None])
    Vt, D, Ht, res, psi = _range_certificate(w, V, int(rank[0]), H, tol)
    bad = np.flatnonzero(res[0] > tol[0])
    if bad.size:
        i = bad[0]
        raise CertificateInvalid(
            f"H[{i}] leaks outside range(Q): residual {res[0, i]:.3e} "
            f"exceeds {tol[0, i]:.3e}",
            residual=float(res[0, i]),
        )
    return PsiCertificate(Vtilde=Vt[0], Dtilde=D[0], Htilde=Ht[0],
                          psi=float(psi[0]), residual=float(np.max(res[0])))


# ---------------------------------------------------------------------------
# grid sweep: every stage at every point of one chunk of the grid, and the
# streaming reductions that fold the chunks into the summaries

@dataclass
class _Sweep:
    """Per-point results of one chunk of points, in grid order."""

    x: np.ndarray              # (P, n) points
    t: np.ndarray              # (P,) time samples
    raw: RawEval               # the stacked raw batch
    H: np.ndarray              # (P, m, n, n) compute_H at every point
    margin: np.ndarray         # kernel margin, NaN where the kernel is empty
    eig_lo: np.ndarray         # lowest eigenvalue of M
    eig_hi: np.ndarray         # highest eigenvalue of M
    eps: np.ndarray            # margin strictness EPS_MARGIN (1 + ||M||_2)
    orth_residual: np.ndarray  # max_i ||N' H_i N||_F, 0 where the kernel is empty
    orth_ok: np.ndarray
    psi: np.ndarray            # certificate psi, NaN where it is invalid
    cert_residual: np.ndarray  # residual of the first failing H_i, else the worst
    valid: np.ndarray
    h_norm: np.ndarray         # max_i ||H_i||_F


def _sweep(plant: Plant, lam: float, x: np.ndarray, t: np.ndarray,
           certificate: bool = True) -> _Sweep:
    """Every pointwise check at the stacked points (x, t), at the rate
    lam: one raw batch, flagged for non-finite entries, then checked in
    one pass.  Without certificate, the certificate stage is skipped and
    psi, valid and cert_residual are None."""
    rb = plant.raw_batch(x, t)
    _flag_non_finite(vars(rb), x, t)
    P, n = rb.f.shape
    M = rb.M
    H = compute_H(rb)
    Hn, Htol = _h_tol(H)
    Mdot0 = rb.dMdt + (rb.f[:, None, :] @ rb.dMdx.reshape(P, n, n * n)).reshape(P, n, n)
    MA = M @ rb.dfdx
    S = Mdot0 + MA + _T(MA) + 2.0 * lam * M
    margin, orth_residual, orth_ok = _kernel_checks(M @ rb.B, H, S, Htol)
    psi = valid = cert_residual = None
    if certificate:
        psi, valid, cert_residual = _certificate(H, compute_Q(rb), Htol)
    eigs = np.linalg.eigvalsh(M)
    lo, hi = eigs[:, 0], eigs[:, -1]
    return _Sweep(x=x, t=t, raw=rb, H=H, margin=margin, eig_lo=lo, eig_hi=hi,
                  eps=EPS_MARGIN * (1.0 + np.maximum(np.abs(lo), np.abs(hi))),
                  orth_residual=orth_residual, orth_ok=orth_ok, psi=psi,
                  cert_residual=cert_residual, valid=valid, h_norm=np.max(Hn, axis=1))


def _sweep_chunks(sys: SystemSpec, met: MetricSpec, grid: GridSpec,
                  certificate: bool = True):
    """_sweep on each chunk of the grid in turn, grid order (t samples
    outermost); chunk_points(n, m) points per chunk keep the stage arrays
    within SWEEP_BYTES.  A non-finite raw value raises NonFiniteEvalError
    in the chunk that holds it, naming the first such point."""
    plant = plant_for(sys, met)
    for x, t in grid.chunks(chunk_points(sys.n, sys.m)):
        yield _sweep(plant, met.lam, x, t, certificate)


class _Scan:
    """Every summary of the grid, folded chunk by chunk in grid order:
    counts, the first MAX_EXAMPLES failures and invalid points, and the
    running extremes (the first sample on ties)."""

    def __init__(self, sys: SystemSpec, met: MetricSpec, grid: GridSpec):
        self.points = self.vacuous = self.invalid = 0
        self.failures, self.invalid_examples = [], []
        self.orth_bad = self.margin_bad = self.psi_positive = False
        self.orth_residual = self.h_norm = 0.0
        self.worst = Extreme(np.argmax)             # margin, non-vacuous points
        self.max_psi = Extreme(np.argmax)           # psi, 0 where invalid
        self.nearest_invalid = Extreme(np.argmin)   # |x|, invalid points off 0
        self.eig_lo, self.eig_hi = Extreme(np.argmin), Extreme(np.argmax)
        for sw in _sweep_chunks(sys, met, grid):
            self._add(sw)

    def _add(self, sw: _Sweep) -> None:
        x, t = sw.x, sw.t
        self.points += x.shape[0]
        vacuous = np.isnan(sw.margin)
        self.vacuous += int(vacuous.sum())
        orth_bad = ~sw.orth_ok
        margin_bad = sw.margin >= -sw.eps
        self.orth_bad |= bool(orth_bad.any())
        self.margin_bad |= bool(margin_bad.any())
        for i in np.flatnonzero(orth_bad | margin_bad)[:MAX_EXAMPLES - len(self.failures)]:
            at = location(x, t, i)
            if orth_bad[i]:
                self.failures.append({**at, "reason": "orthogonality",
                                      "residual": float(sw.orth_residual[i])})
            if margin_bad[i]:
                self.failures.append({**at, "reason": "margin",
                                      "margin": float(sw.margin[i]), "eps": float(sw.eps[i])})
        del self.failures[MAX_EXAMPLES:]
        self.worst.add(sw.margin, x, t, where=~vacuous)
        self.orth_residual = float(np.max(sw.orth_residual, initial=self.orth_residual))

        bad = np.flatnonzero(~sw.valid)
        self.invalid += bad.size
        self.invalid_examples += [{**location(x, t, i), "residual": float(sw.cert_residual[i])}
                                  for i in bad[:MAX_EXAMPLES - len(self.invalid_examples)]]
        self.max_psi.add(np.where(sw.valid, sw.psi, 0.0), x, t)
        nx = _norms(x[bad])
        self.nearest_invalid.add(nx, x[bad], t[bad], where=nx > 0.0)
        self.psi_positive |= bool(np.any(sw.valid & (sw.psi > 0.0)))
        self.h_norm = float(np.max(sw.h_norm, initial=self.h_norm))
        self.eig_lo.add(sw.eig_lo, x, t)
        self.eig_hi.add(sw.eig_hi, x, t)


@dataclass
class ContractionResult(Report):
    passed: bool
    checked_points: int
    vacuous_points: int
    worst_margin: float | None   # largest margin among non-vacuous points
    worst_at: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    orthogonality: OrthogonalityResult | None = None


def _contraction(scan: _Scan) -> ContractionResult:
    worst = scan.worst.value
    orth = OrthogonalityResult(not scan.orth_bad, scan.orth_residual, EPS_ORTH)
    return ContractionResult(
        passed=not (scan.orth_bad or scan.margin_bad),
        checked_points=scan.points, vacuous_points=scan.vacuous,
        worst_margin=None if worst is None else float(worst),
        worst_at=scan.worst.at(), failures=scan.failures, orthogonality=orth,
    )


def check_contraction(sys: SystemSpec, met: MetricSpec, grid: GridSpec) -> ContractionResult:
    """Kernel contraction condition over the grid at u = 0, rate met.lam.

    Orthogonality of every H_i on the kernel is a precondition at each
    point; where it fails, the point is recorded as a failure rather
    than raising.  Points with an empty kernel pass vacuously.
    """
    return _contraction(_Scan(sys, met, grid))


@dataclass
class PowerLawFit(Report):
    """Least-squares slope of log psi against log scale along a ray."""

    exponent: float | None
    direction: list
    t: float
    scales: list = field(default_factory=list)
    psi_values: list = field(default_factory=list)


def fit_psi_power_law(sys: SystemSpec, met: MetricSpec, direction: np.ndarray,
                      t: float = 0.0,
                      scales: np.ndarray | None = None) -> PowerLawFit:
    """Probe certificate psi at x = s * direction for shrinking s and fit
    log psi ~ exponent * log s.  Scales where the certificate is invalid
    or psi = 0 are skipped; fewer than 3 usable scales yields no fit."""
    d = np.asarray(direction, dtype=float)
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        return PowerLawFit(None, d.tolist(), t)
    d = d / nd
    if scales is None:
        scales = np.geomspace(0.5, 0.04, 10)
    s = np.asarray(scales, dtype=float)
    X = s[:, None] * d
    raw = plant_for(sys, met).raw_batch(X, t)
    _flag_non_finite(vars(raw), X, t)
    H = compute_H(raw)
    psi, _, _ = _certificate(H, compute_Q(raw), _h_tol(H)[1])
    use = np.isfinite(psi) & (psi > 0.0)
    used_s, used_psi = s[use].tolist(), psi[use].tolist()
    if len(used_s) < 3:
        return PowerLawFit(None, d.tolist(), t, used_s, used_psi)
    slope = float(np.polyfit(np.log(used_s), np.log(used_psi), 1)[0])
    return PowerLawFit(slope, d.tolist(), t, used_s, used_psi)


@dataclass
class Condition1Result(Report):
    passed: bool
    checked_points: int
    max_psi: float
    max_psi_at: dict = field(default_factory=dict)
    psi_cap: float = PSI_CAP
    invalid_count: int = 0
    invalid_examples: list = field(default_factory=list)
    blow_up: bool = False
    power_law: PowerLawFit | None = None


def _condition1(sys: SystemSpec, met: MetricSpec, scan: _Scan) -> Condition1Result:
    top = scan.max_psi
    max_psi, max_at = (float(top.value), top.at()) if top.value > 0.0 else (0.0, {})
    blow_up = scan.invalid > 0 or max_psi > PSI_CAP
    power_law = None
    if blow_up:
        # fit along the ray through the invalid point nearest the origin
        # (the first one on ties), else through the largest psi
        ray = scan.nearest_invalid
        if ray.value is None and max_at and _norms(top.x[None])[0] > 0.0:
            ray = top
        if ray.value is not None:
            power_law = fit_psi_power_law(sys, met, ray.x, float(ray.t))
    return Condition1Result(
        passed=not blow_up, checked_points=scan.points, max_psi=max_psi,
        max_psi_at=max_at, invalid_count=scan.invalid,
        invalid_examples=scan.invalid_examples, blow_up=blow_up, power_law=power_law,
    )


def check_condition1(sys: SystemSpec, met: MetricSpec, grid: GridSpec) -> Condition1Result:
    """Certificate psi at every grid (x, t); fails on blow-up.

    Blow-up means max psi exceeding PSI_CAP or CertificateInvalid
    anywhere.  On blow-up a power-law probe along the ray through the
    most suspicious point distinguishes genuine growth (for the cubic
    blow-up of the scalar counterexample the fitted exponent is -3)
    from merely large finite values.
    """
    return _condition1(sys, met, _Scan(sys, met, grid))


@dataclass
class StrongConditionsResult(Report):
    c1_passed: bool
    c2_passed: bool
    strong: bool
    max_H_norm: float
    c2_tol: float = C2_TOL
    psi_zero_confirmed: bool | None = None  # set when strong holds


def _strong(scan: _Scan, contraction: ContractionResult) -> StrongConditionsResult:
    c2 = scan.h_norm <= C2_TOL
    strong = contraction.passed and c2
    psi_zero = not scan.psi_positive if strong else None
    return StrongConditionsResult(contraction.passed, c2, strong, scan.h_norm,
                                  C2_TOL, psi_zero)


def check_strong_conditions(sys: SystemSpec, met: MetricSpec,
                            grid: GridSpec) -> StrongConditionsResult:
    """Strong version of the conditions: C1 is the kernel contraction
    check (the kernel already is the orthogonal complement of the MB
    columns), C2 asks every H_i to vanish identically on the grid.
    When both hold, the psi = 0 certificate is confirmed against the
    Condition-1 sweep."""
    scan = _Scan(sys, met, grid)
    return _strong(scan, _contraction(scan))


# ---------------------------------------------------------------------------
# top-level report

@dataclass
class VerificationReport(Report):
    domain: dict
    scope: str
    metric_bounds: MetricBoundsResult
    contraction: ContractionResult
    condition1: Condition1Result
    strong: StrongConditionsResult = field(metadata={"key": "strong_conditions"})
    lam: float = field(metadata={"key": "lambda"})
    verdict: bool


def verify(sys: SystemSpec, met: MetricSpec, grid: GridSpec,
           threads: int | None = None) -> VerificationReport:
    """Run all checks over the grid and fold them into one report.

    The verdict is positive iff metric bounds, kernel contraction and
    the Condition-1 certificate sweep all pass on the checked domain.
    threads is accepted for compatibility and ignored: the grid is
    checked in one pass, one vectorized chunk at a time, and only one
    chunk's stage arrays are held.  A non-finite raw value anywhere on
    the grid raises NonFiniteEvalError, naming the first such point.
    """
    scan = _Scan(sys, met, grid)
    bounds = metric_bounds(met, scan.eig_lo, scan.eig_hi)
    contraction = _contraction(scan)
    condition1 = _condition1(sys, met, scan)
    strong = _strong(scan, contraction)
    verdict = bounds.passed and contraction.passed and condition1.passed
    return VerificationReport(
        domain=grid.describe(), scope=SCOPE_NOTE, metric_bounds=bounds,
        contraction=contraction, condition1=condition1, strong=strong,
        lam=met.lam, verdict=verdict,
    )
