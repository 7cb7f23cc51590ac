"""Tracking feedback built from a verified metric.

The gain is the min-norm-style scalar

    rho(a, b) = 0                            if a < 0
              = (a + sqrt(a^2 + b^2)) / b    otherwise,

applied to the tangent loop as delta_u = -rho B' M delta, which closes
the differential dynamics with Vdot <= -2 lambda V at every point where
b stays above B_FLOOR.  rho is deliberately discontinuous across a = 0
(it jumps from 0 to 1); the decrease bound holds on both branches.

The state-level control integrates delta_u along a discretized path
from the target (x*, u*) to the current state, a minimizing geodesic
of M in the limit.  The path minimizes the discrete energy
E = S sum_s d_s' M(m_s) d_s over its interior nodes (d_s the segment
differences, m_s the midpoints) by Newton's method from the straight
line.  The step fractions 1, 1/2, 1/4, ... are tried in turn, each
with one metric call at the candidate's midpoints: that call gives the
candidate's energy, which decides whether it is kept, and, once kept,
the exact gradient and the block-tridiagonal Hessian without its O(1/S)
curvature term, so a Newton iterate whose full step is kept costs one
metric call and one dense solve.  A constant metric's straight line
already is the geodesic: no refinement runs and its energy is e' M e
with e = x - x*.

The path is scanned with per-segment terms that are affine in u: on a
segment a(u) = a0 + sum_i u_i delta' H_i delta, and b and B' M delta do
not depend on u, so one stacked pass serves every segment.  The scan is
vectorized up to the first gain that feeds back: segments with a < 0 at
u* change nothing, and when no segment after the first active one has
a nonzero slope (H = 0 there), every gain is known at u* and u is u*
minus an ordered cumulative sum of the corrections.  Otherwise the
accumulation from that segment on is scalar work, node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# compute_ab is not used here; it stays importable from this module because
# perfbench/tracer.py patches it under this name
from .differential import compute_ab, feedback_terms  # noqa: F401
from .model import MetricSpec, RawEval, SystemSpec, plant_for

B_FLOOR = 1e-12
# Newton on the discrete path energy stops once 0 <= g' H^-1 g <= NEWTON_TOL * E
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 20
# backtracking fractions of the Newton step
_HALVINGS = 0.5 ** np.arange(30)


class Infeasible(Exception):
    """a >= 0 with no control authority (b <= B_FLOOR): the tangent cost
    cannot be decreased at this point, so the premise of the design
    fails along the path."""

    def __init__(self, a: float, b: float, x=None, node: int | None = None,
                 time: float | None = None):
        self.a = a
        self.b = b
        self.x = None if x is None else np.asarray(x, dtype=float)
        self.node = node
        self.time = time
        super().__init__(self._compose())

    def _compose(self) -> str:
        msg = f"cannot decrease tangent cost: a={self.a:.6e} >= 0 with b={self.b:.6e}"
        if self.x is not None:
            msg += f" at x={self.x.tolist()}"
        if self.node is not None:
            msg += f" (path node {self.node})"
        if self.time is not None:
            msg += f" (t={self.time})"
        return msg


@dataclass
class ControllerConfig:
    lam: float
    path_segments: int = 32


@dataclass
class PathDiscretization:
    nodes: np.ndarray      # (segments + 1, n); endpoints exact
    energy: float          # sum over segments of dg' M(mid) dg / ds
    iterations: int = 0    # Newton steps taken
    residual: float = 0.0  # Newton decrement g' H^-1 g at the returned nodes


def rho(a: float, b: float) -> float:
    """Feedback gain scalar; raises Infeasible when a >= 0 and b <= B_FLOOR."""
    if a < 0.0:
        return 0.0
    if b <= B_FLOOR:
        raise Infeasible(a, b)
    return (a + math.sqrt(a * a + b * b)) / b


def differential_feedback(raw: RawEval, delta: np.ndarray, u: np.ndarray,
                          lam: float) -> np.ndarray:
    """Tangent-level control delta_u = -rho(a, b) B' M delta.

    A zero tangent returns exactly zero without consulting rho.  The
    returned correction closes the tangent loop with
    Vdot = (a - 2 lambda V) - rho b / 2 <= -2 lambda V.
    """
    d = np.asarray(delta, dtype=float)
    if not d.any():
        return np.zeros(raw.B.shape[1])
    a0, slope, w, b = feedback_terms(raw, d, lam)
    return -rho(float(a0 + slope @ u), float(b)) * w


def _energy(diffs: np.ndarray, Mm: np.ndarray) -> float:
    """sum_s d_s' M_s d_s / ds over the segments of one path."""
    terms = np.einsum("si,sij,sj->s", diffs, Mm, diffs)
    return float(np.sum(terms) * diffs.shape[0])


def path_energy(nodes: np.ndarray, met: MetricSpec, t: float = 0.0) -> float:
    """Discrete path energy sum_s dg_s' M(mid_s) dg_s / ds on the unit
    parameter interval of one path, nodes of shape (S + 1, n)."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.shape[0] < 2:
        return 0.0
    (Mm,) = met.eval_M(0.5 * (nodes[1:] + nodes[:-1]), t)
    return _energy(nodes[1:] - nodes[:-1], Mm)


def _midpoint_eval(nodes: np.ndarray, met: MetricSpec, t: float):
    """One eval_raw call at the midpoints of one path: its energy,
    bitwise path_energy's, and the (diffs, M, dM/dx) that _assemble
    turns into the Newton system."""
    diffs = nodes[1:] - nodes[:-1]
    Mm, dMm, _ = met.eval_raw(0.5 * (nodes[1:] + nodes[:-1]), t)
    return _energy(diffs, Mm), (diffs, Mm, dMm)


def _assemble(diffs: np.ndarray, Mm: np.ndarray,
              dMm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the discrete energy over the interior nodes, flattened
    to ((S - 1) n,), and its block-tridiagonal Hessian as a dense matrix.

    Per segment, with G = 2S M and C[i, k] = 2S (dM/dx_k d)_i, the blocks
    are G - (C + C')/2 at the left node, G + (C + C')/2 at the right one
    and -G - C/2 + C'/2 between them.  The d' d2M d term is dropped: it is
    O(1/S) against 2S M.
    """
    segments, n = diffs.shape
    G = 2.0 * segments * Mm
    C = 2.0 * segments * np.einsum("skij,sj->sik", dMm, diffs)
    base = np.einsum("sij,sj->si", G, diffs)
    quad = 0.25 * np.einsum("si,sik->sk", diffs, C)
    g = (quad[:-1] + base[:-1]) + (quad[1:] - base[1:])
    Ct = C.transpose(0, 2, 1)
    sym = 0.5 * (C + Ct)
    inner = segments - 1
    H = np.zeros((inner, n, inner, n))
    k = np.arange(inner)
    H[k, :, k, :] = (G[:-1] + sym[:-1]) + (G[1:] - sym[1:])
    upper = 0.5 * (Ct - C)[1:-1] - G[1:-1]
    H[k[:-1], :, k[1:], :] = upper
    H[k[1:], :, k[:-1], :] = upper.transpose(0, 2, 1)
    return g.reshape(-1), H.reshape(inner * n, inner * n)


def build_path(x_star: np.ndarray, x: np.ndarray, met: MetricSpec,
               cfg: ControllerConfig, t: float = 0.0) -> PathDiscretization:
    """Discretized path from x_star to x with path_segments segments.

    Starts from the straight line; for a state-dependent metric, takes
    Newton steps on the interior nodes of the discrete energy until the
    Newton decrement g' H^-1 g lies in [0, NEWTON_TOL * energy], for at
    most NEWTON_MAX_ITER steps.  A negative decrement means H is not
    positive definite there, and the step is along g instead, E / |g|^2
    at full length.  The fractions 1, 0.5, ..., 0.5^29 of the step are
    tried in order, each with one eval_raw call at the candidate's
    midpoints; the first whose energy is positive and not above the
    current one is kept, and the same call gives its Newton system.
    Newton stops when no fraction qualifies, and before trying any when
    the energy is not positive.  Endpoints are never moved.
    """
    a = np.asarray(x_star, dtype=float)
    b = np.asarray(x, dtype=float)
    nodes = np.linspace(a, b, cfg.path_segments + 1)
    if np.array_equal(a, b):
        return PathDiscretization(nodes=nodes, energy=0.0)
    if met.constant:
        e = b - a
        (M,) = met.eval_M(a, t)
        return PathDiscretization(nodes=nodes, energy=float(e @ M @ e))
    energy, terms = _midpoint_eval(nodes, met, t)
    iterations = 0
    while True:
        g, H = _assemble(*terms)
        step = np.linalg.solve(H, g)
        residual = float(g @ step)
        if (not energy > 0.0 or 0.0 <= residual <= NEWTON_TOL * energy
                or iterations == NEWTON_MAX_ITER):
            break
        if residual < 0.0:
            # H is not positive definite and the Newton step climbs:
            # descend along g instead, by energy / |g|^2 at full step
            # (|g|^2 can underflow to 0 where g' H^-1 g does not)
            gg = float(g @ g)
            if gg == 0.0:
                break
            step = energy / gg * g
        step = step.reshape(-1, nodes.shape[1])
        # a step out of the region where M is positive definite can
        # reach an energy at or below zero, and a non-finite dM/dx, so
        # the system is assembled only for a kept candidate
        for frac in _HALVINGS:
            cand = nodes.copy()
            cand[1:-1] -= frac * step
            cand_energy, terms = _midpoint_eval(cand, met, t)
            if 0.0 < cand_energy <= energy:
                break
        else:
            break
        nodes, energy = cand, cand_energy
        iterations += 1
    return PathDiscretization(nodes=nodes, energy=energy,
                              iterations=iterations, residual=residual)


def tracking_feedback(x: np.ndarray, x_star: np.ndarray, u_star: np.ndarray,
                      sys: SystemSpec, met: MetricSpec, cfg: ControllerConfig,
                      t: float = 0.0) -> np.ndarray:
    """Control at state x for target (x_star, u_star) at time t.

    Accumulates the tangent correction along the path from the target to
    x: u = u_star + sum_j delta_u(node_j, tangent_j, u_j).  At x = x_star
    every tangent is zero and u_star is returned exactly.  Infeasible
    from any node is re-raised with the node attached.
    """
    u = np.asarray(u_star, dtype=float).copy()
    nodes = build_path(x_star, x, met, cfg, t).nodes
    diffs = nodes[1:] - nodes[:-1]
    moving = diffs.any(axis=1)
    if not moving.any():
        return u
    raws = plant_for(sys, met).raw_batch(nodes[:-1], t)
    a0, slope, w, b = feedback_terms(raws, diffs, cfg.lam)
    # a at u = u_star on every segment, summed over inputs in the order
    # of the scalar scan below
    slope_u = np.zeros_like(a0)
    for s_i, u_i in zip(slope.T, u):
        slope_u += s_i * u_i
    a = a0 + slope_u
    # as in rho, only a < 0 gives a zero gain (a NaN a does not)
    active = moving & ~(a < 0.0)
    if not active.any():
        return u
    first = int(np.argmax(active))
    if not slope[first + 1:].any():
        # no correction feeds back into a later gain: all are known now
        weak = active & (b <= B_FLOOR)
        if weak.any():
            j = int(np.argmax(weak))
            raise Infeasible(float(a[j]), float(b[j]), x=nodes[j], node=j, time=t)
        r = np.zeros_like(a)
        aa, bb = a[active], b[active]
        r[active] = (aa + np.sqrt(aa * aa + bb * bb)) / bb
        steps = -(r[first:, None] * w[first:])
        return np.cumsum(np.vstack([u, steps]), axis=0)[-1]
    # the scan is scalar work, so it runs on Python floats
    a0, slope, w, b = (v.tolist() for v in (a0, slope, w, b))
    u = u.tolist()
    for j in (first + np.flatnonzero(moving[first:])).tolist():
        slope_u = 0.0
        for s_i, u_i in zip(slope[j], u):
            slope_u += s_i * u_i
        try:
            r = rho(a0[j] + slope_u, b[j])
        except Infeasible as err:
            raise Infeasible(err.a, err.b, x=nodes[j], node=j, time=t) from None
        u = [u_i - r * w_i for u_i, w_i in zip(u, w[j])]
    return np.array(u)
