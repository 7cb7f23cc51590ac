"""Tracking feedback built from a verified metric.

The gain is the min-norm-style scalar

    rho(a, b) = 0                            if a < 0
              = (a + sqrt(a^2 + b^2)) / b    otherwise,

applied to the tangent loop as delta_u = -rho B' M delta, which closes
the differential dynamics with Vdot <= -2 lambda V at every point where
b stays above B_FLOOR.  rho is deliberately discontinuous across a = 0
(it jumps from 0 to 1); the decrease bound holds on both branches.

The state-level control integrates delta_u along a discretized path
from the target (x*, u*) to the current state: straight-line nodes,
optionally relaxed toward a geodesic of M by descending the discrete
path energy.  When the metric is constant the straight line already is
the geodesic and refinement is skipped.

The path is scanned with per-segment terms that are affine in u: on a
segment a(u) = a0 + sum_i u_i delta' H_i delta, and b and B' M delta do
not depend on u, so one stacked pass serves every segment and the
accumulation from node to node is scalar work.
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
    geodesic_iterations: int = 20


@dataclass
class PathDiscretization:
    nodes: np.ndarray    # (segments + 1, n); endpoints exact
    energy: float        # sum over segments of dg' M(mid) dg / ds


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


def path_energy(nodes: np.ndarray, met: MetricSpec, t: float = 0.0) -> float:
    """Discrete path energy sum_s dg_s' M(mid_s) dg_s / ds on the unit
    parameter interval."""
    nodes = np.asarray(nodes, dtype=float)
    segments = nodes.shape[0] - 1
    if segments < 1:
        return 0.0
    diffs = nodes[1:] - nodes[:-1]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    (Mm,) = met.eval_M(mids, t)
    terms = np.einsum("si,sij,sj->s", diffs, Mm, diffs)
    return float(np.sum(terms) * segments)


def _energy_gradient(nodes: np.ndarray, met: MetricSpec, t: float) -> np.ndarray:
    """Exact gradient of the discrete energy with respect to every node
    (interior rows are what refinement uses)."""
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


def build_path(x_star: np.ndarray, x: np.ndarray, met: MetricSpec,
               cfg: ControllerConfig, t: float = 0.0) -> PathDiscretization:
    """Discretized path from x_star to x with path_segments segments.

    Starts from the straight line; for a state-dependent metric, runs up
    to geodesic_iterations rounds of monotone energy descent on the
    interior nodes (each round keeps the previous nodes unless a strictly
    non-increasing step is found).  Endpoints are never moved.
    """
    a = np.asarray(x_star, dtype=float)
    b = np.asarray(x, dtype=float)
    nodes = np.linspace(a, b, cfg.path_segments + 1)
    if np.array_equal(a, b):
        return PathDiscretization(nodes=nodes, energy=0.0)
    energy = path_energy(nodes, met, t)
    if met.constant or cfg.geodesic_iterations <= 0 or cfg.path_segments < 2:
        return PathDiscretization(nodes=nodes, energy=energy)

    for _ in range(cfg.geodesic_iterations):
        g = _energy_gradient(nodes, met, t)
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
    path = build_path(x_star, x, met, cfg, t)
    nodes = path.nodes
    diffs = nodes[1:] - nodes[:-1]
    if not diffs.any():
        return u
    raws = plant_for(sys, met).raw_batch(nodes[:-1], t)
    a0, slope, w, b = feedback_terms(raws, diffs, cfg.lam)
    for j in np.flatnonzero(diffs.any(axis=1)).tolist():
        try:
            r = rho(float(a0[j] + slope[j] @ u), float(b[j]))
        except Infeasible as err:
            raise Infeasible(err.a, err.b, x=nodes[j], node=j, time=t) from None
        u = u - r * w[j]
    return u
