"""Explicit gradient descent for the angle-weighted area functional.

The descent velocity is the critical-operator field rescaled by the
angle weight, which makes the first variation strictly negative away
from critical points.  Steps use backtracking line search against three
acceptance requirements: the functional must decrease, the surface must
stay immersed, and the angle cosine must stay above the symplectic
floor.  The step size warm-starts from the previously accepted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientManifold
from .errors import FlowStalled, NotImmersed, NotSymplectic
from .functional import el_operator, l_beta, validate_beta
from .surface import ImmersedSurface, SurfaceGeometry

__all__ = [
    "FlowResult",
    "FlowState",
    "flow_step",
    "run_flow",
    "validate_budget",
    "write_trace",
]

TAU_MIN = 1e-12
STATIONARY_LINF = 1e-14


@dataclass
class FlowState:
    """One accepted iteration of the descent."""

    iteration: int
    l_beta: float
    res_l2: float
    res_linf: float
    min_cos_alpha: float
    tau: float


@dataclass
class FlowResult:
    """Outcome of :func:`run_flow`.

    ``trace`` holds one row per visited surface, in ``FlowState`` field
    order without the iteration (the row index): L_beta, res_l2,
    res_linf, min_cos_alpha, tau.
    """

    surface: ImmersedSurface
    trace: np.ndarray = field(default_factory=lambda: np.empty((0, 5)))
    converged: bool = False

    @property
    def states(self) -> list:
        return [FlowState(k, *row) for k, row in enumerate(self.trace.tolist())]

    @property
    def iterations(self) -> int:
        return max(len(self.trace) - 1, 0)


def validate_budget(max_iterations: int, res_tol: float) -> None:
    """Reject an iteration budget or residual target the flow cannot honour."""
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    if not (math.isfinite(res_tol) and res_tol >= 0.0):
        raise ValueError(f"res_tol must be finite and >= 0, got {res_tol}")


def stable_step(G: SurfaceGeometry, beta: float) -> float:
    """Step-size bound from the linearized diffusion coefficient.

    The velocity behaves like cos(alpha)^-beta times the surface
    Laplacian of the immersion, so the explicit scheme is stable while
    tau * lambda_max < 2 with lambda_max the stencil bound 16/3 per
    chart direction times the largest eigenvalue of the coefficient.
    A safety factor of 0.85 leaves the rest to the line search.
    """
    gi = G.induced_metric_inv
    tr = gi[..., 0, 0] + gi[..., 1, 1]
    det = gi[..., 0, 0] * gi[..., 1, 1] - gi[..., 0, 1] * gi[..., 1, 0]
    max_eig = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    nu = float(np.max(G.cos_alpha ** (-beta) * max_eig))
    S = G.surface
    lam = nu * (16.0 / 3.0) * (1.0 / S.h_theta**2 + 1.0 / S.h_phi**2)
    return 1.7 / lam


def _accepts(surface, ambient, beta, current_l):
    """(L_beta, geometry) of the candidate if it passes all gates, else None."""
    G = SurfaceGeometry(surface, ambient)
    try:
        value = l_beta(surface, ambient, beta, geometry=G)
    except (NotImmersed, NotSymplectic):
        return None
    if not np.isfinite(value) or value >= current_l:
        return None
    return value, G


def _line_search(surface, ambient, beta, G, el, current, tau):
    """Backtrack from step size ``tau`` along the weighted descent velocity.

    ``G``, ``el`` and ``current`` are the geometry, critical operator and
    L_beta of ``surface``.  Returns (candidate, its L_beta, its geometry,
    accepted tau); raises FlowStalled when tau falls below TAU_MIN.
    """
    weight = G.cos_alpha ** (-(beta + 3.0))
    velocity = weight[..., None] * el.vector
    while tau >= TAU_MIN:
        candidate = surface.displaced(tau * velocity)
        accepted = _accepts(candidate, ambient, beta, current)
        if accepted is not None:
            return candidate, *accepted, tau
        tau *= 0.5
    raise FlowStalled(
        f"line search fell below tau = {TAU_MIN:g} without descent"
    )


def flow_step(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    tau_init: float | None = None,
    geometry: SurfaceGeometry | None = None,
):
    """One backtracking descent step.

    Returns (new_surface, state) where state carries the residual norms
    of the pre-step surface and the accepted step size.  A stationary
    surface is returned unchanged with tau = 0.  Raises FlowStalled when
    backtracking exhausts the step size, and ValueError for a ``tau_init``
    that is not finite and positive.
    """
    beta = validate_beta(beta, for_flow=True)
    if tau_init is not None and not (math.isfinite(tau_init) and tau_init > 0.0):
        raise ValueError(f"tau_init must be finite and positive, got {tau_init}")
    G = geometry or SurfaceGeometry(surface, ambient)
    el = el_operator(surface, ambient, beta, geometry=G)
    current = l_beta(surface, ambient, beta, geometry=G)
    min_ca = float(np.min(G.cos_alpha))
    if el.norm_linf < STATIONARY_LINF:
        state = FlowState(0, current, el.norm_l2, el.norm_linf, min_ca, 0.0)
        return surface, state
    tau = tau_init if tau_init is not None else stable_step(G, beta)
    candidate, _, _, tau = _line_search(surface, ambient, beta, G, el, current, tau)
    state = FlowState(0, current, el.norm_l2, el.norm_linf, min_ca, tau)
    return candidate, state


def run_flow(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    max_iterations: int = 2000,
    res_tol: float = 1e-3,
) -> FlowResult:
    """Descend until the Linf residual of the critical operator drops
    below ``res_tol`` or the iteration budget runs out.

    The convergence check runs before each step, so an already-critical
    input returns immediately.  The trace records one state per visited
    surface including the final one (with tau = 0 on the last row).
    Each visited surface gets one geometry, one critical operator and
    one L_beta evaluation: the line search hands over those of the
    accepted candidate.
    """
    beta = validate_beta(beta, for_flow=True)
    validate_budget(max_iterations, res_tol)
    result = FlowResult(surface)
    G = SurfaceGeometry(surface, ambient)
    value = l_beta(surface, ambient, beta, geometry=G)
    rows = []
    tau_prev = None
    for iteration in range(max_iterations + 1):
        el = el_operator(surface, ambient, beta, geometry=G)
        row = [value, el.norm_l2, el.norm_linf, float(np.min(G.cos_alpha)), 0.0]
        rows.append(row)
        if el.norm_linf <= res_tol:
            result.converged = True
            break
        if iteration == max_iterations:
            break
        if el.norm_linf < STATIONARY_LINF:
            result.converged = True
            break
        base = stable_step(G, beta)
        tau_init = base if tau_prev is None else min(2.0 * tau_prev, base)
        surface, value, G, tau_prev = _line_search(
            surface, ambient, beta, G, el, value, tau_init
        )
        row[4] = tau_prev
    result.surface = surface
    result.trace = np.array(rows, dtype=np.float64)
    return result


def write_trace(result: FlowResult, path) -> None:
    """CSV trace of the descent, one row per visited surface."""
    lines = ["iteration,L_beta,res_l2,res_linf,min_cos_alpha,tau"]
    for s in result.states:
        lines.append(
            f"{s.iteration},{s.l_beta:.17g},{s.res_l2:.17g},"
            f"{s.res_linf:.17g},{s.min_cos_alpha:.17g},{s.tau:.17g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
