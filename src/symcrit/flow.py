"""Explicit gradient descent for the angle-weighted area functional.

The descent velocity is the critical-operator field rescaled by the
angle weight, which makes the first variation strictly negative away
from critical points.  Steps use backtracking line search against three
acceptance requirements: the functional must decrease, the surface must
stay immersed, and the angle cosine must stay above the symplectic
floor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientManifold
from .errors import FlowStalled, NotImmersed, NotSymplectic
from .functional import el_operator, l_beta, validate_beta
from .surface import ImmersedSurface, SurfaceGeometry, check_winding_periodic

__all__ = [
    "FlowResult",
    "FlowState",
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
    res_linf, min_cos_alpha, tau.  ``stop_reason`` names the exit the
    run took: "converged" (res_linf <= res_tol), "budget" (the iteration
    budget ran out first) or "stationary" (res_linf below
    ``STATIONARY_LINF``, where no step can descend).
    """

    surface: ImmersedSurface
    trace: np.ndarray
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason != "budget"

    @property
    def states(self) -> list:
        return [FlowState(k, *row) for k, row in enumerate(self.trace.tolist())]

    @property
    def iterations(self) -> int:
        return max(len(self.trace) - 1, 0)


def validate_budget(max_iterations: int, res_tol: float) -> None:
    """Reject an iteration budget or residual target the flow cannot honour."""
    try:
        operator.index(max_iterations)
    except TypeError:
        raise ValueError(
            f"max_iterations must be an integer, got {max_iterations!r}"
        ) from None
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
    i00, i01, i11 = G._inverse_entries
    tr = i00 + i11
    det = i00 * i11 - i01 * i01
    max_eig = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    nu = float(np.max(G.cos_alpha ** (-beta) * max_eig))
    S = G.surface
    lam = nu * (16.0 / 3.0) * (1.0 / S.h_theta**2 + 1.0 / S.h_phi**2)
    return 1.7 / lam


def _line_search(G, beta, velocity, current, tau):
    """Backtrack from step size ``tau`` along ``velocity`` from ``G.surface``.

    ``current`` is the L_beta of ``G.surface``.  Returns (the geometry of
    the accepted candidate, its L_beta, accepted tau); raises FlowStalled
    when tau falls below TAU_MIN, or without a candidate when the cap
    ``tau`` already lies below it.
    """
    if not tau >= TAU_MIN:
        raise FlowStalled(
            f"stable step cap tau = {tau:.3g} at beta = {beta:g} is below "
            f"TAU_MIN = {TAU_MIN:g}: no step was tried"
        )
    while tau >= TAU_MIN:
        G_new = SurfaceGeometry(G.surface.displaced(tau * velocity), G.ambient)
        try:
            value = l_beta(G_new.surface, G.ambient, beta, geometry=G_new)
        except (NotImmersed, NotSymplectic):  # immersion and angle-floor gates
            value = math.nan
        if math.isfinite(value) and value < current:
            return G_new, value, tau
        tau *= 0.5
    raise FlowStalled(
        f"line search fell below tau = {TAU_MIN:g} without descent"
    )


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
    accepted candidate.  Every step moves along the weighted velocity
    cos^-(beta+3)(alpha) E and backtracks from the cap ``stable_step``;
    ``max_iterations=1, res_tol=0.0`` takes one step.  A critical
    operator that is not finite raises FlowStalled; an ambient that is
    not periodic along the surface's winding raises AmbientDegenerate
    before the first step (``check_winding_periodic``).
    """
    beta = validate_beta(beta, for_flow=True)
    validate_budget(max_iterations, res_tol)
    check_winding_periodic(surface, ambient)
    G = SurfaceGeometry(surface, ambient)
    value = l_beta(surface, ambient, beta, geometry=G)
    rows = []
    for iteration in range(max_iterations + 1):
        el = el_operator(G.surface, ambient, beta, geometry=G)
        row = [value, el.norm_l2, el.norm_linf, float(np.min(G.cos_alpha)), 0.0]
        rows.append(row)
        if el.norm_linf <= res_tol:
            stop_reason = "converged"
            break
        if iteration == max_iterations:
            stop_reason = "budget"
            break
        if el.norm_linf < STATIONARY_LINF:
            stop_reason = "stationary"
            break
        if not math.isfinite(el.norm_linf):
            raise FlowStalled(
                f"critical operator residual res_linf = {el.norm_linf} is not finite"
            )
        velocity = G.cos_alpha[..., None] ** (-(beta + 3.0)) * el.vector
        G, value, row[4] = _line_search(G, beta, velocity, value, stable_step(G, beta))
    return FlowResult(G.surface, np.array(rows, dtype=np.float64), stop_reason)


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
