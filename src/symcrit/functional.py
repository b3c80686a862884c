"""Angle-weighted area functional and its Euler-Lagrange operator.

For a symplectic surface (cos(alpha) > 0) the functional integrates
cos(alpha)^-beta against the induced area.  beta = 0 is plain area.
Critical points satisfy the vanishing of the normal field

    E = cos(alpha)^3 H - beta (J (J grad cos(alpha))^T)^perp,

whose (e3, e4) components divided by cos(alpha)^3 reproduce the scalar
equations used by the component residuals below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ambient import AmbientManifold
from .errors import NotSymplectic
from .surface import ImmersedSurface, SurfaceGeometry

__all__ = [
    "ELField",
    "el_components",
    "el_operator",
    "jj_grad_perp",
    "l_beta",
    "validate_beta",
]

COS_FLOOR = 1e-4


def validate_beta(beta: float, for_flow: bool = False) -> float:
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if beta == -1.0:
        raise ValueError("beta = -1 is outside the functional family")
    if for_flow and beta < 0.0:
        raise ValueError("flow requires beta >= 0")
    return beta


def _geometry(surface, ambient, geometry):
    if geometry is not None:
        return geometry
    return SurfaceGeometry(surface, ambient)


def l_beta(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    cos_floor: float = COS_FLOOR,
    geometry: SurfaceGeometry | None = None,
) -> float:
    """Integral of cos(alpha)^-beta over the surface.

    Raises NotSymplectic when any node has cos(alpha) <= cos_floor;
    the functional is only meaningful on symplectic surfaces.  The floor
    must be finite.
    """
    beta = validate_beta(beta)
    if not math.isfinite(cos_floor):
        raise ValueError(f"cos_floor must be finite, got {cos_floor}")
    G = _geometry(surface, ambient, geometry)
    ca = G.cos_alpha
    bad = int(np.sum(ca <= cos_floor))
    if bad:
        raise NotSymplectic(
            f"cos(alpha) <= {cos_floor:g} at {bad} of {ca.size} nodes", bad
        )
    return float(np.sum(ca ** (-beta) * G.area_weights))


def jj_grad_perp(geometry: SurfaceGeometry):
    """Normal part of J applied to the tangential part of J grad cos(alpha).

    Uses the pointwise identity
        (J grad cos a)^T = cos a (e2 d1(cos a) - e1 d2(cos a)),
    which avoids the cancellation of projecting J grad directly: the
    raw double projection of the chart gradient gives the same field,
    only less accurately.
    """
    G = geometry
    dc = G.grad_cos_frame
    ca = G.cos_alpha
    tang = ca[..., None] * (dc[..., 0, None] * G.e2 - dc[..., 1, None] * G.e1)
    return G.project_normal(G.apply_j(tang))


@dataclass
class ELField:
    """Euler-Lagrange residual field of the angle-weighted functional.

    The adapted-gauge components are computed on first access: they need
    the adapted normal frame, which the norms and the flow never read.
    """

    vector: np.ndarray  # (n_theta, n_phi, 4) chart components, normal
    norm_l2: float
    norm_linf: float
    geometry: SurfaceGeometry = field(repr=False, compare=False)

    @cached_property
    def comp3(self) -> np.ndarray:
        """<E, e3> in the adapted gauge."""
        G = self.geometry
        return G.dot(self.vector, G.adapted_frame.e3)

    @cached_property
    def comp4(self) -> np.ndarray:
        """<E, e4> in the adapted gauge."""
        G = self.geometry
        return G.dot(self.vector, G.adapted_frame.e4)


def el_operator(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    geometry: SurfaceGeometry | None = None,
) -> ELField:
    """E = cos^3(alpha) H - beta (J (J grad cos alpha)^T)^perp at each node."""
    beta = validate_beta(beta)
    G = _geometry(surface, ambient, geometry)
    ca = G.cos_alpha
    E = ca[..., None] ** 3 * G.mean_curvature
    if beta != 0.0:
        E = E - beta * jj_grad_perp(G)
    mag = np.sqrt(G.dot(E, E))
    norm_l2 = float(np.sqrt(np.sum(mag**2 * G.area_weights)))
    norm_linf = float(np.max(mag))
    return ELField(E, norm_l2, norm_linf, G)


def el_components(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    geometry: SurfaceGeometry | None = None,
):
    """Component residuals of the two scalar critical equations.

        r3 = H^3 + beta cos^-2(a) (y d2 cos a - z d1 cos a)
        r4 = H^4 + beta cos^-2(a) (y d1 cos a + z d2 cos a)

    Evaluated in the adapted gauge (z = 0 wherever the frame adapts).
    Returns (r3, r4) grid fields.
    """
    beta = validate_beta(beta)
    G = _geometry(surface, ambient, geometry)
    fr = G.adapted_frame
    H = G.mean_curvature_frame
    dc = G.grad_cos_frame
    inv2 = 1.0 / G.cos_alpha**2
    r3 = H[..., 0] + beta * inv2 * (fr.y * dc[..., 1] - fr.z * dc[..., 0])
    r4 = H[..., 1] + beta * inv2 * (fr.y * dc[..., 0] + fr.z * dc[..., 1])
    return r3, r4
