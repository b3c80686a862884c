"""Angle-weighted area functional and its Euler-Lagrange operator.

For a symplectic surface (cos(alpha) > 0) the functional integrates
cos(alpha)^-beta against the induced area.  beta = 0 is plain area.
Critical points satisfy the vanishing of the normal field

    E = cos(alpha)^3 H - beta (J (J grad cos(alpha))^T)^perp,

whose (e3, e4) components divided by cos(alpha)^3 reproduce the scalar
equations used by the component residuals below.

E needs no frame.  In the parametric tangents F_theta, F_phi the
tangential part of J grad cos(alpha) is

    (J grad cos a)^T = cos a (d_theta(cos a) F_phi - d_phi(cos a) F_theta)
                       / sqrt(det g),

built from the two partials of cos(alpha) and not by projecting
J grad cos(alpha), whose normal part dwarfs the tangential one where
cos(alpha) is small.  E is then the normal part, v - g^ij <v, F_j> F_i,
of the single chart vector cos(alpha)^3 g^ij W_ij - beta J (J grad cos a)^T,
with W_ij the covariant second derivatives of the immersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientManifold, _dot
from .errors import NotSymplectic
from .surface import ImmersedSurface, SurfaceGeometry, _checked_det, periodic_d1

__all__ = [
    "ELField",
    "el_operator",
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
    """``geometry``, checked to be the one of ``surface`` in ``ambient``,
    or a new geometry when it is None."""
    if geometry is None:
        return SurfaceGeometry(surface, ambient)
    if geometry.surface is not surface or geometry.ambient is not ambient:
        raise ValueError("geometry was built for another surface or ambient")
    return geometry


def l_beta(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    geometry: SurfaceGeometry | None = None,
) -> float:
    """Integral of cos(alpha)^-beta over the surface.

    Raises NotSymplectic when any node has cos(alpha) <= ``COS_FLOOR``;
    the functional is only meaningful on symplectic surfaces.
    """
    beta = validate_beta(beta)
    G = _geometry(surface, ambient, geometry)
    ca = _checked_cos_alpha(G.cos_alpha)
    return float(np.sum(ca ** (-beta) * G.area_weights))


def _checked_cos_alpha(ca):
    """``ca``, cos(alpha) at the nodes; raises NotSymplectic where it is at
    most ``COS_FLOOR``."""
    bad = int(np.sum(ca <= COS_FLOOR))
    if bad:
        raise NotSymplectic(
            f"cos(alpha) <= {COS_FLOOR:g} at {bad} of {ca.size} nodes", bad
        )
    return ca


def _l_beta_along(G: SurfaceGeometry, beta: float, xi):
    """t -> ``l_beta`` of ``G.surface`` displaced by t xi, raising as it does.

    The periodic stencil is linear, so the tangents of the displaced
    surface are F_i + t D_i xi.  Where the sample has a scalar metric
    ``factor`` (exp(2 lam) delta with the standard J, the flat ambient
    included), the Euclidean Gram entries and omega_e(F_theta, F_phi) =
    (J F_theta).F_phi are quadratics in t, whose coefficients are formed
    once; a step then reads the factor of the ambient sampled at the
    displaced nodes, whose positions only a conformal sample builds, and
    evaluates node scalars alone, building no surface or geometry.  Any
    other ambient evaluates ``l_beta`` on the displaced surface.
    """
    S = G.surface
    if G._sample.factor is None:
        return lambda t: l_beta(S.displaced(t * xi), G.ambient, beta)
    a, b = periodic_d1(xi, 0, S.h_theta), periodic_d1(xi, 1, S.h_phi)
    fth, fph = G.fth, G.fph
    jth, ja = G.apply_j(fth), G.apply_j(a)
    # (1, t, t^2) coefficients of |F_theta|^2, F_theta.F_phi, |F_phi|^2
    # and omega_e(F_theta, F_phi) for the tangents F_theta + t a, F_phi + t b
    quadratics = (
        (_dot(fth, fth), 2.0 * _dot(fth, a), _dot(a, a)),
        (_dot(fth, fph), _dot(fth, b) + _dot(a, fph), _dot(a, b)),
        (_dot(fph, fph), 2.0 * _dot(fph, b), _dot(b, b)),
        (_dot(jth, fph), _dot(jth, b) + _dot(ja, fph), _dot(ja, b)),
    )
    cell = S.h_theta * S.h_phi

    def at(t):
        f = G.ambient.sample(lambda: G.pos + t * xi).factor
        g11, g12, g22, omega = (f * (c0 + t * (c1 + t * c2)) for c0, c1, c2 in quadratics)
        sqrt_det = np.sqrt(_checked_det(g11, g12, g22))
        ca = _checked_cos_alpha(omega / sqrt_det)
        return float(np.sum(ca ** (-beta) * (sqrt_det * cell)))

    return at


def _j_tangent_grad(G: SurfaceGeometry):
    """J (J grad cos(alpha))^T in chart components, not yet projected."""
    S = G.surface
    ca = G.cos_alpha
    s = ca / G.sqrt_det
    d_theta = s * periodic_d1(ca, 0, S.h_theta)
    d_phi = s * periodic_d1(ca, 1, S.h_phi)
    return G.apply_j(d_theta[..., None] * G.fph - d_phi[..., None] * G.fth)


@dataclass
class ELField:
    """Euler-Lagrange residual field of the angle-weighted functional.

    ``vector`` holds the chart components of the normal field E; its
    adapted-gauge components are ``G.dot(vector, G.adapted_frame.e3)``
    and likewise for e4.
    """

    vector: np.ndarray  # (n_theta, n_phi, 4) chart components, normal
    norm_l2: float
    norm_linf: float


def el_operator(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    geometry: SurfaceGeometry | None = None,
) -> ELField:
    """E = cos^3(alpha) H - beta (J (J grad cos alpha)^T)^perp at each node.

    Both terms are projected together: E is the normal part of
    cos^3(alpha) g^ij W_ij - beta J (J grad cos alpha)^T.
    """
    beta = validate_beta(beta)
    G = _geometry(surface, ambient, geometry)
    ca = G.cos_alpha
    raw = ca[..., None] ** 3 * G._raw_mean_curvature
    if beta != 0.0:
        raw -= beta * _j_tangent_grad(G)
    E = G.project_normal(raw)
    mag = np.sqrt(G.dot(E, E))
    norm_l2 = float(np.sqrt(np.sum(mag**2 * G.area_weights)))
    norm_linf = float(np.max(mag))
    return ELField(E, norm_l2, norm_linf)

