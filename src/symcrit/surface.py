"""Doubly periodic immersed surfaces and their discrete geometry.

A surface is a map F(theta, phi) = L (theta, phi)^T + P(theta, phi)
into the ambient chart, with L a constant 4x2 matrix carrying the
winding of the torus and P a smooth doubly periodic 4-vector sampled
on a regular grid (no seam duplication: theta_i = i T_theta / n).

Parametric derivatives use 4th-order periodic central differences on P
plus the exact contribution of the linear part.  All node-level tensors
are cached lazily on :class:`SurfaceGeometry`, so cheap consumers (the
functional, the flow) never pay for curvature or frame assembly.

Frame conventions at a node:

* e1, e2 span the tangent plane, oriented like (theta, phi);
* x = <J e1, e2>, y = <J e1, e3>, z = <J e1, e4>;
* e3 is the unit normal part of J e1 where its length, sin(alpha),
  exceeds ``FRAME_TOL`` (the adapted gauge: y = sin(alpha), z = 0);
  elsewhere the node is flagged unadapted and e3 is the unit normal
  part of the chart axis whose normal part is longest (the raw gauge);
* e4 is the unit normal part of J(x e3 - y e2) orthogonal to e3, which
  is J(x e3 - y e2) itself in the adapted gauge.  The frame is oriented
  by J, which for ``STANDARD_J`` is the chart orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ambient import AmbientManifold
from .errors import NotImmersed

__all__ = [
    "ImmersedSurface",
    "AdaptedFrame",
    "SurfaceGeometry",
    "read_surface",
    "write_surface",
    "zbar_graph",
    "holomorphic_graph",
    "perturbed_graph",
    "lagrangian_torus",
    "revolution_torus",
]

TWO_PI = 2.0 * np.pi
# |normal part of J e1| = sin(alpha) below which a node is left unadapted
FRAME_TOL = 1e-6


@dataclass(frozen=True)
class ImmersedSurface:
    """Grid representation of a doubly periodic immersion into R^4."""

    linear_part: np.ndarray  # (4, 2)
    periodic_part: np.ndarray  # (n_theta, n_phi, 4)
    t_theta: float = TWO_PI
    t_phi: float = TWO_PI

    def __post_init__(self):
        L = np.asarray(self.linear_part, dtype=float)
        P = np.asarray(self.periodic_part, dtype=float)
        if L.shape != (4, 2):
            raise ValueError(f"linear part must be 4x2, got {L.shape}")
        if P.ndim != 3 or P.shape[2] != 4:
            raise ValueError(f"periodic part must be (n_theta, n_phi, 4), got {P.shape}")
        if P.shape[0] < 8 or P.shape[1] < 8:
            raise ValueError("need at least 8 nodes per direction")
        if not (np.isfinite(L).all() and np.isfinite(P).all()):
            raise ValueError("surface data contains non-finite entries")
        if not (self.t_theta > 0 and self.t_phi > 0):
            raise ValueError("periods must be positive")
        object.__setattr__(self, "linear_part", L)
        object.__setattr__(self, "periodic_part", P)

    @property
    def n_theta(self) -> int:
        return self.periodic_part.shape[0]

    @property
    def n_phi(self) -> int:
        return self.periodic_part.shape[1]

    @property
    def h_theta(self) -> float:
        return self.t_theta / self.n_theta

    @property
    def h_phi(self) -> float:
        return self.t_phi / self.n_phi

    def grids(self):
        th = np.arange(self.n_theta) * self.h_theta
        ph = np.arange(self.n_phi) * self.h_phi
        return np.meshgrid(th, ph, indexing="ij")

    def positions(self) -> np.ndarray:
        th, ph = self.grids()
        L = self.linear_part
        base = th[..., None] * L[:, 0] + ph[..., None] * L[:, 1]
        return base + self.periodic_part

    def displaced(self, delta: np.ndarray) -> "ImmersedSurface":
        """New surface with the periodic part shifted by a grid field."""
        return ImmersedSurface(
            self.linear_part,
            self.periodic_part + np.asarray(delta, dtype=float),
            self.t_theta,
            self.t_phi,
        )


# -- periodic finite differences --------------------------------------


def _neighbours(field: np.ndarray, axis: int):
    """Periodic neighbours (f[i-2], f[i-1], f[i+1], f[i+2]) along ``axis``.

    All four are slices of one copy of the field padded with two
    periodic images on each side; index wrapping makes that copy right
    for every axis length, including 1 and 2.
    """
    n = field.shape[axis]
    padded = np.take(field, np.arange(-2, n + 2), axis=axis, mode="wrap")
    lead = (slice(None),) * (axis % field.ndim)
    return tuple(padded[lead + (slice(k, k + n),)] for k in (0, 1, 3, 4))


def periodic_d1(field: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """4th-order periodic central first derivative along a grid axis."""
    fm2, fm1, fp1, fp2 = _neighbours(field, axis)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * spacing)


def periodic_d2(field: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """4th-order periodic central second derivative along a grid axis."""
    fm2, fm1, fp1, fp2 = _neighbours(field, axis)
    return (-30.0 * field + 16.0 * (fp1 + fm1) - (fp2 + fm2)) / (12.0 * spacing**2)


# -- node-level geometry ----------------------------------------------


def _sum4(p):
    """Sum over a last axis of length 4 as (p0 + p2) + (p1 + p3).

    That is the order numpy's vectorised einsum loop uses for such an
    axis, so flat-ambient values equal those of the einsum expressions
    the tests keep as reference, bit for bit.
    """
    return (p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])


def _inner(g, u, v):
    """sum_ab g_ab u^a v^b over the last axis; ``g = None`` is the identity.

    A general g is contracted as two batched matrix products.
    """
    u, v = np.asarray(u), np.asarray(v)
    if g is None:
        # ((p0 + p1) + p2) + p3 is np.sum's order for a length-4 axis; np.sum
        # also starts from +0.0, which the final += 0.0 matches (it turns the
        # -0.0 of four -0.0 products into +0.0 and changes nothing else)
        p = u * v
        out = p[..., 0] + p[..., 1]
        out += p[..., 2]
        out += p[..., 3]
        out += 0.0
        return out
    return (u[..., None, :] @ (g @ v[..., None]))[..., 0, 0]


def _reject(v, pair, co):
    """v - sum_a <co_a, v> pair_a for a (..., 2, 4) pair with covectors g pair."""
    c = _sum4(co * v[..., None, :])
    return v - c[..., 0, None] * pair[..., 0, :] - c[..., 1, None] * pair[..., 1, :]


@dataclass
class AdaptedFrame:
    """Orthonormal 4-frames with the normal pair in the adapted gauge."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    adapted: np.ndarray  # bool mask, False where sin(alpha) <= FRAME_TOL


class SurfaceGeometry:
    """Lazy cache of discrete geometric fields of a surface in an ambient.

    Every array is indexed (n_theta, n_phi, ...).  Tangent frame indices
    run over {1, 2} and are stored 0-based; normal indices {3, 4} live
    in axes of length 2 ordered (e3, e4).
    """

    def __init__(self, surface: ImmersedSurface, ambient: AmbientManifold):
        self.surface = surface
        self.ambient = ambient

    # ---- parametric derivatives

    @cached_property
    def pos(self):
        return self.surface.positions()

    @cached_property
    def _periodic_partials(self):
        """First partials (d_theta P, d_phi P) of the periodic part."""
        S = self.surface
        P = S.periodic_part
        return periodic_d1(P, 0, S.h_theta), periodic_d1(P, 1, S.h_phi)

    @cached_property
    def fth(self):
        return self.surface.linear_part[:, 0] + self._periodic_partials[0]

    @cached_property
    def fph(self):
        return self.surface.linear_part[:, 1] + self._periodic_partials[1]

    @cached_property
    def fderiv(self):
        """First derivatives stacked: index i in {theta, phi} first."""
        return np.stack([self.fth, self.fph], axis=-2)  # (nt, np, 2, 4)

    @cached_property
    def fsecond(self):
        """Second parametric derivatives, symmetric 2x2 block of 4-vectors."""
        S = self.surface
        P = S.periodic_part
        dtt = periodic_d2(P, 0, S.h_theta)
        dpp = periodic_d2(P, 1, S.h_phi)
        dtp = periodic_d1(self._periodic_partials[0], 1, S.h_phi)
        out = np.empty(P.shape[:2] + (2, 2, 4))
        out[..., 0, 0, :] = dtt
        out[..., 0, 1, :] = dtp
        out[..., 1, 0, :] = dtp
        out[..., 1, 1, :] = dpp
        return out

    # ---- ambient fields along the surface

    @cached_property
    def amb_g(self):
        return self.ambient.metric_at(self.pos)

    @cached_property
    def amb_j(self):
        return self.ambient.j_at(self.pos)

    @cached_property
    def gamma(self):
        return self.ambient.christoffel_at(self.pos)

    # ---- induced metric and area

    def dot(self, u, v):
        """Ambient inner product of chart vector fields on the grid."""
        return _inner(None if self._euclid_dot else self.amb_g, u, v)

    @cached_property
    def _euclid_dot(self):
        if not self.ambient.flat_metric:
            return False
        g0 = self.ambient.metric_at(np.zeros(4))
        return bool(np.array_equal(g0, np.eye(4)))

    @cached_property
    def induced_metric(self):
        if not self._euclid_dot:
            F = self.fderiv
            return (F @ self.amb_g) @ np.swapaxes(F, -1, -2)
        fth, fph = self.fth, self.fph
        out = np.empty(fth.shape[:-1] + (2, 2))
        out[..., 0, 0] = _sum4(fth * fth)
        out[..., 0, 1] = out[..., 1, 0] = _sum4(fth * fph)
        out[..., 1, 1] = _sum4(fph * fph)
        return out

    @cached_property
    def det_induced(self):
        gi = self.induced_metric
        det = gi[..., 0, 0] * gi[..., 1, 1] - gi[..., 0, 1] ** 2
        if np.any(det <= 1e-14):
            bad = int(np.sum(det <= 1e-14))
            raise NotImmersed(f"induced metric singular at {bad} nodes")
        return det

    @cached_property
    def sqrt_det(self):
        return np.sqrt(self.det_induced)

    @cached_property
    def induced_metric_inv(self):
        gi = self.induced_metric
        det = self.det_induced
        inv = np.empty_like(gi)
        inv[..., 0, 0] = gi[..., 1, 1]
        inv[..., 1, 1] = gi[..., 0, 0]
        inv[..., 0, 1] = -gi[..., 0, 1]
        inv[..., 1, 0] = -gi[..., 1, 0]
        return inv / det[..., None, None]

    @property
    def area_weights(self):
        S = self.surface
        return self.sqrt_det * (S.h_theta * S.h_phi)

    # ---- Kahler angle

    @cached_property
    def cos_alpha(self):
        """cos(alpha) = omega(F_theta, F_phi) / sqrt(det g_ij)."""
        omega = self.dot(self.apply_j(self.fth), self.fph)
        return omega / self.sqrt_det

    @cached_property
    def sin_alpha(self):
        return np.sqrt(np.clip(1.0 - self.cos_alpha**2, 0.0, None))

    # ---- tangent frame

    @cached_property
    def _tangent_frame(self):
        fth, fph = self.fth, self.fph
        n1 = np.sqrt(self.dot(fth, fth))
        e1 = fth / n1[..., None]
        proj = self.dot(fph, e1)
        u = fph - proj[..., None] * e1
        n2 = np.sqrt(self.dot(u, u))
        e2 = u / n2[..., None]
        coeff = np.zeros(fth.shape[:2] + (2, 2))
        coeff[..., 0, 0] = 1.0 / n1
        coeff[..., 0, 1] = -proj / (n1 * n2)
        coeff[..., 1, 1] = 1.0 / n2
        return np.stack([e1, e2], axis=-2), coeff

    @property
    def e1(self):
        return self._tangent_frame[0][..., 0, :]

    @property
    def e2(self):
        return self._tangent_frame[0][..., 1, :]

    @cached_property
    def frame_coeff(self):
        """coeff[..., i, a]: e_a = sum_i coeff[i, a] d_i F (tangent only)."""
        return self._tangent_frame[1]

    @cached_property
    def _tangent_covectors(self):
        """(g e1, g e2) stacked like (e1, e2); (e1, e2) for the Euclidean dot."""
        pair = self._tangent_frame[0]
        return pair if self._euclid_dot else pair @ self.amb_g

    def project_normal(self, v):
        """Normal part of chart vectors: the g-orthogonal rejection from (e1, e2)."""
        return _reject(np.asarray(v), self._tangent_frame[0], self._tangent_covectors)

    def apply_j(self, v):
        """J v for a chart vector field on the grid.

        A constant J is applied as one (N, 4) @ (4, 4) product with its
        sample, so neither the node positions nor a per-node J are built.
        For ``STANDARD_J``, whose rows have one nonzero entry each, the
        product is exact.
        """
        v = np.asarray(v)
        if self.ambient.constant_j:
            J = self.ambient.j_at(np.zeros(4))
            return (v.reshape(-1, 4) @ J.T).reshape(v.shape)
        return (self.amb_j @ v[..., None])[..., 0]

    # ---- adapted normal frame

    @cached_property
    def adapted_frame(self) -> AdaptedFrame:
        e1, e2 = self.e1, self.e2
        je1 = self.apply_j(e1)
        x = self.dot(je1, e2)
        e3 = self.project_normal(je1)
        r = np.sqrt(self.dot(e3, e3))
        ok = r > FRAME_TOL
        e3 /= np.where(ok, r, 1.0)[..., None]
        if not ok.all():
            # row B: normal part of chart axis B at each unadapted node, (m, 4, 4)
            pair, co = self._tangent_frame[0][~ok], self._tangent_covectors[~ok]
            axes = _reject(np.eye(4), pair[:, None], co[:, None])
            g = None if self._euclid_dot else self.amb_g[~ok][:, None]
            norms = _inner(g, axes, axes)
            best = np.argmax(norms, axis=-1)
            m = np.arange(best.size)
            e3[~ok] = axes[m, best] / np.sqrt(norms[m, best])[:, None]
        y = self.dot(je1, e3)
        w = x[..., None] * e3 - y[..., None] * e2
        e4 = self.project_normal(self.apply_j(w))
        e4 -= self.dot(e4, e3)[..., None] * e3
        e4 /= np.sqrt(self.dot(e4, e4))[..., None]
        z = self.dot(je1, e4)
        return AdaptedFrame(e1, e2, e3, e4, x, y, z, ok)

    @cached_property
    def frame_matrix(self):
        """All four frame fields stacked: frame[..., a, :] = e_{a+1}."""
        fr = self.adapted_frame
        return np.stack([fr.e1, fr.e2, fr.e3, fr.e4], axis=-2)

    # ---- second fundamental form and mean curvature

    @cached_property
    def accel(self):
        """W_ij = second derivatives plus ambient Christoffel correction."""
        W = self.fsecond.copy()
        if not self.ambient.flat_metric:
            F = self.fderiv
            W = W + np.einsum("...abc,...ib,...jc->...ija", self.gamma, F, F)
        return W

    @cached_property
    def second_fundamental(self):
        """h[..., n, a, b] = <bar nabla_{e_a} e_b, e_{n+3}> in the frame."""
        normals = self.frame_matrix[..., 2:, :]
        wn = np.einsum("...cd,...ijc,...nd->...nij", self.amb_g, self.accel, normals)
        C = self.frame_coeff
        h = np.einsum("...ia,...jb,...nij->...nab", C, C, wn)
        # contraction order breaks the symmetry at roundoff level; restore it
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    @cached_property
    def mean_curvature_frame(self):
        h = self.second_fundamental
        return h[..., 0, 0] + h[..., 1, 1]  # (nt, np, 2)

    @cached_property
    def mean_curvature(self):
        """Mean curvature vector in chart components (gauge independent)."""
        raw = np.einsum("...ij,...ija->...a", self.induced_metric_inv, self.accel)
        return self.project_normal(raw)

    # ---- derivatives of the angle

    def frame_derivative(self, field):
        """Derivatives of a grid field along (e1, e2), the direction as axis 2.

        A scalar field gives (..., 2), a chart vector field (..., 2, 4):
        sum_i coeff[i, a] d_i field, each parametric partial taken once.
        """
        S = self.surface
        d_theta = periodic_d1(field, 0, S.h_theta)[:, :, None]
        d_phi = periodic_d1(field, 1, S.h_phi)[:, :, None]
        C = self.frame_coeff.reshape(self.frame_coeff.shape + (1,) * (field.ndim - 2))
        return C[:, :, 0] * d_theta + C[:, :, 1] * d_phi

    @cached_property
    def grad_cos_frame(self):
        """Frame components (e1, e2) of the surface gradient of cos(alpha)."""
        return self.frame_derivative(self.cos_alpha)

    def covariant_frame_derivative(self, vfield):
        """Ambient covariant derivatives of a chart vector field along (e1, e2).

        Shape (..., 2, 4), the direction as axis 2, like ``frame_derivative``.
        """
        d = self.frame_derivative(vfield)
        if not self.ambient.flat_metric:
            pair = self._tangent_frame[0]
            d = d + np.einsum("...abc,...kb,...c->...ka", self.gamma, pair, vfield)
        return d

    def laplace_beltrami(self, field):
        """Divergence-form Laplace-Beltrami of a scalar grid field."""
        S = self.surface
        d0 = periodic_d1(field, 0, S.h_theta)
        d1 = periodic_d1(field, 1, S.h_phi)
        ginv = self.induced_metric_inv
        w = self.sqrt_det
        q0 = w * (ginv[..., 0, 0] * d0 + ginv[..., 0, 1] * d1)
        q1 = w * (ginv[..., 1, 0] * d0 + ginv[..., 1, 1] * d1)
        div = periodic_d1(q0, 0, S.h_theta) + periodic_d1(q1, 1, S.h_phi)
        return div / w

    # ---- frame components of ambient tensors

    @cached_property
    def nabla_j_frame(self):
        """J_{ab,k} = <(nabla_{e_k} J) e_a, e_b>_g, shape (..., k, a, b).

        k runs over the full frame, like a and b.
        """
        if self.ambient.constant_j and self.ambient.flat_metric:
            return np.zeros(self.pos.shape[:-1] + (4, 4, 4))
        fr = self.frame_matrix  # (..., 4 frame, 4 chart)
        S = self.ambient.nabla_j_tensor_at(self.pos)  # (..., c, a, b)
        # [k, a, b] = (nabla_{e_k} J)^a_b as one batched (4 x 4) @ (4 x 16) product
        dj = (fr @ S.reshape(S.shape[:-3] + (4, 16))).reshape(S.shape)
        # [k, a, m] = (nabla_{e_k} J)^a_b e_m^b as one (16 x 4) @ (4 x 4) product
        frt = np.swapaxes(fr, -1, -2)
        djm = (dj.reshape(S.shape[:-3] + (16, 4)) @ frt).reshape(S.shape)
        # [k, n, m] = <e_n, (nabla_{e_k} J) e_m>_g
        return np.swapaxes((fr @ self.amb_g)[..., None, :, :] @ djm, -1, -2)

    @cached_property
    def curvature_frame_components(self):
        """(K_1213, K_1224) contracted from the ambient curvature tensor."""
        if self.ambient.flat_metric:
            zero = np.zeros(self.cos_alpha.shape)
            return zero, zero.copy()
        K = self.ambient.curvature_at(self.pos)
        fr = self.adapted_frame
        # K(e1, e2, ., .) once, as a 4x4 block per node
        k12 = np.einsum("...abcd,...a->...bcd", K, fr.e1)
        k12 = np.einsum("...bcd,...b->...cd", k12, fr.e2)
        k1213 = np.einsum("...c,...cd,...d->...", fr.e1, k12, fr.e3)
        k1224 = np.einsum("...c,...cd,...d->...", fr.e2, k12, fr.e4)
        return k1213, k1224

    # ---- assembled second-order frame quantities

    @cached_property
    def mean_curvature_normal_derivative(self):
        """H^n_{,a} = <bar nabla_{e_a} H, e_{n+3}>, shape (..., a, n)."""
        dH = self.covariant_frame_derivative(self.mean_curvature)
        normals = self.frame_matrix[..., 2:, :]
        return np.einsum("...cd,...ac,...nd->...an", self.amb_g, dH, normals)

    @cached_property
    def tangent_connection(self):
        """theta_a = <bar nabla_{e_a} e1, e2> for a in {1, 2}."""
        # direction axis first, so the per-node metric broadcasts over it
        de1 = np.moveaxis(self.covariant_frame_derivative(self.e1), 2, 0)
        return np.moveaxis(self.dot(de1, self.e2), 0, -1)

    @cached_property
    def j12_kk(self):
        """Trace of the surface second covariant derivative of J_{12,.}.

        Assembled by differencing the J_{12,k} grid fields along the
        tangent frame and removing the frame-connection terms, so the
        result matches the value taken in a frame that is covariantly
        constant at the node.  Identically zero for a parallel J.
        """
        if self.ambient.constant_j and self.ambient.flat_metric:
            return np.zeros(self.cos_alpha.shape)
        jf = self.nabla_j_frame  # (..., k, a, b)
        phi = jf[..., :2, 0, 1]  # J_{12,k} for tangent k, (..., k)
        # e_k(phi_k)
        dphi = self.frame_derivative(phi)  # (..., a, k)
        total = dphi[..., 0, 0] + dphi[..., 1, 1]
        # tangential part of nabla_{e_k} e_k: <nabla_{e_k} e_k, e_l> phi_l
        theta = self.tangent_connection
        # <nabla_{e1} e1, e2> = theta_1, <nabla_{e2} e2, e1> = -<nabla_{e2} e1, e2>
        total -= theta[..., 0] * phi[..., 1]
        total -= -theta[..., 1] * phi[..., 0]
        # derivative of the frame legs inside J_{12,k}:
        # omega_{k;1b} J_{b2,k} + omega_{k;2b} J_{1b,k}, b normal -> h terms
        h = self.second_fundamental  # (..., n, a, b)
        for k in range(2):
            for n in range(2):
                total -= h[..., n, k, 0] * jf[..., k, n + 2, 1]
                total -= h[..., n, k, 1] * jf[..., k, 0, n + 2]
        return total


# -- generators --------------------------------------------------------


def _empty_periodic(n_theta, n_phi):
    return np.zeros((n_theta, n_phi, 4))


def zbar_graph(c: float, n_theta: int = 64, n_phi: int = 64) -> ImmersedSurface:
    """Graph of z -> c * conj(z) over the square torus.

    The Kahler angle is constant: cos(alpha) = (1 - c^2) / (1 + c^2).
    c = 0 is the flat complex line.
    """
    L = np.array([[1.0, 0.0], [0.0, 1.0], [c, 0.0], [0.0, -c]])
    return ImmersedSurface(L, _empty_periodic(n_theta, n_phi))


def holomorphic_graph(a: complex, b: complex = 0.0, n_theta: int = 64,
                      n_phi: int = 64) -> ImmersedSurface:
    """Affine complex graph z -> a z + b, holomorphic so cos(alpha) = 1."""
    a = complex(a)
    L = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [a.real, -a.imag],
            [a.imag, a.real],
        ]
    )
    P = _empty_periodic(n_theta, n_phi)
    b = complex(b)
    P[..., 2] += b.real
    P[..., 3] += b.imag
    return ImmersedSurface(L, P)


def _low_mode_bump(base: ImmersedSurface, eps: float,
                   modes: Sequence[int]) -> ImmersedSurface:
    th, ph = base.grids()
    k1, k2 = int(modes[0]), int(modes[1])
    P = base.periodic_part.copy()
    P[..., 0] += 0.2 * eps * np.sin(k2 * ph)
    P[..., 1] += 0.2 * eps * np.cos(k1 * th)
    P[..., 2] += eps * (np.sin(k1 * th) * np.cos(k2 * ph) + 0.3 * np.cos(k2 * ph))
    P[..., 3] += eps * (np.cos(k1 * th) * np.sin(k2 * ph) + 0.3 * np.sin(k1 * th))
    return ImmersedSurface(base.linear_part, P, base.t_theta, base.t_phi)


def perturbed_graph(
    c: float,
    eps: float,
    modes: Sequence[int] = (1, 1),
    n_theta: int = 64,
    n_phi: int = 64,
) -> ImmersedSurface:
    """zbar_graph(c) plus a smooth low-mode periodic perturbation."""
    return _low_mode_bump(zbar_graph(c, n_theta, n_phi), eps, modes)


def perturbed_holomorphic_graph(
    a: complex = 0.3,
    b: complex = 0.0,
    eps: float = 0.05,
    modes: Sequence[int] = (1, 1),
    n_theta: int = 64,
    n_phi: int = 64,
) -> ImmersedSurface:
    """holomorphic_graph(a, b) plus the same low-mode perturbation."""
    return _low_mode_bump(holomorphic_graph(a, b, n_theta, n_phi), eps, modes)


def lagrangian_torus(r1: float = 1.0, r2: float = 1.0, n_theta: int = 64,
                     n_phi: int = 64) -> ImmersedSurface:
    """Product of two circles; cos(alpha) vanishes identically."""
    P = _empty_periodic(n_theta, n_phi)
    th = np.arange(n_theta) * (TWO_PI / n_theta)
    ph = np.arange(n_phi) * (TWO_PI / n_phi)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    P[..., 0] = r1 * np.cos(TH)
    P[..., 1] = r1 * np.sin(TH)
    P[..., 2] = r2 * np.cos(PH)
    P[..., 3] = r2 * np.sin(PH)
    return ImmersedSurface(np.zeros((4, 2)), P)


def revolution_torus(big: float = 2.0, small: float = 0.5, n_theta: int = 64,
                     n_phi: int = 64) -> ImmersedSurface:
    """Torus of revolution inside the x4 = 0 hyperplane."""
    P = _empty_periodic(n_theta, n_phi)
    th = np.arange(n_theta) * (TWO_PI / n_theta)
    ph = np.arange(n_phi) * (TWO_PI / n_phi)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    ring = big + small * np.cos(PH)
    P[..., 0] = ring * np.cos(TH)
    P[..., 1] = ring * np.sin(TH)
    P[..., 2] = small * np.sin(PH)
    return ImmersedSurface(np.zeros((4, 2)), P)


# -- plain text serialization -----------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_surface(surface: ImmersedSurface, path) -> None:
    """Serialize a surface grid; 17 significant digits, row-major theta."""
    lines = [
        f"surf {surface.n_theta} {surface.n_phi} "
        f"{_fmt(surface.t_theta)} {_fmt(surface.t_phi)}",
        "linear " + " ".join(_fmt(v) for v in surface.linear_part.ravel()),
    ]
    flat = surface.periodic_part.reshape(-1, 4)
    for row in flat:
        lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_surface(path) -> ImmersedSurface:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("surf "):
        raise ValueError(f"{path}: missing surf header")
    head = lines[0].split()
    if len(head) != 5:
        raise ValueError(f"{path}: malformed surf header")
    n_theta, n_phi = int(head[1]), int(head[2])
    if n_theta < 1 or n_phi < 1:
        raise ValueError(f"{path}: grid sizes must be positive")
    t_theta, t_phi = float(head[3]), float(head[4])
    if len(lines) < 2 or not lines[1].startswith("linear "):
        raise ValueError(f"{path}: missing linear row")
    lvals = [float(v) for v in lines[1].split()[1:]]
    if len(lvals) != 8:
        raise ValueError(f"{path}: linear row needs 8 values")
    L = np.array(lvals).reshape(4, 2)
    body = lines[2:]
    if len(body) != n_theta * n_phi:
        raise ValueError(
            f"{path}: expected {n_theta * n_phi} node rows, got {len(body)}"
        )
    P = np.array([[float(v) for v in ln.split()] for ln in body])
    if P.shape[1] != 4:
        raise ValueError(f"{path}: node rows need 4 values")
    return ImmersedSurface(L, P.reshape(n_theta, n_phi, 4), t_theta, t_phi)
