"""Doubly periodic immersed surfaces and their discrete geometry.

A surface is a map F(theta, phi) = L (theta, phi)^T + P(theta, phi)
into the ambient chart, with L a constant 4x2 matrix carrying the
winding of the torus and P a smooth doubly periodic 4-vector sampled
on a regular grid (no seam duplication: theta_i = i T_theta / n).

Parametric derivatives use 4th-order periodic central differences on P
plus the exact contribution of the linear part.  The first partials of
P and its three second partials are cached as contiguous node fields,
the second only once a reader needs W_ij.  All node-level tensors
are cached lazily on :class:`SurfaceGeometry`, which reads the ambient
through its sample at the nodes (``AmbientManifold.sample``).  Normal
parts are taken in coordinates, v - g^ij <v, F_j> F_i with F_i the
parametric tangents and g^ij the inverse induced metric, so the
functional, the critical operator and the flow build no frame at all;
the orthonormal frame below is assembled only for the frame components
the checks read.  It is held as its four legs, each a contiguous
(..., 4) node field, and the frame quantities below reduce one leg or
one direction field at a time: derivatives along e1 and e2 are taken as
one contiguous field per direction.  The ambient samples stack the legs
where their batched products need one array.

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

from .ambient import STRUCTURE_TOL, AmbientManifold, _dot
from .errors import AmbientDegenerate, NotImmersed

__all__ = [
    "ImmersedSurface",
    "AdaptedFrame",
    "SurfaceGeometry",
    "check_winding_periodic",
    "read_surface",
    "write_surface",
    "zbar_graph",
    "holomorphic_graph",
    "perturbed_graph",
    "perturbed_holomorphic_graph",
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
        if np.iscomplexobj(self.linear_part) or np.iscomplexobj(self.periodic_part):
            raise ValueError("surface data must be real")
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
        if not (0 < self.t_theta < np.inf and 0 < self.t_phi < np.inf):
            raise ValueError(
                f"periods must be finite and positive, got {self.t_theta}, {self.t_phi}"
            )
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
        """The open node grid: theta (n_theta, 1) and phi (1, n_phi)."""
        return _grids(self.n_theta, self.n_phi, self.t_theta, self.t_phi)

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


def _grids(n_theta, n_phi, t_theta=TWO_PI, t_phi=TWO_PI):
    """The node vectors theta_i = i * t_theta / n_theta, shaped (n_theta, 1),
    and phi_j = j * t_phi / n_phi, shaped (1, n_phi): they broadcast to
    the node grid, so a separable field takes its sin and cos on them."""
    th = np.arange(n_theta) * (t_theta / n_theta)
    ph = np.arange(n_phi) * (t_phi / n_phi)
    return th[:, None], ph[None, :]


def check_winding_periodic(surface: ImmersedSurface, ambient: AmbientManifold) -> None:
    """Raise AmbientDegenerate unless the ambient's metric and J repeat
    one period along each winding direction of ``surface``.

    The torus closes in the ambient's quotient only where its fields
    do; elsewhere every check and the flow read fields that jump across
    the seam, and give wrong numbers without an error.  The fields on
    the theta = 0 node line are compared with their values at
    pos + t_theta L[:, 0], those on the phi = 0 line with their values
    at pos + t_phi L[:, 1], both ends in one sample, whose ``fields``
    are checked as ``metric_at`` and ``j_at`` check them.  A difference
    above ``STRUCTURE_TOL`` relative to the field's size raises, naming
    the field and the direction.  A conformal sample compares exp(2 lam),
    whose gap and size are the metric's, as J is constant; the flat sample
    has no fields to compare, so the flat ambient computes no node line.
    """
    S, L = surface, surface.linear_part
    lines = {"theta": (1, S.n_phi), "phi": (S.n_theta, 1)}
    for k, (direction, shape) in enumerate(lines.items()):
        def ends(k=k, shape=shape):  # the node line and its image, stacked
            th, ph = _grids(*shape, S.t_theta, S.t_phi)
            pos = th[..., None] * L[:, 0] + ph[..., None] * L[:, 1]
            pos += S.periodic_part[:shape[0], :shape[1]]
            return np.stack([pos, pos + (S.t_theta, S.t_phi)[k] * L[:, k]])

        for field, (here, there) in ambient.sample(ends).fields():
            gap = float(np.max(np.abs(there - here)))
            if not gap <= STRUCTURE_TOL * (1.0 + float(np.max(np.abs(here)))):
                raise AmbientDegenerate(
                    f"{field} of {ambient.name} is not periodic along the "
                    f"surface's {direction} winding: it changes by {gap:.3e} "
                    f"one period along, at pos + t L[:, {k}]"
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
    """4th-order periodic central first derivative along a grid axis,
    (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12 h), evaluated in place
    into one output in that order."""
    fm2, fm1, fp1, fp2 = _neighbours(field, axis)
    out = np.subtract(fp1, fm1)
    out *= 8.0
    out -= fp2 - fm2
    out /= 12.0 * spacing
    return out


def periodic_d2(field: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """4th-order periodic central second derivative along a grid axis,
    (-30 f[i] + 16 (f[i+1] + f[i-1]) - (f[i+2] + f[i-2])) / (12 h^2),
    evaluated in place into one output and one scratch field in that
    order: 16 (...) + (-30 f[i]) has the bits of -30 f[i] + 16 (...)."""
    fm2, fm1, fp1, fp2 = _neighbours(field, axis)
    out = np.add(fp1, fm1)
    out *= 16.0
    tmp = np.multiply(field, -30.0)
    out += tmp
    out -= np.add(fp2, fm2, out=tmp)
    out /= 12.0 * spacing**2
    return out


# -- node-level geometry ----------------------------------------------


def _checked_det(g00, g01, g11):
    """det g = g00 g11 - g01^2 of the induced metric entries at the nodes;
    raises NotImmersed where det g <= 1e-14 ((g00 + g11) / 2)^2, that is
    4 l1 l2 / (l1 + l2)^2 <= 1e-14 for the eigenvalues l1, l2 of g: where
    the tangents are near parallel or one is short beside the other.  The
    gate is scale free: a scaled surface meets it where the unscaled does."""
    det = g00 * g11 - g01 ** 2
    singular = det <= 0.25e-14 * (g00 + g11) ** 2
    if np.any(singular):
        raise NotImmersed(f"induced metric singular at {int(np.sum(singular))} nodes")
    return det


def _sum4(p):
    """Sum over a last axis of length 4 as (p0 + p2) + (p1 + p3).

    That is the order numpy's vectorised einsum loop uses for such an
    axis, so flat-ambient values equal those of the einsum expressions
    the tests keep as reference, bit for bit.
    """
    return (p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])


@dataclass
class AdaptedFrame:
    """Orthonormal 4-frames with the normal pair in the adapted gauge.

    The legs ``e1`` .. ``e4`` are held as four C-contiguous (..., 4) node
    fields, so every reduction over a leg's components reads contiguous
    memory.  ``matrix`` stacks them afresh on each read, ``matrix[..., a,
    :]`` = e_{a+1}, for a reader that wants one (..., 4, 4) array.
    ``coeff[..., i, a]`` writes the tangent pair in the parametric
    tangents: e_a = sum_i coeff[i, a] d_i F for a, i in {0, 1}.
    Gram-Schmidt makes it upper triangular, and ``coeff[..., 1, 0]`` is
    +0.0 bit for bit at every node, adapted or not: the closed form of
    ``SurfaceGeometry.second_fundamental`` drops the terms it multiplies.
    """

    e1: np.ndarray  # (..., 4) each
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    coeff: np.ndarray  # (..., 2, 2), upper triangular
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    adapted: np.ndarray  # bool mask, False where sin(alpha) <= FRAME_TOL

    @property
    def legs(self):
        """(e1, e2, e3, e4)."""
        return self.e1, self.e2, self.e3, self.e4

    @property
    def matrix(self):
        """The legs stacked as rows, (..., 4, 4), built on each read."""
        return np.stack(self.legs, axis=-2)


class SurfaceGeometry:
    """Lazy cache of discrete geometric fields of a surface in an ambient.

    Every array is indexed (n_theta, n_phi, ...).  Tangent frame indices
    run over {1, 2} and are stored 0-based; normal indices {3, 4} live
    in axes of length 2 ordered (e3, e4).  The frame is held once, in
    ``adapted_frame``: every frame quantity reads its four contiguous
    legs and its tangent coefficients ``coeff``.

    Node fields that the package contracts entry by entry are held as
    contiguous fields, in one form each: the induced metric and its
    inverse (the three entries of each) and W_ij (the four fields
    ``_accel_entries``).
    """

    def __init__(self, surface: ImmersedSurface, ambient: AmbientManifold):
        self.surface = surface
        self.ambient = ambient

    # ---- parametric derivatives

    @property
    def pos(self):
        return self._sample.points

    @cached_property
    def _first_partials(self):
        """(d_theta P, d_phi P): first partials of the periodic part."""
        S = self.surface
        P = S.periodic_part
        return periodic_d1(P, 0, S.h_theta), periodic_d1(P, 1, S.h_phi)

    @cached_property
    def _second_partials(self):
        """(d_theta^2 P, d_phi^2 P, d_theta d_phi P), taken on first read
        only: a geometry that ``l_beta`` alone reads never takes them."""
        S = self.surface
        P = S.periodic_part
        return (periodic_d2(P, 0, S.h_theta), periodic_d2(P, 1, S.h_phi),
                periodic_d1(self._first_partials[0], 1, S.h_phi))

    @cached_property
    def fth(self):
        return self.surface.linear_part[:, 0] + self._first_partials[0]

    @cached_property
    def fph(self):
        return self.surface.linear_part[:, 1] + self._first_partials[1]

    # ---- the ambient at the nodes

    @cached_property
    def _sample(self):
        """The ambient at the nodes; every use of the metric is its ``lower``."""
        return self.ambient.sample(self.surface.positions)

    # ---- induced metric and area

    def dot(self, u, v):
        """Ambient inner product of chart vector fields on the grid."""
        return _dot(u, self._lower(v))

    def _lower(self, v):
        """g v for a chart vector field, lowered as a one-row stack, so
        axes of v before the node axes broadcast like those of a field."""
        return self._sample.lower(np.asarray(v)[..., None, :])[..., 0, :]

    @cached_property
    def _coordinate_covectors(self):
        """(g F_theta, g F_phi): the parametric tangents lowered."""
        return self._lower(self.fth), self._lower(self.fph)

    @cached_property
    def _metric_entries(self):
        """(g_00, g_01, g_11): the induced metric as contiguous node fields,
        indices 0-based over (theta, phi)."""
        fth, fph = self.fth, self.fph
        gth, gph = self._coordinate_covectors
        return _sum4(fth * gth), _sum4(fth * gph), _sum4(fph * gph)

    @cached_property
    def det_induced(self):
        return _checked_det(*self._metric_entries)

    @cached_property
    def sqrt_det(self):
        return np.sqrt(self.det_induced)

    @cached_property
    def _inverse_entries(self):
        """(g^00, g^01, g^11): the inverse induced metric as contiguous node
        fields; g^10 = g^01."""
        g00, g01, g11 = self._metric_entries
        det = self.det_induced
        return g11 / det, -g01 / det, g00 / det

    @cached_property
    def area_weights(self):
        S = self.surface
        return self.sqrt_det * (S.h_theta * S.h_phi)

    # ---- Kahler angle

    @cached_property
    def cos_alpha(self):
        """cos(alpha) = omega(F_theta, F_phi) / sqrt(det g_ij).

        omega = <J F_theta, F_phi>, taken as ``dot`` of ``apply_j(F_theta)``
        and F_phi in every ambient.
        """
        return self.dot(self.apply_j(self.fth), self.fph) / self.sqrt_det

    @cached_property
    def sin_alpha(self):
        return np.sqrt(np.clip(1.0 - self.cos_alpha**2, 0.0, None))

    # ---- normal projection and J

    def project_normal(self, v):
        """Normal part of chart vectors: v - g^ij <v, F_j> F_i.

        The node axes of the tangents broadcast against the axes of ``v``
        before its last, so a stack of fields is projected in one call.
        Raises NotImmersed where the induced metric is singular.
        """
        v = np.asarray(v)
        i00, i01, i11 = self._inverse_entries
        cth, cph = (_dot(v, co) for co in self._coordinate_covectors)
        ath = i00 * cth + i01 * cph
        aph = i01 * cth + i11 * cph
        return v - ath[..., None] * self.fth - aph[..., None] * self.fph

    def apply_j(self, v):
        """J v for a chart vector field on the grid; on a conformal
        ambient, the flat one included, without node positions."""
        return self._sample.apply_j(v)

    # ---- adapted frame

    @cached_property
    def adapted_frame(self) -> AdaptedFrame:
        """The one frame of the geometry: e1, e2 by Gram-Schmidt on
        (F_theta, F_phi), then the normal pair (see the module docstring).
        """
        self.det_induced  # raises NotImmersed before F_theta is normalised
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
        je1 = self.apply_j(e1)
        x = self.dot(je1, e2)
        e3 = self.project_normal(je1)
        r = np.sqrt(self.dot(e3, e3))
        ok = r > FRAME_TOL
        e3 /= np.where(ok, r, 1.0)[..., None]
        if not ok.all():
            # row B: normal part of chart axis B, kept at unadapted nodes, (m, 4, 4)
            axes = self.project_normal(np.eye(4)[:, None, None, :])
            axes = np.moveaxis(axes, 0, -2)
            norms = _dot(axes, self._sample.lower(axes))[~ok]
            axes = axes[~ok]
            best = np.argmax(norms, axis=-1)
            m = np.arange(best.size)
            e3[~ok] = axes[m, best] / np.sqrt(norms[m, best])[:, None]
        y = self.dot(je1, e3)
        w = x[..., None] * e3 - y[..., None] * e2
        e4 = self.project_normal(self.apply_j(w))
        e4 -= self.dot(e4, e3)[..., None] * e3
        e4 /= np.sqrt(self.dot(e4, e4))[..., None]
        z = self.dot(je1, e4)
        return AdaptedFrame(e1, e2, e3, e4, coeff, x, y, z, ok)

    # ---- second fundamental form and mean curvature

    @cached_property
    def _accel_entries(self):
        """(W_00, W_01, W_10, W_11), i and j in {0, 1} = {theta, phi}:
        W_ij = d_i d_j F plus the ambient's Christoffel term Gamma(F_i, F_j),
        each a contiguous (..., 4) field, W_01 and W_10 one array.  In a
        flat ambient they are the ``_second_partials`` themselves."""
        dtt, dpp, dtp = self._second_partials
        if self._sample.flat:
            return dtt, dtp, dtp, dpp
        fth, fph, gamma = self.fth, self.fph, self._sample.christoffel
        W00, W01, W11 = (d + gamma(X, Y) for d, X, Y in
                         ((dtt, fth, fth), (dtp, fth, fph), (dpp, fph, fph)))
        return W00, W01, W01, W11

    @cached_property
    def _normal_covectors(self):
        """(g e3, g e4), two contiguous (..., 4) fields: the pair is
        lowered as one stack, whose rows are copied out."""
        fr = self.adapted_frame
        co = self._sample.lower(np.stack((fr.e3, fr.e4), axis=-2))
        return np.ascontiguousarray(co[..., 0, :]), np.ascontiguousarray(co[..., 1, :])

    @cached_property
    def second_fundamental(self):
        """h[..., n, a, b] = <bar nabla_{e_a} e_b, e_{n+3}> in the frame.

        With w_ij = <W_ij, e_{n+3}> this is the symmetric part of
        sum_ij C_ia C_jb w_ij, C = ``adapted_frame.coeff``.  C is upper
        triangular with C[1, 0] = +0.0 exactly, so every term with a
        C[1, 0] factor is a signed zero and drops out.  The closed form
        below keeps the surviving terms in the order of the general sum
        ((i, j) over (0,0), (1,0), (0,1), (1,1), products formed as
        (C_ia C_jb) w_ij).  The + 0.0 of each entry stands for that
        sum's +0.0 start and comes before the halving, as the start does;
        it turns the -0.0 of an underflowing coefficient product into
        +0.0.  So the bits are those of the general sum, signs of zero
        included.  w_10 is read on its own, so the form is the general
        sum's for any W_ij, although ``_accel_entries`` makes W_01 and
        W_10 one array.
        """
        W00, W01, W10, W11 = self._accel_entries
        C = self.adapted_frame.coeff
        c00, c01, c11 = C[..., 0, 0], C[..., 0, 1], C[..., 1, 1]
        out = np.empty(c00.shape + (2, 2, 2))
        for n, co in enumerate(self._normal_covectors):
            w00, w10, w01, w11 = (_dot(W, co) for W in (W00, W10, W01, W11))
            h = out[..., n, :, :]
            h[..., 0, 0] = (c00 * c00) * w00 + 0.0
            h[..., 0, 1] = ((((c00 * c01) * w00 + (c00 * c11) * w01)
                             + ((c01 * c00) * w00 + (c11 * c00) * w10)) + 0.0) * 0.5
            h[..., 1, 0] = h[..., 0, 1]
            h[..., 1, 1] = ((((c01 * c01) * w00 + (c11 * c01) * w10)
                             + (c01 * c11) * w01) + (c11 * c11) * w11) + 0.0
        return out

    @cached_property
    def _raw_mean_curvature(self):
        """g^ij W_ij in chart components, before the normal projection.

        Summed as (((g^00 W_00 + g^01 W_01) + g^10 W_10) + g^11 W_11) + 0.0
        from the contiguous entries, the order of
        np.einsum("...ij,...ija->...a") on the entries stacked as 2x2
        blocks, which starts from +0.0: the final + 0.0 turns a sum of
        four -0.0 products into +0.0 and changes nothing else.  So the
        bits are the einsum's.
        """
        i00, i01, i11 = (e[..., None] for e in self._inverse_entries)
        W00, W01, W10, W11 = self._accel_entries
        out = i00 * W00
        out += i01 * W01
        out += i01 * W10
        out += i11 * W11
        out += 0.0
        return out

    @cached_property
    def mean_curvature(self):
        """Mean curvature vector in chart components (gauge independent)."""
        return self.project_normal(self._raw_mean_curvature)

    # ---- derivatives of the angle

    def _frame_derivatives(self, field):
        """[e1(field), e2(field)]: the derivatives of a grid field along e1
        and e2, each a contiguous field of the shape of ``field``, taken as
        coeff[0, a] d_theta field + coeff[1, a] d_phi field, each
        parametric partial taken once."""
        S = self.surface
        d_theta = periodic_d1(field, 0, S.h_theta)
        d_phi = periodic_d1(field, 1, S.h_phi)
        C = self.adapted_frame.coeff
        C = C.reshape(C.shape + (1,) * (field.ndim - 2))
        out = []
        for a in range(2):
            d = C[:, :, 0, a] * d_theta
            d += C[:, :, 1, a] * d_phi
            out.append(d)
        return out

    def frame_derivative(self, field):
        """Derivatives of a grid field along (e1, e2), the direction as axis 2.

        A scalar field gives (..., 2), a chart vector field (..., 2, 4):
        the two fields of ``_frame_derivatives``, stacked.
        """
        return np.stack(self._frame_derivatives(field), axis=2)

    @cached_property
    def grad_cos_frame(self):
        """Frame components (e1, e2) of the surface gradient of cos(alpha)."""
        return self.frame_derivative(self.cos_alpha)

    def _covariant_frame_derivatives(self, vfield):
        """[bar nabla_{e1} V, bar nabla_{e2} V] for a chart vector field V,
        each a contiguous (..., 4) field: ``_frame_derivatives`` plus the
        Christoffel term Gamma(e_a, V) on the contiguous leg."""
        ds = self._frame_derivatives(vfield)
        if not self._sample.flat:
            gamma = self._sample.christoffel
            fr = self.adapted_frame
            for d, e in zip(ds, (fr.e1, fr.e2)):
                d += gamma(e, vfield)
        return ds

    def covariant_frame_derivative(self, vfield):
        """Ambient covariant derivatives of a chart vector field along (e1, e2).

        Shape (..., 2, 4), the direction as axis 2, like ``frame_derivative``:
        the two fields of ``_covariant_frame_derivatives``, stacked.
        """
        return np.stack(self._covariant_frame_derivatives(vfield), axis=2)

    def laplace_beltrami(self, field):
        """Divergence-form Laplace-Beltrami of a scalar grid field."""
        S = self.surface
        d0 = periodic_d1(field, 0, S.h_theta)
        d1 = periodic_d1(field, 1, S.h_phi)
        i00, i01, i11 = self._inverse_entries
        w = self.sqrt_det
        q0 = w * (i00 * d0 + i01 * d1)
        q1 = w * (i01 * d0 + i11 * d1)
        div = periodic_d1(q0, 0, S.h_theta) + periodic_d1(q1, 1, S.h_phi)
        return div / w

    # ---- frame components of ambient tensors

    @cached_property
    def nabla_j_frame(self):
        """J_{ab,k} = <(nabla_{e_k} J) e_a, e_b>_g along the tangent legs,
        shape (..., k, a, b) = (..., 2, 4, 4).

        k runs over (e1, e2) and a and b over the full frame: the tangent
        block that every reader but the cyclic condition reads, and that
        the symmetric condition bounds.  ``nabla_j_along`` gives other legs.
        """
        return self.nabla_j_along((0, 1))

    def nabla_j_along(self, legs):
        """The J_{ab,k} table with k over the 0-based frame indices ``legs``,
        shape (..., len(legs), 4, 4), taken afresh on each call.  In a flat
        ambient it is a read-only zero table, and no frame is built for it.
        """
        if self._sample.flat:  # read-only: every reader slices the table
            S = self.surface
            return np.broadcast_to(0.0, (S.n_theta, S.n_phi, len(legs), 4, 4))
        return self._sample.nabla_j_frame(self.adapted_frame.legs, legs)

    @cached_property
    def curvature_frame_components(self):
        """(K_1213, K_1224) = (K(e1, e2, e1, e3), K(e1, e2, e2, e4))."""
        if self._sample.flat:
            return np.zeros(self.cos_alpha.shape), np.zeros(self.cos_alpha.shape)
        return self._sample.curvature_frame(self.adapted_frame.legs)

    # ---- assembled second-order frame quantities

    @cached_property
    def mean_curvature_normal_derivative(self):
        """H^n_{,a} = <bar nabla_{e_a} H, e_{n+3}>, shape (..., a, n).

        Each entry is one ``_dot`` of a contiguous direction field with a
        contiguous normal covector, in ``_dot``'s fixed order.
        """
        dH = self._covariant_frame_derivatives(self.mean_curvature)
        co = self._normal_covectors
        out = np.empty(dH[0].shape[:-1] + (2, 2))
        for a in range(2):
            for n in range(2):
                out[..., a, n] = _dot(dH[a], co[n])
        return out

    @cached_property
    def tangent_connection(self):
        """theta_a = <bar nabla_{e_a} e1, e2> for a in {1, 2}."""
        fr = self.adapted_frame
        ge2 = self._lower(fr.e2)
        out = np.empty(ge2.shape[:-1] + (2,))
        for a, de1 in enumerate(self._covariant_frame_derivatives(fr.e1)):
            out[..., a] = _dot(de1, ge2)
        return out

    @cached_property
    def j12_kk(self):
        """Trace of the surface second covariant derivative of J_{12,.}: the
        J_{12,k} grid fields differenced along the tangent frame less the
        frame-connection terms, its value in a frame covariantly constant at
        the node.  Zero for a parallel J, so zeros in a flat ambient."""
        if self._sample.flat:
            return np.zeros(self.cos_alpha.shape)
        jf = self.nabla_j_frame  # (..., k, a, b), k tangent
        phi = jf[..., 0, 1]  # J_{12,k}, (..., k)
        # e_k(phi_k)
        d1, d2 = self._frame_derivatives(phi)  # e_a(phi), (..., k) each
        total = d1[..., 0] + d2[..., 1]
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


def zbar_graph(c: float, n_theta: int = 64, n_phi: int = 64) -> ImmersedSurface:
    """Graph of z -> c * conj(z) over the square torus.

    The Kahler angle is constant: cos(alpha) = (1 - c^2) / (1 + c^2).
    c = 0 is the flat complex line.
    """
    L = np.array([[1.0, 0.0], [0.0, 1.0], [c, 0.0], [0.0, -c]])
    return ImmersedSurface(L, np.zeros((n_theta, n_phi, 4)))


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
    P = np.zeros((n_theta, n_phi, 4))
    b = complex(b)
    P[..., 2] += b.real
    P[..., 3] += b.imag
    return ImmersedSurface(L, P)


def _low_mode_bump(base: ImmersedSurface, eps: float,
                   modes: Sequence[int]) -> ImmersedSurface:
    # each term is a theta factor times a phi factor: sin and cos run on
    # the node vectors, and broadcasting forms the products node by node
    th, ph = base.grids()
    k1, k2 = int(modes[0]), int(modes[1])
    s1, c1 = np.sin(k1 * th), np.cos(k1 * th)
    s2, c2 = np.sin(k2 * ph), np.cos(k2 * ph)
    P = base.periodic_part.copy()
    P[..., 0] += 0.2 * eps * s2
    P[..., 1] += 0.2 * eps * c1
    P[..., 2] += eps * (s1 * c2 + 0.3 * c2)
    P[..., 3] += eps * (c1 * s2 + 0.3 * s1)
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
    P = np.zeros((n_theta, n_phi, 4))
    TH, PH = _grids(n_theta, n_phi)
    P[..., 0] = r1 * np.cos(TH)
    P[..., 1] = r1 * np.sin(TH)
    P[..., 2] = r2 * np.cos(PH)
    P[..., 3] = r2 * np.sin(PH)
    return ImmersedSurface(np.zeros((4, 2)), P)


def revolution_torus(big: float = 2.0, small: float = 0.5, n_theta: int = 64,
                     n_phi: int = 64) -> ImmersedSurface:
    """Torus of revolution inside the x4 = 0 hyperplane."""
    P = np.zeros((n_theta, n_phi, 4))
    TH, PH = _grids(n_theta, n_phi)
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


def _parsed(path, kind, values, message):
    """``values`` read as ``kind``; ValueError "``path``: ``message``" when
    one of them does not read."""
    try:
        return [kind(v) for v in values]
    except ValueError:
        raise ValueError(f"{path}: {message}") from None


def read_surface(path) -> ImmersedSurface:
    """Read a surface written by ``write_surface``; every malformed block
    raises ValueError with a message that begins with ``path``."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("surf "):
        raise ValueError(f"{path}: missing surf header")
    head = lines[0].split()
    if len(head) != 5:
        raise ValueError(f"{path}: malformed surf header")
    n_theta, n_phi = _parsed(path, int, head[1:3], "grid sizes must be integers")
    if n_theta < 1 or n_phi < 1:
        raise ValueError(f"{path}: grid sizes must be positive")
    t_theta, t_phi = _parsed(path, float, head[3:], "periods must be numbers")
    if len(lines) < 2 or not lines[1].startswith("linear "):
        raise ValueError(f"{path}: missing linear row")
    lvals = _parsed(path, float, lines[1].split()[1:], "linear row must hold numbers")
    if len(lvals) != 8:
        raise ValueError(f"{path}: linear row needs 8 values")
    L = np.array(lvals).reshape(4, 2)
    body = [ln.split() for ln in lines[2:]]
    if len(body) != n_theta * n_phi:
        raise ValueError(
            f"{path}: expected {n_theta * n_phi} node rows, got {len(body)}"
        )
    if any(len(row) != 4 for row in body):
        raise ValueError(f"{path}: node rows need 4 values")
    P = np.array([_parsed(path, float, row, "node rows must hold numbers") for row in body])
    try:
        return ImmersedSurface(L, P.reshape(n_theta, n_phi, 4), t_theta, t_phi)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
