"""Functions that only the tests read.

None of them is on a path of the package: each restates a quantity the
package computes another way, or checks an identity the package relies
on, so the tests can compare the two, or counts the calls a test
expects.
"""

from dataclasses import dataclass

import numpy as np

from symcrit.ambient import STANDARD_J, AmbientManifold, _vectorized
from symcrit.functional import _geometry, _j_tangent_grad, validate_beta


# the geometry holds its node fields entry by entry; the einsum references
# read them stacked, as these two helpers build them


def block(e00, e01, e10, e11):
    """The 2x2 block [[e00, e01], [e10, e11]] of node fields, its two axes
    after the node axes: (n_theta, n_phi, 2, 2) + the fields' own axes."""
    return np.stack([np.stack([e00, e01], axis=2), np.stack([e10, e11], axis=2)], axis=2)


def tangent_pair(G):
    """(F_theta, F_phi) stacked, index i in {theta, phi} before the chart axis."""
    return np.stack([G.fth, G.fph], axis=-2)


# the (i, j) of the four entries of a 2x2 block, in the order of ``block``
BLOCK_INDICES = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class CurvatureData:
    """Covariant curvature components with algebraic-identity residuals."""

    components: np.ndarray  # (..., 4, 4, 4, 4)
    antisymmetry_12: float
    antisymmetry_34: float
    pair_symmetry: float
    first_bianchi: float


def curvature_data(ambient, points) -> CurvatureData:
    """``ambient.curvature_at(points)`` with the largest residuals of its
    two antisymmetries, its pair symmetry and the first Bianchi sum."""
    K = ambient.curvature_at(points)
    a12 = float(np.max(np.abs(K + np.swapaxes(K, -4, -3))))
    a34 = float(np.max(np.abs(K + np.swapaxes(K, -2, -1))))
    # pair symmetry K_ABCD = K_CDAB
    perm = list(range(K.ndim))
    perm[-4:] = [perm[-2], perm[-1], perm[-4], perm[-3]]
    pair = float(np.max(np.abs(K - np.transpose(K, perm))))
    # first Bianchi, cyclic over the last three indices
    cyc1 = np.einsum("...acdb->...abcd", K)  # entry (a,b,c,d) -> K_acdb
    cyc2 = np.einsum("...adbc->...abcd", K)  # entry (a,b,c,d) -> K_adbc
    bianchi = float(np.max(np.abs(K + cyc1 + cyc2)))
    return CurvatureData(K, a12, a34, pair, bianchi)


def jj_grad_perp(geometry):
    """Normal part of J applied to the tangential part of J grad cos(alpha).

    Uses the pointwise identity in the parametric tangents
        (J grad cos a)^T = cos a (d_theta(cos a) F_phi - d_phi(cos a) F_theta)
                           / sqrt(det g):
    on the tangent plane J has tangential part cos a times the quarter
    turn, and the quarter turn of grad f is
    (d_theta f F_phi - d_phi f F_theta) / sqrt(det g).  This is the
    beta term of ``el_operator`` before its factor -beta, projected alone.
    """
    return geometry.project_normal(_j_tangent_grad(geometry))


def mean_curvature_frame(geometry):
    """(H^3, H^4), the frame trace h_11 + h_22 of the second fundamental
    form, (n_theta, n_phi, 2)."""
    h = geometry.second_fundamental
    return h[..., 0, 0] + h[..., 1, 1]


def el_components(surface, ambient, beta, geometry=None):
    """Component residuals of the two scalar critical equations.

        r3 = H^3 + beta cos^-2(a) (y d2 cos a - z d1 cos a)
        r4 = H^4 + beta cos^-2(a) (y d1 cos a + z d2 cos a)

    Evaluated in the adapted gauge (z = 0 wherever the frame adapts).
    Returns (r3, r4) grid fields.  A passed ``geometry`` must be the one
    of ``surface`` in ``ambient``, as for the package's functions.
    """
    beta = validate_beta(beta)
    G = _geometry(surface, ambient, geometry)
    fr = G.adapted_frame
    H = mean_curvature_frame(G)
    dc = G.grad_cos_frame
    inv2 = 1.0 / G.cos_alpha**2
    r3 = H[..., 0] + beta * inv2 * (fr.y * dc[..., 1] - fr.z * dc[..., 0])
    r4 = H[..., 1] + beta * inv2 * (fr.y * dc[..., 0] + fr.z * dc[..., 1])
    return r3, r4


def counted(fn, shapes):
    """``fn``, appending the node shape of the points of each call to ``shapes``."""

    def wrapper(points, *args, **kwargs):
        shapes.append(np.shape(points)[:-1])
        return fn(points, *args, **kwargs)

    return wrapper


def _product_metric(points):
    """diag(a, a, 1, 1) with a = 1 + 0.3 cos p1."""
    g = np.zeros(np.shape(points)[:-1] + (4, 4))
    g[..., 0, 0] = g[..., 1, 1] = 1.0 + 0.3 * np.cos(points[..., 0])
    g[..., 2, 2] = g[..., 3, 3] = 1.0
    return g


def _product_metric_derivative(points):
    """d_c g_ab of ``_product_metric``, derivative index first: only
    d_1 g_11 = d_1 g_22 = -0.3 sin p1 is non-zero."""
    dg = np.zeros(np.shape(points)[:-1] + (4, 4, 4))
    dg[..., 0, 0, 0] = dg[..., 0, 1, 1] = -0.3 * np.sin(points[..., 0])
    return dg


# A Kaehler product: g = I + Hess(phi) + J^T Hess(phi) J for phi = -0.3 cos p1,
# with the standard J, so omega = a dp1^dp2 + dp3^dp4 is closed and nabla J = 0.
# It depends on p1 alone, so translation along the phi winding (0, 1, 0, -c) of
# zbar_graph(c) is an isometry that preserves J.  The graph itself solves the
# reduced area equation d/dtheta (dl/du') = 0, as dl/du' = c on it, so by the
# principle of symmetric criticality (Palais, Comm. Math. Phys. 69, 1979) it
# is critical at beta = 0.
KAHLER_PRODUCT = AmbientManifold(
    metric_field=_product_metric,
    j_field=lambda p: np.broadcast_to(STANDARD_J, np.shape(p)[:-1] + (4, 4)),
    metric_derivative_field=_product_metric_derivative,
    name="kahler_product",
)


# the node fields of the generators, positions() and the first-variation
# fields as formulas on the full (n_theta, n_phi) grid, every sin and cos
# taken at every node: the package takes them on the node vectors


def full_grids(surface):
    """(theta, phi) at every node, each (n_theta, n_phi), by np.meshgrid."""
    return _meshgrid(surface.n_theta, surface.n_phi, surface.t_theta, surface.t_phi)


def _meshgrid(n_theta, n_phi, t_theta=2.0 * np.pi, t_phi=2.0 * np.pi):
    return np.meshgrid(np.arange(n_theta) * (t_theta / n_theta),
                       np.arange(n_phi) * (t_phi / n_phi), indexing="ij")


def grid_bump(base, eps, modes=(1, 1)):
    """``base`` plus the low-mode bump of ``perturbed_graph``."""
    th, ph = full_grids(base)
    k1, k2 = int(modes[0]), int(modes[1])
    P = base.periodic_part.copy()
    P[..., 0] += 0.2 * eps * np.sin(k2 * ph)
    P[..., 1] += 0.2 * eps * np.cos(k1 * th)
    P[..., 2] += eps * (np.sin(k1 * th) * np.cos(k2 * ph) + 0.3 * np.cos(k2 * ph))
    P[..., 3] += eps * (np.cos(k1 * th) * np.sin(k2 * ph) + 0.3 * np.sin(k1 * th))
    return P


def grid_lagrangian_torus(r1, r2, n_theta, n_phi):
    th, ph = _meshgrid(n_theta, n_phi)
    return np.stack([r1 * np.cos(th), r1 * np.sin(th),
                     r2 * np.cos(ph), r2 * np.sin(ph)], axis=-1)


def grid_revolution_torus(big, small, n_theta, n_phi):
    th, ph = _meshgrid(n_theta, n_phi)
    ring = big + small * np.cos(ph)
    return np.stack([ring * np.cos(th), ring * np.sin(th),
                     small * np.sin(ph), np.zeros_like(th)], axis=-1)


def grid_positions(surface):
    th, ph = full_grids(surface)
    L = surface.linear_part
    return th[..., None] * L[:, 0] + ph[..., None] * L[:, 1] + surface.periodic_part


def grid_variation_fields(G):
    """The three first-variation fields before their normal projection."""
    th, ph = full_grids(G.surface)
    raw = np.zeros((3,) + th.shape + (4,))
    raw[..., 2] = np.sin(th) * np.cos(ph), 0.3 * np.cos(th), np.sin(th + ph)
    raw[..., 3] = 0.5 * np.cos(ph), np.sin(ph) * np.cos(th), 0.4 * np.sin(th) * np.sin(ph)
    return raw


def full_hessian_table(expr):
    """Hess of the sympy expression ``expr`` in p1..p4 as a callable, all
    sixteen entries ``sp.diff(expr, a, b)`` taken one by one."""
    import sympy as sp

    coords = sp.symbols("p1 p2 p3 p4")
    second = [sp.diff(expr, a, b) for a in coords for b in coords]
    return _vectorized(coords, second, (4, 4))
