"""Tests for immersed tori, adapted frames, and surface geometry."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcrit.ambient import STANDARD_J, AmbientManifold, conformal, euclidean_c2
from symcrit.errors import AmbientDegenerate, NotImmersed
from symcrit.functional import el_operator, jj_grad_perp, l_beta
from symcrit.surface import (
    ImmersedSurface,
    SurfaceGeometry,
    holomorphic_graph,
    lagrangian_torus,
    periodic_d1,
    periodic_d2,
    perturbed_graph,
    perturbed_holomorphic_graph,
    read_surface,
    revolution_torus,
    write_surface,
    zbar_graph,
)
from symcrit.verify import condition_cyclic_residuals

EUC = euclidean_c2()
CONF = conformal("0.1*sin(p1) + 0.05*cos(p2)")


def geometry(surface, ambient=EUC):
    return SurfaceGeometry(surface, ambient)


# frozen by an independent symbolic computation of the trace of the
# second fundamental form for the (R, r) = (2, 1/2) torus of revolution
TORUS_H_AT_ZERO = (-2.4, 0.0, 0.0, 0.0)


# -- angle values on model surfaces -----------------------------------


@pytest.mark.parametrize("c", [0.3, 0.5, 0.7])
def test_zbar_graph_angle_closed_form(c):
    G = geometry(zbar_graph(c, n_theta=32, n_phi=32))
    expected = (1.0 - c * c) / (1.0 + c * c)
    assert np.max(np.abs(G.cos_alpha - expected)) < 1e-12


def test_holomorphic_graph_angle_is_one():
    G = geometry(holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16))
    assert np.max(np.abs(G.cos_alpha - 1.0)) < 1e-12
    assert np.max(G.sin_alpha) < 1e-6


def test_lagrangian_torus_angle_is_zero():
    G = geometry(lagrangian_torus(1.0, 1.0, n_theta=16, n_phi=16))
    assert np.max(np.abs(G.cos_alpha)) < 1e-13
    assert np.min(G.sin_alpha) > 1.0 - 1e-13


def test_angle_between_zero_and_one_on_generic_surface():
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32))
    assert np.all(G.cos_alpha > 0)
    assert np.all(G.cos_alpha <= 1.0)


# -- adapted frame ----------------------------------------------------


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
@pytest.mark.parametrize(
    "surface",
    [perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24),
     revolution_torus(2.0, 0.5, n_theta=24, n_phi=24),
     holomorphic_graph(0.3, -0.2, n_theta=24, n_phi=24),
     lagrangian_torus(n_theta=24, n_phi=24)],
    ids=["graph", "torus", "holomorphic", "lagrangian"],
)
def test_frame_orthonormal(surface, ambient):
    """Orthonormal and chart-oriented, also on all-unadapted (holomorphic)
    and cos(alpha) = 0 (Lagrangian) input."""
    G = geometry(surface, ambient)
    fr = G.adapted_frame
    vecs = [fr.e1, fr.e2, fr.e3, fr.e4]
    for a in range(4):
        for b in range(4):
            got = G.dot(vecs[a], vecs[b])
            want = 1.0 if a == b else 0.0
            assert np.max(np.abs(got - want)) < 1e-10
    assert np.all(np.linalg.det(G.frame_matrix) > 0)


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
def test_frame_j_matrix_structure(ambient):
    """<J e_a, e_b> takes the two-parameter antisymmetric shape.

    The six independent entries reduce to three numbers (x, y, z) with
    J_12 = J_34 = x, J_13 = -J_24 = y, J_14 = J_23 = z, and the triple
    lies on the unit sphere.
    """
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), ambient)
    fr = G.adapted_frame
    vecs = [fr.e1, fr.e2, fr.e3, fr.e4]
    J = G.amb_j
    M = np.empty(G.cos_alpha.shape + (4, 4))
    for a in range(4):
        jv = np.einsum("...ab,...b->...a", J, vecs[a])
        for b in range(4):
            M[..., a, b] = G.dot(jv, vecs[b])
    x, y, z = M[..., 0, 1], M[..., 0, 2], M[..., 0, 3]
    assert np.max(np.abs(M + np.swapaxes(M, -1, -2))) < 1e-10
    assert np.max(np.abs(M[..., 2, 3] - x)) < 1e-10
    assert np.max(np.abs(M[..., 1, 3] + y)) < 1e-10
    assert np.max(np.abs(M[..., 1, 2] - z)) < 1e-10
    assert np.max(np.abs(x * x + y * y + z * z - 1.0)) < 1e-10
    assert np.max(np.abs(x - G.cos_alpha)) < 1e-12
    # adapted gauge: the third invariant is rotated away
    assert np.all(fr.adapted)
    assert np.max(np.abs(fr.z)) < 1e-10
    assert np.max(np.abs(fr.y - G.sin_alpha)) < 1e-10
    assert np.min(fr.y) >= 0.0


def test_frame_not_adapted_on_holomorphic_points():
    G = geometry(holomorphic_graph(0.2, 0.1, n_theta=16, n_phi=16))
    assert not np.any(G.adapted_frame.adapted)


# -- second fundamental form and mean curvature -----------------------


def test_second_fundamental_symmetry():
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), CONF)
    h = G.second_fundamental
    assert np.array_equal(h, np.swapaxes(h, -1, -2))


def test_mean_curvature_is_frame_trace():
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), CONF)
    h = G.second_fundamental
    trace = h[..., 0, 0] + h[..., 1, 1]
    assert np.max(np.abs(trace - G.mean_curvature_frame)) < 1e-12
    fr = G.adapted_frame
    rebuilt = (G.mean_curvature_frame[..., 0, None] * fr.e3
               + G.mean_curvature_frame[..., 1, None] * fr.e4)
    assert np.max(np.abs(rebuilt - G.mean_curvature)) < 1e-10


def test_affine_graph_derivatives_exact():
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    G = geometry(S)
    assert np.max(np.abs(G.fth - S.linear_part[:, 0])) < 1e-15
    assert np.max(np.abs(G.fph - S.linear_part[:, 1])) < 1e-15
    assert np.max(np.abs(G.fsecond)) < 1e-15
    assert np.max(np.abs(G.mean_curvature)) < 1e-15


def test_revolution_torus_mean_curvature_closed_form():
    """H = -(R + 2r cos(phi)) / (r (R + r cos(phi))) times the outward unit
    normal of the tube, a classical closed form."""
    R, r = 2.0, 0.5
    S = revolution_torus(R, r, n_theta=64, n_phi=64)
    G = geometry(S)
    th, ph = S.grids()
    scal = (R + 2.0 * r * np.cos(ph)) / (r * (R + r * np.cos(ph)))
    normal = np.stack(
        [np.cos(ph) * np.cos(th), np.cos(ph) * np.sin(th), np.sin(ph),
         np.zeros_like(th)],
        axis=-1,
    )
    expected = -scal[..., None] * normal
    assert np.allclose(G.mean_curvature[0, 0], TORUS_H_AT_ZERO, atol=5e-5)
    assert np.max(np.abs(G.mean_curvature - expected)) < 5e-5


def test_mean_curvature_refinement_order():
    R, r = 2.0, 0.5
    errs = []
    for n in (16, 32):
        S = revolution_torus(R, r, n_theta=n, n_phi=n)
        G = geometry(S)
        th, ph = S.grids()
        scal = (R + 2.0 * r * np.cos(ph)) / (r * (R + r * np.cos(ph)))
        normal = np.stack(
            [np.cos(ph) * np.cos(th), np.cos(ph) * np.sin(th), np.sin(ph),
             np.zeros_like(th)],
            axis=-1,
        )
        errs.append(np.max(np.abs(G.mean_curvature + scal[..., None] * normal)))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


# -- integration ------------------------------------------------------


def test_torus_area_converges_to_closed_form():
    # the finite-difference tangents make the area fourth-order accurate
    R, r = 2.0, 0.5
    exact = 4.0 * np.pi**2 * R * r
    errs = []
    for n in (32, 64):
        G = geometry(revolution_torus(R, r, n_theta=n, n_phi=n))
        area = np.sum(G.area_weights)
        errs.append(abs(area - exact))
    assert errs[1] < 1e-3
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_graph_area_closed_form():
    c = 0.5
    G = geometry(zbar_graph(c, n_theta=16, n_phi=16))
    # conformal factor of the graph map is constant: dmu = (1 + c^2) dtheta dphi
    area = np.sum(G.area_weights)
    assert abs(area - 4.0 * np.pi**2 * (1.0 + c * c)) < 1e-10


def test_laplace_beltrami_basics():
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), CONF)
    const = np.full(G.cos_alpha.shape, 3.7)
    assert np.max(np.abs(G.laplace_beltrami(const))) < 1e-11
    f = np.sin(G.surface.grids()[0])
    g = np.cos(2.0 * G.surface.grids()[1])
    lhs = G.laplace_beltrami(f + g)
    rhs = G.laplace_beltrami(f) + G.laplace_beltrami(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- degeneracy -------------------------------------------------------


def test_degenerate_surface_raises():
    flat = ImmersedSurface(np.zeros((4, 2)), np.zeros((8, 8, 4)))
    with pytest.raises(NotImmersed):
        geometry(flat).det_induced


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ImmersedSurface(np.zeros((4, 2)), np.zeros((4, 8, 4)))
    with pytest.raises(ValueError):
        ImmersedSurface(np.zeros((3, 2)), np.zeros((8, 8, 4)))
    bad = np.zeros((8, 8, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ImmersedSurface(np.zeros((4, 2)), bad)


# -- serialization ----------------------------------------------------


def test_surface_roundtrip_bit_identical(tmp_path):
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=24)
    path = tmp_path / "surface.txt"
    write_surface(S, path)
    back = read_surface(path)
    assert np.array_equal(back.linear_part, S.linear_part)
    assert np.array_equal(back.periodic_part, S.periodic_part)
    assert back.t_theta == S.t_theta and back.t_phi == S.t_phi


def test_surface_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a surface\n")
    with pytest.raises(ValueError):
        read_surface(path)
    path.write_text("surf 16 16 6.28 6.28\n")  # missing blocks
    with pytest.raises(ValueError):
        read_surface(path)


def test_surface_read_rejects_empty_grid(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("surf 0 0 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n")
    with pytest.raises(ValueError, match="grid sizes"):
        read_surface(path)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    nt=st.sampled_from([8, 12, 16]),
    nph=st.sampled_from([8, 12, 16]),
)
def test_roundtrip_property(tmp_path_factory, seed, nt, nph):
    rng = np.random.default_rng(seed)
    lin = rng.standard_normal((4, 2))
    per = 0.1 * rng.standard_normal((nt, nph, 4))
    S = ImmersedSurface(lin, per)
    path = tmp_path_factory.mktemp("io") / "s.txt"
    write_surface(S, path)
    back = read_surface(path)
    assert np.array_equal(back.linear_part, S.linear_part)
    assert np.array_equal(back.periodic_part, S.periodic_part)


def test_displaced_moves_periodic_part_only():
    S = zbar_graph(0.5, n_theta=16, n_phi=16)
    delta = np.ones((16, 16, 4))
    moved = S.displaced(delta)
    assert np.array_equal(moved.linear_part, S.linear_part)
    assert np.max(np.abs(moved.periodic_part - S.periodic_part - 1.0)) < 1e-15


ROLL_SURFACES = {
    "graph": perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16),
    "holomorphic": perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=16, n_phi=16),
}
ROLLED_FIELDS = ("cos_alpha", "grad_cos_frame", "second_fundamental",
                 "tangent_connection", "mean_curvature_normal_derivative", "j12_kk")


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(ROLL_SURFACES)),
    shift_theta=st.integers(min_value=0, max_value=15),
    shift_phi=st.integers(min_value=0, max_value=15),
)
def test_grid_roll_commutes_with_the_geometry(name, shift_theta, shift_phi):
    """Rolling the periodic part rolls every node field, bit for bit."""
    S = ROLL_SURFACES[name]
    shift = (shift_theta, shift_phi)
    R = ImmersedSurface(S.linear_part, np.roll(S.periodic_part, shift, axis=(0, 1)))
    G, GR = geometry(S), geometry(R)
    for field in ROLLED_FIELDS:
        want = np.roll(getattr(G, field), shift, axis=(0, 1))
        assert np.array_equal(getattr(GR, field), want), field
    E = el_operator(S, EUC, 1.0, geometry=G).vector
    ER = el_operator(R, EUC, 1.0, geometry=GR).vector
    assert np.array_equal(ER, np.roll(E, shift, axis=(0, 1)))
    lb = l_beta(S, EUC, 1.0, geometry=G)
    assert abs(l_beta(R, EUC, 1.0, geometry=GR) - lb) <= 1e-13 * lb


def swapped_theta_phi(S):
    """The same torus with theta and phi exchanged (orientation reversed)."""
    return ImmersedSurface(S.linear_part[:, ::-1], S.periodic_part.transpose(1, 0, 2),
                           S.t_phi, S.t_theta)


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
@pytest.mark.parametrize(
    "surface",
    [perturbed_graph(0.5, 0.05, n_theta=16, n_phi=12),
     perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=16, n_phi=12)],
    ids=["graph", "holomorphic"],
)
def test_swapping_theta_and_phi_flips_the_angle(surface, ambient):
    S = ImmersedSurface(surface.linear_part, surface.periodic_part, 2.0, 3.0)
    ca = geometry(S, ambient).cos_alpha
    swapped = geometry(swapped_theta_phi(S), ambient).cos_alpha
    assert swapped.shape == ca.T.shape
    assert np.max(np.abs(swapped + ca.T)) < 1e-14


def u2_rotation(seed):
    """Real 4x4 form of a random unitary 2x2 matrix on C^2 = (x1 + i x2, x3 + i x4)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    R = np.empty((4, 4))
    for i in range(2):
        for k in range(2):
            p, s = U[i, k].real, U[i, k].imag
            R[2 * i:2 * i + 2, 2 * k:2 * k + 2] = [[p, -s], [s, p]]
    return R


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(ROLL_SURFACES)), seed=st.integers(0, 2**32 - 1))
def test_u2_rotation_leaves_angle_functional_and_el_norm_unchanged(name, seed):
    """A U(2) rotation of C^2 commutes with J and is a flat isometry."""
    R = u2_rotation(seed)
    assert np.allclose(R @ R.T, np.eye(4), atol=1e-14)
    assert np.allclose(R @ STANDARD_J, STANDARD_J @ R, atol=1e-14)
    S = ROLL_SURFACES[name]
    RS = ImmersedSurface(R @ S.linear_part, S.periodic_part @ R.T, S.t_theta, S.t_phi)
    G, GR = geometry(S), geometry(RS)
    assert np.max(np.abs(GR.cos_alpha - G.cos_alpha)) < 1e-13
    lb = l_beta(S, EUC, 1.0, geometry=G)
    assert abs(l_beta(RS, EUC, 1.0, geometry=GR) - lb) < 1e-12 * lb
    E = el_operator(S, EUC, 1.0, geometry=G).vector
    ER = el_operator(RS, EUC, 1.0, geometry=GR).vector
    mag, mag_r = np.sqrt(G.dot(E, E)), np.sqrt(GR.dot(ER, ER))
    assert np.max(np.abs(mag_r - mag)) < 1e-11 * np.max(mag)


# -- periodic stencils and the Euclidean dot -------------------------


def roll_d1(field, axis, spacing):
    """Reference first-derivative stencil, built from four np.roll copies."""
    fp1 = np.roll(field, -1, axis)
    fm1 = np.roll(field, 1, axis)
    fp2 = np.roll(field, -2, axis)
    fm2 = np.roll(field, 2, axis)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * spacing)


def roll_d2(field, axis, spacing):
    """Reference second-derivative stencil, built from four np.roll copies."""
    fp1 = np.roll(field, -1, axis)
    fm1 = np.roll(field, 1, axis)
    fp2 = np.roll(field, -2, axis)
    fm2 = np.roll(field, 2, axis)
    return (-30.0 * field + 16.0 * (fp1 + fm1) - (fp2 + fm2)) / (12.0 * spacing**2)


def same_bits(got, want):
    return got.shape == want.shape and (
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


def stencil_field(kind, n, m, rng):
    """A grid field of the given layout, with entries over many magnitudes."""
    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)

    if kind == "scalar":
        return draw((n, m))
    if kind == "vector":
        return draw((n, m, 4))
    if kind == "pair":
        return draw((n, m, 2, 4))
    return np.moveaxis(draw((4, n, m)), 0, -1)  # "moved": non-contiguous (n, m, 4)


@pytest.mark.parametrize("kind", ["scalar", "vector", "pair", "moved"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 33])
@pytest.mark.parametrize("square", [True, False], ids=["square", "oblong"])
def test_periodic_stencils_match_roll_reference(kind, n, square):
    rng = np.random.default_rng(1000 * n + len(kind))
    m = n if square else n + 3
    field = stencil_field(kind, n, m, rng)
    for axis, spacing in ((0, 0.3), (1, 2 * np.pi / m)):
        assert same_bits(periodic_d1(field, axis, spacing), roll_d1(field, axis, spacing))
        assert same_bits(periodic_d2(field, axis, spacing), roll_d2(field, axis, spacing))


def test_euclidean_dot_matches_np_sum_bit_for_bit():
    rng = np.random.default_rng(7)
    n = 12
    G = geometry(holomorphic_graph(0.3, -0.2, n_theta=n, n_phi=n))
    assert G._euclid_dot
    cases = {
        "grid": (rng.standard_normal((n, n, 4)), rng.standard_normal((n, n, 4))),
        "stacked": (rng.standard_normal((2, n, n, 4)), rng.standard_normal((n, n, 4))),
        "moved": (np.moveaxis(rng.standard_normal((4, n, n)), 0, -1),
                  rng.standard_normal((n, n, 4))),
        # np.sum starts from +0.0, so four -0.0 products sum to +0.0
        "signed-zero": (np.zeros((n, n, 4)), -np.ones((n, n, 4))),
    }
    # normal parts of the four chart axes at unadapted nodes, (m, 4, 4) as
    # in the raw-gauge branch of the adapted frame (all nodes here)
    assert not G.adapted_frame.adapted.any()
    axes = np.stack(
        [G.project_normal(np.broadcast_to(row, (n, n, 4))) for row in np.eye(4)], axis=-2
    ).reshape(-1, 4, 4)
    cases["chart-axes"] = (axes, axes)
    for name, (u, v) in cases.items():
        assert same_bits(G.dot(u, v), np.sum(u * v, axis=-1)), name


# -- frame components of ambient tensors -------------------------------


FRAME_SURFACES = [
    perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24),
    revolution_torus(n_theta=24, n_phi=24),
]


@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_nabla_j_frame_matches_one_shot_contraction(surface):
    G = geometry(surface, CONF)
    fr = G.frame_matrix
    dj = np.einsum("...kc,...cab->...kab", fr, CONF.nabla_j_tensor_at(G.pos))
    want = np.einsum("...kab,...mb,...ad,...nd->...kmn", dj, fr, G.amb_g, fr)
    assert np.max(np.abs(G.nabla_j_frame - want)) < 1e-12


@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_condition_cyclic_residuals_match_one_shot_contraction(surface):
    G = geometry(surface, CONF)
    S = CONF.nabla_j_tensor_at(G.pos)
    fr = G.adapted_frame

    def term(W, U, V):
        return np.einsum("...cab,...c,...b,...ad,...d->...", S, W, U, G.amb_g, V)

    c3, c4 = condition_cyclic_residuals(G)
    for got, xi in ((c3, fr.e3), (c4, fr.e4)):
        want = term(xi, fr.e1, fr.e2) + term(fr.e1, fr.e2, xi) + term(fr.e2, xi, fr.e1)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_curvature_frame_components_match_one_shot_contraction(surface):
    G = geometry(surface, CONF)
    K = CONF.curvature_at(G.pos)
    fr = G.adapted_frame
    want = (
        np.einsum("...abcd,...a,...b,...c,...d->...", K, fr.e1, fr.e2, fr.e1, fr.e3),
        np.einsum("...abcd,...a,...b,...c,...d->...", K, fr.e1, fr.e2, fr.e2, fr.e4),
    )
    for got, ref in zip(G.curvature_frame_components, want):
        assert np.max(np.abs(got - ref)) < 1e-12


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# the conformal fields without the constant-J flag: the per-node J path
CONF_GENERIC_J = AmbientManifold(metric_field=CONF.metric_field, j_field=CONF.j_field)


@pytest.mark.parametrize(
    "ambient", [EUC, CONF, CONF_GENERIC_J], ids=["flat", "conformal", "generic-j"]
)
@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_kernels_match_einsum_reference(surface, ambient):
    """Each matmul or closed-form kernel against the einsum it replaced."""
    G = geometry(surface, ambient)
    g, J, F = G.amb_g, G.amb_j, G.fderiv
    fr = G.adapted_frame
    jfth = np.einsum("...ab,...b->...a", J, G.fth)
    metric = np.einsum("...ab,...ia,...jb->...ij", g, F, F)
    det = metric[..., 0, 0] * metric[..., 1, 1] - metric[..., 0, 1] ** 2
    omega = np.einsum("...ab,...a,...b->...", g, jfth, G.fph)
    w = fr.x[..., None] * fr.e3 - fr.y[..., None] * fr.e2
    dc, ca = G.grad_cos_frame, G.cos_alpha
    tang = ca[..., None] * (dc[..., 0, None] * G.e2 - dc[..., 1, None] * G.e1)
    jtang = np.einsum("...ab,...b->...a", J, tang)
    # I - sum_a e_a (g e_a)^T, the g-orthogonal projector onto the normal plane
    tangent = np.stack([G.e1, G.e2], axis=-2)
    co = np.einsum("...ab,...kb->...ka", g, tangent)
    proj = np.eye(4) - np.einsum("...ka,...kb->...ab", tangent, co)
    pairs = {
        "induced_metric": (G.induced_metric, metric),
        "cos_alpha": (G.cos_alpha, omega / np.sqrt(det)),
        "dot": (G.dot(jfth, G.fph), omega),
        "project_normal": (
            G.project_normal(jfth),
            np.einsum("...ab,...b->...a", proj, jfth),
        ),
        "J e1": (G.apply_j(fr.e1), np.einsum("...ab,...b->...a", J, fr.e1)),
        "J (x e3 - y e2)": (G.apply_j(w), np.einsum("...ab,...b->...a", J, w)),
        "jj_grad_perp": (
            jj_grad_perp(G),
            np.einsum("...ab,...b->...a", proj, jtang),
        ),
    }
    for name, (got, want) in pairs.items():
        assert rel_err(got, want) < 1e-14, name


def test_nabla_j_frame_is_exactly_zero_on_flat_kahler():
    G = geometry(FRAME_SURFACES[0])
    assert G.nabla_j_frame.shape == (24, 24, 4, 4, 4)
    assert not np.any(G.nabla_j_frame)


def test_condition_cyclic_residuals_are_exactly_zero_on_flat_kahler():
    c3, c4 = condition_cyclic_residuals(geometry(FRAME_SURFACES[0]))
    assert not np.any(c3) and not np.any(c4)


def test_conformal_curvature_frame_components_difference_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference derivative taken")

    monkeypatch.setattr(AmbientManifold, "_fd_derivative", refuse)
    G = geometry(FRAME_SURFACES[0], conformal("0.1*sin(p1) + 0.05*cos(p2)"))
    k1213, k1224 = G.curvature_frame_components
    assert np.all(np.isfinite(k1213)) and np.all(np.isfinite(k1224))


def test_non_finite_ambient_metric_raises_typed_error():
    G = geometry(FRAME_SURFACES[0], conformal("400*p1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate):
            G.amb_g
