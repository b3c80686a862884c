"""Tests for immersed tori, adapted frames, and surface geometry."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcrit.ambient import (
    STANDARD_J,
    AmbientManifold,
    EuclideanManifold,
    _dot,
    conformal,
    euclidean_c2,
)
from symcrit.errors import AmbientDegenerate, NotImmersed, NotSymplectic
from symcrit.flow import stable_step
from symcrit.functional import _l_beta_along, el_operator, l_beta
from symcrit.surface import (
    AdaptedFrame,
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
from symcrit.verify import (
    check_condition_cyclic,
    check_condition_symmetric,
    condition_cyclic_residuals,
    verify_critical_identity,
    verify_first_variation,
    verify_gradient_identities,
    verify_laplacian_identity,
)

from reference import (
    BLOCK_INDICES,
    block,
    curvature_data,
    full_grids,
    grid_bump,
    grid_lagrangian_torus,
    grid_positions,
    grid_revolution_torus,
    jj_grad_perp,
    mean_curvature_frame,
    tangent_pair,
)

EUC = euclidean_c2()
CONF = conformal("0.1*sin(p1) + 0.05*cos(p2)")
# the conformal fields in a plain AmbientManifold: the per-node J path
CONF_GENERIC_J = AmbientManifold(metric_field=CONF.metric_field, j_field=CONF.j_field)


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


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
def test_lagrangian_torus_angle_is_positive_zero_at_every_node(ambient):
    """omega sums to an exact zero of either sign here (in the flat
    ambient 12 nodes of 256 reach -0.0 before the sum ends); the final
    + 0.0 of the sum, flat or ``_dot``'s, makes every node +0.0."""
    ca = geometry(lagrangian_torus(1.0, 1.0, n_theta=16, n_phi=16), ambient).cos_alpha
    assert not ca.any() and not np.signbit(ca).any()


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
    assert np.all(np.linalg.det(fr.matrix) > 0)


def cached_arrays(value):
    """The arrays a cached entry holds, through tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in cached_arrays(v)]
    return []


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
def test_frame_is_held_in_one_array(ambient):
    """e1..e4 are views of the rows of the adapted frame's one array, also
    with unadapted nodes (the torus of revolution), and once every frame
    quantity is built no other cached entry holds e1 or e2."""
    G = geometry(revolution_torus(n_theta=24, n_phi=24), ambient)
    fr = G.adapted_frame
    assert not fr.adapted.all()
    for a, e in enumerate((fr.e1, fr.e2, fr.e3, fr.e4)):
        assert e.base is fr.matrix
        assert np.array_equal(e, fr.matrix[..., a, :])
    G.j12_kk, G.curvature_frame_components, G.mean_curvature_normal_derivative
    G.grad_cos_frame
    for name, value in vars(G).items():
        if name == "adapted_frame":
            continue
        for arr in cached_arrays(value):
            if arr.shape[:2] != (24, 24) or arr.shape[-1] != 4:
                continue
            rows = arr.reshape(24, 24, -1, 4)
            for k in range(rows.shape[2]):
                for e in (fr.e1, fr.e2):
                    assert not np.array_equal(rows[:, :, k], e), name


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
    J = ambient.j_at(G.pos)
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
    """The projected g^ij W_ij, read in e3 and e4, is the trace of the
    frame's second fundamental form."""
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), CONF)
    h = G.second_fundamental
    trace = h[..., 0, 0] + h[..., 1, 1]
    fr = G.adapted_frame
    for n, e in enumerate((fr.e3, fr.e4)):
        assert np.max(np.abs(G.dot(G.mean_curvature, e) - trace[..., n])) < 1e-12
    H = mean_curvature_frame(G)
    rebuilt = H[..., 0, None] * fr.e3 + H[..., 1, None] * fr.e4
    assert np.max(np.abs(rebuilt - G.mean_curvature)) < 1e-10


def test_affine_graph_derivatives_exact():
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    G = geometry(S)
    assert np.max(np.abs(G.fth - S.linear_part[:, 0])) < 1e-15
    assert np.max(np.abs(G.fph - S.linear_part[:, 1])) < 1e-15
    for d in G._second_partials:
        assert np.max(np.abs(d)) < 1e-15
    assert np.max(np.abs(G.mean_curvature)) < 1e-15


def test_revolution_torus_mean_curvature_closed_form():
    """H = -(R + 2r cos(phi)) / (r (R + r cos(phi))) times the outward unit
    normal of the tube, a classical closed form."""
    R, r = 2.0, 0.5
    S = revolution_torus(R, r, n_theta=64, n_phi=64)
    G = geometry(S)
    th, ph = full_grids(S)
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
        th, ph = full_grids(S)
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
    f = np.sin(full_grids(G.surface)[0])
    g = np.cos(2.0 * full_grids(G.surface)[1])
    lhs = G.laplace_beltrami(f + g)
    rhs = G.laplace_beltrami(f) + G.laplace_beltrami(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- degeneracy -------------------------------------------------------


def test_degenerate_surface_raises():
    flat = ImmersedSurface(np.zeros((4, 2)), np.zeros((8, 8, 4)))
    with pytest.raises(NotImmersed):
        geometry(flat).det_induced


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
def test_project_normal_on_degenerate_surface_raises(ambient):
    """The projection reads g^ij, so a point map is a typed error, not NaN."""
    flat = ImmersedSurface(np.zeros((4, 2)), np.zeros((8, 8, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotImmersed):
            geometry(flat, ambient).project_normal(np.ones((8, 8, 4)))


@pytest.mark.parametrize("s", [1.0, 2.0**-17, 2.0**-10, 2.0**10],
                         ids=["1", "2^-17", "2^-10", "2^10"])
@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
def test_tangent_short_beside_the_other_raises_not_immersed_at_every_scale(ambient, s):
    """|F_theta| = 1e-9 |F_phi| with the tangents orthogonal: the metric's
    condition number is 1e18, far from parallel tangents, and the gate
    refuses it at every scale, in the geometry and along a line."""
    S = lagrangian_torus(1e-9 * s, s, n_theta=16, n_phi=16)
    with pytest.raises(NotImmersed):
        geometry(S, ambient).det_induced
    with pytest.raises(NotImmersed):
        _l_beta_along(geometry(S, ambient), 1.0, np.zeros(S.periodic_part.shape))(0.0)


# R = r: F_theta vanishes on the circle phi = pi
PINCHED = [revolution_torus(0.5, 0.5, n_theta=n, n_phi=n) for n in (16, 32)]


@pytest.mark.parametrize(
    "entry",
    [
        lambda S, amb: geometry(S, amb).adapted_frame,
        check_condition_cyclic,
        check_condition_symmetric,
        lambda S, amb: verify_laplacian_identity(PINCHED, amb),
        lambda S, amb: verify_gradient_identities(PINCHED, amb),
        lambda S, amb: verify_critical_identity(S, amb, 1.0),
        lambda S, amb: verify_first_variation(S, amb, 1.0),
    ],
    ids=["adapted_frame", "cyclic", "symmetric", "laplacian", "gradient",
         "critical", "first_variation"],
)
@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
def test_pinched_torus_raises_not_immersed(entry, ambient):
    """The frame and every check read the immersion test before they
    normalise a tangent: a typed error, no divide-by-zero warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotImmersed):
            entry(PINCHED[0], ambient)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ImmersedSurface(np.zeros((4, 2)), np.zeros((4, 8, 4)))
    with pytest.raises(ValueError):
        ImmersedSurface(np.zeros((3, 2)), np.zeros((8, 8, 4)))
    bad = np.zeros((8, 8, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ImmersedSurface(np.zeros((4, 2)), bad)
    # a cast to float would drop the imaginary part with a warning alone
    with pytest.raises(ValueError, match="surface data must be real"):
        ImmersedSurface(np.zeros((4, 2)) + 1j, np.zeros((8, 8, 4)))
    with pytest.raises(ValueError, match="surface data must be real"):
        ImmersedSurface(np.zeros((4, 2)), np.zeros((8, 8, 4)) + 0.5j)


def test_periodic_part_of_the_wrong_shape_is_named():
    with pytest.raises(ValueError) as info:
        ImmersedSurface(np.zeros((4, 2)), np.zeros((8, 8, 3)))
    assert str(info.value) == "periodic part must be (n_theta, n_phi, 4), got (8, 8, 3)"


@pytest.mark.parametrize("periods", [(np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0),
                                     (1.0, 0.0), (-1.0, 1.0)])
def test_surface_rejects_periods_not_finite_and_positive(periods):
    with pytest.raises(ValueError, match="periods must be finite and positive"):
        ImmersedSurface(np.zeros((4, 2)), np.zeros((8, 8, 4)), *periods)


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


@pytest.mark.parametrize(
    "text, message",
    [("surf 8 8 6.28\n", "malformed surf header"),
     ("surf 8 8 6.28 6.28\nlinear 1 0 0 1 0 0 0\n", "linear row needs 8 values"),
     ("surf 8 8 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n" + "0 0 0\n" * 64,
      "node rows need 4 values"),
     ("surf 8 8 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n" + "0 0 0 0\n" * 63 + "0 0 0\n",
      "node rows need 4 values"),
     ("surf 8.5 8 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n" + "0 0 0 0\n" * 64,
      "grid sizes must be integers"),
     ("surf 8 8 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n" + "0 0 0 0\n" * 63 + "0 abc 0 0\n",
      "node rows must hold numbers"),
     ("surf 4 4 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n" + "0 0 0 0\n" * 16,
      "need at least 8 nodes per direction")],
    ids=["header", "linear-row", "node-rows", "one-short-node-row", "grid-size",
         "node-entry", "small-grid"],
)
def test_surface_read_names_the_malformed_block(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_surface(path)
    assert str(info.value) == f"{path}: {message}"


def test_surface_read_rejects_infinite_period(tmp_path):
    path = tmp_path / "inf.txt"
    write_surface(zbar_graph(0.5, n_theta=8, n_phi=8), path)
    head, rest = path.read_text().split("\n", 1)
    path.write_text(" ".join(head.split()[:3] + ["inf", head.split()[4]]) + "\n" + rest)
    with pytest.raises(ValueError, match="periods must be finite and positive"):
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


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(sorted(ROLL_SURFACES)),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
)
def test_translation_leaves_angle_functional_and_el_norm_unchanged(name, shift):
    """Flat C^2 is homogeneous: a translation moves no geometric quantity."""
    S = ROLL_SURFACES[name]
    T = ImmersedSurface(S.linear_part, S.periodic_part + np.array(shift),
                        S.t_theta, S.t_phi)
    G, GT = geometry(S), geometry(T)
    assert np.max(np.abs(GT.cos_alpha - G.cos_alpha)) < 1e-13
    lb = l_beta(S, EUC, 1.0, geometry=G)
    assert abs(l_beta(T, EUC, 1.0, geometry=GT) - lb) < 1e-12 * lb
    E = el_operator(S, EUC, 1.0, geometry=G).vector
    ET = el_operator(T, EUC, 1.0, geometry=GT).vector
    mag, mag_t = np.sqrt(G.dot(E, E)), np.sqrt(GT.dot(ET, ET))
    assert np.max(np.abs(mag_t - mag)) < 1e-11 * np.max(mag)


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


@pytest.mark.parametrize("periods", [(2 * np.pi, 2 * np.pi), (1.3, 0.7)],
                         ids=["two-pi", "other"])
@pytest.mark.parametrize("shape", [(8, 9), (24, 20), (32, 32)], ids=str)
def test_parametric_derivatives_are_the_stencil_compositions_bit_for_bit(shape, periods):
    """The tangents, the second partials and the flat W_ij fields against the
    np.roll stencils composed as d_theta, d_phi, d_theta^2, d_phi^2 and
    d_phi(d_theta): each W_ij is a second partial, W_01 and W_10 the same."""
    rng = np.random.default_rng(shape[0])
    S = ImmersedSurface(rng.standard_normal((4, 2)),
                        stencil_field("vector", *shape, rng), *periods)
    G = geometry(S)
    P, ht, hp = S.periodic_part, S.h_theta, S.h_phi
    dth = roll_d1(P, 0, ht)
    dtt, dpp, dtp = roll_d2(P, 0, ht), roll_d2(P, 1, hp), roll_d1(dth, 1, hp)
    assert same_bits(G.fth, S.linear_part[:, 0] + dth)
    assert same_bits(G.fph, S.linear_part[:, 1] + roll_d1(P, 1, hp))
    for k, (got, want) in enumerate(zip(G._second_partials, (dtt, dpp, dtp))):
        assert same_bits(got, want), k
    for k, (got, want) in enumerate(zip(G._accel_entries, (dtt, dtp, dtp, dpp))):
        assert same_bits(got, want), k


def test_euclidean_dot_matches_np_sum_bit_for_bit():
    rng = np.random.default_rng(7)
    n = 12
    G = geometry(holomorphic_graph(0.3, -0.2, n_theta=n, n_phi=n))
    assert isinstance(G.ambient, EuclideanManifold)
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


@pytest.mark.parametrize(
    "ambient", [EUC, CONF, CONF_GENERIC_J], ids=["flat", "conformal", "generic-j"]
)
def test_project_normal_of_a_stack_is_each_projection_bit_for_bit(ambient):
    """A (3, n, n, 4) stack of fields projects in one call to the bytes of
    the three single projections, as the first-variation check relies on."""
    n = 16
    G = geometry(perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n), ambient)
    stack = np.random.default_rng(5).standard_normal((3, n, n, 4))
    got = G.project_normal(stack)
    for k in range(3):
        assert same_bits(got[k], G.project_normal(stack[k])), k


# -- frame components of ambient tensors -------------------------------


FRAME_SURFACES = [
    perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24),
    revolution_torus(n_theta=24, n_phi=24),
]


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_frame_coeff_writes_the_tangent_pair_in_the_parametric_tangents(
        surface, ambient):
    """coeff^T g coeff is the identity, and sum_i coeff[i, a] d_i F = e_a."""
    G = geometry(surface, ambient)
    fr = G.adapted_frame
    C = fr.coeff
    g00, g01, g11 = G._metric_entries
    gram = np.einsum("...ia,...ij,...jb->...ab", C, block(g00, g01, g01, g11), C)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-13
    legs = np.einsum("...ia,...ic->...ac", C, tangent_pair(G))
    assert np.max(np.abs(legs - fr.matrix[..., :2, :])) < 1e-13


@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_nabla_j_frame_matches_one_shot_contraction(surface):
    """The tangent rows the geometry caches, and the J_{12,xi} along the
    normal legs that the cyclic condition reads, against one contraction
    of the whole table."""
    G = geometry(surface, CONF)
    fr = G.adapted_frame.matrix
    dj = np.einsum("...kc,...cab->...kab", fr, CONF.nabla_j_tensor_at(G.pos))
    g = CONF.metric_at(G.pos)
    want = np.einsum("...kab,...mb,...ad,...nd->...kmn", dj, fr, g, fr)
    assert G.nabla_j_frame.shape == want.shape[:-3] + (2, 4, 4)
    assert np.max(np.abs(G.nabla_j_frame - want[..., :2, :, :])) < 1e-12
    j12 = G.nabla_j_along((2, 3))[..., 0, 1]
    assert np.max(np.abs(j12 - want[..., 2:, 0, 1])) < 1e-12


@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_condition_cyclic_residuals_match_one_shot_contraction(surface):
    G = geometry(surface, CONF)
    S = CONF.nabla_j_tensor_at(G.pos)
    g = CONF.metric_at(G.pos)
    fr = G.adapted_frame

    def term(W, U, V):
        return np.einsum("...cab,...c,...b,...ad,...d->...", S, W, U, g, V)

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
    """Largest difference relative to the largest |want|, or absolute
    where ``want`` is zero throughout."""
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / (scale if scale > 0.0 else 1.0)


# zbar_graph is affine, so W = 0 in the flat ambient and the products are
# signed zeros; holomorphic_graph has every node in the raw gauge.  Both
# have chart components that are exactly zero, and so do their frames
SECOND_FUNDAMENTAL_SURFACES = FRAME_SURFACES + [
    zbar_graph(0.4, n_theta=16, n_phi=12),
    holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=12),
]
SECOND_FUNDAMENTAL_IDS = ["graph", "torus", "zbar", "holomorphic"]


@pytest.mark.parametrize(
    "ambient", [EUC, CONF, CONF_GENERIC_J], ids=["flat", "conformal", "generic-j"]
)
@pytest.mark.parametrize("surface", SECOND_FUNDAMENTAL_SURFACES, ids=SECOND_FUNDAMENTAL_IDS)
def test_kernels_match_einsum_reference(surface, ambient):
    """Each matmul or closed-form kernel against the einsum it replaced."""
    G = geometry(surface, ambient)
    g, J, F = ambient.metric_at(G.pos), ambient.j_at(G.pos), tangent_pair(G)
    fr = G.adapted_frame
    jfth = np.einsum("...ab,...b->...a", J, G.fth)
    metric = np.einsum("...ab,...ia,...jb->...ij", g, F, F)
    det = metric[..., 0, 0] * metric[..., 1, 1] - metric[..., 0, 1] ** 2
    omega = np.einsum("...ab,...a,...b->...", g, jfth, G.fph)
    w = fr.x[..., None] * fr.e3 - fr.y[..., None] * fr.e2
    dc, ca = G.grad_cos_frame, G.cos_alpha
    tang = ca[..., None] * (dc[..., 0, None] * fr.e2 - dc[..., 1, None] * fr.e1)
    jtang = np.einsum("...ab,...b->...a", J, tang)
    # I - sum_a e_a (g e_a)^T, the g-orthogonal projector onto the normal plane
    tangent = fr.matrix[..., :2, :]
    co = np.einsum("...ab,...kb->...ka", g, tangent)
    proj = np.eye(4) - np.einsum("...ka,...kb->...ab", tangent, co)
    gamma = ambient.christoffel_at(G.pos)
    dtt, dpp, dtp = G._second_partials
    accel = block(dtt, dtp, dtp, dpp) + np.einsum("...abc,...ib,...jc->...ija", gamma, F, F)
    normals = fr.matrix[..., 2:, :]
    wn = np.einsum("...cd,...ijc,...nd->...nij", g, accel, normals)
    # raw gauge: e3 is the normal part of the chart axis whose normal part
    # is longest; row B of ``axes`` is the normal part of chart axis B
    bad = ~fr.adapted
    axes = np.swapaxes(proj, -1, -2)[bad]
    norms = np.einsum("...Ba,...ab,...Bb->...B", axes, g[bad], axes)
    m, best = np.arange(len(axes)), np.argmax(norms, axis=-1)
    raw_e3 = axes[m, best] / np.sqrt(norms[m, best])[:, None]
    C = fr.coeff
    h = np.einsum("...ia,...jb,...nij->...nab", C, C, wn)
    g00, g01, g11 = G._metric_entries
    pairs = {
        # stacked, so each entry is compared on the scale of the whole
        # metric: g_01 is roundoff on the torus
        "induced metric entries": (block(g00, g01, g01, g11), metric),
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
        "_normal_covectors": (
            G._normal_covectors, np.einsum("...ab,...nb->...na", g, normals)
        ),
        **{f"W_{i}{j}": (W, accel[..., i, j, :])
           for (i, j), W in zip(BLOCK_INDICES, G._accel_entries)},
        "second_fundamental": (
            G.second_fundamental, 0.5 * (h + np.swapaxes(h, -1, -2))
        ),
    }
    if bad.any():
        pairs["raw-gauge e3"] = (fr.e3[bad], raw_e3)
    if surface is SECOND_FUNDAMENTAL_SURFACES[3]:
        # J F_theta is tangent on a holomorphic graph, so both normal parts
        # are roundoff: they are compared on the scale of J F_theta
        got, want = pairs.pop("project_normal")
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(jfth))
    for name, (got, want) in pairs.items():
        assert rel_err(got, want) < 1e-14, name
    if ambient is EUC:
        # fixed-order sums: the einsum's bits, signs of zero included
        for name in ("W_00", "W_01", "W_10", "W_11", "second_fundamental"):
            got, want = pairs[name]
            assert got.tobytes() == want.tobytes(), name
    if ambient is not CONF_GENERIC_J:
        # J is STANDARD_J, applied from the module and, in the flat cos_alpha,
        # as an ordered sum: the sampled J's bits, signs of zero included
        pins = {
            "cos_alpha": (G.cos_alpha, G.dot(jfth, G.fph) / G.sqrt_det),
            "J e1": pairs["J e1"],
            "J (x e3 - y e2)": pairs["J (x e3 - y e2)"],
        }
        for name, (got, want) in pins.items():
            assert got.tobytes() == want.tobytes(), name
    # the loop that the fixed-order _dot replaced: the same bits, in every ambient
    dH = G.covariant_frame_derivative(G.mean_curvature)
    loop = np.zeros(dH.shape[:-1] + (2,))
    for c in range(4):
        loop += dH[..., :, None, c] * G._normal_covectors[..., None, :, c]
    assert G.mean_curvature_normal_derivative.tobytes() == loop.tobytes()


def second_fundamental_general_sum(G):
    """The general sum the closed form replaced, kept as reference.

    wn[n, i, j] = <W_ij, e_{n+3}> summed over c from +0.0, then
    sum_ij (C_ia C_jb) wn_nij over all four (i, j) pairs from +0.0,
    then the symmetric part.
    """
    W, co = block(*G._accel_entries), G._normal_covectors
    wn = np.zeros(W.shape[:-3] + (2, 2, 2))
    for c in range(4):
        wn += W[..., None, :, :, c] * co[..., :, None, None, c]
    C = G.adapted_frame.coeff
    h = np.zeros(wn.shape)
    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
        cc = (C[..., i, :, None] * C[..., j, None, :])[..., None, :, :]
        h += cc * wn[..., :, i, j, None, None]
    return 0.5 * (h + np.swapaxes(h, -1, -2))


THREE_AMBIENTS = pytest.mark.parametrize(
    "ambient", [EUC, CONF, CONF_GENERIC_J], ids=["flat", "conformal", "generic-j"]
)


@THREE_AMBIENTS
@pytest.mark.parametrize("surface", SECOND_FUNDAMENTAL_SURFACES, ids=SECOND_FUNDAMENTAL_IDS)
def test_second_fundamental_closed_form_matches_general_sum_bit_for_bit(surface, ambient):
    G = geometry(surface, ambient)
    if surface is SECOND_FUNDAMENTAL_SURFACES[2] and ambient is EUC:
        assert not any(W.any() for W in G._accel_entries)
    if surface is SECOND_FUNDAMENTAL_SURFACES[3]:
        assert not G.adapted_frame.adapted.any()
    assert G.second_fundamental.tobytes() == second_fundamental_general_sum(G).tobytes()


def test_second_fundamental_signs_of_zero_at_the_ends_of_the_range():
    """Where the closed form can make a zero the general sum does not:
    an underflowing coefficient product makes -0.0 terms, which the sum's
    +0.0 start turns into +0.0; an off-diagonal sum of -5e-324 halves to
    -0.0 in both, and a +0.0 added after the halving would lose it."""
    G = geometry(FRAME_SURFACES[0])
    fr = G.adapted_frame
    coeff = fr.coeff.copy()
    coeff[..., 0, 0] = 1e-170  # squares to +0.0
    G.adapted_frame = AdaptedFrame(fr.matrix, coeff, fr.x, fr.y, fr.z, fr.adapted)
    assert (_dot(G._accel_entries[0][..., None, :], G._normal_covectors) < 0).any()
    assert not G.second_fundamental[..., 0, 0].any()
    assert G.second_fundamental.tobytes() == second_fundamental_general_sum(G).tobytes()

    H = geometry(FRAME_SURFACES[0])
    n = H.fth.shape[:2]
    H.adapted_frame = AdaptedFrame(fr.matrix, np.broadcast_to(np.eye(2), n + (2, 2)),
                                   fr.x, fr.y, fr.z, fr.adapted)
    H._normal_covectors = np.zeros(n + (2, 4))
    H._normal_covectors[..., 0] = 1.0
    W = np.zeros(n + (2, 2, 4))
    W[..., 0, 1, 0] = -5e-324
    H._accel_entries = (W[..., 0, 0, :], W[..., 0, 1, :], W[..., 1, 0, :], W[..., 1, 1, :])
    assert np.signbit(H.second_fundamental[..., 0, 1]).all()
    assert H.second_fundamental.tobytes() == second_fundamental_general_sum(H).tobytes()


def mean_curvature_einsum(G):
    """The einsum g^ij W_ij that the four-term sum replaced, kept as reference."""
    i00, i01, i11 = G._inverse_entries
    return np.einsum("...ij,...ija->...a", block(i00, i01, i01, i11),
                     block(*G._accel_entries))


@THREE_AMBIENTS
@pytest.mark.parametrize("surface", SECOND_FUNDAMENTAL_SURFACES, ids=SECOND_FUNDAMENTAL_IDS)
def test_raw_mean_curvature_is_the_einsum_bit_for_bit(surface, ambient):
    G = geometry(surface, ambient)
    W01, W10 = G._accel_entries[1:3]
    assert W01 is W10  # one Christoffel term Gamma(F_theta, F_phi) in every ambient
    for W in G._accel_entries:
        assert W.flags.c_contiguous
    assert G._raw_mean_curvature.tobytes() == mean_curvature_einsum(G).tobytes()


def test_closed_forms_read_w01_and_w10_apart_bit_for_bit():
    """g^ij W_ij and the second fundamental form keep the order of their
    general sums for W_ij with W_01 != W_10, as a connection that is not
    symmetric at roundoff would give."""
    G = geometry(FRAME_SURFACES[0])
    rng = np.random.default_rng(3)
    G._accel_entries = tuple(rng.standard_normal(G.fth.shape) for _ in range(4))
    assert G._raw_mean_curvature.tobytes() == mean_curvature_einsum(G).tobytes()
    assert G.second_fundamental.tobytes() == second_fundamental_general_sum(G).tobytes()


def test_raw_mean_curvature_of_negative_zero_products_is_positive_zero():
    """np.einsum sums from +0.0, so four -0.0 products give +0.0; the
    four-term sum keeps that sign."""
    G = geometry(FRAME_SURFACES[0])
    n = G.fth.shape[:2]
    ones, zeros = np.ones(n), np.zeros(n + (4,))
    G._inverse_entries = (ones, -ones, 2.0 * ones)
    G._accel_entries = (-zeros, zeros, zeros, -zeros)  # every product is -0.0
    want = mean_curvature_einsum(G)
    assert not want.any() and not np.signbit(want).any()
    assert G._raw_mean_curvature.tobytes() == want.tobytes()


def stacked_metric(G):
    """The (..., 2, 2) induced metric and its inverse as they were built
    before the entries were held as node fields, kept as reference."""
    fth, fph = G.fth, G.fph
    gth, gph = G._coordinate_covectors

    def sum4(p):
        return (p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])

    gi = np.empty(fth.shape[:-1] + (2, 2))
    gi[..., 0, 0] = sum4(fth * gth)
    gi[..., 0, 1] = gi[..., 1, 0] = sum4(fth * gph)
    gi[..., 1, 1] = sum4(fph * gph)
    det = gi[..., 0, 0] * gi[..., 1, 1] - gi[..., 0, 1] ** 2
    inv = np.empty_like(gi)
    inv[..., 0, 0] = gi[..., 1, 1]
    inv[..., 1, 1] = gi[..., 0, 0]
    inv[..., 0, 1] = -gi[..., 0, 1]
    inv[..., 1, 0] = -gi[..., 1, 0]
    return gi, inv / det[..., None, None]


def stacked_stable_step(G, beta):
    """``flow.stable_step`` as it read the stacked inverse metric."""
    gi = stacked_metric(G)[1]
    tr = gi[..., 0, 0] + gi[..., 1, 1]
    det = gi[..., 0, 0] * gi[..., 1, 1] - gi[..., 0, 1] * gi[..., 1, 0]
    max_eig = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    nu = float(np.max(G.cos_alpha ** (-beta) * max_eig))
    S = G.surface
    lam = nu * (16.0 / 3.0) * (1.0 / S.h_theta**2 + 1.0 / S.h_phi**2)
    return 1.7 / lam


@THREE_AMBIENTS
@pytest.mark.parametrize("surface", SECOND_FUNDAMENTAL_SURFACES, ids=SECOND_FUNDAMENTAL_IDS)
def test_metric_entries_give_the_stacked_forms_bit_for_bit(surface, ambient):
    G = geometry(surface, ambient)
    metric, inverse = stacked_metric(G)
    (g00, g01, g11), (i00, i01, i11) = G._metric_entries, G._inverse_entries
    for (i, j), g, inv in zip(BLOCK_INDICES, (g00, g01, g01, g11), (i00, i01, i01, i11)):
        assert g.tobytes() == metric[..., i, j].tobytes(), (i, j)
        assert inv.tobytes() == inverse[..., i, j].tobytes(), (i, j)
    for entry in G._metric_entries + G._inverse_entries:
        assert entry.flags.c_contiguous and entry.shape == G.fth.shape[:2]
    for beta in (0.0, 1.0, 2.0):
        assert stable_step(G, beta) == stacked_stable_step(G, beta), beta


@THREE_AMBIENTS
def test_frame_coeff_is_upper_triangular_bit_for_bit(ambient):
    """coeff[..., 1, 0] is +0.0 at every node, adapted and raw-gauge alike,
    which the closed form of the second fundamental form relies on."""
    masks = []
    for surface in SECOND_FUNDAMENTAL_SURFACES:
        fr = geometry(surface, ambient).adapted_frame
        lower = fr.coeff[..., 1, 0]
        assert lower.tobytes() == np.zeros(lower.shape).tobytes()
        masks.append(fr.adapted.ravel())
    masks = np.concatenate(masks)
    assert masks.any() and not masks.all()


# the frame formulas the coordinate projection replaced, kept as references


def frame_reject(G, v):
    """g-orthogonal rejection of v from the Gram-Schmidt pair (e1, e2)."""
    fr = G.adapted_frame
    return v - G.dot(v, fr.e1)[..., None] * fr.e1 - G.dot(v, fr.e2)[..., None] * fr.e2


def frame_j_tangent_grad(G):
    """J (J grad cos a)^T = J cos a (e2 d1(cos a) - e1 d2(cos a))."""
    dc, ca, fr = G.grad_cos_frame, G.cos_alpha, G.adapted_frame
    return G.apply_j(ca[..., None] * (dc[..., 0, None] * fr.e2 - dc[..., 1, None] * fr.e1))


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_frame_free_operators_match_frame_formulas(surface, ambient, beta):
    """project_normal, jj_grad_perp and E, built from F_theta, F_phi and
    g^ij, against the same fields built on the tangent frame (e1, e2)."""
    G = geometry(surface, ambient)
    fields = np.random.default_rng(11).standard_normal((3,) + G.fth.shape)
    fields[0] = G.apply_j(G.fth)
    H = frame_reject(G, mean_curvature_einsum(G))
    E = G.cos_alpha[..., None] ** 3 * H - beta * frame_reject(G, frame_j_tangent_grad(G))
    pairs = {
        "project_normal": (G.project_normal(fields), frame_reject(G, fields)),
        "jj_grad_perp": (jj_grad_perp(G), frame_reject(G, frame_j_tangent_grad(G))),
        "mean_curvature": (G.mean_curvature, H),
        "el_operator": (el_operator(surface, ambient, beta, geometry=G).vector, E),
    }
    for name, (got, want) in pairs.items():
        assert rel_err(got, want) < 1e-13, name


# every leg of a frame, for the samples' nabla J tables
ALL_LEGS = (0, 1, 2, 3)


def skewed(frame):
    """Rows mixed by a fixed matrix: neither unit nor orthogonal vectors."""
    mix = np.eye(4) + 0.3 * np.random.default_rng(7).standard_normal((4, 4))
    return frame @ mix


@pytest.mark.parametrize("frame", ["adapted", "skewed"])
@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_conformal_closed_forms_match_base_class_contraction(surface, frame):
    """Closed-form Gamma(X, Y), nabla J table and K_1213/K_1224 of the
    conformal ambient against the base class's contraction of
    ``christoffel_at``, ``nabla_j_tensor_at`` and ``curvature_at``.

    Gamma is taken on the pairs the geometry forms, (F_i, F_j) and
    (e_k, H), and is symmetric bit for bit.  The torus has unadapted
    nodes, and the skewed frame shows that the closed forms do not assume
    an orthonormal frame.  The nabla J table is also taken at the torus's
    unadapted nodes alone, as (m, 4) points, and on a stack of two grids;
    it is antisymmetric in (a, b) bit for bit, with an exactly zero
    diagonal, and its rows have the same bits whichever legs are asked for.
    """
    G = geometry(surface, CONF)
    pos = G.pos
    fr = G.adapted_frame.matrix
    if frame == "skewed":
        fr = skewed(fr)
    H = G.mean_curvature
    closed, base = CONF.sample(pos), AmbientManifold.sample(CONF, pos)
    table = closed.nabla_j_frame(fr, ALL_LEGS)
    # other points and frames on a second grid, paired arbitrarily
    stacked = (np.stack([pos, np.roll(pos, 3, axis=0)]),
               np.stack([fr, np.roll(fr, 5, axis=1)]))
    pairs = {
        "nabla J table": (table, base.nabla_j_frame(fr, ALL_LEGS)),
        "nabla J table, stacked grids": (
            CONF.sample(stacked[0]).nabla_j_frame(stacked[1], ALL_LEGS),
            AmbientManifold.sample(CONF, stacked[0]).nabla_j_frame(stacked[1], ALL_LEGS),
        ),
    }
    args = {"F_theta, F_theta": (G.fth, G.fth), "F_theta, F_phi": (G.fth, G.fph),
            "F_phi, F_phi": (G.fph, G.fph)}
    args.update({f"e_{k + 1}, H": (fr[..., k, :], H) for k in range(4)})
    for name, (X, Y) in args.items():
        gamma = closed.christoffel(X, Y)
        assert gamma.tobytes() == closed.christoffel(Y, X).tobytes(), name
        pairs[f"Gamma({name})"] = (gamma, base.christoffel(X, Y))
    if surface is FRAME_SURFACES[1]:
        unadapted = ~G.adapted_frame.adapted
        assert unadapted.any()
        nodes, nodes_fr = pos[unadapted], fr[unadapted]
        pairs["nabla J table, unadapted nodes"] = (
            CONF.sample(nodes).nabla_j_frame(nodes_fr, ALL_LEGS),
            AmbientManifold.sample(CONF, nodes).nabla_j_frame(nodes_fr, ALL_LEGS),
        )
    off = ~np.eye(4, dtype=bool)
    flipped = np.negative(np.swapaxes(table, -1, -2))
    assert table[..., off].tobytes() == flipped[..., off].tobytes()
    assert not np.any(np.diagonal(table, axis1=-2, axis2=-1))
    # a row has the same bits whichever legs are asked for with it
    for legs in ((0, 1), (2, 3), (3, 1)):
        rows = closed.nabla_j_frame(fr, legs)
        assert rows.tobytes() == table[..., list(legs), :, :].tobytes(), legs
    k_closed = closed.curvature_frame(fr)
    k_base = base.curvature_frame(fr)
    pairs["K_1213"] = (k_closed[0], k_base[0])
    pairs["K_1224"] = (k_closed[1], k_base[1])
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        assert rel_err(got, want) < 1e-13, name


@pytest.mark.parametrize("surface", FRAME_SURFACES, ids=["graph", "torus"])
def test_constant_conformal_factor_scales_area_and_keeps_the_angle(surface):
    """lam = 0.3 scales lengths by e^0.3: area by e^0.6, cos(alpha) unchanged,
    and the connection, nabla J and curvature all vanish on both paths."""
    flat = geometry(surface)
    scaled = geometry(surface, conformal("0.3"))
    area = np.sum(scaled.area_weights) / np.sum(flat.area_weights)
    assert abs(area / np.exp(0.6) - 1.0) < 1e-14
    assert np.max(np.abs(scaled.cos_alpha - flat.cos_alpha)) < 1e-14
    pos, fr = scaled.pos, scaled.adapted_frame.matrix
    samples = scaled.ambient.sample(pos), AmbientManifold.sample(scaled.ambient, pos)
    closed, contracted = (
        [s.christoffel(scaled.fth, scaled.fph), s.nabla_j_frame(fr, ALL_LEGS),
         *s.curvature_frame(fr)]
        for s in samples
    )
    for got, want in zip(closed, contracted):
        assert got.shape == want.shape
        assert not np.any(got) and not np.any(want)


def test_nabla_j_frame_is_exactly_zero_on_flat_kahler():
    G = geometry(FRAME_SURFACES[0])
    assert G.nabla_j_frame.shape == (24, 24, 2, 4, 4)
    assert not np.any(G.nabla_j_frame)
    assert G.nabla_j_along((2, 3)).shape == (24, 24, 2, 4, 4)
    assert not np.any(G.nabla_j_along((2, 3)))


def test_condition_cyclic_residuals_are_exactly_zero_on_flat_kahler():
    c3, c4 = condition_cyclic_residuals(geometry(FRAME_SURFACES[0]))
    assert not np.any(c3) and not np.any(c4)


def test_flat_short_cuts_build_no_frame(monkeypatch):
    """The first variation reads the nabla J table for its cyclic
    condition; in the flat ambient that table is zero and needs no frame,
    so with ``adapted_frame`` refusing every build the report text is
    unchanged.  The flat W_ij are the second partials themselves, W_01 and
    W_10 one array."""
    S = perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32)
    want = verify_first_variation(S, EUC, 1.0).to_text()
    G = geometry(S)
    W00, W01, W10, W11 = G._accel_entries
    dtt, dpp, dtp = G._second_partials
    assert W00 is dtt and W01 is dtp and W10 is dtp and W11 is dpp

    def refuse(self):
        raise AssertionError("adapted frame built")

    monkeypatch.setattr(SurfaceGeometry, "adapted_frame", property(refuse))
    assert verify_first_variation(S, EUC, 1.0).to_text() == want


# flat C^2 as the conformal ambient at lam = 0: factor 1 and grad lam = 0,
# read on the path that is not flat
ZERO_EXPONENT = conformal("0")
FLAT_SHORT_CUTS = ("_accel_entries", "nabla_j_frame", "curvature_frame_components",
                   "j12_kk", "tangent_connection", "mean_curvature_normal_derivative")
FLAT_CHECKS = {
    "laplacian": verify_laplacian_identity,
    "gradient": verify_gradient_identities,
    "first_variation": lambda S, amb: verify_first_variation(S[0], amb, 1.0),
    "critical": lambda S, amb: verify_critical_identity(S[0], amb, 1.0),
    "cyclic": lambda S, amb: check_condition_cyclic(S[0], amb),
    "symmetric": lambda S, amb: check_condition_symmetric(S[0], amb),
}


def masked_report(check, surfaces, ambient):
    """The report text with the ambient's name masked, or the refusal of a
    surface that is not symplectic (the torus, to the checks that need it)."""
    try:
        text = check(surfaces, ambient).to_text()
    except NotSymplectic as exc:
        return f"error: {exc}"
    return re.sub(r"^ambient .*$", "ambient *", text, flags=re.MULTILINE)


@pytest.mark.parametrize("make", [lambda n: perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n),
                                  lambda n: revolution_torus(n_theta=n, n_phi=n)],
                         ids=["graph", "torus"])
def test_flat_short_cuts_are_the_zero_exponent_closed_forms(make):
    """Each field the flat ambient writes without a sample read equals
    the conformal closed forms at lam = 0 (the table and the curvature up
    to the sign of zero), and every check reads the same text but for
    the ambient's name, on a torus with raw-gauge nodes too."""
    surfaces = [make(16), make(32)]
    flat, zero = geometry(surfaces[0]), geometry(surfaces[0], ZERO_EXPONENT)
    for name in FLAT_SHORT_CUTS:
        assert np.array_equal(getattr(flat, name), getattr(zero, name)), name
    for name, check in FLAT_CHECKS.items():
        assert (masked_report(check, surfaces, EUC)
                == masked_report(check, surfaces, ZERO_EXPONENT)), name


def test_conformal_curvature_frame_components_difference_nothing(monkeypatch):
    """No finite difference runs in either shipped ambient: not in its
    tensors, not in the frame components, not in any check."""
    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference derivative taken")

    monkeypatch.setattr(AmbientManifold, "_fd_derivative", refuse)
    surfaces = [perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n) for n in (16, 32)]
    for ambient in (euclidean_c2(), conformal("0.1*sin(p1) + 0.05*cos(p2)")):
        pos = surfaces[0].positions()
        for name in ("metric_derivative_at", "j_derivative_at", "christoffel_at",
                     "christoffel_derivative_at", "curvature_at",
                     "nabla_j_tensor_at", "d_kahler_form_at"):
            assert np.all(np.isfinite(getattr(ambient, name)(pos))), name
        assert np.all(np.isfinite(curvature_data(ambient, pos).components))
        G = geometry(surfaces[0], ambient)
        k1213, k1224 = G.curvature_frame_components
        assert np.all(np.isfinite(k1213)) and np.all(np.isfinite(k1224))
        reports = [
            verify_gradient_identities(surfaces, ambient),
            verify_laplacian_identity(surfaces, ambient),
            verify_critical_identity(surfaces[1], ambient, 1.0),
            check_condition_cyclic(surfaces[1], ambient),
            check_condition_symmetric(surfaces[1], ambient),
            verify_first_variation(surfaces[0], ambient, 1.0),
        ]
        assert all(rep.status for rep in reports)


def test_non_finite_ambient_metric_raises_typed_error():
    """The conformal metric at the nodes overflows: ``metric_at`` refuses it,
    and so does a geometry that samples the 4x4 metric (the general path)."""
    amb = conformal("400*p1")
    general = AmbientManifold(metric_field=amb.metric_field, j_field=amb.j_field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate):
            amb.metric_at(FRAME_SURFACES[0].positions())
        with pytest.raises(AmbientDegenerate):
            geometry(FRAME_SURFACES[0], general).det_induced


@pytest.mark.parametrize(
    "expression, message",
    [("400*p1", "not finite"), ("-400*p1", "positive definite")],
    ids=["overflow", "underflow"],
)
def test_conformal_factor_out_of_range_raises_typed_error_in_a_geometry(
        expression, message):
    """exp(2 lam) that overflows or underflows to zero is refused where a
    geometry lowers by it, with the messages of ``metric_at``, though the
    geometry never samples the 4x4 metric."""
    amb = conformal(expression)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate, match=message):
            geometry(FRAME_SURFACES[0], amb).det_induced
        with pytest.raises(AmbientDegenerate, match=message):
            verify_laplacian_identity(FRAME_SURFACES[:1], amb)


def test_conformal_lowering_is_the_metric_product_bit_for_bit():
    """The scalar lowering exp(2 lam) v equals v @ g for g = exp(2 lam) I:
    each entry of the product has one nonzero term.  The conformal sample
    is checked against the general one on the same ambient."""
    G = geometry(FRAME_SURFACES[1], CONF)
    unadapted = ~G.adapted_frame.adapted
    assert unadapted.any()
    closed, base = CONF.sample(G.pos), AmbientManifold.sample(CONF, G.pos)
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((3,) + unadapted.shape + (2, 4))
    assert closed.lower(rows).tobytes() == base.lower(rows).tobytes()
    assert base.lower(rows).tobytes() == (rows @ CONF.metric_at(G.pos)).tobytes()


@pytest.mark.parametrize("entry", ["nabla_j_frame", "curvature_frame"])
def test_conformal_entry_points_raise_typed_error_on_overflow(entry):
    """The closed forms read exp(2 lam) themselves; an overflow is typed too."""
    amb = conformal("400*p1")
    pos = FRAME_SURFACES[0].positions()
    frame = np.broadcast_to(np.eye(4), pos.shape[:-1] + (4, 4))
    args = (frame, ALL_LEGS) if entry == "nabla_j_frame" else (frame,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate):
            getattr(amb.sample(pos), entry)(*args)


@pytest.mark.parametrize(
    "entry",
    ["metric_factor_at", "metric_derivative_at", "d_kahler_form_at",
     "nabla_j_frame", "curvature_frame"],
)
def test_conformal_entry_points_raise_typed_error_on_underflow(entry):
    """exp(2 lam) = exp(-800) underflows to zero: every closed form that
    reads the factor refuses it, as ``metric_at`` does."""
    amb = conformal("-400")
    pos = FRAME_SURFACES[0].positions()
    frame = np.broadcast_to(np.eye(4), pos.shape[:-1] + (4, 4))
    if entry == "nabla_j_frame":
        owner, args = amb.sample(pos), (frame, ALL_LEGS)
    elif entry == "curvature_frame":
        owner, args = amb.sample(pos), (frame,)
    else:
        owner, args = amb, (pos,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate) as info:
            getattr(owner, entry)(*args)
    assert str(info.value) == "metric not positive definite at some evaluation point"


# -- node fields built on the node vectors ------------------------------

GRID_SHAPES = [(8, 8), (9, 9), (32, 32), (128, 128), (8, 13), (32, 9)]


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("shape", GRID_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_generators_equal_their_grid_formulas_bit_for_bit(shape):
    """Each generator takes sin and cos on the node vectors; its periodic
    part has the bits of the same formula taken at every node."""
    n, m = shape
    bumps = [
        (perturbed_graph(0.5, 0.05, n_theta=n, n_phi=m), zbar_graph(0.5, n, m), 0.05, (1, 1)),
        (perturbed_graph(0.9, 0.3, (2, 3), n, m), zbar_graph(0.9, n, m), 0.3, (2, 3)),
        (perturbed_holomorphic_graph(0.3, -0.2 + 0.1j, 0.05, (1, 2), n, m),
         holomorphic_graph(0.3, -0.2 + 0.1j, n, m), 0.05, (1, 2)),
    ]
    for S, base, eps, modes in bumps:
        assert_same_bits(S.periodic_part, grid_bump(base, eps, modes))
    assert_same_bits(lagrangian_torus(1.0, 0.7, n, m).periodic_part,
                     grid_lagrangian_torus(1.0, 0.7, n, m))
    assert_same_bits(revolution_torus(2.0, 0.5, n, m).periodic_part,
                     grid_revolution_torus(2.0, 0.5, n, m))


@pytest.mark.parametrize("periods", [(2.0 * np.pi, 2.0 * np.pi), (3.0, 5.5), (0.7, 2.0 * np.pi)],
                         ids=["two-pi", "3-5.5", "0.7-two-pi"])
@pytest.mark.parametrize("shape", GRID_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_positions_equal_the_grid_formula_bit_for_bit(shape, periods):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    S = ImmersedSurface(rng.standard_normal((4, 2)),
                        rng.standard_normal(shape + (4,)), *periods)
    assert_same_bits(S.positions(), grid_positions(S))
    th, ph = S.grids()  # the open grid of the same nodes
    assert th.shape == (shape[0], 1) and ph.shape == (1, shape[1])
    for got, want in zip(np.broadcast_arrays(th, ph), full_grids(S)):
        assert_same_bits(got, want)
