"""Tests for the angle-weighted area functional and its critical operator."""

import numpy as np
import pytest

from symcrit.ambient import conformal, euclidean_c2
from symcrit.errors import AmbientDegenerate, NotImmersed, NotSymplectic
from symcrit.flow import run_flow, stable_step
from symcrit.functional import _l_beta_along, el_operator, l_beta, validate_beta
from symcrit.surface import (
    ImmersedSurface,
    SurfaceGeometry,
    holomorphic_graph,
    lagrangian_torus,
    perturbed_graph,
    perturbed_holomorphic_graph,
    periodic_d1,
    revolution_torus,
    zbar_graph,
)
from symcrit.verify import (
    ORDER_TOL,
    _variation_fields,
    critical_identity_terms,
    gradient_identity_residuals,
    laplacian_identity_terms,
)

from reduced_tori import kahler_torus
from reference import (
    KAHLER_PRODUCT,
    block,
    counted,
    el_components,
    full_grids,
    jj_grad_perp,
    tangent_pair,
)

EUC = euclidean_c2()


def closed_form(c, beta):
    """Value of the functional on the conjugate-linear graph of slope c."""
    return 4.0 * np.pi**2 * (1.0 + c * c) ** (beta + 1.0) / (1.0 - c * c) ** beta


@pytest.mark.parametrize("c", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.5])
def test_l_beta_closed_form(c, beta):
    S = zbar_graph(c, n_theta=32, n_phi=32)
    got = l_beta(S, EUC, beta)
    want = closed_form(c, beta)
    assert abs(got - want) / want < 1e-12


def test_revolution_torus_not_symplectic():
    # the angle cosine vanishes along two circles of the tube
    S = revolution_torus(2.0, 0.5, n_theta=64, n_phi=64)
    with pytest.raises(NotSymplectic):
        l_beta(S, EUC, 0.0)


def test_l_zero_is_area():
    """At beta = 0 the functional is the area: the sum of the area weights,
    4 pi^2 (1 + c^2) for the graph of slope c."""
    c = 0.5
    S = zbar_graph(c, n_theta=32, n_phi=32)
    got = l_beta(S, EUC, 0.0)
    assert got == float(np.sum(SurfaceGeometry(S, EUC).area_weights))
    assert abs(got - 4.0 * np.pi**2 * (1.0 + c * c)) < 1e-12 * got


def test_beta_minus_one_rejected():
    with pytest.raises(ValueError):
        validate_beta(-1.0)
    with pytest.raises(ValueError):
        l_beta(zbar_graph(0.5, n_theta=8, n_phi=8), EUC, -1.0)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_beta_rejected(beta):
    for for_flow in (False, True):
        with pytest.raises(ValueError, match="finite"):
            validate_beta(beta, for_flow=for_flow)
    with pytest.raises(ValueError, match="finite"):
        l_beta(zbar_graph(0.5, n_theta=8, n_phi=8), EUC, beta)


def test_negative_beta_allowed_for_energy_not_flow():
    assert validate_beta(-0.5) == -0.5
    with pytest.raises(ValueError):
        validate_beta(-0.5, for_flow=True)


def test_lagrangian_torus_not_symplectic():
    S = lagrangian_torus(1.0, 1.0, n_theta=16, n_phi=16)
    with pytest.raises(NotSymplectic) as err:
        l_beta(S, EUC, 1.0)
    assert err.value.bad_nodes == 16 * 16


# -- critical operator ------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_holomorphic_graph_is_critical(beta):
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    el = el_operator(S, EUC, beta)
    assert el.norm_linf < 1e-12
    assert el.norm_l2 < 1e-12


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_zbar_graph_is_critical(beta):
    S = zbar_graph(0.5, n_theta=16, n_phi=16)
    el = el_operator(S, EUC, beta)
    assert el.norm_linf < 1e-10
    r3, r4 = el_components(S, EUC, beta)
    assert np.max(np.abs(r3)) < 1e-10
    assert np.max(np.abs(r4)) < 1e-10


def test_perturbed_graph_not_critical():
    S = perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32)
    el = el_operator(S, EUC, 1.0)
    assert el.norm_linf > 1e-3


def test_el_vector_is_normal():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    G = SurfaceGeometry(S, EUC)
    el = el_operator(S, EUC, 1.0, geometry=G)
    tangential = el.vector - G.project_normal(el.vector)
    assert np.max(np.abs(tangential)) < 1e-12


def test_el_components_match_vector():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    beta = 1.5
    G = SurfaceGeometry(S, EUC)
    el = el_operator(S, EUC, beta, geometry=G)
    r3, r4 = el_components(S, EUC, beta, geometry=G)
    ca3 = G.cos_alpha**3
    comp3 = G.dot(el.vector, G.adapted_frame.e3)
    comp4 = G.dot(el.vector, G.adapted_frame.e4)
    assert np.max(np.abs(comp3 - ca3 * r3)) < 1e-10
    assert np.max(np.abs(comp4 - ca3 * r4)) < 1e-10


def test_el_frame_components_are_lazy():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    G = SurfaceGeometry(S, EUC)
    el = el_operator(S, EUC, 1.0, geometry=G)
    assert "adapted_frame" not in G.__dict__


@pytest.mark.parametrize(
    "ambient", [EUC, conformal("0.1*sin(p1) + 0.05*cos(p2)")], ids=["flat", "conformal"]
)
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_descent_step_builds_no_tangent_frame(ambient, beta):
    """What one descent step reads (l_beta, E, the step cap) needs no frame."""
    S = perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=16, n_phi=16)
    G = SurfaceGeometry(S, ambient)
    l_beta(S, ambient, beta, geometry=G)
    el_operator(S, ambient, beta, geometry=G)
    stable_step(G, beta)
    assert "adapted_frame" not in vars(G)


def refuse(*args, **kwargs):
    raise AssertionError("sampled where nothing should be")


def test_flat_l_beta_builds_no_node_fields(monkeypatch):
    """The flat functional needs no positions and no per-node metric or J,
    and the flat descent never samples them: with ``positions``,
    ``metric_at`` and ``j_at`` refusing every call, l_beta and one step of
    the flow run."""
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    want = l_beta(S, EUC, 1.0)
    ambient = euclidean_c2()
    ambient.metric_at = ambient.j_at = refuse
    monkeypatch.setattr(ImmersedSurface, "positions", refuse)
    assert l_beta(S, ambient, 1.0) == want
    assert run_flow(S, ambient, 1.0, max_iterations=1, res_tol=0.0).iterations == 1


def test_flat_geometry_never_samples_metric_or_j(monkeypatch):
    """Flat frames, second fundamental forms, E and the Laplacian terms use
    the Euclidean dot and the constant J: with ``positions``, ``metric_at``
    and ``j_at`` refusing every call, they are all built."""
    ambient = euclidean_c2()
    ambient.metric_at = ambient.j_at = refuse
    monkeypatch.setattr(ImmersedSurface, "positions", refuse)
    torus = SurfaceGeometry(revolution_torus(n_theta=16, n_phi=16), ambient)
    assert not torus.adapted_frame.adapted.all()  # raw gauge at some nodes
    torus.second_fundamental
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    G = SurfaceGeometry(S, ambient)
    G.adapted_frame, G.second_fundamental
    el_operator(S, ambient, 1.0, geometry=G)
    laplacian_identity_terms(G)


def test_conformal_geometry_never_samples_the_4x4_metric():
    """A conformal metric is exp(2 lam) delta, so surfaces lower by the
    scalar: the refinement studies' fields, E and the functional build no
    per-node 4x4 metric or J, on a torus with unadapted nodes too.  With
    ``metric_at`` and ``j_at`` refusing every call, each geometry
    evaluates lam once, on its nodes."""
    amb = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    amb.metric_at = amb.j_at = refuse
    lam = []
    amb.conformal_exponent = counted(amb.conformal_exponent, lam)
    torus = SurfaceGeometry(revolution_torus(n_theta=16, n_phi=16), amb)
    assert not torus.adapted_frame.adapted.all()
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    G = SurfaceGeometry(S, amb)
    l_beta(S, amb, 1.0, geometry=G)
    el_operator(S, amb, 1.0, geometry=G)
    for geometry in (torus, G):
        laplacian_identity_terms(geometry)
        gradient_identity_residuals(geometry)
        geometry.area_weights
    assert lam == [(16, 16), (16, 16)]


def test_conformal_geometry_evaluates_lam_once_on_its_nodes():
    """Every read of a conformal geometry shares one sample, which holds
    exp(2 lam) and grad lam: the functional, E, the Laplacian and gradient
    identity terms and the critical identity terms evaluate lam, grad lam
    and the Hessian of lam once each, on the node grid."""
    amb = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    calls = {"conformal_exponent": [], "conformal_gradient": [], "conformal_hessian": []}
    for name, shapes in calls.items():
        setattr(amb, name, counted(getattr(amb, name), shapes))
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    G = SurfaceGeometry(S, amb)
    l_beta(S, amb, 1.0, geometry=G)
    el_operator(S, amb, 1.0, geometry=G)
    laplacian_identity_terms(G)
    gradient_identity_residuals(G)
    critical_identity_terms(G, 1.0)
    assert calls == {name: [(16, 16)] for name in calls}


def test_jj_grad_perp_identity_matches_raw_projection():
    S = perturbed_graph(0.5, 0.05, n_theta=48, n_phi=48)
    for ambient in (EUC, conformal("0.1*sin(p1) + 0.05*cos(p2)")):
        G = SurfaceGeometry(S, ambient)
        identity = jj_grad_perp(G)
        # reference: project J grad cos(alpha) on the tangent plane, apply J
        # again and project on the normal plane
        ca = G.cos_alpha
        dcos = np.stack(
            [periodic_d1(ca, 0, S.h_theta), periodic_d1(ca, 1, S.h_phi)], axis=-1
        )
        i00, i01, i11 = G._inverse_entries
        up = np.einsum("...ij,...j->...i", block(i00, i01, i01, i11), dcos)
        grad = np.einsum("...i,...ia->...a", up, tangent_pair(G))
        J = ambient.j_at(G.pos)
        jg = np.einsum("...ab,...b->...a", J, grad)
        jg_tan = jg - G.project_normal(jg)
        raw = G.project_normal(np.einsum("...ab,...b->...a", J, jg_tan))
        scale = max(np.max(np.abs(identity)), 1e-12)
        assert np.max(np.abs(identity - raw)) / scale < 1e-8


def test_el_norms_match_manual_reduction():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    G = SurfaceGeometry(S, EUC)
    el = el_operator(S, EUC, 1.0, geometry=G)
    mag = np.sqrt(G.dot(el.vector, el.vector))
    l2 = np.sqrt(np.sum(mag**2 * G.area_weights))
    assert abs(el.norm_l2 - l2) < 1e-12
    assert abs(el.norm_linf - np.max(mag)) < 1e-14


# the reduced L_beta of the exact Kaehler tori, to 10 digits, from an
# independent build of the first-integral solver
REDUCED_L = {1.0: 82.6370314606, 2.0: 138.2617026678}


@pytest.mark.parametrize("beta", sorted(REDUCED_L))
def test_exact_kahler_torus_is_critical_at_positive_beta(beta):
    """On the torus the symmetry reduction makes critical, l_beta is the
    reduced L_beta to 1e-10 at n = 64, and E falls at the stencils' order."""
    E = []
    for n in (16, 32, 64):
        S, L = kahler_torus(beta, n)
        E.append(el_operator(S, KAHLER_PRODUCT, beta).norm_linf)
    assert L == pytest.approx(REDUCED_L[beta], abs=1e-9)
    assert abs(l_beta(S, KAHLER_PRODUCT, beta) - L) < 1e-10
    assert min(np.log2(np.divide(E[:-1], E[1:]))) >= ORDER_TOL


def test_el_operator_deterministic():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    el = el_operator(S, EUC, 1.0)
    el2 = el_operator(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), EUC, 1.0)
    assert np.array_equal(el.vector, el2.vector)
    assert el.norm_l2 == el2.norm_l2


@pytest.mark.parametrize("s", [2.0**-17, 2.0**-10, 2.0**10], ids=["2^-17", "2^-10", "2^10"])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize(
    "surface",
    [perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16),
     perturbed_holomorphic_graph(n_theta=16, n_phi=16)],
    ids=["perturbed_graph", "perturbed_holomorphic_graph"],
)
def test_scaling_a_surface_by_a_power_of_two_scales_l_beta_and_e_exactly(surface, beta, s):
    """In flat C^2 the surface s F has area element s^2 dA, the same
    angle and E / s, and a power of two scales every product exactly:
    so the values are equal bit for bit, along a line too, and no gate on
    the scale refuses the small surface."""
    scaled = ImmersedSurface(s * surface.linear_part, s * surface.periodic_part,
                             surface.t_theta, surface.t_phi)
    G, H = SurfaceGeometry(surface, EUC), SurfaceGeometry(scaled, EUC)
    assert l_beta(scaled, EUC, beta, geometry=H) == s**2 * l_beta(surface, EUC, beta, geometry=G)
    assert H.cos_alpha.tobytes() == G.cos_alpha.tobytes()
    el = el_operator(surface, EUC, beta, geometry=G)
    el_scaled = el_operator(scaled, EUC, beta, geometry=H)
    assert el_scaled.vector.tobytes() == (el.vector / s).tobytes()
    assert el_scaled.norm_l2 == el.norm_l2
    xi = _variation_fields(G)[0]
    assert _l_beta_along(H, beta, s * xi)(1e-3) == s**2 * _l_beta_along(G, beta, xi)(1e-3)


@pytest.mark.parametrize("evaluate", [l_beta, el_operator, el_components],
                         ids=["l_beta", "el_operator", "el_components"])
def test_geometry_of_another_surface_or_ambient_is_rejected(evaluate):
    """A passed geometry must be the one of the surface and ambient passed
    beside it; otherwise the values would silently be that geometry's."""
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    other = perturbed_graph(0.5, 0.1, n_theta=16, n_phi=16)
    conf = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    for geometry in (SurfaceGeometry(other, EUC), SurfaceGeometry(S, conf)):
        with pytest.raises(ValueError, match="geometry"):
            evaluate(S, EUC, 1.0, geometry=geometry)
    evaluate(S, EUC, 1.0, geometry=SurfaceGeometry(S, EUC))


# -- L_beta along a line ----------------------------------------------

CONF = conformal("0.1*sin(p1) + 0.05*cos(p2)")
# the steps that verify_first_variation takes at its default delta
STEPS = (1e-4, -1e-4, 1e-3, -1e-3, 2e-3, -2e-3, 4e-3, -4e-3)


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["flat", "conformal"])
@pytest.mark.parametrize(
    "surface",
    [perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32),
     perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=32, n_phi=32),
     holomorphic_graph(0.3, -0.2, n_theta=32, n_phi=32)],
    ids=["perturbed_graph", "perturbed_holomorphic_graph", "holomorphic_graph"],
)
def test_l_beta_along_a_line_is_l_beta_of_the_displaced_surface(ambient, surface):
    """The quadratics in t of the tangents' Gram entries and omega give
    l_beta of the displaced surface at every step of the first-variation
    check, along each of its directions, to roundoff."""
    G = SurfaceGeometry(surface, ambient)
    for xi in _variation_fields(G):
        for beta in (0.0, 1.0, 2.0):
            at = _l_beta_along(G, beta, xi)
            for t in STEPS:
                want = l_beta(surface.displaced(t * xi), ambient, beta)
                assert abs(at(t) - want) <= 1e-14 * abs(want), (beta, t)


def _line(component, values):
    """The complex line p3 = p4 = 0 at 16^2, and the direction xi whose
    ``component`` is ``values(theta)`` and whose other components are 0."""
    S = holomorphic_graph(0.0, n_theta=16, n_phi=16)
    th, _ = full_grids(S)
    xi = np.zeros(th.shape + (4,))
    xi[..., component] = values(th)
    return S, xi


def _cancel_f_theta(S, xi):
    """The step t at which F_theta + t D_theta xi vanishes at theta = 0."""
    return -1.0 / periodic_d1(xi, 0, S.h_theta)[0, 0, 0]


@pytest.mark.parametrize(
    "ambient, component, values, step, error",
    [
        (EUC, 2, np.sin, lambda S, xi: 1e5, NotSymplectic),
        (CONF, 2, np.sin, lambda S, xi: 1e5, NotSymplectic),
        (EUC, 0, lambda th: -np.sin(th), _cancel_f_theta, NotImmersed),
        (CONF, 0, lambda th: -np.sin(th), _cancel_f_theta, NotImmersed),
        (conformal("exp(p3)"), 2, np.ones_like, lambda S, xi: 10.0, AmbientDegenerate),
    ],
    ids=["cos-floor-flat", "cos-floor-conformal", "singular-flat",
         "singular-conformal", "factor-overflow"],
)
def test_l_beta_along_a_line_raises_as_l_beta_does(ambient, component, values,
                                                   step, error):
    """A step that tilts the plane to cos(alpha) <= COS_FLOOR, one that
    cancels F_theta on a node line and one whose exp(2 lam) overflows at
    the displaced nodes raise l_beta's error, with its message."""
    S, xi = _line(component, values)
    t = step(S, xi)
    at = _l_beta_along(SurfaceGeometry(S, ambient), 1.0, xi)
    l_beta(S, ambient, 1.0)  # the surface itself is fine
    with pytest.raises(error) as along:
        at(t)
    with pytest.raises(error) as displaced:
        l_beta(S.displaced(t * xi), ambient, 1.0)
    assert str(along.value) == str(displaced.value)
