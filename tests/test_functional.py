"""Tests for the angle-weighted area functional and its critical operator."""

import numpy as np
import pytest

from symcrit.ambient import conformal, euclidean_c2
from symcrit.errors import NotSymplectic
from symcrit.functional import (
    el_components,
    el_operator,
    jj_grad_perp,
    l_beta,
    validate_beta,
)
from symcrit.surface import (
    SurfaceGeometry,
    holomorphic_graph,
    lagrangian_torus,
    perturbed_graph,
    revolution_torus,
    zbar_graph,
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


def test_l_zero_is_area_with_floor_disabled():
    S = revolution_torus(2.0, 0.5, n_theta=64, n_phi=64)
    got = l_beta(S, EUC, 0.0, cos_floor=-2.0)
    assert abs(got - 4.0 * np.pi**2) < 1e-3


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


def test_angle_floor_configurable():
    # graph with cos(alpha) = 0.6 passes a floor of 0.5 and fails 0.7
    S = zbar_graph(0.5, n_theta=8, n_phi=8)
    l_beta(S, EUC, 1.0, cos_floor=0.5)
    with pytest.raises(NotSymplectic):
        l_beta(S, EUC, 1.0, cos_floor=0.7)


@pytest.mark.parametrize("cos_floor", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_cos_floor_rejected(cos_floor):
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    with pytest.raises(ValueError, match="cos_floor"):
        l_beta(S, EUC, 1.0, cos_floor=cos_floor)


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
    assert np.max(np.abs(el.comp3 - ca3 * r3)) < 1e-10
    assert np.max(np.abs(el.comp4 - ca3 * r4)) < 1e-10


def test_el_frame_components_are_lazy():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    G = SurfaceGeometry(S, EUC)
    el = el_operator(S, EUC, 1.0, geometry=G)
    assert "adapted_frame" not in G.__dict__
    comp3, comp4 = el.comp3, el.comp4
    assert "adapted_frame" in G.__dict__
    assert np.array_equal(comp3, G.dot(el.vector, G.adapted_frame.e3))
    assert np.array_equal(comp4, G.dot(el.vector, G.adapted_frame.e4))


def test_flat_l_beta_builds_no_node_fields():
    """The flat functional needs no positions, per-node J or derivative stack."""
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    G = SurfaceGeometry(S, EUC)
    l_beta(S, EUC, 1.0, geometry=G)
    assert not {"pos", "amb_g", "amb_j", "fderiv"} & set(G.__dict__)


def test_jj_grad_perp_identity_matches_raw_projection():
    S = perturbed_graph(0.5, 0.05, n_theta=48, n_phi=48)
    for ambient in (EUC, conformal("0.1*sin(p1) + 0.05*cos(p2)")):
        G = SurfaceGeometry(S, ambient)
        identity = jj_grad_perp(G)
        # reference: project J grad cos(alpha) on the tangent plane, apply J
        # again and project on the normal plane
        up = np.einsum("...ij,...j->...i", G.induced_metric_inv, G.dcos_param)
        grad = np.einsum("...i,...ia->...a", up, G.fderiv)
        jg = np.einsum("...ab,...b->...a", G.amb_j, grad)
        jg_tan = jg - G.project_normal(jg)
        raw = G.project_normal(np.einsum("...ab,...b->...a", G.amb_j, jg_tan))
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


def test_el_operator_deterministic():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    el = el_operator(S, EUC, 1.0)
    el2 = el_operator(perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24), EUC, 1.0)
    assert np.array_equal(el.vector, el2.vector)
    assert el.norm_l2 == el2.norm_l2
