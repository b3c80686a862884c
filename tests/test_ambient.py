import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcrit
from symcrit.ambient import (
    AmbientManifold,
    STANDARD_J,
    conformal,
    euclidean_c2,
    parse_scalar_field,
)
from symcrit.errors import AmbientDegenerate, StructureViolation

RNG = np.random.default_rng(20250825)


def random_points(n, scale=1.0):
    return RNG.uniform(-scale, scale, size=(n, 4))


# -- flat builtin ------------------------------------------------------


def test_euclidean_fields_are_constant():
    M = euclidean_c2()
    pts = random_points(7)
    g = M.metric_at(pts)
    J = M.j_at(pts)
    assert np.array_equal(g, np.broadcast_to(np.eye(4), (7, 4, 4)))
    assert np.array_equal(J, np.broadcast_to(STANDARD_J, (7, 4, 4)))


def test_euclidean_connection_and_curvature_vanish_exactly():
    M = euclidean_c2()
    pts = random_points(5)
    assert np.max(np.abs(M.christoffel_at(pts))) == 0.0
    assert np.max(np.abs(M.curvature_at(pts))) == 0.0
    assert np.max(np.abs(M.nabla_j_tensor_at(pts))) == 0.0
    assert np.max(np.abs(M.d_kahler_form_at(pts))) == 0.0


def test_standard_j_rotates_coordinate_axes():
    # J maps d1->d2, d2->-d1, d3->d4, d4->-d3
    e = np.eye(4)
    assert np.array_equal(STANDARD_J @ e[0], e[1])
    assert np.array_equal(STANDARD_J @ e[1], -e[0])
    assert np.array_equal(STANDARD_J @ e[2], e[3])
    assert np.array_equal(STANDARD_J @ e[3], -e[2])


# -- validation errors -------------------------------------------------


def test_indefinite_metric_raises():
    def bad_metric(points):
        points = np.asarray(points, dtype=float)
        g = np.broadcast_to(np.diag([1.0, 1.0, 1.0, -1.0]), points.shape[:-1] + (4, 4))
        return g.copy()

    M = AmbientManifold(metric_field=bad_metric, j_field=lambda p: STANDARD_J.copy())
    with pytest.raises(AmbientDegenerate):
        M.metric_at(np.zeros(4))


def test_broken_j_raises_structure_violation():
    def bad_j(points):
        points = np.asarray(points, dtype=float)
        out = np.broadcast_to(STANDARD_J, points.shape[:-1] + (4, 4)).copy()
        out[..., 0, 1] += 1e-3
        return out

    M = euclidean_c2()
    M = AmbientManifold(metric_field=M.metric_field, j_field=bad_j)
    with pytest.raises(StructureViolation):
        M.j_at(np.zeros(4))


def test_non_finite_metric_raises_without_warnings():
    M = conformal("400*p1")  # exp(800) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate, match="not finite"):
            M.metric_at([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(AmbientDegenerate, match="not finite"):
            M.metric_at([[1.0, 0.0, 0.0, 0.0]], check=False)


def test_non_finite_j_raises_structure_violation():
    def nan_j(points):
        points = np.asarray(points, dtype=float)
        out = np.broadcast_to(STANDARD_J, points.shape[:-1] + (4, 4)).copy()
        out[..., 0, 1] = np.nan
        return out

    M = AmbientManifold(metric_field=euclidean_c2().metric_field, j_field=nan_j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureViolation, match="not finite"):
            M.j_at(np.zeros(4))


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_bad_fd_step_raises(step):
    with pytest.raises(ValueError, match="fd_step"):
        euclidean_c2(fd_step=step)
    with pytest.raises(ValueError, match="fd_step"):
        conformal("0.1*sin(p1)", fd_step=step)


# -- conformal family --------------------------------------------------


def conformal_closed_form_gamma(M, pts):
    grad = M.conformal_gradient(pts)
    eye = np.eye(4)
    return (
        np.einsum("...c,ab->...abc", grad, eye)
        + np.einsum("...b,ac->...abc", grad, eye)
        - np.einsum("...a,bc->...abc", grad, eye)
    )


def test_conformal_christoffel_matches_closed_form_analytic_path():
    M = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    pts = random_points(25)
    gamma = M.christoffel_at(pts)
    assert np.max(np.abs(gamma - conformal_closed_form_gamma(M, pts))) < 1e-12


def test_conformal_christoffel_matches_closed_form_fd_path():
    ref = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    # same metric but with the analytic derivative field withheld
    M = AmbientManifold(
        metric_field=ref.metric_field,
        j_field=ref.j_field,
        fd_step=1e-3,
        constant_j=True,
    )
    pts = random_points(25)
    gamma = M.christoffel_at(pts)
    assert np.max(np.abs(gamma - conformal_closed_form_gamma(ref, pts))) < 1e-8


def test_connection_symmetric_in_lower_indices():
    M = conformal("0.08*sin(p1)*cos(p3) + 0.02*p2")
    data = M.connection_at(random_points(10))
    assert data.symmetry_residual < 1e-12


def test_metric_covariantly_constant():
    M = conformal("0.1*sin(p1) + 0.04*p2*p3")
    pts = random_points(10)
    dg = M.metric_derivative_at(pts)
    gamma = M.christoffel_at(pts)
    g = M.metric_at(pts)
    nabla_g = (
        dg
        - np.einsum("...dca,...db->...cab", gamma, g)
        - np.einsum("...dcb,...ad->...cab", gamma, g)
    )
    assert np.max(np.abs(nabla_g)) < 1e-12  # analytic derivative path


def test_metric_covariantly_constant_fd_path():
    ref = conformal("0.1*sin(p1) + 0.04*p2*p3")
    M = AmbientManifold(
        metric_field=ref.metric_field, j_field=ref.j_field, fd_step=1e-3
    )
    pts = random_points(10)
    dg = M.metric_derivative_at(pts)
    gamma = M.christoffel_at(pts)
    g = M.metric_at(pts)
    nabla_g = (
        dg
        - np.einsum("...dca,...db->...cab", gamma, g)
        - np.einsum("...dcb,...ad->...cab", gamma, g)
    )
    assert np.max(np.abs(nabla_g)) < 1e-6 * M.fd_step**2 + 1e-10


# Frozen values from an exact symbolic computation with the same index
# and sign conventions (lam = p1^2/10, conformally flat metric).
FROZEN_CURVATURE_ORIGIN = {
    (0, 1, 0, 1): 0.2,
    (0, 1, 1, 0): -0.2,
    (0, 2, 0, 2): 0.2,
    (1, 2, 1, 2): 0.0,
    (2, 3, 2, 3): 0.0,
    (0, 1, 0, 2): 0.0,
}
FROZEN_CURVATURE_OFFSET = {
    (0, 1, 0, 1): 0.2102542192752048,
    (0, 1, 1, 0): -0.2102542192752048,
    (0, 2, 0, 2): 0.2102542192752048,
    (1, 2, 1, 2): 0.01051271096376024,
    (2, 3, 2, 3): 0.01051271096376024,
    (1, 3, 1, 3): 0.01051271096376024,
}


def test_conformal_curvature_against_frozen_symbolic_values():
    M = conformal("0.1*p1^2")
    K0 = M.curvature_at(np.zeros(4))
    for idx, want in FROZEN_CURVATURE_ORIGIN.items():
        assert K0[idx] == pytest.approx(want, abs=5e-9)
    Kq = M.curvature_at(np.array([0.5, -1.0 / 3.0, 0.2, 2.0 / 7.0]))
    for idx, want in FROZEN_CURVATURE_OFFSET.items():
        assert Kq[idx] == pytest.approx(want, abs=5e-9)


THREE_AMBIENTS = [
    "0.1*sin(p1)",
    "0.08*sin(p1) + 0.05*cos(p2)",
    "0.05*p1*p2 + 0.03*cos(p3)",
]


@pytest.mark.parametrize("expr", THREE_AMBIENTS)
def test_curvature_symmetries_random_points(expr):
    M = conformal(expr)
    data = M.curvature_data_at(random_points(100))
    assert data.antisymmetry_12 < 1e-6
    assert data.antisymmetry_34 < 1e-6
    assert data.pair_symmetry < 1e-6
    assert data.first_bianchi < 1e-6


@pytest.mark.parametrize("expr", THREE_AMBIENTS)
def test_conformal_curvature_matches_fd_path(expr):
    ref = conformal(expr)
    # same fields, but the base class differences the Christoffel field
    M = AmbientManifold(
        metric_field=ref.metric_field,
        j_field=ref.j_field,
        metric_derivative_field=ref.metric_derivative_field,
        constant_j=True,
    )
    pts = random_points(40, scale=2.0)
    assert np.max(np.abs(ref.curvature_at(pts) - M.curvature_at(pts))) < 1e-8


# -- covariant derivative of J ----------------------------------------


def test_nabla_j_linear_in_direction():
    M = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    pts = random_points(6)
    X = RNG.normal(size=(6, 4))
    Y = RNG.normal(size=(6, 4))
    lhs = M.nabla_j_at(pts, 2.0 * X - 0.5 * Y)
    rhs = 2.0 * M.nabla_j_at(pts, X) - 0.5 * M.nabla_j_at(pts, Y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_nabla_j_antilinearity_with_j():
    # differentiating J^2 = -I gives (nabla J) J + J (nabla J) = 0
    M = conformal("0.07*sin(p1)*cos(p2)")
    pts = random_points(8)
    S = M.nabla_j_tensor_at(pts)
    J = M.j_at(pts)
    resid = np.einsum("...cab,...bd->...cad", S, J) + np.einsum(
        "...ab,...cbd->...cad", J, S
    )
    assert np.max(np.abs(resid)) < 1e-10


def test_nabla_j_skew_adjoint():
    # nabla g = 0 and J skew-adjoint force g (nabla J) skew as well
    M = conformal("0.1*sin(p1) + 0.02*p3^2")
    pts = random_points(8)
    S = M.nabla_j_tensor_at(pts)
    g = M.metric_at(pts)
    form = np.einsum("...da,...cdb->...cab", g, S)
    assert np.max(np.abs(form + np.swapaxes(form, -2, -1))) < 1e-10


def test_d_kahler_form_matches_conformal_wedge_oracle():
    M = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    pts = random_points(12)
    dw = M.d_kahler_form_at(pts)
    lam = M.conformal_exponent(pts)
    grad = M.conformal_gradient(pts)
    w0 = np.einsum("ca,cb->ab", STANDARD_J, np.eye(4))
    fac = 2.0 * np.exp(2.0 * lam)
    oracle = fac[..., None, None, None] * (
        np.einsum("...a,bc->...abc", grad, w0)
        + np.einsum("...b,ca->...abc", grad, w0)
        + np.einsum("...c,ab->...abc", grad, w0)
    )
    assert np.max(np.abs(dw - oracle)) < 1e-9


# -- scalar expression parsing ----------------------------------------


def test_parse_scalar_field_supports_caret_power():
    val, grad, _ = parse_scalar_field("p1^2 + 0.5*p2")
    pts = np.array([[2.0, 4.0, 0.0, 0.0]])
    assert val(pts)[0] == pytest.approx(6.0)
    assert grad(pts)[0] == pytest.approx([4.0, 0.5, 0.0, 0.0])


def test_parse_scalar_field_rejects_unknown_names():
    with pytest.raises(ValueError):
        parse_scalar_field("q1 + sin(p2)")


def test_parse_scalar_field_constant_broadcasts():
    val, grad, _ = parse_scalar_field("0.25")
    pts = random_points(9)
    assert val(pts).shape == (9,)
    assert np.all(val(pts) == 0.25)
    assert np.max(np.abs(grad(pts))) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-0.2, 0.2),
    b=st.floats(-0.2, 0.2),
    px=st.floats(-2.0, 2.0),
    py=st.floats(-2.0, 2.0),
)
def test_conformal_metric_always_spd(a, b, px, py):
    M = conformal(f"{a}*sin(p1) + {b}*cos(p2)")
    pt = np.array([px, py, 0.3, -0.7])
    g = M.metric_at(pt)
    np.linalg.cholesky(g)
    J = M.j_at(pt)
    assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12


# -- optional heavy imports ---------------------------------------------

FLAT_RUN_THEN_CONFORMAL = """
import sys
import symcrit, symcrit.cli, symcrit.flow, symcrit.verify
from symcrit.surface import perturbed_graph
S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
assert symcrit.l_beta(S, symcrit.euclidean_c2(), 1.0) > 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
assert not loaded, loaded[:5]
M = symcrit.conformal("0.1*sin(p1)")
assert symcrit.l_beta(S, M, 1.0) > 0
assert "sympy" in sys.modules
"""


def test_flat_run_never_imports_sympy():
    src = str(Path(symcrit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FLAT_RUN_THEN_CONFORMAL],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
