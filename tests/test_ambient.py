import ast
import os
import re
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
    FD_STEP,
    AmbientManifold,
    STANDARD_J,
    conformal,
    euclidean_c2,
    parse_scalar_field,
)
from symcrit.errors import AmbientDegenerate, StructureViolation
from symcrit.functional import el_operator, l_beta
from symcrit.surface import ImmersedSurface, SurfaceGeometry, perturbed_graph
from symcrit.verify import (
    check_condition_cyclic,
    verify_first_variation,
    verify_gradient_identities,
    verify_laplacian_identity,
)

from reference import counted, curvature_data, full_hessian_table

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


def constant_field(table):
    """A chart field that is ``table`` at every point."""
    return lambda p: np.broadcast_to(table, np.shape(p)[:-1] + (4, 4)).copy()


@pytest.mark.parametrize(
    "table, message",
    [(np.full((4, 4), np.nan), "metric not finite at some evaluation point"),
     (np.eye(4) + 1e-6 * np.eye(4, k=1), "metric not symmetric (max asymmetry 1.000e-06)")],
    ids=["not-finite", "asymmetric"],
)
def test_general_metric_check_names_the_fault(table, message):
    M = AmbientManifold(metric_field=constant_field(table),
                        j_field=constant_field(STANDARD_J))
    with pytest.raises(AmbientDegenerate) as info:
        M.metric_at(np.zeros((3, 4)))
    assert str(info.value) == message


def test_j_not_metric_compatible_raises_structure_violation():
    """J^2 = -I holds, but the standard J is not an isometry of diag(1, 2, 1, 1)."""
    M = AmbientManifold(metric_field=constant_field(np.diag([1.0, 2.0, 1.0, 1.0])),
                        j_field=constant_field(STANDARD_J))
    with pytest.raises(StructureViolation) as info:
        M.j_at(np.zeros((3, 4)))
    assert str(info.value) == "J not metric compatible, |J^T g J - g| = 1.000e+00"


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


def test_vanishing_conformal_factor_raises():
    M = conformal("-400*p1")  # exp(-800) underflows to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate, match="positive definite"):
            M.metric_at([[1.0, 0.0, 0.0, 0.0]])


# a metric field of chart vectors, and a J field that is one 4x4 table
# for every grid: each broadcasts through some numpy expressions; the
# shape each returns at points of a given shape
WRONG_SHAPES = {
    "metric": (AmbientManifold(metric_field=lambda p: np.ones(np.shape(p)),
                               j_field=constant_field(STANDARD_J)),
               AmbientDegenerate, lambda points: points),
    "J": (AmbientManifold(metric_field=constant_field(np.eye(4)),
                          j_field=lambda p: STANDARD_J),
          StructureViolation, lambda points: (4, 4)),
}


@pytest.mark.parametrize("entry", [lambda S, M: l_beta(S, M, 1.0), check_condition_cyclic],
                         ids=["l_beta", "check_condition_cyclic"])
@pytest.mark.parametrize("field", WRONG_SHAPES)
def test_field_of_the_wrong_shape_is_a_typed_error(field, entry):
    """A metric or J field that is not (..., 4, 4) at (..., 4) points is
    refused by ``metric_at`` or ``j_at``, naming both shapes, before any
    check reads it."""
    M, error, returned = WRONG_SHAPES[field]
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    with pytest.raises(error) as info:
        entry(S, M)
    shape = r"(\([\d, ]*\))"
    parts = re.fullmatch(rf"{field} field returned shape {shape} at points of "
                         rf"shape {shape}; expected {shape}", str(info.value))
    got, points, want = (ast.literal_eval(part) for part in parts.groups())
    assert got == returned(points)
    assert want == points[:-1] + (4, 4)


# beside the identity metric: an analytic metric derivative that is one 4x4
# table for every grid, and one of the right shape that is NaN throughout
BAD_METRIC_DERIVATIVES = {
    "wrong-shape": (lambda p: np.zeros((4, 4)),
                    "metric derivative field returned shape (4, 4) at points of "
                    "shape (16, 16, 4); expected (16, 16, 4, 4, 4)"),
    "not-finite": (lambda p: np.full(np.shape(p)[:-1] + (4, 4, 4), np.nan),
                   "metric derivative not finite at some evaluation point"),
}


@pytest.mark.parametrize("entry", [lambda S, M: el_operator(S, M, 1.0), check_condition_cyclic],
                         ids=["el_operator", "check_condition_cyclic"])
@pytest.mark.parametrize("field", BAD_METRIC_DERIVATIVES)
def test_analytic_metric_derivative_is_checked_like_the_metric(field, entry):
    """``metric_derivative_at`` refuses an analytic metric derivative that
    is not (..., 4, 4, 4) at (..., 4) points, naming both shapes, or that
    is not finite, before any connection is contracted from it."""
    dg, message = BAD_METRIC_DERIVATIVES[field]
    M = AmbientManifold(metric_field=constant_field(np.eye(4)),
                        j_field=constant_field(STANDARD_J), metric_derivative_field=dg)
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientDegenerate) as info:
            entry(S, M)
    assert str(info.value) == message


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
    M = AmbientManifold(metric_field=ref.metric_field, j_field=ref.j_field)
    pts = random_points(25)
    gamma = M.christoffel_at(pts)
    assert np.max(np.abs(gamma - conformal_closed_form_gamma(ref, pts))) < 1e-8


def test_christoffel_symmetric_in_lower_indices():
    ref = conformal("0.08*sin(p1)*cos(p3) + 0.02*p2")
    # the closed form, and the base class's contraction of the analytic dg
    general = AmbientManifold(
        metric_field=ref.metric_field,
        j_field=ref.j_field,
        metric_derivative_field=ref.metric_derivative_field,
    )
    pts = random_points(10)
    for M in (ref, general):
        gamma = M.christoffel_at(pts)
        assert np.max(np.abs(gamma - np.swapaxes(gamma, -2, -1))) < 1e-12


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
    M = AmbientManifold(metric_field=ref.metric_field, j_field=ref.j_field)
    pts = random_points(10)
    dg = M.metric_derivative_at(pts)
    gamma = M.christoffel_at(pts)
    g = M.metric_at(pts)
    nabla_g = (
        dg
        - np.einsum("...dca,...db->...cab", gamma, g)
        - np.einsum("...dcb,...ad->...cab", gamma, g)
    )
    assert np.max(np.abs(nabla_g)) < 1e-6 * FD_STEP**2 + 1e-10


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
    data = curvature_data(M, random_points(100))
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
    )
    pts = random_points(40, scale=2.0)
    assert np.max(np.abs(ref.curvature_at(pts) - M.curvature_at(pts))) < 1e-8
    dgamma = ref.christoffel_derivative_at(pts)
    assert np.max(np.abs(dgamma - M.christoffel_derivative_at(pts))) < 1e-8


def conformal_change_curvature(M, pts):
    """-exp(2 lam) (T o delta), T = dd lam - dlam dlam + |dlam|^2 delta / 2,
    entry by entry."""
    grad = M.conformal_gradient(pts)
    T = (M.conformal_hessian(pts) - grad[:, :, None] * grad[:, None, :]
         + 0.5 * np.sum(grad**2, axis=-1)[:, None, None] * np.eye(4))
    d = np.eye(4)
    K = np.empty(pts.shape[:1] + (4, 4, 4, 4))
    for a, b, c, e in np.ndindex(4, 4, 4, 4):
        K[:, a, b, c, e] = (T[:, a, e] * d[b, c] + T[:, b, c] * d[a, e]
                            - T[:, a, c] * d[b, e] - T[:, b, e] * d[a, c])
    return -np.exp(2.0 * M.conformal_exponent(pts))[:, None, None, None, None] * K


@pytest.mark.parametrize("expr", THREE_AMBIENTS)
def test_conformal_curvature_contraction_matches_conformal_change_formula(expr):
    """The contraction of the closed-form connection and its partials
    agrees with the conformal-change formula to roundoff."""
    M = conformal(expr)
    pts = random_points(200, scale=3.0)
    K = M.curvature_at(pts)
    assert np.max(np.abs(K - conformal_change_curvature(M, pts))) < 1e-14 * max(
        1.0, float(np.max(np.abs(K))))


# -- covariant derivative of J ----------------------------------------


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


@pytest.mark.parametrize("expr", THREE_AMBIENTS)
def test_conformal_d_kahler_form_matches_fd_path(expr):
    ref = conformal(expr)
    # same fields, but the base class differences omega
    M = AmbientManifold(metric_field=ref.metric_field, j_field=ref.j_field)
    pts = random_points(40, scale=2.0)
    assert np.max(np.abs(ref.d_kahler_form_at(pts) - M.d_kahler_form_at(pts))) < 1e-11


# -- scalar expression parsing ----------------------------------------


def test_parse_scalar_field_supports_caret_power():
    val, grad, _ = parse_scalar_field("p1^2 + 0.5*p2")
    pts = np.array([[2.0, 4.0, 0.0, 0.0]])
    assert val(pts)[0] == pytest.approx(6.0)
    assert grad(pts)[0] == pytest.approx([4.0, 0.5, 0.0, 0.0])


def test_parse_scalar_field_rejects_unknown_names():
    with pytest.raises(ValueError):
        parse_scalar_field("q1 + sin(p2)")


@pytest.mark.parametrize(
    "expression",
    ["1/0", "zoo", "I*p1", "(-1)^(1/3)", "Max(p1, p2)", "E*p1", "sin(p1, p2)",
     "sin(x=p1)", "p1 if p2 else p3", "1j", "True", "'p1'", "2 p1", "",
     "1e400*p1", "1e308*10*p1", "exp(1000)*p1"],
)
def test_parse_scalar_field_rejects_input_outside_the_language(expression):
    with pytest.raises(ValueError, match="scalar field"):
        parse_scalar_field(expression)


def test_parse_scalar_field_executes_nothing(tmp_path):
    marker = tmp_path / "executed"
    with pytest.raises(ValueError, match="unsupported"):
        parse_scalar_field(f"__import__('pathlib').Path('{marker}').touch()")
    assert not marker.exists()


def test_parse_scalar_field_reads_the_whole_language():
    val, grad, hess = parse_scalar_field(
        "-(p1 - 2*p2)^3/7 + exp(+0.5*p3)*sin(p4) - cos(pi*p1)"
    )
    pts = random_points(5)
    p1, p2, p3, p4 = pts.T
    u = p1 - 2 * p2
    want = -u**3 / 7 + np.exp(0.5 * p3) * np.sin(p4) - np.cos(np.pi * p1)
    assert np.allclose(val(pts), want, rtol=1e-13, atol=1e-13)
    assert np.allclose(grad(pts)[:, 1], 6 * u**2 / 7, rtol=1e-13, atol=1e-13)
    assert np.allclose(hess(pts)[:, 2, 3], 0.5 * np.exp(0.5 * p3) * np.cos(p4),
                       rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("expression", [
    "0.1*sin(p1) + 0.05*cos(p2)",
    "0.3*p1*p2 - 0.2*p3^2*p4 + 0.1*cos(p1 - p4)",
    "0.05*exp(0.5*p3)*cos(p4) - 0.1*exp(-p1*p2)*sin(p2 + p3)",
])
def test_hessian_mirrors_ten_partials_bit_for_bit(monkeypatch, expression):
    """The parser takes each distinct second partial once, ten in all;
    its Hessian has the bits of the sixteen-entry table and is exactly
    symmetric."""
    import sympy

    import symcrit.ambient as A

    exprs, diffs = [], []
    vectorized, diff = A._vectorized, sympy.diff
    monkeypatch.setattr(A, "_vectorized",
                        lambda c, e, shape: exprs.append(e) or vectorized(c, e, shape))
    monkeypatch.setattr(sympy, "diff", lambda *a: diffs.append(a) or diff(*a))
    _, _, hess = parse_scalar_field(expression)
    assert sum(len(args) == 3 for args in diffs) == 10
    pts = np.concatenate([random_points(64, 3.0), np.zeros((1, 4))])
    H = hess(pts)
    want = full_hessian_table(exprs[0][0])(pts)
    assert H.tobytes() == want.tobytes()
    assert H.tobytes() == np.ascontiguousarray(np.swapaxes(H, -1, -2)).tobytes()


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


# -- the general path under a change of chart ---------------------------

# Flat C^2 in the chart y of x = psi(y) = y + CHART_EPS f(y).  f is 2 pi
# periodic in p1 and p2 and pi periodic in p3 and p4, so it is periodic
# along the winding of perturbed_graph(0.5, .), whose periods move the chart
# by (2 pi, 0, pi, 0) and (0, 2 pi, 0, -pi): psi maps such a torus to a
# torus with the same linear part.
CHART_EPS = 0.05


def chart_offset(p):
    """f(p) = (sin p2 + cos(2 p3) / 2, cos p1, sin(p1 + 2 p4), cos(2 p3) sin p2)."""
    p1, p2, p3, p4 = (p[..., i] for i in range(4))
    return np.stack([np.sin(p2) + 0.5 * np.cos(2 * p3), np.cos(p1),
                     np.sin(p1 + 2 * p4), np.cos(2 * p3) * np.sin(p2)], axis=-1)


def chart_jacobian(p):
    """D psi = I + CHART_EPS D f, D f[i, j] = d f_i / d p_j."""
    p1, p2, p3, p4 = (p[..., i] for i in range(4))
    df = np.zeros(p.shape[:-1] + (4, 4))
    df[..., 0, 1] = np.cos(p2)
    df[..., 0, 2] = -np.sin(2 * p3)
    df[..., 1, 0] = -np.sin(p1)
    df[..., 2, 0] = np.cos(p1 + 2 * p4)
    df[..., 2, 3] = 2 * np.cos(p1 + 2 * p4)
    df[..., 3, 1] = np.cos(2 * p3) * np.cos(p2)
    df[..., 3, 2] = -2 * np.sin(2 * p3) * np.sin(p2)
    return np.eye(4) + CHART_EPS * df


def chart_metric(p):
    D = chart_jacobian(p)
    return np.swapaxes(D, -1, -2) @ D  # the pullback D psi^T D psi


def chart_j(p):
    D = chart_jacobian(p)
    return np.linalg.solve(D, STANDARD_J @ D)  # D psi^-1 J_0 D psi


# a plain AmbientManifold: a non-diagonal metric, a J that varies, and every
# derivative by finite differences
FLAT_IN_CHART = AmbientManifold(chart_metric, chart_j, name="flat-in-chart")


def chart_surface(n):
    return perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n)


def mapped_to_flat(S):
    """psi o S: the same linear part, periodic part P + CHART_EPS f(positions)."""
    return ImmersedSurface(S.linear_part,
                           S.periodic_part + CHART_EPS * chart_offset(S.positions()))


def test_change_of_chart_keeps_the_functional_and_pushes_the_operator_forward(monkeypatch):
    """l_beta(S; chart) = l_beta(psi o S; flat) and D psi E_chart = E_flat(psi o S)
    up to the grid error of each side, so both differences fall at order 4."""
    sampled = {"metric_at": [], "j_at": []}
    for name, shapes in sampled.items():
        monkeypatch.setattr(FLAT_IN_CHART, name, counted(getattr(FLAT_IN_CHART, name), shapes))
    rel_l, err_e = [], []
    for n in (16, 32, 64):
        S, T = chart_surface(n), mapped_to_flat(chart_surface(n))
        G = SurfaceGeometry(S, FLAT_IN_CHART)
        flat = l_beta(T, euclidean_c2(), 0.0)
        rel_l.append(abs(l_beta(S, FLAT_IN_CHART, 0.0, geometry=G) - flat) / flat)
        E = el_operator(S, FLAT_IN_CHART, 1.0, geometry=G).vector
        pushed = (chart_jacobian(G.pos) @ E[..., None])[..., 0]
        err_e.append(np.max(np.abs(pushed - el_operator(T, euclidean_c2(), 1.0).vector)))
        # the general path ran: the metric and J were sampled on the nodes
        assert all((n, n) in shapes for shapes in sampled.values())
    for errs in (rel_l, err_e):
        assert min(np.log2(errs[k - 1] / errs[k]) for k in (1, 2)) > 3.5, errs
    assert rel_l[-1] < 1e-7 and err_e[-1] < 1e-6


def test_change_of_chart_passes_the_studies_and_the_first_variation():
    levels = [chart_surface(n) for n in (16, 32)]
    for study in (verify_gradient_identities, verify_laplacian_identity):
        rep = study(levels, FLAT_IN_CHART)
        assert rep.status == "pass", rep.to_text()[:400]
        assert rep.refinement[-1][3] > 3.5
    rep = verify_first_variation(levels[-1], FLAT_IN_CHART, 1.0)
    assert rep.status == "pass"
    assert rep.values["cyclic_condition_res"] < 1e-10  # Kahler, in disguise


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


# six fields covering ^, **, fractional and negative powers, /, unary minus,
# pi, sin, cos and exp; every field is finite on the points sampled
LAMBDIFY_NUMPY_ONLY = """
import sys
import numpy as np
import symcrit.ambient as A
fields = [
    "0.1*sin(p1) + 0.05*cos(p2)",
    "0.2*(p1^2 + p2**2) / (3 + p3^2)",
    "(2 + sin(p1))^0.5 - 0.1*(1.5 + cos(p4))**-2",
    "-0.3*exp(-p3^2) + pi/10*cos(p4)",
    "0.05*exp(sin(p1 + 2*p2))*cos(p3 - p4)",
    "-(1/3)*(1 + p1^2)^(-1.5)",
]
compiled = []
vectorized = A._vectorized
def recording(coords, exprs, shape):
    fn = vectorized(coords, exprs, shape)
    compiled.append((coords, exprs, shape, fn))
    return fn
A._vectorized = recording
points = np.linspace(-2.0, 3.0, 5 * 7 * 4).reshape(5, 7, 4)
for text in fields:
    M = A.conformal(text)
    M.conformal_exponent(points), M.conformal_gradient(points), M.conformal_hessian(points)
assert len(compiled) == 3 * len(fields)
loaded = [m for m in ("numpy.f2py", "numpy.testing") if m in sys.modules]
assert not loaded, loaded
import sympy
comps = [points[..., i] for i in range(4)]
for coords, exprs, shape, fn in compiled:
    reference = sympy.lambdify(coords, exprs, modules="numpy")
    cols = [np.broadcast_to(np.asarray(c, dtype=float), points.shape[:-1])
            for c in reference(*comps)]
    want = np.stack(cols, axis=-1).reshape(points.shape[:-1] + shape)
    got = fn(points)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), exprs
"""


def test_conformal_fields_compile_against_numpy_alone():
    """The conformal callables load no numpy submodule beyond numpy's own
    import, and evaluate byte for byte as sympy's ``modules="numpy"``."""
    src = str(Path(symcrit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAMBDIFY_NUMPY_ONLY],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_flat_run_never_imports_sympy():
    src = str(Path(symcrit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FLAT_RUN_THEN_CONFORMAL],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
