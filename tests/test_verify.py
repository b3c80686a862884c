"""Tests for the identity checks, refinement studies, and reports."""

import warnings
import weakref

import numpy as np
import pytest

from symcrit.ambient import STANDARD_J, AmbientManifold, conformal, euclidean_c2
from symcrit.errors import AmbientDegenerate
from symcrit.flow import run_flow
from symcrit.functional import ELField, el_operator
from symcrit.surface import (
    ImmersedSurface,
    SurfaceGeometry,
    check_winding_periodic,
    holomorphic_graph,
    lagrangian_torus,
    perturbed_graph,
    perturbed_holomorphic_graph,
    revolution_torus,
    zbar_graph,
)
from symcrit import verify as V

from reference import counted, full_grids, grid_variation_fields

EUC = euclidean_c2()
CONF = conformal("0.1*sin(p1) + 0.05*cos(p2)")
# the conformal metric and J as fields alone: the general path
GENERAL_CONF = AmbientManifold(metric_field=CONF.metric_field, j_field=CONF.j_field)


def ladder(levels=(24, 48)):
    return [perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n) for n in levels]


# -- gradient identities ----------------------------------------------


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
def test_gradient_identities_refine_at_order_four(ambient):
    rep = V.verify_gradient_identities(ladder(), ambient)
    assert rep.passed
    assert rep.refinement[-1][3] > 3.5
    assert rep.excluded_nodes == 0


def test_gradient_identities_single_level():
    rep = V.verify_gradient_identities(ladder((48,))[0], EUC)
    assert rep.passed
    assert np.isnan(rep.refinement[0][3])


# -- Laplacian identity -----------------------------------------------


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
def test_laplacian_identity_refines_at_order_four(ambient):
    rep = V.verify_laplacian_identity(ladder(), ambient)
    assert rep.passed
    assert rep.refinement[-1][3] > 3.5


@pytest.mark.parametrize(
    "levels", [(32, 16), (24, 24), ()], ids=["decreasing", "repeated", "empty"]
)
def test_refinement_levels_must_strictly_increase(levels):
    surfaces = ladder(levels)
    with pytest.raises(ValueError, match="strictly increase"):
        V.verify_gradient_identities(surfaces, EUC)
    with pytest.raises(ValueError, match="strictly increase"):
        V.verify_laplacian_identity(surfaces, EUC)


def test_laplacian_identity_j_terms_vanish_on_flat_kahler():
    rep = V.verify_laplacian_identity(ladder((32,)), EUC)
    assert rep.values["max_j_term"] < 1e-12


def test_calibrated_study_evaluates_each_level_once(monkeypatch):
    calls = []
    terms = V.laplacian_identity_terms

    def counted(G):
        calls.append(G.surface.n_theta)
        return terms(G)

    monkeypatch.setattr(V, "laplacian_identity_terms", counted)
    rep = V.verify_laplacian_identity(ladder(), CONF)
    assert rep.passed
    assert sorted(calls) == [24, 48]


def test_wrong_curvature_sign_fails_the_study():
    """The curvature term enters with the fixed sign of the ambient
    module's convention, so an ambient whose curvature returns
    (-K_1213, -K_1224) must fail criterion 3 rather than be corrected."""
    ambient = conformal("0.1*sin(p1) + 0.05*cos(p2)")
    sample = ambient.sample

    def negated_sample(points):
        nodes = sample(points)
        curvature = nodes.curvature_frame

        def negated(frame):
            k1213, k1224 = curvature(frame)
            return -k1213, -k1224

        nodes.curvature_frame = negated
        return nodes

    ambient.sample = negated_sample
    rep = V.verify_laplacian_identity(ladder(), ambient)
    assert rep.status == "fail" and not rep.passed
    assert rep.refinement[-1][3] < 1.0
    assert not any("roundoff" in n for n in rep.notes)


@pytest.mark.parametrize("ambient", [EUC, CONF], ids=["euclid", "conformal"])
@pytest.mark.parametrize("study", ["gradient", "laplacian"])
def test_study_holds_one_level_geometry_at_a_time(monkeypatch, study, ambient):
    """A study drops each level's geometry before it builds the next one,
    so one level's caches are alive at a time: no earlier level's geometry
    is alive when the next level's geometry is built or its terms start.
    A driver that binds the geometry in its loop body fails this."""
    refs, alive = [], []

    def count_alive(when):
        alive.append((when, sum(ref() is not None for ref in refs)))

    def geometry(surface, amb):
        count_alive("built")
        return SurfaceGeometry(surface, amb)

    drive = V._refinement_study

    def tracked(check, surfaces, amb, identity_terms, *rest):
        def terms(G):
            count_alive("terms")
            refs.append(weakref.ref(G))
            return identity_terms(G)

        return drive(check, surfaces, amb, terms, *rest)

    monkeypatch.setattr(V, "SurfaceGeometry", geometry)
    monkeypatch.setattr(V, "_refinement_study", tracked)
    check = {"gradient": V.verify_gradient_identities,
             "laplacian": V.verify_laplacian_identity}[study]
    rep = check(ladder((12, 24, 48)), ambient)
    assert [row[0] for row in rep.refinement] == [12, 24, 48]
    assert alive == [("built", 0), ("terms", 0)] * 3
    assert all(ref() is None for ref in refs)


EXACT_SURFACES = {
    "zbar": lambda n: zbar_graph(0.5, n_theta=n, n_phi=n),
    "lagrangian": lambda n: lagrangian_torus(n_theta=n, n_phi=n),
}


@pytest.mark.parametrize(
    "study, ambient, surface",
    [
        ("gradient", EUC, "zbar"),
        ("laplacian", EUC, "zbar"),
        ("laplacian", EUC, "lagrangian"),
        ("gradient", EUC, "lagrangian"),
        ("gradient", CONF, "lagrangian"),
        ("gradient", CONF, "zbar"),
    ],
    ids=["flat-zbar-gradient", "flat-zbar-laplacian", "flat-lagrangian-laplacian",
         "flat-lagrangian-gradient", "conformal-lagrangian-gradient",
         "conformal-zbar-gradient"],
)
def test_identity_exact_to_roundoff_passes_the_study(study, ambient, surface):
    """Where the identity holds to roundoff the residual is 0 or grows
    with n at a few ulps, so the order is nan or negative; such levels
    count as exact and the study passes with one note."""
    check = {"gradient": V.verify_gradient_identities,
             "laplacian": V.verify_laplacian_identity}[study]
    rep = check([EXACT_SURFACES[surface](n) for n in (16, 32)], ambient)
    assert rep.status == "pass"
    assert not rep.refinement[-1][3] >= V.ORDER_TOL
    assert [n for n in rep.notes if "exact to roundoff" in n] == [
        f"exact to roundoff at n = 32: res_linf within {V.EXACT_ULPS} ulps "
        f"of the largest term, times (1/h)^order"
    ]


@pytest.mark.parametrize("study", ["gradient", "laplacian"])
def test_residual_stalled_above_the_roundoff_floor_fails(monkeypatch, study):
    """A residual held at 1e-10 of the largest term on every level does
    not converge and is far above roundoff: the study fails."""
    if study == "gradient":
        def stalled(G):
            scale = np.max(np.abs(G.sin_alpha[..., None, None, None]
                                  * G.second_fundamental))
            res = np.full(G.cos_alpha.shape, 1e-10 * scale)
            return res, res

        monkeypatch.setattr(V, "gradient_identity_residuals", stalled)
        check = V.verify_gradient_identities
    else:
        terms = V.laplacian_identity_terms

        def stalled(G):
            out = terms(G)
            scale = max(np.max(np.abs(f)) for k, f in out.items() if k != "residual")
            out["residual"] = np.full(G.cos_alpha.shape, 1e-10 * scale)
            return out

        monkeypatch.setattr(V, "laplacian_identity_terms", stalled)
        check = V.verify_laplacian_identity
    rep = check(ladder(), CONF)
    assert rep.status == "fail"
    assert abs(rep.refinement[-1][3]) < 0.1  # the scale moves a little with n
    assert not any("roundoff" in n for n in rep.notes)


@pytest.mark.parametrize(
    "expression", ["0.1*sin(4*p3) + 0.05*cos(p2)", "0.05*cos(4*p4) + 0.1*sin(p1)"],
    ids=["p3", "p4"],
)
def test_laplacian_identity_in_ambients_varying_along_the_normal(expression):
    """lambda varies along p3 or p4, which the graph moves by its linear
    part.  One period of perturbed_graph(0.5, ...) translates the chart
    by (2 pi, 0, pi, 0) in theta and (0, 2 pi, 0, -pi) in phi, and
    lambda must be invariant under both (4*p3 and 4*p4 are): otherwise
    the metric the surface samples jumps across the seam of the grid,
    the periodic stencils differentiate a discontinuous field, and the
    identity cannot converge at either sign of the curvature term."""
    rep = V.verify_laplacian_identity(ladder(), conformal(expression))
    assert rep.passed
    assert rep.refinement[-1][3] > 3.0


def test_laplacian_terms_sum_to_lhs():
    G = SurfaceGeometry(ladder((32,))[0], CONF)
    t = V.laplacian_identity_terms(G)
    rebuilt = (t["quad"] + t["mean_deriv"] + t["curvature"] + t["j_second"]
               + t["j_coupling"] + t["residual"])
    assert np.max(np.abs(t["lhs"] - rebuilt)) < 1e-12


def test_general_sample_takes_the_node_connection_once(monkeypatch):
    """The geometry's W_ij (``_accel_entries``) and its two covariant frame
    derivatives read ``christoffel`` of one sample, which takes the
    Christoffel tensor once; nabla J and the curvature take their own, and
    the curvature's partials difference 16 more."""
    shapes = []
    monkeypatch.setattr(GENERAL_CONF, "christoffel_at",
                        counted(GENERAL_CONF.christoffel_at, shapes))
    V.laplacian_identity_terms(SurfaceGeometry(ladder((16,))[0], GENERAL_CONF))
    assert shapes == [(16, 16)] * 19


# -- conditions -------------------------------------------------------


def test_cyclic_condition_exact_on_flat_kahler():
    rep = V.check_condition_cyclic(zbar_graph(0.5, n_theta=24, n_phi=24), EUC)
    assert rep.passed
    assert rep.values["condition_res_linf"] < 1e-12
    assert rep.values["condition_holds"] == 1.0


def test_cyclic_condition_matches_exterior_derivative_oracle():
    rep = V.check_condition_cyclic(ladder((32,))[0], CONF)
    assert rep.passed
    assert rep.values["oracle_mismatch"] < 1e-6
    # a conformal scaling genuinely breaks the condition
    assert rep.values["condition_holds"] == 0.0
    assert rep.values["condition_res_linf"] > 1e-3


@pytest.mark.parametrize("c3, c4", [(0.7, -1.3), (5.0, 3.0)])
def test_period_shift_of_the_conformal_factor_changes_no_report(c3, c4):
    """lam = 0.1 sin p1 + 0.05 cos p2 has period 2 pi in p1 and ignores p3
    and p4, so moving the surface by (2 pi, 0, c3, c4) moves nothing but
    roundoff: statuses agree, and values, refinement rows and residual
    fields agree to 1e-11 absolute plus 1e-6 relative (the observed
    orders amplify a residual's relative roundoff)."""
    shift = np.array([2.0 * np.pi, 0.0, c3, c4])
    surfaces = ladder()
    moved = [ImmersedSurface(S.linear_part, S.periodic_part + shift) for S in surfaces]
    checks = [
        lambda L: V.verify_gradient_identities(L, CONF),
        lambda L: V.verify_laplacian_identity(L, CONF),
        lambda L: V.check_condition_cyclic(L[1], CONF),
        lambda L: V.check_condition_symmetric(L[1], CONF),
        lambda L: V.verify_critical_identity(L[1], CONF, 1.0),
    ]
    for check in checks:
        rep, rep_moved = check(surfaces), check(moved)
        assert rep.status == rep_moved.status, rep.check
        assert rep.values.keys() == rep_moved.values.keys(), rep.check
        pairs = [(list(rep.values.values()), list(rep_moved.values.values())),
                 (rep.refinement, rep_moved.refinement),
                 (rep.residual_field, rep_moved.residual_field)]
        for want, got in pairs:
            assert np.allclose(got, want, rtol=1e-6, atol=1e-11, equal_nan=True), rep.check


def test_symmetric_condition_exact_on_flat_kahler():
    rep = V.check_condition_symmetric(zbar_graph(0.5, n_theta=24, n_phi=24), EUC)
    assert rep.passed
    assert rep.values["condition_res_linf"] < 1e-12
    assert rep.values["consequence_res"] < 1e-10


def test_symmetric_condition_value_reported_on_conformal():
    rep = V.check_condition_symmetric(ladder((32,))[0], CONF)
    assert rep.values["condition_res_linf"] > 1e-3
    assert "consequence_res" not in rep.values


# -- the symmetric condition bounds nabla J along the surface -------------
#
# At a node, in an orthonormal frame, nabla_X J is skew and anticommutes
# with J; such maps form a 2-dimensional space, so (nabla_{e1} J,
# nabla_{e2} J) has 4 coordinates c.  The symmetric condition reads
# ((nabla_X J) Y + (nabla_Y J) X)^perp = 0 for tangent X, Y: 6 equations
# r = L c.  Where L has rank 4 the condition forces nabla J = 0 along the
# surface, and its residual bounds the tangent rows of the table.

# the smallest singular value of L is at least this times cos(alpha)
SIGMA_FLOOR = 0.5
# |J_{ab,k}| <= |nabla_{e_k} J|_F <= |c|_2 <= |r|_2 / (SIGMA_FLOOR cos a)
# and |r|_2 <= sqrt(6) max |r|, so max |J_{ab,k}| cos a <= C max |r|
BOUND_C = np.sqrt(6.0) / SIGMA_FLOOR
SYMMETRIC_PAIRS = ((0, 0), (0, 1), (1, 1))


def frame_j(alpha):
    """J in the adapted orthonormal frame at Kahler angle alpha, acting on
    frame components: J e1 = cos a e2 + sin a e3, e4 = J(cos a e3 - sin a e2)."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[0.0, -c, -s, 0.0],
                     [c, 0.0, 0.0, s],
                     [s, 0.0, 0.0, -c],
                     [0.0, -s, c, 0.0]])


def anticommuting_skew_basis(J):
    """A Frobenius-orthonormal basis of {A : A^T = -A, A J = -J A}: the null
    space of the two constraints on the 16 entries of A."""
    units = np.eye(16).reshape(16, 4, 4)
    K = np.stack([np.concatenate([(E + E.T).ravel(), (E @ J + J @ E).ravel()])
                  for E in units], axis=1)
    _, sv, vt = np.linalg.svd(K)
    return vt[np.sum(sv > 1e-12):].reshape(-1, 4, 4)


def symmetric_condition_map(alpha):
    """L: the 4 coordinates of (nabla_{e1} J, nabla_{e2} J) to the 6 residuals
    J_{ij,n} + J_{ji,n}, with J_{ab,k} = <(nabla_{e_k} J) e_a, e_b> = A_k[b, a]."""
    basis = anticommuting_skew_basis(frame_j(alpha))
    assert basis.shape == (2, 4, 4)
    L = np.empty((2, 3, 4))  # (normal n, pair (i, j), coordinate)
    for u in range(4):
        A = np.zeros((2, 4, 4))
        A[u // 2] = basis[u % 2]
        for col, (i, j) in enumerate(SYMMETRIC_PAIRS):
            L[:, col, u] = A[i, 2:, j] + A[j, 2:, i]
    return L.reshape(6, 4)


def test_symmetric_condition_has_rank_four_for_every_angle():
    """On a grid of alpha in (0, pi/2) the map has rank 4, its smallest
    singular value at least SIGMA_FLOOR cos(alpha)."""
    for alpha in np.linspace(1e-3, np.pi / 2 - 1e-4, 60):
        sv = np.linalg.svd(symmetric_condition_map(alpha), compute_uv=False)
        assert sv[-1] >= SIGMA_FLOOR * np.cos(alpha), alpha


def transvection(v):
    """An almost-Hermitian ambient g = S^T S, J = S^-1 J0 S with
    S = I + 0.3 sin(p1) v (J0 v)^T: (J0 v).v = 0, so S^-1 = I - 0.3 sin(p1)
    v (J0 v)^T.  Its nabla J does not vanish, and it repeats along p1."""
    vw = np.outer(v, STANDARD_J @ np.asarray(v, dtype=float))

    def shear(points, sign):
        return np.eye(4) + sign * 0.3 * np.sin(points[..., 0])[..., None, None] * vw

    return AmbientManifold(
        metric_field=lambda p: np.swapaxes(shear(p, 1.0), -1, -2) @ shear(p, 1.0),
        j_field=lambda p: shear(p, -1.0) @ STANDARD_J @ shear(p, 1.0),
        name=f"transvection{tuple(v)}",
    )


@pytest.mark.parametrize(
    "ambient",
    [CONF, transvection((1.0, 0.0, 1.0, 0.0)), transvection((0.0, 1.0, 0.0, 1.0))],
    ids=["conformal", "transvection-e1-e3", "transvection-e2-e4"],
)
@pytest.mark.parametrize("make", [lambda: perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32),
                                  lambda: perturbed_holomorphic_graph(n_theta=32, n_phi=32)],
                         ids=["graph", "holomorphic"])
def test_symmetric_condition_bounds_the_tangent_nabla_j_table(ambient, make):
    """Node by node, max |J_{ab,k}| cos(alpha) <= C max |symmetric residual|
    for the (e1, e2) rows that ``nabla_j_frame`` holds, with C from the
    singular-value floor above, in ambients where nabla J does not vanish."""
    S = make()
    check_winding_periodic(S, ambient)
    G = SurfaceGeometry(S, ambient)
    table = G.nabla_j_frame
    assert table.shape == (32, 32, 2, 4, 4)
    res = V.condition_symmetric_residuals(G)
    ca = G.cos_alpha
    assert np.all(ca > 0.0)
    lhs = np.max(np.abs(table), axis=(-3, -2, -1)) * ca
    rhs = BOUND_C * np.max(np.abs(res), axis=(-2, -1))
    assert np.max(lhs) > 1e-3  # the bound is not read on a zero table
    assert np.all(lhs <= rhs)


# -- first variation --------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_first_variation_on_noncritical_graph(beta):
    rep = V.verify_first_variation(ladder((48,))[0], EUC, beta)
    assert rep.passed
    assert rep.values["worst_rel_err"] < 1e-3
    assert rep.values["worst_delta_order"] >= 1.9


def test_first_variation_on_critical_graph_takes_stationary_path():
    rep = V.verify_first_variation(zbar_graph(0.5, n_theta=32, n_phi=32), EUC, 1.0)
    assert rep.passed
    assert np.isnan(rep.values["worst_delta_order"])
    assert any("stationary" in n for n in rep.notes)


def test_first_variation_builds_each_displaced_surface_once(monkeypatch):
    # 3 fields x 8 distinct steps: +-delta and the +-1e-3, +-2e-3, +-4e-3 of
    # the order ladder, whose 4-point reference reuses them; a stationary
    # direction reads +-delta alone, 3 fields x 2 steps.  A flat or
    # conformal ambient evaluates each step along the line from the
    # tangents of the one geometry of the check, so it builds no other.
    lines, geometries = [], []  # the steps evaluated along each direction
    along, init = V._l_beta_along, SurfaceGeometry.__init__

    def counting_along(G, beta, xi):
        at, steps = along(G, beta, xi), []
        lines.append(steps)

        def counted_at(t):
            steps.append(t)
            return at(t)

        return counted_at

    def counting_init(self, *args):
        geometries.append(1)
        init(self, *args)

    monkeypatch.setattr(V, "_l_beta_along", counting_along)
    monkeypatch.setattr(SurfaceGeometry, "__init__", counting_init)
    for ambient, beta in ((EUC, 1.0), (CONF, 0.0)):
        lines.clear(), geometries.clear()
        rep = V.verify_first_variation(ladder((64,))[0], ambient, beta)
        assert rep.passed
        assert [len(set(steps)) for steps in lines] == [8, 8, 8]
        assert sum(map(len, lines)) == 24 and len(geometries) == 1
    lines.clear(), geometries.clear()
    rep = V.verify_first_variation(holomorphic_graph(1.0, n_theta=32, n_phi=32), EUC, 1.0)
    assert rep.passed
    assert sum("stationary" in n for n in rep.notes) == 3
    assert [len(set(steps)) for steps in lines] == [2, 2, 2]
    assert sum(map(len, lines)) == 6 and len(geometries) == 1
    # the ambient at the displaced nodes is read through its sample: the
    # flat one reads no positions and no field, the conformal one exp(2 lam)
    # at the nodes of the geometry and once per step (3 x 8)
    monkeypatch.undo()
    S = perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32)
    flat = euclidean_c2()
    text = V.verify_first_variation(S, flat, 1.0).to_text()

    def refuse(*args, **kwargs):
        raise AssertionError("flat first variation read positions or a field")

    monkeypatch.setattr(ImmersedSurface, "positions", refuse)
    flat.metric_at = flat.j_at = refuse
    assert V.verify_first_variation(S, flat, 1.0).to_text() == text
    monkeypatch.undo()
    conf, shapes = conformal("0.1*sin(p1) + 0.05*cos(p2)"), []
    conf.conformal_exponent = counted(conf.conformal_exponent, shapes)
    assert V.verify_first_variation(S, conf, 0.0).passed
    assert shapes.count((32, 32)) == 25


@pytest.mark.xfail(
    strict=True,
    reason="E omits the first variation's d(omega) term, -beta cos^(-beta-1)(alpha) "
           "d(omega)(xi, e1, e2) dA, which a conformal ambient has at beta > 0; "
           "a worst rel_err of 0.35-3.1 today",
)
@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize(
    "surface",
    [perturbed_graph(0.5, 0.05, n_theta=64, n_phi=64),
     perturbed_holomorphic_graph(n_theta=64, n_phi=64)],
    ids=["perturbed_graph", "perturbed_holomorphic_graph"],
)
def test_first_variation_passes_in_a_conformal_ambient_at_positive_beta(surface, beta):
    rep = V.verify_first_variation(surface, CONF, beta)
    assert rep.status == "pass", rep.values["worst_rel_err"]


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize(
    "surface",
    [perturbed_graph(0.5, 0.05, n_theta=32, n_phi=32),
     perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=32, n_phi=32)],
    ids=["perturbed_graph", "perturbed_holomorphic_graph"],
)
def test_first_variation_on_the_general_path_matches_the_conformal_one(surface, beta):
    """The general ambient evaluates L_beta on displaced surfaces, the
    conformal one along the line: the same verdict, and quotients that
    agree far below the gate (the analytic sides differ by the general
    path's difference-quotient connection)."""
    general = V.verify_first_variation(surface, GENERAL_CONF, beta)
    closed = V.verify_first_variation(surface, CONF, beta)
    assert general.status == closed.status
    assert general.values.keys() == closed.values.keys()
    for key in (k for k in closed.values if k.endswith(".rel_err")):
        assert abs(general.values[key] - closed.values[key]) <= 1e-9, key


def test_first_variation_rejects_beta_minus_one():
    with pytest.raises(ValueError):
        V.verify_first_variation(zbar_graph(0.5, n_theta=8, n_phi=8), EUC, -1.0)


@pytest.mark.parametrize("delta", [0.0, -1e-4, float("nan"), float("inf")])
def test_first_variation_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        V.verify_first_variation(ladder((16,))[0], EUC, 1.0, delta=delta)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_first_variation_rejects_bad_rel_tol(rel_tol):
    """nan would fail and inf pass every surface, so neither is a tolerance."""
    with pytest.raises(ValueError, match="rel_tol must be finite and positive"):
        V.verify_first_variation(ladder((16,))[0], EUC, 1.0, rel_tol=rel_tol)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"resid_tol": float("nan")}, "resid_tol"),
        ({"resid_tol": -1.0}, "resid_tol"),
        ({"resid_tol": float("inf")}, "resid_tol"),
        ({"sin_alpha_min": float("nan")}, "sin_alpha_min"),
        ({"sin_alpha_min": float("inf")}, "sin_alpha_min"),
    ],
    ids=["resid_tol-nan", "resid_tol-negative", "resid_tol-inf",
         "sin_alpha_min-nan", "sin_alpha_min-inf"],
)
def test_critical_identity_rejects_bad_tolerances(kwargs, name):
    with pytest.raises(ValueError, match=name):
        V.verify_critical_identity(zbar_graph(0.5, n_theta=16, n_phi=16), EUC,
                                   1.0, **kwargs)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_first_variation_reads_the_critical_operator_once(monkeypatch, scale):
    calls = []

    def scaled(*args, **kwargs):
        el = el_operator(*args, **kwargs)
        calls.append(1)
        return ELField(scale * el.vector, scale * el.norm_l2, scale * el.norm_linf)

    monkeypatch.setattr(V, "el_operator", scaled)
    rep = V.verify_first_variation(ladder((48,))[0], EUC, 1.0)
    assert len(calls) == 1
    assert rep.passed == (scale == 1.0)
    if scale != 1.0:
        assert rep.values["worst_rel_err"] == pytest.approx(1.0 - 1.0 / scale, rel=1e-3)


# -- conditional identity ---------------------------------------------


def test_critical_identity_conditional_on_critical_surface():
    rep = V.verify_critical_identity(
        zbar_graph(0.5, n_theta=32, n_phi=32), EUC, 1.0
    )
    assert rep.status == "conditional"
    assert rep.passed
    assert rep.values["res_linf"] < 1e-10


def test_critical_identity_flags_noncritical_surface():
    rep = V.verify_critical_identity(ladder((32,))[0], EUC, 1.0)
    assert rep.status == "hypotheses-violated"
    assert rep.passed  # annotated, not failed
    assert any("not near-critical" in n for n in rep.notes)


def test_critical_identity_flags_condition_violation():
    rep = V.verify_critical_identity(ladder((32,))[0], CONF, 1.0)
    assert rep.status == "hypotheses-violated"
    assert any("covariant-J" in n for n in rep.notes)


def test_critical_identity_excludes_small_angle_nodes():
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    rep = V.verify_critical_identity(S, EUC, 1.0)
    # sin(alpha) = 0 everywhere: every node excluded, verdict inconclusive
    assert rep.status == "inconclusive"
    assert rep.excluded_nodes == rep.total_nodes


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_critical_identity_masks_lagrangian_nodes_without_warnings(beta):
    # cos(alpha) vanishes on two circles of the torus of revolution
    S = revolution_torus(n_theta=32, n_phi=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = V.verify_critical_identity(S, EUC, beta)
    assert np.isfinite(rep.values["res_linf"]) and np.isfinite(rep.values["res_l2"])
    assert np.all(np.isfinite(rep.residual_field))
    assert 0 < rep.excluded_nodes < rep.total_nodes


def test_critical_identity_with_residual_tolerance():
    rep = V.verify_critical_identity(
        zbar_graph(0.5, n_theta=32, n_phi=32), EUC, 1.0, resid_tol=1e-8
    )
    assert rep.status == "pass"


# -- report serialization ---------------------------------------------


def test_report_text_is_deterministic(tmp_path):
    rep1 = V.verify_gradient_identities(ladder((24,)), EUC)
    rep2 = V.verify_gradient_identities(ladder((24,)), EUC)
    assert rep1.to_text() == rep2.to_text()
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    rep1.save(p1)
    rep2.save(p2)
    assert p1.read_text() == p2.read_text()


def test_report_text_structure():
    rep = V.verify_laplacian_identity(ladder((24,)), CONF)
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0] == "check laplacian_identity"
    assert "refine_begin" in lines and "refine_end" in lines
    assert "residuals_begin" in lines and "residuals_end" in lines
    head = lines.index("residuals_begin")
    assert lines[head + 1] == "node_i,node_j,residual"
    body = lines[head + 2 : lines.index("residuals_end")]
    assert len(body) == 24 * 24
    first = body[0].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2])  # parses


def test_no_report_writes_a_curvature_sign_line():
    """The sign is a convention of the ambient module, not a measurement."""
    surface = zbar_graph(0.5, n_theta=16, n_phi=16)
    reports = [
        V.verify_laplacian_identity(ladder((24,)), EUC),
        V.verify_laplacian_identity(ladder((24,)), CONF),
        V.verify_critical_identity(surface, EUC, 1.0),
        V.verify_critical_identity(surface, CONF, 1.0),
    ]
    for rep in reports:
        text = rep.to_text()
        assert "k_term_sign" not in text and "flipped_sign" not in text
        assert "calibrated" not in text and "sign +1 by default" not in text


def test_report_records_tolerances_and_counts():
    rep = V.verify_critical_identity(
        zbar_graph(0.5, n_theta=16, n_phi=16), EUC, 2.0
    )
    assert rep.beta == 2.0
    assert rep.total_nodes == 16 * 16
    assert "near_critical_linf" in rep.tolerances
    text = rep.to_text()
    assert "beta 2" in text
    assert "tol.near_critical_linf" in text


def test_unadapted_frame_makes_the_study_inconclusive():
    """On a holomorphic graph J maps the tangent plane to itself, so the
    normal frame adapts nowhere."""
    S = holomorphic_graph(0.3, n_theta=16, n_phi=16)
    rep = V.verify_gradient_identities(S, EUC)
    assert rep.status == "inconclusive" and not rep.passed
    assert rep.excluded_nodes == rep.total_nodes == 256


# -- ambient fields periodic along the winding -------------------------


def rotated_j(points):
    """STANDARD_J turned by a rotation of the (p1, p3) plane through
    0.3 sin(p4): compatible with the identity metric, and not periodic
    where a winding moves p4 by half a period."""
    a = 0.3 * np.sin(points[..., 3])
    R = np.zeros(points.shape[:-1] + (4, 4))
    R[..., 0, 0] = R[..., 2, 2] = np.cos(a)
    R[..., 2, 0] = np.sin(a)
    R[..., 0, 2] = -R[..., 2, 0]
    R[..., 1, 1] = R[..., 3, 3] = 1.0
    return R @ STANDARD_J @ np.swapaxes(R, -1, -2)


# perturbed_graph(0.5, .) moves (p1, p3) by (2 pi, pi) along theta and
# (p2, p4) by (2 pi, -pi) along phi
NOT_PERIODIC = {
    "sin-p3": (conformal("0.1*sin(p3) + 0.05*cos(p2)"), "metric", "theta"),
    "cos-p4": (conformal("0.1*cos(p4)"), "metric", "phi"),
    "rotated-j": (
        AmbientManifold(lambda p: np.broadcast_to(np.eye(4), p.shape[:-1] + (4, 4)),
                        rotated_j),
        "J", "phi",
    ),
}
ENTRY_POINTS = {
    "gradient": lambda S, amb: V.verify_gradient_identities([S], amb),
    "laplacian": lambda S, amb: V.verify_laplacian_identity(S, amb),
    "critical": lambda S, amb: V.verify_critical_identity(S, amb, 1.0),
    "first-variation": lambda S, amb: V.verify_first_variation(S, amb, 1.0),
    "cyclic": V.check_condition_cyclic,
    "symmetric": V.check_condition_symmetric,
    "flow": lambda S, amb: run_flow(S, amb, 1.0, max_iterations=1),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("case", NOT_PERIODIC.values(), ids=NOT_PERIODIC.keys())
def test_fields_not_periodic_along_the_winding_raise_at_every_entry_point(case, entry):
    ambient, field, direction = case
    S = perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16)
    with pytest.raises(AmbientDegenerate,
                       match=f"{field} of .* not periodic along the surface's "
                             f"{direction} winding"):
        entry(S, ambient)


def refuse(*args, **kwargs):
    raise AssertionError("general path taken on a shipped ambient")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("make", [lambda: conformal("0.1*sin(p1) + 0.05*cos(p2)"),
                                  euclidean_c2], ids=["conformal", "flat"])
def test_shipped_ambients_are_read_only_through_their_closed_forms(make, entry):
    """No check and no flow on a shipped ambient samples the per-node 4x4
    metric or J, the winding check included: with ``metric_at`` and
    ``j_at`` refusing every call, every entry point runs."""
    ambient = make()
    ambient.metric_at = ambient.j_at = refuse
    entry(perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16), ambient)


def test_cyclic_check_computes_the_node_positions_once(monkeypatch):
    """The sample and the d(omega) oracle read one array of node positions."""
    calls = []
    positions = ImmersedSurface.positions
    monkeypatch.setattr(ImmersedSurface, "positions",
                        lambda self: calls.append(self) or positions(self))
    V.check_condition_cyclic(perturbed_graph(0.5, 0.05, n_theta=16, n_phi=16), CONF)
    assert len(calls) == 1


def test_the_same_field_is_periodic_along_a_whole_period_winding():
    """sin(p3) repeats where the theta winding moves p3 by 2 pi, and no
    field of a torus without a linear part is compared with another."""
    ambient = NOT_PERIODIC["sin-p3"][0]
    assert check_winding_periodic(zbar_graph(1.0, n_theta=16, n_phi=16), ambient) is None
    assert check_winding_periodic(lagrangian_torus(n_theta=16, n_phi=16), ambient) is None


# -- symmetry: a torus invariant under an ambient isometry --------------

# lam depends on p1 alone, so translation along F_phi = (0, 1, 0, -0.5),
# the phi winding of zbar_graph(0.5), is an isometry preserving J
SYMMETRIC = conformal("0.1*sin(p1)")
SYMMETRIC_AMBIENTS = {
    "conformal": SYMMETRIC,
    "general": AmbientManifold(metric_field=SYMMETRIC.metric_at,
                               j_field=SYMMETRIC.j_at, name="general"),
}


def theta_only_torus(n):
    """zbar_graph(0.5) plus a periodic part that depends on theta alone:
    a torus invariant under the translation along F_phi (Palais 1979)."""
    base = zbar_graph(0.5, n_theta=n, n_phi=n)
    th, _ = full_grids(base)
    P = np.zeros(th.shape + (4,))
    P[..., 2] = 0.05 * np.sin(th) + 0.02 * np.cos(2 * th)
    P[..., 3] = 0.03 * np.cos(th)
    return ImmersedSurface(base.linear_part, P)


def constant_along_phi(field):
    """Whether every node of ``field`` equals the node at phi = 0, bit for bit."""
    field = np.asarray(field)
    return field.tobytes() == np.broadcast_to(field[:, :1], field.shape).tobytes()


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("ambient", sorted(SYMMETRIC_AMBIENTS))
def test_fields_of_a_symmetric_torus_are_constant_along_the_symmetry(ambient, n, beta):
    """Every node field of a torus that an isometry preserving J maps onto
    itself, shifting phi, is the same on each phi line, bit for bit, on
    the closed-form and the general path."""
    amb = SYMMETRIC_AMBIENTS[ambient]
    S = theta_only_torus(n)
    G = SurfaceGeometry(S, amb)
    fields = {
        "cos_alpha": G.cos_alpha,
        "E": el_operator(S, amb, beta, geometry=G).vector,
        "second_fundamental": G.second_fundamental,
        "nabla_j_frame": G.nabla_j_frame,
        "curvature_frame_components": np.stack(G.curvature_frame_components, axis=-1),
        "j12_kk": G.j12_kk,
    }
    for kind, terms in (("laplacian", V.laplacian_identity_terms(G)),
                        ("critical", V.critical_identity_terms(G, beta))):
        fields.update({f"{kind}.{name}": term for name, term in terms.items()})
    for name, field in fields.items():
        assert np.shape(field)[:2] == (n, n), name
        assert constant_along_phi(field), name


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("ambient", sorted(SYMMETRIC_AMBIENTS))
def test_flow_keeps_a_symmetric_torus_symmetric(ambient, beta):
    """Five descent steps from the symmetric torus keep its periodic part
    the same on each phi line, bit for bit."""
    S = theta_only_torus(16)
    result = run_flow(S, SYMMETRIC_AMBIENTS[ambient], beta, max_iterations=5, res_tol=0.0)
    assert result.iterations == 5
    assert not np.array_equal(result.surface.periodic_part, S.periodic_part)
    assert constant_along_phi(result.surface.periodic_part)


@pytest.mark.parametrize("periods", [(2.0 * np.pi, 2.0 * np.pi), (3.0, 5.5)],
                         ids=["two-pi", "3-5.5"])
@pytest.mark.parametrize("shape", [(8, 8), (9, 9), (32, 32), (128, 128), (8, 13)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_variation_fields_equal_the_grid_formula_bit_for_bit(shape, periods):
    """The separable terms take sin and cos on the node vectors; the
    fields have the bits of the formulas taken at every node."""
    S = perturbed_graph(0.5, 0.05, n_theta=shape[0], n_phi=shape[1])
    G = SurfaceGeometry(ImmersedSurface(S.linear_part, S.periodic_part, *periods), EUC)
    got = V._variation_fields(G)
    want = G.project_normal(grid_variation_fields(G))
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
