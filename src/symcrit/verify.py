"""Identity checks with refinement studies and structured reports.

Each check assembles a residual field node by node, reduces it to L2
and Linf norms, optionally repeats the assembly over a ladder of grid
resolutions to measure a convergence order, and wraps everything in a
:class:`Report` that serializes to deterministic plain text.

The curvature term enters the angle-Laplacian identity as
+sin(alpha) (K_1213 - K_1224) in the commutator convention of the
ambient module, so an ambient whose curvature has the wrong sign fails
the identity.

Every public check first calls ``check_winding_periodic`` on each
surface it is given, so an ambient whose fields do not repeat along the
surface's winding raises AmbientDegenerate instead of a report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientManifold
from .functional import COS_FLOOR, _l_beta_along, el_operator, l_beta, validate_beta
from .surface import ImmersedSurface, SurfaceGeometry, check_winding_periodic

__all__ = [
    "Report",
    "check_condition_cyclic",
    "check_condition_symmetric",
    "laplacian_identity_terms",
    "critical_identity_terms",
    "verify_critical_identity",
    "verify_first_variation",
    "verify_gradient_identities",
    "verify_laplacian_identity",
]

NEAR_CRITICAL_LINF = 1e-3
CONDITION_TOL = 1e-8
ORDER_TOL = 1.9  # least observed convergence order a study accepts
# ulps of an identity's largest term, times (1/h)^order, within which a
# refinement level's Linf counts as exact to roundoff (see _level)
EXACT_ULPS = 16
ORACLE_TOL = 1e-6  # cyclic condition against the d(omega) oracle
CONSEQUENCE_FLOOR = 1e-12  # absolute floor of the symmetric consequence bound


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


@dataclass
class Report:
    """Outcome of one verification check."""

    check: str
    ambient: str
    status: str  # pass | fail | conditional | hypotheses-violated | inconclusive
    beta: float | None = None
    tolerances: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    refinement: list = field(default_factory=list)  # rows (n, l2, linf, order)
    excluded_nodes: int = 0
    total_nodes: int = 0
    residual_field: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        """Whether the status counts as a pass; annotated verdicts do."""
        return self.status in ("pass", "conditional", "hypotheses-violated")

    def to_text(self) -> str:
        lines = [
            f"check {self.check}",
            f"ambient {self.ambient}",
            f"status {self.status}",
            f"passed {_fmt(self.passed)}",
        ]
        if self.beta is not None:
            lines.append(f"beta {_fmt(self.beta)}")
        lines.append(f"excluded_nodes {self.excluded_nodes}")
        lines.append(f"total_nodes {self.total_nodes}")
        for key, val in self.tolerances.items():
            lines.append(f"tol.{key} {_fmt(val)}")
        for key, val in self.values.items():
            lines.append(f"value.{key} {_fmt(val)}")
        for note in self.notes:
            lines.append(f"note {note}")
        if self.refinement:
            lines.append("refine_begin")
            lines.append("n,res_l2,res_linf,order")
            for n, l2, linf, order in self.refinement:
                lines.append(f"{n},{_fmt(l2)},{_fmt(linf)},{_fmt(order)}")
            lines.append("refine_end")
        if self.residual_field is not None:
            lines.append("residuals_begin")
            lines.append("node_i,node_j,residual")
            arr = self.residual_field
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    lines.append(f"{i},{j},{_fmt(arr[i, j])}")
            lines.append("residuals_end")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())


def _norms(field_abs, weights, mask):
    vals = np.where(mask, field_abs, 0.0)
    w = np.where(mask, weights, 0.0)
    l2 = float(np.sqrt(np.sum(vals**2 * w)))
    linf = float(np.max(vals))
    return l2, linf


def _max_abs(a, b):
    """max(|a|, |b|) node by node."""
    return np.maximum(np.abs(a), np.abs(b))


def _level(G: SurfaceGeometry, identity_terms, order: int):
    """What a refinement study keeps of one level:
    (n, residual, mask, weights, floor).

    ``identity_terms(G)`` returns the identity's named term fields and
    its ``"residual"``.  ``floor`` is the roundoff level of the residual:
    ``EXACT_ULPS`` ulps of the largest term, times (1/h)^order.
    ``order`` is the number of difference quotients of the immersion
    that the identity's deepest term composes; each multiplies the
    roundoff of its input by about 1/h.  Neither ``G`` nor the terms are
    kept.
    """
    terms = identity_terms(G)
    residual = terms.pop("residual")
    S = G.surface
    scale = max(float(np.max(np.abs(t))) for t in terms.values())
    gain = 1.0 / min(S.h_theta, S.h_phi)
    floor = EXACT_ULPS * np.finfo(float).eps * scale * gain**order
    return S.n_theta, residual, G.adapted_frame.adapted, G.area_weights, floor


def _refinement_study(check, surfaces, ambient, identity_terms, order, single_tol):
    """Refinement study of an identity over ``surfaces``, one surface or a
    non-empty list whose grid sizes strictly increase.

    Each level's geometry is built when the study reaches it and handed
    to ``_level`` (which ``identity_terms`` and ``order`` are for), so one
    level's caches are alive at a time.  Norms and the reported residual
    field, the finest level's, cover adapted nodes only.
    Several levels pass when every step to a finer level reaches
    ``ORDER_TOL`` or lands on an exact level, one whose Linf is within
    its roundoff floor (see ``_level``): an identity that holds to
    roundoff has no order to observe.  A single level passes when its
    Linf is below ``single_tol``.  More than 10% unadapted nodes on the
    finest level make the study inconclusive.
    """
    surfaces = [surfaces] if isinstance(surfaces, ImmersedSurface) else list(surfaces)
    sizes = [(S.n_theta, S.n_phi) for S in surfaces]
    if not sizes or np.any(np.diff(sizes, axis=0) <= 0):
        raise ValueError(
            f"refinement needs at least one surface and grid sizes that "
            f"strictly increase, got {sizes}"
        )
    for S in surfaces:
        check_winding_periodic(S, ambient)
    # The report's residual field is allocated before any level is
    # evaluated, so the long-lived array sits below the levels'
    # short-lived working arrays instead of in the holes they leave
    # behind: a caller that keeps many reports then does not fragment the
    # heap (glibc malloc), and its peak resident memory does not grow
    # faster than the reports themselves.
    field = np.zeros(sizes[-1])
    rows = []  # (n, l2, linf, order observed from the previous level)
    exact = []  # the levels a step lands on within their floor, below order
    notes = []
    for S in surfaces:
        n, res, mask, weights, floor = _level(
            SurfaceGeometry(S, ambient), identity_terms, order
        )
        l2, linf = _norms(np.abs(res), weights, mask)
        prev = rows[-1][2] if rows else 0.0
        observed = math.log2(prev / linf) if linf > 0 and prev > 0 else float("nan")
        # a level with no adapted node measures nothing, so it is not exact
        if rows and not observed >= ORDER_TOL and linf <= floor and mask.any():
            exact.append(n)
        rows.append((n, l2, linf, observed))
    if len(rows) > 1:
        ok = all(r[3] >= ORDER_TOL or r[0] in exact for r in rows[1:])
        if exact:
            notes.append(f"exact to roundoff at n = {', '.join(map(str, exact))}: "
                         f"res_linf within {EXACT_ULPS} ulps of the largest term, "
                         f"times (1/h)^order")
    else:
        ok = rows[0][2] < single_tol
        notes.append("single level: order not measured, absolute tolerance applied")
    status = "pass" if ok else "fail"
    excluded = int(np.sum(~mask))
    if excluded > 0.1 * mask.size:
        status = "inconclusive"
        notes.append("more than 10% of nodes excluded (frame unadapted)")
    np.copyto(field, res, where=mask)  # unadapted nodes keep their 0.0
    return Report(
        check=check,
        ambient=ambient.name,
        status=status,
        tolerances={"order": ORDER_TOL},
        values={"finest_res_linf": rows[-1][2], "finest_res_l2": rows[-1][1]},
        notes=notes,
        refinement=rows,
        excluded_nodes=excluded,
        total_nodes=int(mask.size),
        residual_field=field,
    )


# -- gradient identity -------------------------------------------------


def gradient_identity_residuals(G: SurfaceGeometry):
    """Residuals of the two tangential-derivative identities for cos(alpha).

    d1 cos a = J_{12,1} + sin a (h^4_11 + h^3_12)
    d2 cos a = J_{12,2} + sin a (h^4_12 + h^3_22)
    """
    dc = G.grad_cos_frame
    jf = G.nabla_j_frame
    h = G.second_fundamental
    sa = G.sin_alpha
    r1 = dc[..., 0] - (jf[..., 0, 0, 1] + sa * (h[..., 1, 0, 0] + h[..., 0, 0, 1]))
    r2 = dc[..., 1] - (jf[..., 1, 0, 1] + sa * (h[..., 1, 0, 1] + h[..., 0, 1, 1]))
    return r1, r2


def verify_gradient_identities(surfaces, ambient: AmbientManifold) -> Report:
    """Refinement study (``_refinement_study``) of the larger of the two
    gradient-identity residuals."""

    def terms(G):
        r1, r2 = gradient_identity_residuals(G)
        # the second fundamental form counts at its largest component: each
        # component read in the frame carries the roundoff of the whole form
        return {
            "grad_cos": G.grad_cos_frame,
            "j12": G.nabla_j_frame[..., 0, 1],
            "second_fundamental": G.sin_alpha[..., None, None, None]
            * G.second_fundamental,
            "residual": _max_abs(r1, r2),
        }

    return _refinement_study("gradient_identities", surfaces, ambient, terms, 2, 1e-4)


# -- angle Laplacian identity -----------------------------------------


def laplacian_identity_terms(G: SurfaceGeometry) -> dict:
    """Named contributions to the unconditional angle-Laplacian identity.

    Returns grid fields: lhs (Laplace-Beltrami of cos alpha), the
    quadratic second-fundamental-form term, the normal derivative of the
    mean curvature term, the ambient curvature term, the two covariant-J
    terms, and the residual lhs - sum(rhs).
    """
    # The ambient's frame quantities and j12_kk need the most scratch
    # space (the covariant-J table is also the largest cached field);
    # reading them first builds them while few other caches exist, which
    # lowers the peak memory of the geometry.
    jf = G.nabla_j_frame
    k1213, k1224 = G.curvature_frame_components
    j_second = G.j12_kk
    ca, sa = G.cos_alpha, G.sin_alpha
    h = G.second_fundamental
    quad = -ca * (
        (h[..., 0, 0, 0] - h[..., 1, 1, 0]) ** 2
        + (h[..., 0, 0, 1] - h[..., 1, 1, 1]) ** 2
        + (h[..., 1, 0, 0] + h[..., 0, 1, 0]) ** 2
        + (h[..., 1, 0, 1] + h[..., 0, 1, 1]) ** 2
    )
    Hd = G.mean_curvature_normal_derivative
    mean_deriv = sa * (Hd[..., 0, 1] + Hd[..., 1, 0])
    curv = sa * (k1213 - k1224)
    j_coupling = np.zeros_like(ca)
    for k in range(2):
        for n in range(2):
            j_coupling = j_coupling + 2.0 * (
                jf[..., k, n + 2, 1] * h[..., n, 0, k]
                + jf[..., k, 0, n + 2] * h[..., n, 1, k]
            )
    lhs = G.laplace_beltrami(ca)
    return {
        "lhs": lhs,
        "quad": quad,
        "mean_deriv": mean_deriv,
        "curvature": curv,
        "j_second": j_second,
        "j_coupling": j_coupling,
        "residual": lhs - (quad + mean_deriv + curv + j_second + j_coupling),
    }


def verify_laplacian_identity(surfaces, ambient: AmbientManifold) -> Report:
    """Refinement study (``_refinement_study``) of the unconditional
    angle-Laplacian identity.

    ``max_j_term`` reports the finest level's largest covariant-J term;
    it is data, not a gate.
    """
    j_term = math.nan

    def terms(G):
        nonlocal j_term
        out = laplacian_identity_terms(G)
        # the level's largest covariant-J term; the finest one is reported.
        # max |f| from the extremes, so no |f| copy of the covariant-J table
        j_term = max(
            abs(float(max(np.max(f), -np.min(f))))
            for f in (out["j_second"], out["j_coupling"], G.nabla_j_frame)
        )
        return out

    rep = _refinement_study("laplacian_identity", surfaces, ambient, terms, 3, 1e-3)
    rep.values["max_j_term"] = j_term
    return rep


# -- conditional identity at critical points --------------------------


@np.errstate(divide="ignore", invalid="ignore")
def critical_identity_terms(G: SurfaceGeometry, beta: float) -> dict:
    """Fields of the angle-Laplacian identity specialized to critical points.

    Valid where the surface satisfies the critical equations and the
    ambient satisfies the two covariant-J conditions; the caller grades
    applicability.  The reciprocal factors 1/sin(alpha), 1/cos(alpha)
    and 1/D, D = cos^2(alpha) + beta sin^2(alpha), are left to the
    caller's node mask: where one vanishes the fields are non-finite,
    and no floating-point warning is raised.
    """
    ca, sa = G.cos_alpha, G.sin_alpha
    sa2 = np.where(sa > 0, sa**2, 1.0)
    grad = G.grad_cos_frame
    grad2 = grad[..., 0] ** 2 + grad[..., 1] ** 2
    grad_alpha2 = grad2 / sa2
    D = ca**2 + beta * sa**2
    jf = G.nabla_j_frame
    j121, j122 = jf[..., 0, 0, 1], jf[..., 1, 0, 1]
    j132 = jf[..., 1, 0, 2]  # <(nabla_{e2} J) e1, e3>
    j142 = jf[..., 1, 0, 3]  # <(nabla_{e2} J) e1, e4>
    pairing = grad[..., 0] * j121 + grad[..., 1] * j122
    theta = (
        2.0 * ca / sa2 * (1.0 + ca**2 / D) * pairing
        + ca**2 / D * G.j12_kk
        - 2.0 * ca**3 / (sa2 * D) * (j121**2 + j122**2)
    )
    k1213, k1224 = G.curvature_frame_components
    rhs = (
        2.0 * beta * sa**2 / (ca * D) * grad_alpha2
        - 2.0 * ca * grad_alpha2
        + sa * ca**2 / D * (k1213 - k1224)
        + theta
        - beta * sa / D * (grad[..., 0] * j142 + 3.0 * grad[..., 1] * j132)
    )
    lhs = G.laplace_beltrami(ca)
    return {"lhs": lhs, "rhs": rhs, "theta": theta, "residual": lhs - rhs}


def condition_cyclic_residuals(G: SurfaceGeometry):
    """Cyclic covariant-J sums over (tangent, tangent, normal) triples.

    c_xi = J_{12,xi} + J_{2xi,1} + J_{xi1,2} for xi = e3 and e4: J_{12,xi}
    is read from the table along the normal legs, the other two from
    ``nabla_j_frame``.  Equals the exterior derivative of the ambient
    2-form evaluated on (xi, e1, e2).
    """
    jf = G.nabla_j_frame
    j12 = G.nabla_j_along((2, 3))[..., 0, 1]  # J_{12,xi}, (..., xi)
    c3 = j12[..., 0] + jf[..., 0, 1, 2] + jf[..., 1, 2, 0]
    c4 = j12[..., 1] + jf[..., 0, 1, 3] + jf[..., 1, 3, 0]
    return c3, c4


def check_condition_cyclic(surface: ImmersedSurface,
                           ambient: AmbientManifold) -> Report:
    """Evaluate the cyclic condition and validate it against d(omega).

    The report's pass line certifies agreement with the independent
    exterior-derivative oracle; the condition's own residual is data.
    """
    check_winding_periodic(surface, ambient)
    G = SurfaceGeometry(surface, ambient)
    c3, c4 = condition_cyclic_residuals(G)
    dw = ambient.d_kahler_form_at(G.pos)
    fr = G.adapted_frame
    mismatches = []
    for val, xi in ((c3, fr.e3), (c4, fr.e4)):
        oracle = np.einsum("...abc,...a,...b,...c->...", dw, xi, fr.e1, fr.e2)
        mismatches.append(np.abs(val - oracle))
    mismatch = float(np.max(np.maximum(*mismatches)))
    cond_field = _max_abs(c3, c4)
    cond = float(np.max(cond_field))
    ok = mismatch < ORACLE_TOL
    holds = cond < CONDITION_TOL
    return Report(
        check="condition_cyclic",
        ambient=ambient.name,
        status="pass" if ok else "fail",
        tolerances={"oracle_mismatch": ORACLE_TOL},
        values={
            "condition_res_linf": cond,
            "oracle_mismatch": mismatch,
            "condition_holds": float(holds),
        },
        total_nodes=int(c3.size),
        residual_field=cond_field,
    )


def condition_symmetric_residuals(G: SurfaceGeometry):
    """Normal projections of the symmetrized covariant derivative of J."""
    jf = G.nabla_j_frame
    out = np.empty(G.cos_alpha.shape + (2, 3))
    pairs = [(0, 0), (0, 1), (1, 1)]
    for n in range(2):
        for col, (i, j) in enumerate(pairs):
            out[..., n, col] = jf[..., i, j, n + 2] + jf[..., j, i, n + 2]
    return out


def check_condition_symmetric(surface: ImmersedSurface,
                              ambient: AmbientManifold) -> Report:
    """Evaluate the symmetric normal condition.

    When the condition holds, three consequences are spot-checked: the
    diagonal components vanish and two off-diagonal components pair up,
    to within ten times the condition's residual plus ``CONSEQUENCE_FLOOR``.
    """
    check_winding_periodic(surface, ambient)
    G = SurfaceGeometry(surface, ambient)
    res = np.abs(condition_symmetric_residuals(G))
    cond = float(np.max(res))
    holds = cond < CONDITION_TOL
    jf = G.nabla_j_frame
    values = {"condition_res_linf": cond, "condition_holds": float(holds)}
    notes = []
    ok = True
    if holds:
        diag = max(
            float(np.max(np.abs(jf[..., i, i, n + 2])))
            for i in range(2)
            for n in range(2)
        )
        pair1 = float(np.max(np.abs(jf[..., 1, 0, 2] - jf[..., 0, 2, 1])))
        pair2 = float(np.max(np.abs(jf[..., 0, 3, 1] - jf[..., 1, 0, 3])))
        values["consequence_res"] = max(diag, pair1, pair2)
        ok = values["consequence_res"] < 10.0 * cond + CONSEQUENCE_FLOOR
    else:
        notes.append("condition violated: consequence identities not applicable")
    return Report(
        check="condition_symmetric",
        ambient=ambient.name,
        status="pass" if ok else "fail",
        tolerances={"consequence_floor": CONSEQUENCE_FLOOR},
        values=values,
        notes=notes,
        total_nodes=int(res[..., 0, 0].size),
        residual_field=np.max(res, axis=(-2, -1)),
    )


def verify_critical_identity(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    sin_alpha_min: float = 0.1,
    resid_tol: float | None = None,
) -> Report:
    """Check the critical-point form of the angle-Laplacian identity.

    The identity only holds under three hypotheses: the surface is
    critical for the given beta, and the ambient satisfies both
    covariant-J conditions.  Violated hypotheses downgrade the verdict
    to an annotation instead of a failure.  Nodes with sin(alpha) at or
    below ``sin_alpha_min``, or |cos(alpha)| at or below ``COS_FLOOR``,
    are excluded (reciprocal factors).  ``sin_alpha_min`` must be finite,
    and ``resid_tol`` None or finite and non-negative.
    """
    beta = validate_beta(beta)
    if not math.isfinite(sin_alpha_min):
        raise ValueError(f"sin_alpha_min must be finite, got {sin_alpha_min}")
    if resid_tol is not None and not (math.isfinite(resid_tol) and resid_tol >= 0.0):
        raise ValueError(
            f"resid_tol must be None or finite and non-negative, got {resid_tol}"
        )
    check_winding_periodic(surface, ambient)
    G = SurfaceGeometry(surface, ambient)
    el = el_operator(surface, ambient, beta, geometry=G)
    c3, c4 = condition_cyclic_residuals(G)
    sym = condition_symmetric_residuals(G)
    cond_res = max(float(np.max(_max_abs(c3, c4))), float(np.max(np.abs(sym))))
    near_critical = el.norm_linf < NEAR_CRITICAL_LINF
    conditions_hold = cond_res < CONDITION_TOL

    terms = critical_identity_terms(G, beta)
    mask = (
        (G.sin_alpha > sin_alpha_min)
        & (np.abs(G.cos_alpha) > COS_FLOOR)
        & G.adapted_frame.adapted
    )
    excluded = int(np.sum(~mask))
    total = int(mask.size)
    if excluded == total:
        l2 = linf = float("nan")
    else:
        l2, linf = _norms(np.abs(terms["residual"]), G.area_weights, mask)

    notes = []
    if sin_alpha_min < 0.1:
        notes.append(
            f"sin_alpha_min {sin_alpha_min:g} below the default working range 0.1"
        )
    hypotheses_ok = near_critical and conditions_hold
    if not near_critical:
        notes.append("surface not near-critical: identity not expected to hold")
    if not conditions_hold:
        notes.append("ambient covariant-J conditions violated on the surface")
    if excluded == total:
        status = "inconclusive"
        notes.append("all nodes excluded by the sin(alpha) floor")
    elif not hypotheses_ok:
        status = "hypotheses-violated"
    elif resid_tol is not None:
        status = "pass" if linf <= resid_tol else "fail"
    else:
        status = "conditional"
    tols = {"near_critical_linf": NEAR_CRITICAL_LINF, "condition": CONDITION_TOL}
    if resid_tol is not None:
        tols["residual_linf"] = resid_tol
    return Report(
        check="critical_identity",
        ambient=ambient.name,
        status=status,
        beta=beta,
        tolerances=tols,
        values={
            "res_linf": linf,
            "res_l2": l2,
            "el_res_linf": el.norm_linf,
            "condition_res": cond_res,
            "min_sin_alpha": float(np.min(G.sin_alpha)),
        },
        notes=notes,
        excluded_nodes=excluded,
        total_nodes=total,
        residual_field=np.where(mask, terms["residual"], 0.0),
    )


# -- first variation ---------------------------------------------------


def _variation_fields(G: SurfaceGeometry):
    """Three deterministic smooth normal fields spanning both normals, as
    one (3, n_theta, n_phi, 4) stack: the normal parts of fields with only
    p3 and p4 components.  sin and cos run on the node vectors but for
    sin(theta + phi), which is not separable."""
    S = G.surface
    th, ph = S.grids()
    sin_th, cos_th, sin_ph, cos_ph = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    raw = np.zeros((3, S.n_theta, S.n_phi, 4))
    raw[0, ..., 2], raw[0, ..., 3] = sin_th * cos_ph, 0.5 * cos_ph
    raw[1, ..., 2], raw[1, ..., 3] = 0.3 * cos_th, sin_ph * cos_th
    raw[2, ..., 2], raw[2, ..., 3] = np.sin(th + ph), 0.4 * sin_th * sin_ph
    return G.project_normal(raw)


def analytic_first_variation(G: SurfaceGeometry, beta: float, E, xi) -> list:
    """Right side of the first-variation formula for each normal field of
    the stack xi, -(1 + beta) times the integral of cos^-(beta+3)(alpha)
    <xi[k], E>, with E the chart components of the critical operator."""
    weight = G.cos_alpha ** (-(beta + 3.0)) * G.area_weights
    return [float(-(beta + 1.0) * np.sum(p)) for p in G.dot(xi, E) * weight]


def verify_first_variation(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    delta: float = 1e-4,
    rel_tol: float = 1e-3,
) -> Report:
    """Compare the analytic first variation against difference quotients.

    For each of three normal fields the report carries ``fieldN.analytic``
    and, on a direction that is not stationary, ``fieldN.rel_err``, the
    2-point quotient at the requested ``delta`` against the analytic
    value, and ``fieldN.delta_order``, the 2-point stencil's order on the
    ladder 4e-3, 2e-3, 1e-3 against a 4-point reference at 1e-3, which
    isolates the stencil error from the fixed spatial-discretization
    offset shared by every stencil.  A stationary direction carries
    ``fieldN.abs_err`` instead.  L_beta of the surface displaced by
    t xi is evaluated once per distinct step: eight per direction
    (+-delta and the ladder's +-1e-3, +-2e-3, +-4e-3), two on a
    stationary one.  On a flat or conformal ambient a step reads the
    tangents of the check's one geometry (``_l_beta_along``); any other
    ambient builds each displaced surface.  ``delta`` and ``rel_tol``
    must be finite and positive.
    """
    beta = validate_beta(beta)
    for name, value in (("delta", delta), ("rel_tol", rel_tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    check_winding_periodic(surface, ambient)
    G = SurfaceGeometry(surface, ambient)
    E = el_operator(surface, ambient, beta, geometry=G).vector
    cyc = float(np.max(_max_abs(*condition_cyclic_residuals(G))))

    def fd2(at, d):
        return (at(d) - at(-d)) / (2.0 * d)

    def fd4(at, d):
        return (-at(2.0 * d) + 8.0 * at(d) - 8.0 * at(-d) + at(-2.0 * d)) / (12.0 * d)

    ladder = (4e-3, 2e-3, 1e-3)
    scale = abs(l_beta(surface, ambient, beta, geometry=G))
    stationary_floor = 1e-8 * max(1.0, scale)
    values = {}
    notes = []
    ok = True
    worst_rel = 0.0
    measured_orders = []
    fields = _variation_fields(G)
    analytics = analytic_first_variation(G, beta, E, fields)
    for idx, (xi, analytic) in enumerate(zip(fields, analytics), start=1):
        # L_beta of the surface displaced by t * xi, evaluated once per step t
        at = functools.cache(_l_beta_along(G, beta, xi))
        measured = fd2(at, delta)
        values[f"field{idx}.analytic"] = analytic
        if abs(analytic) < stationary_floor:
            # Stationary direction: the quotient measures roundoff, so an
            # absolute comparison replaces the relative one and no order
            # can be extracted from the ladder.
            values[f"field{idx}.abs_err"] = abs(measured)
            ok = ok and abs(measured) < rel_tol
            notes.append(f"field{idx} stationary: absolute check, order skipped")
            continue
        rel = abs(measured - analytic) / abs(analytic)
        reference = fd4(at, ladder[-1])
        errs = [abs(fd2(at, d) - reference) for d in ladder]
        orders = [
            math.log2(errs[k - 1] / errs[k]) if errs[k] > 0 else float("nan")
            for k in range(1, len(errs))
        ]
        order = min(orders)
        values[f"field{idx}.rel_err"] = rel
        values[f"field{idx}.delta_order"] = order
        worst_rel = max(worst_rel, rel)
        measured_orders.append(order)
        ok = ok and rel < rel_tol and order >= ORDER_TOL
    values["cyclic_condition_res"] = cyc
    values["worst_rel_err"] = worst_rel
    values["worst_delta_order"] = (
        min(measured_orders) if measured_orders else float("nan")
    )
    if cyc > CONDITION_TOL:
        notes.append("cyclic condition violated: analytic formula is approximate")
    return Report(
        check="first_variation",
        ambient=ambient.name,
        status="pass" if ok else "fail",
        beta=beta,
        tolerances={"rel_err": rel_tol, "delta_order": ORDER_TOL},
        values=values,
        notes=notes,
        total_nodes=int(G.cos_alpha.size),
    )
