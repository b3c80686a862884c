"""Identity checks with refinement studies and structured reports.

Each check assembles a residual field node by node, reduces it to L2
and Linf norms, optionally repeats the assembly over a ladder of grid
resolutions to measure a convergence order, and wraps everything in a
:class:`Report` that serializes to deterministic plain text.

The curvature contraction entering the angle-Laplacian identity has a
single sign degree of freedom relative to the commutator convention of
the ambient module.  ``calibrate_curvature_sign`` settles it by brute
force (the wrong sign visibly refuses to converge on any curved
ambient) and every report records the sign it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientManifold
from .functional import el_operator, jj_grad_perp, validate_beta
from .surface import ImmersedSurface, SurfaceGeometry

__all__ = [
    "Report",
    "calibrate_curvature_sign",
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


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


@dataclass
class Report:
    """Outcome of one verification check."""

    check: str
    ambient: str
    status: str  # pass | fail | conditional | hypotheses-violated | inconclusive
    passed: bool
    beta: float | None = None
    k_term_sign: int | None = None
    tolerances: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    refinement: list = field(default_factory=list)  # rows (n, l2, linf, order)
    excluded_nodes: int = 0
    total_nodes: int = 0
    residual_field: np.ndarray | None = None

    def to_text(self) -> str:
        lines = [
            f"check {self.check}",
            f"ambient {self.ambient}",
            f"status {self.status}",
            f"passed {_fmt(self.passed)}",
        ]
        if self.beta is not None:
            lines.append(f"beta {_fmt(self.beta)}")
        if self.k_term_sign is not None:
            lines.append(f"k_term_sign {self.k_term_sign:+d}")
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


def _norms(field_abs, weights, mask=None):
    if mask is not None:
        vals = np.where(mask, field_abs, 0.0)
        w = np.where(mask, weights, 0.0)
    else:
        vals, w = field_abs, weights
    l2 = float(np.sqrt(np.sum(vals**2 * w)))
    linf = float(np.max(vals))
    return l2, linf


def _orders(rows):
    """Fill the order column of refinement rows from successive Linf."""
    out = []
    for k, (n, l2, linf) in enumerate(rows):
        if k == 0:
            out.append((n, l2, linf, float("nan")))
        else:
            prev = rows[k - 1][2]
            order = math.log2(prev / linf) if linf > 0 and prev > 0 else float("nan")
            out.append((n, l2, linf, order))
    return out


def _as_sequence(surfaces):
    if isinstance(surfaces, ImmersedSurface):
        return [surfaces]
    return list(surfaces)


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


def verify_gradient_identities(surfaces, ambient: AmbientManifold,
                               order_tol: float = 1.9) -> Report:
    surfaces = _as_sequence(surfaces)
    rows = []
    excluded = total = 0
    finest_res = None
    for S in surfaces:
        G = SurfaceGeometry(S, ambient)
        r1, r2 = gradient_identity_residuals(G)
        mask = G.adapted_frame.adapted
        combined = np.maximum(np.abs(r1), np.abs(r2))
        l2, linf = _norms(combined, G.area_weights, mask)
        rows.append((S.n_theta, l2, linf))
        excluded = int(np.sum(~mask))
        total = int(mask.size)
        finest_res = np.where(mask, combined, 0.0)
    rows = _orders(rows)
    orders = [r[3] for r in rows[1:]]
    if len(surfaces) == 1:
        ok = rows[-1][2] < 1e-4
        status = "pass" if ok else "fail"
        note = "single level: order not measured, absolute tolerance applied"
        notes = [note]
    else:
        ok = all(o >= order_tol for o in orders)
        status = "pass" if ok else "fail"
        notes = []
    if total and excluded > 0.1 * total:
        status, ok = "inconclusive", False
        notes.append("more than 10% of nodes excluded (frame unadapted)")
    rep = Report(
        check="gradient_identities",
        ambient=ambient.name,
        status=status,
        passed=ok,
        tolerances={"order": order_tol},
        values={"finest_res_linf": rows[-1][2], "finest_res_l2": rows[-1][1]},
        notes=notes,
        refinement=rows,
        excluded_nodes=excluded,
        total_nodes=total,
        residual_field=finest_res,
    )
    return rep


# -- angle Laplacian identity -----------------------------------------


def laplacian_identity_terms(G: SurfaceGeometry, k_sign: int = 1) -> dict:
    """Named contributions to the unconditional angle-Laplacian identity.

    Returns grid fields: lhs (Laplace-Beltrami of cos alpha), the
    quadratic second-fundamental-form term, the normal derivative of the
    mean curvature term, the ambient curvature term, the two covariant-J
    terms, and the residual lhs - sum(rhs).
    """
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
    k1213, k1224 = G.curvature_frame_components
    curv = k_sign * sa * (k1213 - k1224)
    j_second = G.j12_kk
    jf = G.nabla_j_frame
    j_coupling = np.zeros_like(ca)
    for k in range(2):
        for n in range(2):
            j_coupling = j_coupling + 2.0 * (
                jf[..., k, n + 2, 1] * h[..., n, 0, k]
                + jf[..., k, 0, n + 2] * h[..., n, 1, k]
            )
    lhs = G.laplace_beltrami(ca)
    residual = lhs - (quad + mean_deriv + curv + j_second + j_coupling)
    return {
        "lhs": lhs,
        "quad": quad,
        "mean_deriv": mean_deriv,
        "curvature": curv,
        "j_second": j_second,
        "j_coupling": j_coupling,
        "residual": residual,
    }


def calibrate_curvature_sign(G: SurfaceGeometry) -> tuple[int, float, float]:
    """Pick the curvature-term sign by brute force on one geometry.

    Returns (sign, residual_with_sign, residual_with_flip).  On a flat
    ambient both residuals coincide and the default +1 is kept.
    """
    plus = float(np.max(np.abs(laplacian_identity_terms(G, +1)["residual"])))
    minus = float(np.max(np.abs(laplacian_identity_terms(G, -1)["residual"])))
    if minus < plus:
        return -1, minus, plus
    return 1, plus, minus


def verify_laplacian_identity(surfaces, ambient: AmbientManifold,
                              k_sign: int | None = None,
                              order_tol: float = 1.9) -> Report:
    """Refinement study of the unconditional angle-Laplacian identity."""
    surfaces = _as_sequence(surfaces)
    geoms = [SurfaceGeometry(S, ambient) for S in surfaces]
    notes = []
    flip_res = None
    if k_sign is None:
        if ambient.flat_metric:
            k_sign = 1
            notes.append("flat ambient: curvature term vanishes, sign +1 by default")
        else:
            k_sign, keep, flip_res = calibrate_curvature_sign(geoms[-1])
            notes.append("curvature-term sign calibrated by brute force")
    rows = []
    excluded = total = 0
    finest_res = None
    kahler_jterm = 0.0
    for G in geoms:
        terms = laplacian_identity_terms(G, k_sign)
        mask = G.adapted_frame.adapted
        l2, linf = _norms(np.abs(terms["residual"]), G.area_weights, mask)
        rows.append((G.surface.n_theta, l2, linf))
        excluded = int(np.sum(~mask))
        total = int(mask.size)
        finest_res = np.where(mask, terms["residual"], 0.0)
        kahler_jterm = max(
            float(np.max(np.abs(terms["j_second"]))),
            float(np.max(np.abs(terms["j_coupling"]))),
            float(np.max(np.abs(G.nabla_j_frame))),
        )
    rows = _orders(rows)
    orders = [r[3] for r in rows[1:]]
    values = {
        "finest_res_linf": rows[-1][2],
        "finest_res_l2": rows[-1][1],
        "max_j_term": kahler_jterm,
    }
    if flip_res is not None:
        values["flipped_sign_res_linf"] = flip_res
    if len(surfaces) > 1:
        ok = all(o >= order_tol for o in orders)
    else:
        ok = rows[-1][2] < 1e-3
        notes.append("single level: order not measured, absolute tolerance applied")
    if ambient.flat_metric and ambient.constant_j:
        ok = ok and kahler_jterm < 1e-12
    status = "pass" if ok else "fail"
    if total and excluded > 0.1 * total:
        status, ok = "inconclusive", False
        notes.append("more than 10% of nodes excluded (frame unadapted)")
    return Report(
        check="laplacian_identity",
        ambient=ambient.name,
        status=status,
        passed=ok,
        k_term_sign=k_sign,
        tolerances={"order": order_tol, "kahler_j_terms": 1e-12},
        values=values,
        notes=notes,
        refinement=rows,
        excluded_nodes=excluded,
        total_nodes=total,
        residual_field=finest_res,
    )


# -- conditional identity at critical points --------------------------


def critical_identity_terms(G: SurfaceGeometry, beta: float,
                            k_sign: int = 1) -> dict:
    """Fields of the angle-Laplacian identity specialized to critical points.

    Valid where the surface satisfies the critical equations and the
    ambient satisfies the two covariant-J conditions; the caller grades
    applicability.  All reciprocal sin(alpha) factors are left to the
    caller's node mask.
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
        + k_sign * sa * ca**2 / D * (k1213 - k1224)
        + theta
        - beta * sa / D * (grad[..., 0] * j142 + 3.0 * grad[..., 1] * j132)
    )
    lhs = G.laplace_beltrami(ca)
    return {"lhs": lhs, "rhs": rhs, "theta": theta, "residual": lhs - rhs}


def condition_cyclic_residuals(G: SurfaceGeometry):
    """Cyclic covariant-J sums over (tangent, tangent, normal) triples.

    Equals the exterior derivative of the ambient 2-form evaluated on
    (normal, e1, e2); both normals are returned.
    """
    S = G.nabla_j_tensor
    g = G.amb_g
    fr = G.adapted_frame

    def term(W, U, V):
        return np.einsum("...cab,...c,...b,...ad,...d->...", S, W, U, g, V)

    out = []
    for xi in (fr.e3, fr.e4):
        out.append(term(xi, fr.e1, fr.e2) + term(fr.e1, fr.e2, xi)
                   + term(fr.e2, xi, fr.e1))
    return out[0], out[1]


def check_condition_cyclic(surface: ImmersedSurface,
                           ambient: AmbientManifold,
                           oracle_tol: float = 1e-6) -> Report:
    """Evaluate the cyclic condition and validate it against d(omega).

    The report's pass line certifies agreement with the independent
    exterior-derivative oracle; the condition's own residual is data.
    """
    G = SurfaceGeometry(surface, ambient)
    c3, c4 = condition_cyclic_residuals(G)
    dw = ambient.d_kahler_form_at(G.pos)
    fr = G.adapted_frame
    mismatches = []
    for val, xi in ((c3, fr.e3), (c4, fr.e4)):
        oracle = np.einsum("...abc,...a,...b,...c->...", dw, xi, fr.e1, fr.e2)
        mismatches.append(np.abs(val - oracle))
    mismatch = float(np.max(np.maximum(*mismatches)))
    cond = float(np.max(np.maximum(np.abs(c3), np.abs(c4))))
    ok = mismatch < oracle_tol
    holds = cond < CONDITION_TOL
    return Report(
        check="condition_cyclic",
        ambient=ambient.name,
        status="pass" if ok else "fail",
        passed=ok,
        tolerances={"oracle_mismatch": oracle_tol},
        values={
            "condition_res_linf": cond,
            "oracle_mismatch": mismatch,
            "condition_holds": float(holds),
        },
        total_nodes=int(c3.size),
        residual_field=np.maximum(np.abs(c3), np.abs(c4)),
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
                              ambient: AmbientManifold,
                              tol: float = 1e-12) -> Report:
    """Evaluate the symmetric normal condition; on flat Kahler it is exact.

    When the condition holds, three consequences are spot-checked: the
    diagonal components vanish and two off-diagonal components pair up.
    """
    G = SurfaceGeometry(surface, ambient)
    res = condition_symmetric_residuals(G)
    cond = float(np.max(np.abs(res)))
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
        ok = values["consequence_res"] < max(tol, 10.0 * cond + 1e-12)
    else:
        notes.append("condition violated: consequence identities not applicable")
    if ambient.flat_metric and ambient.constant_j:
        ok = ok and cond < tol
    return Report(
        check="condition_symmetric",
        ambient=ambient.name,
        status="pass" if ok else "fail",
        passed=ok,
        tolerances={"flat_kahler_res": tol},
        values=values,
        notes=notes,
        total_nodes=int(res[..., 0, 0].size),
        residual_field=np.max(np.abs(res), axis=(-2, -1)),
    )


def verify_critical_identity(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    sin_alpha_min: float = 0.1,
    k_sign: int = 1,
    resid_tol: float | None = None,
) -> Report:
    """Check the critical-point form of the angle-Laplacian identity.

    The identity only holds under three hypotheses: the surface is
    critical for the given beta, and the ambient satisfies both
    covariant-J conditions.  Violated hypotheses downgrade the verdict
    to an annotation instead of a failure.  Nodes with sin(alpha) at or
    below ``sin_alpha_min`` are excluded (reciprocal factors).
    """
    beta = validate_beta(beta)
    G = SurfaceGeometry(surface, ambient)
    el = el_operator(surface, ambient, beta, geometry=G)
    c3, c4 = condition_cyclic_residuals(G)
    sym = condition_symmetric_residuals(G)
    cond_res = max(
        float(np.max(np.maximum(np.abs(c3), np.abs(c4)))),
        float(np.max(np.abs(sym))),
    )
    near_critical = el.norm_linf < NEAR_CRITICAL_LINF
    conditions_hold = cond_res < CONDITION_TOL

    terms = critical_identity_terms(G, beta, k_sign)
    mask = (G.sin_alpha > sin_alpha_min) & G.adapted_frame.adapted
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
        status, passed = "inconclusive", False
        notes.append("all nodes excluded by the sin(alpha) floor")
    elif not hypotheses_ok:
        status, passed = "hypotheses-violated", True
    elif resid_tol is not None:
        passed = linf <= resid_tol
        status = "pass" if passed else "fail"
    else:
        status, passed = "conditional", True
    tols = {"near_critical_linf": NEAR_CRITICAL_LINF, "condition": CONDITION_TOL}
    if resid_tol is not None:
        tols["residual_linf"] = resid_tol
    return Report(
        check="critical_identity",
        ambient=ambient.name,
        status=status,
        passed=passed,
        beta=beta,
        k_term_sign=k_sign,
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
    """Three deterministic smooth normal fields spanning both normals."""
    S = G.surface
    th, ph = S.grids()
    shapes = [
        (np.sin(th) * np.cos(ph), 0.5 * np.cos(ph)),
        (0.3 * np.cos(th), np.sin(ph) * np.cos(th)),
        (np.sin(th + ph), 0.4 * np.sin(th) * np.sin(ph)),
    ]
    fields = []
    for a, b in shapes:
        raw = np.zeros(th.shape + (4,))
        raw[..., 2] = a
        raw[..., 3] = b
        fields.append(G.project_normal(raw))
    return fields


def analytic_first_variation(G: SurfaceGeometry, beta: float, xi) -> float:
    """Right side of the first-variation formula for a normal field xi."""
    ca = G.cos_alpha
    w = G.area_weights
    H = G.mean_curvature
    out = -(beta + 1.0) * np.sum(G.dot(xi, H) * ca ** (-beta) * w)
    if beta != 0.0:
        V = jj_grad_perp(G)
        out += beta * (beta + 1.0) * np.sum(G.dot(xi, V) * ca ** (-(beta + 3.0)) * w)
    return float(out)


def verify_first_variation(
    surface: ImmersedSurface,
    ambient: AmbientManifold,
    beta: float,
    delta: float = 1e-4,
    rel_tol: float = 1e-3,
    order_tol: float = 1.9,
) -> Report:
    """Compare the analytic first variation against difference quotients.

    The relative error is taken at the requested ``delta`` with the
    2-point stencil.  The stencil's delta-order is measured on a ladder
    against a high-order reference at the smallest ladder step, which
    isolates the stencil error from the fixed spatial-discretization
    offset shared by every stencil.
    """
    beta = validate_beta(beta)
    from .functional import l_beta  # local import to keep module load light

    G = SurfaceGeometry(surface, ambient)
    cyc3, cyc4 = condition_cyclic_residuals(G)
    cyc = float(np.max(np.maximum(np.abs(cyc3), np.abs(cyc4))))

    def fd2(xi, d):
        lp = l_beta(surface.displaced(d * xi), ambient, beta)
        lm = l_beta(surface.displaced(-d * xi), ambient, beta)
        return (lp - lm) / (2.0 * d)

    def fd4(xi, d):
        lp1 = l_beta(surface.displaced(d * xi), ambient, beta)
        lm1 = l_beta(surface.displaced(-d * xi), ambient, beta)
        lp2 = l_beta(surface.displaced(2.0 * d * xi), ambient, beta)
        lm2 = l_beta(surface.displaced(-2.0 * d * xi), ambient, beta)
        return (-lp2 + 8.0 * lp1 - 8.0 * lm1 + lm2) / (12.0 * d)

    ladder = (4e-3, 2e-3, 1e-3)
    scale = abs(l_beta(surface, ambient, beta, geometry=G))
    stationary_floor = 1e-8 * max(1.0, scale)
    values = {}
    notes = []
    ok = True
    worst_rel = 0.0
    measured_orders = []
    for idx, xi in enumerate(_variation_fields(G), start=1):
        analytic = analytic_first_variation(G, beta, xi)
        measured = fd2(xi, delta)
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
        reference = fd4(xi, ladder[-1])
        errs = [abs(fd2(xi, d) - reference) for d in ladder]
        orders = [
            math.log2(errs[k - 1] / errs[k]) if errs[k] > 0 else float("nan")
            for k in range(1, len(errs))
        ]
        order = min(orders)
        rel4 = abs(fd4(xi, delta) - analytic) / abs(analytic)
        values[f"field{idx}.rel_err"] = rel
        values[f"field{idx}.rel_err_4pt"] = rel4
        values[f"field{idx}.delta_order"] = order
        worst_rel = max(worst_rel, rel)
        measured_orders.append(order)
        ok = ok and rel < rel_tol and order >= order_tol
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
        passed=ok,
        beta=beta,
        tolerances={"rel_err": rel_tol, "delta_order": order_tol},
        values=values,
        notes=notes,
        total_nodes=int(G.cos_alpha.size),
    )
