"""Ambient Hermitian 4-manifolds given by smooth chart fields.

A manifold is described by a metric field g(p) and an almost-complex
structure J(p) on a single global chart of R^4.  Derived objects follow
fixed index conventions:

* Christoffel symbols ``Gamma[A, B, C]`` mean Gamma^A_{BC}.
* Curvature uses K(X,Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z and the
  fully covariant components ``K[A, B, C, D]`` = <K(e_A, e_B) e_C, e_D>.
* Field derivatives ``d[C, ...]`` put the differentiation index first,
  so ``dg[C, A, B]`` is the partial of g_AB along coordinate C.

A user-built :class:`AmbientManifold` gets its field derivatives as
4th-order central differences with step ``fd_step``, except for an
analytic ``metric_derivative_field`` and the zero derivatives of
constant fields; its curvature differences the Christoffel field.  The
conformal ambient (:class:`ConformalManifold`) needs no differences: its
connection and curvature are closed forms in the first and second
partials of the conformal exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import AmbientDegenerate, StructureViolation

__all__ = [
    "AmbientManifold",
    "ConformalManifold",
    "ConnectionData",
    "CurvatureData",
    "euclidean_c2",
    "conformal",
    "parse_scalar_field",
    "STANDARD_J",
]

# Largest metric asymmetry, |J^2 + I| and |J^T g J - g| the field checks accept
STRUCTURE_TOL = 1e-8

# Standard complex structure of C^2 = R^4 acting on column vectors:
# J d1 = d2, J d2 = -d1, J d3 = d4, J d4 = -d3.
STANDARD_J = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

# 4th-order central difference: (f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / (12 h)
_FD4_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD4_WEIGHTS = (1.0, -8.0, 8.0, -1.0)


def parse_scalar_field(expression: str):
    """Parse a closed-form scalar field of p1..p4 into a vectorized callable.

    The expression language is deliberately small: arithmetic, powers
    (both ``**`` and ``^``), sin, cos, exp.  Returns ``(value, grad,
    hess)`` where ``value(points)`` maps an (..., 4) array to (...)
    values, ``grad(points)`` to (..., 4) first partials and
    ``hess(points)`` to (..., 4, 4) second partials.

    sympy is imported here, not at module level, so that runs which
    parse no field (every flat ambient) never load it.
    """
    import sympy as sp
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    coords = sp.symbols("p1 p2 p3 p4")
    local = {f"p{i}": coords[i - 1] for i in range(1, 5)}
    local.update({"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "pi": sp.pi})
    try:
        expr = parse_expr(
            expression,
            local_dict=local,
            transformations=standard_transformations + (convert_xor,),
            evaluate=True,
        )
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot parse scalar field {expression!r}: {exc}") from exc
    extra = expr.free_symbols - set(coords)
    if extra:
        names = ", ".join(sorted(str(s) for s in extra))
        raise ValueError(f"unknown symbols in scalar field: {names}")
    allowed_fns = (sp.sin, sp.cos, sp.exp)
    unknown_fns = {
        type(f).__name__
        for f in expr.atoms(sp.Function)
        if not isinstance(f, allowed_fns)
    }
    if unknown_fns:
        raise ValueError(
            f"unknown functions in scalar field: {', '.join(sorted(unknown_fns))}"
        )

    value = _vectorized(coords, [expr], ())
    grad = _vectorized(coords, [sp.diff(expr, c) for c in coords], (4,))
    second = [sp.diff(expr, a, b) for a in coords for b in coords]
    hess = _vectorized(coords, second, (4, 4))
    return value, grad, hess


def _vectorized(coords, exprs, shape):
    """Callable mapping (..., 4) points to the ``exprs`` in ``coords`` as a
    (...) + shape array."""
    from sympy import lambdify

    fns = [lambdify(coords, e, modules="numpy") for e in exprs]

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        comps = [points[..., i] for i in range(4)]
        cols = [
            np.broadcast_to(np.asarray(fn(*comps), dtype=float), points.shape[:-1])
            for fn in fns
        ]
        return np.stack(cols, axis=-1).reshape(points.shape[:-1] + shape)

    return evaluate


@dataclass
class ConnectionData:
    """Christoffel symbols at one or more points, plus symmetry residual."""

    gamma: np.ndarray  # (..., 4, 4, 4), [A, B, C] = Gamma^A_{BC}
    symmetry_residual: float  # max |Gamma^A_{BC} - Gamma^A_{CB}|


@dataclass
class CurvatureData:
    """Covariant curvature components with algebraic-identity residuals."""

    components: np.ndarray  # (..., 4, 4, 4, 4)
    antisymmetry_12: float
    antisymmetry_34: float
    pair_symmetry: float
    first_bianchi: float


def _check_curvature(K: np.ndarray) -> CurvatureData:
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


@dataclass
class AmbientManifold:
    """Chart description of an ambient Hermitian 4-manifold.

    ``metric_field(points)`` and ``j_field(points)`` must accept an
    (..., 4) array and return (..., 4, 4).  The optional analytic
    ``metric_derivative_field`` returns (..., 4, 4, 4) with the derivative
    index first.  ``fd_step`` must be finite and positive.
    """

    metric_field: Callable[[np.ndarray], np.ndarray]
    j_field: Callable[[np.ndarray], np.ndarray]
    metric_derivative_field: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-3
    name: str = "custom"
    flat_metric: bool = False  # metric is constant in the chart
    constant_j: bool = False  # J is constant in the chart

    def __post_init__(self):
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ValueError(f"fd_step must be finite and positive, got {self.fd_step}")

    # -- basic fields -------------------------------------------------

    @cached_property
    def _metric_sample(self) -> np.ndarray:
        """The checked metric at the origin; a flat metric is this everywhere."""
        return self._checked_metric(np.zeros(4), True)

    @cached_property
    def _j_sample(self) -> np.ndarray:
        """The checked J at the origin; a constant J is this everywhere."""
        return self._checked_j(np.zeros(4), True)

    def metric_at(self, points, check: bool = True) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.flat_metric:
            return np.broadcast_to(self._metric_sample, points.shape[:-1] + (4, 4))
        return self._checked_metric(points, check)

    def _checked_metric(self, points, check: bool) -> np.ndarray:
        with np.errstate(all="ignore"):
            g = np.asarray(self.metric_field(points), dtype=float)
        if not np.isfinite(g).all():
            raise AmbientDegenerate("metric not finite at some evaluation point")
        if check:
            sym = float(np.max(np.abs(g - np.swapaxes(g, -2, -1))))
            if sym > STRUCTURE_TOL:
                raise AmbientDegenerate(
                    f"metric not symmetric (max asymmetry {sym:.3e})"
                )
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise AmbientDegenerate(
                    "metric not positive definite at some evaluation point"
                ) from None
        return g

    def j_at(self, points, check: bool = True) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.constant_j:
            return np.broadcast_to(self._j_sample, points.shape[:-1] + (4, 4))
        return self._checked_j(points, check)

    def _checked_j(self, points, check: bool) -> np.ndarray:
        with np.errstate(all="ignore"):
            J = np.asarray(self.j_field(points), dtype=float)
        if not np.isfinite(J).all():
            raise StructureViolation("J not finite at some evaluation point")
        if check:
            eye = np.eye(4)
            sq = float(np.max(np.abs(np.einsum("...ab,...bc->...ac", J, J) + eye)))
            if sq > STRUCTURE_TOL:
                raise StructureViolation(f"J^2 + I residual {sq:.3e}")
            g = self.metric_at(points, check=False)
            gj = np.einsum("...ca,...cd,...db->...ab", J, g, J)
            comp = float(np.max(np.abs(gj - g)))
            if comp > STRUCTURE_TOL:
                raise StructureViolation(
                    f"J not metric compatible, |J^T g J - g| = {comp:.3e}"
                )
        return J

    # -- derivatives of chart fields ----------------------------------

    def _fd_derivative(self, fn, points) -> np.ndarray:
        """4th-order central difference of a (...,4)->(...,s) field.

        Output shape (..., 4, s): derivative index before the field axes.
        """
        points = np.asarray(points, dtype=float)
        h = self.fd_step
        cols = []
        for c in range(4):
            acc = 0.0
            for off, wgt in zip(_FD4_OFFSETS, _FD4_WEIGHTS):
                shifted = points.copy()
                shifted[..., c] += off * h
                acc = acc + wgt * np.asarray(fn(shifted), dtype=float)
            cols.append(acc / (12.0 * h))
        return np.stack(cols, axis=points.ndim - 1)

    def metric_derivative_at(self, points) -> np.ndarray:
        if self.flat_metric:
            points = np.asarray(points, dtype=float)
            return np.zeros(points.shape[:-1] + (4, 4, 4))
        if self.metric_derivative_field is not None:
            return np.asarray(self.metric_derivative_field(points), dtype=float)
        return self._fd_derivative(lambda q: self.metric_at(q, check=False), points)

    def j_derivative_at(self, points) -> np.ndarray:
        if self.constant_j:
            points = np.asarray(points, dtype=float)
            return np.zeros(points.shape[:-1] + (4, 4, 4))
        return self._fd_derivative(lambda q: self.j_at(q, check=False), points)

    # -- connection and curvature -------------------------------------

    def christoffel_at(self, points) -> np.ndarray:
        """Gamma^A_{BC} of the Levi-Civita connection, shape (..., 4, 4, 4)."""
        points = np.asarray(points, dtype=float)
        if self.flat_metric:
            return np.zeros(points.shape[:-1] + (4, 4, 4))
        g = self.metric_at(points, check=False)
        ginv = np.linalg.inv(g)
        dg = self.metric_derivative_at(points)
        # dg[b, d, c] + dg[c, d, b] - dg[d, b, c], contracted with g^{ad}
        brackets = (
            np.einsum("...bdc->...dbc", dg)
            + np.einsum("...cdb->...dbc", dg)
            - dg
        )
        return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, brackets)

    def connection_at(self, points) -> ConnectionData:
        gamma = self.christoffel_at(points)
        residual = float(np.max(np.abs(gamma - np.swapaxes(gamma, -2, -1))))
        return ConnectionData(gamma, residual)

    def christoffel_derivative_at(self, points) -> np.ndarray:
        """Partial derivatives of the Christoffel field, [C, A, B, D] order.

        Finite differences of ``christoffel_at``, which is all a chart
        description offers; only this class's ``curvature_at`` uses
        them.  Output (..., 4, 4, 4, 4) with the derivative index first.
        """
        points = np.asarray(points, dtype=float)
        if self.flat_metric:
            return np.zeros(points.shape[:-1] + (4, 4, 4, 4))
        return self._fd_derivative(self.christoffel_at, points)

    def curvature_at(self, points) -> np.ndarray:
        """Fully covariant curvature K_ABCD, shape (..., 4, 4, 4, 4)."""
        points = np.asarray(points, dtype=float)
        if self.flat_metric:
            return np.zeros(points.shape[:-1] + (4, 4, 4, 4))
        gamma = self.christoffel_at(points)
        dgamma = self.christoffel_derivative_at(points)
        # K^E_{ABC} = dGamma^E_{BC}/dA - dGamma^E_{AC}/dB
        #           + Gamma^E_{AF} Gamma^F_{BC} - Gamma^E_{BF} Gamma^F_{AC}
        mixed = (
            np.einsum("...aebc->...eabc", dgamma)
            - np.einsum("...beac->...eabc", dgamma)
            + np.einsum("...eaf,...fbc->...eabc", gamma, gamma)
            - np.einsum("...ebf,...fac->...eabc", gamma, gamma)
        )
        g = self.metric_at(points, check=False)
        return np.einsum("...de,...eabc->...abcd", g, mixed)

    def curvature_data_at(self, points) -> CurvatureData:
        return _check_curvature(self.curvature_at(points))

    # -- almost-complex structure -------------------------------------

    def nabla_j_tensor_at(self, points) -> np.ndarray:
        """Covariant derivative of J: S[C, A, B] = (nabla_C J)^A_B."""
        points = np.asarray(points, dtype=float)
        if self.constant_j and self.flat_metric:
            return np.zeros(points.shape[:-1] + (4, 4, 4))
        J = self.j_at(points, check=False)
        dJ = self.j_derivative_at(points)
        gamma = self.christoffel_at(points)
        return (
            dJ
            + np.einsum("...acd,...db->...cab", gamma, J)
            - np.einsum("...dcb,...ad->...cab", gamma, J)
        )

    def nabla_j_at(self, points, X) -> np.ndarray:
        """(nabla_X J) as an endomorphism, contracted over the direction."""
        S = self.nabla_j_tensor_at(points)
        X = np.asarray(X, dtype=float)
        return np.einsum("...c,...cab->...ab", X, S)

    def kahler_form_at(self, points) -> np.ndarray:
        """Components omega_AB = <J e_A, e_B> = J^C_A g_CB."""
        g = self.metric_at(points, check=False)
        J = self.j_at(points, check=False)
        return np.einsum("...ca,...cb->...ab", J, g)

    def d_kahler_form_at(self, points) -> np.ndarray:
        """Exterior derivative (d omega)_{ABC} by term-wise chart partials."""
        points = np.asarray(points, dtype=float)
        if self.flat_metric and self.constant_j:
            return np.zeros(points.shape[:-1] + (4, 4, 4))
        domega = self._fd_derivative(self.kahler_form_at, points)
        return (
            domega
            + np.einsum("...bca->...abc", domega)
            + np.einsum("...cab->...abc", domega)
        )


# -- builtin manifolds ------------------------------------------------


def euclidean_c2(fd_step: float = 1e-3) -> AmbientManifold:
    """Flat C^2: identity metric and the constant standard J."""

    def metric(points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(np.eye(4), points.shape[:-1] + (4, 4)).copy()

    def jfield(points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(STANDARD_J, points.shape[:-1] + (4, 4)).copy()

    return AmbientManifold(
        metric_field=metric,
        j_field=jfield,
        fd_step=fd_step,
        name="euclidean_c2",
        flat_metric=True,
        constant_j=True,
    )


@dataclass(kw_only=True)
class ConformalManifold(AmbientManifold):
    """Conformally flat g = exp(2 lam) delta with the constant standard J.

    The exponent lam comes with its first and second partials, each a
    callable from (..., 4) points, so the connection and the curvature
    are closed forms and no field is differenced.
    """

    conformal_exponent: Callable[[np.ndarray], np.ndarray]  # lam, (...)
    conformal_gradient: Callable[[np.ndarray], np.ndarray]  # d lam, (..., 4)
    conformal_hessian: Callable[[np.ndarray], np.ndarray]  # d d lam, (..., 4, 4)

    def christoffel_at(self, points) -> np.ndarray:
        """Gamma^a_bc = delta^a_b lam_c + delta^a_c lam_b - delta_bc lam_a."""
        grad = self.conformal_gradient(points)
        eye = np.eye(4)
        first = eye[:, :, None] * grad[..., None, None, :]  # delta_ab lam_c
        return first + np.swapaxes(first, -1, -2) - grad[..., :, None, None] * eye

    def curvature_at(self, points) -> np.ndarray:
        """Fully covariant curvature K_ABCD by the conformal-change formula.

        For exp(2 lam) delta (Besse, *Einstein Manifolds*, 1.J), in this
        module's convention, K = -exp(2 lam) (T o delta) with
        T = dd lam - dlam dlam + |dlam|^2 delta / 2 and (T o delta)_abcd
        = T_ad delta_bc + T_bc delta_ad - T_ac delta_bd - T_bd delta_ac.
        """
        grad = self.conformal_gradient(points)
        eye = np.eye(4)
        T = (
            self.conformal_hessian(points)
            - grad[..., :, None] * grad[..., None, :]
            + (0.5 * np.sum(grad**2, axis=-1))[..., None, None] * eye
        )
        # exp(2 lam) read off the metric, so an overflow raises AmbientDegenerate
        factor = self.metric_at(points, check=False)[..., 0, 0]
        K = np.zeros(T.shape[:-2] + (4, 4, 4, 4))
        for i in range(4):
            K[..., :, i, i, :] += T  # T_ad delta_bc
            K[..., i, :, :, i] += T  # T_bc delta_ad
            K[..., :, i, :, i] -= T  # T_ac delta_bd
            K[..., i, :, i, :] -= T  # T_bd delta_ac
        K *= -factor[..., None, None, None, None]
        return K


def conformal(expression: str, fd_step: float = 1e-3) -> ConformalManifold:
    """Conformally flat Hermitian structure g = exp(2*lam) * delta.

    ``expression`` is the conformal exponent lam as a function of
    p1..p4.  J stays the constant standard structure, which keeps it
    compatible with g.  The metric's first derivatives, the connection
    and the curvature are closed forms in the sympy partials of lam.
    """
    lam, dlam, ddlam = parse_scalar_field(expression)

    def metric(points):
        points = np.asarray(points, dtype=float)
        factor = np.exp(2.0 * lam(points))
        return factor[..., None, None] * np.eye(4)

    def metric_derivative(points):
        points = np.asarray(points, dtype=float)
        factor = np.exp(2.0 * lam(points))
        grad = dlam(points)
        return (2.0 * factor[..., None] * grad)[..., :, None, None] * np.eye(4)

    def jfield(points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(STANDARD_J, points.shape[:-1] + (4, 4)).copy()

    return ConformalManifold(
        metric_field=metric,
        j_field=jfield,
        metric_derivative_field=metric_derivative,
        fd_step=fd_step,
        name=f"conformal({expression})",
        constant_j=True,
        conformal_exponent=lam,
        conformal_gradient=dlam,
        conformal_hessian=ddlam,
    )
