"""Ambient Hermitian 4-manifolds given by smooth chart fields.

A manifold is described by a metric field g(p) and an almost-complex
structure J(p) on a single global chart of R^4.  Derived objects follow
fixed index conventions:

* Christoffel symbols ``Gamma[A, B, C]`` mean Gamma^A_{BC}.
* Curvature uses K(X,Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z and the
  fully covariant components ``K[A, B, C, D]`` = <K(e_A, e_B) e_C, e_D>.
* Field derivatives ``d[C, ...]`` put the differentiation index first,
  so ``dg[C, A, B]`` is the partial of g_AB along coordinate C.

:class:`AmbientManifold` is the general reference: it checks the fields
it samples, takes their derivatives as 4th-order central differences
with the fixed step ``FD_STEP`` (except for an analytic
``metric_derivative_field``), contracts them into the connection, the
covariant derivative of J and d(omega), and contracts the connection
and its partials, taken by differencing the Christoffel field, into the
curvature.  The two ambients that ship are closed-form subclasses that
difference nothing: :class:`ConformalManifold` (exp(2 lam) delta
with the standard J), whose metric derivative, connection partials and
d(omega) are closed forms in the first and second partials of lam, so
its connection and curvature are the base class's contractions of
closed forms, and :class:`EuclideanManifold`, flat C^2, its lam = 0 case.

A surface reads the ambient through the sample that ``sample(points)``
returns for its nodes, which reads arrays, never the surface.  The flat
sample holds no field and is ``flat``, so the surface writes the zero
connection, nabla J and curvature itself; the general one holds g and J
and contracts the tensors above into ``christoffel`` (Gamma(X, Y) of
one pair of (..., 4) fields), ``nabla_j_frame`` (the nabla J table
J_{ab,k} of a frame along the legs k it is asked for, (..., legs, 4,
4)) and ``curvature_frame`` (K_1213, K_1224); the conformal one holds
exp(2 lam) and grad lam and evaluates all three in closed form, per
node.  Every sample's ``factor`` is exp(2 lam) where g = exp(2 lam)
delta: 1.0 on the flat one, which reads no positions for it, and None on
the general one.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import AmbientDegenerate, StructureViolation

__all__ = [
    "AmbientManifold",
    "ConformalManifold",
    "EuclideanManifold",
    "euclidean_c2",
    "conformal",
    "parse_scalar_field",
    "FD_STEP",
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
# Step of the 4th-order central differences of the general class
FD_STEP = 1e-3
_FD4_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD4_WEIGHTS = (1.0, -8.0, 8.0, -1.0)

# The operators of the scalar-field language, by syntax-tree node type
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def parse_scalar_field(expression: str):
    """Parse a closed-form scalar field of p1..p4 into a vectorized callable.

    The expression language is deliberately small: numbers, p1..p4,
    ``pi``, ``+ - * /``, powers (both ``**`` and ``^``), unary signs and
    sin, cos and exp of one argument.  The text is read as a syntax
    tree and never executed; anything outside the language, and any
    constant that is not a finite real number in float64 (``1/0``,
    ``(-1)^0.5``, ``1e400``), raises ValueError.  Returns ``(value, grad,
    hess)`` where ``value(points)`` maps an (..., 4) array to (...) values,
    ``grad(points)`` to (..., 4) first partials and ``hess(points)`` to
    (..., 4, 4) second partials.

    sympy is imported here, not at module level, so that runs which
    parse no field (every flat ambient) never load it.
    """
    import sympy as sp

    coords = sp.symbols("p1 p2 p3 p4")
    names = {f"p{i}": c for i, c in enumerate(coords, start=1)}
    names["pi"] = sp.pi
    functions = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp}
    # Python's ^ binds looser than +, so it becomes ** before parsing
    text = expression.replace("^", "**")

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](build(node.left), build(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](build(node.operand))
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return sp.Integer(node.value)
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return sp.Float(ast.get_source_segment(text, node))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions and len(node.args) == 1
                and not node.keywords):
            return functions[node.func.id](build(node.args[0]))
        raise ValueError(
            f"unsupported {ast.unparse(node)!r} in scalar field {expression!r}"
        )

    try:
        expr = build(ast.parse(text, mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse scalar field {expression!r}: {exc}") from exc
    # finite in float64, where the lambdified code evaluates it, not only in sympy
    if any(sub.is_number and not (sub.is_real and math.isfinite(float(sub)))
           for sub in sp.preorder_traversal(expr)):
        raise ValueError(
            f"scalar field {expression!r} has a constant that is not finite and real"
        )

    value = _vectorized(coords, [expr], ())
    grad = _vectorized(coords, [sp.diff(expr, c) for c in coords], (4,))
    # the ten distinct second partials, each taken and evaluated once; the
    # sixteen entries mirror them by a fixed index
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    upper = _vectorized(coords, [sp.diff(expr, coords[i], coords[j]) for i, j in pairs],
                        (len(pairs),))
    mirror = [pairs.index((min(i, j), max(i, j))) for i in range(4) for j in range(4)]

    def hess(points):
        second = upper(points)
        return second[..., mirror].reshape(second.shape[:-1] + (4, 4))

    return value, grad, hess


def _vectorized(coords, exprs, shape):
    """Callable mapping (..., 4) points to the ``exprs`` in ``coords`` as a
    (...) + shape array."""
    from sympy import lambdify
    from sympy.printing.numpy import NumPyPrinter

    # a namespace of numpy alone: modules="numpy" runs `from numpy import *`,
    # which loads numpy.f2py, numpy.testing and the rest of its submodules
    fn = lambdify(coords, exprs, modules=[{"numpy": np}], printer=NumPyPrinter)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        comps = [points[..., i] for i in range(4)]
        cols = [
            np.broadcast_to(np.asarray(col, dtype=float), points.shape[:-1])
            for col in fn(*comps)
        ]
        return np.stack(cols, axis=-1).reshape(points.shape[:-1] + shape)

    return evaluate


@dataclass
class AmbientManifold:
    """Chart description of an ambient Hermitian 4-manifold.

    ``metric_field(points)`` and ``j_field(points)`` must accept an
    (..., 4) array and return (..., 4, 4); ``metric_at`` and ``j_at``
    refuse any other shape.  The optional analytic
    ``metric_derivative_field`` returns (..., 4, 4, 4), finite, with the
    derivative index first; ``metric_derivative_at`` refuses any other.
    Other field derivatives are central differences with step ``FD_STEP``.
    """

    metric_field: Callable[[np.ndarray], np.ndarray]
    j_field: Callable[[np.ndarray], np.ndarray]
    metric_derivative_field: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"

    # -- basic fields -------------------------------------------------

    def metric_at(self, points, check: bool = True) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            g = np.asarray(self.metric_field(points), dtype=float)
        _check_shape(g, points, "metric", AmbientDegenerate)
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
        with np.errstate(all="ignore"):
            J = np.asarray(self.j_field(points), dtype=float)
        _check_shape(J, points, "J", StructureViolation)
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
        h = FD_STEP
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
        if self.metric_derivative_field is not None:
            points = np.asarray(points, dtype=float)
            with np.errstate(all="ignore"):
                dg = np.asarray(self.metric_derivative_field(points), dtype=float)
            _check_shape(dg, points, "metric derivative", AmbientDegenerate, (4, 4, 4))
            if not np.isfinite(dg).all():
                raise AmbientDegenerate(
                    "metric derivative not finite at some evaluation point")
            return dg
        return self._fd_derivative(lambda q: self.metric_at(q, check=False), points)

    def j_derivative_at(self, points) -> np.ndarray:
        return self._fd_derivative(lambda q: self.j_at(q, check=False), points)

    # -- connection and curvature -------------------------------------

    def christoffel_at(self, points) -> np.ndarray:
        """Gamma^A_{BC} of the Levi-Civita connection, shape (..., 4, 4, 4)."""
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

    def christoffel_derivative_at(self, points) -> np.ndarray:
        """Partial derivatives of the Christoffel field, [C, A, B, D] order.

        Finite differences of ``christoffel_at``, which is all a chart
        description offers; ``curvature_at`` contracts them.  Output
        (..., 4, 4, 4, 4) with the derivative index first.
        """
        return self._fd_derivative(self.christoffel_at, points)

    def curvature_at(self, points) -> np.ndarray:
        """Fully covariant curvature K_ABCD, shape (..., 4, 4, 4, 4)."""
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

    # -- almost-complex structure -------------------------------------

    def nabla_j_tensor_at(self, points) -> np.ndarray:
        """Covariant derivative of J: S[C, A, B] = (nabla_C J)^A_B."""
        J = self.j_at(points, check=False)
        dJ = self.j_derivative_at(points)
        gamma = self.christoffel_at(points)
        return (
            dJ
            + np.einsum("...acd,...db->...cab", gamma, J)
            - np.einsum("...dcb,...ad->...cab", gamma, J)
        )

    def kahler_form_at(self, points) -> np.ndarray:
        """Components omega_AB = <J e_A, e_B> = J^C_A g_CB."""
        g = self.metric_at(points, check=False)
        J = self.j_at(points, check=False)
        return np.einsum("...ca,...cb->...ab", J, g)

    def d_kahler_form_at(self, points) -> np.ndarray:
        """Exterior derivative (d omega)_{ABC} by term-wise chart partials."""
        domega = self._fd_derivative(self.kahler_form_at, points)
        return (
            domega
            + np.einsum("...bca->...abc", domega)
            + np.einsum("...cab->...abc", domega)
        )

    # -- the ambient at a surface's nodes ------------------------------

    def sample(self, points):
        """The ambient at ``points``, (..., 4) positions with any leading
        node axes or a callable that returns them on first need."""
        return _GeneralSample(self, points)


def _check_shape(field, points, name, error, trailing=(4, 4)):
    """Raise ``error`` unless ``field``, sampled at ``points`` (..., 4), is
    (...) + ``trailing``: one 4x4 matrix per point unless told otherwise."""
    want = points.shape[:-1] + trailing
    if field.shape != want:
        raise error(f"{name} field returned shape {field.shape} at points of "
                    f"shape {points.shape}; expected {want}")


# -- builtin manifolds ------------------------------------------------


def _dot(u, v):
    """Euclidean sum_a u^a v^a over the last axis, in a fixed order."""
    # ((p0 + p1) + p2) + p3 is np.sum's order for a length-4 axis; np.sum
    # also starts from +0.0, which the final += 0.0 matches (it turns the
    # -0.0 of four -0.0 products into +0.0 and changes nothing else)
    p = np.asarray(u) * np.asarray(v)
    out = p[..., 0] + p[..., 1]
    out += p[..., 2]
    out += p[..., 3]
    out += 0.0
    return out


def _dot_major(u, v):
    """sum_c u[c] v[c] over the first axis, in ``_dot``'s order."""
    out = u[0] * v[0]
    out += u[1] * v[1]
    out += u[2] * v[2]
    out += u[3] * v[3]
    out += 0.0
    return out


def _zeros(points, rank: int) -> np.ndarray:
    """A zero table with ``rank`` axes of length 4 at each (..., 4) point."""
    return np.zeros(np.shape(points)[:-1] + (4,) * rank)


class ConformalManifold(AmbientManifold):
    """Conformally flat g = exp(2 lam) delta with the constant standard J.

    The exponent lam comes with its first and second partials, each a
    callable from (..., 4) points, so the metric and its derivative, the
    partials of the connection, the derivative of J and d(omega) are
    closed forms and no field is differenced; the connection, nabla J
    and the curvature are the base class's contractions of them.  The
    metric, J and metric derivative are closed-form fields that the base
    class's readers check, so a plain ``AmbientManifold`` can be built
    on them for comparison.
    """

    def __init__(self, exponent: Callable[[np.ndarray], np.ndarray],
                 gradient: Callable[[np.ndarray], np.ndarray],
                 hessian: Callable[[np.ndarray], np.ndarray],
                 name: str = "conformal"):
        self.conformal_exponent = exponent  # lam, (...)
        self.conformal_gradient = gradient  # d lam, (..., 4)
        self.conformal_hessian = hessian  # d d lam, (..., 4, 4)
        super().__init__(metric_field=self._metric, j_field=self._j,
                         metric_derivative_field=self._metric_derivative,
                         name=name)

    def _metric(self, points) -> np.ndarray:
        """exp(2 lam) delta, checked by ``metric_factor_at``."""
        return self.metric_factor_at(points)[..., None, None] * np.eye(4)

    def _j(self, points) -> np.ndarray:
        """``STANDARD_J`` at each point, as a read-only broadcast."""
        return np.broadcast_to(STANDARD_J, np.shape(points)[:-1] + (4, 4))

    def _metric_derivative(self, points) -> np.ndarray:
        """d_c g_ab = 2 exp(2 lam) lam_c delta_ab, derivative index first."""
        factor = self.metric_factor_at(points)
        grad = self.conformal_gradient(points)
        return (2.0 * factor[..., None] * grad)[..., :, None, None] * np.eye(4)

    def metric_factor_at(self, points) -> np.ndarray:
        """exp(2 lam), the factor of delta that every closed form reads.
        Where it is not finite, or not positive (underflowed), it raises
        AmbientDegenerate with the messages of the base class's ``metric_at``."""
        with np.errstate(over="ignore"):
            factor = np.exp(2.0 * self.conformal_exponent(points))
        if not np.isfinite(factor).all():
            raise AmbientDegenerate("metric not finite at some evaluation point")
        if not (factor > 0.0).all():
            raise AmbientDegenerate(
                "metric not positive definite at some evaluation point"
            )
        return factor

    def j_derivative_at(self, points) -> np.ndarray:
        return _zeros(points, 3)

    def d_kahler_form_at(self, points) -> np.ndarray:
        """d omega = 2 dlam ^ omega: with w = omega / exp(2 lam) = J^T,
        (d omega)_abc = 2 exp(2 lam) (lam_a w_bc + lam_b w_ca + lam_c w_ab)."""
        factor = self.metric_factor_at(points)
        dl = 2.0 * factor[..., None] * self.conformal_gradient(points)
        w = STANDARD_J.T
        return (
            dl[..., :, None, None] * w
            + dl[..., None, :, None] * w.T[:, None, :]
            + dl[..., None, None, :] * w[:, :, None]
        )

    def christoffel_derivative_at(self, points) -> np.ndarray:
        """d_d Gamma^a_bc = delta_ab lam_cd + delta_ac lam_bd - delta_bc lam_ad,
        derivative index first; the base class contracts it into K."""
        hess = self.conformal_hessian(points)
        eye = np.eye(4)
        first = eye[:, :, None] * hess[..., :, None, None, :]  # delta_ab lam_dc
        return first + np.swapaxes(first, -1, -2) - hess[..., :, :, None, None] * eye

    def sample(self, points):
        """The closed-form sample at ``points`` (see ``AmbientManifold.sample``)."""
        return _ConformalSample(self, points)


class EuclideanManifold(ConformalManifold):
    """Flat C^2: the conformal ambient with lam = 0, so g is the identity.

    Its sample is the flat one, which reads no positions.  d(omega) is
    the conformal closed form 2 dlam ^ omega at dlam = 0: zero, with
    entries of either sign of zero.
    """

    def __init__(self):
        super().__init__(lambda p: _zeros(p, 0), lambda p: _zeros(p, 1),
                         lambda p: _zeros(p, 2), name="euclidean_c2")

    def sample(self, points):
        """The flat sample, which reads ``points`` only for ``pos``."""
        return _FlatSample(self, points)


def euclidean_c2() -> EuclideanManifold:
    """Flat C^2: identity metric and the constant standard J."""
    return EuclideanManifold()


def conformal(expression: str) -> ConformalManifold:
    """Conformally flat Hermitian structure g = exp(2*lam) * delta.

    ``expression`` is the conformal exponent lam as a function of
    p1..p4.  J stays the constant standard structure, which keeps it
    compatible with g.  The metric and its first derivatives, the
    connection's partials and d(omega) are closed forms in the sympy
    partials of lam; the connection and the curvature contract them.
    """
    lam, dlam, ddlam = parse_scalar_field(expression)
    return ConformalManifold(lam, dlam, ddlam, name=f"conformal({expression})")


# -- samples: an ambient at the nodes of a surface --------------------

# J^T of the shipped ambients, contiguous, as the right factor of v @ J^T
_STANDARD_JT = np.ascontiguousarray(STANDARD_J.T)


def _apply_standard_j(v):
    """``STANDARD_J`` v for chart vectors v[..., :], as one (N, 4) @ (4, 4)
    product; each row of ``STANDARD_J`` has one nonzero entry, so the
    product is exact."""
    v = np.asarray(v)
    return (v.reshape(-1, 4) @ _STANDARD_JT).reshape(v.shape)


class _Sample:
    """An ambient at some nodes, whose positions ``points`` builds on first
    read from an (..., 4) array or a callable that returns one.  Every
    sample has ``points``, ``factor``, ``flat``, ``lower``, ``apply_j`` and
    ``fields``, and one that is not flat ``christoffel``,
    ``nabla_j_frame`` and ``curvature_frame``.  ``factor`` is exp(2 lam)
    where g = exp(2 lam) delta with the standard J, and None elsewhere."""

    factor = None
    flat = False  # True where the connection, nabla J and the curvature vanish

    def __init__(self, ambient: AmbientManifold, points):
        self.ambient = ambient
        self._points = points

    @cached_property
    def points(self):
        points = self._points
        return np.asarray(points() if callable(points) else points, dtype=float)


class _FlatSample(_Sample):
    """Flat C^2 at any nodes: g is the identity, J is ``STANDARD_J`` and
    the connection, nabla J and the curvature vanish, so no read but
    ``points`` builds node positions."""

    apply_j = staticmethod(_apply_standard_j)
    factor = 1.0
    flat = True

    def lower(self, v):
        return v

    def fields(self):
        return ()


class _GeneralSample(_Sample):
    """Any ambient at the nodes: g and J, each sampled and checked once,
    the connection, taken once when a read first needs it, and the nabla J
    and curvature tensors, taken by the read that needs them."""

    @cached_property
    def g(self):
        return self.ambient.metric_at(self.points)

    @cached_property
    def j(self):
        return self.ambient.j_at(self.points)

    @cached_property
    def gamma(self):
        """Gamma^A_{BC} at the nodes, taken once for every ``christoffel``."""
        return self.ambient.christoffel_at(self.points)

    def fields(self):
        """(name, field) for the metric and J at the nodes, each checked."""
        return ("metric", self.g), ("J", self.j)

    def lower(self, v):
        """g v for every row v[..., k, :], as the row product v @ g."""
        return v @ self.g

    def apply_j(self, v):
        return (self.j @ np.asarray(v)[..., None])[..., 0]

    def christoffel(self, X, Y) -> np.ndarray:
        """Gamma(X, Y)^A = Gamma^A_{BC} X^B Y^C for (..., 4) fields at the nodes."""
        return np.einsum("...abc,...b,...c->...a", self.gamma, X, Y)

    def nabla_j_frame(self, frame, legs) -> np.ndarray:
        """J_{ab,k} = <(nabla_{e_k} J) e_a, e_b>_g, shape (..., k, a, b).

        ``frame`` is (..., 4, 4) with ``frame[..., a, :]`` = e_{a+1}; a and
        b run over the four frame vectors and k over the frame indices
        ``legs``, 0-based.
        """
        S = self.ambient.nabla_j_tensor_at(self.points)  # (..., c, a, b)
        rows = frame[..., list(legs), :]
        shape = rows.shape[:-1] + (4, 4)
        # [k, a, b] = (nabla_{e_k} J)^a_b as one batched (k x 4) @ (4 x 16) product
        dj = (rows @ S.reshape(S.shape[:-3] + (4, 16))).reshape(shape)
        # [k, a, m] = (nabla_{e_k} J)^a_b e_m^b as one (4k x 4) @ (4 x 4) product
        frt = np.swapaxes(frame, -1, -2)
        djm = (dj.reshape(shape[:-3] + (4 * len(legs), 4)) @ frt).reshape(shape)
        # [k, n, m] = <e_n, (nabla_{e_k} J) e_m>_g
        return np.swapaxes((frame @ self.g)[..., None, :, :] @ djm, -1, -2)

    def curvature_frame(self, frame):
        """(K_1213, K_1224) = (K(e1, e2, e1, e3), K(e1, e2, e2, e4)).

        ``frame`` is (..., 4, 4) with ``frame[..., a, :]`` = e_{a+1}.
        """
        K = self.ambient.curvature_at(self.points)
        e1, e2, e3, e4 = (frame[..., a, :] for a in range(4))
        # K(e1, e2, ., .) once, as a 4x4 block per node
        k12 = np.einsum("...abcd,...a->...bcd", K, e1)
        k12 = np.einsum("...bcd,...b->...cd", k12, e2)
        k1213 = np.einsum("...c,...cd,...d->...", e1, k12, e3)
        k1224 = np.einsum("...c,...cd,...d->...", e2, k12, e4)
        return k1213, k1224


class _ConformalSample(_Sample):
    """A conformal ambient at the nodes: exp(2 lam) and grad lam, each
    evaluated and checked once, and the Hessian of lam only where the
    curvature is read.  No 4x4 g or J and no rank-3 or rank-4 tensor is
    built.  In the docstrings below X.Y is the Euclidean dot."""

    apply_j = staticmethod(_apply_standard_j)

    @cached_property
    def factor(self):
        """exp(2 lam), checked as ``ConformalManifold.metric_factor_at`` does."""
        return self.ambient.metric_factor_at(self.points)

    @cached_property
    def grad(self):
        return self.ambient.conformal_gradient(self.points)

    def fields(self):
        """(name, field) for exp(2 lam), checked: the one field that varies."""
        return (("metric", self.factor),)

    def lower(self, v):
        """exp(2 lam) v: for g = exp(2 lam) delta this equals the row product
        v @ g bit for bit (one nonzero term per entry)."""
        return self.factor[..., None, None] * v

    def christoffel(self, X, Y) -> np.ndarray:
        """Gamma(X, Y) = X dlam(Y) + Y dlam(X) - (X.Y) grad lam for (..., 4)
        fields at the nodes, symmetric in X and Y bit for bit.

        dlam(.) and X.Y are elementwise four-term sums: a batched matmul
        of such small blocks costs more than the arithmetic.
        """
        grad = self.grad
        out = X * _dot(Y, grad)[..., None]
        out += Y * _dot(X, grad)[..., None]
        out -= _dot(X, Y)[..., None] * grad
        return out

    def nabla_j_frame(self, frame, legs) -> np.ndarray:
        """J_{ab,k} from the closed form of nabla J for a constant J, with k
        over the frame indices ``legs``: shape (..., k, a, b).

        (nabla_X J) Y = X dlam(JY) - JX dlam(Y) - (X.JY) grad lam
        + (X.Y) J grad lam.  With u_a = dlam(e_a), v_a = dlam(J e_a) and
        the Euclidean Gram blocks M_kb = e_k.e_b, N_kb = (J e_k).e_b,
        J_{ab,k} = exp(2 lam) (v_a M_kb - u_a N_kb - v_b M_ka + u_b N_ka),
        which holds for any frame, orthonormal or not.

        Everything is built component-major, one contiguous node field
        per component, from four-term sums in ``_dot``'s order: no
        per-node 4x4 product is formed.  M is symmetric term by term, and
        N antisymmetric: N_kb is summed for k < b and negated from N_bk
        for k > b, so a row has the bits it has in the table of every leg.
        The table is antisymmetric in (a, b), so only a < b is summed,
        (b, a) is its negation and the diagonal is 0, all exactly.  The
        (k, a, b) axes lead in memory, so each reader's J_{ab,k} slice is
        a contiguous node field.
        """
        factor = self.factor
        grad = np.moveaxis(self.grad, -1, 0)
        # e[c, a] is the node field of e_a^c, component first
        e = np.ascontiguousarray(np.moveaxis(frame, (-1, -2), (0, 1)), dtype=float)
        # J^T grad lam and J e_a for STANDARD_J, component by component
        jgrad = (grad[1], -grad[0], grad[3], -grad[2])
        je = (-e[1], e[0], -e[3], e[2])
        u = factor * _dot_major(e, grad)  # exp(2 lam) dlam(e_a)
        v = factor * _dot_major(e, jgrad)  # exp(2 lam) dlam(J e_a)
        nodes = e.shape[2:]
        M = np.empty((len(legs), 4) + nodes)  # [l, b] = e_k.e_b, k = legs[l]
        N = np.empty((len(legs), 4) + nodes)  # [l, b] = (J e_k).e_b
        for row, k in enumerate(legs):
            M[row] = _dot_major(e[:, k], e)
            np.negative(_dot_major([c[:k] for c in je], e[:, k]), out=N[row, :k])
            N[row, k] = 0.0
            N[row, k + 1:] = _dot_major([c[k] for c in je], e[:, k + 1:])
        table = np.empty((len(legs), 4, 4) + nodes)  # [l, a, b]
        for a in range(4):
            table[:, a, a] = 0.0
            for b in range(a + 1, 4):
                ab = v[a] * M[:, b]
                ab -= u[a] * N[:, b]
                ba = v[b] * M[:, a]
                ba -= u[b] * N[:, a]
                np.subtract(ab, ba, out=table[:, a, b])
                np.negative(table[:, a, b], out=table[:, b, a])
        return np.moveaxis(table, (0, 1, 2), (-3, -2, -1))

    def curvature_frame(self, frame):
        """(K_1213, K_1224) from K(X, Y, Z, W) = -exp(2 lam) (T o delta)(X, Y, Z, W).

        That is the conformal-change formula for exp(2 lam) delta (Besse,
        *Einstein Manifolds*, 1.J) in this module's convention, with
        T = dd lam - dlam dlam + |dlam|^2 delta / 2; it is independent of
        the contraction behind ``curvature_at``.  Expanded,
        (T o delta)(X, Y, Z, W) = T(X, W) Y.Z + T(Y, Z) X.W - T(X, Z) Y.W
        - T(Y, W) X.Z, so only T(e_a, e_b) and e_a.e_b for a in {1, 2}
        are formed.
        """
        grad = self.grad
        top = frame[..., :2, :]
        frt = np.swapaxes(frame, -1, -2)
        M = top @ frt  # e_a.e_b, (..., 2, 4)
        u = (frame @ grad[..., None])[..., 0]  # dlam(e_b)
        # T(e_a, e_b) = e_a.(dd lam e_b) - dlam(e_a) dlam(e_b) + |dlam|^2 e_a.e_b / 2
        T = (top @ self.ambient.conformal_hessian(self.points)) @ frt
        T -= u[..., :2, None] * u[..., None, :]
        T += (0.5 * np.sum(grad**2, axis=-1))[..., None, None] * M
        factor = -self.factor
        k1213 = factor * (
            T[..., 0, 2] * M[..., 1, 0] + T[..., 1, 0] * M[..., 0, 2]
            - T[..., 0, 0] * M[..., 1, 2] - T[..., 1, 2] * M[..., 0, 0]
        )
        k1224 = factor * (
            T[..., 0, 3] * M[..., 1, 1] + T[..., 1, 1] * M[..., 0, 3]
            - T[..., 0, 1] * M[..., 1, 3] - T[..., 1, 3] * M[..., 0, 1]
        )
        return k1213, k1224
