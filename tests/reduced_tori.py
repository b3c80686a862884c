"""Exact critical tori of ``reference.KAHLER_PRODUCT`` at any beta, by
symmetry reduction.

KAHLER_PRODUCT depends on p1 alone, so translation along the phi winding
F_phi = (0, 1, 0, -c) of ``zbar_graph(c)`` is an isometry that preserves
J, and a torus that it maps onto itself is critical for L_beta when it is
critical among such tori (Palais, Comm. Math. Phys. 69, 1979).  Those
tori have the periodic part (0, 0, u(theta), v(theta)), so
F_theta = (1, 0, c + p, q) with p = u' and q = v', and L_beta is the
integral over theta of 2 pi l(theta, p, q), l = Omega^-beta D^((1+beta)/2),
Omega = <J F_theta, F_phi>_g and D the Gram determinant.  l sees u and v
only through p and q, so the Euler-Lagrange equation integrates once to
dl/d(p, q) = (A, B), a constant pair, and (A, B) is the one for which p
and q have mean 0, which keeps u and v periodic.

The solver takes dl/d(p, q) and its 2x2 Jacobian from sympy, solves
dl/d(p, q) = (A, B) by Newton node by node at M nodes, and finds (A, B)
by an outer Newton iteration on (mean p, mean q), whose Jacobian is the
mean of the node Jacobians' inverses (dp/d(A, B) is the inverse of
d^2 l/d(p, q)^2).  u and v are the Fourier integrals of p and q,
evaluated at the grid's theta nodes.
"""

import functools

import numpy as np
import sympy as sp

from symcrit.ambient import STANDARD_J
from symcrit.surface import ImmersedSurface, zbar_graph

C = 0.5  # the winding of zbar_graph(C)
M = 128  # nodes of the node-by-node solve and of the integral of l
STEP_TOL = 1e-14  # Newton steps and means below this count as converged
MAX_STEPS = 50


@functools.cache
def _lagrangian():
    """l and the entries of its gradient and Jacobian in (p, q), each a
    numpy callable of (theta, p, q, beta)."""
    th, p, q, beta = sp.symbols("theta p q beta", real=True)
    a = 1 + sp.Rational(3, 10) * sp.cos(th)  # the metric of reference._product_metric
    g = sp.diag(a, a, 1, 1)
    J = sp.Matrix(STANDARD_J.astype(int))
    c = sp.Rational(C)
    fth = sp.Matrix([1, 0, c + p, q])
    fph = sp.Matrix([0, 1, 0, -c])
    omega = ((J * fth).T * g * fph)[0, 0]
    D = (fth.T * g * fth)[0, 0] * (fph.T * g * fph)[0, 0] - (fth.T * g * fph)[0, 0] ** 2
    ell = omega ** (-beta) * D ** ((1 + beta) / 2)
    lp, lq = sp.diff(ell, p), sp.diff(ell, q)
    exprs = (ell, lp, lq, sp.diff(lp, p), sp.diff(lp, q), sp.diff(lq, q))
    return tuple(sp.lambdify((th, p, q, beta), e, "numpy") for e in exprs)


def _nodes(n):
    return np.arange(n) * (2.0 * np.pi / n)


def _solve_nodes(A, B, beta, p, q):
    """(p, q) with dl/d(p, q) = (A, B) at every node, by Newton from the
    given (p, q), and the Jacobian (lpp, lpq, lqq) there."""
    _, lp, lq, lpp, lpq, lqq = _lagrangian()
    th = _nodes(M)
    for _ in range(MAX_STEPS):
        hpp, hpq, hqq = lpp(th, p, q, beta), lpq(th, p, q, beta), lqq(th, p, q, beta)
        rp, rq = lp(th, p, q, beta) - A, lq(th, p, q, beta) - B
        det = hpp * hqq - hpq**2
        dp, dq = (hqq * rp - hpq * rq) / det, (hpp * rq - hpq * rp) / det
        p, q = p - dp, q - dq
        if max(np.max(np.abs(dp)), np.max(np.abs(dq))) < STEP_TOL:
            return p, q, (hpp, hpq, hqq)
    raise RuntimeError(f"node Newton did not converge at beta {beta}")


@functools.cache
def _solution(beta):
    """(p, q) at the M nodes and the reduced L_beta."""
    ell, lp, lq = _lagrangian()[:3]
    th = _nodes(M)
    p = q = np.zeros(M)
    A, B = float(np.mean(lp(th, p, q, beta))), float(np.mean(lq(th, p, q, beta)))
    for _ in range(MAX_STEPS):
        p, q, (hpp, hpq, hqq) = _solve_nodes(A, B, beta, p, q)
        mp, mq = float(np.mean(p)), float(np.mean(q))
        if max(abs(mp), abs(mq)) < STEP_TOL:
            return p, q, 4.0 * np.pi**2 * float(np.mean(ell(th, p, q, beta)))
        det = hpp * hqq - hpq**2
        jac = np.array([[np.mean(hqq / det), np.mean(-hpq / det)],
                        [np.mean(-hpq / det), np.mean(hpp / det)]])
        dA, dB = np.linalg.solve(jac, [mp, mq])
        A, B = A - dA, B - dB
    raise RuntimeError(f"(A, B) Newton did not converge at beta {beta}")


def _antiderivative(f, theta):
    """The mean-free periodic antiderivative of the mean-free samples f at
    the M nodes, as a Fourier sum at ``theta``; the Nyquist mode is
    dropped."""
    k = np.arange(1, M // 2)
    coef = np.fft.rfft(f)[1:M // 2] / (M * 1j * k)
    return 2.0 * np.real(np.exp(1j * np.outer(theta, k)) @ coef)


def kahler_torus(beta, n):
    """The exact critical torus of KAHLER_PRODUCT at ``beta`` on the n x n
    grid, and its reduced L_beta, 4 pi^2 times the mean of l at the M
    nodes."""
    p, q, L = _solution(float(beta))
    base = zbar_graph(C, n_theta=n, n_phi=n)
    th = _nodes(n)
    P = np.zeros((n, n, 4))
    P[..., 2] = _antiderivative(p, th)[:, None]
    P[..., 3] = _antiderivative(q, th)[:, None]
    return ImmersedSurface(base.linear_part, P), L
