"""The benchmark workloads: inputs from a seed, one operation, its check.

A seed gives ``DRAWS`` parameter sets; operation ``k`` of a phase uses
set ``k % DRAWS``, so one run averages over several inputs and two
seeds differ less than two single draws would.  Each workload is built
by its constructor (the set-up: ambients, surfaces for every draw, a
short warm-up), runs operation ``k`` with ``run(k)`` and judges its
output with ``check``, which returns a list of problems (empty when
the output is correct).  ``digest`` condenses an output to a hash so
that operations on the same input, traced or not, can be required to
agree bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
from types import SimpleNamespace

LAYERS = ("ambient", "surface", "functional", "flow", "verify")

# Seed 0 reproduces the acceptance-gate parameters exactly.
GATE = {"a": 0.3, "b": -0.2, "eps": 0.05, "c": 0.5}
CONFORMAL = "0.1*sin(p1) + 0.05*cos(p2)"


DRAWS = 6


def parameters(seed: int) -> list:
    """``DRAWS`` surface parameter sets for a seed: a, b, c within +-0.05
    of the gate values and eps in [0.04, 0.06], ranges on which every
    check passes.  Seed 0 repeats the gate parameters."""
    if seed == 0:
        return [dict(GATE) for _ in range(DRAWS)]
    rng = random.Random(seed)
    return [
        {
            "a": GATE["a"] + rng.uniform(-0.05, 0.05),
            "b": GATE["b"] + rng.uniform(-0.05, 0.05),
            "eps": rng.uniform(0.04, 0.06),
            "c": GATE["c"] + rng.uniform(-0.05, 0.05),
        }
        for _ in range(DRAWS)
    ]


def import_symcrit() -> SimpleNamespace:
    """Import the layer modules afresh, as a new process would.

    Modules already loaded are dropped first so that every set-up pays
    for executing the package; numpy and sympy stay loaded after the
    first set-up.
    """
    for name in [m for m in sys.modules if m == "symcrit" or m.startswith("symcrit.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"symcrit.{layer}") for layer in LAYERS}
    )


def _hash_reports(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(rep.to_text().encode())
    return h.hexdigest()


class Descent:
    """beta=1 descent flow to res_tol 1e-3 on a perturbed holomorphic graph."""

    N = 32
    BETA = 1.0
    RES_TOL = 1e-3
    MAX_ITERATIONS = 4000
    WARMUP_ITERATIONS = 5

    def __init__(self, sc, draws):
        self.sc = sc
        self.ambient = sc.ambient.euclidean_c2()
        self.inputs = [
            sc.surface.perturbed_holomorphic_graph(
                p["a"], p["b"], eps=p["eps"], n_theta=self.N, n_phi=self.N
            )
            for p in draws
        ]
        sc.flow.run_flow(self.inputs[0], self.ambient, self.BETA,
                         res_tol=self.RES_TOL,
                         max_iterations=self.WARMUP_ITERATIONS)

    def run(self, k):
        return self.sc.flow.run_flow(
            self.inputs[k % len(self.inputs)], self.ambient, self.BETA,
            res_tol=self.RES_TOL, max_iterations=self.MAX_ITERATIONS,
        )

    def check(self, result) -> list:
        """Criterion 8: converged, monotone L_beta, terminal identity."""
        problems = []
        if not result.converged:
            problems.append(f"not converged after {result.iterations} iterations")
        ls = [s.l_beta for s in result.states]
        if any(b > a for a, b in zip(ls, ls[1:])):
            problems.append("L_beta increased along the flow")
        final = result.surface
        bound = 10.0 * (result.states[-1].res_linf + final.h_theta**2)
        rep = self.sc.verify.verify_critical_identity(
            final, self.ambient, self.BETA, sin_alpha_min=1e-4, resid_tol=bound
        )
        if not rep.passed:
            problems.append(f"terminal critical identity {rep.status}")
        return problems

    def digest(self, result) -> str:
        h = hashlib.sha256(result.surface.periodic_part.tobytes())
        for s in result.states:
            h.update(repr((s.iteration, s.l_beta, s.res_l2, s.res_linf,
                           s.min_cos_alpha, s.tau)).encode())
        return h.hexdigest()


class Refine:
    """Laplacian and gradient identity refinement studies, both ambients."""

    LEVELS = (32, 64, 128)

    def __init__(self, sc, draws):
        import sympy

        self.sc = sc
        # An empty sympy cache makes every set-up pay the full parse, as
        # the first one in a fresh process does.
        sympy.core.cache.clear_cache()
        self.ambients = (sc.ambient.euclidean_c2(), sc.ambient.conformal(CONFORMAL))
        self.inputs = [
            [sc.surface.perturbed_graph(p["c"], p["eps"], n_theta=n, n_phi=n)
             for n in self.LEVELS]
            for p in draws
        ]
        for amb in self.ambients:
            sc.verify.verify_laplacian_identity(self.inputs[0][:1], amb)
            sc.verify.verify_gradient_identities(self.inputs[0][:1], amb)

    def run(self, k):
        V = self.sc.verify
        surfaces = self.inputs[k % len(self.inputs)]
        reports = []
        for amb in self.ambients:
            reports.append(V.verify_laplacian_identity(surfaces, amb))
            reports.append(V.verify_gradient_identities(surfaces, amb))
        return reports

    def check(self, reports) -> list:
        """Criteria 3 and 4: every report passes, flat J-terms vanish."""
        problems = [
            f"{r.check} on {r.ambient}: {r.status}" for r in reports if not r.passed
        ]
        if not reports[0].values["max_j_term"] < 1e-12:
            problems.append(f"flat max_j_term {reports[0].values['max_j_term']:.3e}")
        return problems

    def digest(self, reports) -> str:
        return _hash_reports(reports)


class Variation:
    """First variation against difference quotients, flat ambient, 64x64."""

    N = 64
    BETAS = (0.0, 1.0, 2.0)
    DELTA = 1e-4

    def __init__(self, sc, draws):
        self.sc = sc
        self.ambient = sc.ambient.euclidean_c2()
        S = sc.surface
        self.inputs = [
            (S.perturbed_graph(p["c"], p["eps"], n_theta=self.N, n_phi=self.N),
             S.holomorphic_graph(p["a"], p["b"], n_theta=self.N, n_phi=self.N))
            for p in draws
        ]
        for surface in self.inputs[0]:
            for beta in self.BETAS:
                sc.functional.l_beta(surface, self.ambient, beta)

    def run(self, k):
        V = self.sc.verify
        return [
            V.verify_first_variation(surface, self.ambient, beta, delta=self.DELTA)
            for surface in self.inputs[k % len(self.inputs)]
            for beta in self.BETAS
        ]

    def check(self, reports) -> list:
        """Criterion 2: every report passes."""
        return [
            f"{r.check} beta={r.beta:g}: {r.status}" for r in reports if not r.passed
        ]

    def digest(self, reports) -> str:
        return _hash_reports(reports)


WORKLOADS = {"descent": Descent, "refine": Refine, "variation": Variation}
