"""Layer timings with pytest-benchmark, outside the Tier-1 suite.

Every layer runs at 64x64 on ``perturbed_graph(0.5, 0.05)`` in the flat
ambient, the surface size of the first-variation check.  Run from the
root of a checkout, with BLAS on one thread as in ``bench/``:

    OPENBLAS_NUM_THREADS=1 python -m pytest perf --benchmark-json=layers.json

``testpaths`` in ``pyproject.toml`` keeps a bare ``pytest`` from
collecting this directory.  Cached properties are timed on a fresh
geometry whose inputs (named in each test) are already computed, so a
round times that property alone; the functional, the critical operator
and the first-variation check build their geometry inside the round, as
their callers do.
"""

import pytest

from symcrit.ambient import euclidean_c2
from symcrit.functional import el_operator, l_beta
from symcrit.surface import SurfaceGeometry, perturbed_graph
from symcrit.verify import verify_first_variation

N = 64
BETA = 1.0
ROUNDS = 200
EUC = euclidean_c2()
SURFACE = perturbed_graph(0.5, 0.05, n_theta=N, n_phi=N)


def prebuilt(*names):
    """``benchmark.pedantic`` set-up: a fresh geometry with ``names`` read."""

    def setup():
        G = SurfaceGeometry(SURFACE, EUC)
        for name in names:
            getattr(G, name)
        return (G,), {}

    return setup


@pytest.mark.parametrize(
    "layer, inputs",
    [
        ("induced_metric", ("fth", "fph", "_euclid_dot")),
        ("cos_alpha", ("fth", "fph", "sqrt_det")),
    ],
    ids=["induced_metric", "cos_alpha"],
)
def test_geometry_property(benchmark, layer, inputs):
    value = benchmark.pedantic(
        lambda G: getattr(G, layer), setup=prebuilt(*inputs), rounds=ROUNDS
    )
    assert value.shape[:2] == (N, N)


def test_l_beta_fresh_geometry(benchmark):
    assert benchmark(l_beta, SURFACE, EUC, BETA) > 0


def test_el_operator_fresh_geometry(benchmark):
    assert benchmark(el_operator, SURFACE, EUC, BETA).norm_linf > 0


def test_verify_first_variation(benchmark):
    assert benchmark(verify_first_variation, SURFACE, EUC, BETA).passed
