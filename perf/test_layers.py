"""Layer timings with pytest-benchmark, outside the Tier-1 suite.

The first group runs at 64x64 on ``perturbed_graph(0.5, 0.05)`` in the
flat ambient, the surface size of the first-variation check; the check
also runs in the conformal ambient.  The ``_n32`` group runs the
periodic stencils and one descent step at 32x32, the grid of the
benchmark's descent workload, on the criterion-8 surface.  The
``_n128`` group runs the functional, frame, second-fundamental-form,
covariant-J, curvature, critical operator, cyclic-condition and
Laplacian-identity layers at 128x128, the finest level of the
refinement studies, in the flat and the conformal ambient.  Run from
the root of a checkout, with BLAS on one thread as in ``bench/``:

    OPENBLAS_NUM_THREADS=1 python -m pytest perf --benchmark-json=layers.json

``testpaths`` in ``pyproject.toml`` keeps a bare ``pytest`` from
collecting this directory.  Cached properties are timed on a fresh
geometry whose inputs (named in each test) are already computed, so a
round times that property alone; the functional, the critical operator
and the first-variation check build their geometry inside the round, as
their callers do.
"""

import numpy as np
import pytest

from symcrit.ambient import conformal, euclidean_c2
from symcrit.flow import flow_step
from symcrit.functional import el_operator, l_beta
from symcrit.surface import (
    SurfaceGeometry,
    periodic_d1,
    periodic_d2,
    perturbed_graph,
    perturbed_holomorphic_graph,
)
from symcrit.verify import (
    condition_cyclic_residuals,
    laplacian_identity_terms,
    verify_first_variation,
)

N = 64
BETA = 1.0
ROUNDS = 200
EUC = euclidean_c2()
SURFACE = perturbed_graph(0.5, 0.05, n_theta=N, n_phi=N)

N_COARSE = 32
ROUNDS_COARSE = 500
SURFACE_COARSE = perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=N_COARSE,
                                             n_phi=N_COARSE)

N_FINE = 128
ROUNDS_FINE = 20
SURFACE_FINE = perturbed_graph(0.5, 0.05, n_theta=N_FINE, n_phi=N_FINE)
AMBIENTS = {"flat": EUC, "conformal": conformal("0.1*sin(p1) + 0.05*cos(p2)")}


def prebuilt(*names, surface=SURFACE, ambient=EUC):
    """``benchmark.pedantic`` set-up: a fresh geometry with ``names`` read."""

    def setup():
        G = SurfaceGeometry(surface, ambient)
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


def test_verify_first_variation_conformal(benchmark):
    # fails by design at beta > 0 off Kahler ambients; timed all the same
    report = benchmark(verify_first_variation, SURFACE, AMBIENTS["conformal"], BETA)
    assert report.values


@pytest.mark.parametrize("stencil", [periodic_d1, periodic_d2], ids=["d1", "d2"])
@pytest.mark.parametrize("axis", [0, 1], ids=["theta", "phi"])
def test_periodic_stencil_n32(benchmark, stencil, axis):
    field = SURFACE_COARSE.periodic_part
    out = benchmark.pedantic(stencil, (field, axis, SURFACE_COARSE.h_theta),
                             rounds=ROUNDS_COARSE)
    assert out.shape == field.shape


def test_flow_step_n32(benchmark):
    new, state = benchmark.pedantic(flow_step, (SURFACE_COARSE, EUC, BETA),
                                    rounds=ROUNDS_COARSE)
    assert state.tau > 0 and not np.array_equal(new.periodic_part,
                                                SURFACE_COARSE.periodic_part)


FINE_LAYERS = {
    # cached property: the inputs read before the round
    "adapted_frame": (),
    "second_fundamental": ("adapted_frame", "accel", "amb_g", "frame_coeff"),
    "nabla_j_frame": ("frame_matrix", "amb_g", "pos"),
    "curvature_frame_components": ("adapted_frame", "pos"),
}


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
@pytest.mark.parametrize("layer", sorted(FINE_LAYERS))
def test_geometry_property_n128(benchmark, layer, ambient):
    setup = prebuilt(*FINE_LAYERS[layer], surface=SURFACE_FINE,
                     ambient=AMBIENTS[ambient])
    value = benchmark.pedantic(
        lambda G: getattr(G, layer), setup=setup, rounds=ROUNDS_FINE
    )
    assert value is not None


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_l_beta_fresh_geometry_n128(benchmark, ambient):
    value = benchmark.pedantic(
        l_beta, (SURFACE_FINE, AMBIENTS[ambient], BETA), rounds=ROUNDS_FINE
    )
    assert value > 0


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_condition_cyclic_residuals_fresh_geometry_n128(benchmark, ambient):
    def run():
        return condition_cyclic_residuals(SurfaceGeometry(SURFACE_FINE, AMBIENTS[ambient]))

    c3, _ = benchmark.pedantic(run, rounds=ROUNDS_FINE)
    assert c3.shape == (N_FINE, N_FINE)


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_el_operator_fresh_geometry_n128(benchmark, ambient):
    el = benchmark.pedantic(
        el_operator, (SURFACE_FINE, AMBIENTS[ambient], BETA), rounds=ROUNDS_FINE
    )
    assert el.norm_linf > 0


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_laplacian_identity_terms_fresh_geometry_n128(benchmark, ambient):
    def run():
        G = SurfaceGeometry(SURFACE_FINE, AMBIENTS[ambient])
        return laplacian_identity_terms(G)["residual"]

    residual = benchmark.pedantic(run, rounds=ROUNDS_FINE)
    assert residual.shape == (N_FINE, N_FINE)
