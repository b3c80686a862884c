"""Layer timings with pytest-benchmark, outside the Tier-1 suite.

The first group runs at 64x64 on ``perturbed_graph(0.5, 0.05)`` in the
flat ambient, the surface size of the first-variation check; the check
also runs in the conformal ambient, and so does the covariant-J table
``nabla_j_frame``, its rows along e1 and e2 (64x64 is also the middle
refinement level).  The
``_n32`` group runs the periodic stencils, the geometry's parametric
partials (``_second_partials`` on a fresh geometry, which takes the
first partials too: all five partials of P), g^ij W_ij
(``_raw_mean_curvature``, the inverse metric entries and the W_ij
fields prebuilt), one descent step (``run_flow`` with a budget of one
iteration), the whole descent to ``res_tol`` 1e-3 (its iteration count
in ``extra_info["iterations"]``, so time per iteration is the time over
it), the functional and the
critical operator (fresh geometry; the functional on a fresh geometry
is what the line search pays per candidate), ``apply_j`` and the
normal projection ``project_normal`` at 32x32, the grid of the
benchmark's descent workload, on the criterion-8 surface; the
projection runs on a fresh geometry that ``l_beta`` has already read
(cos(alpha) and the area element), as a descent step has it, and
``apply_j`` and ``project_normal`` take a fixed random chart vector
field.  The
``_n128`` group runs the functional, frame, parametric partials, W_ij fields,
second-fundamental-form, g^ij W_ij, mean-curvature-derivative, covariant-J,
curvature, critical operator, cyclic-condition (residuals and the whole
check with its d(omega) oracle) and Laplacian-identity layers at
128x128, the finest level of the refinement studies, in the flat and
the conformal ambient; the whole gradient and Laplacian refinement
studies run over levels 32, 64 and 128 in both ambients, and the
conformal curvature tensor ``curvature_at``, the conformal sample's
pairwise connection ``christoffel`` on the pair (F_theta, F_phi) of W_01
and on the pair (e1, H) of the covariant derivative of the mean
curvature (grad lam sampled before the rounds, as a geometry samples it
once) and the lowered tangents ``_coordinate_covectors`` (fresh geometry: the
metric factor is sampled in the round) at 128x128.  The set-up group
builds the inputs every check pays for: ``perturbed_graph`` and
``ImmersedSurface.positions`` at 128x128, and ``conformal`` parsing
its exponent after ``sympy.core.cache.clear_cache()``, as the first
parse in a fresh process does.  Run from the root
of a checkout, with BLAS on one thread as in ``bench/``:

    OPENBLAS_NUM_THREADS=1 python -m pytest perf --benchmark-json=layers.json

``testpaths`` in ``pyproject.toml`` keeps a bare ``pytest`` from
collecting this directory.  Cached properties are timed on a fresh
geometry whose inputs (named in each test) are already computed, so a
round times that property alone.  A dotted input is a field of the
geometry's ambient sample (``_sample.factor``, exp(2 lam) of the
conformal sample; ``_sample.grad``, its grad lam; ``_sample.points``,
the node positions every sample builds on first read); an input that a
geometry or its sample does not have is skipped, so the flat ambient,
whose sample holds no field, pre-reads only the positions, which no
flat layer reads.
The functional, the critical operator,
the cyclic check and the first-variation check build their geometry
inside the round, as their callers do.
"""

import numpy as np
import pytest
import sympy

from symcrit.ambient import conformal, euclidean_c2
from symcrit.flow import run_flow
from symcrit.functional import el_operator, l_beta
from symcrit.surface import (
    SurfaceGeometry,
    periodic_d1,
    periodic_d2,
    perturbed_graph,
    perturbed_holomorphic_graph,
)
from symcrit.verify import (
    check_condition_cyclic,
    condition_cyclic_residuals,
    laplacian_identity_terms,
    verify_first_variation,
    verify_gradient_identities,
    verify_laplacian_identity,
)

N = 64
BETA = 1.0
ROUNDS = 200
EUC = euclidean_c2()
SURFACE = perturbed_graph(0.5, 0.05, n_theta=N, n_phi=N)

N_COARSE = 32
ROUNDS_COARSE = 500
ROUNDS_DESCENT = 10
SURFACE_COARSE = perturbed_holomorphic_graph(0.3, -0.2, 0.05, n_theta=N_COARSE,
                                             n_phi=N_COARSE)
FIELD_COARSE = np.random.default_rng(5).standard_normal((N_COARSE, N_COARSE, 4))

N_FINE = 128
ROUNDS_FINE = 20
SURFACE_FINE = perturbed_graph(0.5, 0.05, n_theta=N_FINE, n_phi=N_FINE)
CONFORMAL = "0.1*sin(p1) + 0.05*cos(p2)"
AMBIENTS = {"flat": EUC, "conformal": conformal(CONFORMAL)}
LADDER = [perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n) for n in (32, 64)] + [SURFACE_FINE]


def prebuilt(*names, surface=SURFACE, ambient=EUC):
    """``benchmark.pedantic`` set-up: a fresh geometry with ``names`` read;
    a dotted name reads along the path, up to the first attribute that the
    object's class lacks."""

    def setup():
        G = SurfaceGeometry(surface, ambient)
        for name in names:
            obj = G
            for attr in name.split("."):
                if not hasattr(type(obj), attr):
                    break
                obj = getattr(obj, attr)
        return (G,), {}

    return setup


@pytest.mark.parametrize(
    "layer, inputs",
    [
        ("_metric_entries", ("fth", "fph")),
        ("cos_alpha", ("fth", "fph", "sqrt_det")),
    ],
    ids=["_metric_entries", "cos_alpha"],
)
def test_geometry_property(benchmark, layer, inputs):
    value = benchmark.pedantic(
        lambda G: getattr(G, layer), setup=prebuilt(*inputs), rounds=ROUNDS
    )
    assert np.shape(value)[-2:] == (N, N)


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


def test_conformal_nabla_j_frame(benchmark):
    setup = prebuilt("adapted_frame", "_sample.grad", ambient=AMBIENTS["conformal"])
    value = benchmark.pedantic(lambda G: G.nabla_j_frame, setup=setup, rounds=ROUNDS)
    assert value.shape == (N, N, 2, 4, 4)


@pytest.mark.parametrize("stencil", [periodic_d1, periodic_d2], ids=["d1", "d2"])
@pytest.mark.parametrize("axis", [0, 1], ids=["theta", "phi"])
def test_periodic_stencil_n32(benchmark, stencil, axis):
    field = SURFACE_COARSE.periodic_part
    out = benchmark.pedantic(stencil, (field, axis, SURFACE_COARSE.h_theta),
                             rounds=ROUNDS_COARSE)
    assert out.shape == field.shape


def test_geometry_partials_n32(benchmark):
    value = benchmark.pedantic(lambda G: G._second_partials,
                               setup=prebuilt(surface=SURFACE_COARSE), rounds=ROUNDS_COARSE)
    assert len(value) == 3


def test_raw_mean_curvature_n32(benchmark):
    setup = prebuilt("_inverse_entries", "_accel_entries", surface=SURFACE_COARSE)
    value = benchmark.pedantic(lambda G: G._raw_mean_curvature, setup=setup,
                               rounds=ROUNDS_COARSE)
    assert value.shape == (N_COARSE, N_COARSE, 4)


def test_run_flow_to_res_tol_n32(benchmark):
    res = benchmark.pedantic(run_flow, (SURFACE_COARSE, EUC, BETA),
                             {"res_tol": 1e-3, "max_iterations": 4000},
                             rounds=ROUNDS_DESCENT)
    benchmark.extra_info["iterations"] = res.iterations
    assert res.converged


def test_run_flow_one_step_n32(benchmark):
    res = benchmark.pedantic(run_flow, (SURFACE_COARSE, EUC, BETA),
                             {"max_iterations": 1, "res_tol": 0.0},
                             rounds=ROUNDS_COARSE)
    assert res.iterations == 1 and res.states[0].tau > 0


def test_l_beta_fresh_geometry_n32(benchmark):
    value = benchmark.pedantic(l_beta, (SURFACE_COARSE, EUC, BETA), rounds=ROUNDS_COARSE)
    assert value > 0


def test_apply_j_n32(benchmark):
    G = SurfaceGeometry(SURFACE_COARSE, EUC)
    value = benchmark.pedantic(G.apply_j, (FIELD_COARSE,), rounds=ROUNDS_COARSE)
    assert value.shape == FIELD_COARSE.shape


def test_el_operator_fresh_geometry_n32(benchmark):
    el = benchmark.pedantic(el_operator, (SURFACE_COARSE, EUC, BETA),
                            rounds=ROUNDS_COARSE)
    assert el.norm_linf > 0


@pytest.mark.parametrize(
    "layer", [lambda G: G.project_normal(FIELD_COARSE)], ids=["project_normal"]
)
def test_normal_projection_n32(benchmark, layer):
    setup = prebuilt("cos_alpha", "sqrt_det", surface=SURFACE_COARSE)
    value = benchmark.pedantic(layer, setup=setup, rounds=ROUNDS_COARSE)
    assert value.shape == (N_COARSE, N_COARSE, 4)


FINE_LAYERS = {
    # cached property: the inputs read before the round
    "adapted_frame": (),
    "_second_partials": (),
    "_accel_entries": ("fth", "fph", "_sample.points"),
    "second_fundamental": ("adapted_frame", "_accel_entries", "_sample.factor"),
    "_raw_mean_curvature": ("_inverse_entries", "_accel_entries"),
    "mean_curvature_normal_derivative": (
        "mean_curvature", "adapted_frame", "_sample.factor", "_sample.grad",
    ),
    "nabla_j_frame": ("adapted_frame", "_sample.grad"),
    "curvature_frame_components": ("adapted_frame", "_sample.grad"),
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
def test_check_condition_cyclic_n128(benchmark, ambient):
    report = benchmark.pedantic(
        check_condition_cyclic, (SURFACE_FINE, AMBIENTS[ambient]), rounds=ROUNDS_FINE
    )
    assert report.passed


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


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_verify_laplacian_identity_n128(benchmark, ambient):
    report = benchmark.pedantic(
        verify_laplacian_identity, (LADDER, AMBIENTS[ambient]), rounds=ROUNDS_FINE
    )
    assert report.passed


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_verify_gradient_identities_n128(benchmark, ambient):
    report = benchmark.pedantic(
        verify_gradient_identities, (LADDER, AMBIENTS[ambient]), rounds=ROUNDS_FINE
    )
    assert report.passed


def test_conformal_curvature_at_n128(benchmark):
    pos = SURFACE_FINE.positions()
    K = benchmark.pedantic(AMBIENTS["conformal"].curvature_at, (pos,), rounds=ROUNDS_FINE)
    assert K.shape == (N_FINE, N_FINE, 4, 4, 4, 4)


def _conformal_christoffel_args():
    """The pairs a conformal geometry forms at 128x128: (F_i, F_j) for W_ij
    and (e_a, H) for the covariant derivative of H."""
    G = SurfaceGeometry(SURFACE_FINE, AMBIENTS["conformal"])
    frame, H = G.adapted_frame.matrix, G.mean_curvature
    return G._sample, {
        "F_theta-F_phi": (G.fth, G.fph),
        "e1-H": (frame[..., 0, :], H),
    }


@pytest.mark.parametrize("pair", ["F_theta-F_phi", "e1-H"])
def test_conformal_christoffel_n128(benchmark, pair):
    sample, args = _conformal_christoffel_args()
    sample.grad
    gamma = benchmark.pedantic(sample.christoffel, args[pair], rounds=ROUNDS_FINE)
    assert gamma.shape == (N_FINE, N_FINE, 4)


def test_conformal_coordinate_covectors_fresh_geometry_n128(benchmark):
    setup = prebuilt("fth", "fph", "_sample.points", surface=SURFACE_FINE,
                     ambient=AMBIENTS["conformal"])
    gth, _ = benchmark.pedantic(lambda G: G._coordinate_covectors, setup=setup,
                                rounds=ROUNDS_FINE)
    assert gth.shape == (N_FINE, N_FINE, 4)


def test_perturbed_graph_n128(benchmark):
    S = benchmark.pedantic(perturbed_graph, (0.5, 0.05),
                           {"n_theta": N_FINE, "n_phi": N_FINE}, rounds=ROUNDS_FINE)
    assert S.periodic_part.shape == (N_FINE, N_FINE, 4)


def test_positions_n128(benchmark):
    pos = benchmark.pedantic(SURFACE_FINE.positions, rounds=ROUNDS_FINE)
    assert pos.shape == (N_FINE, N_FINE, 4)


def test_conformal_parse_cold_cache(benchmark):
    def setup():
        sympy.core.cache.clear_cache()
        return (CONFORMAL,), {}

    ambient = benchmark.pedantic(conformal, setup=setup, rounds=ROUNDS_FINE)
    assert ambient.name == f"conformal({CONFORMAL})"
