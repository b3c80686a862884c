"""Tests for the descent flow and its line search."""

import numpy as np
import pytest

from symcrit import flow
from symcrit.ambient import euclidean_c2
from symcrit.errors import FlowStalled, NotSymplectic
from symcrit.flow import FlowState, run_flow, stable_step, write_trace
from symcrit.functional import COS_FLOOR, ELField, el_operator, l_beta
from symcrit.surface import (
    SurfaceGeometry,
    holomorphic_graph,
    lagrangian_torus,
    perturbed_graph,
    perturbed_holomorphic_graph,
    zbar_graph,
)

EUC = euclidean_c2()


def small_case(n=24, eps=0.05):
    return perturbed_holomorphic_graph(0.3, -0.2, eps=eps, n_theta=n, n_phi=n)


def one_step(S, beta):
    """One descent step: a budget of one iteration and no residual target."""
    return run_flow(S, EUC, beta, max_iterations=1, res_tol=0.0)


def test_stationary_surface_short_circuits():
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    res = one_step(S, 1.0)
    assert res.surface is S
    assert res.stop_reason == "stationary"
    assert res.states[0].tau == 0.0
    assert res.states[0].res_linf < 1e-14


def test_critical_input_converges_without_stepping():
    S = zbar_graph(0.5, n_theta=16, n_phi=16)
    res = run_flow(S, EUC, 1.0, max_iterations=10, res_tol=1e-3)
    assert res.converged
    assert res.iterations == 0
    assert np.array_equal(res.surface.periodic_part, S.periodic_part)


def test_step_decreases_functional():
    S = small_case()
    before = l_beta(S, EUC, 1.0)
    res = one_step(S, 1.0)
    after = l_beta(res.surface, EUC, 1.0)
    assert res.iterations == 1
    assert after < before
    assert res.states[0].tau > 0


def test_beta_zero_velocity_is_mean_curvature():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    G = SurfaceGeometry(S, EUC)
    res = one_step(S, 0.0)
    moved = (res.surface.periodic_part - S.periodic_part) / res.states[0].tau
    assert np.max(np.abs(moved - G.mean_curvature)) < 1e-12


def test_flow_monotone_and_converges():
    S = small_case()
    res = run_flow(S, EUC, 1.0, max_iterations=600, res_tol=2e-3)
    assert res.converged
    ls = [s.l_beta for s in res.states]
    assert all(b < a for a, b in zip(ls, ls[1:]))
    assert res.states[-1].res_linf <= 2e-3
    assert res.states[-1].min_cos_alpha > res.states[0].min_cos_alpha


def test_step_size_stays_within_stability_cap():
    S = small_case()
    res = run_flow(S, EUC, 1.0, max_iterations=30, res_tol=1e-12)
    G = SurfaceGeometry(res.surface, EUC)
    cap = stable_step(G, 1.0)
    taus = [s.tau for s in res.states if s.tau > 0]
    assert taus
    assert max(taus) <= cap * 1.05


def start_line_search_at(monkeypatch, tau):
    """Make every step backtrack from ``tau`` instead of the stability cap."""
    monkeypatch.setattr(flow, "stable_step", lambda G, beta: tau)


def test_stalled_line_search_raises(monkeypatch):
    S = small_case(n=16)
    start_line_search_at(monkeypatch, 1e-13)
    with pytest.raises(FlowStalled):
        one_step(S, 1.0)


def test_cap_below_tau_min_raises_before_any_candidate(monkeypatch):
    """cos(alpha) reaches 0.103 on this graph, so at beta = 50 the cap
    cos^-beta scales down is about 2e-51: the flow names it and tries
    no candidate."""
    seen = record_l_beta(monkeypatch)
    S = perturbed_graph(0.9, 0.05, n_theta=16, n_phi=16)
    with pytest.raises(FlowStalled, match=r"stable step cap tau = \S+e-51 at "
                       r"beta = 50 is below TAU_MIN = 1e-12: no step was tried"):
        one_step(S, 50.0)
    assert len(seen) == 1  # the start surface's L_beta alone


def test_line_search_rejecting_every_candidate_falls_below_tau_min(monkeypatch):
    """A cap above TAU_MIN whose every candidate is refused halves down
    to TAU_MIN and reads "fell below"."""
    calls = []

    def refuse_candidates(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise NotSymplectic("refused for the test")
        return l_beta(*args, **kwargs)

    monkeypatch.setattr(flow, "l_beta", refuse_candidates)
    start_line_search_at(monkeypatch, 1e-3)
    with pytest.raises(FlowStalled, match="fell below tau = 1e-12 without descent"):
        one_step(small_case(n=16), 1.0)
    # 1e-3 halved until below 1e-12: 30 candidates
    assert len(calls) == 1 + 30


def record_l_beta(monkeypatch):
    """Every L_beta the flow evaluates, or "angle floor" where it raised."""
    seen = []

    def spy(*args, **kwargs):
        try:
            value = l_beta(*args, **kwargs)
        except NotSymplectic:
            seen.append("angle floor")
            raise
        seen.append(value)
        return value

    monkeypatch.setattr(flow, "l_beta", spy)
    return seen


def test_line_search_backtracks_past_angle_floor_and_increase(monkeypatch):
    S = perturbed_graph(0.9, 0.05, n_theta=16, n_phi=16)
    G = SurfaceGeometry(S, EUC)
    tau_init = 100.0 * stable_step(G, 1.0)
    start_line_search_at(monkeypatch, tau_init)
    seen = record_l_beta(monkeypatch)
    res = one_step(S, 1.0)
    S2, state = res.surface, res.states[0]
    current, *candidates = seen
    assert len(candidates) == 10
    assert candidates[:4] == ["angle floor"] * 4
    assert all(value >= current for value in candidates[4:9])
    assert state.tau == tau_init / 2**9
    assert state.l_beta == current
    assert candidates[9] == l_beta(S2, EUC, 1.0) < current
    assert np.min(SurfaceGeometry(S2, EUC).cos_alpha) > COS_FLOOR


def test_line_search_halves_a_step_that_increases_the_functional(monkeypatch):
    S = small_case(n=16)
    G = SurfaceGeometry(S, EUC)
    tau_init = 64.0 * stable_step(G, 1.0)
    start_line_search_at(monkeypatch, tau_init)
    assert one_step(S, 1.0).states[0].tau == tau_init / 2


def test_stationary_surface_converges_below_a_zero_residual_target():
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    res = run_flow(S, EUC, 1.0, res_tol=0.0)
    assert res.converged
    assert res.stop_reason == "stationary"
    assert res.iterations == 0
    assert 0.0 < res.states[0].res_linf < flow.STATIONARY_LINF


def test_stop_reason_converged_even_on_the_last_budgeted_iteration():
    S = small_case(n=16)
    res = run_flow(S, EUC, 1.0, max_iterations=400, res_tol=2e-3)
    assert res.stop_reason == "converged" and res.converged
    assert res.states[-1].res_linf <= 2e-3
    # a budget that ends on the converging iteration still reports convergence
    tight = run_flow(S, EUC, 1.0, max_iterations=res.iterations, res_tol=2e-3)
    assert tight.stop_reason == "converged"
    assert np.array_equal(tight.trace, res.trace)


@pytest.mark.parametrize("max_iterations", [0, 6])
def test_stop_reason_budget(max_iterations):
    res = run_flow(small_case(n=16), EUC, 1.0, max_iterations=max_iterations,
                   res_tol=2e-3)
    assert res.stop_reason == "budget" and not res.converged
    assert res.iterations == max_iterations
    assert res.states[-1].res_linf > 2e-3


def test_non_finite_critical_operator_stalls_the_flow(monkeypatch):
    def poisoned(surface, ambient, beta, geometry=None):
        el = el_operator(surface, ambient, beta, geometry=geometry)
        vector = el.vector.copy()
        vector[3, 5, 2] = np.nan
        mag = np.sqrt(geometry.dot(vector, vector))
        return ELField(vector, float(np.sqrt(np.sum(mag**2))), float(np.max(mag)))

    monkeypatch.setattr(flow, "el_operator", poisoned)
    S = small_case(n=16)
    with pytest.raises(FlowStalled, match="res_linf = nan is not finite"):
        run_flow(S, EUC, 1.0, max_iterations=5)


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iterations": -1}, {"max_iterations": 2.5},
     {"max_iterations": np.float64(3)}, {"res_tol": float("nan")},
     {"res_tol": float("inf")}, {"res_tol": -1e-3}],
    ids=["max_iterations-negative", "max_iterations-fraction",
         "max_iterations-float64", "res_tol-nan", "res_tol-inf", "res_tol-negative"],
)
def test_run_flow_rejects_bad_budget(kwargs):
    with pytest.raises(ValueError, match="max_iterations|res_tol"):
        run_flow(small_case(n=16), EUC, 1.0, **{"max_iterations": 20, **kwargs})


def test_flow_rejects_negative_beta():
    with pytest.raises(ValueError):
        run_flow(small_case(n=16), EUC, -0.5, max_iterations=1)


def test_flow_never_builds_the_tangent_frame(monkeypatch):
    """The tangent pair lives in the adapted frame, which the flow never reads."""
    def refuse(self):
        raise AssertionError("adapted frame built")

    monkeypatch.setattr(SurfaceGeometry, "adapted_frame", property(refuse))
    res = run_flow(small_case(n=16), EUC, 1.0, max_iterations=20, res_tol=2e-3)
    assert res.iterations == 20


def test_flow_rejects_lagrangian_input():
    S = lagrangian_torus(1.0, 1.0, n_theta=16, n_phi=16)
    with pytest.raises(NotSymplectic):
        run_flow(S, EUC, 1.0, max_iterations=1)


def test_trace_csv(tmp_path):
    S = small_case(n=16)
    res = run_flow(S, EUC, 1.0, max_iterations=5, res_tol=1e-12)
    path = tmp_path / "trace.csv"
    write_trace(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,L_beta,res_l2,res_linf,min_cos_alpha,tau"
    assert len(lines) == len(res.states) + 1
    row = lines[1].split(",")
    assert row[0] == "0"
    assert all(np.isfinite(float(v)) for v in row[1:])


def test_state_fields_consistent():
    S = small_case(n=16)
    res = run_flow(S, EUC, 1.0, max_iterations=3, res_tol=1e-12)
    for k, s in enumerate(res.states):
        assert isinstance(s, FlowState)
        assert s.iteration == k
        assert s.res_l2 > 0 and s.res_linf > 0
        assert 0 < s.min_cos_alpha <= 1.0


def one_step_loop(S, beta, max_iterations, res_tol):
    """run_flow spelled out as a loop of one-step run_flow calls: a step
    carries nothing to the next but the surface."""
    rows = []
    for iteration in range(max_iterations + 1):
        budget = 1 if iteration < max_iterations else 0
        step = run_flow(S, EUC, beta, max_iterations=budget, res_tol=res_tol)
        rows.append(step.trace[0])
        if step.iterations == 0:
            return S, rows
        S = step.surface


@pytest.mark.parametrize("max_iterations", [6, 400])
def test_run_flow_matches_one_step_loop(tmp_path, max_iterations):
    S = small_case(n=16)
    res = run_flow(S, EUC, 1.0, max_iterations=max_iterations, res_tol=2e-3)
    ref_surface, ref_rows = one_step_loop(S, 1.0, max_iterations, 2e-3)
    assert res.converged == (max_iterations == 400)
    assert res.trace.shape == (len(ref_rows), 5)
    assert res.trace.dtype == np.float64
    assert res.trace.tobytes() == np.array(ref_rows).tobytes()
    assert all(type(s.iteration) is int for s in res.states)
    assert res.iterations == len(ref_rows) - 1
    assert res.surface.periodic_part.tobytes() == ref_surface.periodic_part.tobytes()
    path = tmp_path / "trace.csv"
    write_trace(res, path)
    want = ["iteration,L_beta,res_l2,res_linf,min_cos_alpha,tau"] + [
        f"{k}," + ",".join(f"{v:.17g}" for v in row) for k, row in enumerate(ref_rows)
    ]
    assert path.read_text() == "\n".join(want) + "\n"
