"""Tests for the descent flow and its line search."""

import numpy as np
import pytest

from symcrit.ambient import euclidean_c2
from symcrit.errors import FlowStalled, NotSymplectic
from symcrit.flow import FlowState, flow_step, run_flow, stable_step, write_trace
from symcrit.functional import el_operator, l_beta
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


def test_stationary_surface_short_circuits():
    S = holomorphic_graph(0.3, -0.2, n_theta=16, n_phi=16)
    S2, state = flow_step(S, EUC, 1.0)
    assert S2 is S
    assert state.tau == 0.0
    assert state.res_linf < 1e-14


def test_critical_input_converges_without_stepping():
    S = zbar_graph(0.5, n_theta=16, n_phi=16)
    res = run_flow(S, EUC, 1.0, max_iterations=10, res_tol=1e-3)
    assert res.converged
    assert res.iterations == 0
    assert np.array_equal(res.surface.periodic_part, S.periodic_part)


def test_step_decreases_functional():
    S = small_case()
    before = l_beta(S, EUC, 1.0)
    S2, state = flow_step(S, EUC, 1.0)
    after = l_beta(S2, EUC, 1.0)
    assert after < before
    assert state.tau > 0


def test_beta_zero_velocity_is_mean_curvature():
    S = perturbed_graph(0.5, 0.05, n_theta=24, n_phi=24)
    G = SurfaceGeometry(S, EUC)
    S2, state = flow_step(S, EUC, 0.0, geometry=G)
    moved = (S2.periodic_part - S.periodic_part) / state.tau
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


def test_stalled_line_search_raises():
    S = small_case(n=16)
    with pytest.raises(FlowStalled):
        flow_step(S, EUC, 1.0, tau_init=1e-13)


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iterations": -1}, {"res_tol": float("nan")},
     {"res_tol": float("inf")}, {"res_tol": -1e-3}],
    ids=["max_iterations-negative", "res_tol-nan", "res_tol-inf", "res_tol-negative"],
)
def test_run_flow_rejects_bad_budget(kwargs):
    with pytest.raises(ValueError, match="max_iterations|res_tol"):
        run_flow(small_case(n=16), EUC, 1.0, **{"max_iterations": 20, **kwargs})


@pytest.mark.parametrize("tau_init", [float("nan"), float("inf"), 0.0, -1.0])
def test_flow_step_rejects_bad_tau_init(tau_init):
    with pytest.raises(ValueError, match="tau_init"):
        flow_step(small_case(n=16), EUC, 1.0, tau_init=tau_init)


def test_flow_rejects_negative_beta():
    with pytest.raises(ValueError):
        run_flow(small_case(n=16), EUC, -0.5, max_iterations=1)


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


def reference_flow(S, beta, max_iterations, res_tol):
    """run_flow spelled out as a loop of public flow_step calls."""
    states, tau_prev = [], None
    for iteration in range(max_iterations + 1):
        G = SurfaceGeometry(S, EUC)
        el = el_operator(S, EUC, beta, geometry=G)
        if el.norm_linf <= res_tol or iteration == max_iterations:
            value = l_beta(S, EUC, beta, geometry=G)
            min_ca = float(np.min(G.cos_alpha))
            states.append(
                FlowState(iteration, value, el.norm_l2, el.norm_linf, min_ca, 0.0)
            )
            return S, states
        base = stable_step(G, beta)
        tau_init = base if tau_prev is None else min(2.0 * tau_prev, base)
        S, state = flow_step(S, EUC, beta, tau_init=tau_init, geometry=G)
        state.iteration = iteration
        states.append(state)
        tau_prev = state.tau


@pytest.mark.parametrize("max_iterations", [6, 400])
def test_run_flow_matches_flow_step_loop(tmp_path, max_iterations):
    S = small_case(n=16)
    res = run_flow(S, EUC, 1.0, max_iterations=max_iterations, res_tol=2e-3)
    ref_surface, ref_states = reference_flow(S, 1.0, max_iterations, 2e-3)
    assert res.converged == (max_iterations == 400)
    assert res.trace.shape == (len(ref_states), 5)
    assert res.trace.dtype == np.float64
    assert res.states == ref_states
    assert all(type(s.iteration) is int for s in res.states)
    assert res.iterations == len(ref_states) - 1
    assert res.surface.periodic_part.tobytes() == ref_surface.periodic_part.tobytes()
    path = tmp_path / "trace.csv"
    write_trace(res, path)
    want = ["iteration,L_beta,res_l2,res_linf,min_cos_alpha,tau"] + [
        f"{s.iteration},{s.l_beta:.17g},{s.res_l2:.17g},"
        f"{s.res_linf:.17g},{s.min_cos_alpha:.17g},{s.tau:.17g}"
        for s in ref_states
    ]
    assert path.read_text() == "\n".join(want) + "\n"
