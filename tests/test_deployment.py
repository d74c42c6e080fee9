from pathlib import Path

import numpy as np
import pytest

from swarmso3 import (
    DegenerateDeployment,
    DegenerateDirection,
    ascending_direction,
    covariance_perturbation_bound,
    deployment_stats,
    epsilon_max,
    gain_for_nondegeneracy,
    pairwise_displacement_bound,
    plan_gains,
)
from swarmso3.scenario import load_scenario, scenario_to_config
from swarmso3.sim import _initial_conditions

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "swarmso3" / "scenarios"

RNG = np.random.default_rng(33)

# placement with covariance diag(a^2, a^2, 0.07) and radius exactly 3.87
_A = np.sqrt((3.87**2 - 0.07) / 2.0)
_C = np.sqrt(0.07)
BENCH4 = np.array(
    [[_A, _A, _C], [_A, -_A, -_C], [-_A, _A, -_C], [-_A, -_A, _C]]
)


def test_stats_symmetric_axes_deployment():
    pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    st = deployment_stats(pts)
    assert np.allclose(st.centroid, 0.0)
    assert np.allclose(st.covariance, np.eye(3) / 3, atol=1e-15)
    assert st.lambda_min == pytest.approx(1 / 3, abs=1e-12)
    assert st.radius == 1.0


def test_stats_collinear_is_degenerate():
    pts = np.outer(np.arange(5.0), [1.0, 2.0, -1.0])
    st = deployment_stats(pts)
    assert st.lambda_min == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateDeployment):
        epsilon_max(st)


def test_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        deployment_stats(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        deployment_stats([[np.nan, 0, 0]])


def test_stats_invariants_random():
    for _ in range(50):
        pts = RNG.normal(size=(RNG.integers(1, 12), 3)) * 5.0
        st = deployment_stats(pts)
        assert np.linalg.norm(st.x.sum(axis=0)) < 1e-9
        assert np.allclose(st.covariance, st.covariance.T)
        n = pts.shape[0]
        assert np.max(np.abs(st.covariance - st.x.T @ st.x / n)) < 1e-12
        assert st.lambda_min >= -1e-12
        assert st.radius == pytest.approx(np.max(np.linalg.norm(st.x, axis=1)))


def test_benchmark_deployment_matches_target_stats():
    st = deployment_stats(BENCH4)
    assert st.lambda_min == pytest.approx(0.07, rel=1e-9)
    assert st.radius == pytest.approx(3.87, rel=1e-9)


def test_ascending_direction_constant_field_vanishes():
    st = deployment_stats(RNG.normal(size=(6, 3)))
    out = ascending_direction(np.full(6, 4.2), st)
    assert np.linalg.norm(out) < 1e-12


def test_ascending_direction_two_agent_example():
    st = deployment_stats(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    out = ascending_direction([2.0, 1.0], st)
    assert np.allclose(out, [0.5, 0, 0], atol=1e-15)


def test_ascending_direction_linear_field_closed_form():
    # for sigma = sigma0 + g.p the sum collapses to P g / D^2
    for _ in range(50):
        pts = RNG.normal(size=(7, 3)) * 3.0
        st = deployment_stats(pts)
        g = RNG.normal(size=3)
        sigma = 1.7 + pts @ g
        out = ascending_direction(sigma, st)
        expected = st.covariance @ g / st.radius**2
        assert np.max(np.abs(out - expected)) < 1e-12
        if st.lambda_min > 1e-9:
            assert out @ g > 0.0


def test_ascending_direction_shift_invariance():
    pts = RNG.normal(size=(5, 3))
    st = deployment_stats(pts)
    sigma = RNG.normal(size=5)
    a = ascending_direction(sigma, st)
    b = ascending_direction(sigma + 123.4, st)
    assert np.max(np.abs(a - b)) < 1e-12


def test_ascending_direction_rejects_collocated():
    st = deployment_stats(np.zeros((3, 3)))
    with pytest.raises(DegenerateDirection):
        ascending_direction(np.ones(3), st)


def test_pairwise_displacement_bound_values():
    assert pairwise_displacement_bound(0.6, 0.5554) == pytest.approx(6.787, abs=1e-3)
    assert pairwise_displacement_bound(15.0, 2.777) == pytest.approx(33.94, abs=5e-3)
    assert pairwise_displacement_bound(2.0, 1.0) == pytest.approx(
        2 * pairwise_displacement_bound(1.0, 1.0)
    )
    with pytest.raises(ValueError):
        pairwise_displacement_bound(0.0, 1.0)


def test_gain_for_nondegeneracy_benchmark():
    st = deployment_stats(BENCH4)
    k2 = gain_for_nondegeneracy(0.6, st)
    assert abs(k2 - 413) / 413 < 0.05  # reported value, rounded inputs
    assert k2 == pytest.approx(2 * np.pi * 0.6 / epsilon_max(st), rel=1e-12)


def test_gain_for_nondegeneracy_limits():
    st = deployment_stats(BENCH4)
    rich = deployment_stats(BENCH4 * 10.0)  # lambda_min scales by 100
    assert gain_for_nondegeneracy(0.6, rich) < gain_for_nondegeneracy(0.6, st)
    assert gain_for_nondegeneracy(0.0, st) == 0.0
    flat = deployment_stats(np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]]))
    with pytest.raises(DegenerateDeployment):
        gain_for_nondegeneracy(0.6, flat)


def test_epsilon_max_refuses_nearly_coplanar_deployment():
    data = load_scenario(BUNDLED / "fig3.scenario")
    data["agents"] = 3
    p0, _ = _initial_conditions(scenario_to_config(data))
    st = deployment_stats(p0)
    assert 0.0 < st.lambda_min < 1e-12  # three points are always coplanar
    with pytest.raises(DegenerateDeployment):
        epsilon_max(st)


def test_plan_gains_selects_max():
    st = deployment_stats(BENCH4)
    plan = plan_gains(np.pi / 20, 0.4, 0.6, st)
    assert plan.k1 == pytest.approx(0.5554, abs=5e-5)
    assert abs(plan.k2 - 417.3) < 0.1
    assert plan.k_w == plan.k2
    assert plan_gains(0.0, 0.4, 0.6, st).k_w == plan.k2
    tiny = plan_gains(np.pi / 4, 0.4, 1e-9, st)
    assert tiny.k_w == tiny.k1


def test_covariance_perturbation_bound_values():
    st = deployment_stats(BENCH4)
    assert covariance_perturbation_bound(0.0, st) == 0.0
    assert covariance_perturbation_bound(0.009045, st) == pytest.approx(0.07009, abs=1e-5)
    with pytest.raises(ValueError):
        covariance_perturbation_bound(-1.0, st)
    eps = np.array([0.0, 0.009045, 0.5])
    bounds = covariance_perturbation_bound(eps, st)
    assert bounds.shape == (3,)
    assert all(bounds[i] == covariance_perturbation_bound(float(e), st) for i, e in enumerate(eps))
    with pytest.raises(ValueError):
        covariance_perturbation_bound(np.array([0.1, -1.0]), st)


def test_epsilon_max_is_root_of_perturbation_bound():
    for _ in range(50):
        pts = RNG.normal(size=(RNG.integers(4, 10), 3)) * RNG.uniform(0.5, 8.0)
        st = deployment_stats(pts)
        if st.lambda_min <= 1e-12:
            continue
        eps = epsilon_max(st)
        assert covariance_perturbation_bound(eps, st) == pytest.approx(
            st.lambda_min, abs=1e-12
        )

