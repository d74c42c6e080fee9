"""Each typed error of the public API that no other test reaches, plus
the skew check of `vee` and the two skew-rate inputs, the finiteness
checks of `hat`, `exp_so3`, `exp_coord_derivative` and the checked log,
the integer and real-number checks of `SimConfig` and `ControllerConfig`
and the trajectory's rate rules, as one table; and the large skew
matrices the skew check accepts."""

import dataclasses

import numpy as np
import pytest

from swarmso3 import (
    AttitudeInitSpec,
    ControllerConfig,
    DesiredAttitudeRate,
    DesiredAttitudeTrajectory,
    NearPiSingularity,
    PlacementSpec,
    RobotState,
    ScenarioError,
    SimConfig,
    advance_desired,
    ascending_direction,
    attitude_error,
    control_known_ff,
    deployment_stats,
    dist_geodesic,
    exp_coord_derivative,
    exp_so3,
    gain_for_bounded_rate,
    gain_for_nondegeneracy,
    hat,
    log_so3,
    project_to_so3,
    run,
    step_agent,
    vee,
)
from swarmso3.scenario import parse_scenario

ZERO_RATE = np.zeros((3, 3))
NAN_RATE = np.diag([np.nan, 0.0, 0.0])
# its symmetric part, inf, is within the tolerance 1e-9 * max |s| = inf:
# only the finiteness test rejects it
INF_RATE = np.diag([np.inf, 0.0, 0.0])
NAN_ROTATION = np.full((3, 3), np.nan)
# 0 * inf in a product r1^T r2 would warn before any check of the product
INF_ROTATION = np.diag([np.inf, 1.0, 1.0])


def _stats():
    return deployment_stats([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1.0, -1.0]])


def _agent():
    return RobotState(p=np.zeros(3), r=np.eye(3))


def _config(**changes):
    # a valid one-agent config with the given fields replaced
    cfg = SimConfig(
        n_agents=1, speed=1.0, dt=0.1, t_end=0.1, seed=0,
        controller=ControllerConfig(k_w=1.0, delta_star=1.0),
        trajectory=DesiredAttitudeTrajectory(mode="constant"),
        placement=PlacementSpec(kind="ball", radius=1.0),
    )
    return dataclasses.replace(cfg, **changes)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: DesiredAttitudeRate(known=ZERO_RATE, unknown_bound=-1.0),
         ValueError, "unknown_bound must be finite"),
        (lambda: DesiredAttitudeRate(known=np.ones((3, 3))), ValueError, "not skew-symmetric"),
        (lambda: DesiredAttitudeRate(known=NAN_RATE), ValueError, "not skew-symmetric"),
        (lambda: vee(NAN_RATE), ValueError, "not skew-symmetric"),
        (lambda: vee(INF_RATE), ValueError, "not skew-symmetric"),
        (lambda: control_known_ff(np.eye(3), DesiredAttitudeRate(known=ZERO_RATE), 0.0),
         ValueError, "k_w must be positive"),
        (lambda: control_known_ff(exp_so3([np.pi, 0, 0]), DesiredAttitudeRate(known=ZERO_RATE), 1.0),
         NearPiSingularity, "pi singularity"),
        (lambda: gain_for_bounded_rate(-1.0, 0.4), ValueError, "omega_max must be >= 0"),
        (lambda: ascending_direction(np.ones(3), _stats()), ValueError, "one field sample per agent"),
        (lambda: gain_for_nondegeneracy(-1.0, _stats()), ValueError, "s must be >= 0"),
        (lambda: parse_scenario("agents: [1"), ScenarioError, "not valid YAML"),
        (lambda: RobotState(p=np.zeros(3), r=2.0 * np.eye(3)), ValueError, "not a rotation matrix"),
        (lambda: AttitudeInitSpec(kind="explicit", matrices=np.eye(3)),
         ValueError, r"need an \(N, 3, 3\) array"),
        (lambda: step_agent(_agent(), ZERO_RATE, 1.0, 0.0), ValueError, "dt must be positive"),
        (lambda: step_agent(_agent(), np.ones((3, 3)), 1.0, 0.01), ValueError, "not skew-symmetric"),
        (lambda: advance_desired(DesiredAttitudeTrajectory(mode="constant"), 0.0),
         ValueError, "dt must be positive"),
        (lambda: advance_desired(DesiredAttitudeTrajectory(mode="source-seeking"), 0.01),
         ValueError, "needs positions and a field"),
        (lambda: project_to_so3(np.eye(2)), ValueError, r"expected shape \(\.\.\., 3, 3\)"),
        (lambda: dist_geodesic(np.eye(3), exp_so3([0, np.pi, 0])), NearPiSingularity, "pi singularity"),
        (lambda: hat([np.inf, 0, 0]), ValueError, "v must be finite"),
        (lambda: hat([np.nan, 0, 0]), ValueError, "v must be finite"),
        (lambda: exp_so3([np.inf, 0, 0]), ValueError, "tau must be finite"),
        (lambda: exp_so3([np.nan, 0, 0]), ValueError, "tau must be finite"),
        (lambda: log_so3(NAN_ROTATION), ValueError, "rotation matrix must be finite"),
        (lambda: log_so3(INF_ROTATION), ValueError, "rotation matrix must be finite"),
        (lambda: dist_geodesic(np.eye(3), NAN_ROTATION), ValueError, "rotation matrix must be finite"),
        (lambda: attitude_error(np.eye(3), NAN_ROTATION), ValueError, "rotation matrix must be finite"),
        (lambda: dist_geodesic(np.eye(3), INF_ROTATION), ValueError, "rotation matrix must be finite"),
        (lambda: attitude_error(INF_ROTATION, np.eye(3)), ValueError, "rotation matrix must be finite"),
        (lambda: _config(seed=1.5), ValueError, "seed must be an integer"),
        (lambda: _config(seed=True), ValueError, "seed must be an integer"),
        (lambda: _config(seed=np.float64(2.0)), ValueError, "seed must be an integer"),
        (lambda: _config(n_agents=True), ValueError, "n_agents must be an integer"),
        (lambda: _config(n_agents=2.0), ValueError, "n_agents must be an integer"),
        (lambda: _config(speed=True), ValueError, "speed must be a real number"),
        (lambda: _config(dt="0.1"), ValueError, "dt must be a real number"),
        (lambda: _config(t_end=np.True_), ValueError, "t_end must be a real number"),
        (lambda: ControllerConfig(k_w=True, delta_star=1.0), ValueError, "k_w must be a real number"),
        (lambda: ControllerConfig(k_w="1", delta_star=1.0), ValueError, "k_w must be a real number"),
        (lambda: ControllerConfig(k_w=1.0, delta_star=True), ValueError, "delta_star must be a real number"),
        (lambda: ControllerConfig(k_w=1.0, mu_star="0.5"), ValueError, "mu_star must be a real number"),
        (lambda: DesiredAttitudeTrajectory(mode="source-seeking", omega_unknown=[0, 0, 5.0]),
         ValueError, "source-seeking mode requires zero omega_unknown"),
        (lambda: exp_coord_derivative([np.nan, 0, 0], ZERO_RATE), ValueError, "tau must be finite"),
    ],
    ids=[
        "rate-negative-unknown-bound", "rate-known-not-skew", "rate-known-nan", "vee-nan",
        "vee-inf", "control-known-ff-k_w",
        "control-known-ff-near-pi", "gain-negative-omega-max", "ascending-sample-count",
        "nondegeneracy-negative-speed", "scenario-invalid-yaml", "robot-state-not-rotation",
        "explicit-attitudes-shape", "step-agent-dt", "step-agent-rate-not-skew",
        "advance-desired-dt", "advance-desired-seeking-inputs", "project-shape",
        "dist-geodesic-near-pi", "hat-inf", "hat-nan", "exp-so3-inf", "exp-so3-nan",
        "log-so3-nan", "log-so3-inf", "dist-geodesic-nan", "attitude-error-nan",
        "dist-geodesic-inf", "attitude-error-inf", "config-seed-float", "config-seed-bool",
        "config-seed-numpy-float", "config-n_agents-bool", "config-n_agents-float",
        "config-speed-bool", "config-dt-str", "config-t_end-numpy-bool", "controller-k_w-bool",
        "controller-k_w-str", "controller-delta_star-bool", "controller-mu_star-str",
        "trajectory-seeking-omega_unknown", "exp-coord-derivative-nan",
    ],
)
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("norm", [1e4, 1e8, 1e10, 1e12])
def test_rotated_skew_matrix_passes_at_large_norm(norm):
    # R hat(w) R^T is hat(R w) up to a symmetric roundoff of order
    # eps * norm, 1.3e-8 at norm 1e8, which the relative tolerance accepts
    r = exp_so3([0.3, -1.1, 0.7])
    w = norm * np.array([2.0, -1.0, 2.0]) / 3.0
    s = r @ hat(w) @ r.T
    assert np.allclose(vee(s), r @ w, rtol=0.0, atol=1e-12 * norm)
    assert np.array_equal(DesiredAttitudeRate(known=s).known, s)
    assert np.isfinite(step_agent(_agent(), s, 1.0, 0.01).p).all()


def test_config_takes_numpy_integers():
    cfg = _config(n_agents=np.int64(2), seed=np.uint32(3))
    assert (cfg.n_agents, cfg.seed) == (2, 3)
    assert len(run(cfg)) == 2


def test_configs_take_python_and_numpy_reals():
    controller = ControllerConfig(k_w=np.float32(2.0), mu_star=np.int64(1))
    cfg = _config(speed=2, dt=np.float32(0.5), t_end=np.int64(1), controller=controller)
    assert (cfg.speed, cfg.dt, cfg.t_end) == (2.0, 0.5, 1.0)
    assert (controller.delta_star, controller.mu_star) == (1.0, 1.0)
    assert len(run(cfg)) == 3
