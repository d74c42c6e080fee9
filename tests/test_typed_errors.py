"""Each typed error of the public API that no other test reaches, plus
the skew check of the two skew-rate inputs, as one table."""

import numpy as np
import pytest

from swarmso3 import (
    AttitudeInitSpec,
    DesiredAttitudeRate,
    DesiredAttitudeTrajectory,
    NearPiSingularity,
    RobotState,
    ScenarioError,
    advance_desired,
    ascending_direction,
    control_known_ff,
    deployment_stats,
    dist_geodesic,
    exp_so3,
    gain_for_bounded_rate,
    gain_for_nondegeneracy,
    project_to_so3,
    step_agent,
)
from swarmso3.scenario import parse_scenario

ZERO_RATE = np.zeros((3, 3))


def _stats():
    return deployment_stats([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1.0, -1.0]])


def _agent():
    return RobotState(p=np.zeros(3), r=np.eye(3))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: DesiredAttitudeRate(known=ZERO_RATE, unknown_bound=-1.0),
         ValueError, "unknown_bound must be finite"),
        (lambda: DesiredAttitudeRate(known=np.ones((3, 3))), ValueError, "not skew-symmetric"),
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
    ],
    ids=[
        "rate-negative-unknown-bound", "rate-known-not-skew", "control-known-ff-k_w",
        "control-known-ff-near-pi", "gain-negative-omega-max", "ascending-sample-count",
        "nondegeneracy-negative-speed", "scenario-invalid-yaml", "robot-state-not-rotation",
        "explicit-attitudes-shape", "step-agent-dt", "step-agent-rate-not-skew",
        "advance-desired-dt", "advance-desired-seeking-inputs", "project-shape",
        "dist-geodesic-near-pi",
    ],
)
def test_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
