"""Each typed error of the public API that no other test reaches, plus
the skew check of `vee` and the two skew-rate inputs, as one table; and
the large skew matrices that check accepts."""

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
    hat,
    project_to_so3,
    step_agent,
    vee,
)
from swarmso3.scenario import parse_scenario

ZERO_RATE = np.zeros((3, 3))
NAN_RATE = np.diag([np.nan, 0.0, 0.0])
# its symmetric part, inf, is within the tolerance 1e-9 * max |s| = inf:
# only the finiteness test rejects it
INF_RATE = np.diag([np.inf, 0.0, 0.0])


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
    ],
    ids=[
        "rate-negative-unknown-bound", "rate-known-not-skew", "rate-known-nan", "vee-nan",
        "vee-inf", "control-known-ff-k_w",
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
