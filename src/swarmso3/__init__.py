"""SO(3) geometric attitude control and swarm source-seeking simulation."""

from .attitude import (
    AttitudeError,
    ControllerConfig,
    DesiredAttitudeRate,
    attitude_error,
    control_known_ff,
    gain_for_bounded_rate,
    heading_alignment_delta,
)
from .deployment import (
    DeploymentStats,
    GainPlan,
    ascending_direction,
    covariance_perturbation_bound,
    deployment_stats,
    epsilon_max,
    gain_for_nondegeneracy,
    pairwise_displacement_bound,
    plan_gains,
)
from .errors import (
    DegenerateDeployment,
    DegenerateDirection,
    NearPiSingularity,
    ScenarioError,
    SwarmSO3Error,
)
from .fields import FieldSpec, field_eval, field_gradient
from .sim import (
    AttitudeInitSpec,
    DesiredAttitudeTrajectory,
    PlacementSpec,
    RobotState,
    SimConfig,
    SimLog,
    advance_desired,
    run,
    step_agent,
)
from .so3 import (
    adjoint_rotate,
    dist_frobenius,
    dist_geodesic,
    dist_log,
    exp_coord_derivative,
    exp_so3,
    hat,
    is_rotation,
    lie_bracket,
    log_so3,
    project_to_so3,
    vee,
)

__version__ = "0.1.0"
