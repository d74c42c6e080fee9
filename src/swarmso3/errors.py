"""Exception types shared across the package."""


class SwarmSO3Error(Exception):
    """Base class for all package errors."""


class NearPiSingularity(SwarmSO3Error):
    """Principal logarithm undefined: tr(R) is at or below -1 + tolerance.

    Raised instead of falling back to an arbitrary branch; controlled
    trajectories that start away from the antipode never reach it, so
    hitting this is a bug in the caller's setup, not a numerical hiccup.
    """

    def __init__(self, msg="rotation angle at or beyond the pi singularity", partial_log=None):
        super().__init__(msg)
        self.partial_log = partial_log


class DegenerateDirection(SwarmSO3Error):
    """Ascending-direction estimate has vanishing norm; cannot normalize."""


class DegenerateDeployment(SwarmSO3Error):
    """Deployment covariance is rank deficient, or so nearly so that the
    non-degeneracy displacement budget rounds to 0."""


class ScenarioError(SwarmSO3Error):
    """Scenario file failed schema validation."""
