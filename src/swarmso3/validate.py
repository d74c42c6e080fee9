"""Built-in randomized property checks, runnable from the CLI.

Each check returns (name, samples, worst, tol, passed). These are the
same invariants the test suite pins down, at sample counts suited to a
quick command-line health check: 10 000 samples for each SO(3) check and
1 000 for the field gradients (1 000 and 200 with `--quick`), plus the
two closed-loop checks over every step of a small prescribed-mode run.

Each sampled check is one closure that `_worst` calls once per block of
at most BLOCK samples: it draws the block as stacks from the check's
generator and returns their errors, by the batched private functions
(`so3._exp`, `_log`, `_angle`, `_hat`, `_adjoint`, `FieldSpec.values`,
`.gradients`). A sample the batched log reports as undefined, or an error
that comes out nan, counts as infinite, so every check can fail.
"""

import numpy as np

from . import so3
from .attitude import ControllerConfig
from .deployment import pairwise_displacement_bound
from .fields import FieldSpec
from .sim import (
    WEYL_TOL,
    AttitudeInitSpec,
    DesiredAttitudeTrajectory,
    PlacementSpec,
    SimConfig,
    run,
    weyl_floor_violation,
)

# rows per batched block: whole-check stacks of 10 000 samples would add
# ~5 MB of peak memory for no extra speed
BLOCK = 1000


def _worst(n, err):
    """Largest error over n samples; err(m) draws a block of m <= BLOCK
    samples and returns their m errors."""
    worsts = [0.0] + [np.max(err(min(BLOCK, n - start))) for start in range(0, n, BLOCK)]
    # np.max, unlike max(), lets a nan error through to fail the check
    worst = float(np.max(worsts))
    return np.inf if np.isnan(worst) else worst


def _rotvecs(rng, m, max_angle):
    """m rotation vectors with uniform axes and angles in [0, max_angle)."""
    axis = rng.normal(size=(m, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    return axis * rng.uniform(0.0, max_angle, size=(m, 1))


def check_roundtrip(n, rng):
    """vee(log(exp(hat(tau)))) recovers tau for angles below pi."""

    def err(m):
        tau = _rotvecs(rng, m, np.pi - 0.1)
        back, _, ok = so3._log(so3._exp(tau))
        return np.where(ok, np.linalg.norm(back - tau, axis=-1), np.inf)

    worst = _worst(n, err)
    return ("exp/log roundtrip", n, worst, 1e-9, worst < 1e-9)


def check_metric_ordering(n, rng):
    """d_F <= sqrt(2) d_geo = d_log, checked as a two-sided bound.

    d_log is the Frobenius norm of hat(log(r1^T r2)), so the equality
    checks the log's scaling and `_hat` against the atan2 angle d_geo.
    The log takes its angle from the same `_angle`, so a wrong angle
    there is not caught by the equality.
    """

    def err(m):
        r1 = so3._exp(_rotvecs(rng, m, np.pi - 0.05))
        r2 = r1 @ so3._exp(_rotvecs(rng, m, np.pi - 0.05))
        rel = np.swapaxes(r1, -1, -2) @ r2
        _, _, dg, ok = so3._angle(rel)
        dl = np.linalg.norm(so3._hat(so3._log(rel)[0]), axis=(-2, -1))
        df = np.linalg.norm(r1 - r2, axis=(-2, -1))
        gap = np.maximum(np.abs(dl - np.sqrt(2.0) * dg), np.maximum(0.0, df - dl))
        return np.where(ok, gap, np.inf)

    worst = _worst(n, err)
    return ("metric ordering", n, worst, 1e-12, worst <= 1e-12)


def check_ad_invariance(n, rng):
    """Ad_R(hat v) = hat(R v), and tr(Ad_R(W1)^T Ad_R(W2)) = tr(W1^T W2)."""

    def err(m):
        r, v = so3._exp(_rotvecs(rng, m, np.pi - 0.05)), rng.normal(size=(m, 2, 3))
        w = so3._hat(v)
        ad = so3._adjoint(r[:, None], w)
        rv = so3._hat((r[:, None] @ v[..., None])[..., 0])
        ident = np.abs(ad - rv).max(axis=(-3, -2, -1))
        inner = (ad[:, 0] * ad[:, 1] - w[:, 0] * w[:, 1]).sum(axis=(-2, -1))
        return np.maximum(ident, np.abs(inner))

    worst = _worst(n, err)
    return ("Ad-invariance", n, worst, 1e-10, worst <= 1e-10)


def _fd_specs():
    """The fields of the gradient check, one of each kind."""
    return [
        FieldSpec(kind="gaussian", source=[1.0, -2.0, 0.5], amplitude=3.0, width=[2.0, 1.5, 3.0]),
        FieldSpec(kind="quadratic", source=[0.0, 1.0, 0.0], amplitude=50.0, curvature=[0.3, 0.2, 0.4], domain_radius=10.0),
        FieldSpec(
            kind="sum_of_gaussians",
            source=[0.0, 0.0, 0.0],
            components=(
                {"source": [0.0, 0.0, 0.0], "amplitude": 5.0, "width": 3.0},
                {"source": [1.0, 0.5, -0.5], "amplitude": 0.5, "width": 4.0},
            ),
        ),
    ]


def check_gradient_fd(n, rng):
    """Analytic field gradients against central differences.

    The n samples are shared out over the fields as evenly as possible;
    the error is ||fd - g|| / max(1e-12, ||g||).
    """
    h = 1e-5
    steps = h * np.eye(3)
    specs = _fd_specs()
    worst = 0.0
    for j, spec in enumerate(specs):

        def err(m, spec=spec):
            p = spec.source + rng.uniform(-4.0, 4.0, size=(m, 3))
            fd = (spec.values(p[:, None] + steps) - spec.values(p[:, None] - steps)) / (2 * h)
            g = spec.gradients(p)
            return np.linalg.norm(fd - g, axis=-1) / np.maximum(1e-12, np.linalg.norm(g, axis=-1))

        m = n // len(specs) + (j < n % len(specs))
        worst = max(worst, _worst(m, err))
    return ("field gradient vs FD", n, worst, 1e-6, worst <= 1e-6)


def _closed_loop_log(n_steps_scale=1.0):
    """Small disturbed tracking run shared by the closed-loop checks."""
    cfg = SimConfig(
        n_agents=5,
        speed=0.6,
        dt=0.01,
        t_end=max(1.0, 12.0 * n_steps_scale),
        seed=11,
        controller=ControllerConfig(k_w=1.2, delta_star=0.4),
        trajectory=DesiredAttitudeTrajectory(
            mode="prescribed",
            r_d=np.eye(3),
            omega_known=[0.8, 0.0, 0.0],
            omega_unknown=[0.0, 0.0, -0.15],
            omega_max_declared=0.15,
        ),
        placement=PlacementSpec(kind="ball", radius=2.0),
        attitudes=AttitudeInitSpec(kind="ball", radius=2.2),
        rate_frame="literal",
        name="validate-closed-loop",
    )
    return run(cfg)


def check_weyl_chain(log):
    """lambda_min(P(t)) >= lambda_min(P(0)) - (2 D0 e + e^2) every step."""
    worst = weyl_floor_violation(log.p, log.lambda_min)
    return ("covariance eigenvalue floor", len(log), worst, WEYL_TOL, worst <= WEYL_TOL)


def check_displacement_budget(log):
    """Pairwise displacement never exceeds 2 pi s / k_w for shared refs."""
    bound = pairwise_displacement_bound(log.config.speed, log.k_w)
    worst = float(log.max_pair_disp.max())
    return ("pairwise displacement bound", len(log), worst, bound, worst <= bound)


def run_all(quick: bool = False):
    """Run every check; returns (results, all_passed)."""
    rng = np.random.default_rng(2024)
    n = 1000 if quick else 10000
    n_fd = 200 if quick else 1000
    log = _closed_loop_log(0.25 if quick else 1.0)
    results = [
        check_roundtrip(n, rng),
        check_metric_ordering(n, rng),
        check_ad_invariance(n, rng),
        check_gradient_fd(n_fd, rng),
        check_weyl_chain(log),
        check_displacement_budget(log),
    ]
    return results, all(r[4] for r in results)
