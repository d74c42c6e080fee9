"""Built-in randomized property checks, runnable from the CLI.

Each check returns (name, samples, worst, tol, passed). These are the
same invariants the test suite pins down, at sample counts suited to a
quick command-line health check.
"""

import numpy as np

from . import so3
from .attitude import ControllerConfig
from .deployment import pairwise_displacement_bound, weyl_floor_violation
from .fields import FieldSpec, field_eval, field_gradient
from .sim import (
    AttitudeInitSpec,
    DesiredAttitudeTrajectory,
    PlacementSpec,
    SimConfig,
    run,
)


def _random_rotvec(rng, max_angle):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def check_roundtrip(n, rng):
    """vee(log(exp(hat(tau)))) recovers tau for angles below pi."""
    worst = 0.0
    for _ in range(n):
        tau = _random_rotvec(rng, np.pi - 0.1)
        back = so3.log_so3(so3.exp_so3(tau))
        worst = max(worst, float(np.linalg.norm(back - tau)))
    return ("exp/log roundtrip", n, worst, 1e-9, worst < 1e-9)


def check_metric_ordering(n, rng):
    """d_F <= sqrt(2) d_geo = d_log, checked as a two-sided bound."""
    worst = 0.0
    for _ in range(n):
        r1 = so3.exp_so3(_random_rotvec(rng, np.pi - 0.05))
        r2 = r1 @ so3.exp_so3(_random_rotvec(rng, np.pi - 0.05))
        dg = so3.dist_geodesic(r1, r2)
        dl = so3.dist_log(r1, r2)
        df = so3.dist_frobenius(r1, r2)
        worst = max(worst, abs(dl - np.sqrt(2.0) * dg), max(0.0, df - dl))
    return ("metric ordering", n, worst, 1e-12, worst <= 1e-12)


def check_ad_invariance(n, rng):
    """tr(Ad_R(W1)^T Ad_R(W2)) equals tr(W1^T W2)."""
    worst = 0.0
    for _ in range(n):
        r = so3.exp_so3(_random_rotvec(rng, np.pi - 0.05))
        w1 = so3.hat(rng.normal(size=3))
        w2 = so3.hat(rng.normal(size=3))
        lhs = np.trace(so3.adjoint_rotate(r, w1).T @ so3.adjoint_rotate(r, w2))
        rhs = np.trace(w1.T @ w2)
        worst = max(worst, abs(lhs - rhs))
    return ("Ad-invariance", n, worst, 1e-10, worst <= 1e-10)


def check_gradient_fd(n, rng):
    """Analytic field gradients against central differences."""
    specs = [
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
    h = 1e-5
    worst = 0.0
    per_spec = max(1, n // len(specs))
    for spec in specs:
        for _ in range(per_spec):
            p = np.asarray(spec.source) + rng.uniform(-4.0, 4.0, size=3)
            g = field_gradient(spec, p)
            fd = np.empty(3)
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                fd[a] = (field_eval(spec, p + e) - field_eval(spec, p - e)) / (2 * h)
            denom = max(1e-12, float(np.linalg.norm(g)))
            worst = max(worst, float(np.linalg.norm(fd - g)) / denom)
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
    return ("covariance eigenvalue floor", len(log), worst, 1e-9, worst <= 1e-9)


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
