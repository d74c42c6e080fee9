"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Criteria run against the shipped scenario files wherever one exists, so
they exercise exactly what the CLI ships.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from swarmso3 import (
    AttitudeInitSpec,
    ControllerConfig,
    DesiredAttitudeTrajectory,
    FieldSpec,
    PlacementSpec,
    SimConfig,
    adjoint_rotate,
    deployment_stats,
    dist_frobenius,
    dist_geodesic,
    dist_log,
    exp_coord_derivative,
    exp_so3,
    field_eval,
    field_gradient,
    hat,
    lie_bracket,
    log_so3,
    pairwise_displacement_bound,
    plan_gains,
    run,
)
from swarmso3.cli import main
from swarmso3.scenario import load_scenario, scenario_to_config

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "swarmso3" / "scenarios"
RNG = np.random.default_rng(2718)


def random_rotvec(rng, max_angle):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


@pytest.fixture(scope="module")
def fig2_data():
    return load_scenario(BUNDLED / "fig2.scenario")


@pytest.fixture(scope="module")
def fig2_run_k1(fig2_data):
    return run(scenario_to_config(fig2_data))


@pytest.fixture(scope="module")
def fig2_run_k2(fig2_data):
    config = scenario_to_config(fig2_data)
    stats0 = deployment_stats(config.placement.positions + config.placement.center)
    k2 = plan_gains(
        config.trajectory.omega_max_declared,
        config.controller.mu_star,
        config.speed,
        stats0,
    ).k2
    data = {**fig2_data, "dt": 1e-4, "t_end": 2.0}
    data["controller"] = {**fig2_data["controller"], "k_w": k2}
    return run(scenario_to_config(data))


@pytest.fixture(scope="module")
def fig3_run():
    return run(scenario_to_config(load_scenario(BUNDLED / "fig3.scenario")))


def test_c1_gain_reproduction(capsys):
    start = time.perf_counter()
    assert main(["gains", "fig2"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line:
            values[line.split("=")[0].strip().split()[0]] = float(line.rsplit("=", 1)[1])
    assert 0.55 <= values["k1"] <= 0.56
    assert abs(values["k2"] - 413.0) / 413.0 <= 0.05
    assert elapsed < 1.0


@pytest.mark.parametrize("k_w", [0.5, 2.0, 10.0])
def test_c2_decay_law(k_w):
    dt = 0.01 / k_w  # k_w * dt = 0.01 <= 0.05
    cfg = SimConfig(
        n_agents=1, speed=0.6, dt=dt, t_end=16.0 / k_w, seed=5,
        controller=ControllerConfig(k_w=k_w, delta_star=0.4),
        trajectory=DesiredAttitudeTrajectory(
            mode="constant", r_d=np.eye(3),
            omega_known=[0, 0, 0], omega_unknown=[0, 0, 0],
        ),
        placement=PlacementSpec(kind="explicit", positions=np.zeros((1, 3))),
        attitudes=AttitudeInitSpec(kind="ball", radius=2.0),
    )
    log = run(cfg)
    mu = log.mu[:, 0]
    mask = (mu >= 1e-6) & (mu <= mu[0])
    slope = np.polyfit(log.t[mask], np.log(mu[mask]), 1)[0]
    assert abs(slope + k_w) / k_w <= 0.02


def test_c3_ultimate_bound_band(fig2_run_k1):
    log = fig2_run_k1
    start = time.perf_counter()
    k_w = log.k_w
    dt = log.config.dt
    mu_star = log.config.controller.mu_star
    delta_star = log.config.controller.delta_star
    slack = 5.0 * dt * k_w
    for i in range(log.config.n_agents):
        delta_i = log.delta[:, i]
        entered = np.nonzero(delta_i <= delta_star)[0]
        assert entered.size, f"agent {i} never entered the band"
        assert np.max(delta_i[entered[0]:]) <= delta_star + slack
        mu_i = log.mu[:, i]
        above = np.nonzero(mu_i <= mu_star)[0]
        cut = int(above[0]) if above.size else len(log)
        window = slice(0, cut)
        assert cut >= 10, f"agent {i} started inside the band"
        slope = np.polyfit(log.t[window], np.log(mu_i[window]), 1)[0]
        assert slope <= -0.9 * k_w
    assert time.perf_counter() - start < 60.0


def test_c4_pairwise_displacement_bound(fig2_run_k1):
    log = fig2_run_k1
    bound = pairwise_displacement_bound(log.config.speed, log.k_w)
    assert bound == pytest.approx(6.79, abs=0.01)
    violations = int(np.sum(log.max_pair_disp > bound))
    assert violations == 0


def test_c5_nondegeneracy_and_weyl_chain(fig2_run_k2):
    log = fig2_run_k2
    assert np.all(log.lambda_min > 0.0)
    stats0 = deployment_stats(log.p[0])
    x0 = log.p[0] - log.p[0].mean(axis=0)
    d0 = stats0.radius
    lam0 = stats0.lambda_min
    for k in range(len(log)):
        xk = log.p[k] - log.p[k].mean(axis=0)
        eps = float(np.max(np.linalg.norm(xk - x0, axis=1)))
        floor = lam0 - (2.0 * d0 * eps + eps * eps)
        assert log.lambda_min[k] >= floor - 1e-9


def test_c6_low_gain_still_nondegenerate(fig2_run_k1):
    # observation check: the planned gain is sufficient, not necessary
    log = fig2_run_k1
    assert log.k_w < 1.0  # k1 regime, far below k2
    assert log.lambda_min[-1] > 0.0


def test_c7_source_seeking_approach(fig3_run):
    log = fig3_run
    s, dt = log.config.speed, log.config.dt
    mu_star = log.config.controller.mu_star
    mu, dist = log.mu, log.dist_to_source
    allin = np.nonzero((mu <= mu_star).all(axis=1))[0]
    assert allin.size, "agents never all aligned within mu_star"
    reached = False
    for k in range(int(allin[0]), len(log) - 1):
        radius_k = deployment_stats(log.p[k]).radius
        if dist[k] <= 2.0 * radius_k:
            reached = True
            break
        assert dist[k + 1] - dist[k] <= s * dt + 1e-12, f"increase at step {k}"
    assert reached, "centroid never came within 2D of the source"


def test_c8_kernel_property_suite():
    n = 10_000
    worst_rt = worst_ord = worst_ad = worst_skew = worst_b = 0.0
    for _ in range(n):
        tau = random_rotvec(RNG, np.pi - 0.1)
        worst_rt = max(worst_rt, float(np.linalg.norm(log_so3(exp_so3(tau)) - tau)))
    for _ in range(n):
        r1 = exp_so3(random_rotvec(RNG, np.pi - 0.05))
        r2 = r1 @ exp_so3(random_rotvec(RNG, np.pi - 0.05))  # relative angle < pi
        dg, dl, df = dist_geodesic(r1, r2), dist_log(r1, r2), dist_frobenius(r1, r2)
        worst_ord = max(worst_ord, abs(dl - np.sqrt(2) * dg), df - dl)
    for _ in range(n):
        r = exp_so3(random_rotvec(RNG, np.pi - 0.05))
        w1, w2, w3 = (hat(RNG.normal(size=3)) for _ in range(3))
        lhs = np.trace(adjoint_rotate(r, w1).T @ adjoint_rotate(r, w2))
        worst_ad = max(worst_ad, abs(lhs - np.trace(w1.T @ w2)))
        sk = np.trace(lie_bracket(w1, w2).T @ w3) + np.trace(w2.T @ lie_bracket(w1, w3))
        worst_skew = max(worst_skew, abs(sk))
    h = 1e-6
    for _ in range(n):
        tau = random_rotvec(RNG, 2.5)
        w = RNG.normal(size=3)
        r = exp_so3(tau)
        fd = (log_so3(r @ exp_so3(h * w)) - log_so3(r @ exp_so3(-h * w))) / (2 * h)
        b = exp_coord_derivative(tau, hat(w))
        worst_b = max(worst_b, float(np.max(np.abs(hat(fd) - b))))
    assert worst_rt < 1e-9
    assert worst_ord <= 1e-12
    assert worst_ad <= 1e-10
    assert worst_skew <= 1e-10
    assert worst_b <= 1e-4

    specs = [
        FieldSpec(kind="gaussian", source=[1.0, -2.0, 0.5], amplitude=3.0, width=[2.0, 1.5, 3.0]),
        FieldSpec(kind="quadratic", source=[0.0, 1.0, 0.0], amplitude=60.0,
                  curvature=[0.3, 0.2, 0.4], domain_radius=10.0),
        FieldSpec(
            kind="sum_of_gaussians", source=[0.0, 0.0, 0.0],
            components=(
                {"source": [0.0, 0.0, 0.0], "amplitude": 5.0, "width": 3.0},
                {"source": [1.0, 0.5, -0.5], "amplitude": 0.5, "width": 4.0},
            ),
        ),
    ]
    hg = 1e-5
    worst_fd = 0.0
    for spec in specs:
        for _ in range(n // len(specs)):
            p = np.asarray(spec.source) + RNG.uniform(-4, 4, size=3)
            g = field_gradient(spec, p)
            fd = np.empty(3)
            for a in range(3):
                e = np.zeros(3)
                e[a] = hg
                fd[a] = (field_eval(spec, p + e) - field_eval(spec, p - e)) / (2 * hg)
            worst_fd = max(worst_fd, np.linalg.norm(fd - g) / max(1e-12, np.linalg.norm(g)))
    assert worst_fd <= 1e-6
