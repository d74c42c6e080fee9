from pathlib import Path

import numpy as np
import pytest

from swarmso3 import (
    AttitudeInitSpec,
    ControllerConfig,
    DesiredAttitudeRate,
    DesiredAttitudeTrajectory,
    NearPiSingularity,
    PlacementSpec,
    SimConfig,
    adjoint_rotate,
    attitude_error,
    control_known_ff,
    exp_so3,
    gain_for_bounded_rate,
    hat,
    heading_alignment_delta,
    log_so3,
    run,
    vee,
)
from swarmso3.scenario import load_scenario, scenario_to_config

RNG = np.random.default_rng(21)


def random_rotvec(rng, max_angle=np.pi - 0.1):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def random_rotation(rng, max_angle=np.pi - 0.1):
    return exp_so3(random_rotvec(rng, max_angle))


def test_attitude_error_zero():
    r = random_rotation(RNG)
    err = attitude_error(r, r)
    assert err.mu == 0.0
    assert np.array_equal(err.tau_e, np.zeros(3))


def test_attitude_error_axis_rotation():
    err = attitude_error(np.eye(3), exp_so3([0, 0, 0.4]))
    assert err.mu == pytest.approx(0.4, abs=1e-12)


def test_attitude_error_recovers_relative_rotation():
    for _ in range(50):
        r_d = random_rotation(RNG)
        tau = RNG.normal(size=3)
        tau = tau / np.linalg.norm(tau) * RNG.uniform(0.1, np.pi - 0.2)
        err = attitude_error(r_d, r_d @ exp_so3(tau))
        assert np.allclose(err.tau_e, tau, atol=1e-9)
        assert err.mu == pytest.approx(np.linalg.norm(tau), abs=1e-9)


def test_attitude_error_raises_at_antipode():
    with pytest.raises(NearPiSingularity):
        attitude_error(np.eye(3), np.diag([1.0, -1.0, -1.0]))


def test_control_known_ff_proportional_term():
    rate = DesiredAttitudeRate(known=np.zeros((3, 3)))
    out = control_known_ff(exp_so3([0, 0, 0.4]), rate, 2.0)
    assert np.allclose(vee(out), [0, 0, -0.8], atol=1e-12)


def test_control_closes_loop_to_pure_decay():
    # with the whole reference rate known, the error rate
    # Omega - Ad_{R_e^T}(Omega_d) cancels the feed-forward
    for _ in range(50):
        r_e = random_rotation(RNG)
        w_d = hat(RNG.normal(size=3))
        k_w = RNG.uniform(0.1, 5.0)
        omega = control_known_ff(r_e, DesiredAttitudeRate(known=w_d), k_w)
        w_e = omega - adjoint_rotate(r_e.T, w_d)
        assert np.allclose(w_e, -k_w * hat(log_so3(r_e)), atol=1e-13)


def test_control_known_ff_identity_error():
    w_k = hat(np.array([0.3, -0.2, 0.5]))
    rate = DesiredAttitudeRate(known=w_k, unknown_bound=0.4)
    assert np.allclose(control_known_ff(np.eye(3), rate, 1.0), w_k, atol=1e-15)


def test_gain_for_bounded_rate_values():
    assert gain_for_bounded_rate(np.pi / 20, 0.4) == pytest.approx(0.5554, abs=5e-5)
    assert gain_for_bounded_rate(0.0, 0.7) == 0.0
    assert gain_for_bounded_rate(np.pi / 4, 0.4) == pytest.approx(2.777, abs=5e-4)
    with pytest.raises(ValueError):
        gain_for_bounded_rate(1.0, 0.0)


def test_heading_alignment_delta_values():
    u = np.array([0.0, 0.6, 0.8])
    assert heading_alignment_delta(u, u) == 0.0
    assert heading_alignment_delta([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2)
    with pytest.raises(ValueError):
        heading_alignment_delta([1, 1, 0], [1, 0, 0])


@pytest.mark.parametrize("theta", [1e-4, 1e-6, 1e-8])
def test_heading_alignment_delta_small_angles(theta):
    x_b = exp_so3([0.0, 0.0, theta])[:, 0]
    assert abs(heading_alignment_delta(x_b, [1.0, 0.0, 0.0]) - theta) < 1e-12 * theta


def test_logged_delta_never_exceeds_mu_near_convergence():
    # prop1_smoke ends with mu ~ 6e-8, where an arccos angle loses half its digits
    scenarios = Path(__file__).resolve().parents[1] / "src" / "swarmso3" / "scenarios"
    log = run(scenario_to_config(load_scenario(scenarios / "prop1_smoke.scenario")))
    assert log.mu[-1, 0] < 1e-7
    assert np.all(log.delta <= log.mu * (1 + 1e-12))


def test_heading_delta_never_exceeds_attitude_error():
    for _ in range(10_000):
        r_d = random_rotation(RNG)
        r = r_d @ exp_so3(random_rotvec(RNG))
        delta = heading_alignment_delta(r[:, 0], r_d[:, 0])
        mu = attitude_error(r_d, r).mu
        assert delta <= mu + 1e-9


def _single_agent_run(k_w, mode, omega_known, omega_unknown, omega_max, t_end, dt, seed=5):
    return run(
        SimConfig(
            n_agents=1,
            speed=0.6,
            dt=dt,
            t_end=t_end,
            seed=seed,
            controller=ControllerConfig(k_w=k_w, delta_star=0.4, mu_star=0.4),
            trajectory=DesiredAttitudeTrajectory(
                mode=mode,
                r_d=np.eye(3),
                omega_known=omega_known,
                omega_unknown=omega_unknown,
                omega_max_declared=omega_max,
            ),
            placement=PlacementSpec(kind="explicit", positions=np.zeros((1, 3))),
            attitudes=AttitudeInitSpec(kind="ball", radius=2.5),
        )
    )


def test_closed_loop_decay_with_time_varying_known_reference():
    # log(mu) is affine in t with slope -k_w even for a moving reference,
    # as long as its full rate is known (zero unknown component)
    k_w = 2.0
    log = _single_agent_run(
        k_w, "prescribed", [0.7, 0.2, -0.3], [0.0, 0.0, 0.0], 0.0, 8.0, 0.005
    )
    mu = log.mu[:, 0]
    mask = mu > 1e-6
    slope = np.polyfit(log.t[mask], np.log(mu[mask]), 1)[0]
    assert abs(slope + k_w) / k_w < 0.02


def test_closed_loop_lyapunov_decay_rate():
    k_w = 1.5
    log = _single_agent_run(k_w, "constant", [0, 0, 0], [0, 0, 0], 0.0, 6.0, 0.005)
    v = log.mu[:, 0] ** 2
    mask = v > 1e-10
    slope = np.polyfit(log.t[mask], np.log(v[mask]), 1)[0]
    assert abs(slope + 2 * k_w) / (2 * k_w) < 0.02


def test_trace_guard_preserved_along_run():
    log = _single_agent_run(1.0, "constant", [0, 0, 0], [0, 0, 0], 0.0, 4.0, 0.01)
    assert np.all(log.mu < np.pi - 1e-6)
    assert log.mu[0, 0] <= 2.5 and np.all(np.diff(log.mu[:, 0]) <= 1e-12)


def test_bounded_rate_regime_settles_into_band():
    omega_max = np.pi / 20
    mu_star = 0.4
    k_w = gain_for_bounded_rate(omega_max, mu_star)
    dt = 0.01
    log = _single_agent_run(
        k_w, "prescribed", [np.pi / 2, 0, 0], [0, 0, -omega_max], omega_max, 30.0, dt
    )
    mu = log.mu[:, 0]
    above = mu > mu_star + 0.02
    # non-increasing whenever clearly above the band
    assert np.all(np.diff(mu)[above[:-1]] < 0.0)
    entered = np.nonzero(mu <= mu_star)[0]
    assert entered.size > 0
    assert np.max(mu[entered[0]:]) <= mu_star + 5 * dt * k_w
