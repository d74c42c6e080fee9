import copy

import numpy as np
import pytest

from swarmso3 import (
    RobotState,
    attitude_error,
    exp_so3,
    hat,
    so3,
    step_agent,
    validate,
)
from swarmso3.cli import main
from swarmso3.deployment import pairwise_displacement_bound
from swarmso3.validate import check_metric_ordering, run_all

SAMPLED = (
    validate.check_roundtrip,
    validate.check_metric_ordering,
    validate.check_ad_invariance,
    validate.check_gradient_fd,
)


def test_run_all_quick_passes():
    results, ok = run_all(quick=True)
    assert ok
    names = [r[0] for r in results]
    assert "exp/log roundtrip" in names
    assert "pairwise displacement bound" in names


def test_metric_ordering_holds_at_small_angles():
    # seed 1 draws relative rotations below 1e-4 rad, where an arccos of
    # the trace was off by ~1e-11 against the check's 1e-12 tolerance
    name, _, worst, tol, passed = check_metric_ordering(10000, np.random.default_rng(1))
    assert passed, (name, worst, tol)


def _tracking_slope(ff_sign):
    """Fitted decay slope for a tracking loop with feed-forward sign +-1."""
    k_w, dt = 2.0, 0.002
    w_known = np.array([0.8, 0.0, 0.3])
    r_d = np.eye(3)
    state = RobotState(p=np.zeros(3), r=exp_so3([0.0, 1.2, 0.9]))
    ts, mus = [], []
    for k in range(3000):
        err = attitude_error(r_d, state.r)
        omega = -k_w * hat(err.tau_e) + ff_sign * (err.r_e.T @ hat(w_known) @ err.r_e)
        state = step_agent(state, omega, 0.6, dt)
        r_d = r_d @ exp_so3(dt * w_known)
        mu = attitude_error(r_d, state.r).mu
        if mu > 1e-6:
            ts.append((k + 1) * dt)
            mus.append(mu)
    return np.polyfit(ts, np.log(mus), 1)[0]


def test_sign_flipped_feed_forward_fails_decay_property():
    # deliberate fault injection: with the feed-forward term applied with
    # the wrong sign, the log-linear decay-slope property (within 2% of
    # -k_w) must fail, which is how we know the check has teeth
    good = _tracking_slope(+1.0)
    bad = _tracking_slope(-1.0)
    assert abs(good + 2.0) / 2.0 < 0.02
    assert abs(bad + 2.0) / 2.0 > 0.10


@pytest.mark.parametrize("check", SAMPLED, ids=lambda c: c.__name__)
def test_batched_checks_pass_over_seeds_and_a_partial_block(check):
    # 2 BLOCK + 17 samples: two full blocks and a partial one
    n = 2 * validate.BLOCK + 17
    for seed in range(10):
        name, samples, worst, tol, passed = check(n, np.random.default_rng(seed))
        assert passed, (name, seed, worst, tol)
        assert samples == n


def _failing(check, n=2000):
    name, samples, worst, tol, passed = check(n, np.random.default_rng(3))
    assert not passed, (name, worst, tol)
    return worst, tol


def test_scaled_log_fails_roundtrip_and_metric_ordering(monkeypatch):
    # fault injection: a log off by a relative 1e-9; metric ordering sees
    # it only because d_log goes through the log, not through sqrt(2) d_geo
    log = so3._log

    def scaled(r):
        tau, theta, ok = log(r)
        return tau * (1.0 + 1e-9), theta, ok

    monkeypatch.setattr(so3, "_log", scaled)
    worst, tol = _failing(validate.check_roundtrip)
    assert worst > 2 * tol
    worst, tol = _failing(validate.check_metric_ordering)
    assert worst > 1000 * tol


def test_transposed_adjoint_fails_ad_invariance(monkeypatch, capsys):
    # R^T W R keeps the trace inner product, so only Ad_R(hat v) = hat(R v)
    # catches it
    monkeypatch.setattr(so3, "_adjoint", lambda r, s: np.swapaxes(r, -1, -2) @ s @ r)
    worst, _ = _failing(validate.check_ad_invariance)
    assert worst > 1.0
    assert main(["validate", "--quick"]) == 1
    assert capsys.readouterr().err.strip() == "failed: Ad-invariance"


def test_sign_flipped_gradient_component_fails_gradient_check(monkeypatch):
    # injected into the built specs: a flipped FieldSpec.gradients on the
    # class would already fail the unique-maximum check at construction
    specs = validate._fd_specs()
    for spec in specs:
        object.__setattr__(
            spec, "gradients", lambda p, g=spec.gradients: g(p) * [1.0, -1.0, 1.0]
        )
    monkeypatch.setattr(validate, "_fd_specs", lambda: specs)
    worst, _ = _failing(validate.check_gradient_fd, 300)
    assert worst > 1e-3


@pytest.fixture(scope="module")
def closed_loop_log():
    return validate._closed_loop_log(0.25)


def test_lowered_lambda_min_fails_weyl_chain(closed_loop_log):
    assert validate.check_weyl_chain(closed_loop_log)[4]
    bad = copy.copy(closed_loop_log)
    # the floor is tight at step 0, where it equals the logged lambda_min
    bad.lambda_min = closed_loop_log.lambda_min - 1e-6
    name, samples, worst, tol, passed = validate.check_weyl_chain(bad)
    assert not passed and worst > 100 * tol, (name, worst, tol)
    assert samples == len(bad)


def test_displacement_over_budget_fails_displacement_check(closed_loop_log):
    assert validate.check_displacement_budget(closed_loop_log)[4]
    bad = copy.copy(closed_loop_log)
    # a k_w whose 2 pi s / k_w budget is half the largest logged displacement
    bad.k_w = 2.0 * np.pi * bad.config.speed / (0.5 * bad.max_pair_disp.max())
    name, _, worst, tol, passed = validate.check_displacement_budget(bad)
    assert tol == pairwise_displacement_bound(bad.config.speed, bad.k_w)
    assert not passed and worst > 1.9 * tol, (name, worst, tol)
