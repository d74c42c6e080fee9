import numpy as np

from swarmso3 import (
    RobotState,
    attitude_error,
    exp_so3,
    hat,
    step_agent,
)
from swarmso3.validate import check_metric_ordering, run_all


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
