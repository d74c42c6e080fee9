import dataclasses
import json
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmso3 import (
    AttitudeInitSpec,
    ControllerConfig,
    DesiredAttitudeRate,
    DesiredAttitudeTrajectory,
    FieldSpec,
    NearPiSingularity,
    PlacementSpec,
    RobotState,
    SimConfig,
    advance_desired,
    attitude_error,
    control_known_ff,
    exp_so3,
    hat,
    heading_alignment_delta,
    project_to_so3,
    run,
    step_agent,
)
from swarmso3 import so3, validate
from swarmso3.deployment import deployment_stats
from swarmso3.reporting import summarize, write_step_table
from swarmso3.scenario import parse_scenario, scenario_to_config
from swarmso3 import sim
from swarmso3.sim import (
    BLOCK_BYTES, _derived, _diameter, _initial_conditions, _scan, reference_body_rates,
    weyl_floor_violation,
)

RNG = np.random.default_rng(55)


def test_step_agent_zero_rate_moves_straight():
    state = RobotState(p=[1.0, 2.0, 3.0], r=np.eye(3))
    out = step_agent(state, np.zeros((3, 3)), s=2.0, dt=0.5)
    assert np.array_equal(out.r, np.eye(3))
    assert np.allclose(out.p, [2.0, 2.0, 3.0])


def test_step_agent_constant_speed():
    state = RobotState(p=np.zeros(3), r=exp_so3(RNG.normal(size=3) * 0.5))
    s, dt = 1.7, 0.01
    for _ in range(100):
        new = step_agent(state, hat(RNG.normal(size=3)), s, dt)
        assert np.linalg.norm(new.p - state.p) == pytest.approx(s * dt, abs=1e-12)
        state = new


def test_step_agent_circular_motion():
    # constant yaw rate: planar circle of radius s / w
    s, w, dt = 2.0, 0.5, 0.001
    state = RobotState(p=np.zeros(3), r=np.eye(3))
    omega = hat([0.0, 0.0, w])
    pts = [state.p]
    n = int(round(2 * np.pi / w / dt))
    for _ in range(n):
        state = step_agent(state, omega, s, dt)
        pts.append(state.p)
    pts = np.asarray(pts)
    assert np.max(np.abs(pts[:, 2])) < 1e-12
    center = pts[:-1].mean(axis=0)
    radii = np.linalg.norm(pts - center, axis=1)
    assert radii.mean() == pytest.approx(s / w, rel=1e-5)
    assert radii.std() < 1e-3  # closure error of the rounded step count


def test_long_run_orthonormality():
    # exponential steps keep R in SO(3); periodic projection erases the
    # product roundoff accumulation
    steps = 100_000
    cfg = SimConfig(
        n_agents=1, speed=1.0, dt=1e-4, t_end=steps * 1e-4, seed=0,
        controller=ControllerConfig(k_w=0.5, delta_star=1.0),
        trajectory=DesiredAttitudeTrajectory(
            mode="prescribed", r_d=np.eye(3),
            omega_known=[0.9, -0.4, 0.3], omega_unknown=[0, 0, 0],
        ),
        placement=PlacementSpec(kind="explicit", positions=np.zeros((1, 3))),
        attitudes=AttitudeInitSpec(kind="ball", radius=1.0),
    )
    log = run(cfg)
    r = log.r[-1, 0]
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9


_E1 = np.array([1.0, 0.0, 0.0])
_EXACT = np.array([0.5, 0.5, np.sqrt(0.5)])  # unit, with exact pairwise products


@pytest.mark.parametrize(
    "heading, target, expected, atol",
    [
        (_EXACT, _EXACT, np.eye(3), 0.0),
        (_E1, np.array([0.0, 1.0, 0.0]), exp_so3([0.0, 0.0, np.pi / 2]), 1e-15),
        (_E1, -_E1, None, None),
    ],
    ids=["fixed-point", "quarter-turn", "antipodal"],
)
def test_turn_is_the_minimal_rotation(heading, target, expected, atol):
    # the heading turn of source-seeking: I when the heading is already on
    # target, the rotation about the mutual normal by the angle between
    # them, and none for an antipodal target
    q = sim._turn(heading, target)
    if expected is None:
        assert q is None
        return
    assert np.allclose(q, expected, rtol=0.0, atol=atol)
    assert np.allclose(q @ heading, target, rtol=0.0, atol=atol)
    assert attitude_error(np.eye(3), q).mu == pytest.approx(
        heading_alignment_delta(heading, target), abs=1e-12
    )


def test_advance_desired_zero_rates():
    traj = DesiredAttitudeTrajectory(
        mode="prescribed", r_d=exp_so3([0.1, 0.2, 0.3]),
        omega_known=[0, 0, 0], omega_unknown=[0, 0, 0],
    )
    out = advance_desired(traj, 0.01)
    assert np.array_equal(out.r_d, traj.r_d)


def test_advance_desired_declared_unknown_norm():
    traj = DesiredAttitudeTrajectory(
        mode="prescribed", r_d=np.eye(3),
        omega_known=[np.pi / 2, 0, 0], omega_unknown=[0, 0, -np.pi / 20],
        omega_max_declared=np.pi / 20,
    )
    assert np.linalg.norm(traj.omega_unknown) == pytest.approx(traj.omega_max_declared)
    out = advance_desired(traj, 0.01)
    assert not np.array_equal(out.r_d, traj.r_d)


def _seek_config(**overrides):
    base = dict(
        n_agents=6, speed=1.0, dt=0.01, t_end=3.0, seed=4,
        controller=ControllerConfig(k_w=2.0, delta_star=0.4),
        trajectory=DesiredAttitudeTrajectory(
            mode="source-seeking", r_d=np.eye(3),
            omega_known=[0.0, 0.0, 0.0], omega_unknown=[0, 0, 0],
            omega_max_declared=0.5,
        ),
        placement=PlacementSpec(kind="ball", radius=1.5),
        attitudes=AttitudeInitSpec(kind="ball", radius=1.0),
        field=FieldSpec(kind="gaussian", source=[400.0, 250.0, 120.0],
                        amplitude=10.0, width=20000.0),
        rate_frame="body",
    )
    base.update(overrides)
    return SimConfig(**base)


def test_source_seek_near_linear_field_keeps_heading_constant():
    # near-linear regime: isotropic covariance (symmetric octahedron)
    # makes the estimate parallel to the gradient, so the swarm moves
    # radially toward a distant source and, once the transient is over
    # and the deployment translates rigidly, the target heading freezes
    octa = 1.5 * np.array(
        [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]]
    )
    log = run(
        _seek_config(
            t_end=8.0,
            placement=PlacementSpec(kind="explicit", positions=octa),
            field=FieldSpec(
                kind="gaussian", source=[4000.0, 2500.0, 1200.0],
                amplitude=10.0, width=20000.0,
            ),
        )
    )
    tail = slice(3 * len(log) // 4, None)
    md = log.r_d[:, :, 0]
    drift = np.linalg.norm(md[tail] - md[-1], axis=1).max()
    assert drift < 1e-3
    assert log.unknown_rate[tail].max() < 1e-2
    assert log.hold_flag.sum() == 0


def test_source_seek_hold_policy_on_degenerate_estimate():
    # symmetric deployment centered on the source: every sample is equal,
    # the estimate vanishes, and the previous heading is held
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                    [0, 0, 1.0], [0, 0, -1.0]])
    cfg = _seek_config(
        n_agents=6,
        t_end=0.05,
        placement=PlacementSpec(kind="explicit", positions=pts),
        attitudes=AttitudeInitSpec(kind="aligned"),
        field=FieldSpec(kind="quadratic", source=[0.0, 0.0, 0.0], amplitude=50.0,
                        curvature=[1.0, 1.0, 1.0], domain_radius=5.0),
    )
    log = run(cfg)
    assert log.hold_flag[0] == 1
    assert np.allclose(log.r_d[0], np.eye(3))


def test_run_determinism_bytes(tmp_path):
    cfg = _seek_config(t_end=1.0)
    write_step_table(run(cfg), tmp_path / "a.csv")
    write_step_table(run(cfg), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_aborts_on_initial_antipode():
    flipped = np.diag([1.0, -1.0, -1.0])
    cfg = SimConfig(
        n_agents=1, speed=1.0, dt=0.01, t_end=1.0, seed=0,
        controller=ControllerConfig(k_w=1.0, delta_star=0.4),
        trajectory=DesiredAttitudeTrajectory(
            mode="constant", r_d=np.eye(3),
            omega_known=[0, 0, 0], omega_unknown=[0, 0, 0],
        ),
        placement=PlacementSpec(kind="explicit", positions=np.zeros((1, 3))),
        attitudes=AttitudeInitSpec(kind="explicit", matrices=flipped[None]),
    )
    with pytest.raises(NearPiSingularity) as exc_info:
        run(cfg)
    assert len(exc_info.value.partial_log) == 0
    with pytest.raises(ValueError, match="without records"):
        summarize(exc_info.value.partial_log)


def test_constant_mode_is_prescribed_with_zero_rates():
    # constant has no code path of its own: prop1_smoke (a constant
    # reference) run as prescribed with the same zero rates logs the
    # same bits in every column
    text = resources.files("swarmso3").joinpath("scenarios", "prop1_smoke.scenario")
    cfg = scenario_to_config(parse_scenario(text.read_text(encoding="utf-8")))
    assert cfg.trajectory.mode == "constant"
    prescribed = dataclasses.replace(
        cfg, trajectory=dataclasses.replace(cfg.trajectory, mode="prescribed")
    )
    a, b = run(cfg), run(prescribed)
    for name in ("t", "p", "r", "r_d", "mu", "delta", "lambda_min", "sigma_centroid",
                 "dist_to_source", "max_pair_disp", "unknown_rate", "hold_flag",
                 "rate_violation"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_per_step_error_decrease_above_band():
    omega_max = np.pi / 20
    k_w = np.sqrt(2) * omega_max / 0.4
    cfg = SimConfig(
        n_agents=3, speed=0.6, dt=0.01, t_end=15.0, seed=2,
        controller=ControllerConfig(k_w=k_w, delta_star=0.4),
        trajectory=DesiredAttitudeTrajectory(
            mode="prescribed", r_d=np.eye(3),
            omega_known=[np.pi / 2, 0, 0], omega_unknown=[0, 0, -omega_max],
            omega_max_declared=omega_max,
        ),
        placement=PlacementSpec(kind="ball", radius=2.0),
        attitudes=AttitudeInitSpec(kind="ball", radius=2.5),
    )
    log = run(cfg)
    mu = log.mu
    above = mu[:-1] > 0.4 + 0.05
    diffs = np.diff(mu, axis=0)
    assert np.all(diffs[above] < 0.0)


@pytest.mark.parametrize("k_w_dt", [0.01, 0.1, 0.5, 0.9, 1.5])
def test_constant_mode_contracts_by_one_minus_k_w_dt(k_w_dt):
    # With r_d = I each step turns R by exp(-k_w dt log R) about its own
    # axis, so mu_{k+1} = |1 - k_w dt| mu_k exactly, not exp(-k_w dt) mu_k.
    # Roundoff: the new attitude's entries take 6 roundings (two 3-term
    # products) and its angle 4 more, each of the size of the entries:
    # mu_k in the skew part, and the drift d_k = ||R^T R - I||_F of R from
    # SO(3) in the symmetric part. mu_k carries as many roundings, so the
    # ratio is off by at most 20 eps (mu_k + d_k) / mu_k. The drift term
    # matters once mu_k nears eps, as at k_w dt = 0.9 (mu_20 ~ 6e-21).
    text = resources.files("swarmso3").joinpath("scenarios", "prop1_smoke.scenario")
    cfg = scenario_to_config(parse_scenario(text.read_text(encoding="utf-8")))
    cfg = dataclasses.replace(
        cfg, t_end=20 * cfg.dt,
        controller=dataclasses.replace(cfg.controller, k_w=k_w_dt / cfg.dt),
    )
    log = run(cfg)
    mu, drift = log.mu[:, 0], so3._drift(log.r[:, 0])
    ratio = mu[1:] / mu[:-1]
    tol = 20 * np.finfo(float).eps * (1.0 + drift[:-1] / mu[:-1])
    assert np.all(np.abs(ratio - abs(1.0 - k_w_dt)) <= tol)


def test_dt_refinement_first_order():
    def final_mu(dt):
        cfg = _seek_config(dt=dt, t_end=2.0)
        return run(cfg).mu[-1]

    e1 = np.abs(final_mu(0.02) - final_mu(0.01)).max()
    e2 = np.abs(final_mu(0.01) - final_mu(0.005)).max()
    assert e2 < 0.75 * e1 or e1 < 1e-10


def test_record_fields_populated():
    log = run(_seek_config(t_end=0.5))
    assert len(log) == 51
    assert np.all(np.diff(log.t) > 0)
    assert log.p[10].shape == (6, 3)
    assert log.r[10].shape == (6, 3, 3)
    assert np.isfinite(log.lambda_min[10])
    assert np.isfinite(log.sigma_centroid[10])
    assert np.isfinite(log.dist_to_source[10])
    assert np.isfinite(log.max_pair_disp[10])
    assert log.t[-1] == pytest.approx(0.5)


def _replay(log, n_steps, rate_frame):
    """Re-run the first n_steps through the public per-step API."""
    cfg = log.config
    states = [RobotState(p=log.p[0, i], r=log.r[0, i]) for i in range(cfg.n_agents)]
    traj = DesiredAttitudeTrajectory(
        mode=cfg.trajectory.mode,
        r_d=log.r_d[0],
        omega_known=cfg.trajectory.omega_known,
        omega_unknown=cfg.trajectory.omega_unknown,
        omega_max_declared=cfg.trajectory.omega_max_declared,
    )
    for k in range(n_steps):
        rate = DesiredAttitudeRate(
            known=hat(_known_body(traj, rate_frame)),
            unknown_bound=traj.omega_max_declared,
        )
        new_states = []
        for st in states:
            err = attitude_error(traj.r_d, st.r)
            omega = control_known_ff(err.r_e, rate, log.k_w)
            new_states.append(step_agent(st, omega, cfg.speed, cfg.dt))
        states = new_states
        positions = np.array([st.p for st in states])
        traj = advance_desired(
            traj, cfg.dt, rate_frame=rate_frame, positions=positions, field=cfg.field
        )
    return states, traj


def _known_body(traj, rate_frame):
    from swarmso3.sim import reference_body_rates

    wk, _ = reference_body_rates(traj, rate_frame)
    return wk


@pytest.mark.parametrize(
    "mode, frame",
    [
        ("prescribed", "literal"),
        ("source-seeking", "body"),
        ("prescribed", "body"),
        ("source-seeking", "literal"),
    ],
    # the first two ids predate the frame parameter
    ids=["prescribed", "source-seeking", "prescribed-body", "source-seeking-literal"],
)
def test_kernel_loop_matches_public_step_api(mode, frame):
    if mode == "prescribed":
        cfg = SimConfig(
            n_agents=3, speed=0.8, dt=0.01, t_end=0.5, seed=9,
            controller=ControllerConfig(k_w=1.1, delta_star=0.4),
            trajectory=DesiredAttitudeTrajectory(
                mode="prescribed", r_d=exp_so3([0.1, -0.2, 0.3]),
                omega_known=[0.5, 0.1, -0.2], omega_unknown=[0.05, 0, 0.1],
                omega_max_declared=0.2,
            ),
            placement=PlacementSpec(kind="ball", radius=1.0),
            attitudes=AttitudeInitSpec(kind="ball", radius=1.5),
            rate_frame=frame,
        )
    else:
        cfg = _seek_config(t_end=0.5, rate_frame=frame, trajectory=DesiredAttitudeTrajectory(
            mode="source-seeking", r_d=np.eye(3),
            omega_known=[0.6, 0.0, 0.0], omega_unknown=[0, 0, 0],
            omega_max_declared=0.5,
        ))
    log = run(cfg)
    n_steps = 20
    states, traj = _replay(log, n_steps, frame)
    for i, st in enumerate(states):
        assert np.max(np.abs(st.p - log.p[n_steps, i])) < 1e-10
        assert np.max(np.abs(st.r - log.r[n_steps, i])) < 1e-10
    assert np.max(np.abs(traj.r_d - log.r_d[n_steps])) < 1e-10


PARITY_SEED = Path(__file__).resolve().parent / "data" / "parity_seed.json"


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_run_matches_parity_seed(name):
    # parity_seed.json holds the first 21 records of each bundled scenario
    # at its default seed, as logged by the earlier scalar implementation
    seed = json.loads(PARITY_SEED.read_text())[name]
    text = resources.files("swarmso3").joinpath("scenarios", f"{name}.scenario")
    cfg = scenario_to_config(parse_scenario(text.read_text(encoding="utf-8")))
    log = run(dataclasses.replace(cfg, t_end=20 * cfg.dt))
    got = {
        "p": log.p, "r": log.r, "r_d": log.r_d, "mu": log.mu, "delta": log.delta,
        "lambda_min": log.lambda_min, "max_pair_disp": log.max_pair_disp,
        "hold": log.hold_flag,
        # the realized turn angle: the rate is that angle over dt, and the
        # seed's angles carry the old arccos rounding (~1e-12 rad here)
        "unknown_rate": log.unknown_rate * cfg.dt,
    }
    for key, value in got.items():
        ref = np.asarray(seed[key], dtype=float)
        if key == "unknown_rate":
            ref = ref * cfg.dt
        assert value.shape == ref.shape, key
        assert np.max(np.abs(value - ref)) < 1e-10, key


def test_horizon_must_be_a_whole_number_of_steps():
    cfg = _seek_config(t_end=1.0, dt=0.1)
    assert cfg.n_steps == 10
    with pytest.raises(ValueError, match="whole number of steps"):
        _seek_config(t_end=1.0, dt=0.3)


def _octahedron(center, a=1.0):
    return np.asarray(center) + a * np.vstack([np.eye(3), -np.eye(3)])


def test_advance_desired_holds_last_target_after_antipodal_step():
    # the known yaw moves the reference heading off the last target; an
    # antipodal estimate then applies no turn, and a vanishing one must
    # steer back to the last applied target (the simulator's rule), not to
    # the spun heading
    dt = 0.1
    traj = DesiredAttitudeTrajectory(
        mode="source-seeking", r_d=np.eye(3),
        omega_known=[0.0, 0.0, 1.0], omega_unknown=[0, 0, 0],
    )
    spun = exp_so3([0.0, 0.0, dt])
    behind = -5.0 * spun[:, 0]
    field = FieldSpec(kind="quadratic", source=behind, amplitude=1000.0,
                      curvature=[1.0, 1.0, 1.0], domain_radius=10.0)
    out = advance_desired(traj, dt, "body", _octahedron([0.0, 0.0, 0.0]), field)
    assert np.allclose(out.r_d, spun, atol=1e-15)
    out = advance_desired(out, dt, "body", _octahedron(behind), field)
    assert np.allclose(out.r_d[:, 0], [1.0, 0.0, 0.0], atol=1e-12)


def test_advance_desired_rejects_bad_positions():
    # the same checks, with the same messages, as deployment_stats
    traj = DesiredAttitudeTrajectory(mode="source-seeking")
    field = FieldSpec(kind="quadratic", source=[5.0, 0.0, 0.0], amplitude=1000.0,
                      curvature=[1.0, 1.0, 1.0], domain_radius=10.0)
    bad = _octahedron([0.0, 0.0, 0.0])
    bad[2, 1] = np.inf
    with pytest.raises(ValueError, match="positions must be finite"):
        advance_desired(traj, 0.1, "body", bad, field)
    for shape in ((6, 2), (3,), (0, 3)):
        with pytest.raises(ValueError, match=r"non-empty \(N, 3\) array"):
            advance_desired(traj, 0.1, "body", np.zeros(shape), field)


def test_weyl_floor_violation_matches_per_step_bound():
    log = run(_seek_config(t_end=0.5))
    stats0 = deployment_stats(log.p[0])
    x0 = log.p[0] - log.p[0].mean(axis=0)
    worst = -np.inf
    for k in range(len(log)):
        eps = np.max(np.linalg.norm(log.p[k] - log.p[k].mean(axis=0) - x0, axis=1))
        floor = stats0.lambda_min - (2.0 * stats0.radius * eps + eps**2)
        worst = max(worst, floor - log.lambda_min[k])
    assert abs(weyl_floor_violation(log.p, log.lambda_min) - worst) < 1e-12


def test_weyl_floor_violation_walks_the_log_in_blocks():
    # fig3 at N=200 for 201 records: the blocked walk needs less extra
    # memory than the 0.96 MB position log itself, and gives the bits of
    # the formula over the whole log at once
    log = run(_fig3(n_agents=200, t_end=200 * 0.005))
    x = log.p - log.p.mean(axis=1, keepdims=True)
    eps = np.sqrt(np.max(np.sum((x - x[0]) ** 2, axis=2), axis=1))
    stats0 = deployment_stats(log.p[0])
    whole = float(np.max(stats0.lambda_min - (2.0 * stats0.radius * eps + eps * eps)
                         - log.lambda_min))
    tracemalloc.start()
    try:
        got = weyl_floor_violation(log.p, log.lambda_min)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == whole
    assert log.p.nbytes > 0.9e6 and peak < log.p.nbytes


@pytest.mark.parametrize("block_bytes", [1 << 20, 24 * 7])
def test_pair_displacement_is_diameter_of_offsets(block_bytes):
    # max_ij ||(p_i - p_j) - (p_i0 - p_j0)|| by brute force over pairs,
    # against the blocked diameter of u_i = p_i - p_i0 (several row blocks
    # when block_bytes is small), for one (N, 3) step and for a
    # (steps, N, 3) stack of them
    p0 = RNG.normal(size=(23, 3)) * 3.0
    for lead in [(), (4,)]:
        p = p0 + RNG.normal(size=lead + (23, 3))
        got = _diameter(p - p0, block_bytes)
        assert got.shape == lead
        for idx in np.ndindex(*lead):
            pairs = [
                np.linalg.norm((p[idx][i] - p[idx][j]) - (p0[i] - p0[j]))
                for i in range(23) for j in range(i + 1, 23)
            ]
            assert got[idx] == pytest.approx(max(pairs), rel=1e-14)
        assert np.array_equal(_diameter(p[..., :1, :] - p0[:1], block_bytes), np.zeros(lead))


def _pairs_by_rows(u):
    """max_{i<j} ||u_i - u_j|| of u (..., N, 3) one row at a time, each
    length summed over a (..., 3) last axis: the form `_scan`'s
    coordinate planes must reproduce bit for bit."""
    worst = np.zeros(u.shape[:-2])
    for i in range(u.shape[-2] - 1):
        d = u[..., i, None, :] - u[..., i + 1 :, :]
        worst = np.maximum(worst, (d * d).sum(axis=-1).max(axis=-1))
    return np.sqrt(worst)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    lead=st.lists(st.integers(1, 3), max_size=2),
    shape=st.sampled_from(["normal", "sphere", "duplicates", "collinear", "anisotropic"]),
    exponent=st.integers(-100, 100),
    flat=st.booleans(),
    nan=st.booleans(),
    block_bytes=st.sampled_from([1 << 20, 24 * 7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_diameter_is_bitwise_the_full_scan(
    n, lead, shape, exponent, flat, nan, block_bytes, seed
):
    # on a sphere every row is a candidate; duplicated and collinear rows
    # tie; `flat` makes the first step (or the only one) all one row, a
    # zero-spread step stacked with the others; `nan` puts a nan in the
    # last step. The full scan itself is pinned to the row-by-row form.
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(*lead, n, 3))
    if shape == "sphere":
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
    elif shape == "duplicates":
        u = u[..., rng.integers(0, max(1, n // 3), size=n), :]
    elif shape == "collinear":
        u = rng.normal(size=(*lead, n, 1)) * rng.normal(size=3) + rng.normal(size=3)
    elif shape == "anisotropic":
        u *= [1e3, 1.0, 1e-3]
    u *= 10.0**exponent
    first = (0,) * len(lead)
    if flat:
        u[first] = u[first][0]
    if nan:
        u[(-1,) * len(lead) + (rng.integers(n), rng.integers(3))] = np.nan
    got = _diameter(u, block_bytes)
    assert np.array_equal(got, _scan(u, block_bytes), equal_nan=True)
    assert np.array_equal(got, _pairs_by_rows(u), equal_nan=True)
    if flat and not (nan and first == tuple(d - 1 for d in lead)):
        assert got[first] == 0.0


def test_pruned_diameter_keeps_every_row_when_the_bounds_overflow():
    # coordinates near 1e154 overflow r and L, and a nan or an inf makes
    # them nan; such a step scans all rows, in their given order: with
    # small blocks, an inf row's self-pair (inf - inf = nan) is formed
    # unless it is the last row, so the order decides between nan and inf
    rng = np.random.default_rng(8)
    u = rng.normal(size=(3, 40, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in (1e154, 1e200, 1e308):
            assert np.array_equal(_diameter(u * scale), _scan(u * scale), equal_nan=True)
        for block_bytes in (1 << 20, 24 * 7):
            for row in range(3):
                v = np.zeros((3, 3))
                v[:, 0] = np.roll([0.0, 1.0, np.inf], row)
                assert np.array_equal(_diameter(v, block_bytes), _scan(v, block_bytes), equal_nan=True)
                w = u.copy()
                w[1, 13 * row] = np.inf
                assert np.array_equal(_diameter(w, block_bytes), _scan(w, block_bytes), equal_nan=True)
        u[1, 7, 2] = np.nan
        assert np.array_equal(_diameter(u), _scan(u), equal_nan=True)


def test_scan_memory_is_one_block_beyond_the_rows():
    # 2 000 rows: the block's two (rows, N) coordinate planes fit
    # BLOCK_BYTES; the planes' copy of u is O(N), and numpy's ufunc
    # buffers (two of getbufsize() doubles) are a constant
    u = RNG.normal(size=(2000, 3))
    tracemalloc.start()
    try:
        got = _scan(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == _pairs_by_rows(u)
    assert peak <= BLOCK_BYTES + 32 * len(u) + 16 * np.getbufsize()


def test_derived_memory_does_not_grow_with_the_steps():
    # fig3's dynamics at N=300, where a block is one step: beyond its seven
    # outputs, _derived needs one block's temporaries whatever the length
    # of the log, far below the 2.7 MB position log at 400 steps
    log = run(_fig3(n_agents=300, t_end=400 * 0.005))
    pre = _pre_turn_references(log)[:, :, 0]
    extra = {}
    for m in (10, 400):
        tracemalloc.start()
        try:
            out = _derived(log.config, log.p[:m], log.r[:m], log.r_d[:m], pre[:m])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra[m] = peak - sum(a.nbytes for a in out)
    # the margin: the turn rate and its flags are formed over the whole
    # log at once, a few (M, 3) and (M,) temporaries, under 64 bytes a step
    assert extra[400] <= extra[10] + 64 * 390
    assert log.p[:400].nbytes > 2.7e6 and extra[400] < log.p[:400].nbytes / 8


def test_max_pair_disp_at_n3000_is_the_full_scan():
    # fig3's swarm at N=3 000 for 4 steps, the swarm-scale workload's
    # dynamics: every logged value equals the unpruned kernel on that
    # step's offsets
    log = run(_fig3(n_agents=3000, t_end=4 * 0.005))
    assert np.array_equal(log.max_pair_disp, _scan(log.p - log.p[0]))
    assert log.max_pair_disp[-1] > 0.0


def _fig3(**changes):
    text = resources.files("swarmso3").joinpath("scenarios", "fig3.scenario")
    cfg = scenario_to_config(parse_scenario(text.read_text(encoding="utf-8")))
    return dataclasses.replace(cfg, **changes)


def _aborted_fig3():
    # fig3 at seed 24: agent 0's error reaches the log singularity at step 1523
    with pytest.raises(NearPiSingularity) as exc_info:
        run(_fig3(seed=24))
    return exc_info.value.partial_log


def _pre_turn_references(log):
    """The reference before each step's heading turn, by the public API:
    the last stored reference after its designed spin, projected onto
    SO(3) where `run` projects."""
    cfg = log.config
    pre = np.empty_like(log.r_d)
    pre[0] = cfg.trajectory.r_d
    for k in range(1, len(log)):
        traj = dataclasses.replace(cfg.trajectory, r_d=log.r_d[k - 1])
        wk, _ = reference_body_rates(traj, cfg.rate_frame)
        pre[k] = log.r_d[k - 1] @ exp_so3(cfg.dt * wk)
        if k % sim.PROJECT_EVERY == 0:
            pre[k] = project_to_so3(pre[k])
    return pre


@pytest.mark.parametrize(
    "make_log",
    [
        lambda: validate._closed_loop_log(1.0),
        lambda: run(_fig3(t_end=0.5)),
        _aborted_fig3,
    ],
    ids=["validate-prescribed", "fig3-short", "fig3-aborted"],
)
def test_log_only_columns_equal_the_public_functions(make_log):
    # the post-pass fills these columns from stacked calls; each value
    # must have the bits the per-step public functions give, each turn
    # rate those of the heading angle across the step's turn
    log = make_log()
    cfg = log.config
    assert len(log) > 100
    if cfg.trajectory.mode == "source-seeking":
        assert log.unknown_rate[0] == 0.0
        pre = _pre_turn_references(log)
        for k in range(1, len(log)):
            rate = heading_alignment_delta(pre[k][:, 0], log.r_d[k][:, 0]) / cfg.dt
            assert log.unknown_rate[k] == rate, k
            if k % sim.PROJECT_EVERY == 0:
                continue  # advance_desired does not project
            # the public step turns the reference as the loop did
            traj = advance_desired(
                dataclasses.replace(cfg.trajectory, r_d=log.r_d[k - 1]), cfg.dt,
                cfg.rate_frame, positions=log.p[k], field=cfg.field,
            )
            assert np.allclose(traj.r_d, log.r_d[k], rtol=0.0, atol=1e-13), k
    else:
        assert (log.unknown_rate == np.linalg.norm(cfg.trajectory.omega_unknown)).all()
    for k in range(len(log)):
        stats = deployment_stats(log.p[k])
        assert log.lambda_min[k] == stats.lambda_min, k
        assert log.max_pair_disp[k] == _diameter(log.p[k] - log.p[0]), k
        for i in range(cfg.n_agents):
            delta = heading_alignment_delta(log.r[k, i, :, 0], log.r_d[k, :, 0])
            assert log.delta[k, i] == delta, (k, i)
        if cfg.field is None:
            assert np.isnan(log.sigma_centroid[k]) and np.isnan(log.dist_to_source[k])
        else:
            assert log.sigma_centroid[k] == cfg.field.values(stats.centroid), k
            dist = np.linalg.norm(stats.centroid - cfg.field.source)
            assert log.dist_to_source[k] == dist, k
        violation = log.unknown_rate[k] > cfg.trajectory.omega_max_declared + 1e-12
        assert log.rate_violation[k] == violation, k


def test_antipodal_step_records_a_hold_and_no_turn(monkeypatch):
    # the estimate points against the heading at step 5 only: the loop
    # applies no turn there, so the step is held and its turn rate is
    # exactly 0, not the log of a rotation that happens to round to I.
    # With no known rate the spin is exactly I, so step 5's pre-turn
    # heading is the first column of the unpatched run's r_d at step 4.
    cfg = _seek_config(t_end=0.1)
    free = run(cfg)
    step, calls = 5, []
    heading = sim._heading

    def against_the_heading(ell, eps_norm):
        calls.append(None)
        if len(calls) == step + 1:
            return -free.r_d[step - 1, :, 0]
        return heading(ell, eps_norm)

    monkeypatch.setattr(sim, "_heading", against_the_heading)
    log = run(cfg)
    assert len(calls) == len(log)
    assert log.hold_flag[step] == 1 and log.hold_flag.sum() == 1
    assert log.unknown_rate[step] == 0.0 and log.rate_violation[step] == 0
    assert np.array_equal(log.r_d[step], free.r_d[step - 1])
    assert np.array_equal(log.r_d[:step], free.r_d[:step])
    assert (log.unknown_rate[step + 1 :] > 0.0).all()


def _huge_gain(cfg):
    return dataclasses.replace(cfg, controller=dataclasses.replace(cfg.controller, k_w=1e300))


@pytest.mark.parametrize(
    "make_config, blow_up",
    [
        (lambda: validate._closed_loop_log(0.25).config, _huge_gain),
        (_fig3, _huge_gain),
        (lambda: validate._closed_loop_log(0.25).config,
         lambda cfg: dataclasses.replace(cfg, speed=1e308)),
    ],
    ids=["validate-k_w", "fig3-k_w", "validate-speed"],
)
def test_blown_up_state_is_a_value_error(make_config, blow_up):
    # k_w = 1e300 turns every attitude into nan after one step; that is a
    # config error (exit 2), not the log singularity it also trips. At
    # speed 1e308 the positions overflow while the attitudes stay finite,
    # so only the check on the stored position log sees it.
    with pytest.raises(ValueError, match="must be finite"):
        run(blow_up(make_config()))


def test_overflowing_covariance_is_named():
    # speed 1e200 keeps the positions finite but overflows their
    # covariance; eigvalsh would fail with "Eigenvalues did not converge"
    cfg = dataclasses.replace(validate._closed_loop_log(0.25).config, speed=1e200)
    with pytest.raises(ValueError, match="covariance is not finite"):
        run(cfg)
    with pytest.raises(ValueError, match="covariance is not finite"):
        deployment_stats(RNG.normal(size=(5, 3)) * 1e160)


def test_explicit_attitudes_name_the_first_bad_index():
    mats = np.array([exp_so3(RNG.normal(size=3)) for _ in range(5)])
    mats[2] *= 1.0 + 1e-5
    mats[4] *= 1.0 + 1e-5
    with pytest.raises(ValueError, match="explicit attitude 2 is not a rotation"):
        AttitudeInitSpec(kind="explicit", matrices=mats)
    mats[[2, 4]] /= 1.0 + 1e-5
    assert AttitudeInitSpec(kind="explicit", matrices=mats).matrices.shape == (5, 3, 3)


@pytest.mark.parametrize(
    "name, spec, match",
    [
        ("placement", PlacementSpec(kind="explicit", positions=np.zeros((5, 3))),
         "explicit placement size does not match n_agents"),
        ("attitudes", AttitudeInitSpec(kind="explicit", matrices=np.tile(np.eye(3), (7, 1, 1))),
         "explicit attitude count does not match n_agents"),
    ],
    ids=["positions", "matrices"],
)
def test_explicit_count_must_match_n_agents(name, spec, match):
    with pytest.raises(ValueError, match=match):
        _seek_config(**{name: spec})
    n = len(spec.positions if name == "placement" else spec.matrices)
    assert _seek_config(n_agents=n, **{name: spec}).n_agents == n


def test_run_rejects_attitude_drift_at_a_projection(monkeypatch):
    # an integrator that scales every attitude by 1.01 per step drifts by
    # sqrt(3) (1.01^2 - 1) = 0.035 >= 1e-3; the projection after step 0
    # must name it rather than quietly map it back onto SO(3)
    move = sim._move

    def scaling_move(p, r, w, s, dt):
        p, r = move(p, r, w, s, dt)
        return p, r * 1.01

    monkeypatch.setattr(sim, "PROJECT_EVERY", 1)
    monkeypatch.setattr(sim, "_move", scaling_move)
    with pytest.raises(ValueError, match="attitudes at step 1 are not rotations.*0.0348"):
        run(_seek_config(t_end=0.05))


def _ball_attitudes_per_agent(config):
    # the per-agent loop that drew ball attitudes before they were batched
    rng = np.random.default_rng(config.seed)
    n = config.n_agents
    rng.normal(size=(n, 3)), rng.uniform(size=(n, 1))  # the ball placement
    r = np.empty((n, 3, 3))
    for i in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, config.attitudes.radius)
        r[i] = config.trajectory.r_d @ exp_so3(axis * angle)
    return r


@pytest.mark.parametrize("n", [1, 2, 7, 400])
def test_ball_attitudes_are_bitwise_a_per_agent_loop(n):
    # initial conditions do not depend on the mode; prescribed also admits n = 1
    trajectory = DesiredAttitudeTrajectory(
        mode="prescribed", r_d=exp_so3([0.3, -1.1, 0.7]), omega_max_declared=0.5
    )
    for seed in range(5):
        cfg = _seek_config(n_agents=n, seed=seed, trajectory=trajectory)
        _, r = _initial_conditions(cfg)
        assert np.array_equal(r, _ball_attitudes_per_agent(cfg))
