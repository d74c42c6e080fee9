import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmso3 import (
    NearPiSingularity,
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

RNG = np.random.default_rng(7)

E1, E2, E3 = np.eye(3)


def random_rotvec(rng, max_angle=np.pi - 0.1):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def test_hat_pattern():
    expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
    assert np.array_equal(hat([1, 2, 3]), expected)


def test_hat_zero():
    assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_acts_as_cross_product():
    assert np.allclose(hat(E1) @ E2, E3)
    for _ in range(50):
        v, u = RNG.normal(size=3), RNG.normal(size=3)
        assert np.allclose(hat(v) @ u, np.cross(v, u), atol=1e-12)


def test_vee_roundtrip():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vee(hat(v)), v)


def test_vee_zero_and_pattern():
    assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))
    s = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    assert np.array_equal(vee(s), [0, 0, 1])


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError):
        vee(np.eye(3))


def test_exp_identity():
    assert np.array_equal(exp_so3([0, 0, 0]), np.eye(3))


def test_exp_quarter_turn_about_x():
    expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.allclose(exp_so3([np.pi / 2, 0, 0]), expected, atol=1e-15)


def test_exp_small_angle_matches_power_series():
    # independent oracle: truncated matrix power series of the exponential
    for _ in range(20):
        tau = random_rotvec(RNG, 1.0) * 1e-9
        k = hat(tau)
        series = np.eye(3)
        term = np.eye(3)
        for n in range(1, 5):
            term = term @ k / n
            series = series + term
        assert np.max(np.abs(exp_so3(tau) - series)) < 1e-14


def test_exp_of_a_stack_is_exp_of_each_row_bitwise():
    # a row's exponential must not depend on its batch-mates, also when
    # the stack mixes angles below and above SMALL_ANGLE
    from swarmso3.so3 import SMALL_ANGLE, _exp

    rng = np.random.default_rng(11)
    stack = np.array([random_rotvec(rng) for _ in range(2000)])
    stack[::7] *= 1e-6 / np.linalg.norm(stack[::7], axis=1, keepdims=True)
    angles = np.linalg.norm(stack, axis=1)
    assert (angles < SMALL_ANGLE).any() and (angles >= SMALL_ANGLE).any()
    batched = _exp(stack)
    for tau, r in zip(stack, batched):
        assert exp_so3(tau).tobytes() == r.tobytes()


def test_log_identity():
    assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))


def test_log_roundtrip_quarter_turn():
    tau = np.array([0.0, 0.0, np.pi / 2])
    assert np.allclose(log_so3(exp_so3(tau)), tau, atol=1e-12)


def test_log_raises_at_half_turn():
    r = np.diag([1.0, -1.0, -1.0])  # rotation by pi about x, trace = -1
    with pytest.raises(NearPiSingularity):
        log_so3(r)
    with pytest.raises(NearPiSingularity):
        dist_log(np.eye(3), r)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
    st.floats(0.0, np.pi - 0.1),
)
def test_exp_log_roundtrip(axis, angle):
    tau = np.asarray(axis) / np.linalg.norm(axis) * angle
    back = log_so3(exp_so3(tau))
    assert np.linalg.norm(back - tau) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_group_closure(seed):
    rng = np.random.default_rng(seed)
    r = exp_so3(random_rotvec(rng)) @ exp_so3(random_rotvec(rng))
    assert is_rotation(r, tol=1e-9)


def test_dist_geodesic_same_axis_composition():
    r1, r2 = exp_so3([0.3, 0, 0]), exp_so3([0.7, 0, 0])
    assert abs(dist_geodesic(r1, r2) - 0.4) < 1e-12


def test_dist_geodesic_basic_properties():
    r = exp_so3(random_rotvec(RNG))
    q = exp_so3(random_rotvec(RNG))
    assert dist_geodesic(r, r) == 0.0
    assert abs(dist_geodesic(r, q) - dist_geodesic(q, r)) < 1e-12
    assert dist_geodesic(np.eye(3), exp_so3([0, 0, np.pi / 2])) == pytest.approx(
        np.pi / 2, abs=1e-12
    )


@pytest.mark.parametrize("theta", [1e-4, 1e-6, 1e-8])
def test_small_angles_to_full_relative_precision(theta):
    r = exp_so3([theta, 0.0, 0.0])
    assert abs(dist_geodesic(np.eye(3), r) - theta) < 1e-12 * theta
    assert abs(np.linalg.norm(log_so3(r)) - theta) < 1e-12 * theta
    assert dist_frobenius(np.eye(3), r) <= dist_log(np.eye(3), r)


def test_dist_log_is_sqrt2_times_geodesic():
    for _ in range(200):
        r1 = exp_so3(random_rotvec(RNG, np.pi - 0.05))
        r2 = r1 @ exp_so3(random_rotvec(RNG, np.pi - 0.05))  # relative angle < pi
        assert abs(dist_log(r1, r2) - np.sqrt(2) * dist_geodesic(r1, r2)) < 1e-12


def test_dist_frobenius_values():
    r = exp_so3([0, 0, np.pi / 2])
    assert dist_frobenius(r, r) == 0.0
    assert dist_frobenius(np.eye(3), r) == pytest.approx(2.0, abs=1e-12)
    # well-defined at the half turn where the log is not
    half_turn = np.diag([1.0, -1.0, -1.0])
    assert dist_frobenius(np.eye(3), half_turn) == pytest.approx(
        2 * np.sqrt(2), abs=1e-12
    )


def test_metric_ordering():
    # d_F <= sqrt(2) d_geo = d_log, with d_F = 2 sqrt(2) |sin(theta/2)|
    for _ in range(300):
        r1 = exp_so3(random_rotvec(RNG, np.pi - 0.05))
        r2 = r1 @ exp_so3(random_rotvec(RNG, np.pi - 0.05))
        theta = dist_geodesic(r1, r2)
        df = dist_frobenius(r1, r2)
        assert df <= dist_log(r1, r2) + 1e-12
        assert abs(df - 2 * np.sqrt(2) * abs(np.sin(theta / 2))) < 1e-12


def test_adjoint_identity_and_zero():
    w = hat(RNG.normal(size=3))
    assert np.allclose(adjoint_rotate(np.eye(3), w), w, atol=1e-15)
    r = exp_so3(random_rotvec(RNG))
    assert np.array_equal(adjoint_rotate(r, np.zeros((3, 3))), np.zeros((3, 3)))


def test_adjoint_vee_identity():
    for _ in range(100):
        r = exp_so3(random_rotvec(RNG))
        w = RNG.normal(size=3)
        assert np.allclose(vee(adjoint_rotate(r, hat(w))), r @ w, atol=1e-12)


def test_adjoint_preserves_trace_inner_product():
    for _ in range(200):
        r = exp_so3(random_rotvec(RNG))
        w1, w2 = hat(RNG.normal(size=3)), hat(RNG.normal(size=3))
        lhs = np.trace(adjoint_rotate(r, w1).T @ adjoint_rotate(r, w2))
        assert abs(lhs - np.trace(w1.T @ w2)) < 1e-10


def test_lie_bracket_antisymmetry_and_basis():
    w = hat(RNG.normal(size=3))
    assert np.array_equal(lie_bracket(w, w), np.zeros((3, 3)))
    assert np.allclose(lie_bracket(hat(E1), hat(E2)), hat(E3), atol=1e-15)


def test_lie_bracket_is_cross_product():
    for _ in range(100):
        w1, w2 = RNG.normal(size=3), RNG.normal(size=3)
        assert np.allclose(
            vee(lie_bracket(hat(w1), hat(w2))), np.cross(w1, w2), atol=1e-12
        )


def test_bracket_trace_skew_symmetry():
    for _ in range(200):
        w1, w2, w3 = (hat(RNG.normal(size=3)) for _ in range(3))
        lhs = np.trace(lie_bracket(w1, w2).T @ w3)
        rhs = -np.trace(w2.T @ lie_bracket(w1, w3))
        assert abs(lhs - rhs) < 1e-10


def test_hat_frobenius_norm_relation():
    for _ in range(100):
        tau = RNG.normal(size=3)
        assert abs(np.linalg.norm(hat(tau)) - np.sqrt(2) * np.linalg.norm(tau)) < 1e-12


def test_exp_coord_derivative_at_zero():
    w = hat(RNG.normal(size=3))
    assert np.allclose(exp_coord_derivative(np.zeros(3), w), w, atol=1e-15)


def test_exp_coord_derivative_along_own_axis():
    tau = random_rotvec(RNG, 2.0)
    assert np.allclose(exp_coord_derivative(tau, hat(tau)), hat(tau), atol=1e-12)


def test_exp_coord_derivative_raises_near_pi():
    tau = np.array([np.pi - 1e-9, 0.0, 0.0])
    with pytest.raises(NearPiSingularity):
        exp_coord_derivative(tau, hat(np.ones(3)))


def test_exp_coord_derivative_matches_finite_differences():
    # R(t) integrated under constant body rate; compare d(log R)/dt
    h = 1e-6
    for _ in range(50):
        tau = random_rotvec(RNG, 2.5)
        w = RNG.normal(size=3)
        r = exp_so3(tau)
        tau_plus = log_so3(r @ exp_so3(h * w))
        tau_minus = log_so3(r @ exp_so3(-h * w))
        fd = hat((tau_plus - tau_minus) / (2 * h))
        b = exp_coord_derivative(tau, hat(w))
        assert np.max(np.abs(fd - b)) < 1e-4


def test_project_to_so3_repairs_drift():
    r = exp_so3(random_rotvec(RNG))
    noisy = r + RNG.normal(size=(3, 3)) * 1e-5
    fixed = project_to_so3(noisy)
    assert is_rotation(fixed, tol=1e-12)
    assert np.max(np.abs(fixed - r)) < 1e-4


def test_project_to_so3_rejects_garbage():
    with pytest.raises(ValueError):
        project_to_so3(np.eye(3) * 2.0)


def _polar_reference(m):
    # the orthogonal polar factor of one matrix, as the simulator's
    # periodic projection computed it before it was checked
    u, _, vt = np.linalg.svd(m)
    u[:, 2] *= -1.0 if np.linalg.det(u @ vt) < 0.0 else 1.0
    return u @ vt


def test_project_to_so3_stack_is_bitwise_a_per_matrix_loop():
    stack = np.array([exp_so3(random_rotvec(RNG)) for _ in range(40)])
    stack += RNG.normal(size=stack.shape) * 1e-6
    stack[3] = np.diag([1.0, 1.0, -1.0])  # a reflection: U V^T gets flipped
    out = project_to_so3(stack)
    assert np.array_equal(out, np.array([_polar_reference(m) for m in stack]))
    assert np.array_equal(project_to_so3(stack[5]), out[5])
    assert is_rotation(out, tol=1e-12).all()


@pytest.mark.parametrize("bad", [1.01, np.nan])
def test_project_to_so3_rejects_a_stack_with_one_bad_matrix(bad):
    stack = np.array([exp_so3(random_rotvec(RNG)) for _ in range(6)])
    stack[4] *= bad
    worst = "0.0348" if bad == 1.01 else "nan"  # sqrt(3) (1.01^2 - 1)
    with pytest.raises(ValueError, match=f"up to {worst} is not below 0.001"):
        project_to_so3(stack)


def test_is_rotation_on_a_stack_equals_single_calls():
    stack = np.array([exp_so3(random_rotvec(RNG)) for _ in range(8)])
    stack[1] *= 1.0 + 1e-7
    stack[5] = np.diag([1.0, 1.0, -1.0])
    stack[6, 0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        for tol in (1e-9, 1e-6):
            got = is_rotation(stack, tol=tol)
            assert got.dtype == bool and got.shape == (8,)
            assert got.tolist() == [is_rotation(m, tol=tol) for m in stack]
        assert is_rotation(stack.reshape(2, 4, 3, 3), tol=1e-6).tolist() == [
            [True, True, True, True], [True, False, False, True]
        ]
    assert is_rotation(np.eye(4)) is False
    assert is_rotation(np.ones(3)) is False


def test_is_rotation_measures_drift_in_the_frobenius_norm():
    # R^T R - I = diag(a, -a, 0): every entry is below tol, its Frobenius
    # norm sqrt(2) a is not, and det R = sqrt(1 - a^2) is within tol of 1
    a, tol = 0.8e-6, 1e-6
    r = np.diag([np.sqrt(1.0 + a), np.sqrt(1.0 - a), 1.0])
    d = r.T @ r - np.eye(3)
    assert np.max(np.abs(d)) < tol <= np.linalg.norm(d)
    assert abs(np.linalg.det(r) - 1.0) <= tol
    assert is_rotation(r, tol=tol) is False
    assert is_rotation(r, tol=2 * tol) is True
