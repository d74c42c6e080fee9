"""Rotation-group numerics: hat/vee, exp/log, metrics, adjoints.

Rotations are plain 3x3 numpy arrays (orthonormal, det +1); rotation
vectors and angular velocities are shape (3,) arrays. Skew matrices are
the hat form of angular velocity vectors. All functions are pure.

Batch axis: the private array functions (`_hat`, `_vee`, `_exp`, `_log`,
`_angle`, `_adjoint`, `_drift`) take any leading batch shape, vectors as
(..., 3) and matrices as (..., 3, 3); the simulator calls them on (N, 3)
and (N, 3, 3) stacks, one row per agent. Each public function is the
single-rotation case (empty batch shape) of one of them, with shape
checks and typed errors added: each public log checks its matrices
finite before any product with them, and `_checked_log` checks the pi
singularity. `is_rotation` and `project_to_so3` take stacks too and
share one drift measure, `_drift`.
The closed forms and their small-angle series follow Sola et al., "A
micro Lie theory for state estimation in robotics", arXiv:1812.01537.
"""

import numpy as np

from .errors import NearPiSingularity

# tr(R) <= -1 + this means the principal log is undefined
TRACE_GUARD = 1e-6
# below this angle the closed forms switch to 4-term series
SMALL_ANGLE = 1e-4

_I3 = np.eye(3)
# vee(S) = S[_ROW, _COL]; vee(R - R^T) = R[_ROW, _COL] - R[_COL, _ROW]
_ROW, _COL = np.array([2, 0, 1]), np.array([1, 2, 0])
# hat(v) = (v @ _GEN) reshaped to 3x3: row i is the flattened generator E_i
_GEN = np.zeros((3, 3, 3))
_GEN[[0, 1, 2], _ROW, _COL] = 1.0
_GEN[[0, 1, 2], _COL, _ROW] = -1.0
_GEN = _GEN.reshape(3, 9)


def _arr3(v) -> np.ndarray:
    out = np.ascontiguousarray(v, dtype=np.float64)
    if out.shape != (3,):
        raise ValueError(f"expected shape (3,), got {out.shape}")
    return out


def _finite(out: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def _scalar(value, name: str, kinds=(int, float, np.integer, np.floating), what="a real number"):
    """value, if it is one of `kinds`, Python or numpy scalars, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {what}")
    return value


def _take(given: dict, takes: dict, what: str) -> dict:
    """The inputs `given` (name -> value, None meaning absent) checked on
    the table `takes`, name -> default or None if required, with the
    defaults filled in. A missing input is reported before a foreign one."""
    for name, default in takes.items():
        if given.get(name) is None and default is None:
            raise ValueError(f"{what}: missing required key '{name}'")
    for name, value in given.items():
        if name not in takes and value is not None:
            raise ValueError(f"{what} does not take '{name}'")
    return {n: d if given.get(n) is None else given[n] for n, d in takes.items()}


def _apply_kinds(spec, what: str):
    """Check spec's inputs on its class's table `KINDS`, kind -> the
    `_take` table of that kind, and fill in the defaults."""
    takes = spec.KINDS.get(spec.kind)
    if takes is None:
        raise ValueError(f"unknown {what} kind {spec.kind!r}")
    names = dict.fromkeys(n for t in spec.KINDS.values() for n in t)
    given = {name: getattr(spec, name) for name in names}
    for name, value in _take(given, takes, f"{spec.kind} {what}").items():
        object.__setattr__(spec, name, value)


def _mat3(m) -> np.ndarray:
    out = np.ascontiguousarray(m, dtype=np.float64)
    if out.shape != (3, 3):
        raise ValueError(f"expected shape (3, 3), got {out.shape}")
    return out


def _relative(r1, r2) -> np.ndarray:
    """r1^T r2, both checked finite first, so that no inf enters the product."""
    return _finite(_mat3(r1), "rotation matrix").T @ _finite(_mat3(r2), "rotation matrix")


def _hat(v):
    # a stack of more than one batch axis as one 2-D product, not many
    # tiny ones; each entry is one exact +-v_i plus signed zeros either way
    flat = v.reshape(-1, 3) if v.ndim > 2 else v
    return (flat @ _GEN).reshape(v.shape + (3,))


def _vee(s):
    return s[..., _ROW, _COL]


def _exp(tau):
    """Rodrigues' formula I + a K + b K^2 with series below SMALL_ANGLE."""
    t2 = (tau * tau).sum(axis=-1)
    theta = np.sqrt(t2)
    small = theta < SMALL_ANGLE
    if small.any():
        t4 = t2 * t2
        t6 = t4 * t2
        th = np.where(small, 1.0, theta)
        a_series = 1.0 - t2 / 6.0 + t4 / 120.0 - t6 / 5040.0
        b_series = 0.5 - t2 / 24.0 + t4 / 720.0 - t6 / 40320.0
        a = np.where(small, a_series, np.sin(th) / th)
        b = np.where(small, b_series, (1.0 - np.cos(th)) / np.where(small, 1.0, t2))
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / t2
    # formed in place as (b K^2 + a K) + I, the bits of (a K + b K^2) + I
    k = _hat(tau)
    r = k @ k
    r *= b[..., None, None]
    k *= a[..., None, None]
    r += k
    r += _I3
    return r


def _angle(r):
    """(w, s, theta, ok) of rotations r.

    w = vee(R - R^T) = 2 sin(theta) * axis and s = ||w||; the angle is
    atan2(s / 2, (tr R - 1) / 2) = atan2(s, tr R - 1), accurate at every
    angle (arccos of the trace alone loses half the digits near 0). ok
    is False where tr R <= -1 + TRACE_GUARD and the principal log is
    undefined.
    """
    tr = r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    w = r[..., _ROW, _COL] - r[..., _COL, _ROW]
    s = np.sqrt((w * w).sum(axis=-1))
    theta = np.arctan2(s, tr - 1.0)
    return w, s, theta, tr > -1.0 + TRACE_GUARD


def _log(r):
    """(tau, theta, ok): principal log as rotation vectors; see `_angle`."""
    w, s, theta, ok = _angle(r)
    # theta / s = theta / (2 sin theta); the series also covers s = 0 at
    # an exact half turn, where ok is False and tau is 0
    closed = (theta >= SMALL_ANGLE) & (s > 0.0)
    if closed.all():
        f = theta / s
    else:
        t2 = theta * theta
        t4 = t2 * t2
        t6 = t4 * t2
        series = 0.5 * (1.0 + t2 / 6.0 + 7.0 * t4 / 360.0 + 31.0 * t6 / 15120.0)
        f = np.where(closed, theta / np.where(closed, s, 1.0), series)
    return f[..., None] * w, theta, ok


def _checked_log(r):
    """(tau, theta) of one finite rotation by `_log`; NearPiSingularity where not ok."""
    tau, theta, ok = _log(r)
    if not ok:
        raise NearPiSingularity()
    return tau, theta


def _adjoint(r, s):
    return r @ s @ np.swapaxes(r, -1, -2)


def _drift(m):
    """||m^T m - I||_F for each matrix of m (..., 3, 3)."""
    d = np.swapaxes(m, -1, -2) @ m - _I3
    return np.sqrt((d * d).sum(axis=(-2, -1)))


def hat(v) -> np.ndarray:
    """Skew matrix of a finite v, satisfying hat(v) @ u = cross(v, u)."""
    return _hat(_finite(_arr3(v), "v"))


def _skew(s) -> np.ndarray:
    """s as a float 3x3 array; ValueError unless it is finite and its
    symmetric part is within 1e-9 * max(1, max |s|), a bound that grows
    with the matrix so that the roundoff of a rotated one passes. The
    check of `vee` and of every skew-rate input."""
    s = _mat3(s)
    tol = 1e-9 * max(1.0, np.max(np.abs(s)))
    if not (np.isfinite(s).all() and np.max(np.abs(s + s.T)) <= tol):
        raise ValueError("matrix is not skew-symmetric within tolerance")
    return s


def vee(s) -> np.ndarray:
    """Inverse of hat. Rejects inputs that `_skew` does."""
    return _vee(_skew(s))


def exp_so3(tau) -> np.ndarray:
    """Exponential map (Rodrigues' formula) from a finite rotation vector."""
    return _exp(_finite(_arr3(tau), "tau"))


def log_so3(r) -> np.ndarray:
    """Principal logarithm as a rotation vector with angle in [0, pi).

    Raises ValueError for a non-finite R, and NearPiSingularity when
    tr(R) <= -1 + 1e-6, where the principal log is undefined.
    """
    return _checked_log(_finite(_mat3(r), "rotation matrix"))[0]


def dist_geodesic(r1, r2) -> float:
    """Rotation angle between r1 and r2 (the natural SO(3) metric); raises
    what `log_so3(r1^T r2)` does."""
    return float(_checked_log(_relative(r1, r2))[1])


def dist_log(r1, r2) -> float:
    """Frobenius norm of log(r1^T r2) as a skew matrix.

    Equals sqrt(2) * dist_geodesic. It is computed through the log, whose
    angle comes from the same `_angle` as dist_geodesic, so comparing the
    two checks the log's scaling and `_hat`, not the angle. Raises what
    `log_so3(r1^T r2)` does.
    """
    k = _hat(_checked_log(_relative(r1, r2))[0])
    return float(np.sqrt((k * k).sum()))


def dist_frobenius(r1, r2) -> float:
    """||r1 - r2||_F, well-defined for every pair (no log involved)."""
    d = _mat3(r1) - _mat3(r2)
    return float(np.sqrt((d * d).sum()))


def adjoint_rotate(r, omega) -> np.ndarray:
    """Adjoint action R @ Omega @ R^T (rotation of angular velocity)."""
    return _adjoint(_mat3(r), _mat3(omega))


def lie_bracket(omega1, omega2) -> np.ndarray:
    """Matrix commutator; vee(lie_bracket) = cross(vee(w1), vee(w2))."""
    omega1, omega2 = _mat3(omega1), _mat3(omega2)
    return omega1 @ omega2 - omega2 @ omega1


def exp_coord_derivative(tau, omega) -> np.ndarray:
    """Rate of the rotation vector tau under body angular velocity Omega.

    Returns Omega + 1/2 [tau^, Omega] + (1 - a)/theta^2 [tau^, [tau^, Omega]]
    with a = (theta/2) cot(theta/2); equals Omega at tau = 0. Raises what
    `log_so3(exp_so3(tau))` does, and NearPiSingularity at theta >= pi.
    """
    tau, omega = _finite(_arr3(tau), "tau"), _mat3(omega)
    theta = float(np.linalg.norm(tau))
    if theta >= np.pi or not _angle(_exp(tau))[3]:
        raise NearPiSingularity("exponential-coordinate rate undefined near pi")
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        coef = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        half = 0.5 * theta
        coef = (1.0 - half * np.cos(half) / np.sin(half)) / (theta * theta)
    th = _hat(tau)
    ad1 = lie_bracket(th, omega)
    return omega + 0.5 * ad1 + coef * lie_bracket(th, ad1)


def project_to_so3(m) -> np.ndarray:
    """Nearest rotations to m (..., 3, 3) in the Frobenius norm, the
    orthogonal polar factors (Higham 1986), for drift repair. Raises
    ValueError unless every drift ||m^T m - I||_F is below 1e-3 (nan is
    not): more drift means an integrator bug, not roundoff."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected shape (..., 3, 3), got {m.shape}")
    drift = _drift(m)
    if not (drift < 1e-3).all():
        raise ValueError(f"drift ||M^T M - I||_F up to {np.max(drift):.3g} is not below 0.001")
    u, _, vt = np.linalg.svd(m)
    # flip the weakest singular direction where U V^T is a reflection
    u[..., :, 2] *= np.where(np.linalg.det(u @ vt) < 0.0, -1.0, 1.0)[..., None]
    return u @ vt


def is_rotation(r, tol: float = 1e-9):
    """Whether ||R^T R - I||_F <= tol and |det R - 1| <= tol: a bool for one
    matrix, a bool array for a stack (..., 3, 3), False for other shapes."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-2:] != (3, 3):
        return False
    ok = (_drift(r) <= tol) & (np.abs(np.linalg.det(r) - 1.0) <= tol)
    return ok if ok.ndim else bool(ok)
