"""Attitude error and the proportional feed-forward controller.

The error matrix is R_e = R_d^T R; its rotation angle mu is the tracking
error. One control law, `control_known_ff`: proportional feedback plus
the feed-forward of the known part of the reference rate. Full
feed-forward is its case where the whole rate is known; an unknown
component is compensated by raising the gain via
`gain_for_bounded_rate`. The private `_feedforward` takes a leading
batch axis of agents, and `_alignment` any leading batch shape; the
public functions and the simulator both call them.
"""

from dataclasses import dataclass, field

import numpy as np

from .so3 import _COL, _ROW, _arr3, _checked_log, _hat, _mat3, _skew, _vee, log_so3


@dataclass(frozen=True)
class AttitudeError:
    """Error rotation R_e = R_d^T R with its angle and rotation vector."""

    r_e: np.ndarray
    mu: float
    tau_e: np.ndarray


@dataclass(frozen=True)
class DesiredAttitudeRate:
    """Known body-frame rate of the reference, plus the bound on what is not.

    `known` is a skew matrix (the part the controller may use), rejected
    as `so3.vee` rejects one; `unknown_bound` bounds the norm of the
    unseen remainder.
    """

    known: np.ndarray
    unknown_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "known", _skew(self.known))
        if not np.isfinite(self.unknown_bound) or self.unknown_bound < 0:
            raise ValueError("unknown_bound must be finite and >= 0")


@dataclass(frozen=True)
class ControllerConfig:
    """Proportional gain and the error/alignment bands it is tuned for.

    At least one band is required, and each defaults to the other
    (mu_star <= delta_star guarantees the heading band). k_w is required;
    `deployment.plan_gains` computes one from the gain rules.
    """

    k_w: float = field(default=None)  # type: ignore[assignment]
    delta_star: float = field(default=None)  # type: ignore[assignment]
    mu_star: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.delta_star is None and self.mu_star is None:
            raise ValueError("need mu_star and/or delta_star")
        delta_star = self.mu_star if self.delta_star is None else self.delta_star
        mu_star = self.delta_star if self.mu_star is None else self.mu_star
        object.__setattr__(self, "delta_star", float(delta_star))
        object.__setattr__(self, "mu_star", float(mu_star))
        if self.k_w is None or not 0 < self.k_w < np.inf:
            raise ValueError("k_w must be given, positive and finite")
        if not (0 < self.mu_star <= self.delta_star <= np.pi):
            raise ValueError("need 0 < mu_star <= delta_star <= pi")


def _feedforward(r_e, tau_e, w_known, k_w):
    """Body rates -k_w tau_e + R_e^T w_known; the second term is the
    adjoint transport of the known reference rate into the body frame."""
    return -k_w * tau_e + w_known @ r_e


def _alignment(x_b, m_d):
    """Great-circle angles between headings x_b (..., 3) and m_d (..., 3),
    broadcast against each other, as atan2(|x_b x m_d|, x_b . m_d), which
    keeps full precision near 0. Cross and dot products are formed
    elementwise, so the cross is exactly 0 for x_b = m_d and each angle
    has the same bits however the headings are stacked."""
    cross = x_b[..., _COL] * m_d[..., _ROW] - x_b[..., _ROW] * m_d[..., _COL]
    return np.arctan2(np.linalg.norm(cross, axis=-1), (x_b * m_d).sum(axis=-1))


def attitude_error(r_d, r) -> AttitudeError:
    """Error signal between desired and actual attitude.

    Raises NearPiSingularity when the relative rotation sits at the
    antipode, which admissible initial conditions exclude.
    """
    r_e = _mat3(r_d).T @ _mat3(r)
    tau_e, mu = _checked_log(r_e)
    return AttitudeError(r_e=r_e, mu=float(mu), tau_e=tau_e)


def control_known_ff(r_e, rate: DesiredAttitudeRate, k_w: float) -> np.ndarray:
    """Tracking law -k_w log(R_e) + Ad_{R_e^T}(W) as a skew matrix, W
    being `rate.known`. Fed the whole reference rate (full feed-forward),
    it closes the error rate Omega - Ad_{R_e^T}(Omega_d) to exactly
    -k_w log(R_e), so mu decays as exp(-k_w t)."""
    if not k_w > 0:
        raise ValueError("k_w must be positive")
    r_e = _mat3(r_e)
    return _hat(_feedforward(r_e, log_so3(r_e), _vee(rate.known), k_w))


def gain_for_bounded_rate(omega_max: float, mu_star: float) -> float:
    """Smallest gain keeping the error within mu_star against a bounded
    unknown reference rate: k_w = sqrt(2) * omega_max / mu_star."""
    if mu_star <= 0:
        raise ValueError("mu_star must be positive")
    if omega_max < 0:
        raise ValueError("omega_max must be >= 0")
    return float(np.sqrt(2.0) * omega_max / mu_star)


def heading_alignment_delta(x_b, m_d) -> float:
    """Great-circle angle between two unit headings, in [0, pi].

    For x_b the first column of R = R_d R_e with m_d the first column of
    R_d, this never exceeds the attitude error angle mu.
    """
    x_b, m_d = _arr3(x_b), _arr3(m_d)
    for v in (x_b, m_d):
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise ValueError("heading vectors must have unit norm")
    return float(_alignment(x_b, m_d))
