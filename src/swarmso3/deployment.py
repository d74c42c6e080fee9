"""Swarm-level geometry: ascending-direction estimate, deployment
covariance, and the gain rules that keep the formation non-degenerate.

Positions are (N, 3) arrays; all quantities are computed from a single
snapshot of the swarm (do not interleave per-agent updates with stats).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDeployment, DegenerateDirection

BLOCK_BYTES = 1 << 20  # bytes of one pair-scan block in the passes over a whole log
WEYL_TOL = 1e-9  # a `weyl_floor_violation` up to this is roundoff, not a breach


def _block_steps(n):
    """Steps per block of a pass over an N-agent log: as many as one
    N x N pair scan fits in BLOCK_BYTES, so the block's (steps, N, 3)
    temporaries take at most BLOCK_BYTES / N bytes and the extra memory
    of the pass is O(N) beyond the log."""
    return max(1, BLOCK_BYTES // (24 * n * n))


@dataclass(frozen=True)
class DeploymentStats:
    """Centroid, barycentric coordinates, covariance and its extremes.

    radius is max_i ||x_i|| (written D elsewhere); lambda_min is the
    smallest eigenvalue of the covariance P = (1/N) sum x_i x_i^T.
    """

    centroid: np.ndarray
    x: np.ndarray
    covariance: np.ndarray
    lambda_min: float
    radius: float


@dataclass(frozen=True)
class GainPlan:
    """Gain lower bounds and their max, plus the displacement budget."""

    k1: float
    k2: float
    k_w: float
    epsilon_max: float


def _barycentric(p):
    """(centroid, x, radius) of positions (..., N, 3): the centroids, the
    barycentric coordinates x_i = p_i - centroid and max_i ||x_i||, one
    per leading index. Unchecked; the simulator's loop, `_spread` and
    `weyl_floor_violation` call it on (N, 3) snapshots and (steps, N, 3)
    blocks of the log."""
    pc = p.sum(axis=-2) / p.shape[-2]  # numpy's own definition of mean
    x = p - pc[..., None, :]
    return pc, x, np.sqrt((x * x).sum(axis=-1).max(axis=-1))


def _positions(positions):
    """positions as a float (N, 3) array; ValueError unless N >= 1 and
    every coordinate is finite. The check of `deployment_stats` and
    `sim.advance_desired`."""
    p = np.ascontiguousarray(positions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
        raise ValueError("positions must be a non-empty (N, 3) array")
    if not np.all(np.isfinite(p)):
        raise ValueError("positions must be finite")
    return p


def _spread(p):
    """(centroid, x, radius, covariance, lambda_min) of positions (...,
    N, 3), one per leading index: the `_barycentric` triple, the
    covariance P = (1/N) sum_i x_i x_i^T and its smallest eigenvalue.
    Raises ValueError when a covariance is not finite, which finite
    coordinates beyond ~1e154 cause by overflowing their squares; that
    check is why the overflow warnings of the radius and covariance are
    silenced. `deployment_stats` and the simulator's post-pass call it."""
    with np.errstate(over="ignore"):
        pc, x, radius = _barycentric(p)
        cov = np.swapaxes(x, -1, -2) @ x / x.shape[-2]
    if not np.isfinite(cov).all():
        raise ValueError(
            "the position covariance is not finite: coordinates this large overflow it"
        )
    return pc, x, radius, cov, np.linalg.eigvalsh(cov)[..., 0]


def deployment_stats(positions) -> DeploymentStats:
    pc, x, radius, cov, lam = _spread(_positions(positions))
    return DeploymentStats(
        centroid=pc,
        x=x,
        covariance=cov,
        lambda_min=float(lam),
        radius=float(radius),
    )


def _ascending(sigma, x, radius):
    """`ascending_direction` from the stats' x and radius, unchecked."""
    if radius <= 0.0:
        raise DegenerateDirection("all agents collocated (D = 0)")
    return (sigma @ x) / (sigma.shape[0] * radius**2)


def ascending_direction(sigma_samples, stats: DeploymentStats) -> np.ndarray:
    """Field-weighted barycentric sum (1 / (N D^2)) sum_i sigma_i x_i.

    With one sample per agent taken at centroid + x_i, this points up the
    field whenever the deployment covariance is suitable; constant offsets
    in sigma cancel because sum x_i = 0.
    """
    sigma = np.ascontiguousarray(sigma_samples, dtype=np.float64)
    if sigma.shape != (stats.x.shape[0],):
        raise ValueError("need exactly one field sample per agent")
    return _ascending(sigma, stats.x, stats.radius)


def _heading(ell, eps_norm):
    """ell / ||ell|| of a float (3,) array ell, unchecked; DegenerateDirection
    when ||ell|| <= eps_norm (e.g. at the source), which `_retarget` sets to
    1e-9 * (1 + max |sigma|). sqrt(ell @ ell) is how np.linalg.norm forms
    the norm of one vector."""
    n = np.sqrt(ell @ ell)
    if n <= eps_norm:
        raise DegenerateDirection("ascending-direction estimate vanishes")
    return ell / n


def pairwise_displacement_bound(s: float, k_w: float) -> float:
    """Worst-case pairwise position drift 2 pi s / k_w during alignment."""
    if s <= 0 or k_w <= 0:
        raise ValueError("s and k_w must be positive")
    return float(2.0 * np.pi * s / k_w)


def epsilon_max(stats0: DeploymentStats) -> float:
    """Largest per-agent displacement that provably preserves full rank.

    The positive root e of covariance_perturbation_bound(e, stats0) =
    lambda_min(P(0)), i.e. of 2 D0 e + e^2 = lambda_min(P(0)). Raises
    DegenerateDeployment when the root is not positive: lambda_min <= 0,
    or a lambda_min so small next to D0^2 (a nearly coplanar swarm) that
    the root rounds to 0. This is the one test of whether gains can be
    planned for a deployment.
    """
    d0, lam = stats0.radius, stats0.lambda_min
    eps = float(-d0 + np.sqrt(d0 * d0 + lam))
    if not eps > 0.0:
        raise DegenerateDeployment(
            f"initial deployment is degenerate (lambda_min = {lam:.3g}, D0 = "
            f"{d0:.3g}); the non-degeneracy gain rule requires a full-rank "
            "covariance with a positive displacement budget"
        )
    return eps


def gain_for_nondegeneracy(s: float, stats0: DeploymentStats) -> float:
    """Gain that keeps the deployment full rank: 2 pi s / epsilon_max."""
    if s == 0:
        return 0.0
    if s < 0:
        raise ValueError("s must be >= 0")
    return float(2.0 * np.pi * s / epsilon_max(stats0))


def plan_gains(
    omega_max: float, mu_star: float, s: float, stats0: DeploymentStats
) -> GainPlan:
    """Combine both gain rules; the controller runs at their maximum."""
    from .attitude import gain_for_bounded_rate

    k1 = gain_for_bounded_rate(omega_max, mu_star)
    eps = epsilon_max(stats0)
    k2 = gain_for_nondegeneracy(s, stats0)
    return GainPlan(k1=k1, k2=k2, k_w=max(k1, k2), epsilon_max=eps)


def covariance_perturbation_bound(eps, stats0: DeploymentStats):
    """Spectral-norm bound 2 D0 eps + eps^2 on the covariance change when
    every barycentric coordinate moves by at most eps.

    eps is a scalar, giving a float, or an array of them, giving the
    bound of each; every eps must be >= 0.
    """
    if np.any(np.asarray(eps) < 0):
        raise ValueError("eps must be >= 0")
    bound = 2.0 * stats0.radius * eps + eps * eps
    return bound if np.ndim(eps) else float(bound)


def weyl_floor_violation(positions, lambda_min) -> float:
    """Worst breach of the Weyl covariance floor over a whole run.

    positions is the (M, N, 3) position log and lambda_min its logged
    smallest covariance eigenvalue per step. Step k's floor is
    lambda_min(P(0)) - (2 D0 e_k + e_k^2) with e_k = max_i ||x_i(t_k) -
    x_i(0)||; the result is max_k (floor_k - lambda_min_k), <= 0 when the
    floor holds at every step. The log is walked in blocks of
    `_block_steps(N)` steps, so the extra memory is O(N) beyond it.
    """
    stats0 = deployment_stats(positions[0])
    m, n = positions.shape[:2]
    eps = np.empty(m)
    steps = _block_steps(n)
    for a in range(0, m, steps):
        x = _barycentric(positions[a : a + steps])[1]
        x -= stats0.x
        x *= x
        eps[a : a + steps] = np.sqrt(x.sum(axis=2).max(axis=1))
    floor = stats0.lambda_min - covariance_perturbation_bound(eps, stats0)
    return float(np.max(floor - lambda_min))
