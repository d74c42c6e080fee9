"""Deterministic fixed-step closed-loop simulator.

N constant-speed unicycle agents track one shared reference attitude.
Per step: (1) store the reference's heading before the turn, (2) turn
the reference (source-seeking recomputes the target heading from the
swarm), (3) take the attitude error and record, (4) abort on the log
singularity, (5) move every agent and spin the reference. The attitude
update is the exact exponential of the commanded rate, applied as two
half-step turns; position uses the body x-axis at the half step, so each
agent moves exactly speed*dt per step. The rate is held for dt, so in
constant mode the error angle shrinks by |1 - k_w*dt| per step, not by
exp(-k_w*dt).

Batch axis: the swarm is an (N, 3) position array and an (N, 3, 3)
attitude array, one row per agent, and each pass of `run`'s loop
advances all N agents at once. Each piece of the step is one function,
which the public per-step API (`reference_body_rates`, `advance_desired`,
`step_agent`) calls too: `_retarget` (the turn), `_rates` (the known
body rate and the designed spin dt * (known + unknown) as a rotation
vector, one rule for every mode; once per run in the body frame, at
each step in the literal frame, whose rates turn with r_d),
`_feedforward` and `_move` (the pose step, given the half-step
exponential); the attitude error is R_d^T R with its `_log`. In both
frames the spin vector is one more row of the agents' half-step
rotation vectors, so one `_exp` a step gives both; a row of a stack has
the bits of its own `_exp`. An overflow ends in ValueError: the loop
silences its overflow and invalid-value warnings, and the finite checks
after it name the state that stopped being finite.

The loop computes only what the control law reads back, and records p,
r, r_d, mu, hold and the heading before the step's turn. The log-only
columns (t, delta, lambda_min, sigma_centroid, dist_to_source,
max_pair_disp, unknown_rate, rate_violation) feed nothing back, so
`_derived` computes them once after the loop from the stored columns,
walking the log in `_blocks` as `weyl_floor_violation` does; every pass
over a whole log lives here. Each value has the same bits as the
per-step public functions give (`deployment_stats`,
`heading_alignment_delta`, `FieldSpec.values`). The turn is the minimal
rotation about the mutual normal, so its angle is the great-circle angle
between the headings before and after it: the turn rate is that angle
over dt, by the same `_alignment` as delta, and exactly 0 at a step
without a turn. Nothing else computes the turn rate.

Reference-rate conventions (`rate_frame`):
  "literal": the total reference rate R_d^T w_known + w_unknown is an
             earth-fixed angular velocity (the convention as usually
             written, even though the R_d^T factor mixes frames).
  "body":    w_known and w_unknown are body-frame rates of the reference.
Both are supported because published descriptions of this rate law are
ambiguous; logs record the realized unknown-rate magnitude either way.
"""

import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from .attitude import ControllerConfig, _alignment, _feedforward
from .deployment import (
    _ascending, _barycentric, _heading, _positions, _spread, covariance_perturbation_bound, deployment_stats
)
from .errors import DegenerateDirection, NearPiSingularity
from .fields import FieldSpec
from .so3 import (
    _I3, _apply_kinds, _arr3, _exp, _finite, _hat, _log, _mat3, _scalar, is_rotation, project_to_so3, vee
)

TRAJECTORY_MODES = ("constant", "prescribed", "source-seeking")
RATE_FRAMES = ("literal", "body")
PROJECT_EVERY = 1000  # steps between projections of the attitudes and r_d onto SO(3)
BLOCK_BYTES = 1 << 20  # bytes of one pair-scan block in the passes over a whole log
PAIR_BYTES = 16  # bytes a pair takes in the scan: two float64 planes, see `_sq`
WEYL_TOL = 1e-9  # a `weyl_floor_violation` up to this is roundoff, not a breach


@dataclass(frozen=True)
class RobotState:
    """Position and attitude of one unicycle agent."""

    p: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _arr3(self.p))
        r = _mat3(self.r)
        if not is_rotation(r, tol=1e-6):
            raise ValueError("attitude is not a rotation matrix")
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class DesiredAttitudeTrajectory:
    """Shared reference attitude plus its rate decomposition.

    omega_unknown is the configured unknown rate, hidden from controllers.
    A source-seeking trajectory rejects a nonzero one: its unknown rate
    is the heading turn, which the log's unknown_rate records. `target`
    is an output of `advance_desired`, not a constructor argument: the
    heading the last applied turn aimed at (r_d's first column on
    construction), which a vanishing estimate holds. The constant mode
    is the prescribed mode with zero rates.
    """

    mode: str
    r_d: np.ndarray = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # type: ignore[assignment]
    omega_known: np.ndarray = (0.0, 0.0, 0.0)  # type: ignore[assignment]
    omega_unknown: np.ndarray = (0.0, 0.0, 0.0)  # type: ignore[assignment]
    omega_max_declared: float = 0.0
    target: np.ndarray = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )  # type: ignore[assignment]

    def __post_init__(self):
        if self.mode not in TRAJECTORY_MODES:
            raise ValueError(f"unknown trajectory mode {self.mode!r}")
        r = _mat3(self.r_d)
        if not is_rotation(r, tol=1e-6):
            raise ValueError("r_d is not a rotation matrix")
        object.__setattr__(self, "r_d", r)
        object.__setattr__(self, "target", r[:, 0].copy())
        for name in ("omega_known", "omega_unknown"):
            object.__setattr__(self, name, _finite(_arr3(getattr(self, name)), name))
        if self.mode == "constant" and (self.omega_known.any() or self.omega_unknown.any()):
            raise ValueError("constant mode requires zero omega_known and omega_unknown")
        if self.mode == "source-seeking" and self.omega_unknown.any():
            raise ValueError("source-seeking mode requires zero omega_unknown")
        if not 0 <= self.omega_max_declared < np.inf:
            raise ValueError("omega_max_declared must be >= 0 and finite")


@dataclass(frozen=True)
class PlacementSpec:
    """Initial positions offset by `center`: explicit (N, 3) `positions`
    or a seeded uniform ball of `radius`, as `KINDS` lists them."""

    KINDS = {"explicit": {"positions": None}, "ball": {"radius": None}}
    kind: str
    positions: np.ndarray = None  # type: ignore[assignment]
    center: np.ndarray = (0.0, 0.0, 0.0)  # type: ignore[assignment]
    radius: float = None  # type: ignore[assignment]

    def __post_init__(self):
        _apply_kinds(self, "placement")
        object.__setattr__(self, "center", _finite(_arr3(self.center), "placement center"))
        if self.kind == "explicit":
            object.__setattr__(self, "positions", _positions(self.positions))
        elif not 0 < self.radius < np.inf:
            raise ValueError("ball placement needs a positive, finite radius")


@dataclass(frozen=True)
class AttitudeInitSpec:
    """Initial attitudes: aligned with the reference, a seeded geodesic
    ball around it (axis uniform on the sphere, angle uniform in
    [0, radius]), or explicit rotation `matrices`, as `KINDS` lists them."""

    KINDS = {"aligned": {}, "ball": {"radius": None}, "explicit": {"matrices": None}}
    kind: str = "aligned"
    radius: float = None  # type: ignore[assignment]
    matrices: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        _apply_kinds(self, "attitude init")
        if self.kind == "ball" and not (0 < self.radius < np.pi):
            raise ValueError("attitude ball radius must be in (0, pi)")
        if self.kind == "explicit":
            mats = np.ascontiguousarray(self.matrices, dtype=np.float64)
            if mats.ndim != 3 or mats.shape[1:] != (3, 3):
                raise ValueError("explicit attitudes need an (N, 3, 3) array")
            bad = ~is_rotation(mats, tol=1e-6)
            if bad.any():
                raise ValueError(f"explicit attitude {int(bad.argmax())} is not a rotation")
            object.__setattr__(self, "matrices", mats)


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; identical configs give identical logs.
    speed, dt and t_end are real numbers and n_agents and seed integers,
    never bools; the trajectory checks its own rates."""

    n_agents: int
    speed: float
    dt: float
    t_end: float
    seed: int
    controller: ControllerConfig
    trajectory: DesiredAttitudeTrajectory
    placement: PlacementSpec
    attitudes: AttitudeInitSpec = AttitudeInitSpec()
    field: FieldSpec = None  # type: ignore[assignment]
    rate_frame: str = "literal"
    name: str = ""

    def __post_init__(self):
        for name in ("speed", "dt", "t_end"):
            object.__setattr__(self, name, float(_scalar(getattr(self, name), name)))
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("n_agents", "seed"):  # a bool would run as 1, a float fail in run
            _scalar(getattr(self, name), name, (int, np.integer), "an integer")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be >= dt")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"t_end = {self.t_end} is not a whole number of steps dt = {self.dt}"
            )
        if not self.speed > 0:
            raise ValueError("speed must be positive")
        if self.rate_frame not in RATE_FRAMES:
            raise ValueError(f"unknown rate frame {self.rate_frame!r}")
        if self.trajectory.mode == "source-seeking":
            if self.field is None:
                raise ValueError("source-seeking mode requires a field")
            if self.n_agents < 2:  # one agent's ascending estimate always vanishes
                raise ValueError("source-seeking mode needs at least two agents")
        for what, given in (
            ("explicit placement size", self.placement.positions),
            ("explicit attitude count", self.attitudes.matrices),
        ):
            if given is not None and given.shape[0] != self.n_agents:
                raise ValueError(f"{what} does not match n_agents")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


class SimLog:
    """Column-major run log: one array per logged quantity, one row per step.

    `gains` is stored as given; `run` passes None, because k_w always
    comes from `config.controller.k_w`.
    """

    def __init__(self, config, gains, k_w, arrays, aborted=False, abort_reason=""):
        self.config = config
        self.gains = gains
        self.k_w = float(k_w)
        self.aborted = aborted
        self.abort_reason = abort_reason
        (
            self.t,
            self.p,
            self.r,
            self.r_d,
            self.mu,
            self.delta,
            self.lambda_min,
            self.sigma_centroid,
            self.dist_to_source,
            self.max_pair_disp,
            self.unknown_rate,
            self.hold_flag,
            self.rate_violation,
        ) = arrays

    def __len__(self) -> int:
        return self.t.shape[0]


def _body_rates(rate_frame, r_d, w_known, w_unknown):
    """Body-frame (known, unknown) reference rates."""
    if rate_frame == "literal":
        return (w_known @ r_d) @ r_d, w_unknown @ r_d
    return w_known.copy(), w_unknown.copy()


def _rates(trj, rate_frame, r_d, dt):
    """(wk, spin) of the reference r_d of trajectory trj: its body-frame
    known rate and its designed spin over dt as a rotation vector, dt
    times its body rates, so r_d @ _exp(spin) is the reference after dt.
    One rule for every mode: a source-seeking trajectory has a zero
    omega_unknown, and its heading turn is `_retarget`. `run` writes the
    spin as the last row of the agents' half-step rotation vectors, once
    in the body frame and at each step in the literal frame, so its
    exponential comes from the same `_exp` call; `advance_desired` takes
    it alone."""
    wk, wu = _body_rates(rate_frame, r_d, trj.omega_known, trj.omega_unknown)
    return wk, dt * (wk + wu)


def _turn(heading, target):
    """Minimal rotation taking unit `heading` onto unit `target`, about
    their mutual normal; None when they are antipodal within 1e-6."""
    c = heading @ target
    if c <= -1.0 + 1e-6:
        return None
    vh = _hat(_hat(heading) @ target)
    return vh + (1.0 / (1.0 + c)) * (vh @ vh) + _I3


def _retarget(r_d, target, p, field):
    """Turn r_d so its first column follows the ascending estimate of the
    swarm at positions p (N, 3), built from the field's samples at the
    agents and their barycentric coordinates.

    Returns (r_d, target, held): the turned reference, the heading it now
    targets and the hold flag. A vanishing estimate holds the last
    target; an antipodal target applies no turn and returns the r_d
    passed in, the same array, with the target as it was.
    """
    sigma = field.values(p)
    _, x, radius = _barycentric(p)
    held = False
    try:
        ell = _ascending(sigma, x, float(radius))
        md = _heading(ell, 1e-9 * (1.0 + float(np.abs(sigma).max())))
    except DegenerateDirection:
        held, md = True, target
    q = _turn(r_d[:, 0], md)
    if q is None:
        return r_d, target, True
    return q @ r_d, md, held


def _move(p, r, e_half, s, dt):
    """Pose step at forward speed s, given the half-step exponential
    e_half = _exp(0.5 * dt * w) of body rates w (..., 3): the attitude
    turns by e_half twice, and the position moves along the body x-axis
    of the half step."""
    r_half = r @ e_half
    return p + dt * s * r_half[..., :, 0], r_half @ e_half


def _sq(a, b):
    """Squared lengths of a - b from coordinate planes (3, ...) as (dx^2 +
    dy^2) + dz^2, numpy's order for a (..., 3) last axis, with its bits."""
    acc, d = a[0] - b[0], a[1] - b[1]
    acc *= acc
    acc += np.square(d, out=d)
    np.subtract(a[2], b[2], out=d)
    acc += np.square(d, out=d)
    return acc


def _scan(u):
    """max_{i<j} ||u_i - u_j|| over all pairs of rows of u (..., N, 3),
    one value per leading index, in row blocks of BLOCK_BYTES (read at
    each call, as `_blocks` reads it), so the extra memory is O(N) per
    leading index rather than O(N^2). The one pair kernel: `_diameter`
    calls it on the rows that can hold the longest pair. `_sq` forms a
    block's pairs from coordinate planes (3, ..., N), PAIR_BYTES a pair,
    since numpy reduces a short last axis slowly."""
    n, lead, c = u.shape[-2], u.shape[:-2], np.moveaxis(u, -1, 0).copy()
    rows = max(1, BLOCK_BYTES // (PAIR_BYTES * n * int(np.prod(lead))))
    worst = np.zeros(lead)
    for i in range(0, n - 1, rows):
        block = _sq(c[..., i : i + rows, None], c[..., None, i:]).max(axis=(-2, -1))
        worst = np.maximum(worst, block)
    return np.sqrt(worst)


def _diameter(u):
    """max_{i<j} ||u_i - u_j|| over the rows of u (..., N, 3), one value
    per leading index, bitwise equal to `_scan(u)` but scanning only the
    rows that can hold the longest pair.

    With c the centroid, r_i = ||u_i - c|| and R = max r, a two-sweep
    (the row farthest from c, then the row farthest from it) gives a pair
    of length L. A pair longer than L has L < r_i + r_j <= r_i + R, so
    both its rows have r >= L - R. Those candidates include the two-sweep
    pair, so the longest candidate pair is the longest pair. Computed
    lengths are within a few ulps of exact ones; the slack 1e-12 (L + R)
    keeps every row of a pair whose computed length can reach the
    computed maximum. A step whose rows are all equal (R = 0) needs one
    row; one whose L or R is not finite keeps all N. The K rows of
    largest r, K the largest candidate count, are scanned as one
    (..., K, 3) stack. Every pair scanned is a real pair formed as
    `_scan` forms it, and x - y = -(y - x) exactly, so the result has
    the bits of the full scan; at K = N, u is scanned as given, so even an
    inf row's self-pair is `_scan`'s. r and L come from planes by `_sq`.
    """
    n, c = u.shape[-2], np.moveaxis(u, -1, 0).copy()
    r = np.sqrt(_sq(c, np.moveaxis(u.mean(axis=-2, keepdims=True), -1, 0)))
    far = np.take_along_axis(c, r.argmax(axis=-1)[None, ..., None], axis=-1)
    big, reach = np.sqrt(_sq(c, far).max(axis=-1)), r.max(axis=-1)
    thr = big - reach - 1e-12 * (big + reach)
    count = (r >= thr[..., None]).sum(axis=-1)
    count = np.where(reach == 0.0, 1, np.where(np.isfinite(thr), count, n))
    k = max(int(count.max(initial=0)), min(2, n))
    if k < n:
        top = np.argpartition(r, n - k, axis=-1)[..., n - k :]
        u = np.take_along_axis(u, top[..., None], axis=-2)
    return _scan(u)


def step_agent(state: RobotState, omega, s: float, dt: float) -> RobotState:
    """Advance one agent by dt under skew rate omega at forward speed s."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    p, r = _move(state.p, state.r, _exp(0.5 * dt * vee(omega)), s, dt)
    return RobotState(p=p, r=r)


def reference_body_rates(traj: DesiredAttitudeTrajectory, rate_frame: str):
    """Body-frame (known, unknown) rate vectors under the chosen convention."""
    return _body_rates(rate_frame, traj.r_d, traj.omega_known, traj.omega_unknown)


def advance_desired(
    traj: DesiredAttitudeTrajectory,
    dt: float,
    rate_frame: str = "literal",
    positions=None,
    field: FieldSpec = None,
) -> DesiredAttitudeTrajectory:
    """One reference update, by the simulator's own step functions.

    prescribed (and constant, its zero-rate case): compose by the
    exponential of the total rate over dt.
    source-seeking: apply the designed known spin, then `_retarget`'s
    minimal rotation placing the first column on the fresh target heading
    computed from `positions` and `field`. A vanishing estimate holds the
    last target heading; an antipodal target applies no turn. The turn
    rate and the hold are columns of the log (unknown_rate, hold_flag),
    not outputs of this step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    pre = traj.r_d @ _exp(_rates(traj, rate_frame, traj.r_d, dt)[1])
    if traj.mode != "source-seeking":
        return replace(traj, r_d=pre)

    if positions is None or field is None:
        raise ValueError("source-seeking advance needs positions and a field")
    r_d, target, _ = _retarget(pre, traj.target, _positions(positions), field)
    out = replace(traj, r_d=r_d)
    object.__setattr__(out, "target", target)
    return out


def _initial_conditions(config: SimConfig):
    """Seeded initial poses; the RNG is used here and nowhere else. Ball
    attitudes draw per agent an axis (`standard_normal`) and a radius
    fraction (`random`): the bits of numpy's normal(size=3), 0 + 1*z, and
    uniform(0, radius), 0 + radius*u, bar a z of -0.0 (2^-52 a draw)."""
    rng = np.random.default_rng(config.seed)
    n = config.n_agents
    if config.placement.kind == "explicit":
        p = config.placement.positions + config.placement.center
    else:
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rad = config.placement.radius * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)
        p = config.placement.center + u * rad
    r0 = config.trajectory.r_d
    if config.attitudes.kind == "aligned":
        r = np.broadcast_to(r0, (n, 3, 3)).copy()
    elif config.attitudes.kind == "explicit":
        r = config.attitudes.matrices.copy()
    else:
        # for the norm see `_derived`
        axes, frac = np.empty((n, 3)), np.empty((n, 1))
        for i in range(n):
            rng.standard_normal(out=axes[i])
            frac[i] = rng.random()
        axes /= np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0]
        r = r0 @ _exp(axes * (config.attitudes.radius * frac))
    return np.ascontiguousarray(p), np.ascontiguousarray(r)


def _blocks(m, n):
    """Slices of the M steps of an N-agent log, as many steps each as one
    N x N pair scan fits in BLOCK_BYTES: a block's (steps, N, 3)
    temporaries take at most 1.5 BLOCK_BYTES / N bytes, so a pass over
    the log needs O(N) extra memory."""
    steps = max(1, BLOCK_BYTES // (PAIR_BYTES * n * n))
    return (slice(a, a + steps) for a in range(0, m, steps))


def weyl_floor_violation(positions, lambda_min) -> float:
    """Worst breach of the Weyl covariance floor over a whole run.

    positions is the (M, N, 3) position log and lambda_min its logged
    smallest covariance eigenvalue per step. Step k's floor is
    lambda_min(P(0)) - (2 D0 e_k + e_k^2) with e_k = max_i ||x_i(t_k) -
    x_i(0)||; the result is max_k (floor_k - lambda_min_k), <= 0 when the
    floor holds at every step. The log is walked in `_blocks`.
    """
    stats0 = deployment_stats(positions[0])
    eps = np.empty(positions.shape[0])
    for blk in _blocks(*positions.shape[:2]):
        x = _barycentric(positions[blk])[1]
        x -= stats0.x
        x *= x
        eps[blk] = np.sqrt(x.sum(axis=2).max(axis=1))
    floor = stats0.lambda_min - covariance_perturbation_bound(eps, stats0)
    return float(np.max(floor - lambda_min))


def _derived(config, p, r, r_d, pre):
    """The log-only columns of a (possibly partial) log: (delta,
    lambda_min, sigma_centroid, dist_to_source, max_pair_disp,
    unknown_rate, rate_violation), from its positions p, attitudes r,
    references r_d and headings pre before each step's turn.

    In source-seeking, unknown_rate is the angle of each step's heading
    turn over dt: the great-circle angle from pre to r_d's heading, by the
    `_alignment` that gives delta. A step without a turn stored one
    heading twice, so its elementwise cross and its rate are exactly 0.

    Works in `_blocks`, so the extra memory is O(N) beyond the log.
    Raises ValueError for a non-finite position log or covariance, as
    `deployment_stats` does for one snapshot.
    """
    m, n = _finite(p, "positions").shape[:2]
    fld, trj = config.field, config.trajectory
    delta, lam, pair = np.empty((m, n)), np.empty(m), np.empty(m)
    sigma_c, dist = np.full(m, np.nan), np.full(m, np.nan)
    if trj.mode == "source-seeking":
        rate = _alignment(pre, r_d[:, :, 0]) / config.dt
        rate[:1] = 0.0  # no turn rate before the first step
    else:
        rate = np.full(m, np.linalg.norm(trj.omega_unknown))
    for blk in _blocks(m, n):
        pc, _, _, _, lam[blk] = _spread(p[blk])
        delta[blk] = _alignment(r[blk, :, :, 0], r_d[blk, None, :, 0])
        pair[blk] = _diameter(p[blk] - p[0])
        if fld is not None:
            sigma_c[blk] = fld.values(pc)
            # a stacked row-by-column product is the same BLAS dot that
            # np.linalg.norm takes for one vector, so each distance has
            # the bits of the norm of its own centroid offset
            d = pc - fld.source
            dist[blk] = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    violation = rate > trj.omega_max_declared + 1e-12
    return delta, lam, sigma_c, dist, pair, rate, violation.astype(np.int8)


def _finish(config, stored, rows, **abort):
    """SimLog of the first `rows` records of the stored columns (p, r,
    r_d, mu, pre, hold), with t and the log-only columns derived."""
    p, r, r_d, mu, pre, hold = (c[:rows] for c in stored)
    delta, lam, sigma_c, dist, pair, rate, violation = _derived(config, p, r, r_d, pre)
    t = np.arange(rows) * config.dt
    arrays = (t, p, r, r_d, mu, delta, lam, sigma_c, dist, pair, rate, hold, violation)
    return SimLog(config, None, config.controller.k_w, arrays, **abort)


def run(config: SimConfig) -> SimLog:
    """Execute the closed loop; deterministic for a fixed config.

    Raises NearPiSingularity (with .partial_log holding the records up to
    the offending step) if any agent's error hits the log singularity,
    and ValueError if the state stops being finite or drifts from SO(3)
    by 1e-3 or more at a projection (every PROJECT_EVERY steps).
    """
    p, r = _initial_conditions(config)
    n, m = config.n_agents, config.n_steps + 1
    trj, dt, k_w = config.trajectory, config.dt, config.controller.k_w
    seeking, literal = trj.mode == "source-seeking", config.rate_frame == "literal"
    shapes = ((n, 3), (n, 3, 3), (3, 3), (n,), (3,))
    stored = tuple(np.zeros((m,) + s) for s in shapes) + (np.zeros(m, dtype=np.int8),)
    ps, rs, r_ds, mus, pres, holds = stored
    r_d, target = trj.r_d, trj.r_d[:, 0].copy()
    # rows 0..n-1: the agents' half-step rotation vectors; row n: the
    # reference's spin vector, so that one _exp a step gives both. Body-
    # frame rates are run constants; literal ones turn with r_d.
    half = np.empty((n + 1, 3))
    wk, half[n] = _rates(trj, config.rate_frame, r_d, dt)
    # every value the loop forms lands in p, r or r_d, whose checks after
    # it (the log's angle test `ok` for r and r_d, `_derived`'s for p) turn
    # an overflow into ValueError; its warnings would pre-empt that
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            if seeking:
                pres[k] = r_d[:, 0]
                r_d, target, holds[k] = _retarget(r_d, target, p, config.field)
            r_e = r_d.T @ r
            tau_e, mu, ok = _log(r_e)
            ps[k], rs[k], r_ds[k], mus[k] = p, r, r_d, mu
            if k == m - 1 or not ok.all():
                break
            if literal:
                wk, half[n] = _rates(trj, "literal", r_d, dt)
            np.multiply(_feedforward(r_e, tau_e, wk, k_w), 0.5 * dt, out=half[:n])
            e = _exp(half)
            p, r = _move(p, r, e[:n], config.speed, dt)
            r_d = r_d @ e[n]
            if (k + 1) % PROJECT_EVERY == 0:
                try:
                    r, r_d = project_to_so3(r), project_to_so3(r_d)
                except ValueError as err:
                    raise ValueError(f"the attitudes at step {k + 1} are not rotations: {err}") from None
    if not ok.all():
        # a blown-up state also fails the log's angle test; it is not a
        # singularity of the control law
        if not all(np.isfinite(a).all() for a in (p, r, r_d)):
            raise ValueError(f"positions, attitudes and the reference must be finite; step {k} is not")
        reason = f"attitude error of agent {int(np.argmin(ok))} reached the log singularity at step {k}"
        partial = _finish(config, stored, k, aborted=True, abort_reason=reason)
        raise NearPiSingularity(reason, partial_log=partial)
    return _finish(config, stored, m)
