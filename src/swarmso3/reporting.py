"""Step-table serialization and run summaries.

The step table is plain CSV: one row per fixed-dt step, a header row
naming every column, and a leading comment documenting the layout.
Rotations are flattened row-major (r{i}00..r{i}22). Every number in the
summary is recomputable from the step table plus the scenario constants;
there is no hidden state.
"""

import dataclasses
import json

import numpy as np

from .deployment import deployment_stats, pairwise_displacement_bound, plan_gains
from .errors import DegenerateDeployment
from .sim import WEYL_TOL, weyl_floor_violation

# the per-step float columns after the agents' ones, each a SimLog column
SWARM_COLUMNS = ("lambda_min", "sigma_centroid", "dist_to_source", "max_pair_disp", "unknown_rate")
TABLE_COMMENT = (
    "# step table: one row per fixed-dt step; rotations row-major; "
    "angles in radians; nan marks quantities without a configured field\n"
)


def table_columns(n_agents: int) -> list:
    cols = ["t"]
    for i in range(n_agents):
        cols += [f"p{i}x", f"p{i}y", f"p{i}z"]
        cols += [f"r{i}{a}{b}" for a in range(3) for b in range(3)]
        cols += [f"mu{i}", f"delta{i}"]
    return cols + [*SWARM_COLUMNS, "hold", "rate_violation"]


def _rows(log):
    """The step table's lines: the comment and header, then one row per
    step, each float as its repr (nan as "nan")."""
    n = log.config.n_agents
    yield TABLE_COMMENT + ",".join(table_columns(n)) + "\n"
    tail = np.column_stack([getattr(log, c) for c in SWARM_COLUMNS]).tolist()
    flags = zip(log.hold_flag.tolist(), log.rate_violation.tolist())
    for k, (t, (hold, violation)) in enumerate(zip(log.t.tolist(), flags)):
        agents = np.concatenate(
            (log.p[k], log.r[k].reshape(n, 9), log.mu[k, :, None], log.delta[k, :, None]),
            axis=1,
        )
        values = [t, *agents.ravel().tolist(), *tail[k]]
        yield f"{','.join(map(repr, values))},{hold},{violation}\n"


def write_step_table(log, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_rows(log))


def _decay_slopes(t, mu, window):
    """Least-squares slopes of log(mu) against t, one per row of mu
    (N, M), over the samples where window (N, M) holds, by the centred
    closed form sum w (t - tbar)(y - ybar) / sum w (t - tbar)^2 with
    y = log(mu); nan for a row with fewer than two samples."""
    count = window.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        t_bar = np.where(window, t, 0.0).sum(axis=-1, keepdims=True) / count
        tc = np.where(window, t - t_bar, 0.0)
        y = np.log(np.where(window, mu, 1.0))
        y -= y.sum(axis=-1, keepdims=True) / count
        y *= tc
        slope = y.sum(axis=-1) / (tc * tc).sum(axis=-1)
    return np.where(count[:, 0] >= 2, slope, np.nan)


def summarize(log) -> dict:
    """Headline quantities and pass/fail flags for one run.

    Decay slopes are fitted on log(mu): against the window mu in
    [1e-6, mu(0)] when the reference rate is fully known, else on the
    approach segment above mu_star (samples before the first entry).
    Every per-agent quantity is one array expression over the (M, N)
    log. Raises ValueError for a log without records.
    """
    m = len(log)
    if not m:
        raise ValueError("cannot summarize a log without records")
    cfg = log.config
    n = cfg.n_agents
    k_w = log.k_w
    mu_star = cfg.controller.mu_star
    delta_star = cfg.controller.delta_star
    band_slack = 5.0 * cfg.dt * k_w

    disturbed = cfg.trajectory.mode == "source-seeking" or (
        float(np.linalg.norm(cfg.trajectory.omega_unknown)) > 0.0
    )
    steps = np.arange(m)
    # agents as rows, so that each row's sums run over contiguous samples
    mu = np.ascontiguousarray(log.mu.T)
    if disturbed:
        reached = mu <= mu_star
        cut = np.where(reached.any(axis=1), reached.argmax(axis=1), m)
        window = (steps < cut[:, None]) & (mu > mu_star)
        window_name = "above_mu_star"
    else:
        window = (mu > 1e-6) & (mu <= mu[:, :1])
        window_name = "mu_above_1e-6"
    window &= np.isfinite(mu)
    slopes = _decay_slopes(log.t, mu, window)
    rel_errs = np.abs(slopes + k_w) / k_w
    fit_ok = slopes <= -0.9 * k_w if disturbed else np.abs(slopes + k_w) <= 0.02 * k_w

    inband = log.delta <= delta_star
    entered = inband.any(axis=0)
    after = np.where(steps[:, None] >= inband.argmax(axis=0), log.delta, -np.inf)
    max_after_entry = np.where(entered, after.max(axis=0), np.nan)
    stay_ok = entered & (max_after_entry <= delta_star + band_slack)

    # worst-case displacement budget vs what the run actually used
    displacement_budget = pairwise_displacement_bound(cfg.speed, k_w)
    max_disp = float(log.max_pair_disp.max())

    # covariance floor: lambda_min(t) >= lambda_min(0) - (2 D0 e + e^2)
    weyl_worst = weyl_floor_violation(log.p, log.lambda_min)
    try:
        plan = plan_gains(
            cfg.trajectory.omega_max_declared,
            mu_star,
            cfg.speed,
            deployment_stats(log.p[0]),
        )
        plan_dict = dataclasses.asdict(plan)
    except DegenerateDeployment:
        plan_dict = None

    summary = {
        "scenario": cfg.name,
        "n_agents": n,
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "speed": cfg.speed,
        "k_w": k_w,
        "gain_mode": "manual",  # kept for existing readers; k_w is always the config's
        "rate_frame": cfg.rate_frame,
        "aborted": log.aborted,
        "abort_reason": log.abort_reason,
        "planned_gains": plan_dict,
        "decay": {
            "window": window_name,
            "slope": slopes.tolist(),
            "rel_err_vs_k_w": rel_errs.tolist(),
        },
        "final_mu": log.mu[-1].tolist(),
        "final_delta": log.delta[-1].tolist(),
        "band": {
            "delta_star": delta_star,
            "slack": band_slack,
            "entered": entered.tolist(),
            "max_after_entry": max_after_entry.tolist(),
        },
        "lambda_min": {
            "initial": float(log.lambda_min[0]),
            "minimum": float(log.lambda_min.min()),
            "final": float(log.lambda_min[-1]),
        },
        "max_pair_disp": max_disp,
        "displacement_budget": displacement_budget,
        "weyl_worst_violation": weyl_worst,
        "holds": int(log.hold_flag.sum()),
        "rate_violations": int(log.rate_violation.sum()),
    }
    summary["flags"] = {
        "decay_fit_ok": bool((np.isfinite(slopes) & fit_ok).all()),
        "band_ok": bool(stay_ok.all()),
        "displacement_ok": (not log.aborted) and max_disp <= displacement_budget,
        "lambda_min_positive": float(log.lambda_min.min()) > 0.0,
        "weyl_ok": weyl_worst <= WEYL_TOL,
        "completed": not log.aborted,
    }
    return summary


def write_summary(summary: dict, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
