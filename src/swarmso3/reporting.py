"""Step-table serialization and run summaries.

The step table is plain CSV: one row per fixed-dt step, a header row
naming every column, and a leading comment documenting the layout.
Rotations are flattened row-major (r{i}00..r{i}22). Every number in the
summary is recomputable from the step table plus the scenario constants;
there is no hidden state.
"""

import dataclasses
import json
import math

import numpy as np

from .deployment import (
    deployment_stats,
    pairwise_displacement_bound,
    plan_gains,
    weyl_floor_violation,
)
from .errors import DegenerateDeployment

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
    cols += [
        "lambda_min",
        "sigma_centroid",
        "dist_to_source",
        "max_pair_disp",
        "unknown_rate",
        "hold",
        "rate_violation",
    ]
    return cols


def _rows(log):
    """The step table's lines: the comment and header, then one row per
    step, each float as its repr (nan as "nan")."""
    n = log.config.n_agents
    yield TABLE_COMMENT + ",".join(table_columns(n)) + "\n"
    tail = np.column_stack(
        (
            log.lambda_min,
            log.sigma_centroid,
            log.dist_to_source,
            log.max_pair_disp,
            log.unknown_rate,
        )
    ).tolist()
    flags = zip(log.hold_flag.tolist(), log.rate_violation.tolist())
    for k, (t, (hold, violation)) in enumerate(zip(log.t.tolist(), flags)):
        agents = np.concatenate(
            (log.p[k], log.r[k].reshape(n, 9), log.mu[k, :, None], log.delta[k, :, None]),
            axis=1,
        )
        values = [t, *agents.ravel().tolist(), *tail[k]]
        yield f"{','.join(map(repr, values))},{hold},{violation}\n"


def step_table_text(log) -> str:
    """Render a SimLog to CSV text (byte-deterministic)."""
    return "".join(_rows(log))


def write_step_table(log, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_rows(log))


def fit_decay_slope(t, mu, lo: float, hi: float):
    """Least-squares slope of log(mu) over samples with mu in (lo, hi].

    Returns (slope, n_samples); slope is nan with fewer than two samples.
    """
    mask = (mu > lo) & (mu <= hi) & np.isfinite(mu)
    if int(mask.sum()) < 2:
        return float("nan"), int(mask.sum())
    coef = np.polyfit(t[mask], np.log(mu[mask]), 1)
    return float(coef[0]), int(mask.sum())


def summarize(log) -> dict:
    """Headline quantities and pass/fail flags for one run.

    Decay slopes are fitted on log(mu): against the window mu in
    [1e-6, mu(0)] when the reference rate is fully known, else on the
    approach segment above mu_star (samples before the first entry).
    Raises ValueError for a log without records.
    """
    if not len(log):
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
    slopes, rel_errs, windows = [], [], []
    entered, max_after_entry, stay_ok = [], [], []
    for i in range(n):
        mu_i = log.mu[:, i]
        if disturbed:
            above = np.nonzero(mu_i <= mu_star)[0]
            cut = int(above[0]) if above.size else len(log)
            slope, _ = fit_decay_slope(log.t[:cut], mu_i[:cut], mu_star, np.inf)
            windows.append("above_mu_star")
        else:
            slope, _ = fit_decay_slope(log.t, mu_i, 1e-6, mu_i[0])
            windows.append("mu_above_1e-6")
        slopes.append(slope)
        rel_errs.append(
            abs(slope + k_w) / k_w if math.isfinite(slope) else float("nan")
        )
        delta_i = log.delta[:, i]
        inb = np.nonzero(delta_i <= delta_star)[0]
        if inb.size:
            entered.append(True)
            after = delta_i[int(inb[0]) :]
            max_after_entry.append(float(after.max()))
            stay_ok.append(bool(after.max() <= delta_star + band_slack))
        else:
            entered.append(False)
            max_after_entry.append(float("nan"))
            stay_ok.append(False)

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
            "window": windows[0],
            "slope": slopes,
            "rel_err_vs_k_w": rel_errs,
        },
        "final_mu": [float(v) for v in log.mu[-1]],
        "final_delta": [float(v) for v in log.delta[-1]],
        "band": {
            "delta_star": delta_star,
            "slack": band_slack,
            "entered": entered,
            "max_after_entry": max_after_entry,
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
        "decay_fit_ok": all(
            math.isfinite(sl) and (sl <= -0.9 * k_w if disturbed else abs(sl + k_w) <= 0.02 * k_w)
            for sl in slopes
        ),
        "band_ok": all(entered) and all(stay_ok),
        "displacement_ok": (not log.aborted) and max_disp <= displacement_budget,
        "lambda_min_positive": float(log.lambda_min.min()) > 0.0,
        "weyl_ok": weyl_worst <= 1e-9,
        "completed": not log.aborted,
    }
    return summary


def write_summary(summary: dict, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
