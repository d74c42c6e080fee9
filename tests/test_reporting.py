import copy
import dataclasses
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from swarmso3 import ControllerConfig, run
from swarmso3.reporting import _decay_slopes, summarize
from swarmso3.scenario import parse_scenario, scenario_to_config


def _bundled(scenario, **changes):
    text = resources.files("swarmso3").joinpath("scenarios", f"{scenario}.scenario")
    cfg = scenario_to_config(parse_scenario(text.read_text(encoding="utf-8")))
    return dataclasses.replace(cfg, **changes)


def _per_agent(log):
    """The decay slopes (np.polyfit) and band quantities, one agent at a
    time, by the rules `summarize` documents."""
    cfg = log.config
    mu_star, delta_star = cfg.controller.mu_star, cfg.controller.delta_star
    disturbed = cfg.trajectory.mode == "source-seeking" or bool(
        np.any(cfg.trajectory.omega_unknown)
    )
    slopes, entered, max_after, stay_ok = [], [], [], []
    for i in range(cfg.n_agents):
        t, mu = log.t, log.mu[:, i]
        if disturbed:
            reached = np.nonzero(mu <= mu_star)[0]
            cut = reached[0] if reached.size else len(log)
            t, mu = t[:cut], mu[:cut]
            mask = (mu > mu_star) & np.isfinite(mu)
        else:
            mask = (mu > 1e-6) & (mu <= mu[0]) & np.isfinite(mu)
        if mask.sum() >= 2:
            slopes.append(np.polyfit(t[mask], np.log(mu[mask]), 1)[0])
        else:
            slopes.append(np.nan)
        delta = log.delta[:, i]
        inband = np.nonzero(delta <= delta_star)[0]
        if inband.size:
            top = delta[inband[0]:].max()
            entered.append(True)
            max_after.append(top)
            stay_ok.append(top <= delta_star + 5.0 * cfg.dt * log.k_w)
        else:
            entered.append(False)
            max_after.append(np.nan)
            stay_ok.append(False)
    return np.array(slopes), entered, max_after, stay_ok


def _edited(log, edit):
    out = copy.copy(log)
    out.mu, out.delta = log.mu.copy(), log.delta.copy()
    edit(out)
    return out


def _nan_mu(log):
    log.mu[:, 0] = np.nan


def _one_sample(log):
    # disturbed: mu reaches mu_star at step 1, leaving one sample before
    # it; undisturbed: mu(0) = 1e-7 leaves none in (1e-6, mu(0)]
    log.mu[1, -1] = 0.5 * log.config.controller.mu_star
    log.mu[0, -1] = 1e-7


def _never_in_band(log):
    log.delta[:, 0] = log.config.controller.delta_star + 0.1


SWARM_SCALE = dict(
    n_agents=400, t_end=4 * 0.005, name="bench-seek",
    controller=ControllerConfig(k_w=2.7768, delta_star=0.4),
)


@pytest.mark.parametrize(
    "config",
    [_bundled("prop1_smoke"), _bundled("fig3"), _bundled("fig3", **SWARM_SCALE),
     _bundled("fig2", t_end=4.0)],
    ids=["prop1_smoke", "fig3", "swarm-scale", "fig2-short"],
)
@pytest.mark.parametrize("edit", [None, _nan_mu, _one_sample, _never_in_band])
def test_summarize_equals_a_per_agent_loop(config, edit):
    log = run(config)
    if edit is not None:
        log = _edited(log, edit)
    summary = summarize(log)
    slopes, entered, max_after, stay_ok = _per_agent(log)
    got = np.array(summary["decay"]["slope"])
    assert np.array_equal(np.isnan(got), np.isnan(slopes))
    fit = ~np.isnan(slopes)
    assert np.all(np.abs(got[fit] - slopes[fit]) <= 1e-12 * np.abs(slopes[fit]))
    band = summary["band"]
    assert band["entered"] == entered
    assert np.array_equal(band["max_after_entry"], max_after, equal_nan=True)
    assert summary["flags"]["band_ok"] == all(stay_ok)
    if edit is _nan_mu or edit is _one_sample:
        assert np.isnan(got[0 if edit is _nan_mu else -1])
        assert not summary["flags"]["decay_fit_ok"]
    if edit is _never_in_band:
        assert band["entered"][0] is False and np.isnan(band["max_after_entry"][0])


def _exact_slope(t, y):
    t, y = [Fraction(v) for v in t], [Fraction(v) for v in y]
    t_bar, y_bar = sum(t) / len(t), sum(y) / len(y)
    num = sum((a - t_bar) * (b - y_bar) for a, b in zip(t, y))
    return num / sum((a - t_bar) ** 2 for a in t)


def test_fig3_decay_fit_fails_for_the_agents_the_readme_names():
    # agents 1, 2 and 6 start inside mu_star, so they have no approach
    # segment to fit; agent 3's approach is shallower than -0.9 k_w
    log = run(_bundled("fig3"))
    summary = summarize(log)
    slopes = np.array(summary["decay"]["slope"])
    assert not summary["flags"]["decay_fit_ok"]
    assert np.flatnonzero(log.mu[0] <= log.config.controller.mu_star).tolist() == [1, 2, 6]
    assert np.flatnonzero(np.isnan(slopes)).tolist() == [1, 2, 6]
    assert np.flatnonzero(slopes > -0.9 * log.k_w).tolist() == [3]


def test_decay_slopes_are_nearly_exact_least_squares():
    # against the exact rational slope of the same float samples, the
    # closed form stays within a few ulps on fig3's approach windows
    log = run(_bundled("fig3", t_end=2.0))
    mu = np.ascontiguousarray(log.mu.T)
    window = mu > log.config.controller.mu_star
    window &= np.cumprod(window, axis=1).astype(bool)
    got = _decay_slopes(log.t, mu, window)
    for i in range(log.config.n_agents):
        w = window[i]
        if w.sum() < 2:
            continue
        exact = _exact_slope(log.t[w], np.log(mu[i, w]))
        assert abs(Fraction(got[i]) - exact) <= 2e-15 * abs(exact), i
