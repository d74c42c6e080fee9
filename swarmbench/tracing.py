"""Spans recorded from the benchmark's side of each call into swarmso3.

A span is kept as a running (total ns, call count) pair per name for the
current operation; the child process hands one such table per traced
operation back to the parent. Nothing here is imported by swarmso3, and
nothing here reaches into swarmso3._kernels.
"""

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from types import MappingProxyType

import numpy as np

from swarmso3 import (
    DesiredAttitudeRate,
    DesiredAttitudeTrajectory,
    RobotState,
    advance_desired,
    ascending_direction,
    attitude_error,
    control_known_ff,
    deployment_stats,
    field_eval,
    hat,
    step_agent,
)
from swarmso3.errors import DegenerateDirection
from swarmso3.sim import reference_body_rates

REPLAY_TOL = 1e-10


class NullTracer:
    """Stand-in used for untraced operations; every hook is free."""

    last = MappingProxyType({})

    def span(self, name):
        return nullcontext()

    def patch(self, targets):
        return nullcontext()


class Tracer:
    """Per-operation span totals, plus the last value each wrapped call returned."""

    def __init__(self):
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.last = {}

    def reset(self):
        self.ns.clear()
        self.calls.clear()
        self.last.clear()

    def table(self):
        return {name: [self.ns[name], self.calls[name]] for name in self.ns}

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.ns[name] += time.perf_counter_ns() - t0
            self.calls[name] += 1

    def _wrap(self, fn, name):
        ns, calls, last = self.ns, self.calls, self.last

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                ns[name] += time.perf_counter_ns() - t0
                calls[name] += 1
            last[name] = out
            return out

        return wrapper

    @contextmanager
    def patch(self, targets):
        """Replace module attributes by timing wrappers for the duration.

        `targets` is a list of (module, attribute, span name). A missing
        attribute raises AttributeError, so a renamed entry point fails
        the traced run instead of silently losing its span.
        """
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for (mod, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(mod, attr, self._wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def replay(log, tracer):
    """Recompute every logged step from the state logged before it.

    Each step k -> k+1 goes through the public per-step API, one span per
    call, as tests/test_sim.py::_replay does from step 0. Starting each
    step from the logged state keeps round-off from compounding over long
    runs. Where the reference is source-seeking, the swarm statistics, the
    per-agent field samples and the ascending direction that
    `advance_desired` uses internally are also timed as separate calls on
    the same positions; those spans are not part of the replayed share.

    Returns the largest deviation from log.p, log.r and log.r_d.
    """
    cfg = log.config
    trj = cfg.trajectory
    frame = cfg.rate_frame
    seeking = trj.mode == "source-seeking"
    worst = 0.0
    for k in range(len(log) - 1):
        traj = DesiredAttitudeTrajectory(
            mode=trj.mode,
            r_d=log.r_d[k],
            omega_known=trj.omega_known,
            omega_unknown=trj.omega_unknown,
            omega_max_declared=trj.omega_max_declared,
        )
        wk, _ = reference_body_rates(traj, frame)
        rate = DesiredAttitudeRate(known=hat(wk), unknown_bound=trj.omega_max_declared)
        positions = np.empty((cfg.n_agents, 3))
        for i in range(cfg.n_agents):
            state = RobotState(p=log.p[k, i], r=log.r[k, i])
            with tracer.span("attitude.error"):
                err = attitude_error(traj.r_d, state.r)
            with tracer.span("attitude.control"):
                omega = control_known_ff(err.r_e, rate, log.k_w)
            with tracer.span("sim.step_agent"):
                new = step_agent(state, omega, cfg.speed, cfg.dt)
            positions[i] = new.p
            worst = max(
                worst,
                float(np.max(np.abs(new.p - log.p[k + 1, i]))),
                float(np.max(np.abs(new.r - log.r[k + 1, i]))),
            )
        with tracer.span("sim.advance_desired"):
            traj = advance_desired(
                traj, cfg.dt, rate_frame=frame, positions=positions, field=cfg.field
            )
        worst = max(worst, float(np.max(np.abs(traj.r_d - log.r_d[k + 1]))))
        with tracer.span("deployment.stats"):
            stats = deployment_stats(positions)
        if seeking:
            sigma = np.empty(cfg.n_agents)
            for i in range(cfg.n_agents):
                with tracer.span("fields.eval"):
                    sigma[i] = field_eval(cfg.field, positions[i])
            try:
                with tracer.span("deployment.ascending"):
                    ascending_direction(sigma, stats)
            except DegenerateDirection:
                pass
    return worst
