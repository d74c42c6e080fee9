"""The three workloads. Each runs closed-loop, one operation after another.

A workload builds its config in `setup(seed)` (what setup_s times in a
fresh process) and then runs `op(seed, tracer)` repeatedly. `op` returns
an Outcome whose `output` goes to `check(output, reference)`; at the
default seed `reference_value(output)` is compared with the stored
reference. Every call into swarmso3 goes through the public API;
`tracer` either times those calls or does nothing.
"""

import io
import json
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

import swarmso3
from swarmso3 import so3

import checks


@dataclass
class Outcome:
    output: object
    agent_steps: int
    pairs: int
    log: object = None
    csv_bytes: int = 0


def _work(n_agents, n_steps):
    """(agent-steps, pairs scanned) of one run of n_steps."""
    return n_agents * n_steps, n_steps * n_agents * (n_agents - 1) // 2


def _log_outcome(output, log):
    return Outcome(output, *_work(log.config.n_agents, len(log) - 1), log=log)


class Aborted(Exception):
    """The run hit the log singularity and ended with the documented
    exit code 3, writing a partial log and a summary flagged aborted."""


class Workload:
    checks_files = False

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def check(self, output, reference):
        """Problems with the output; at the default seed, also differences
        from the stored reference."""
        problems = self.problems(output)
        if reference:
            problems += checks.check_reference(self.name, self.reference_value(output))
        return problems

    def findings(self, output):
        """Findings at this seed that are reported but do not fail the op."""
        return []


class Fig3Cli(Workload):
    """`swarmso3 simulate fig3 --out DIR --seed S`, called in-process."""

    name = "fig3-cli"
    default_seed = 3
    # Its output is files; they are checked after the timed loop so that
    # re-reading them does not raise the peak memory of the measured process.
    checks_files = True

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self.count = 0

    def setup(self, seed):
        from swarmso3 import cli, scenario

        self.cli = cli
        text = resources.files("swarmso3").joinpath("scenarios", "fig3.scenario")
        data = scenario.parse_scenario(text.read_text(encoding="utf-8"))
        data["seed"] = seed
        self.config = scenario.scenario_to_config(data)

    def op(self, seed, tracer):
        cli = self.cli
        out = self.work_dir / f"op-{self.count}"
        self.count += 1
        argv = ["simulate", "fig3", "--out", str(out), "--seed", str(seed)]
        spans = [
            (cli, "parse_scenario", "scenario.parse"),
            (cli, "scenario_to_config", "scenario.parse"),
            (cli, "run", "sim.run"),
            (cli, "write_step_table", "reporting.csv"),
            (cli, "summarize", "reporting.summarize"),
            (cli, "write_summary", "reporting.summary_write"),
        ]
        with tracer.patch(spans), tracer.span("cli.main"), redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code == cli.EXIT_SINGULARITY:
            summary = self.reference_value(out)
            shutil.rmtree(out)
            if summary["aborted"] is True and not summary.get("flags", {}).get("completed"):
                raise Aborted(summary.get("abort_reason", "no records"))
            raise RuntimeError("exit code 3 without a summary flagged aborted")
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        cfg = self.config
        log = tracer.last.get("sim.run")
        return Outcome(
            out,
            *_work(cfg.n_agents, int(round(cfg.t_end / cfg.dt))),
            log=log,
            csv_bytes=(out / "steps.csv").stat().st_size,
        )

    def check(self, out, reference):
        try:
            return super().check(out, reference)
        finally:
            shutil.rmtree(out)

    def problems(self, out):
        return checks.check_cli_output(out, self.config)

    def reference_value(self, out):
        with open(out / "summary.json", encoding="utf-8") as fh:
            return json.load(fh)


class SwarmScale(Workload):
    """`run(cfg)` then `summarize(log)` for the bench-seek config at N=400."""

    name = "swarm-scale"
    default_seed = 3

    def setup(self, seed):
        from swarmso3 import reporting

        self.reporting = reporting
        dt = 0.005
        self.config = swarmso3.SimConfig(
            n_agents=400, speed=15.0, dt=dt, t_end=4 * dt, seed=seed,
            controller=swarmso3.ControllerConfig(k_w=2.7768, delta_star=0.4),
            trajectory=swarmso3.DesiredAttitudeTrajectory(
                mode="source-seeking", r_d=np.eye(3),
                omega_known=[np.pi, 0, 0], omega_unknown=[0, 0, 0],
                omega_max_declared=np.pi / 4,
            ),
            placement=swarmso3.PlacementSpec(kind="ball", radius=3.5),
            attitudes=swarmso3.AttitudeInitSpec(kind="ball", radius=1.5),
            field=swarmso3.FieldSpec(
                kind="gaussian", source=[90.0, 60.0, 30.0], amplitude=100.0,
                width=[60.0, 70.0, 55.0],
            ),
            rate_frame="body", name="bench-seek",
        )

    def op(self, seed, tracer):
        cfg = replace(self.config, seed=seed)
        with tracer.span("sim.run"):
            log = swarmso3.run(cfg)
        with tracer.span("reporting.summarize"):
            summary = self.reporting.summarize(log)
        return _log_outcome((log, summary), log)

    def problems(self, output):
        log, summary = output
        return checks.check_log(log) + checks.check_summary_flags(summary)

    def reference_value(self, output):
        return output[1]


class ValidateFull(Workload):
    """The six validate.check_* checks at `run_all(quick=False)` sizes."""

    name = "validate-full"
    default_seed = 2024
    N_SO3 = 10000
    N_FD = 1000

    def setup(self, seed):
        from swarmso3 import validate

        self.validate = validate

    def op(self, seed, tracer):
        v = self.validate
        rng = np.random.default_rng(seed)
        spans = [
            (v, "run", "sim.run"),
            (so3, "exp_so3", "so3.exp"),
            (so3, "log_so3", "so3.log"),
            (so3, "dist_geodesic", "so3.dist_geodesic"),
            (so3, "adjoint_rotate", "so3.adjoint"),
        ]
        with tracer.patch(spans):
            log = v._closed_loop_log(1.0)
            results = []
            for name, call in (
                ("roundtrip", lambda: v.check_roundtrip(self.N_SO3, rng)),
                ("metric_ordering", lambda: v.check_metric_ordering(self.N_SO3, rng)),
                ("ad_invariance", lambda: v.check_ad_invariance(self.N_SO3, rng)),
                ("gradient_fd", lambda: v.check_gradient_fd(self.N_FD, rng)),
                ("weyl_chain", lambda: v.check_weyl_chain(log)),
                ("displacement_budget", lambda: v.check_displacement_budget(log)),
            ):
                with tracer.span(f"validate.{name}"):
                    results.append(call())
        return _log_outcome((log, results), log)

    def problems(self, output):
        log, results = output
        problems = checks.check_log(log)
        if log.aborted:
            problems.append("closed-loop run aborted")
        # The last two checks are the run's weyl_ok and displacement_ok,
        # which must hold at any seed.
        return problems + [f"check failed: {r[0]}" for r in results[4:] if not r[4]]

    def findings(self, output):
        """The so3 and field property checks that failed at this seed.

        They are reported, not counted as failed operations: at some
        seeds "metric ordering" fails because so3.dist_geodesic, an
        arccos of the trace, is off by up to ~1e-10 rad below ~1e-4 rad,
        beyond the check's 1e-12 tolerance. At the default seed every
        check must pass, through the reference.
        """
        return [f"{r[0]}: worst {r[2]:.3g} > tol {r[3]:.3g}" for r in output[1][:4] if not r[4]]

    def reference_value(self, output):
        return output[1]


WORKLOADS = {w.name: w for w in (Fig3Cli, SwarmScale, ValidateFull)}
