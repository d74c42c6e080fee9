"""Command-line surface.

Subcommands:
  gains <scenario>        print the gain plan for the scenario's initial
                          deployment (k1, k2, epsilon_max, k_w); runs use
                          the scenario's controller.k_w
  simulate <scenario>     run the closed loop and write steps.csv plus
                          summary.json into --out
  validate [--quick]      run the built-in property checks

Exit codes: 0 ok, 1 validation failure, 2 config, path or hypothesis
violation, 3 runtime singularity abort (partial log still written).
"""

import argparse
import sys
from importlib import resources
from pathlib import Path

from .deployment import deployment_stats, plan_gains
from .errors import NearPiSingularity, SwarmSO3Error
from .reporting import summarize, write_step_table, write_summary
from .scenario import parse_scenario, scenario_to_config
from .sim import RATE_FRAMES, _initial_conditions, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SINGULARITY = 3


def _resolve_scenario(name_or_path: str) -> str:
    """Accept a filesystem path or the name of a bundled scenario."""
    p = Path(name_or_path)
    if p.exists():
        return p.read_text(encoding="utf-8")
    bundled = resources.files("swarmso3").joinpath(
        "scenarios", f"{name_or_path}.scenario"
    )
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise SwarmSO3Error(
        f"scenario '{name_or_path}' is neither a file nor a bundled scenario"
    )


def _load_config(args):
    data = parse_scenario(_resolve_scenario(args.scenario))
    for key in ("dt", "seed", "rate_frame"):
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    return scenario_to_config(data)


def cmd_gains(args) -> int:
    config = _load_config(args)
    p0, _ = _initial_conditions(config)
    stats0 = deployment_stats(p0)
    plan = plan_gains(
        config.trajectory.omega_max_declared,
        config.controller.mu_star,
        config.speed,
        stats0,
    )
    print(f"deployment: lambda_min = {stats0.lambda_min:.4g}, D0 = {stats0.radius:.4g}")
    print(f"k1 (bounded-rate rule)    = {plan.k1:.4g}")
    print(f"k2 (non-degeneracy rule)  = {plan.k2:.4g}")
    print(f"epsilon_max               = {plan.epsilon_max:.4g}")
    print(f"k_w = max(k1, k2)         = {plan.k_w:.4g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    try:
        log = run(config)
    except NearPiSingularity as exc:
        log = exc.partial_log
        code = EXIT_SINGULARITY
        print(f"aborted: {exc}", file=sys.stderr)
    write_step_table(log, out_dir / "steps.csv")
    summary = (
        summarize(log)
        if len(log)
        else {"aborted": True, "abort_reason": log.abort_reason, "records": 0}
    )
    write_summary(summary, out_dir / "summary.json")
    print(f"wrote {out_dir / 'steps.csv'} ({len(log)} records)")
    print(f"wrote {out_dir / 'summary.json'}")
    if len(log):
        flags = summary["flags"]
        print(
            "k_w = {:.4g}; min lambda_min = {:.4g}; max pair disp = {:.4g} "
            "(budget {:.4g})".format(
                log.k_w,
                summary["lambda_min"]["minimum"],
                summary["max_pair_disp"],
                summary["displacement_budget"],
            )
        )
        print("flags: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    return code


def cmd_validate(args) -> int:
    from .validate import run_all

    results, ok = run_all(quick=args.quick)
    width = max(len(r[0]) for r in results)
    print(f"{'property':<{width}}  {'samples':>8}  {'worst':>12}  {'tol':>12}  status")
    for name, samples, worst, tol, passed in results:
        status = "pass" if passed else "FAIL"
        print(f"{name:<{width}}  {samples:>8}  {worst:>12.4g}  {tol:>12.4g}  {status}")
    if not ok:
        failed = [r[0] for r in results if not r[4]]
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmso3",
        description="SO(3) attitude control and swarm source-seeking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gains = sub.add_parser("gains", help="print the gain plan for a scenario")
    p_gains.add_argument("scenario", help="scenario file path or bundled name")
    p_gains.set_defaults(func=cmd_gains)

    p_sim = sub.add_parser("simulate", help="run a scenario and write logs")
    p_sim.add_argument("scenario", help="scenario file path or bundled name")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--dt", type=float, default=None, help="override step size")
    p_sim.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p_sim.add_argument(
        "--rate-frame",
        choices=RATE_FRAMES,
        default=None,
        dest="rate_frame",
        help="override the reference-rate frame convention",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run built-in property checks")
    p_val.add_argument("--quick", action="store_true", help="reduced sample counts")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SwarmSO3Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
