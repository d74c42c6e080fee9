"""Benchmark of swarmso3: one workload per call, outputs checked.

Usage (from the repository root):

    python3 swarmbench/run.py --workload fig3-cli|swarm-scale|validate-full \
        --seed N --seconds S --trace 0|1

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics declared in BENCHMARK.json; with --trace 1 it holds
the per-layer metrics of a separate traced run. The lines before it give
every metric with its unit and sample count, and the environment.

The parent process starts one fresh child that runs the workload for
--seconds and, with --trace 0, several fresh children that only time
set-up. It imports neither numpy nor swarmso3 itself. The benchmark is
described in swarmbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".swarmbench_work"
SETUP_RUNS = 7
# Spans whose sum is the replayed share of `run`: one step of the loop
# restated through the public per-step API (see tracing.replay).
REPLAY_SPANS = ("attitude.error", "attitude.control", "sim.step_agent", "sim.advance_desired")
DEADLINE_S = 170.0


def _remove_work_dir(work_dir):
    """Remove this process's work directory, and the shared parent once empty."""
    shutil.rmtree(work_dir)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run is still using it


def _import_swarmso3():
    """Import swarmso3 from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import swarmso3

    if SRC.resolve() not in Path(swarmso3.__file__).resolve().parents:
        raise ImportError(f"swarmso3 imported from {swarmso3.__file__}, not {SRC}")
    return swarmso3


# ---------------------------------------------------------------- children


def child_setup(args):
    """Time import plus config build in this fresh process."""
    t0 = time.perf_counter()
    _import_swarmso3()
    import workloads

    workloads.WORKLOADS[args.workload](None).setup(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def write_reference(args):
    """Store the default-seed output of the workload as its reference."""
    _import_swarmso3()
    import checks
    import workloads
    from tracing import NullTracer

    work_dir = WORK / "reference"
    work_dir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work_dir)
        wl.setup(wl.default_seed)
        out = wl.op(wl.default_seed, NullTracer()).output
        checks.write_reference(wl.name, wl.reference_value(out))
    finally:
        _remove_work_dir(work_dir)
    print(f"wrote {checks.reference_path(wl.name)}")


def child_measure(args):
    """Run the workload for --seconds; report every operation."""
    swarmso3 = _import_swarmso3()
    import numpy as np

    import workloads
    from tracing import REPLAY_TOL, NullTracer, Tracer, replay

    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work_dir)
    wl.setup(args.seed)
    tracer, null = Tracer(), NullTracer()
    seeds = np.random.default_rng(args.seed)
    ops, pending = [], []

    def check(rec, output):
        try:
            rec["problems"] += wl.check(output, rec["reference"])
        except Exception as exc:  # an output the check cannot read is a failure
            rec["problems"].append(f"check raised {type(exc).__name__}: {exc}")

    def run_op(seed, traced, reference):
        rec = {"seed": seed, "traced": traced, "reference": reference,
               "problems": [], "findings": []}
        tr = tracer if traced else null
        tracer.reset()
        t0 = time.perf_counter()
        try:
            out = wl.op(seed, tr)
        except workloads.Aborted as exc:
            # A documented outcome at this seed, but less work than a full
            # run: reported and not timed. At the default seed it fails.
            (rec["problems"] if reference else rec["findings"]).append(f"aborted: {exc}")
            return rec
        except Exception as exc:  # an operation that raises counts as failed
            rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
            return rec
        rec.update(wall_s=time.perf_counter() - t0, agent_steps=out.agent_steps,
                   pairs=out.pairs, csv_bytes=out.csv_bytes)
        if traced:
            try:
                dev = replay(out.log, tracer)
            except Exception as exc:  # a replay that cannot finish is a failure
                rec["problems"].append(f"replay raised {type(exc).__name__}: {exc}")
            else:
                rec["replay_dev"] = dev
                if not dev <= REPLAY_TOL:
                    rec["problems"].append(f"replay deviates from the log by {dev:.3g}")
            rec["spans"] = tracer.table()
        rec["findings"] += wl.findings(out.output)
        if wl.checks_files:
            pending.append((rec, out.output))
        else:
            check(rec, out.output)
        return rec

    try:
        # The first operation runs at the workload's default seed and is
        # also compared with the stored reference; the rest draw their seeds
        # from --seed. In a traced run every second operation is traced.
        deadline = time.perf_counter() + args.seconds
        i = 0

        def timed(traced):
            return any(op["traced"] == traced and "wall_s" in op for op in ops)

        while True:
            reference = i == 0
            seed = wl.default_seed if reference else int(seeds.integers(0, 2**31 - 1))
            c0 = time.perf_counter()
            ops.append(run_op(seed, bool(args.trace) and i % 2 == 1, reference))
            cycle = time.perf_counter() - c0
            i += 1
            enough = timed(False) and (not args.trace or timed(True))
            now = time.perf_counter()
            if (enough and now + cycle > deadline) or now > deadline + args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rec, output in pending:
            check(rec, output)
    finally:
        _remove_work_dir(work_dir)
    enabled = bool(getattr(swarmso3, "NUMBA_ENABLED", False))
    print(json.dumps({
        "ops": ops,
        "peak_rss_mb": rss_mb,
        "env": {
            "swarmso3": swarmso3.__version__,
            "numpy": np.__version__,
            "backend": "numba" if enabled else "interpreted (numba not in use)",
            "numba_enabled": enabled,
        },
    }))


# ------------------------------------------------------------------ parent


def _child(args, mode, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for a child process")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child '{mode}' exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _numba_imports():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    above it. With ten samples or fewer there is none; the maximum is
    reported at percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _per_call_us(spans, name):
    ns = sum(s.get(name, [0, 0])[0] for s in spans)
    calls = sum(s.get(name, [0, 0])[1] for s in spans)
    return (ns / calls / 1e3 if calls else 0.0), calls


def _per_op_s(spans, names):
    return [sum(s.get(n, [0, 0])[0] for n in names) / 1e9 for s in spans]


def layer_metrics(ops):
    """Per-layer metrics from the traced operations that passed their checks."""
    traced = [op for op in ops if "spans" in op]
    # A replay that drifts from the log is a failure and is not timed;
    # only when no traced op passed are the failed ones used.
    good = [op for op in traced if not op["problems"]] or traced
    spans = [op["spans"] for op in good]
    m, notes = {}, {}
    med = statistics.median

    def per_op(metric, names):
        m[metric] = med(_per_op_s(spans, names))
        notes[metric] = f"median of {len(spans)} traced ops"

    def per_call(metric, name):
        m[metric], calls = _per_call_us(spans, name)
        notes[metric] = f"mean of {calls} calls"

    per_op("scenario.parse_s", ["scenario.parse"])
    per_op("sim.run_s", ["sim.run"])
    run_s = sum(_per_op_s(spans, ["sim.run"]))
    steps = sum(op["agent_steps"] for op in good)
    m["sim.agent_steps"] = med(op["agent_steps"] for op in good)
    m["sim.pairs_scanned"] = med(op["pairs"] for op in good)
    m["sim.us_per_agent_step"] = run_s / steps * 1e6
    notes["sim.us_per_agent_step"] = f"{steps} agent-steps"
    for metric, name in (
        ("sim.step_agent_us", "sim.step_agent"),
        ("sim.advance_desired_us", "sim.advance_desired"),
        ("attitude.error_us", "attitude.error"),
        ("attitude.control_us", "attitude.control"),
        ("deployment.stats_us", "deployment.stats"),
        ("deployment.ascending_us", "deployment.ascending"),
        ("fields.eval_us", "fields.eval"),
        ("so3.exp_us", "so3.exp"),
        ("so3.log_us", "so3.log"),
        ("so3.dist_geodesic_us", "so3.dist_geodesic"),
        ("so3.adjoint_us", "so3.adjoint"),
    ):
        per_call(metric, name)
    m["fields.evals"] = med(s.get("fields.eval", [0, 0])[1] for s in spans)
    replayed = sum(_per_op_s(spans, REPLAY_SPANS))
    m["sim.replay_share"] = replayed / run_s if run_s else 0.0
    per_op("reporting.csv_s", ["reporting.csv"])
    m["reporting.csv_bytes"] = med(op["csv_bytes"] for op in good)
    csv_s = sum(_per_op_s(spans, ["reporting.csv"]))
    m["reporting.csv_mb_per_s"] = sum(op["csv_bytes"] for op in good) / 1e6 / csv_s if csv_s else 0.0
    per_op("reporting.summarize_s", ["reporting.summarize"])
    per_op("reporting.summary_write_s", ["reporting.summary_write"])
    for check in ("roundtrip", "metric_ordering", "ad_invariance", "gradient_fd",
                  "weyl_chain", "displacement_budget"):
        per_op(f"validate.{check}_s", [f"validate.{check}"])
    children = ["scenario.parse", "sim.run", "reporting.csv", "reporting.summarize",
                "reporting.summary_write"]
    m["cli.self_s"] = med(
        a - b for a, b in zip(_per_op_s(spans, ["cli.main"]), _per_op_s(spans, children))
    ) if any("cli.main" in s for s in spans) else 0.0
    notes["cli.self_s"] = "cli.main minus the calls it makes into other layers"
    return m, notes


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default-seed output as the reference and exit")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "swarmso3" / "__init__.py").is_file():
        print(f"error: no swarmso3 sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args)
    if args.child == "setup":
        return child_setup(args)
    if args.child == "measure":
        return child_measure(args)

    deadline = time.monotonic() + DEADLINE_S
    try:
        measured = _child(args, "measure", deadline)
        setups = [] if args.trace else [
            _child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS)
        ]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = measured["ops"]
    failed = sum(1 for op in ops if op["problems"])
    timed = [op for op in ops if "wall_s" in op]
    plain = [op["wall_s"] for op in timed if not op["traced"]]
    if not plain or (args.trace and not any("spans" in op for op in timed)):
        print("error: no operation completed", file=sys.stderr)
        return 1
    wall = statistics.median(plain)
    steps = statistics.median(op["agent_steps"] for op in timed)
    tail_s, tail_pct = tail(plain)
    m = {
        "wall_s": wall,
        "wall_tail_s": tail_s,
        "wall_tail_pct": tail_pct,
        "agent_steps_per_s": steps / wall,
        "failed_ratio": failed / len(ops),
    }
    notes = {
        "wall_s": f"median of {len(plain)} untraced ops",
        "wall_tail_s": f"of {len(plain)} untraced ops",
        "agent_steps_per_s": f"{steps} agent-steps per op / wall_s",
        "failed_ratio": f"{failed} of {len(ops)} ops",
    }
    if args.trace:
        traced = [op["wall_s"] for op in timed if op["traced"]]
        layers, layer_notes = layer_metrics(ops)
        m.update(layers)
        notes.update(layer_notes)
        m["trace.overhead_ratio"] = statistics.median(traced) / wall
        notes["trace.overhead_ratio"] = f"{len(traced)} traced vs {len(plain)} untraced ops"
        emit = declared["per_layer"]
    else:
        m["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} fresh processes"
        m["peak_rss_mb"] = measured["peak_rss_mb"]
        notes["peak_rss_mb"] = "ru_maxrss of the fresh process that ran the workload"
        emit = declared["end_to_end"]

    env = dict(measured["env"], python=platform.python_version(),
               nproc=os.cpu_count(), numba_imports=_numba_imports())
    units = {d["name"]: d["unit"] for d in declared["end_to_end"] + declared["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, value in m.items():
        print(f"  {name:<28} {value:>14.6g} {units.get(name, ''):<6}  {notes.get(name, '')}")
    for op in ops:
        for problem in op["problems"]:
            print(f"  FAILED op seed={op['seed']}: {problem}")
        for finding in op["findings"]:
            print(f"  FINDING op seed={op['seed']}: {finding}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {d["name"]: {"value": m[d["name"]], "unit": d["unit"]} for d in emit},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
