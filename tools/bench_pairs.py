"""Alternating pairs of benchmark runs at two checkouts, written as BENCH json.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \
        --workload swarm-scale [--workload fig3-cli ...] [--seed 1]

PARENT and CHANGE are checkout directories, each with its own
`swarmbench/run.py`. Each of the PAIRS = 10 pairs runs `python3
swarmbench/run.py --workload W --seed S --seconds T --trace 0` once in
each checkout, one after the other, the parent first in even pairs and
the change first in odd ones, so that neither side always runs in the
same slot. T is the `run_seconds` that CHANGE's BENCHMARK.json fixes. The
final JSON line of every run is kept. For each end-to-end metric that
CHANGE's BENCHMARK.json declares, the summary gives each side's [q1,
median, q3] (inclusive quartiles), the number of pairs in which the change
read better (`change_wins`, ties counting for neither side), the number of
pairs and the parent's interquartile range (`parent_iqr`). Its `failures`
entry gives, per side, the runs that were not `correct` and the share of
failed operations, the total of `failed` over the total of `attempted`.

An existing --out file keeps its other entries: a workload at another seed
is added beside them, and the same workload and seed is replaced. The file
is written after every pair, so a failed or interrupted run keeps the
pairs finished before it; a workload's `summary` is added after its last
pair, and an entry without one is incomplete. Standard library only, so it
runs under any interpreter that can run the benchmark.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10


def run_once(checkout, workload, seed, seconds):
    """The final JSON object printed by one benchmark run in `checkout`."""
    cmd = [sys.executable, "swarmbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads([line for line in out.splitlines() if line.startswith("{")][-1])


def quartiles(values):
    """[q1, median, q3] with inclusive quartiles, rounded to 6 decimals."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q2, 6), round(q3, 6)]


def failures(side_runs):
    """The runs of one side that were not correct, and its share of failed operations."""
    failed, attempted = (sum(r[key] for r in side_runs) for key in ("failed", "attempted"))
    return {"not_correct": sum(not r["correct"] for r in side_runs),
            "failed_share": failed / max(1, attempted)}


def summarize(runs, declared):
    """Per declared metric: both sides' quartiles, change_wins and parent_iqr;
    and under `failures`, each side's `failures`."""
    out = {"failures": {side: failures(side_runs) for side, side_runs in runs.items()}}
    for metric in declared:
        name = metric["name"]
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        q = {side: quartiles(v) for side, v in sides.items()}
        out[name] = {**q, "change_wins": wins, "pairs": len(sides["parent"]),
                     "parent_iqr": round(q["parent"][2] - q["parent"][0], 6)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("about", (
        "Final JSON lines of `python3 swarmbench/run.py --trace 0` at the parent and at the "
        "change, run alternately by tools/bench_pairs.py; parent[i] and change[i] form pair i, "
        "and the parent ran first in pairs 0, 2, ... `summary` gives each side's [q1, median, "
        "q3] (inclusive quartiles); `change_wins` counts the pairs in which the change read "
        "better."
    ))
    doc["env"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        entry = workloads[f"{workload}:{args.seed}"] = {
            "command": f"--workload {workload} --seed {args.seed} --seconds {seconds:g} --trace 0",
            "runs": runs,
        }
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                t0 = time.monotonic()
                runs[side].append(run_once(getattr(args, side), workload, args.seed, seconds))
                wall = runs[side][-1]["metrics"]["wall_s"]["value"]
                print(f"{workload} pair {i} {side}: wall_s {wall:.6g} "
                      f"({time.monotonic() - t0:.0f} s)", file=sys.stderr, flush=True)
            if i == PAIRS - 1:
                entry["summary"] = summarize(runs, bench["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
