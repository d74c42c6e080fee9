"""Output checks applied to every operation the benchmark runs.

Each check returns a list of problems; an operation with any problem
counts as failed. The log checks hold for any seed. At the default seed
the output is also compared with the stored reference in reference/.
"""

import json
import math
from pathlib import Path

import numpy as np

from swarmso3.reporting import summarize, table_columns
from swarmso3.sim import SimLog

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Tolerance on reference floats, relative to max(1, |reference|). Flags,
# counts and strings must match exactly.
REFERENCE_RTOL = 1e-6
SPEED_TOL = 1e-12
ORTHO_TOL = 1e-9
# Columns that hold nan by design when no field is configured.
NO_FIELD_COLUMNS = ("sigma_centroid", "dist_to_source")


def check_log(log, with_r_d=True):
    """Invariants of a finished closed-loop log that hold for any seed."""
    cfg = log.config
    problems = []
    rows = int(round(cfg.t_end / cfg.dt)) + 1
    if len(log) != rows:
        problems.append(f"{len(log)} rows, expected {rows}")
    step = np.linalg.norm(np.diff(log.p, axis=0), axis=2)
    dev = float(np.max(np.abs(step - cfg.speed * cfg.dt), initial=0.0))
    if not dev <= SPEED_TOL:
        problems.append(f"per-step travel deviates from speed*dt by {dev:.3g}")
    rotations = {"r": log.r, "r_d": log.r_d} if with_r_d else {"r": log.r}
    for name, rots in rotations.items():
        m = rots.reshape(-1, 3, 3)
        err = float(np.max(np.abs(np.einsum("kji,kjl->kil", m, m) - np.eye(3)), initial=0.0))
        if not err <= ORTHO_TOL:
            problems.append(f"{name} is off orthonormal by {err:.3g}")
    columns = ["t", "p", "r", "mu", "delta", "lambda_min", "max_pair_disp", "unknown_rate"]
    if with_r_d:
        columns.append("r_d")
    if cfg.field is not None:
        columns += NO_FIELD_COLUMNS
    for name in columns:
        if not np.all(np.isfinite(getattr(log, name))):
            problems.append(f"non-finite values in {name}")
    return problems


def check_summary_flags(summary):
    flags = summary["flags"]
    return [f"flag {f} is false" for f in ("completed", "displacement_ok", "weyl_ok") if not flags[f]]


def log_from_csv(path, config, k_w):
    """Rebuild the columns of a SimLog from a written step table.

    The table has no r_d column; it comes back as nan and the caller
    skips the r_d checks.
    """
    n = config.n_agents
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        header = fh.readline().rstrip("\n").split(",")
    if header != table_columns(n):
        raise ValueError("step table header does not match table_columns")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    m = data.shape[0]
    per_agent = data[:, 1 : 1 + 14 * n].reshape(m, n, 14)
    tail = data[:, 1 + 14 * n :]
    arrays = (
        data[:, 0].copy(),
        per_agent[:, :, 0:3].copy(),
        per_agent[:, :, 3:12].reshape(m, n, 3, 3).copy(),
        np.full((m, 3, 3), np.nan),
        per_agent[:, :, 12].copy(),
        per_agent[:, :, 13].copy(),
        *(tail[:, j].copy() for j in range(5)),
        tail[:, 5].astype(np.int8),
        tail[:, 6].astype(np.int8),
    )
    return SimLog(config, None, k_w, arrays)


def check_cli_output(out_dir, config):
    """Checks on one `swarmso3 simulate` output directory."""
    with open(Path(out_dir) / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    log = log_from_csv(Path(out_dir) / "steps.csv", config, summary["k_w"])
    problems = check_log(log, with_r_d=False) + check_summary_flags(summary)
    again = jsonable(summarize(log))
    problems += [f"summary of re-parsed CSV: {p}" for p in compare(again, summary, rtol=0.0)]
    return problems


def compare(got, ref, rtol=REFERENCE_RTOL, path="$"):
    """Differences between two JSON values; floats within rtol, nan == nan."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [d for key in ref for d in compare(got[key], ref[key], rtol, f"{path}.{key}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: lengths differ"]
        return [d for i, (g, r) in enumerate(zip(got, ref)) for d in compare(g, r, rtol, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if got == ref or (math.isnan(got) and math.isnan(ref)):
            return []
        if abs(got - ref) <= rtol * max(1.0, abs(ref)):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def check_reference(workload, value):
    with open(reference_path(workload), encoding="utf-8") as fh:
        ref = json.load(fh)
    return [f"reference: {p}" for p in compare(jsonable(value), ref)]


def write_reference(workload, value):
    with open(reference_path(workload), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(value), fh, indent=2)
        fh.write("\n")


def jsonable(value):
    """The value as it reads back from JSON (numpy scalars become Python ones)."""
    return json.loads(json.dumps(value, default=lambda o: o.item()))
