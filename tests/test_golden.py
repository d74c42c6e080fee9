"""Whole-run outputs against the committed golden set.

`tests/data/golden.json` holds, for each `swarmso3 simulate` run in RUNS:
its exit code, the sha256 of every `SimLog` column, of `steps.csv` and of
`summary.json`, the summary itself, and every 100th record of each
column at full precision. It also holds `repr(validate.run_all())`.

Where numpy's version and the platform match the recorded ones, the test
asks for the same bits. Elsewhere it compares the thinned records and
the summary at RTOL, for the reason given there.

Regenerate the set only for a change that is meant to move bits, and
say in CHANGES.md which columns moved and by how much:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from swarmso3 import cli, sim, validate
from swarmso3.errors import NearPiSingularity

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
RUNS = {
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "prop1_smoke": ["prop1_smoke"],
    "fig3-seed24": ["fig3", "--seed", "24"],  # aborts at step 1523, exit 3
    "fig3-literal": ["fig3", "--rate-frame", "literal"],
    "fig2-body-dt0.005": ["fig2", "--rate-frame", "body", "--dt", "0.005"],
}
COLUMNS = (
    "t", "p", "r", "r_d", "mu", "delta", "lambda_min", "sigma_centroid",
    "dist_to_source", "max_pair_disp", "unknown_rate", "hold_flag", "rate_violation",
)
THIN = 100
# Off the recorded platform, a BLAS or libm that rounds some step's dot
# products or sines differently moves that step by a few ulps. Evaluating
# every matrix product of the loop as a plain elementwise sum, in place
# of BLAS, moved the thinned values of the prescribed and constant runs
# by at most 4e-14 of their column's largest magnitude. Source-seeking
# amplifies roundoff: its turn comes from an ascending estimate that
# differences field samples, and there the worst was 4.1e-9 (the turn
# rate of fig3 at seed 24) and 6.5e-10 (fig3). RTOL leaves a margin of
# over 200 on that, and a changed step or control law moves far more:
# halving dt moves fig3's final mu by 2.3e-3.
RTOL = 1e-6


def _environment():
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "libc": "-".join(platform.libc_ver()),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(args, out_dir):
    """Exit code, log and output bytes of `swarmso3 simulate ARGS`."""
    logs = []

    def recording_run(config):
        try:
            log = sim.run(config)
        except NearPiSingularity as exc:
            logs.append(exc.partial_log)
            raise
        logs.append(log)
        return log

    with mock.patch.object(cli, "run", recording_run), redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        code = cli.main(["simulate", *args, "--out", str(out_dir)])
    out = Path(out_dir)
    return code, logs[0], (out / "steps.csv").read_bytes(), (out / "summary.json").read_bytes()


def record(args, out_dir):
    """The golden entry of one `simulate` run."""
    code, log, csv, summary = _simulate(args, out_dir)
    cols = {name: np.ascontiguousarray(getattr(log, name)) for name in COLUMNS}
    return {
        "args": args,
        "exit_code": code,
        "records": len(log),
        "sha256": {name: _sha(c.tobytes()) for name, c in cols.items()},
        "steps_csv_sha256": _sha(csv),
        "summary_json_sha256": _sha(summary),
        "summary": json.loads(summary),
        "thinned": {name: c[::THIN].tolist() for name, c in cols.items()},
    }


def record_validate():
    results, ok = validate.run_all()
    rows = [[str(n), int(s), float(w), float(t), bool(p)] for n, s, w, t, p in results]
    return {"repr": repr((results, ok)), "results": rows, "ok": bool(ok)}


def _close(got, want, path=""):
    """Assert that floats agree within RTOL of the largest finite
    magnitude of their list, and that everything else is equal."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, float)):
        g, w = np.asarray(got), np.asarray(want)
        assert g.shape == w.shape, path
        if w.dtype.kind != "f":
            assert np.array_equal(g, w), path
            return
        fin = np.isfinite(w)
        assert np.array_equal(g[~fin], w[~fin], equal_nan=True), path
        scale = np.abs(w[fin]).max(initial=0.0)
        dev = np.abs(g[fin] - w[fin]).max(initial=0.0)
        assert dev <= RTOL * scale, f"{path}: {dev:.3g} > {RTOL} * {scale:.3g}"
    else:
        assert got == want, path


def _same_bits(got, want):
    """Equal as JSON text: floats print as their shortest round-trip
    repr, so this is bitwise equality that also holds for nan."""
    assert got.get("sha256") == want.get("sha256")
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _dumps(obj, pad=""):
    """JSON with one line per key and each list on a single line."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    inner = pad + " "
    items = (f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in obj.items())
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text())
    return data, data["environment"] == _environment()


@pytest.mark.parametrize("name", list(RUNS))
def test_simulate_matches_the_golden_set(golden, name, tmp_path):
    data, exact = golden
    want, got = data["runs"][name], record(RUNS[name], tmp_path)
    assert (got["exit_code"], got["records"]) == (want["exit_code"], want["records"])
    if exact:
        _same_bits(got, want)
    else:
        _close(got["thinned"], want["thinned"], "thinned")
        _close(got["summary"], want["summary"], "summary")


def test_validate_matches_the_golden_set(golden):
    data, exact = golden
    want, got = data["validate"], record_validate()
    if exact:
        _same_bits(got, want)
    else:
        # the sampled checks' worsts are pure roundoff and may differ
        # entirely; only their verdicts and the closed-loop worsts compare
        assert got["ok"] == want["ok"]
        for g, w in zip(got["results"], want["results"]):
            assert (g[:2], g[3:]) == (w[:2], w[3:]), w[0]
        _close([r[2] for r in got["results"][4:]], [r[2] for r in want["results"][4:]])


def main():
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS.items():
            runs[name] = record(args, Path(tmp) / name)
    data = {"environment": _environment(), "runs": runs, "validate": record_validate()}
    GOLDEN.write_text(_dumps(data) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
