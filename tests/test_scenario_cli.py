import json
from pathlib import Path

import numpy as np
import pytest

from swarmso3.cli import main
from swarmso3.errors import ScenarioError
from swarmso3.scenario import (
    emit_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_config,
)

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "swarmso3" / "scenarios"


@pytest.mark.parametrize("name", ["fig2", "fig3", "prop1_smoke"])
def test_bundled_scenarios_parse_and_build(name):
    data = load_scenario(BUNDLED / f"{name}.scenario")
    config = scenario_to_config(data)
    assert config.name == name
    assert config.n_agents == data["agents"]


@pytest.mark.parametrize("name", ["fig2", "fig3", "prop1_smoke"])
def test_emit_parse_idempotent(name):
    data = load_scenario(BUNDLED / f"{name}.scenario")
    once = emit_scenario(data)
    twice = emit_scenario(parse_scenario(once))
    assert once == twice


def test_unknown_top_level_key_rejected():
    text = (BUNDLED / "prop1_smoke.scenario").read_text()
    with pytest.raises(ScenarioError, match="bogus"):
        parse_scenario(text + "\nbogus: 1\n")


def test_unknown_nested_key_rejected():
    text = (BUNDLED / "prop1_smoke.scenario").read_text()
    bad = text.replace("controller:", "controller:\n  zeta: 0.1")
    with pytest.raises(ScenarioError, match="zeta"):
        parse_scenario(bad)


def test_missing_required_key_reported():
    with pytest.raises(ScenarioError, match="speed"):
        parse_scenario("name: x\nagents: 2\ndt: 0.1\nt_end: 1.0\nseed: 0\n")


def test_constant_mode_rejects_rates():
    text = (BUNDLED / "prop1_smoke.scenario").read_text()
    bad = text.replace("omega_known: [0.0, 0.0, 0.0]", "omega_known: [0.1, 0.0, 0.0]")
    with pytest.raises(ScenarioError, match="constant"):
        parse_scenario(bad)


def test_fig2_placement_matches_reference_stats():
    from swarmso3 import deployment_stats

    data = load_scenario(BUNDLED / "fig2.scenario")
    stats = deployment_stats(np.array(data["placement"]["positions"]))
    assert stats.lambda_min == pytest.approx(0.07, rel=0.05)
    assert stats.radius == pytest.approx(3.87, rel=0.05)


def test_cli_gains_benchmark_values(capsys):
    assert main(["gains", "fig2"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key = line.split("=")[0].strip().split()[0]
            values[key] = float(line.rsplit("=", 1)[1])
    assert 0.55 <= values["k1"] <= 0.56
    assert abs(values["k2"] - 413) / 413 < 0.05
    assert values["k_w"] == values["k2"]


def test_cli_gains_degenerate_exits_2(tmp_path, capsys):
    text = (BUNDLED / "fig2.scenario").read_text()
    flat = text.replace("0.2645751311064591", "0.0")
    bad = tmp_path / "flat.scenario"
    bad.write_text(flat)
    assert main(["gains", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "degenerate" in err and "full-rank" in err


def test_cli_simulate_writes_outputs_and_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "prop1_smoke", "--out", str(out1), "--dt", "0.01"]) == 0
    assert main(["simulate", "prop1_smoke", "--out", str(out2), "--dt", "0.01"]) == 0
    t1 = (out1 / "steps.csv").read_bytes()
    assert t1 == (out2 / "steps.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["flags"]["completed"]
    assert summary["flags"]["decay_fit_ok"]  # slope within 2% of -k_w
    header = t1.decode().splitlines()[1].split(",")
    assert header[0] == "t" and "lambda_min" in header


def test_cli_simulate_seed_override_changes_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "prop1_smoke", "--out", str(out1)]) == 0
    assert main(["simulate", "prop1_smoke", "--out", str(out2), "--seed", "9"]) == 0
    assert (out1 / "steps.csv").read_bytes() != (out2 / "steps.csv").read_bytes()


def test_cli_simulate_singularity_exits_3(tmp_path, capsys):
    scenario = tmp_path / "flip.scenario"
    scenario.write_text(
        "\n".join(
            [
                "name: flip",
                "agents: 1",
                "speed: 1.0",
                "dt: 0.01",
                "t_end: 1.0",
                "seed: 0",
                "controller: {k_w: 1.0, delta_star: 0.4}",
                "trajectory: {mode: constant}",
                "placement: {kind: explicit, positions: [[0.0, 0.0, 0.0]]}",
                "attitudes:",
                "  kind: explicit",
                "  matrices:",
                "    - [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0]",
                "field: null",
            ]
        )
    )
    out = tmp_path / "out"
    assert main(["simulate", str(scenario), "--out", str(out)]) == 3
    # partial log: header only, zero records
    lines = (out / "steps.csv").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads((out / "summary.json").read_text())["aborted"]


def test_cli_validate_quick(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "FAIL" not in out


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["gains", "no_such_scenario"]) == 2


def test_cli_partial_last_step_exits_2(tmp_path, capsys):
    # t_end = 20 is not a whole number of 0.3 steps: refuse, do not round
    assert main(["simulate", "fig2", "--out", str(tmp_path), "--dt", "0.3"]) == 2
    assert "whole number of steps" in capsys.readouterr().err


def test_rate_frame_override_changes_dynamics(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "fig2", "--out", str(out1), "--dt", "0.05"]) == 0
    assert main(
        ["simulate", "fig2", "--out", str(out2), "--dt", "0.05", "--rate-frame", "body"]
    ) == 0
    assert (out1 / "steps.csv").read_bytes() != (out2 / "steps.csv").read_bytes()
