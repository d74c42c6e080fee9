import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from swarmso3 import (
    AttitudeInitSpec, FieldSpec, PlacementSpec, deployment_stats, plan_gains, scenario
)
from swarmso3.cli import main
from swarmso3.errors import ScenarioError
from swarmso3.scenario import load_scenario, parse_scenario, scenario_to_config

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "swarmso3" / "scenarios"


@pytest.mark.parametrize("name", ["fig2", "fig3", "prop1_smoke"])
def test_bundled_scenarios_parse_and_build(name):
    data = load_scenario(BUNDLED / f"{name}.scenario")
    config = scenario_to_config(data)
    assert config.name == name
    assert config.n_agents == data["agents"]


def test_unknown_top_level_key_rejected():
    # the projection period is the constant sim.PROJECT_EVERY, not a key
    text = (BUNDLED / "prop1_smoke.scenario").read_text()
    for key in ("bogus", "project_every"):
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(text + f"\n{key}: 1000\n")


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


def test_cli_gains_nearly_coplanar_exits_2(tmp_path, capsys):
    # three agents are always coplanar: lambda_min is ~1e-16 and the
    # displacement budget epsilon_max rounds to 0
    text = (BUNDLED / "fig3.scenario").read_text()
    three = tmp_path / "three.scenario"
    three.write_text(text.replace("agents: 10", "agents: 3"))
    assert main(["gains", str(three)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial deployment is degenerate")


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


def test_cli_summary_reports_planned_gains(tmp_path):
    config = scenario_to_config(load_scenario(BUNDLED / "fig2.scenario"))
    stats0 = deployment_stats(config.placement.positions + config.placement.center)
    plan = plan_gains(
        config.trajectory.omega_max_declared,
        config.controller.mu_star,
        config.speed,
        stats0,
    )
    assert main(["simulate", "fig2", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["planned_gains"] == dataclasses.asdict(plan)


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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"]
    assert "agent 0" in summary["abort_reason"]
    assert summary["abort_reason"].endswith("at step 0")


def test_cli_simulate_mid_run_singularity_exits_3(tmp_path, capsys):
    # fig3 at seed 24: agent 0's error reaches the log singularity at step 1523
    out = tmp_path / "out"
    assert main(["simulate", "fig3", "--out", str(out), "--seed", "24"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] and not summary["flags"]["completed"]
    assert summary["abort_reason"].endswith("agent 0 reached the log singularity at step 1523")
    assert len((out / "steps.csv").read_text().splitlines()) == 2 + 1523


def test_cli_simulate_blown_up_state_exits_2(tmp_path, capsys):
    # k_w * dt = 5e297 makes every attitude nan after one step: a config
    # error, not the log singularity the nan attitudes also trip
    data = _bases()["fig3"]
    data["controller"]["k_w"] = 1e300
    scenario_file = tmp_path / "blowup.scenario"
    scenario_file.write_text(yaml.safe_dump(data))
    code = main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def _scaled_placement(data, factor):
    block = data["placement"]
    block["positions"] = [[factor * c for c in row] for row in block["positions"]]


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("simulate", lambda d: d["controller"].update(k_w=1e300),
         "positions, attitudes and the reference must be finite"),
        ("simulate", lambda d: d["trajectory"].update(omega_known=[1e300, 0.0, 0.0]),
         "positions, attitudes and the reference must be finite"),
        ("simulate", lambda d: d.update(speed=1e308), "positions must be finite"),
        ("simulate", lambda d: d.update(speed=1e200), "the position covariance is not finite"),
        ("gains", lambda d: _scaled_placement(d, 1e160), "the position covariance is not finite"),
    ],
    ids=["k_w", "omega_known", "speed-1e308", "speed-1e200", "gains-placement-1e160"],
)
def test_cli_overflow_exits_2(tmp_path, capsys, command, change, message):
    # fig2 driven to overflow, with RuntimeWarning an error as in the whole
    # suite: the overflow is the config error its message names (exit 2),
    # not a warning turned traceback (exit 1)
    data = _bases()["fig2"]
    change(data)
    scenario_file = tmp_path / "overflow.scenario"
    scenario_file.write_text(yaml.safe_dump(data))
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, str(scenario_file), *out]) == 2
    assert f"error: {message}" in capsys.readouterr().err


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


QUADRATIC = {
    "kind": "quadratic",
    "source": [90.0, 60.0, 30.0],
    "amplitude": 1000.0,
    "curvature": [0.01, 0.02, 0.015],
    "domain_radius": 150.0,
}
SUM_OF_GAUSSIANS = {
    "kind": "sum_of_gaussians",
    "source": [90.0, 60.0, 30.0],
    "components": [
        {"source": [90.0, 60.0, 30.0], "amplitude": 100.0, "width": [60.0, 70.0, 55.0]},
        {"source": [20.0, 10.0, 0.0], "amplitude": 20.0, "width": 15.0},
    ],
}
MUTATIONS = (None, True, "x", -1, 0, 0.5, 3, [1, 2], [True, 0, 0], {}, [])
DELETE = "<delete>"


def _bases():
    """The bundled scenarios, plus fig3 with each other field kind."""
    out = {
        name: yaml.safe_load((BUNDLED / f"{name}.scenario").read_text())
        for name in ("fig2", "fig3", "prop1_smoke")
    }
    out["fig3-quadratic"] = {**out["fig3"], "field": QUADRATIC}
    out["fig3-sum_of_gaussians"] = {**out["fig3"], "field": SUM_OF_GAUSSIANS}
    return out


def _paths(node, prefix=()):
    """Every key path of a mapping, list entries included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutants():
    """(label, mapping) with one key path set to one MUTATIONS value or deleted."""
    for name, base in _bases().items():
        for path in _paths(base):
            for value in MUTATIONS + (DELETE,):
                data = copy.deepcopy(base)
                parent = data
                for key in path[:-1]:
                    parent = parent[key]
                if value == DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
                yield f"{name}:{'.'.join(map(str, path))}={value!r}", data


def test_scenario_mutations_parse_exactly_when_they_build():
    # parse_scenario is yaml.safe_load followed by scenario._checked; the
    # mutants go to _checked directly, skipping ~5 ms of YAML per mutant
    count, accepted = 0, 0
    for label, data in _mutants():
        count += 1
        try:
            checked = scenario._checked(data)
        except ScenarioError:
            continue
        assert checked is data, label
        scenario_to_config(checked)  # must not raise
        accepted += 1
    assert count > 3000 and 0 < accepted < count


def test_scalar_curvature_is_a_multiple_of_identity():
    def config(curvature):
        text = yaml.safe_dump({**_bases()["fig3"], "field": {**QUADRATIC, "curvature": curvature}})
        return scenario_to_config(parse_scenario(text))

    scalar, per_axis = config(0.01), config([0.01, 0.01, 0.01])
    assert np.array_equal(scalar.field.curvature, per_axis.field.curvature)
    assert np.array_equal(scalar.field.curvature, 0.01 * np.eye(3))


@pytest.mark.parametrize(
    "block, key, value, match",
    [
        ("trajectory", "omega_unknown", [0.0, 0.0, 0.1], "constant"),
        ("trajectory", "omega_unknown", [0.0, 0.3, -0.2], "source-seeking mode requires zero"),
        (None, "agents", 1, "source-seeking mode needs at least two agents"),
        (None, "seed", -1, "seed"),
        ("attitudes", "matrices", [[1.0, 0, 0, 0, 1, 0, 0, 0, 2]], "not a rotation"),
        ("controller", "k_w", None, "k_w"),
        ("controller", "k_w", float("inf"), "k_w must be given, positive and finite"),
        (None, "speed", float("inf"), "speed must be finite"),
        (None, "dt", float("inf"), "dt must be finite"),
        (None, "t_end", float("inf"), "t_end must be finite"),
        ("trajectory", "omega_known", [float("inf"), 0.0, 0.0], "omega_known must be finite"),
        ("trajectory", "omega_unknown", [0.0, float("nan"), 0.0], "omega_unknown must be finite"),
        ("trajectory", "omega_max", float("inf"), "omega_max_declared must be >= 0 and finite"),
        ("placement", "center", [0.0, 0.0, float("-inf")], "center must be finite"),
        ("placement", "positions", [[0.0, float("nan"), 0.0]], "positions must be finite"),
    ],
    ids=[
        "constant-rates", "seeking-omega_unknown", "seeking-one-agent", "seed", "matrices",
        "k_w", "k_w-inf", "speed-inf", "dt-inf", "t_end-inf", "omega_known-inf",
        "omega_unknown-nan", "omega_max-inf", "center-inf", "positions-nan",
    ],
)
def test_checks_moved_into_the_config_classes(block, key, value, match):
    # the source-seeking rows edit fig3, the others prop1_smoke
    data = _bases()["fig3" if match.startswith("source-seeking") else "prop1_smoke"]
    if block == "attitudes":
        data["attitudes"] = {"kind": "explicit"}
    (data[block] if block else data)[key] = value
    with pytest.raises(ScenarioError, match=match):
        scenario._checked(data)
    with pytest.raises(ValueError, match=match):
        scenario_to_config(data)


@pytest.mark.parametrize(
    "data, match",
    [
        ("- 1\n- 2\n", "expected a mapping"),
        ("name: x\nagents: 1.5\n", "agents: expected an integer"),
        ("name: x\nspeed: true\n", "speed: expected a number"),
        ("name: [x]\n", "name: expected a string"),
        ("name: x\ncontroller: null\n", "controller: expected a mapping"),
    ],
    ids=["top-level", "agents", "speed", "name", "controller"],
)
def test_yaml_types_are_checked_before_building(data, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(data)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d["placement"].update(kind="ball"), "missing required key 'radius'"),
        (lambda d: d["field"].pop("curvature"), "missing required key 'curvature'"),
        (lambda d: d["field"].update(width=None), "width: expected a number or"),
        (lambda d: d["controller"].clear(), "need mu_star and/or delta_star"),
    ],
    ids=["ball-radius", "quadratic-curvature", "null-width", "controller-bands"],
)
def test_required_keys(edit, match):
    data = _bases()["fig3-quadratic"]
    data["field"] = dict(data["field"])
    data["placement"].pop("radius", None)
    data["placement"]["kind"] = "explicit"
    data["placement"]["positions"] = [[float(i), i * i, 0.0] for i in range(10)]
    scenario._checked(copy.deepcopy(data))
    edit(data)
    with pytest.raises(ScenarioError, match=match):
        scenario._checked(data)


# a valid block of each kind for fig3 (ten agents), as scenario text would give it
GAUSSIAN = {"kind": "gaussian", "source": [90.0, 60.0, 30.0], "amplitude": 100.0, "width": 60.0}
KIND_BLOCKS = {
    ("field", "gaussian"): GAUSSIAN,
    ("field", "quadratic"): QUADRATIC,
    ("field", "sum_of_gaussians"): SUM_OF_GAUSSIANS,
    ("placement", "explicit"): {
        "kind": "explicit", "positions": [[float(i), i * i, 0.0] for i in range(10)]
    },
    ("placement", "ball"): {"kind": "ball", "radius": 3.5},
    ("attitudes", "aligned"): {"kind": "aligned"},
    ("attitudes", "ball"): {"kind": "ball", "radius": 1.5},
    ("attitudes", "explicit"): {"kind": "explicit", "matrices": [[1.0, 0, 0, 0, 1, 0, 0, 0, 1]] * 10},
}
SPECS = {"field": (FieldSpec, "field"), "placement": (PlacementSpec, "placement"),
         "attitudes": (AttitudeInitSpec, "attitude init")}


def _spec(block, data):
    """The config class of a block, built from the block's keys."""
    data = dict(data)
    if "matrices" in data:
        data["matrices"] = np.reshape(data["matrices"], (-1, 3, 3))
    return SPECS[block][0](**data)


@pytest.mark.parametrize(
    "block, kind, key",
    [
        ("field", "gaussian", "curvature"),
        ("field", "gaussian", "domain_radius"),
        ("field", "gaussian", "components"),
        ("field", "quadratic", "width"),
        ("field", "quadratic", "components"),
        ("field", "sum_of_gaussians", "amplitude"),
        ("field", "sum_of_gaussians", "width"),
        ("field", "sum_of_gaussians", "curvature"),
        ("field", "sum_of_gaussians", "domain_radius"),
        ("placement", "explicit", "radius"),
        ("placement", "ball", "positions"),
        ("attitudes", "aligned", "radius"),
        ("attitudes", "aligned", "matrices"),
        ("attitudes", "ball", "matrices"),
        ("attitudes", "explicit", "radius"),
    ],
)
def test_an_input_of_other_kinds_only_is_rejected(block, kind, key):
    # the value is one that a kind taking the key accepts
    donor = next(b for (k, _), b in KIND_BLOCKS.items() if k == block and key in b)
    valid = {**_bases()["fig3"], block: KIND_BLOCKS[block, kind]}
    scenario._checked(copy.deepcopy(valid))
    data = {**valid, block: {**valid[block], key: donor[key]}}
    match = f"^{kind} {SPECS[block][1]} does not take '{key}'$"
    with pytest.raises(ValueError, match=match):
        _spec(block, data[block])
    with pytest.raises(ScenarioError, match=match):
        scenario._checked(data)


@pytest.mark.parametrize(
    "block, kind, key",
    [
        ("field", "quadratic", "curvature"),
        ("field", "quadratic", "domain_radius"),
        ("field", "sum_of_gaussians", "components"),
        ("placement", "explicit", "positions"),
        ("placement", "ball", "radius"),
        ("attitudes", "ball", "radius"),
        ("attitudes", "explicit", "matrices"),
    ],
)
def test_api_and_scenario_files_require_the_same_inputs(block, kind, key):
    given = dict(KIND_BLOCKS[block, kind])
    del given[key]
    match = f"^{kind} {SPECS[block][1]}: missing required key '{key}'$"
    with pytest.raises(ValueError, match=match):
        _spec(block, given)
    with pytest.raises(ScenarioError, match=match):
        scenario._checked({**_bases()["fig3"], block: given})


@pytest.mark.parametrize(
    "edit, api, file",
    [
        (lambda c: c.update(widht=c.pop("width")),
         "^field component 1 does not take 'widht'$",
         r"^scenario\.field\.components\[1\]: unknown keys \['widht'\] \(allowed: "),
        (lambda c: c.pop("source"),
         "^field component 1: missing required key 'source'$",
         r"^scenario\.field\.components\[1\]: missing required key 'source'$"),
    ],
    ids=["misspelt-width", "no-source"],
)
def test_field_components_take_only_their_keys(edit, api, file):
    # the API names the key as scenario files do, each with its own message
    block = copy.deepcopy(SUM_OF_GAUSSIANS)
    edit(block["components"][1])
    with pytest.raises(ValueError, match=api):
        _spec("field", block)
    with pytest.raises(ScenarioError, match=file):
        scenario._checked({**_bases()["fig3"], "field": block})


def test_cli_simulate_overflowing_covariance_exits_2(tmp_path, capsys):
    # validate's closed-loop run at speed 1e200: the positions stay finite
    # but their covariance overflows, and the error says so
    data = {
        "name": "validate-closed-loop", "agents": 5, "speed": 1e200, "dt": 0.01,
        "t_end": 3.0, "seed": 11, "rate_frame": "literal",
        "controller": {"k_w": 1.2, "delta_star": 0.4},
        "trajectory": {
            "mode": "prescribed", "r_d0": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0],
            "omega_known": [0.8, 0.0, 0.0], "omega_unknown": [0.0, 0.0, -0.15],
            "omega_max": 0.15,
        },
        "placement": {"kind": "ball", "radius": 2.0},
        "attitudes": {"kind": "ball", "radius": 2.2},
    }
    scenario_file = tmp_path / "overflow.scenario"
    scenario_file.write_text(yaml.safe_dump(data))
    code = main(["simulate", str(scenario_file), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "covariance is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["simulate", "prop1_smoke", "--out", str(tmp / "file")],
        lambda tmp: ["gains", str(tmp)],
    ],
    ids=["simulate-out-is-a-file", "gains-scenario-is-a-directory"],
)
def test_cli_os_errors_exit_2(tmp_path, capsys, argv):
    # exit 1 means a failed validation; a path that cannot be used is an
    # input error like any other
    (tmp_path / "file").write_text("")
    assert main(argv(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err
