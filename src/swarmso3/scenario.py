"""Scenario files: a strict YAML schema for SimConfig.

`parse_scenario` checks only the shape of the mapping: the allowed and
required keys of each block and the YAML type of each value. It then
builds the config once, so a file parses exactly when
`scenario_to_config` builds it; every default and every value check
lives in the config dataclasses, with the keys that each `kind` takes.
A null value means the key is absent, except for `width`, `curvature`,
`positions`, `matrices` and the blocks, which must not be null (`field:
null` means no field). Rotations are 9 row-major values or a 3x3 nested list.
"""

from dataclasses import dataclass

import numpy as np
import yaml

from .attitude import ControllerConfig
from .errors import ScenarioError
from .fields import FieldSpec
from .sim import AttitudeInitSpec, DesiredAttitudeTrajectory, PlacementSpec, SimConfig


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_array(v):
    return _is_number(v) or isinstance(v, list) and all(_is_array(x) for x in v)


# leaf types: (what the value must be, test)
NUMBER = ("a number", lambda v: v is None or _is_number(v))
INTEGER = ("an integer", lambda v: v is None or isinstance(v, int) and not isinstance(v, bool))
STRING = ("a string", lambda v: v is None or isinstance(v, str))
LIST = ("a (nested) list of numbers", lambda v: v is None or isinstance(v, list) and _is_array(v))
ARRAY = ("a number or a (nested) list of numbers", _is_array)


@dataclass(frozen=True)
class _Block:
    """A mapping: key -> leaf type, _Block or [_Block] (a list of them)."""

    keys: dict
    required: tuple = ()
    nullable: bool = False


_COMPONENT = _Block({"source": LIST, "amplitude": NUMBER, "width": ARRAY}, ("source", "amplitude"))
SCHEMA = _Block(
    {
        "name": STRING,
        "description": STRING,
        "agents": INTEGER,
        "speed": NUMBER,
        "dt": NUMBER,
        "t_end": NUMBER,
        "seed": INTEGER,
        "rate_frame": STRING,
        "controller": _Block({"k_w": NUMBER, "mu_star": NUMBER, "delta_star": NUMBER}),
        "trajectory": _Block(
            {
                "mode": STRING,
                "r_d0": LIST,
                "omega_known": LIST,
                "omega_unknown": LIST,
                "omega_max": NUMBER,
            },
            ("mode",),
        ),
        "placement": _Block(
            {"kind": STRING, "positions": ARRAY, "center": LIST, "radius": NUMBER},
            ("kind",),
        ),
        "attitudes": _Block({"kind": STRING, "radius": NUMBER, "matrices": ARRAY}),
        "field": _Block(
            {
                "kind": STRING,
                "source": LIST,
                "amplitude": NUMBER,
                "width": ARRAY,
                "curvature": ARRAY,
                "domain_radius": NUMBER,
                "components": [_COMPONENT],
            },
            ("kind", "source"),
            nullable=True,
        ),
    },
    ("name", "agents", "speed", "dt", "t_end", "seed", "controller", "trajectory", "placement"),
)


def _check(value, spec, path):
    """Raise ScenarioError unless value has the shape spec describes."""
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]")
    elif isinstance(spec, tuple):
        what, test = spec
        if not test(value):
            raise ScenarioError(f"{path}: expected {what}, got {value!r:.60}")
    elif not (value is None and spec.nullable):
        if not isinstance(value, dict):
            raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
        unknown = set(value) - set(spec.keys)
        if unknown:
            raise ScenarioError(
                f"{path}: unknown keys {sorted(unknown)} (allowed: {sorted(spec.keys)})"
            )
        for key, item in value.items():
            _check(item, spec.keys[key], f"{path}.{key}")
        for key in spec.required:
            if value.get(key) is None:
                raise ScenarioError(f"{path}: missing required key '{key}'")


def _checked(raw) -> dict:
    """parse_scenario after the YAML load: check the shape, then build."""
    _check(raw, SCHEMA, "scenario")
    try:
        scenario_to_config(raw)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return raw


def parse_scenario(text: str) -> dict:
    """Parse scenario YAML into its mapping; raises ScenarioError unless
    the mapping has the schema's shape and builds a SimConfig."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc
    return _checked(raw)


def load_scenario(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _given(block, **renames):
    """The keys a block sets, as keyword arguments (null means absent)."""
    return {renames.get(k, k): v for k, v in block.items() if v is not None}


def _rotations(v):
    """Rotations given as 9 row-major values or 3x3 nested lists."""
    a = np.asarray(v, dtype=np.float64)
    return a.reshape(a.shape[:-1] + (3, 3)) if a.shape[-1:] == (9,) else a


def scenario_to_config(data: dict) -> SimConfig:
    """Build a SimConfig from a scenario mapping; the config classes raise
    ValueError for a value they reject."""
    cfg = _given(data, agents="n_agents")
    cfg.pop("description", None)
    cfg["controller"] = ControllerConfig(**_given(cfg["controller"]))
    trj = _given(cfg["trajectory"], r_d0="r_d", omega_max="omega_max_declared")
    if "r_d" in trj:
        trj["r_d"] = _rotations(trj["r_d"])
    cfg["trajectory"] = DesiredAttitudeTrajectory(**trj)
    cfg["placement"] = PlacementSpec(**_given(cfg["placement"]))
    if "attitudes" in cfg:
        att = _given(cfg["attitudes"])
        if "matrices" in att:
            att["matrices"] = _rotations(att["matrices"])
        cfg["attitudes"] = AttitudeInitSpec(**att)
    if "field" in cfg:
        cfg["field"] = FieldSpec(**_given(cfg["field"]))
    return SimConfig(**cfg)
