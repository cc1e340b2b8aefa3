"""Config ingestion: every key has a kind, a value of another kind is a
ConfigError that names the key, null means the default, a required key
that is missing or null is an error, and the filled document a builder
returns builds the same run again."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselab import config
from phaselab.solver import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORKLOADS = CONFIGS.parent / "perfbench" / "workloads"


def load(name):
    return json.loads((CONFIGS / name).read_text())


# Every key path of the kind tables, with the document it is set in and the
# key name the error must start with.
CASES = (
    [("plane1d.json", (key,), kind, key)
     for key, kind in config.RUN_KEYS.items()]
    + [("plane1d.json", (sec, key), kind, f"{sec}.{key}")
       for sec, kinds in config.SECTION_KEYS.items()
       for key, kind in kinds.items()]
    + [(name, ("trajectory", key), kind, f"trajectory.{key}")
       for name, traj in (("plane1d.json", "plane"),
                          ("circle_radial.json", "sphere"))
       for key, kind in config.TRAJECTORY_KEYS[traj].items()]
    + [("initial_entropy_plane.json", (key,), kind, f"plan.{key}")
       for key, kind in config.PLAN_KEYS.items()]
    + [("initial_entropy_plane.json", ("bands", key), kind,
        f"plan.bands.{key}") for key, kind in config.BAND_KEYS.items()]
)

FINITE = st.integers(-10, 10) | st.floats(-1e3, 1e3)
NONPOSITIVE = st.integers(-10, 0) | st.floats(-1e3, 0.0)
FRACTIONS = st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer())
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
TEXT = st.text(max_size=4)
BOOLS = st.booleans()
OBJECTS = st.dictionaries(TEXT, FINITE, max_size=2)
LISTS = st.lists(FINITE | TEXT | BOOLS | NONFINITE, max_size=3)
BAD_LISTS = st.just([]) | st.tuples(
    st.lists(FINITE, max_size=2), TEXT | BOOLS | NONFINITE).map(
        lambda t: t[0] + [t[1]])
WRONG = {   # values that are not of the kind
    config.NUMBER: TEXT | BOOLS | NONFINITE | LISTS | OBJECTS,
    config.POSITIVE: (TEXT | BOOLS | NONFINITE | NONPOSITIVE | LISTS
                      | OBJECTS),
    config.INTEGER: TEXT | BOOLS | NONFINITE | FRACTIONS | LISTS | OBJECTS,
    config.POSITIVE_INTEGER: (TEXT | BOOLS | NONFINITE | FRACTIONS
                              | st.integers(-10, 0) | LISTS | OBJECTS),
    config.FLAG: TEXT | FINITE | NONFINITE | LISTS | OBJECTS,
    config.TEXT: FINITE | BOOLS | NONFINITE | LISTS | OBJECTS,
    config.NUMBERS: TEXT | BOOLS | FINITE | NONFINITE | BAD_LISTS | OBJECTS,
    config.BAND: (TEXT | BOOLS | FINITE | BAD_LISTS | OBJECTS
                  | st.lists(FINITE, min_size=3, max_size=4)
                  | st.tuples(FINITE, FINITE).filter(
                      lambda p: p[0] > p[1]).map(list)),
    config.OBJECT: TEXT | BOOLS | FINITE | NONFINITE | LISTS,
}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_wrong_kind_names_the_key(data):
    for name, path, kind, key in CASES:
        doc = load(name)
        section = doc
        for part in path[:-1]:
            section = section.setdefault(part, {})
        section[path[-1]] = data.draw(WRONG[kind], label=key)
        build = config.build_plan if "base" in doc else config.build_simulation
        with pytest.raises(ConfigError) as err:
            build(doc)
        assert any(m.startswith(f"{key}: ") for m in err.value.messages), \
            err.value.messages


def test_null_means_default_and_required_null_is_missing():
    doc = load("plane1d.json")
    _, expected = config.build_simulation(doc)
    doc["cutoff"]["c_quad"] = None
    doc["stepper"]["dt"] = None
    doc["diagnostics"]["s0"] = None
    doc["identities"] = None
    assert config.build_simulation(doc)[1] == expected

    doc["epsilon"] = None
    doc["grid"]["half_width"] = None
    del doc["trajectory"]["normal"]
    with pytest.raises(ConfigError) as err:
        config.build_simulation(doc)
    assert err.value.messages == [
        "epsilon: missing required key",
        "grid.half_width: missing required key",
        "trajectory.normal: missing required key"]


def test_plan_and_base_problems_reported_together():
    plan = load("sweep_circle.json")
    plan["epsilons"] = [0.16, "0.08"]
    plan["bands"]["err_l1"] = [1.2, 0.8]
    plan["base"]["diagnostics"]["cadence"] = 2.7
    plan["base"]["trajectory"]["radius0"] = math.inf
    with pytest.raises(ConfigError) as err:
        config.build_plan(plan)
    assert err.value.messages == [
        "plan.epsilons: expected a nonempty list of numbers, "
        "got [0.16, '0.08']",
        "plan.bands.err_l1: expected a [low, high] pair, got [1.2, 0.8]"]

    plan["epsilons"] = [0.16, 0.08, 0.04]
    plan["bands"]["err_l1"] = [0.8, 1.2]
    plan["bands"]["gronwall_factor"] = True
    with pytest.raises(ConfigError) as err:
        config.build_plan(plan)
    assert err.value.messages == [
        "plan.bands.gronwall_factor: expected a number, got True",
        "diagnostics.cadence: expected an integer, got 2.7",
        "trajectory.radius0: expected a number, got inf"]


def _plane1d_with(section, **values):
    doc = load("plane1d.json")
    doc[section].update(values)
    return doc


ROUND_TRIP = {   # every shipped config and two variants of plane1d
    **{path.name: json.loads(path.read_text())
       for path in sorted(CONFIGS.glob("*.json"))},
    **{f"workload_{path.name}": json.loads(path.read_text())
       for path in sorted(WORKLOADS.glob("*.json"))},
    "poly": _plane1d_with("potential", name="poly", coeffs=[1, 0, -2, 0, 1]),
    "normal": _plane1d_with("trajectory", normal=[3.0, 4.0]),
}


def _run_parts(cfg):
    """Everything a SimulationConfig holds, with the potential and the
    profile table as comparable values."""
    return (replace(cfg, potential=None, profile=None), cfg.potential.name,
            cfg.profile.theta.tolist())


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_filled_document_builds_the_same_run(name):
    doc = ROUND_TRIP[name]
    if "base" in doc:
        plan, filled = config.build_plan(doc)
        manifest = json.loads(json.dumps(filled))
        again, refilled = config.build_plan(manifest)
        assert refilled == manifest
        assert again.epsilons == plan.epsilons
        assert json.dumps(again.bands) == json.dumps(plan.bands)
        for eps in plan.epsilons:
            assert _run_parts(again.member(eps)) \
                == _run_parts(plan.member(eps))
        return
    cfg, filled = config.build_simulation(doc)
    filled["identities"] = config.build_identities(doc)
    manifest = json.loads(json.dumps(filled))
    again, refilled = config.build_simulation(manifest)
    refilled["identities"] = config.build_identities(manifest)
    assert refilled == manifest
    assert _run_parts(again) == _run_parts(cfg)
    for section, key in (("trajectory", "normal"), ("potential", "coeffs")):
        assert filled[section].get(key) == doc[section].get(key)
