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

from phaselab import config, experiments, solver
from phaselab.solver import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORKLOADS = CONFIGS.parent / "perfbench" / "workloads"


def load(name):
    return json.loads((CONFIGS / name).read_text())


# Every key path of config.KEYS and the plan tables, with the document it is
# set in and the key name the error must start with.
CASES = (
    [("plane1d.json", (key,), kind, key)
     for key, (kind, _) in config.KEYS["run"].items()]
    + [("plane1d.json", (sec, key), kind, f"{sec}.{key}")
       for sec, rows in config.KEYS.items() if sec not in ("run", "trajectory")
       for key, (kind, _) in rows.items()]
    + [(name, ("trajectory", key), kind, f"trajectory.{key}")
       for name, traj in (("plane1d.json", "plane"),
                          ("circle_radial.json", "sphere"))
       for key, (kind, _) in config.KEYS["trajectory"][traj].items()]
    + [("initial_entropy_plane.json", (key,), kind, f"plan.{key}")
       for key, (kind, _) in config.PLAN_KEYS.items()]
    + [("initial_entropy_plane.json", ("bands", key), kind,
        f"plan.bands.{key}") for key, (kind, _) in config.BAND_KEYS.items()]
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
    config.OBJECT: TEXT | BOOLS | FINITE | NONFINITE | LISTS,
}
OTHER_VALUE = TEXT | BOOLS | FINITE | NONFINITE | LISTS | OBJECTS


def other_value(pinned):
    """Any value but a one-value key's own (TEXT draws no string that long),
    near misses of a pinned number or band among them, and a bool, which
    no pinned number takes though True == 1.0."""
    near = st.nothing()
    if isinstance(pinned, tuple):
        near = st.sampled_from([[pinned[1], pinned[0]], [pinned[0]],
                                [*pinned, pinned[1]], [0.0, 10.0]])
    elif isinstance(pinned, (int, float)):
        near = st.sampled_from([True, False, pinned / 2, pinned + 1])
    return (near | OTHER_VALUE).filter(
        lambda v: isinstance(v, bool) or not (
            v == pinned or isinstance(v, list) and tuple(v) == pinned))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_wrong_kind_names_the_key(data):
    for name, path, kind, key in CASES:
        doc = load(name)
        section = doc
        for part in path[:-1]:
            section = section.setdefault(part, {})
        section[path[-1]] = data.draw(WRONG[kind] if kind in WRONG
                                      else other_value(kind),
                                      label=key)
        build = config.build_plan if "base" in doc else config.build_simulation
        with pytest.raises(ConfigError) as err:
            build(doc)
        assert any(m.startswith(f"{key}: ") for m in err.value.messages), \
            err.value.messages


@pytest.mark.parametrize("kind", ["oval", ["plane"], {"plane": 1}, 3, None])
def test_unknown_trajectory_type_message(kind):
    doc = load("plane1d.json")
    doc["trajectory"]["type"] = kind
    with pytest.raises(ConfigError) as err:
        config.build_simulation(doc)
    assert err.value.messages == [
        f"trajectory.type: expected 'plane' or 'sphere', got {kind!r}"]


def test_null_means_default_and_required_null_is_missing():
    doc = load("plane1d.json")
    _, expected = config.build_simulation(doc)
    doc["cutoff"]["r_c"] = None
    doc["stepper"]["dt_over_eps2"] = None
    doc["diagnostics"]["cadence"] = None
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


def test_construction_faults_listed_together():
    # the cutoff and the grid each fail to build; both are listed
    doc = load("plane1d.json")
    doc["cutoff"]["r_c"] = -1
    doc["grid"]["half_width"] = -1
    with pytest.raises(ConfigError) as err:
        config.build_simulation(doc)
    assert err.value.messages == ["cutoff: r_c must be positive",
                                  "grid: half_width must be positive"]


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
        "plan.bands.err_l1: expected [0.8, 1.2], got [1.2, 0.8]"]

    plan["epsilons"] = [0.16, 0.08, 0.04]
    plan["bands"]["err_l1"] = [0.8, 1.2]
    plan["bands"]["gronwall_factor"] = True
    with pytest.raises(ConfigError) as err:
        config.build_plan(plan)
    assert err.value.messages == [
        "plan.bands.gronwall_factor: expected 2.0, got True",
        "diagnostics.cadence: expected an integer, got 2.7",
        "trajectory.radius0: expected a number, got inf"]

    # a bad first eps is the list's problem, listed with the base's
    plan["bands"]["gronwall_factor"] = 2.0
    plan["epsilons"] = [-0.04, 0.02, 0.01]
    with pytest.raises(ConfigError) as err:
        config.build_plan(plan)
    assert err.value.messages == [
        "sweep.epsilons: must be positive",
        "diagnostics.cadence: expected an integer, got 2.7",
        "trajectory.radius0: expected a number, got inf"]


def test_plan_members_are_resolved_at_the_plan_spacing():
    # the base builds at a stand-in epsilon, so an eps no grid holds at the
    # plan's spacing is the plan's to report, with every other problem
    limit = np.iinfo(np.intp).max
    for epsilons, expected in (
            ([1e308, 0.08, 0.04, 0.02],
             ["member eps=1e+308: plan.h_over_eps = 16: need at least 8 "
              "points per axis"]),
            ([1e-300, 0.08, 0.04, 0.02],
             ["sweep.epsilons: must be strictly descending",
              f"member eps=1e-300: plan.h_over_eps = 16: too many points: "
              f"one field would take more than {limit} bytes"])):
        plan, _ = config.build_plan(dict(load("sweep_circle.json"),
                                         epsilons=epsilons))
        assert plan.validate() == expected


def _plane1d_with(section, **values):
    doc = load("plane1d.json")
    doc[section].update(values)
    return doc


ROUND_TRIP = {   # every shipped config and a variant of plane1d
    **{path.name: json.loads(path.read_text())
       for path in sorted(CONFIGS.glob("*.json"))},
    **{f"workload_{path.name}": json.loads(path.read_text())
       for path in sorted(WORKLOADS.glob("*.json"))},
    "normal": _plane1d_with("trajectory", normal=[3.0, 4.0]),
}


def _run_parts(cfg):
    """Everything a SimulationConfig holds, with the profile table as
    comparable values."""
    return replace(cfg, profile=None), cfg.profile.theta.tolist()


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
    command = "check-identities" if "identities" in doc else None
    cfg, filled = config.build_simulation(doc, command)
    manifest = json.loads(json.dumps(filled))
    again, refilled = config.build_simulation(manifest, command)
    assert refilled == manifest
    assert _run_parts(again) == _run_parts(cfg)
    traj = doc["trajectory"]
    assert filled["trajectory"].get("normal") == traj.get("normal")


def test_every_sweep_mode_has_a_shipped_plan():
    # a mode lands with a plan in configs/ that runs it
    docs = [load(path.name) for path in sorted(CONFIGS.glob("*.json"))]
    modes = {doc.get("mode", "full") for doc in docs if "base" in doc}
    assert modes == set(experiments.SWEEP_MODES), modes


def test_a_new_mode_is_one_row(monkeypatch):
    # a probe row that reads full's plan keys and shares its gronwall_factor
    # band: build_plan and a plan built in code both accept a plan in it,
    # and a key only initial-entropy reads names that mode
    monkeypatch.setitem(experiments.SWEEP_MODES, "probe", {
        "reads": {"h_over_eps": 8.0, "dt_over_eps2": 20.0},
        "bands": {"gronwall_factor": 2.0}, "ignores": (),
        "study": "run_sweep"})
    doc = dict(load("sweep_circle.json"), mode="probe", h_over_eps=10.0,
               dt_over_eps2=40.0, bands={"gronwall_factor": 2.0})
    plan, filled = config.build_plan(doc)
    assert (plan.h_over_eps, plan.dt_over_eps2) == (10.0, 40.0)
    assert plan.bands == {"gronwall_factor": 2.0}
    assert filled["mode"] == "probe"
    again = experiments.SweepPlan(base=plan.base, epsilons=plan.epsilons,
                                  mode="probe", dt_over_eps2=40.0)
    assert again.h_over_eps == 8.0 and again.bands == plan.bands

    doc["bands"] = {"initial_entropy": [1.8, 2.2]}
    with pytest.raises(ConfigError) as err:
        config.build_plan(doc)
    assert err.value.messages == [
        "plan.bands.initial_entropy: read only in mode 'initial-entropy'"]
    doc = dict(load("initial_entropy_plane.json"),
               bands={"gronwall_factor": 2.0})
    with pytest.raises(ConfigError) as err:
        config.build_plan(doc)
    assert err.value.messages == [
        "plan.bands.gronwall_factor: read only in mode 'full' or 'probe'"]


def test_readme_sample_document_builds():
    # the sample run document of the README's Configuration section, which
    # shows every section, builds for the one command that reads them all;
    # its identities restate the pinned values
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg, _ = config.build_simulation(doc, "check-identities")
    assert solver.validate(cfg) == []
    assert (cfg.epsilon, cfg.grid.mode) == (doc["epsilon"], "radial")
    assert doc["identities"] == {"levels": experiments.IDENTITY_LEVELS,
                                 "min_order": experiments.MIN_IDENTITY_ORDER}
