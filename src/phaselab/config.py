"""JSON configuration ingestion, the one module that reads user values.

A run configuration is a single document with sections {potential,
trajectory, cutoff, grid, stepper, diagnostics, identities}; a sweep plan
wraps one as its base.  The key tables give the kind of every key; unknown
keys and values of the wrong kind (NaN and Infinity too) are all reported
in one ConfigError, and null means the default.  A builder fills every
default into a copy of its document and builds from that copy alone, so the
filled document that manifests record rebuilds the same run.
"""

from __future__ import annotations

import json
import numbers
import sys
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_DT_OVER_EPS2, DEFAULT_H_OVER_EPS,
                          SWEEP_MODES, SweepPlan, mode_issues)
from .geometry import CutoffSpec, PlaneInterface, SphereInterface
from .grids import FULL, MAX_RADIAL_DIM, Grid, npts_for_spacing
from .potentials import solve_profile
from .solver import ConfigError, SimulationConfig

R_C_RADIUS_FRACTION = 0.45   # default r_c: this fraction of min_radius(),
R_C_PLANE_DEFAULT = 0.5      # or this where it is inf (a plane)


IS_KIND = {   # keyed by the wording of the error message
    "a number": lambda v: (isinstance(v, numbers.Real)   # finite, not a bool
                           and not isinstance(v, bool)
                           and abs(v) <= sys.float_info.max),
    "a positive number": lambda v: IS_KIND[NUMBER](v) and v > 0,
    "an integer": lambda v: IS_KIND[NUMBER](v) and v == int(v),
    "a positive integer": lambda v: IS_KIND[INTEGER](v) and v > 0,
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a nonempty list of numbers": lambda v: (
        isinstance(v, (list, tuple)) and len(v) > 0
        and all(map(IS_KIND[NUMBER], v))),
    "a [low, high] pair": lambda v: (IS_KIND[NUMBERS](v) and len(v) == 2
                                     and v[0] <= v[1]),
    "an object": lambda v: isinstance(v, dict),
}
(NUMBER, POSITIVE, INTEGER, POSITIVE_INTEGER, FLAG, TEXT, NUMBERS, BAND,
 OBJECT) = IS_KIND
SECTION_KEYS = {
    "potential": {"name": TEXT},
    "cutoff": {"r_c": NUMBER},
    "grid": {"mode": TEXT, "dim": INTEGER, "half_width": NUMBER,
             "npts": INTEGER, "h_over_eps": POSITIVE},
    "stepper": {"scheme": TEXT, "dt": POSITIVE, "dt_over_eps2": POSITIVE,
                "t_end": NUMBER},
    "diagnostics": {"cadence": INTEGER, "compute_identity": FLAG,
                    "snapshot_every": POSITIVE_INTEGER},
    "identities": {"levels": INTEGER, "min_order": NUMBER},
}
TRAJECTORY_KEYS = {
    "plane": {"type": TEXT, "normal": NUMBERS, "offset": NUMBER,
              "t_max": NUMBER},
    "sphere": {"type": TEXT, "dim": INTEGER, "radius0": NUMBER,
               "center": NUMBERS, "t_max": NUMBER},
}
RUN_KEYS = {"epsilon": POSITIVE, "trajectory": OBJECT,
            **{name: OBJECT for name in SECTION_KEYS}}
PLAN_KEYS = {"mode": TEXT, "base": OBJECT, "epsilons": NUMBERS,
             **{key: POSITIVE for spec in SWEEP_MODES.values()
                for key in spec["reads"]}, "bands": OBJECT}
BAND_KEYS = {name: BAND if isinstance(default, tuple) else NUMBER
             for spec in SWEEP_MODES.values()
             for name, default in spec["bands"].items()}
REQUIRED = {"run": ("epsilon", "trajectory", "grid"), "grid": ("half_width",),
            "plane": ("normal",), "sphere": ("dim", "radius0", "t_max"),
            "plan": ("base", "epsilons")}
ONE_VALUE = {   # keys with one admissible value, which is their default
    "potential.name": "standard",         # the quartic well of potentials
    "stepper.scheme": "semi-implicit",    # solver.make_stepper
}
DEFAULTS = {   # the value a run reads for a key that is not set
    "potential": {"name": ONE_VALUE["potential.name"]},
    "cutoff": {},
    "grid": {"mode": FULL},
    "stepper": {"scheme": ONE_VALUE["stepper.scheme"], "t_end": 0.0},
    "diagnostics": {"cadence": 10, "compute_identity": False},
    "identities": {"levels": 3, "min_order": 1.0},
    "plane": {"offset": 0.0, "t_max": 10.0},
    "sphere": {},
}
# build_simulation computes the defaults of cutoff.r_c, grid.dim and .npts,
# stepper.dt and a sphere's center.  A pair sets one value.
EITHER_OR = (("grid.npts", "grid.h_over_eps"),
             ("stepper.dt", "stepper.dt_over_eps2"))
PLAN_OWNED = ("epsilon", "grid.npts", "grid.h_over_eps", "stepper.dt",
              "stepper.dt_over_eps2")   # a plan sets these per member
READ_BY = {   # keys that one command reads and the others would ignore
    "identities": "check-identities",
    "diagnostics.snapshot_every": "simulate",
}


def _present(section) -> dict:
    """The keys of a section that are set; null means the default."""
    return {k: v for k, v in (section or {}).items() if v is not None}


def _lookup(doc: dict, path: str):
    """The value at a dotted key path, or None where it is not set."""
    *sections, key = path.split(".")
    for name in sections:
        doc = doc.get(name) if isinstance(doc.get(name), dict) else {}
    return doc.get(key)


def _issues(section: dict, kinds: dict, where: str, required=()) -> list:
    """Missing required keys, unknown keys and set values of the wrong kind
    in one section."""
    issues = [f"{where}{key}: missing required key" for key in required
              if section.get(key) is None]
    for key, value in section.items():
        if key not in kinds:
            issues.append(f"{where}{key}: unknown key")
        elif value is not None and not IS_KIND[kinds[key]](value):
            issues.append(f"{where}{key}: expected {kinds[key]}, "
                          f"got {value!r}")
    return issues


def _run_issues(doc: dict, command=None) -> list:
    """Every problem the key tables show in a run document, the keys only a
    command other than `command` reads, and a value `command` overrides."""
    issues = _issues(doc, RUN_KEYS, "", REQUIRED["run"])
    if command is not None:
        issues += [f"{path}: read only by {reader}, not by {command}"
                   for path, reader in READ_BY.items()
                   if reader != command and _lookup(doc, path) is not None]
    if (command == "check-identities"   # every level computes the identity
            and _lookup(doc, "diagnostics.compute_identity") is False):
        issues.append("diagnostics.compute_identity: must be true")
    for name, kinds in SECTION_KEYS.items():
        if isinstance(doc.get(name), dict):
            issues.extend(_issues(doc[name], kinds, f"{name}.",
                                  REQUIRED.get(name, ())))
    for path, value in ONE_VALUE.items():   # a non-string: _issues names it
        given = _lookup(doc, path)
        if isinstance(given, str) and given != value:
            issues.append(f"{path}: expected {value!r}, got {given!r}")
    traj = doc.get("trajectory")
    if isinstance(traj, dict):
        kind, kinds = traj.get("type"), tuple(TRAJECTORY_KEYS)
        if kind in kinds:   # a tuple, as a list-valued type is unhashable
            issues.extend(_issues(traj, TRAJECTORY_KEYS[kind], "trajectory.",
                                  REQUIRED[kind]))
        else:
            issues.append(f"trajectory.type: expected "
                          f"{' or '.join(map(repr, kinds))}, got {kind!r}")
    return issues + [f"{two}: set either {one} or {two}, not both"
                     for one, two in EITHER_OR
                     if None not in (_lookup(doc, one), _lookup(doc, two))]


def _build_trajectory(sec: dict):
    if sec["type"] == "plane":
        normal = np.asarray(sec["normal"], dtype=float)
        nrm = np.linalg.norm(normal)
        if not nrm > 0.0:
            raise ConfigError(["trajectory.normal: must be nonzero"])
        return PlaneInterface(normal=tuple(normal / nrm),
                              offset=float(sec["offset"]),
                              t_max=float(sec["t_max"]))
    dim = int(sec["dim"])
    if dim > MAX_RADIAL_DIM:   # no grid holds it; nor could [0.0] * dim
        raise ConfigError([f"trajectory.dim: must be at most "
                           f"{MAX_RADIAL_DIM}, got {dim}"])
    center = tuple(float(c) for c in sec.setdefault("center", [0.0] * dim))
    try:
        return SphereInterface(center=center, radius0=float(sec["radius0"]),
                               dim=dim, t_max=float(sec["t_max"]))
    except ValueError as exc:
        raise ConfigError([f"trajectory: {exc}"]) from exc


def build_simulation(doc: dict, command=None):
    """Fill every default into a copy of a run document and construct a
    SimulationConfig from that copy alone.

    Returns (config, filled document).  Raises ConfigError listing every
    problem that blocks construction; solver.validate covers the rest.
    Given the command that runs the document ("simulate", "sweep" or
    "check-identities"), a key in READ_BY that only another command reads
    is a problem too.  A section in READ_BY is filled for its reader only.
    """
    issues = _run_issues(doc, command)
    if issues:
        raise ConfigError(issues)
    traj_sec = {**DEFAULTS[doc["trajectory"]["type"]],
                **_present(doc["trajectory"])}
    filled = {"epsilon": doc["epsilon"], "trajectory": traj_sec,
              **{name: {**DEFAULTS[name], **_present(doc.get(name))}
                 for name in SECTION_KEYS
                 if READ_BY.get(name, command) == command}}
    profile = solve_profile()
    traj = _build_trajectory(traj_sec)
    eps = float(doc["epsilon"])

    cut_sec = filled["cutoff"]
    cut_sec.setdefault("r_c", R_C_RADIUS_FRACTION * traj.min_radius()
                       if traj.min_radius() < np.inf else R_C_PLANE_DEFAULT)
    try:
        cutoff = CutoffSpec(r_c=float(cut_sec["r_c"]))
    except ValueError as exc:
        raise ConfigError([f"cutoff: {exc}"]) from exc

    grid_sec = filled["grid"]
    half_width = float(grid_sec["half_width"])
    grid_sec.setdefault("dim", traj.dim)
    if "npts" not in grid_sec:
        h_over_eps = float(grid_sec.pop("h_over_eps", DEFAULT_H_OVER_EPS))
        grid_sec["npts"] = npts_for_spacing(grid_sec["mode"], half_width,
                                            eps / h_over_eps)
    try:
        grid = Grid(mode=grid_sec["mode"], dim=int(grid_sec["dim"]),
                    half_width=half_width, npts=int(grid_sec["npts"]))
    except ValueError as exc:
        raise ConfigError([f"grid: {exc}"]) from exc

    step_sec = filled["stepper"]
    if "dt" not in step_sec:
        step_sec["dt"] = eps ** 2 / float(step_sec.pop("dt_over_eps2",
                                                       DEFAULT_DT_OVER_EPS2))

    diag_sec = filled["diagnostics"]
    if command == "check-identities":
        diag_sec["compute_identity"] = True

    cfg = SimulationConfig(
        epsilon=eps, profile=profile, trajectory=traj,
        cutoff=cutoff, grid=grid, dt=float(step_sec["dt"]),
        t_end=float(step_sec["t_end"]),
        cadence=int(diag_sec["cadence"]),
        compute_identity=diag_sec["compute_identity"])
    return cfg, filled


def build_plan(doc: dict):
    """Construct a SweepPlan from a plan document {base, epsilons, ...}.

    Its modes, with the keys, bands and defaults each reads and the base
    keys each ignores, are those of experiments.SWEEP_MODES.  Problems of
    the plan are reported together with the key problems of its base.
    """
    bands = doc["bands"] if IS_KIND[OBJECT](doc.get("bands")) else {}
    issues = (_issues(doc, PLAN_KEYS, "plan.", REQUIRED["plan"])
              + _issues(bands, BAND_KEYS, "plan.bands."))
    doc, bands = _present(doc), _present(bands)
    mode = doc.get("mode", SweepPlan.mode)
    base, epsilons = doc.get("base"), doc.get("epsilons")
    issues += mode_issues(mode, [   # BAND_KEYS names the unknown bands
        *(f"plan.{key}" for key in doc),
        *(f"plan.bands.{name}" for name in bands if name in BAND_KEYS),
        *(f"{name}.{key}" for name, section in
          (base.items() if IS_KIND[OBJECT](base) else ())
          if isinstance(section, dict) for key in _present(section))])
    if not (IS_KIND[OBJECT](base) and IS_KIND[NUMBERS](epsilons)):
        raise ConfigError(issues)   # no base config to check
    issues += [f"{path}: set per member by the plan" for path in PLAN_OWNED
               if _lookup(base, path) is not None]
    # the base builds at the first eps, which is the list's to report: the
    # base's own keys are checked with a stand-in epsilon
    if not IS_KIND[POSITIVE](epsilons[0]):
        issues.append("sweep.epsilons: must be positive")
    if issues:
        raise ConfigError(issues + _run_issues(dict(base, epsilon=1.0),
                                               "sweep"))
    base = dict(base, epsilon=epsilons[0])
    base_cfg, filled_base = build_simulation(base, "sweep")
    spec = SWEEP_MODES[mode]
    for path in (*PLAN_OWNED, *spec["ignores"]):   # nor does the manifest
        section, _, key = path.rpartition(".")    # record them
        (filled_base[section] if section else filled_base).pop(key, None)
    plan = SweepPlan(base=base_cfg, epsilons=[float(e) for e in epsilons],
                     mode=mode, bands=bands,
                     **{key: float(doc[key]) for key in spec["reads"]
                        if key in doc})
    return plan, {**doc, "mode": mode, "base": filled_base,
                  "bands": dict(plan.bands),
                  **{key: getattr(plan, key) for key in spec["reads"]}}


def load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read ({exc.strerror})"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"{path}: expected a JSON object"])
    return doc
