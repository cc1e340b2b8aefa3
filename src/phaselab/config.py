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

from .diagnostics import default_s0
from .experiments import (DEFAULT_DT_OVER_EPS2, DEFAULT_H_OVER_EPS,
                          SweepPlan)
from .geometry import CutoffSpec, PlaneInterface, SphereInterface
from .grids import FULL, Grid, npts_for_spacing
from .potentials import potential_by_name, solve_profile
from .solver import ConfigError, SimulationConfig

R_C_RADIUS_FRACTION = 0.45   # default r_c for spheres: fraction of min R(t)
R_C_PLANE_DEFAULT = 0.5
SCHEME = "semi-implicit"     # the one time stepper, solver.make_stepper


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
    "potential": {"name": TEXT, "coeffs": NUMBERS, "s_max": NUMBER,
                  "n_samples": INTEGER},
    "cutoff": {"r_c": NUMBER, "c_quad": NUMBER},
    "grid": {"mode": TEXT, "dim": INTEGER, "half_width": NUMBER,
             "npts": INTEGER, "h_over_eps": POSITIVE},
    "stepper": {"scheme": TEXT, "dt": POSITIVE, "dt_over_eps2": POSITIVE,
                "t_end": NUMBER},
    "diagnostics": {"cadence": INTEGER, "s0": POSITIVE,
                    "compute_identity": FLAG,
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
             "h_over_eps": POSITIVE, "dt_over_eps2": POSITIVE,
             "initial_h_over_eps": POSITIVE, "bands": OBJECT}
BAND_KEYS = {"err_l1": BAND, "rel_entropy": BAND, "initial_entropy": BAND,
             "gronwall_factor": NUMBER}
REQUIRED = {"run": ("epsilon", "trajectory", "grid"), "grid": ("half_width",),
            "plane": ("normal",), "sphere": ("dim", "radius0", "t_max"),
            "plan": ("base", "epsilons")}
SWEEP_MODES = ("full", "initial-entropy")
DEFAULTS = {   # the value a run reads for a key that is not set
    "potential": {"name": "standard", "s_max": 8.0, "n_samples": 4096},
    "cutoff": {"c_quad": 1.0},
    "grid": {"mode": FULL},
    "stepper": {"scheme": SCHEME, "t_end": 0.0},
    "diagnostics": {"cadence": 10, "compute_identity": False},
    "identities": {"levels": 3, "min_order": 1.0},
    "plane": {"offset": 0.0, "t_max": 10.0},
    "sphere": {},
}
# build_simulation computes the defaults of cutoff.r_c, grid.dim and .npts,
# stepper.dt, diagnostics.s0 and a sphere's center.  A pair sets one value.
EITHER_OR = (("grid.npts", "grid.h_over_eps"),
             ("stepper.dt", "stepper.dt_over_eps2"))
PLAN_OWNED = ("epsilon", "grid.npts", "grid.h_over_eps", "stepper.dt",
              "stepper.dt_over_eps2")   # a plan sets these per member
READ_BY = {   # keys that one command reads and the others would ignore
    "identities": "check-identities",
    "diagnostics.snapshot_every": "simulate",
}
MODE_READS = {   # the plan keys that only one sweep mode reads
    "full": ("h_over_eps", "dt_over_eps2"),
    "initial-entropy": ("initial_h_over_eps",),
}
STEPPING = ("stepper.scheme", "stepper.t_end", "diagnostics.cadence",
            "diagnostics.compute_identity")   # base keys only mode full reads


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
    """Every problem that the key tables show in a run document, and the
    keys that only a command other than `command` reads."""
    issues = _issues(doc, RUN_KEYS, "", REQUIRED["run"])
    if command is not None:
        issues += [f"{path}: read only by {reader}, not by {command}"
                   for path, reader in READ_BY.items()
                   if reader != command and _lookup(doc, path) is not None]
    for name, kinds in SECTION_KEYS.items():
        if isinstance(doc.get(name), dict):
            issues.extend(_issues(doc[name], kinds, f"{name}.",
                                  REQUIRED.get(name, ())))
    scheme = _lookup(doc, "stepper.scheme")
    if isinstance(scheme, str) and scheme != SCHEME:
        issues.append(f"stepper.scheme: unknown scheme {scheme!r} (expected "
                      f"{SCHEME!r})")
    traj = doc.get("trajectory")
    if isinstance(traj, dict):
        kind = traj.get("type")
        if kind in ("plane", "sphere"):
            issues.extend(_issues(traj, TRAJECTORY_KEYS[kind], "trajectory.",
                                  REQUIRED[kind]))
        else:
            issues.append(f"trajectory.type: expected 'plane' or 'sphere', "
                          f"got {kind!r}")
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
    center = tuple(float(c) for c in sec.setdefault("center", [0.0] * dim))
    try:
        return SphereInterface(center=center, radius0=float(sec["radius0"]),
                               dim=dim, t_max=float(sec["t_max"]))
    except ValueError as exc:
        raise ConfigError([f"trajectory: {exc}"]) from exc


def build_profile(name: str, coeffs, s_max: float, n_samples: int):
    """(potential, profile table); a bad argument raises ConfigError, a
    profile that does not converge potentials.ProfileError."""
    if coeffs is not None and name == "standard":
        raise ConfigError(["potential.coeffs: read only by potential 'poly', "
                           "not by 'standard'"])
    try:
        pot = potential_by_name(name, coeffs)
        return pot, solve_profile(pot, s_max=s_max, n_samples=n_samples)
    except ValueError as exc:   # PotentialError, or s_max/n_samples too small
        raise ConfigError([f"potential: {exc}"]) from exc


def build_simulation(doc: dict, command=None):
    """Fill every default into a copy of a run document and construct a
    SimulationConfig from that copy alone.

    Returns (config, filled document).  Raises ConfigError listing every
    problem that blocks construction; solver.validate covers the rest.
    Given the command that runs the document ("simulate", "sweep" or
    "check-identities"), a key in READ_BY that only another command reads
    is a problem too.
    """
    issues = _run_issues(doc, command)
    if issues:
        raise ConfigError(issues)
    traj_sec = {**DEFAULTS[doc["trajectory"]["type"]],
                **_present(doc["trajectory"])}
    filled = {"epsilon": doc["epsilon"], "trajectory": traj_sec,
              **{name: {**DEFAULTS[name], **_present(doc.get(name))}
                 for name in ("potential", "cutoff", "grid", "stepper",
                              "diagnostics")}}
    pot_sec = filled["potential"]
    pot, profile = build_profile(pot_sec["name"], pot_sec.get("coeffs"),
                                 float(pot_sec["s_max"]),
                                 int(pot_sec["n_samples"]))
    traj = _build_trajectory(traj_sec)
    eps = float(doc["epsilon"])

    cut_sec = filled["cutoff"]
    cut_sec.setdefault("r_c", R_C_RADIUS_FRACTION * traj.min_radius()
                       if isinstance(traj, SphereInterface)
                       else R_C_PLANE_DEFAULT)
    try:
        cutoff = CutoffSpec(r_c=float(cut_sec["r_c"]),
                            c_quad=float(cut_sec["c_quad"]))
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
    diag_sec.setdefault("s0", default_s0(cutoff))

    cfg = SimulationConfig(
        epsilon=eps, potential=pot, profile=profile, trajectory=traj,
        cutoff=cutoff, grid=grid, dt=float(step_sec["dt"]),
        t_end=float(step_sec["t_end"]),
        cadence=int(diag_sec["cadence"]), s0=float(diag_sec["s0"]),
        compute_identity=diag_sec["compute_identity"])
    return cfg, filled


def build_plan(doc: dict):
    """Construct a SweepPlan from a plan document {base, epsilons, ...}.

    The returned dict carries the sweep mode, one of SWEEP_MODES.  Problems
    of the plan are reported together with the key problems of its base.
    """
    bands = doc.get("bands") or {}
    issues = (_issues(doc, PLAN_KEYS, "plan.", REQUIRED["plan"])
              + _issues(bands if isinstance(bands, dict) else {}, BAND_KEYS,
                        "plan.bands."))
    doc = _present(doc)
    mode = doc.get("mode", "full")
    if mode not in SWEEP_MODES:
        issues.append(f"plan.mode: unknown mode {mode!r} (expected one of "
                      f"{', '.join(SWEEP_MODES)})")
    issues += [f"plan.{key}: read only in mode {reader!r}"
               for reader, keys in MODE_READS.items()
               if mode in SWEEP_MODES and reader != mode
               for key in keys if key in doc]
    base, epsilons = doc.get("base"), doc.get("epsilons")
    if not (IS_KIND[OBJECT](base) and IS_KIND[NUMBERS](epsilons)):
        raise ConfigError(issues)   # no base config to check
    issues += [f"{path}: set per member by the plan" for path in PLAN_OWNED
               if _lookup(base, path) is not None]
    if mode == "initial-entropy":   # the study evaluates t = 0 only
        issues += [f"{path}: read only in mode 'full'" for path in STEPPING
                   if _lookup(base, path) is not None]
    base = dict(base, epsilon=epsilons[0])
    if issues:
        raise ConfigError(issues + _run_issues(base, "sweep"))
    base_cfg, filled_base = build_simulation(base, "sweep")
    del filled_base["epsilon"], filled_base["grid"]["npts"], \
        filled_base["stepper"]["dt"]
    if mode == "initial-entropy":
        for path in STEPPING:
            section, key = path.split(".")
            del filled_base[section][key]
    plan = SweepPlan(base=base_cfg, epsilons=[float(e) for e in epsilons],
                     bands=_present(bands),
                     **{key: float(doc[key]) for key in MODE_READS[mode]
                        if key in doc})
    return plan, {**doc, "mode": mode, "base": filled_base,
                  "bands": dict(plan.bands),
                  **{key: getattr(plan, key) for key in MODE_READS[mode]}}


def build_identities(doc: dict) -> dict:
    """The filled identities section of a run document that build_simulation
    took: the refinement levels and the minimum observed order required."""
    sec = {**DEFAULTS["identities"], **_present(doc.get("identities"))}
    if sec["levels"] < 2:
        raise ConfigError([f"identities.levels: need >= 2 refinement "
                           f"levels, got {sec['levels']}"])
    return sec


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
