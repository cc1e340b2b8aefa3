"""JSON configuration ingestion, the one module that reads user values.

A run configuration is a single document with sections {potential,
trajectory, cutoff, grid, stepper, diagnostics, identities}; a sweep plan
wraps one as its base.  KEYS holds one row per key, its kind and default;
missing required keys, unknown keys and values of the wrong kind (NaN and
Infinity too) are all reported in one ConfigError, and null means the
default.  A builder fills every default into a copy of its document and
builds from that copy alone, so the filled document that manifests record
rebuilds the same run.
"""

from __future__ import annotations

import json
import numbers
import sys
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_DT_OVER_EPS2, DEFAULT_H_OVER_EPS,
                          IDENTITY_LEVELS, MIN_IDENTITY_ORDER, SWEEP_MODES,
                          SweepPlan, mode_issues)
from .geometry import CutoffSpec, PlaneInterface, SphereInterface
from .grids import (FULL, MAX_RADIAL_DIM, MIN_NPTS, Grid, PointCountError,
                    npts_for_spacing)
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
    "an object": lambda v: isinstance(v, dict),
}
(NUMBER, POSITIVE, INTEGER, POSITIVE_INTEGER, FLAG, TEXT, NUMBERS,
 OBJECT) = IS_KIND
REQUIRED = object()   # the default of a key that must be set
KEYS = {   # the run document, each section and, under trajectory, each
    # trajectory type: {key: (kind, default)}.  A kind IS_KIND does not name
    # is the one value the key takes (a tuple as a list): the pinned
    # thresholds among them.  A None default is computed by build_simulation
    # (cutoff.r_c, grid.dim and a sphere's center) or leaves the key unset.
    "run": {"epsilon": (POSITIVE, REQUIRED), "trajectory": (OBJECT, REQUIRED),
            "potential": (OBJECT, None), "cutoff": (OBJECT, None),
            "grid": (OBJECT, REQUIRED), "stepper": (OBJECT, None),
            "diagnostics": (OBJECT, None), "identities": (OBJECT, None)},
    "potential": {"name": ("standard", "standard")},   # potentials' quartic
    "cutoff": {"r_c": (NUMBER, None)},
    "grid": {"mode": (TEXT, FULL), "dim": (INTEGER, None),
             "half_width": (NUMBER, REQUIRED),
             "h_over_eps": (POSITIVE, DEFAULT_H_OVER_EPS)},
    "stepper": {"scheme": ("semi-implicit", "semi-implicit"),   # make_stepper
                "dt_over_eps2": (POSITIVE, DEFAULT_DT_OVER_EPS2),
                "t_end": (NUMBER, 0.0)},
    "diagnostics": {"cadence": (INTEGER, 10),
                    "compute_identity": (FLAG, False),
                    "snapshot_every": (POSITIVE_INTEGER, None)},
    "identities": {"levels": (IDENTITY_LEVELS, IDENTITY_LEVELS),
                   "min_order": (MIN_IDENTITY_ORDER, MIN_IDENTITY_ORDER)},
    "trajectory": {
        "plane": {"type": ("plane", REQUIRED), "normal": (NUMBERS, REQUIRED),
                  "offset": (NUMBER, 0.0)},
        "sphere": {"type": ("sphere", REQUIRED), "dim": (INTEGER, REQUIRED),
                   "radius0": (NUMBER, REQUIRED), "center": (NUMBERS, None),
                   "t_max": (NUMBER, REQUIRED)}},
}
PLAN_KEYS = {   # SweepPlan fills the None defaults
    "mode": (TEXT, None), "base": (OBJECT, REQUIRED),
    "epsilons": (NUMBERS, REQUIRED),
    **{key: (POSITIVE, None) for spec in SWEEP_MODES.values()
       for key in spec["reads"]}, "bands": (OBJECT, None)}
BAND_KEYS = {name: (band, None) for spec in SWEEP_MODES.values()
             for name, band in spec["bands"].items()}
PLAN_OWNED = ("epsilon", "grid.h_over_eps", "stepper.dt_over_eps2")
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


def _issues(section: dict, rows: dict, where: str) -> list:
    """Missing required keys, unknown keys and set values of the wrong kind
    in one section."""
    issues = [f"{where}{key}: missing required key"
              for key, (_, default) in rows.items()
              if default is REQUIRED and section.get(key) is None]
    for key, value in section.items():
        kind = rows[key][0] if key in rows else None
        pinned = list(kind) if isinstance(kind, tuple) else kind   # as JSON
        if kind is None:
            issues.append(f"{where}{key}: unknown key")
        elif value is not None and not (   # True == 1.0, but true is no number
                IS_KIND[kind](value) if kind in IS_KIND
                else value == pinned and not isinstance(value, bool)):
            issues.append(f"{where}{key}: expected "
                          f"{kind if kind in IS_KIND else repr(pinned)}, "
                          f"got {value!r}")
    return issues


def _filled(rows: dict, section) -> dict:
    """The set keys of a section over the defaults of its rows."""
    return {**{key: default for key, (_, default) in rows.items()
               if default is not None and default is not REQUIRED},
            **_present(section)}


def _run_issues(doc: dict, command=None) -> list:
    """Every problem the key rows show in a run document, the keys only a
    command other than `command` reads, and a value `command` overrides."""
    issues = _issues(doc, KEYS["run"], "")
    if command is not None:
        issues += [f"{path}: read only by {reader}, not by {command}"
                   for path, reader in READ_BY.items()
                   if reader != command and _lookup(doc, path) is not None]
    if (command == "check-identities"   # every level computes the identity
            and _lookup(doc, "diagnostics.compute_identity") is False):
        issues.append("diagnostics.compute_identity: must be true")
    for name, rows in KEYS.items():
        section = doc.get(name)
        if name == "run" or not isinstance(section, dict):
            continue
        if name == "trajectory":
            kind, types = section.get("type"), tuple(rows)
            if kind not in types:   # a tuple: a list-valued type is unhashable
                issues.append(f"trajectory.type: expected "
                              f"{' or '.join(map(repr, types))}, got {kind!r}")
                continue
            rows = rows[kind]
        issues.extend(_issues(section, rows, f"{name}."))
    return issues


def _build_trajectory(sec: dict):
    if sec["type"] == "plane":
        normal = np.asarray(sec["normal"], dtype=float)
        if not np.any(normal):
            raise ConfigError(["trajectory.normal: must be nonzero"])
        # normalizing divides by sqrt(n . n), which must neither underflow
        # nor overflow
        with np.errstate(over="ignore", under="ignore"):
            square = float(normal.dot(normal))
        if not np.finfo(float).tiny <= square < np.inf:
            raise ConfigError([f"trajectory.normal: {sec['normal']} out of "
                               f"range: |normal|^2 is not a normal float"])
        return PlaneInterface(normal=tuple(normal / np.sqrt(square)),
                              offset=float(sec["offset"]))
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
    A sweep's base gets the fewest grid points: the plan respaces it for
    each member and checks each member's spacing under its own keys.
    """
    issues = _run_issues(doc, command)
    if issues:
        raise ConfigError(issues)
    kind = doc["trajectory"]["type"]
    filled = {"epsilon": doc["epsilon"],
              **{name: _filled(rows[kind] if name == "trajectory" else rows,
                               doc.get(name)) for name, rows in KEYS.items()
                 if name != "run" and READ_BY.get(name, command) == command}}
    profile = solve_profile()
    traj = _build_trajectory(filled["trajectory"])
    eps = float(doc["epsilon"])

    cut_sec = filled["cutoff"]
    cut_sec.setdefault("r_c", R_C_RADIUS_FRACTION * traj.min_radius()
                       if traj.min_radius() < np.inf else R_C_PLANE_DEFAULT)
    grid_sec = filled["grid"]
    half_width = float(grid_sec["half_width"])
    grid_sec.setdefault("dim", traj.dim)

    def grid():
        mode = grid_sec["mode"]
        npts = MIN_NPTS if command == "sweep" else npts_for_spacing(
            mode, half_width, eps / float(grid_sec["h_over_eps"]))
        return Grid(mode=mode, half_width=half_width, dim=int(grid_sec["dim"]),
                    npts=npts)

    parts, issues = {}, []   # every part that fails to build is listed
    for name, build in (
            ("cutoff", lambda: CutoffSpec(r_c=float(cut_sec["r_c"]))),
            ("grid", grid)):
        try:
            parts[name] = build()
        except ValueError as exc:   # a point count names the spacing's key
            key = (f"grid.h_over_eps = {grid_sec['h_over_eps']:g}"
                   if isinstance(exc, PointCountError) else name)
            issues.append(f"{key}: {exc}")
    if issues:
        raise ConfigError(issues)

    step_sec = filled["stepper"]
    diag_sec = filled["diagnostics"]
    if command == "check-identities":
        diag_sec["compute_identity"] = True

    cfg = SimulationConfig(
        epsilon=eps, profile=profile, trajectory=traj, **parts,
        dt=eps ** 2 / float(step_sec["dt_over_eps2"]),
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
    issues = (_issues(doc, PLAN_KEYS, "plan.")
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
    # a first eps that is not positive is listed with the base's problems
    if not IS_KIND[POSITIVE](epsilons[0]):
        issues.append("sweep.epsilons: must be positive")
    # the base builds at a stand-in epsilon: each member takes its own, and
    # the plan's validate checks each member's spacing
    base = dict(base, epsilon=1.0)
    if issues:
        raise ConfigError(issues + _run_issues(base, "sweep"))
    base_cfg, filled_base = build_simulation(base, "sweep")
    spec = SWEEP_MODES[mode]
    for path in (*PLAN_OWNED, *spec["ignores"]):   # nor does the manifest
        section, _, key = path.rpartition(".")    # record them
        (filled_base[section] if section else filled_base).pop(key, None)
    plan = SweepPlan(base=base_cfg, epsilons=[float(e) for e in epsilons],
                     mode=mode, **{key: float(doc[key])
                                   for key in spec["reads"] if key in doc})
    return plan, {**doc, "mode": mode, "base": filled_base,
                  "bands": {name: list(band) if isinstance(band, tuple)
                            else band for name, band in plan.bands.items()},
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
