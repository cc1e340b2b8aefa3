"""JSON configuration ingestion, the one module that reads user values.

A run configuration is a single document with sections {potential,
trajectory, cutoff, grid, stepper, diagnostics, identities}; a sweep plan
wraps one as its base.  The key tables give the kind of every key; unknown
keys and values of the wrong kind (NaN and Infinity too) are all reported
in one ConfigError, and null means the default.  Every default is
materialized into the returned dict so that manifests are self-describing.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_DT_OVER_EPS2, DEFAULT_H_OVER_EPS,
                          SweepPlan)
from .geometry import CutoffSpec, PlaneInterface, SphereInterface
from .grids import FULL, Grid, npts_for_spacing
from .potentials import potential_by_name, solve_profile
from .solver import EXPLICIT, ConfigError, SEMI_IMPLICIT, SimulationConfig

R_C_RADIUS_FRACTION = 0.45   # default r_c for spheres: fraction of min R(t)
R_C_PLANE_DEFAULT = 0.5


IS_KIND = {   # keyed by the wording of the error message
    "a number": lambda v: (isinstance(v, numbers.Real)   # finite, not a bool
                           and not isinstance(v, bool)
                           and abs(v) <= sys.float_info.max),
    "a positive number": lambda v: IS_KIND[NUMBER](v) and v > 0,
    "an integer": lambda v: IS_KIND[NUMBER](v) and v == int(v),
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a nonempty list of numbers": lambda v: (
        isinstance(v, (list, tuple)) and len(v) > 0
        and all(map(IS_KIND[NUMBER], v))),
    "a [low, high] pair": lambda v: (IS_KIND[NUMBERS](v) and len(v) == 2
                                     and v[0] <= v[1]),
    "an object": lambda v: isinstance(v, dict),
}
NUMBER, POSITIVE, INTEGER, FLAG, TEXT, NUMBERS, BAND, OBJECT = IS_KIND
SECTION_KEYS = {
    "potential": {"name": TEXT, "coeffs": NUMBERS, "s_max": NUMBER,
                  "n_samples": INTEGER},
    "cutoff": {"r_c": NUMBER, "c_quad": NUMBER},
    "grid": {"mode": TEXT, "dim": INTEGER, "half_width": NUMBER,
             "npts": INTEGER, "h_over_eps": POSITIVE},
    "stepper": {"scheme": TEXT, "dt": NUMBER, "dt_over_eps2": POSITIVE,
                "t_end": NUMBER},
    "diagnostics": {"cadence": INTEGER, "s0": NUMBER,
                    "compute_identity": FLAG, "snapshot_every": INTEGER},
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


def _present(section) -> dict:
    """The keys of a section that are set; null means the default."""
    return {k: v for k, v in (section or {}).items() if v is not None}


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


def _run_issues(doc: dict) -> list:
    """Every problem that the key tables show in a run document."""
    issues = _issues(doc, RUN_KEYS, "", REQUIRED["run"])
    for name, kinds in SECTION_KEYS.items():
        if isinstance(doc.get(name), dict):
            issues.extend(_issues(doc[name], kinds, f"{name}.",
                                  REQUIRED.get(name, ())))
    traj = doc.get("trajectory")
    if isinstance(traj, dict):
        kind = traj.get("type")
        if kind in ("plane", "sphere"):
            issues.extend(_issues(traj, TRAJECTORY_KEYS[kind], "trajectory.",
                                  REQUIRED[kind]))
        else:
            issues.append(f"trajectory.type: expected 'plane' or 'sphere', "
                          f"got {kind!r}")
    return issues


def _build_trajectory(sec: dict):
    if sec["type"] == "plane":
        normal = np.asarray(sec["normal"], dtype=float)
        nrm = np.linalg.norm(normal)
        if not nrm > 0.0:
            raise ConfigError(["trajectory.normal: must be nonzero"])
        return PlaneInterface(normal=tuple(normal / nrm),
                              offset=float(sec.get("offset", 0.0)),
                              t_max=float(sec.get("t_max", 10.0)))
    dim = int(sec["dim"])
    center = tuple(float(c) for c in sec.get("center", [0.0] * dim))
    try:
        return SphereInterface(center=center, radius0=float(sec["radius0"]),
                               dim=dim, t_max=float(sec["t_max"]))
    except ValueError as exc:
        raise ConfigError([f"trajectory: {exc}"]) from exc


def build_profile(name: str, coeffs, s_max: float, n_samples: int):
    """(potential, profile table); a bad argument raises ConfigError, a
    profile that does not converge potentials.ProfileError."""
    try:
        pot = potential_by_name(name, coeffs)
        return pot, solve_profile(pot, s_max=s_max, n_samples=n_samples)
    except ValueError as exc:   # PotentialError, or s_max/n_samples too small
        raise ConfigError([f"potential: {exc}"]) from exc


def build_simulation(doc: dict):
    """Materialize defaults and construct a SimulationConfig.

    Returns (config, materialized dict).  Raises ConfigError listing every
    problem that blocks construction; solver.validate covers the rest.
    """
    issues = _run_issues(doc)
    if issues:
        raise ConfigError(issues)
    doc = _present(doc)
    pot_sec = _present(doc.get("potential"))
    s_max = float(pot_sec.get("s_max", 8.0))
    n_samples = int(pot_sec.get("n_samples", 4096))
    pot, profile = build_profile(pot_sec.get("name", "standard"),
                                 pot_sec.get("coeffs"), s_max, n_samples)

    traj = _build_trajectory(_present(doc["trajectory"]))

    eps = float(doc["epsilon"])

    cut_sec = _present(doc.get("cutoff"))
    r_c = (R_C_RADIUS_FRACTION * traj.min_radius()
           if isinstance(traj, SphereInterface) else R_C_PLANE_DEFAULT)
    try:
        cutoff = CutoffSpec(r_c=float(cut_sec.get("r_c", r_c)),
                            c_quad=float(cut_sec.get("c_quad", 1.0)))
    except ValueError as exc:
        raise ConfigError([f"cutoff: {exc}"]) from exc

    grid_sec = _present(doc["grid"])
    mode = grid_sec.get("mode", FULL)
    half_width = float(grid_sec["half_width"])
    dim = int(grid_sec.get("dim", traj.dim))
    npts = grid_sec.get("npts")
    h_over_eps = float(grid_sec.get("h_over_eps", DEFAULT_H_OVER_EPS))
    if npts is None:
        npts = npts_for_spacing(mode, half_width, eps / h_over_eps)
    try:
        grid = Grid(mode=mode, dim=dim, half_width=half_width, npts=int(npts))
    except ValueError as exc:
        raise ConfigError([f"grid: {exc}"]) from exc

    step_sec = _present(doc.get("stepper"))
    scheme = step_sec.get("scheme", SEMI_IMPLICIT)
    dt = step_sec.get("dt")
    if dt is None:
        dt = eps ** 2 / float(step_sec.get("dt_over_eps2",
                                           DEFAULT_DT_OVER_EPS2))
        if scheme == EXPLICIT:
            dt = min(dt, 0.5 * grid.h ** 2 / (2.0 * grid.dim))
    t_end = float(step_sec.get("t_end", 0.0))

    diag_sec = _present(doc.get("diagnostics"))
    cadence = int(diag_sec.get("cadence", 10))
    s0 = float(diag_sec.get("s0", cutoff.r_c / 4.0))
    compute_identity = diag_sec.get("compute_identity", False)

    cfg = SimulationConfig(
        epsilon=eps, potential=pot, profile=profile, trajectory=traj,
        cutoff=cutoff, grid=grid, scheme=scheme, dt=float(dt), t_end=t_end,
        cadence=cadence, s0=s0, compute_identity=compute_identity)

    materialized = {
        "epsilon": eps,
        "potential": {"name": pot.name, "s_max": s_max,
                      "n_samples": n_samples, "max_ddw": pot.max_ddw,
                      "well_constant": pot.well_constant},
        "trajectory": _traj_dict(traj),
        "cutoff": {"r_c": cutoff.r_c, "c_quad": cutoff.c_quad,
                   "eta_deriv_bound": cutoff.deriv_bound},
        "grid": {"mode": grid.mode, "dim": grid.dim,
                 "half_width": grid.half_width, "npts": grid.npts,
                 "h": grid.h},
        "stepper": {"scheme": scheme, "dt": float(dt), "t_end": t_end,
                    "dt_actual": cfg.dt_actual(), "n_steps": cfg.steps()},
        "diagnostics": {"cadence": cadence, "s0": s0,
                        "compute_identity": compute_identity,
                        "snapshot_every": diag_sec.get("snapshot_every")},
    }
    return cfg, materialized


def _traj_dict(traj) -> dict:
    if isinstance(traj, PlaneInterface):
        return {"type": "plane", **asdict(traj)}
    return {"type": "sphere", **asdict(traj),
            "extinction_time": traj.extinction_time}


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
    base, epsilons = doc.get("base"), doc.get("epsilons")
    if not (IS_KIND[OBJECT](base) and IS_KIND[NUMBERS](epsilons)):
        raise ConfigError(issues)   # no base config to check
    base = dict(base, epsilon=_present(base).get("epsilon", epsilons[0]))
    if issues:
        raise ConfigError(issues + _run_issues(base))
    base_cfg, materialized = build_simulation(base)
    epsilons = [float(e) for e in epsilons]
    resolution = ("h_over_eps", "dt_over_eps2", "initial_h_over_eps")
    plan = SweepPlan(base=base_cfg, epsilons=epsilons, bands=_present(bands),
                     **{key: float(doc[key]) for key in resolution
                        if key in doc})
    return plan, {"base": materialized, "epsilons": epsilons, "mode": mode,
                  "bands": dict(plan.bands),
                  **{key: getattr(plan, key) for key in resolution}}


def build_identities(doc: dict):
    """(levels, min_order) of a run document that build_simulation took."""
    sec = _present(doc.get("identities"))
    levels = int(sec.get("levels", 3))
    if levels < 2:
        raise ConfigError([f"identities.levels: need >= 2 refinement "
                           f"levels, got {levels}"])
    return levels, float(sec.get("min_order", 1.0))


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
