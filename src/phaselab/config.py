"""JSON configuration ingestion.

A run configuration is a single document with sections {potential,
trajectory, cutoff, grid, stepper, diagnostics, identities}; a sweep plan
wraps one as its base.  Keys no section defines are rejected.  Every default
is materialized into the returned dict so that manifests are
self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_BANDS, DEFAULT_DT_OVER_EPS2,
                          DEFAULT_H_OVER_EPS, SweepPlan)
from .geometry import CutoffSpec, PlaneInterface, SphereInterface
from .grids import FULL, Grid, npts_for_spacing
from .potentials import potential_by_name, solve_profile
from .solver import ConfigError, SEMI_IMPLICIT, SimulationConfig

R_C_RADIUS_FRACTION = 0.45   # default r_c for spheres: fraction of min R(t)
R_C_PLANE_DEFAULT = 0.5

SECTION_KEYS = {
    "potential": ("name", "coeffs", "s_max", "n_samples"),
    "cutoff": ("r_c", "c_quad"),
    "grid": ("mode", "dim", "half_width", "npts", "h_over_eps"),
    "stepper": ("scheme", "dt", "dt_over_eps2", "t_end"),
    "diagnostics": ("cadence", "s0", "compute_identity", "snapshot_every"),
    "identities": ("levels", "min_order"),
}
TRAJECTORY_KEYS = {"plane": ("type", "normal", "offset", "t_max"),
                   "sphere": ("type", "dim", "radius0", "center", "t_max")}
RUN_KEYS = ("epsilon", "trajectory") + tuple(SECTION_KEYS)
PLAN_KEYS = ("mode", "base", "epsilons", "h_over_eps", "dt_over_eps2",
             "initial_h_over_eps", "bands")
SWEEP_MODES = ("full", "initial-entropy")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError([f"{where}.{key}: missing required key"])
    return section[key]


def _unknown(section: dict, allowed, where: str) -> list:
    return [f"{where}{key}: unknown key" for key in section
            if key not in allowed]


def _unknown_keys(doc: dict) -> list:
    """Every key of a run document that its section does not define."""
    issues = _unknown(doc, RUN_KEYS, "")
    for name in ("trajectory",) + tuple(SECTION_KEYS):
        sec = doc.get(name, {})
        if not isinstance(sec, dict):
            issues.append(f"{name}: must be an object")
        elif name in SECTION_KEYS:
            issues.extend(_unknown(sec, SECTION_KEYS[name], f"{name}."))
        elif sec.get("type") in TRAJECTORY_KEYS:   # else reported on build
            issues.extend(_unknown(sec, TRAJECTORY_KEYS[sec["type"]],
                                   "trajectory."))
    return issues


def _build_trajectory(sec: dict):
    kind = _require(sec, "type", "trajectory")
    if kind == "plane":
        normal = np.asarray(_require(sec, "normal", "trajectory"), dtype=float)
        nrm = np.linalg.norm(normal)
        if nrm <= 0.0:
            raise ConfigError(["trajectory.normal: must be nonzero"])
        normal = normal / nrm
        return PlaneInterface(normal=tuple(normal),
                              offset=float(sec.get("offset", 0.0)),
                              t_max=float(sec.get("t_max", 10.0)))
    if kind == "sphere":
        dim = int(_require(sec, "dim", "trajectory"))
        r0 = float(_require(sec, "radius0", "trajectory"))
        center = tuple(float(c) for c in sec.get("center", [0.0] * dim))
        t_max = float(_require(sec, "t_max", "trajectory"))
        try:
            return SphereInterface(center=center, radius0=r0, dim=dim,
                                   t_max=t_max)
        except ValueError as exc:
            raise ConfigError([f"trajectory: {exc}"]) from exc
    raise ConfigError([f"trajectory.type: unknown type {kind!r}"])


def build_simulation(doc: dict):
    """Materialize defaults and construct a SimulationConfig.

    Returns (config, materialized dict).  Raises ConfigError listing every
    problem that blocks construction; solver.validate covers the rest.
    """
    doc = dict(doc)
    issues = _unknown_keys(doc)
    if issues:
        raise ConfigError(issues)
    pot_sec = dict(doc.get("potential", {"name": "standard"}))
    pot_sec.setdefault("name", "standard")
    try:
        pot = potential_by_name(pot_sec["name"], pot_sec.get("coeffs"))
    except ValueError as exc:
        raise ConfigError([f"potential.name: {exc}"]) from exc
    profile = solve_profile(pot, s_max=float(pot_sec.get("s_max", 8.0)),
                            n_samples=int(pot_sec.get("n_samples", 4096)))

    traj = _build_trajectory(dict(_require(doc, "trajectory", "config")))

    eps = float(_require(doc, "epsilon", "config"))
    if eps <= 0.0:
        raise ConfigError(["epsilon: must be positive"])

    cut_sec = dict(doc.get("cutoff", {}))
    r_c = cut_sec.get("r_c")
    if r_c is None:
        if isinstance(traj, SphereInterface):
            r_c = R_C_RADIUS_FRACTION * traj.min_radius()
        else:
            r_c = R_C_PLANE_DEFAULT
    c_quad = float(cut_sec.get("c_quad", 1.0))
    try:
        cutoff = CutoffSpec(r_c=float(r_c), c_quad=c_quad)
    except ValueError as exc:
        raise ConfigError([f"cutoff: {exc}"]) from exc

    grid_sec = dict(_require(doc, "grid", "config"))
    mode = grid_sec.get("mode", FULL)
    half_width = float(_require(grid_sec, "half_width", "grid"))
    dim = int(grid_sec.get("dim", traj.dim))
    npts = grid_sec.get("npts")
    h_over_eps = float(grid_sec.get("h_over_eps", DEFAULT_H_OVER_EPS))
    if npts is None:
        npts = npts_for_spacing(mode, half_width, eps / h_over_eps)
    try:
        grid = Grid(mode=mode, dim=dim, half_width=half_width, npts=int(npts))
    except ValueError as exc:
        raise ConfigError([f"grid: {exc}"]) from exc

    step_sec = dict(doc.get("stepper", {}))
    scheme = step_sec.get("scheme", SEMI_IMPLICIT)
    dt = step_sec.get("dt")
    if dt is None:
        dt = eps ** 2 / float(step_sec.get("dt_over_eps2",
                                           DEFAULT_DT_OVER_EPS2))
        if scheme == "explicit":
            dt = min(dt, 0.5 * grid.h ** 2 / (2.0 * grid.dim))
    t_end = float(step_sec.get("t_end", 0.0))

    diag_sec = dict(doc.get("diagnostics", {}))
    cadence = int(diag_sec.get("cadence", 10))
    s0 = diag_sec.get("s0")
    s0_val = float(s0) if s0 is not None else cutoff.r_c / 4.0
    compute_identity = bool(diag_sec.get("compute_identity", False))

    cfg = SimulationConfig(
        epsilon=eps, potential=pot, profile=profile, trajectory=traj,
        cutoff=cutoff, grid=grid, scheme=scheme, dt=float(dt), t_end=t_end,
        cadence=cadence, s0=s0_val, compute_identity=compute_identity)

    materialized = {
        "epsilon": eps,
        "potential": {"name": pot.name,
                      "s_max": float(pot_sec.get("s_max", 8.0)),
                      "n_samples": int(pot_sec.get("n_samples", 4096)),
                      "max_ddw": pot.max_ddw,
                      "well_constant": pot.well_constant},
        "trajectory": _traj_dict(traj),
        "cutoff": {"r_c": cutoff.r_c, "c_quad": cutoff.c_quad,
                   "eta_deriv_bound": cutoff.deriv_bound},
        "grid": {"mode": grid.mode, "dim": grid.dim,
                 "half_width": grid.half_width, "npts": grid.npts,
                 "h": grid.h},
        "stepper": {"scheme": scheme, "dt": float(dt), "t_end": t_end,
                    "dt_actual": cfg.dt_actual(), "n_steps": cfg.steps()},
        "diagnostics": {"cadence": cadence, "s0": s0_val,
                        "compute_identity": compute_identity,
                        "snapshot_every": diag_sec.get("snapshot_every")},
    }
    return cfg, materialized


def _traj_dict(traj) -> dict:
    if isinstance(traj, PlaneInterface):
        return {"type": "plane", "normal": list(traj.normal),
                "offset": traj.offset, "t_max": traj.t_max}
    return {"type": "sphere", "dim": traj.dim, "radius0": traj.radius0,
            "center": list(traj.center), "t_max": traj.t_max,
            "extinction_time": traj.extinction_time}


def build_plan(doc: dict):
    """Construct a SweepPlan from a plan document {base, epsilons, ...}.

    The returned dict carries the sweep mode, one of SWEEP_MODES.
    """
    bands_doc = dict(doc.get("bands", {}))
    issues = (_unknown(doc, PLAN_KEYS, "plan.")
              + _unknown(bands_doc, DEFAULT_BANDS, "plan.bands."))
    mode = doc.get("mode", "full")
    if mode not in SWEEP_MODES:
        issues.append(f"plan.mode: unknown mode {mode!r} (expected one of "
                      f"{', '.join(SWEEP_MODES)})")
    base_doc = dict(_require(doc, "base", "plan"))
    epsilons = [float(e) for e in _require(doc, "epsilons", "plan")]
    if not epsilons:
        raise ConfigError(["plan.epsilons: must be a nonempty list"])
    base_doc.setdefault("epsilon", epsilons[0])
    try:
        base_cfg, materialized = build_simulation(base_doc)
    except ConfigError as exc:
        raise ConfigError(issues + exc.messages) from exc
    if issues:
        raise ConfigError(issues)
    bands = dict(DEFAULT_BANDS)
    for key, val in bands_doc.items():
        bands[key] = tuple(val) if isinstance(val, (list, tuple)) else val
    plan = SweepPlan(
        base=base_cfg, epsilons=epsilons, bands=bands,
        **{key: float(doc[key]) for key in
           ("h_over_eps", "dt_over_eps2", "initial_h_over_eps") if key in doc})
    materialized_plan = {
        "base": materialized,
        "epsilons": epsilons,
        "h_over_eps": plan.h_over_eps,
        "dt_over_eps2": plan.dt_over_eps2,
        "initial_h_over_eps": plan.initial_h_over_eps,
        "mode": mode,
        "bands": {k: list(v) if isinstance(v, tuple) else v
                  for k, v in bands.items()},
    }
    return plan, materialized_plan


def build_identities(doc: dict):
    """(levels, min_order) of a check-identities run document."""
    sec = dict(doc.get("identities", {}))
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
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
