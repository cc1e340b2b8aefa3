"""Time integration of the phase-field equation du/dt = lap u - W'(u)/eps^2
on full grids (d = 1, 2) and on the radial line (d >= 2), from profile
initial data u(x, 0) = theta(dist(x) / eps).

The default stepper is semi-implicit: the Laplacian is treated implicitly
(diagonalized by a cosine transform on full zero-flux grids, a banded solve
on the radial line), the reaction term explicitly.  The explicit stepper is
plain forward Euler with the same stencils.  Both steppers are first order
in dt and second order in h.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg import solve_banded

from . import diagnostics
from .geometry import (CutoffSpec, InterfaceTrajectory, PlaneInterface,
                       SphereInterface, signed_distance)
from .grids import FULL, Grid, RADIAL
from .potentials import PotentialSpec, ProfileTable, count_excursions

SEMI_IMPLICIT = "semi-implicit"
EXPLICIT = "explicit"

LAYER_RESOLUTION = 4.0      # transition layer needs h <= eps / 4
BOUNDARY_FLATNESS = 1e-6    # |u0| >= 1 - this on phase-side boundary cells
EXTINCTION_EPS_FACTOR = 4.0  # sphere must keep R(t_max) >= 4 eps


class BlowUpError(RuntimeError):
    """Raised when the field leaves [-2, 2] or stops being finite."""


class ConfigError(ValueError):
    """Invalid simulation configuration; carries every violated rule."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass
class SimulationConfig:
    epsilon: float
    potential: PotentialSpec
    profile: ProfileTable
    trajectory: InterfaceTrajectory
    cutoff: CutoffSpec
    grid: Grid
    scheme: str = SEMI_IMPLICIT
    dt: float = 0.0
    t_end: float = 0.0
    cadence: int = 10
    s0: Optional[float] = None
    compute_identity: bool = False

    def steps(self) -> int:
        if self.t_end <= 0.0:
            return 0
        return max(1, int(np.ceil(self.t_end / self.dt - 1e-9)))

    def dt_actual(self) -> float:
        """dt shrunk so an integer number of steps lands exactly on t_end."""
        n = self.steps()
        return self.t_end / n if n else self.dt


def validate(cfg: SimulationConfig) -> list:
    """Collect every violated invariant; empty means the config is runnable."""
    issues = []
    eps, grid = cfg.epsilon, cfg.grid
    if not eps > 0.0:   # NaN fails every comparison, so test what must hold
        issues.append("epsilon: must be positive")
        return issues
    if cfg.scheme not in (SEMI_IMPLICIT, EXPLICIT):
        issues.append(f"stepper.scheme: unknown scheme {cfg.scheme!r}")
    if cfg.cadence < 1:
        issues.append("diagnostics.cadence: must be >= 1")
    if not cfg.dt > 0.0:
        issues.append("stepper.dt: must be positive")

    h = grid.h
    if h > eps / LAYER_RESOLUTION + 1e-12:
        issues.append(
            f"grid.npts: layer resolution requires h <= eps/{LAYER_RESOLUTION:g} "
            f"(h = {h:.6g}, eps = {eps:.6g})")

    dt_stiff = eps ** 2 / (2.0 * cfg.potential.max_ddw)
    if cfg.dt > dt_stiff + 1e-15:
        issues.append(
            f"stepper.dt: reaction stability requires dt <= eps^2/(2 max W'') "
            f"= {dt_stiff:.3e} (dt = {cfg.dt:.3e})")
    if cfg.scheme == EXPLICIT:
        dt_cfl = h ** 2 / (2.0 * grid.dim)
        if cfg.dt > dt_cfl + 1e-15:
            issues.append(
                f"stepper.dt: explicit diffusion CFL requires dt <= h^2/(2d) "
                f"= {dt_cfl:.3e} (dt = {cfg.dt:.3e})")

    traj = cfg.trajectory
    if not cfg.t_end <= traj.t_max + 1e-12:
        issues.append(f"stepper.t_end: exceeds trajectory t_max = {traj.t_max}")

    if isinstance(traj, SphereInterface):
        min_r = traj.min_radius()
        if cfg.cutoff.r_c >= min_r:
            issues.append(
                f"cutoff.r_c: must stay below the minimal sphere radius "
                f"{min_r:.6g} (r_c = {cfg.cutoff.r_c:.6g})")
        guard = max(2.0 * cfg.cutoff.r_c, EXTINCTION_EPS_FACTOR * eps)
        if min_r < guard - 1e-12:
            issues.append(
                f"trajectory.t_max: extinction guard requires R(t_max) >= "
                f"max(2 r_c, {EXTINCTION_EPS_FACTOR:g} eps) = {guard:.6g} "
                f"(R(t_max) = {min_r:.6g})")
        if traj.dim != grid.dim:
            issues.append("trajectory.dim: must match grid dim")

    if grid.mode == RADIAL:
        if not isinstance(traj, SphereInterface):
            issues.append("grid.mode: radial mode requires a sphere trajectory")
        elif np.linalg.norm(traj.center) > 1e-12:
            issues.append("grid.mode: radial mode requires the sphere "
                          "centered at the origin")
    elif isinstance(traj, PlaneInterface) and traj.dim != grid.dim:
        issues.append("trajectory.normal: length must match grid dim")

    if not issues:
        msg = _boundary_flatness_issue(cfg)
        if msg:
            issues.append(msg)
    return issues


def _boundary_flatness_issue(cfg) -> Optional[str]:
    """Initial data must sit in the exponentially flat region on boundary
    cells facing the phase direction (faces parallel to a plane are exempt:
    the interface legitimately crosses them)."""
    u0 = initial_data(cfg)
    grid = cfg.grid
    if grid.mode == RADIAL:
        worst = abs(float(u0[-1]))
    else:
        worst = 1.0
        normal = None
        if isinstance(cfg.trajectory, PlaneInterface):
            normal = np.asarray(cfg.trajectory.normal)
        for ax in range(grid.dim):
            if normal is not None and abs(normal[ax]) < 1e-9:
                continue
            for side in (0, -1):
                face = np.take(u0, side, axis=ax)
                worst = min(worst, float(np.min(np.abs(face))))
    if worst < 1.0 - BOUNDARY_FLATNESS:
        return (f"grid.half_width: initial profile not flat at the boundary "
                f"(min |u0| = {worst:.8f}, need >= {1.0 - BOUNDARY_FLATNESS})")
    return None


def initial_data(cfg: SimulationConfig) -> np.ndarray:
    """Profile initial data u = theta(dist / eps), values in [-1, 1].

    cfg is not validated here; callers run validate first.
    """
    grid = cfg.grid
    if grid.mode == RADIAL:
        dist = cfg.trajectory.radius(0.0) - grid.axis
    else:
        pts = np.moveaxis(grid.coords(), 0, -1)
        dist = signed_distance(cfg.trajectory, pts, 0.0)
    return np.asarray(cfg.profile(dist / cfg.epsilon), dtype=float)


def make_stepper(cfg: SimulationConfig) -> Callable:
    """Build the one-step map u -> u_next for the configured scheme."""
    eps2 = cfg.epsilon ** 2
    dt = cfg.dt_actual()
    dw = cfg.potential.dw
    grid = cfg.grid

    if cfg.scheme == EXPLICIT:
        def step(u):
            return u + dt * (grid.laplacian(u) - dw(u) / eps2)
        return step

    if grid.mode == FULL:
        n, h = grid.npts, grid.h
        lam = (4.0 / h ** 2) * np.sin(np.pi * np.arange(n) / (2.0 * n)) ** 2
        if grid.dim == 1:
            denom = 1.0 + dt * lam
        else:
            denom = 1.0 + dt * (lam[:, None] + lam[None, :])

        def step(u):
            rhs = u - (dt / eps2) * dw(u)
            coef = dctn(rhs, type=2, norm="ortho")
            return idctn(coef / denom, type=2, norm="ortho")
        return step

    # radial semi-implicit: tridiagonal (I - dt L) with the axis limit
    n, h, d = grid.npts, grid.h, grid.dim
    r = grid.axis
    h2 = h ** 2
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    diag[0] = 1.0 + dt * 2.0 * d / h2
    upper[1] = -dt * 2.0 * d / h2
    ri = r[1:-1]
    lower[:-2] = -dt * (1.0 / h2 - (d - 1) / (2.0 * h * ri))
    diag[1:-1] = 1.0 + dt * 2.0 / h2
    upper[2:] = -dt * (1.0 / h2 + (d - 1) / (2.0 * h * ri))
    diag[-1] = 1.0 + dt * 2.0 / h2
    lower[-2] = -dt * 2.0 / h2
    ab = np.vstack([upper, diag, lower])

    def step(u):
        rhs = u - (dt / eps2) * dw(u)
        return solve_banded((1, 1), ab, rhs)
    return step


@dataclass
class RunResult:
    times: np.ndarray
    breakdowns: list
    dt: float
    n_steps: int
    clamp_count: int
    snapshots: list = field(default_factory=list)   # (t, field) pairs
    final_field: Optional[np.ndarray] = None
    wall_s: float = 0.0


def run(cfg: SimulationConfig, keep_snapshots: bool = False,
        _skip_validation: bool = False) -> RunResult:
    """Advance from profile initial data to t_end, recording diagnostics at
    the configured cadence (the initial and final states are always rows).

    Aborts with BlowUpError when max |u| exceeds 2 or is not finite.  The clamp counter
    totals grid values found outside [-1, 1] across all steps.
    """
    if not _skip_validation:
        issues = validate(cfg)
        if issues:
            raise ConfigError(issues)

    start = time.perf_counter()
    dt = cfg.dt_actual()
    n_steps = cfg.steps()

    def measure(u, t):
        return diagnostics.relative_entropy(
            u, cfg.epsilon, cfg.potential, cfg.trajectory, cfg.cutoff,
            cfg.grid, t, s0=cfg.s0, with_identity=cfg.compute_identity)

    u = initial_data(cfg)
    rows = [measure(u, 0.0)]
    snapshots = [(0.0, u.copy())] if keep_snapshots else []
    step = make_stepper(cfg)
    clamps = 0

    for k in range(1, n_steps + 1):
        u = step(u)
        m = float(np.max(np.abs(u)))
        if not m <= 2.0:   # NaN compares false, so it is caught here too
            raise BlowUpError(
                f"max |u| = {m:.3f} at step {k} (t = {k * dt:.6g}): the "
                f"field left [-2, 2] or is not finite")
        clamps += count_excursions(u)
        if k % cfg.cadence == 0 or k == n_steps:
            t = k * dt
            rows.append(measure(u, t))
            if keep_snapshots:
                snapshots.append((t, u.copy()))

    if cfg.compute_identity:
        diagnostics.fill_identity_residuals(rows)

    return RunResult(times=np.array([b.t for b in rows]), breakdowns=rows,
                     dt=dt, n_steps=n_steps, clamp_count=clamps,
                     snapshots=snapshots, final_field=u,
                     wall_s=time.perf_counter() - start)
