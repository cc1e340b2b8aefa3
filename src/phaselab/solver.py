"""Time integration of the phase-field equation du/dt = lap u - W'(u)/eps^2
on full grids (d = 1, 2) and on the radial line (d >= 2), from profile
initial data u(x, 0) = theta(dist(x) / eps).

The one stepper is semi-implicit: the Laplacian is treated implicitly
(diagonalized by a cosine transform on full zero-flux grids, a tridiagonal
solve on the radial line), the reaction term explicitly.  The radial
operator I - dt L is LU-factored once per run (LAPACK dgttrf); each step
then costs one dgttrs solve.  The stepper is first order in dt and second
order in h; its one step-size rule is the reaction limit
dt <= eps^2/(2 max W''), whatever h.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg.lapack import dgttrf, dgttrs

from . import diagnostics
from .geometry import (CutoffSpec, InterfaceTrajectory, PlaneInterface,
                       SphereInterface, signed_distance)
from .grids import FULL, Grid, RADIAL
from .potentials import PotentialSpec, ProfileTable, count_excursions

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
    if cfg.cadence < 1:
        issues.append("diagnostics.cadence: must be >= 1")
    if not cfg.t_end >= 0.0:
        issues.append("stepper.t_end: must be >= 0")

    h = grid.h
    if h > eps / LAYER_RESOLUTION + 1e-12:
        issues.append(
            f"grid.npts: layer resolution requires h <= eps/{LAYER_RESOLUTION:g} "
            f"(h = {h:.6g}, eps = {eps:.6g})")

    if cfg.t_end > 0.0:   # dt is read only by a run that steps
        dt_stiff = eps ** 2 / (2.0 * cfg.potential.max_ddw)
        if not cfg.dt > 0.0:
            issues.append("stepper.dt: must be positive")
        elif cfg.dt > dt_stiff + 1e-15:
            issues.append(
                f"stepper.dt: reaction stability requires dt <= "
                f"eps^2/(2 max W'') = {dt_stiff:.3e} (dt = {cfg.dt:.3e})")

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
    the interface legitimately crosses them).  Only those cells are
    evaluated; the run builds the whole field once."""
    grid = cfg.grid
    pts = np.moveaxis(grid.coords(), 0, -1)
    if grid.mode == RADIAL:
        faces = [pts[-1:]]
    else:
        normal = None
        if isinstance(cfg.trajectory, PlaneInterface):
            normal = np.asarray(cfg.trajectory.normal)
        faces = [np.take(pts, side, axis=ax) for ax in range(grid.dim)
                 if normal is None or abs(normal[ax]) >= 1e-9
                 for side in (0, -1)]
    worst = min(float(np.min(np.abs(_profile_at(cfg, face))))
                for face in faces)
    if worst < 1.0 - BOUNDARY_FLATNESS:
        return (f"grid.half_width: initial profile not flat at the boundary "
                f"(min |u0| = {worst:.8f}, need >= {1.0 - BOUNDARY_FLATNESS})")
    return None


def _profile_at(cfg: SimulationConfig, pts) -> np.ndarray:
    """theta(dist / eps) at t = 0 on points with the coordinate axis last
    (the radius alone on the radial line)."""
    if cfg.grid.mode == RADIAL:
        dist = cfg.trajectory.radius(0.0) - pts[..., 0]
    else:
        dist = signed_distance(cfg.trajectory, pts, 0.0)
    return np.asarray(cfg.profile(dist / cfg.epsilon), dtype=float)


def initial_data(cfg: SimulationConfig) -> np.ndarray:
    """Profile initial data u = theta(dist / eps), values in [-1, 1].

    cfg is not validated here; callers run validate first.
    """
    return _profile_at(cfg, np.moveaxis(cfg.grid.coords(), 0, -1))


def make_stepper(cfg: SimulationConfig) -> Callable:
    """Build the one-step map u -> u_next of the semi-implicit scheme."""
    eps2 = cfg.epsilon ** 2
    dt = cfg.dt_actual()
    dw = cfg.potential.dw
    grid = cfg.grid

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

    # radial semi-implicit: factor (I - dt L) once, then each step is one
    # pair of triangular solves
    *lu, info = dgttrf(*_radial_diagonals(grid, dt))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular radial operator: dgttrf info = {info}")

    def step(u):
        rhs = u - (dt / eps2) * dw(u)
        return dgttrs(*lu, rhs, overwrite_b=True)[0]
    return step


def _radial_diagonals(grid: Grid, dt: float) -> tuple:
    """(lower, diag, upper) of the tridiagonal I - dt L on the radial line,
    L the stencil of Grid.laplacian with its axis limit: lower[i] and
    upper[i] are the entries (i + 1, i) and (i, i + 1)."""
    n, h, d = grid.npts, grid.h, grid.dim
    ri = grid.axis[1:-1]
    h2 = h ** 2
    lower = np.empty(n - 1)
    diag = np.full(n, 1.0 + dt * 2.0 / h2)
    upper = np.empty(n - 1)
    diag[0] = 1.0 + dt * 2.0 * d / h2
    upper[0] = -dt * 2.0 * d / h2
    lower[:-1] = -dt * (1.0 / h2 - (d - 1) / (2.0 * h * ri))
    upper[1:] = -dt * (1.0 / h2 + (d - 1) / (2.0 * h * ri))
    lower[-1] = -dt * 2.0 / h2
    return lower, diag, upper


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


def run(cfg: SimulationConfig, snapshot_every: Optional[int] = None,
        _skip_validation: bool = False) -> RunResult:
    """Advance from profile initial data to t_end, recording diagnostics at
    the configured cadence (the initial and final states are always rows)
    and, given snapshot_every = k, the field of every k-th row.

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
    snapshots = [(0.0, u.copy())] if snapshot_every else []
    step = make_stepper(cfg)
    clamps = 0

    for k in range(1, n_steps + 1):
        u = step(u)
        lo, hi = float(u.min()), float(u.max())
        if not (-2.0 <= lo and hi <= 2.0):   # NaN propagates to both
            raise BlowUpError(
                f"max |u| = {max(hi, -lo):.3f} at step {k} (t = "
                f"{k * dt:.6g}): the field left [-2, 2] or is not finite")
        clamps += count_excursions(u, bounds=(lo, hi))
        if k % cfg.cadence == 0 or k == n_steps:
            t = k * dt
            if snapshot_every and len(rows) % snapshot_every == 0:
                snapshots.append((t, u.copy()))
            rows.append(measure(u, t))

    if cfg.compute_identity:
        diagnostics.fill_identity_residuals(rows)

    return RunResult(times=np.array([b.t for b in rows]), breakdowns=rows,
                     dt=dt, n_steps=n_steps, clamp_count=clamps,
                     snapshots=snapshots, final_field=u,
                     wall_s=time.perf_counter() - start)
