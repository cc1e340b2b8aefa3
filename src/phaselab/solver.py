"""Time integration of the phase-field equation du/dt = lap u - W'(u)/eps^2
on full grids (d = 1, 2) and on the radial line (d >= 2), from profile
initial data u(x, 0) = theta(dist(x) / eps), where dist is the signed
distance geometry.interface_distance gives the diagnostics too.  validate
checks the run's rules and adds the trajectory's own (its issues, and the
faces its exempt_axes leave to the boundary-flatness rule, which reads the
same distance on the boundary cells); it names no trajectory type.

The one stepper is semi-implicit: the Laplacian is treated implicitly
(diagonalized by a cosine transform on full zero-flux grids, a tridiagonal
solve on the radial line), the reaction term explicitly.  The radial
operator I - dt L is factored once per run without pivoting: its axis rows
by scalar Thomas elimination, the rest, symmetrized by positive row
weights, as LDL^T (LAPACK dpttrf); each step then costs one dpttrs solve.
The stepper is first order in dt and second order in h; its one step-size
rule is the reaction limit dt <= eps^2/(2 max W''), whatever h.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diagnostics
from .geometry import CutoffSpec, InterfaceTrajectory, interface_distance
from .grids import FULL, Grid, RADIAL
from .potentials import PotentialSpec, ProfileTable, count_excursions

LAYER_RESOLUTION = 4.0      # transition layer needs h <= eps / 4
BOUNDARY_FLATNESS = 1e-6    # |u0| >= 1 - this on phase-side boundary cells


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

    issues += traj.issues(grid, cfg.cutoff.r_c, eps)

    if not issues:
        msg = _boundary_flatness_issue(cfg)
        if msg:
            issues.append(msg)
    return issues


def _boundary_flatness_issue(cfg) -> Optional[str]:
    """Initial data must sit in the exponentially flat region on boundary
    cells facing the phase direction (the faces of the trajectory's
    exempt_axes are skipped: the interface crosses them).  The profile is
    evaluated on those cells only; the run builds the whole field once."""
    grid = cfg.grid
    dist = interface_distance(cfg.trajectory, grid, 0.0)
    if grid.mode == RADIAL:
        faces = [dist[-1:]]
    else:
        exempt = cfg.trajectory.exempt_axes()
        faces = [np.take(dist, side, axis=ax) for ax in range(grid.dim)
                 if ax not in exempt for side in (0, -1)]
    worst = min(float(np.min(np.abs(cfg.profile(face / cfg.epsilon))))
                for face in faces)
    if worst < 1.0 - BOUNDARY_FLATNESS:
        return (f"grid.half_width: initial profile not flat at the boundary "
                f"(min |u0| = {worst:.8f}, need >= {1.0 - BOUNDARY_FLATNESS})")
    return None


def initial_data(cfg: SimulationConfig) -> np.ndarray:
    """Profile initial data u = theta(dist / eps), values in [-1, 1].

    cfg is not validated here; callers run validate first.
    """
    return cfg.profile(
        interface_distance(cfg.trajectory, cfg.grid, 0.0) / cfg.epsilon)


def make_stepper(cfg: SimulationConfig) -> Callable:
    """Build the one-step map u -> u_next of the semi-implicit scheme.

    Each grid kind imports the one scipy module it steps with, so a run
    loads scipy.fft or scipy.linalg, never both.
    """
    eps2 = cfg.epsilon ** 2
    dt = cfg.dt_actual()
    dw = cfg.potential.dw
    grid = cfg.grid

    if grid.mode == FULL:
        from scipy.fft import dctn, idctn

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

    # radial semi-implicit: I - dt L factored once, no pivoting
    from scipy.linalg.lapack import dpttrs

    head, d_fac, e_fac, w = _radial_factors(grid, dt)
    c = dt / eps2

    def step(u):
        b = u - c * dw(u)
        for i, (mult, _, _) in enumerate(head, 1):
            b[i] -= mult * b[i - 1]
        b *= w
        x = dpttrs(d_fac, e_fac, b, overwrite_b=True)[0]
        for i in range(len(head) - 1, -1, -1):
            _, pivot, upper = head[i]
            x[i] = (x[i] - upper * x[i + 1]) / pivot
        return x
    return step


def _radial_factors(grid: Grid, dt: float) -> tuple:
    """Factor the radial I - dt L = A once, without pivoting.

    Every coupling i with lower[i] * upper[i] > 0 is symmetrized by a
    positive row weight, w[i + 1] = w[i] upper[i] / lower[i]; W A is then
    symmetric positive definite, as it is congruent to the symmetric matrix
    similar to A.  The axis rows break this (lower[0] is 0 for d = 3 and
    positive for d = 4, and more leading couplings change sign for d >= 5),
    so the first m nodes, m = 1 + the last coupling with
    lower * upper <= 0 (node 0 always), are Thomas-eliminated into row m.

    Returns (head, d_fac, e_fac, w): head holds (multiplier of row i + 1,
    pivot of row i, upper[i]) for each axis node i < m as Python floats;
    (d_fac, e_fac) is dpttrf's LDL^T of W A with its first m rows replaced
    by identity rows and row m's diagonal by the last head pivot; w is 1 on
    nodes 0..m.  A step solves A x = b as: eliminate b[1..m], weight by w,
    one dpttrs, back-substitute x[m-1..0].  A non-positive pivot, a
    non-finite weight or a dpttrf failure raises LinAlgError.
    """
    from scipy.linalg.lapack import dpttrf

    lower, diag, upper = _radial_diagonals(grid, dt)
    unsymmetric = np.flatnonzero(lower * upper <= 0.0)
    m = int(unsymmetric[-1]) + 1 if unsymmetric.size else 1
    head, pivot = [], float(diag[0])
    for i in range(m):
        if not pivot > 0.0:
            raise np.linalg.LinAlgError(
                f"radial operator: non-positive axis pivot {pivot!r} at "
                f"node {i}")
        mult = float(lower[i]) / pivot
        head.append((mult, pivot, float(upper[i])))
        pivot = float(diag[i + 1]) - mult * float(upper[i])

    w = np.ones(grid.npts)
    with np.errstate(over="ignore"):   # w grows like r^(d-1); checked below
        w[m + 1:] = np.cumprod(upper[m:] / lower[m:])
    if not np.all(np.isfinite(w)):
        raise np.linalg.LinAlgError(
            "radial operator: symmetrizing weights are not finite")
    sym_diag = w * diag
    sym_diag[:m], sym_diag[m] = 1.0, pivot
    sym_off = w[:-1] * upper
    sym_off[:m] = 0.0
    d_fac, e_fac, info = dpttrf(sym_diag, sym_off)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"radial operator not positive definite after symmetrizing: "
            f"dpttrf info = {info}")
    return head, d_fac, e_fac, w


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
    rows_s: float = 0.0   # wall time inside the diagnostic rows
    step_s: float = 0.0   # wall time in the step loop outside the rows
    max_abs_u: float = 0.0   # over the initial and every stepped field


def run(cfg: SimulationConfig, snapshot_every: Optional[int] = None,
        _skip_validation: bool = False) -> RunResult:
    """Advance from profile initial data to t_end, recording diagnostics at
    the configured cadence (the initial and final states are always rows)
    and, given snapshot_every = k, the field of every k-th row.

    Aborts with BlowUpError when max |u| exceeds 2 or is not finite.  The
    clamp counter totals grid values found outside [-1, 1] across all steps;
    max_abs_u is read off the same per-step min/max as the guard.
    """
    if not _skip_validation:
        issues = validate(cfg)
        if issues:
            raise ConfigError(issues)

    start = time.perf_counter()
    dt = cfg.dt_actual()
    n_steps = cfg.steps()
    rows_s = 0.0

    def measure(u, t):
        nonlocal rows_s
        row_start = time.perf_counter()
        row = diagnostics.relative_entropy(
            u, cfg.epsilon, cfg.potential, cfg.trajectory, cfg.cutoff,
            cfg.grid, t, s0=cfg.s0, with_identity=cfg.compute_identity)
        rows_s += time.perf_counter() - row_start
        return row

    u = initial_data(cfg)
    rows = [measure(u, 0.0)]
    snapshots = [(0.0, u.copy())] if snapshot_every else []
    step = make_stepper(cfg)
    clamps = 0
    max_abs_u = float(np.max(np.abs(u)))
    loop_start, rows_before = time.perf_counter(), rows_s

    for k in range(1, n_steps + 1):
        u = step(u)
        lo, hi = float(u.min()), float(u.max())
        if not (-2.0 <= lo and hi <= 2.0):   # NaN propagates to both
            raise BlowUpError(
                f"max |u| = {max(hi, -lo):.3f} at step {k} (t = "
                f"{k * dt:.6g}): the field left [-2, 2] or is not finite")
        max_abs_u = max(max_abs_u, hi, -lo)
        clamps += count_excursions(u, bounds=(lo, hi))
        if k % cfg.cadence == 0 or k == n_steps:
            t = k * dt
            if snapshot_every and len(rows) % snapshot_every == 0:
                snapshots.append((t, u.copy()))
            rows.append(measure(u, t))
    step_s = time.perf_counter() - loop_start - (rows_s - rows_before)

    if cfg.compute_identity:
        diagnostics.fill_identity_residuals(rows)

    return RunResult(times=np.array([b.t for b in rows]), breakdowns=rows,
                     dt=dt, n_steps=n_steps, clamp_count=clamps,
                     snapshots=snapshots, final_field=u,
                     wall_s=time.perf_counter() - start, rows_s=rows_s,
                     step_s=step_s, max_abs_u=max_abs_u)
