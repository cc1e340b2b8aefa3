"""Time integration of the phase-field equation du/dt = lap u - W'(u)/eps^2
on full grids (d = 1, 2) and on the radial line (d >= 2), from profile
initial data u(x, 0) = theta(dist(x) / eps), where dist is the signed
distance geometry.interface_distance gives the diagnostics too.  validate
checks the run's rules and adds the trajectory's own (its issues, and the
faces its exempt_axes leave to the boundary-flatness rule, which reads the
same distance on the boundary cells); it names no trajectory type.

The one stepper is semi-implicit: the reaction term explicit, the Laplacian
implicit by the grid's own solve of I - dt L (see grids).  Each step solves
only the band of nodes the grid's band solver holds, the whole grid on full
grids and the nodes off the wells with a halo on the radial line; the
others keep their values, and between rows a run carries the band's values
alone.  It is first order in dt and second order in h; its one step-size
rule is the reaction limit dt <= eps^2/(2 max W''), whatever h.  A run
records the widest band it placed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diagnostics
from .geometry import CutoffSpec, InterfaceTrajectory, interface_distance
from .grids import Grid
from .potentials import DW_COEF, MAX_DDW, ProfileTable, count_excursions

LAYER_RESOLUTION = 4.0      # transition layer needs h <= eps / 4
BOUNDARY_FLATNESS = 1e-6    # |u0| >= 1 - this on phase-side boundary cells
BLOCK_BYTES = 256 * 1024    # fields one block of steps holds (one at least)


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
    profile: ProfileTable
    trajectory: InterfaceTrajectory
    cutoff: CutoffSpec
    grid: Grid
    dt: float = 0.0
    t_end: float = 0.0
    cadence: int = 10
    compute_identity: bool = False

    def steps(self) -> int:
        if self.t_end <= 0.0:
            return 0
        return max(1, int(np.ceil(self.t_end / self.dt - 1e-9)))

    def dt_actual(self) -> float:
        """dt shrunk so an integer number of steps lands exactly on t_end."""
        n = self.steps()
        return self.t_end / n if n else self.dt

    def row_steps(self) -> list:
        """The steps of run's rows: 0, every cadence-th and the last."""
        return [*range(0, self.steps(), self.cadence), self.steps()]

    def row_times(self) -> list:
        """The times of run's rows, those of row_steps."""
        dt = self.dt_actual()
        return [k * dt for k in self.row_steps()]


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
            f"grid.h_over_eps: layer resolution requires h <= "
            f"eps/{LAYER_RESOLUTION:g} (h = {h:.6g}, eps = {eps:.6g})")

    if cfg.t_end > 0.0:   # dt is read only by a run that steps
        dt_stiff = eps ** 2 / (2.0 * MAX_DDW)
        if not cfg.dt > 0.0:
            issues.append("stepper.dt_over_eps2: dt must be positive")
        elif cfg.dt > dt_stiff + 1e-15:
            issues.append(
                f"stepper.dt_over_eps2: reaction stability requires dt <= "
                f"eps^2/(2 max W'') = {dt_stiff:.3e} (dt = {cfg.dt:.3e})")
        elif not cfg.t_end / cfg.dt <= sys.maxsize:   # inf and NaN too
            issues.append(
                f"stepper.dt_over_eps2: t_end / dt = {cfg.t_end / cfg.dt:.3e} "
                f"steps, more than {sys.maxsize}")

    traj = cfg.trajectory
    if not cfg.t_end <= traj.t_max + 1e-12:
        issues.append(f"stepper.t_end: exceeds trajectory t_max = {traj.t_max}")

    issues += traj.issues(grid, cfg.cutoff.r_c, eps)
    if issues:
        return issues

    # initial data must sit in the exponentially flat region on boundary
    # cells facing the phase direction (the faces of the trajectory's
    # exempt_axes are skipped: the interface crosses them); the profile is
    # evaluated on those cells only, the run builds the whole field once
    dist = interface_distance(traj, grid, 0.0)
    worst = min(float(np.min(np.abs(cfg.profile(face / eps))))
                for face in grid.boundary_faces(dist, traj.exempt_axes()))
    if worst < 1.0 - BOUNDARY_FLATNESS:
        issues.append(
            f"grid.half_width: initial profile not flat at the boundary "
            f"(min |u0| = {worst:.8f}, need >= {1.0 - BOUNDARY_FLATNESS})")
    return issues


def initial_data(cfg: SimulationConfig) -> np.ndarray:
    """Profile initial data u = theta(dist / eps), values in [-1, 1].

    cfg is not validated here; callers run validate first.
    """
    s = interface_distance(cfg.trajectory, cfg.grid, 0.0)
    return cfg.profile(np.divide(s, cfg.epsilon, out=s))   # dist / eps


def make_stepper(cfg: SimulationConfig) -> Callable:
    """One step step(v, out, band): v holds the field on band.rows, band a
    Grid.band_solver(dt) placed on the field; writes the field one step
    later on those rows into out and returns out, v unchanged.  The
    reaction right side weight * (v + c W'(v)), c = -dt/eps^2, is the cubic
    ((top v) v + lin) v, top = weight a c and lin = weight (1 - a c) with a
    = DW_COEF, built in out by out= ufuncs, and band.solve runs in place on
    it, so a step allocates no field.  top and lin are formed from the
    band's rows of weight at each new band, a few per run (2 to 5 per
    member of the shipped circle sweep).  out must be a contiguous float64
    array of v's shape that does not overlap v.  The nodes off band.rows
    keep their values."""
    c = -cfg.dt_actual() / cfg.epsilon ** 2
    rows = top = lin = None

    def step(v, out, band):
        nonlocal rows, top, lin
        if band.rows is not rows:   # a new band: its rows' coefficients
            rows, weight = band.rows, band.weight
            if isinstance(weight, np.ndarray):   # 1.0 on full grids
                weight = weight[rows]
            top, lin = weight * (c * DW_COEF), weight * (c * -DW_COEF + 1.0)
        np.multiply(top, v, out=out)
        np.multiply(out, v, out=out)
        np.add(out, lin, out=out)
        np.multiply(out, v, out=out)
        return band.solve(out)
    return step


@dataclass
class RunResult:
    rows: np.ndarray   # one diagnostics.ROW_DTYPE row per row step
    dt: float
    n_steps: int
    clamp_count: int
    final_field: Optional[np.ndarray] = None
    wall_s: float = 0.0
    rows_s: float = 0.0   # wall time inside the diagnostic rows
    step_s: float = 0.0   # in the step loop outside the rows, sink included
    setup_s: float = 0.0  # validation, initial data, band, stepper; no rows
    identity_s: float = 0.0   # in fill_identity_residuals
    max_abs_u: float = 0.0   # over the initial and every stepped field
    band_nodes_max: int = 0   # the most nodes a step solved


def run(cfg: SimulationConfig,
        sink: Optional[Callable[[int, float, np.ndarray], None]] = None
        ) -> RunResult:
    """Advance from profile initial data to t_end, recording diagnostics
    after the steps of cfg.row_steps(): 0, every cadence-th and the last.
    The rows go into one float64 table (diagnostics.row_table), preallocated
    with a row per row step; each row's relative_entropy is copied into it
    as soon as it is measured, so a row costs its table row only.

    Given a sink, each row also calls sink(row, t, u) once the row is
    reached: row counts the rows from 0, and u is the field at time t.  u
    may be a view into a step buffer that later steps overwrite, or the
    run's whole field, whose band later rows overwrite, so a sink that keeps
    it must copy it; the run itself keeps no field of a row but
    final_field.  A sink writing u to disk as it comes gives a run whose
    memory does not grow with the rows it keeps.  The sink calls run in
    the step loop, after make_stepper, so they count in step_s.

    Between rows the run carries only the band of Grid.band_solver: the
    steps write the band's values, the nodes outside it staying frozen, and
    the whole field is written from them only at rows, when the band is
    placed anew and at the end.  Steps run in blocks that end at every row
    and at every new band and hold at most BLOCK_BYTES of band values (one
    step at least), written into two buffers in turn, so a block's first
    step never reads the row it writes.  When the band is the whole grid, a
    row reads the field in place in one buffer and the other is dropped
    until the next block, so the row's own fields can reuse its memory.
    After each block two reductions give its min and max.  A block whose
    max |u| exceeds 2 or is not finite aborts with BlowUpError naming its
    first such step, as a check of the whole field after every step would:
    the frozen nodes lie within WELL_ROUNDOFF of +-1, so they can neither
    trip the guard nor count a clamp.  The steps between two rows run with
    numpy's overflow and invalid warnings off, as a field that blows up
    mid-block is only caught at the block's end; rows and sink calls run
    outside that, on fields that passed the guard.  The clamp counter
    totals grid values found outside [-1, 1] across all steps; max_abs_u,
    the largest |u| of the initial and every stepped field, is read off
    the initial field and the guard's min and max, which see every value
    the whole field takes.  band_nodes_max is the widest band placed, the
    most nodes a step solved.
    """
    start = time.perf_counter()
    issues = validate(cfg)
    if issues:
        raise ConfigError(issues)

    dt, n_steps = cfg.dt_actual(), cfg.steps()
    row_steps = cfg.row_steps()
    rows = diagnostics.row_table(len(row_steps))
    rows_s = 0.0

    def measure(row, u, t):
        nonlocal rows_s
        row_start = time.perf_counter()
        rows[row] = diagnostics.relative_entropy(
            u, cfg.epsilon, cfg.trajectory, cfg.cutoff, cfg.grid, t,
            with_identity=cfg.compute_identity)
        rows_s += time.perf_counter() - row_start

    u = initial_data(cfg)
    measure(0, u, 0.0)
    band = cfg.grid.band_solver(dt)
    step = make_stepper(cfg)
    clamps = 0
    max_abs_u = float(np.max(np.abs(u)))
    # two flat buffers, each the most values a block of band rows holds,
    # kept for the run.  Peak RSS, six runs each pinned to one CPU: fresh
    # arrays per block read 40.86-40.91 MB on the 280^2 identity workload
    # against 40.75-40.86 MB (+0.1 MB); a pair per row read 35.26-35.39 MB
    # on the eps = 0.02 circle member against 34.78-34.98 MB (+0.45 MB)
    size = min(max(BLOCK_BYTES // u.itemsize, u.size),
               max(1, min(cfg.cadence, n_steps)) * u.size)
    buffers = [np.empty(size) for _ in range(2)]
    loop_start, rows_before = time.perf_counter(), rows_s
    if sink is not None:
        sink(0, 0.0, u)

    # u is the whole field, its band's rows written from v at rows, at new
    # bands and at the end
    v, moved = u[band.place(u)], False
    band_nodes_max, k = v.size, 0
    for row, row_k in enumerate(row_steps[1:], start=1):
        if buffers[0] is None:   # dropped for a full-grid row
            buffers[0] = np.empty(size)
        with np.errstate(over="ignore", invalid="ignore"):
            while k < row_k:
                if moved:   # the band placed anew on the whole field
                    u[band.rows] = v
                    v, moved = u[band.place(u)], False
                    band_nodes_max = max(band_nodes_max, v.size)
                steps = max(1, min(BLOCK_BYTES // max(v.nbytes, 1), row_k - k))
                block = buffers[0][:steps * v.size].reshape((steps,) + v.shape)
                buffers.reverse()
                for i, out in enumerate(block):
                    v = step(v, out, band)
                    if band.moved(v):
                        block, moved = block[:i + 1], True
                        break
                # axis=None: a ufunc's reduce defaults to axis 0; initial:
                # an empty band reduces to no bound
                lo = float(np.minimum.reduce(block, axis=None,
                                             initial=np.inf))
                hi = float(np.maximum.reduce(block, axis=None,
                                             initial=-np.inf))
                if not (-2.0 <= lo and hi <= 2.0):   # NaN propagates to both
                    raise _blowup(block, k, dt)
                k += len(block)
                max_abs_u = max(max_abs_u, hi, -lo)
                clamps += count_excursions(block, bounds=(lo, hi))
        t = row_k * dt
        if v.shape == u.shape:   # a band over the whole grid, never moved
            # u is then a view into buffers[1]; the idle buffers[0] is
            # dropped so that the row's own fields can take its memory
            # (writing v back into u instead holds one more field through
            # the row: 41.86-41.98 MB peak RSS on the 280^2 identity
            # workload against 40.75-40.86 MB)
            u, buffers[0] = v, None
        else:
            u[band.rows] = v
        measure(row, u, t)
        if sink is not None:
            sink(row, t, u)
    loop_end = time.perf_counter()
    step_s = loop_end - loop_start - (rows_s - rows_before)

    if cfg.compute_identity:
        diagnostics.fill_identity_residuals(rows)
    end = time.perf_counter()

    return RunResult(rows=rows, dt=dt, n_steps=n_steps, clamp_count=clamps,
                     final_field=u.copy(),
                     wall_s=end - start, rows_s=rows_s, step_s=step_s,
                     setup_s=loop_start - start - rows_before,
                     identity_s=end - loop_end, max_abs_u=max_abs_u,
                     band_nodes_max=band_nodes_max)


def _blowup(block: np.ndarray, k: int, dt: float) -> BlowUpError:
    """The error for the first of block's steps k + 1, k + 2, ... whose
    field leaves [-2, 2] or is not finite, read off each step's min and
    max."""
    flat = block.reshape(len(block), -1)
    los = np.minimum.reduce(flat, axis=1)
    his = np.maximum.reduce(flat, axis=1)
    i = next(i for i in range(len(block))
             if not (-2.0 <= los[i] and his[i] <= 2.0))
    lo, hi, k = float(los[i]), float(his[i]), k + i + 1
    return BlowUpError(
        f"max |u| = {max(hi, -lo):.3f} at step {k} (t = {k * dt:.6g}): "
        f"the field left [-2, 2] or is not finite")
