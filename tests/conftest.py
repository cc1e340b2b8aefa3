import numpy as np
import pytest

import phaselab as pl
from phaselab.grids import FULL, npts_for_spacing


@pytest.fixture(scope="session")
def profile():
    return pl.solve_profile()


def make_plane_config(profile, eps=0.05, half_width=0.5, h_over_eps=8,
                      r_c=0.5, t_end=0.0, cadence=10, dim=1):
    traj = pl.PlaneInterface(normal=(1.0,) + (0.0,) * (dim - 1), offset=0.0)
    grid = pl.full_grid(dim, half_width,
                        npts_for_spacing(FULL, half_width, eps / h_over_eps))
    return pl.SimulationConfig(
        epsilon=eps, profile=profile, trajectory=traj,
        cutoff=pl.CutoffSpec(r_c=r_c), grid=grid, dt=eps ** 2 / 20,
        t_end=t_end, cadence=cadence)


def make_circle_config(profile, eps=0.08, radius0=1.0, half_width=None,
                       h_over_eps=8, t_max=0.22, t_end=0.0, cadence=10,
                       mode="radial", r_c=None, dt_over_eps2=20, dim=2):
    traj = pl.SphereInterface(center=(0.0,) * dim, radius0=radius0, dim=dim,
                              t_max=t_max)
    if r_c is None:
        r_c = 0.45 * traj.min_radius()
    if half_width is None:
        half_width = radius0 + 0.8
    npts = npts_for_spacing(mode, half_width, eps / h_over_eps)
    grid = pl.Grid(mode=mode, dim=dim, half_width=half_width, npts=npts)
    return pl.SimulationConfig(
        epsilon=eps, profile=profile, trajectory=traj,
        cutoff=pl.CutoffSpec(r_c=r_c), grid=grid,
        dt=eps ** 2 / dt_over_eps2, t_end=t_end, cadence=cadence)


def whole_coords(grid):
    """The coordinates of every cell stacked on a leading axis, shape
    (ncomp,) + grid.shape, built from grid.axis."""
    if grid.mode == FULL:
        return np.stack(np.meshgrid(*[grid.axis] * grid.dim, indexing="ij"))
    return grid.axis[np.newaxis, :]


def stepped(cfg, u, steps=1):
    """The whole field steps steps after the whole field u, stepped as
    solver.run steps between rows: the band of cfg.grid.band_solver placed
    on u, the band's values written into two buffers in turn by
    pl.make_stepper(cfg), the band placed anew on the whole field whenever
    it moves.  u is left as it is."""
    band = cfg.grid.band_solver(cfg.dt_actual())
    step = pl.make_stepper(cfg)
    line = u.copy()
    v = line[band.place(line)]
    buffers = [np.empty(u.size), np.empty(u.size)]
    for k in range(steps):
        if band.moved(v):
            line[band.rows] = v
            v = line[band.place(line)]
        v = step(v, buffers[k % 2][:v.size].reshape(v.shape), band)
    line[band.rows] = v
    return line


def whole_solver(grid, dt):
    """(weight, solve): solve(weight * b) = (I - dt L)^-1 b on every node,
    written with copies, the oracle of the band solves: scipy.fft's dctn
    and idctn on full grids; on the radial line the axis steps of
    _radial_system around scipy.linalg.lapack's dpttrs of _ldl's factors
    of the whole symmetrized operator."""
    if grid.mode == FULL:
        from scipy.fft import dctn, idctn
        n, h = grid.npts, grid.h
        lam = (4.0 / h ** 2) * np.sin(np.pi * np.arange(n) / (2.0 * n)) ** 2
        denom = 1.0 + dt * (lam if grid.dim == 1
                            else lam[:, None] + lam[None, :])
        return 1.0, lambda b: idctn(dctn(b, type=2, norm="ortho") / denom,
                                    type=2, norm="ortho")
    from scipy.linalg.lapack import dpttrs
    from phaselab.grids import _ldl, _radial_system
    head, sym_diag, sym_off, w = _radial_system(grid, dt)
    d_fac, e_fac = _ldl(sym_diag, sym_off)

    def solve(b):
        b = b.copy()
        for i, (mult, _, _) in enumerate(head, 1):
            b[i] -= mult * b[i - 1]
        x = dpttrs(d_fac, e_fac, b)[0]
        for i in range(len(head) - 1, -1, -1):
            _, pivot, upper = head[i]
            x[i] = (x[i] - upper * x[i + 1]) / pivot
        return x
    return w, solve
