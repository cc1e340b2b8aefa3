import numpy as np
import pytest

import phaselab as pl
from phaselab.grids import FULL, npts_for_spacing


@pytest.fixture(scope="session")
def standard_potential():
    return pl.make_standard_potential()


@pytest.fixture(scope="session")
def profile(standard_potential):
    return pl.solve_profile(standard_potential)


def make_plane_config(pot, profile, eps=0.05, half_width=0.5, h_over_eps=8,
                      r_c=0.5, t_end=0.0, cadence=10, dim=1):
    traj = pl.PlaneInterface(normal=(1.0,) + (0.0,) * (dim - 1), offset=0.0,
                             t_max=10.0)
    grid = pl.full_grid(dim, half_width,
                        npts_for_spacing(FULL, half_width, eps / h_over_eps))
    return pl.SimulationConfig(
        epsilon=eps, potential=pot, profile=profile, trajectory=traj,
        cutoff=pl.CutoffSpec(r_c=r_c), grid=grid, dt=eps ** 2 / 20,
        t_end=t_end, cadence=cadence)


def make_circle_config(pot, profile, eps=0.08, radius0=1.0, half_width=None,
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
        epsilon=eps, potential=pot, profile=profile, trajectory=traj,
        cutoff=pl.CutoffSpec(r_c=r_c), grid=grid,
        dt=eps ** 2 / dt_over_eps2, t_end=t_end, cadence=cadence)
