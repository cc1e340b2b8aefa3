import math

import numpy as np
import pytest

import phaselab as pl


def test_full_grid_geometry():
    g = pl.full_grid(2, 1.0, 100)
    assert g.h == pytest.approx(0.02)
    assert g.shape == (100, 100)
    assert g.ncomp == 2
    assert g.axis[0] == pytest.approx(-1.0 + 0.01)
    assert g.axis[-1] == pytest.approx(1.0 - 0.01)


def test_full_quadrature_volume():
    g = pl.full_grid(2, 1.5, 60)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(9.0)


def test_radial_quadrature_volume():
    for d, exact in ((2, math.pi), (3, 4.0 * math.pi / 3.0)):
        g = pl.radial_grid(d, 1.0, 401)
        vol = g.integrate(np.ones(g.shape))
        assert vol == pytest.approx(exact, rel=2e-5)


def test_radial_quadrature_polynomial():
    g = pl.radial_grid(2, 1.0, 801)
    r = g.axis
    # int r^2 over the unit disk = pi/2
    assert g.integrate(r ** 2) == pytest.approx(math.pi / 2.0, rel=1e-5)


def test_radial_laplacian_exact_on_quadratic():
    # exact everywhere the zero-flux mirror does not clash with the data,
    # including the symmetric axis limit
    for d in (2, 3):
        g = pl.radial_grid(d, 1.0, 101)
        lap = g.laplacian(g.axis ** 2)
        assert np.max(np.abs(lap[:-1] - 2.0 * d)) < 1e-10


def test_laplacian_of_constant_is_zero():
    for g in (pl.full_grid(1, 1.0, 64), pl.full_grid(2, 1.0, 32),
              pl.radial_grid(2, 1.0, 64)):
        u = np.full(g.shape, 0.7)
        assert np.max(np.abs(g.laplacian(u))) < 1e-12
        assert np.max(np.abs(g.gradient(u))) < 1e-12


def test_gradient_second_order_interior():
    errs = []
    for n in (64, 128):
        g = pl.full_grid(1, 1.0, n)
        u = np.sin(2.0 * g.axis)
        exact = 2.0 * np.cos(2.0 * g.axis)
        errs.append(np.max(np.abs(g.gradient(u)[0][5:-5] - exact[5:-5])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_laplacian_second_order_interior_2d():
    errs = []
    for n in (32, 64):
        g = pl.full_grid(2, 1.0, n)
        x = g.coords()
        u = np.sin(x[0]) * np.cos(x[1])
        exact = -2.0 * u
        err = np.abs(g.laplacian(u) - exact)[4:-4, 4:-4]
        errs.append(np.max(err))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_grid_rejects_nan_half_width():
    with pytest.raises(ValueError, match="half_width"):
        pl.full_grid(1, np.nan, 32)


def test_grid_validation():
    with pytest.raises(ValueError):
        pl.Grid(mode="weird", dim=1, half_width=1.0, npts=32)
    with pytest.raises(ValueError):
        pl.radial_grid(1, 1.0, 32)
    with pytest.raises(ValueError):
        pl.full_grid(3, 1.0, 32)
    with pytest.raises(ValueError):
        pl.full_grid(1, 1.0, 4)
