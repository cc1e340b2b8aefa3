import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import phaselab as pl
from phaselab.grids import MAX_RADIAL_DIM, _kernel

from conftest import whole_coords, whole_solver

SRC = Path(__file__).resolve().parent.parent / "src"


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
        x = whole_coords(g)
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
    # a point count derived from a bad half-width is not what is named
    with pytest.raises(ValueError, match="half_width must be positive"):
        pl.full_grid(1, -1.0, -16)


def test_max_radial_dim_is_the_last_finite_sphere_area():
    # the radial cell volumes carry 2 pi^(d/2) / gamma(d/2)
    assert math.isfinite(math.gamma(MAX_RADIAL_DIM / 2.0))
    with pytest.raises(OverflowError):
        math.gamma((MAX_RADIAL_DIM + 1) / 2.0)
    top = pl.radial_grid(MAX_RADIAL_DIM, 1.4, 64)
    assert np.all(np.isfinite(top.quad_weights))
    with pytest.raises(ValueError, match="radial mode needs 2 <= dim <= 343"):
        pl.radial_grid(MAX_RADIAL_DIM + 1, 1.4, 64)


def _padded_neighbours(g, u, ax):
    """The upper and lower neighbours of every cell along ax, taken from an
    np.pad copy of u with mirror (edge) ghosts."""
    pad = [(1, 1) if k == ax else (0, 0) for k in range(g.dim)]
    ue = np.pad(u, pad, mode="edge")
    hi = ue[tuple(slice(2, None) if k == ax else slice(None)
                  for k in range(g.dim))]
    lo = ue[tuple(slice(None, -2) if k == ax else slice(None)
                  for k in range(g.dim))]
    return hi, lo


def _padded_gradient(g, u):
    out = np.empty((g.dim,) + u.shape)
    for ax in range(g.dim):
        hi, lo = _padded_neighbours(g, u, ax)
        out[ax] = (hi - lo) / (2.0 * g.h)
    return out


def _padded_laplacian(g, u):
    out = np.zeros_like(u)
    for ax in range(g.dim):
        hi, lo = _padded_neighbours(g, u, ax)
        out += (hi - 2.0 * u + lo) / g.h ** 2
    return out


def test_boundary_faces():
    # the radial line's one boundary is its outer node, not the axis
    r = pl.radial_grid(3, 1.4, 141)
    assert [f.tolist() for f in r.boundary_faces(r.axis)] == [[r.axis[-1]]]
    g = pl.full_grid(2, 1.0, 10)
    x = whole_coords(g)[0]
    assert [np.unique(f).tolist() for f in g.boundary_faces(x, (1,))] == [
        [g.axis[0]], [g.axis[-1]]]
    assert [f.shape for f in g.boundary_faces(x)] == [(10,)] * 4


def test_respaced_takes_the_closest_spacing():
    assert pl.radial_grid(2, 1.4, 141).respaced(0.005).npts == 281
    assert pl.full_grid(2, 1.3, 40).respaced(1.3 / 40).npts == 80


@pytest.mark.parametrize("dim,npts", [(1, 64), (1, 65), (2, 40), (2, 41)])
def test_full_stencils_and_quadrature_match_oracles(dim, npts):
    """Slice stencils and the scalar cell volume give the bits of padded
    stencils and of a constant weight array."""
    g = pl.full_grid(dim, 1.3, npts)
    u = np.random.default_rng(npts).uniform(-1.0, 1.0, g.shape)
    assert np.array_equal(g.gradient(u), _padded_gradient(g, u))
    assert np.array_equal(g.laplacian(u), _padded_laplacian(g, u))
    weights = np.full(g.shape, g.h ** dim)
    assert g.integrate(u) == float((weights * u).sum())
    assert g.integrate(u * u) == float((weights * (u * u)).sum())
    # the product written over the integrand: the same sum, and the
    # integrand now holds the product
    v = u * u
    assert g.integrate(v, out=v) == float((weights * (u * u)).sum())
    assert np.array_equal(v, weights * (u * u))


@pytest.mark.parametrize("grid", [
    pl.full_grid(1, 1.3, 64), pl.full_grid(1, 1.3, 65),
    pl.full_grid(2, 1.3, 40), pl.full_grid(2, 1.3, 41)]
    + [pl.radial_grid(d, 1.4, 141) for d in range(2, 7)],
    ids=lambda g: f"{g.mode}-d{g.dim}-n{g.npts}")
def test_implicit_solver_inverts_the_laplacian(grid):
    # the solve must invert I - dt L for the very stencil the diagnostics
    # read, the cosine spectrum on full grids included; ||dt L|| is 1 to 40
    # once its argument carries the weight.  A field that is nowhere flat
    # puts the band on every node
    dt = 1e-3
    x = np.random.default_rng(grid.npts).uniform(-1.0, 1.0, grid.shape)
    band = grid.band_solver(dt)
    assert x[band.place(x)].shape == grid.shape
    y = band.solve(band.weight * (x - dt * grid.laplacian(x)))
    assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("grid", [
    pl.full_grid(1, 1.3, 64), pl.full_grid(1, 1.3, 65),
    pl.full_grid(2, 1.3, 40), pl.full_grid(2, 1.3, 41),
    pl.full_grid(2, 1.4, 280)]
    + [pl.radial_grid(d, 1.4, 141) for d in range(2, 7)]
    + [pl.radial_grid(2, 2.8, 2241)],
    ids=lambda g: f"{g.mode}-d{g.dim}-n{g.npts}")
def test_implicit_solve_works_in_place(grid):
    # the stepper hands the solve one row of a block buffer and reads the
    # solution from that row: solve(b) is b, bit for bit the copying solve,
    # which runs scipy.fft's dctn and idctn and scipy.linalg.lapack's dpttrs;
    # a field that is nowhere flat puts the band on every node
    dt = 1e-3
    b = np.random.default_rng(grid.npts).uniform(-1.0, 1.0, grid.shape)
    want = whole_solver(grid, dt)[1](b)
    rows = np.stack([b, b, b])
    band = grid.band_solver(dt)
    assert b[band.place(b)].shape == grid.shape
    for x in (rows[1], b):
        assert band.solve(x) is x
        assert np.array_equal(x, want)
    assert np.array_equal(rows[0], rows[2])   # the neighbours are untouched
    assert not np.array_equal(rows[0], want)


def test_kernel_is_the_module_scipy_exports():
    from scipy.linalg import lapack
    flapack = _kernel("scipy.linalg", "_flapack")
    assert flapack.dpttrs is lapack.dpttrs
    assert flapack.dpttrf is lapack.dpttrf
    assert _kernel("scipy.linalg", "_flapack") is flapack
    name = "scipy.fft._pocketfft.pypocketfft"
    assert _kernel("scipy.fft", "_pocketfft.pypocketfft") is sys.modules[name]


def test_missing_kernel_names_module_and_scipy_version():
    with pytest.raises(ImportError) as info:
        _kernel("scipy.linalg", "_no_such_kernel")
    assert info.value.name == "scipy.linalg._no_such_kernel"
    assert str(info.value) == (f"scipy {scipy.__version__} has no compiled "
                               f"module scipy.linalg._no_such_kernel")
    assert "scipy.linalg._no_such_kernel" not in sys.modules


KERNELS_THEN_PACKAGES = """
import json, sys
import numpy as np
import phaselab as pl

for grid in (pl.full_grid(2, 1.0, 16), pl.radial_grid(2, 1.0, 16)):
    band = grid.band_solver(1e-3)
    u = np.zeros(grid.shape)
    v = u[band.place(u)]
    band.solve(v)
names = ["scipy.linalg._flapack", "scipy.fft._pocketfft.pypocketfft"]
kernels = [sys.modules[name] for name in names]
loaded_before = sorted(m for m in sys.modules
                       if m.startswith(("scipy.linalg", "scipy.fft")))

import scipy.fft, scipy.linalg
from scipy.fft._pocketfft import basic
from scipy.linalg import lapack

ab = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])
x = scipy.linalg.solve_banded((1, 1), ab, np.array([1.0, 0.0, 1.0]))
y = np.arange(6.0).reshape(2, 3)
print(json.dumps({
    "loaded_before": loaded_before,
    "same": [sys.modules[name] is k for name, k in zip(names, kernels)]
            + [lapack._flapack is kernels[0], basic.pfft is kernels[1]],
    "solve_banded": x.tolist(),
    "dctn": bool(np.allclose(scipy.fft.idctn(scipy.fft.dctn(y, norm="ortho"),
                                             norm="ortho"), y)),
}))
"""


def test_packages_imported_after_the_kernels_reuse_them():
    # a command loads its kernel alone; scipy.linalg or scipy.fft imported
    # later in the same process (by a test oracle, say) must pick up the
    # very module objects and still work
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", KERNELS_THEN_PACKAGES],
                          capture_output=True, text=True, env=env,
                          check=True)
    out = json.loads(proc.stdout)
    assert out["loaded_before"] == ["scipy.fft._pocketfft.pypocketfft",
                                    "scipy.linalg._flapack"]
    assert out["same"] == [True] * 4
    assert out["solve_banded"] == pytest.approx([1.0, 1.0, 1.0])
    assert out["dctn"]
