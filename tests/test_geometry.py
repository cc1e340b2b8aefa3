from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import phaselab as pl
from phaselab.geometry import (extended_fields, interface_distance,
                               radial_frame, radial_frame_at, tau_truncation)

from conftest import whole_coords


@pytest.fixture(scope="module")
def sphere():
    return pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2,
                              t_max=0.4)


@pytest.fixture(scope="module")
def plane2d():
    return pl.PlaneInterface(normal=(1.0, 0.0), offset=0.0)


@pytest.fixture(scope="module")
def cutoff():
    return pl.CutoffSpec(r_c=0.3)


class PointsGrid:
    """Duck-typed full grid whose coordinates are arbitrary points, so that
    interface_distance and extended_fields can be evaluated pointwise."""

    mode = "full"

    def __init__(self, pts):
        self.coords = np.atleast_2d(np.asarray(pts, dtype=float)).T
        self.ncomp = self.coords.shape[0]
        self.shape = self.coords.shape[1:]
        self.open_coords = tuple(self.coords)

    def coords_at(self, cells):
        return self.coords[:, cells]


TUBE_FIELDS = ("xi", "hvec", "div_xi", "div_h", "grad_h_rad", "grad_h_tan",
               "e")


def on_grid(traj, cutoff, grid, t):
    """extended_fields on every cell: the tube fields scattered onto the
    whole grid, zero off the tube, dt xi and (H . grad) xi formed from
    their radial factors, and the distance."""
    f = extended_fields(traj, cutoff, grid, t)
    return SimpleNamespace(dist=interface_distance(traj, grid, t),
                           dt_xi=f.scatter(f.dt_xi_rad * f.e),
                           adv_xi=f.scatter(f.adv_xi_rad * f.e),
                           **{name: f.scatter(getattr(f, name))
                              for name in TUBE_FIELDS})


def distance_at(traj, pts, t):
    """interface_distance at the rows of pts."""
    return interface_distance(traj, PointsGrid(pts), t)


def fields_at(traj, cutoff, pts, t):
    """extended_fields at the rows of pts; vector fields are (d, npts)."""
    return on_grid(traj, cutoff, PointsGrid(pts), t)


def normals_at(sphere, pts):
    """The unit normal -e at the rows of pts, off the tube too."""
    cells = np.arange(len(pts))
    return -radial_frame_at(PointsGrid(pts), sphere.center, cells)[1].T


def test_signed_distance_sphere(sphere):
    assert distance_at(sphere, [0.0, 0.0], 0.0) == pytest.approx(1.0)
    assert distance_at(sphere, [1.0, 0.0], 0.0) == pytest.approx(0.0)
    val = distance_at(sphere, [2.0, 0.0], 0.25)
    assert val == pytest.approx(np.sqrt(0.5) - 2.0, abs=1e-12)


def test_radius_against_ode_oracle(sphere):
    sol = solve_ivp(lambda t, r: [-1.0 / r[0]], (0.0, 0.25), [1.0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    for t in (0.05, 0.1, 0.2, 0.25):
        assert sphere.radius(t) == pytest.approx(float(sol.sol(t)[0]),
                                                 abs=1e-9)


def test_radius_law_property(sphere):
    for t in np.linspace(0.0, sphere.t_max, 17):
        assert abs(sphere.radius(t) ** 2 - (1.0 - 2.0 * t)) <= 1e-12


def test_sphere_guards():
    with pytest.raises(ValueError):
        pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2, t_max=0.5)
    sph = pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2, t_max=0.3)
    with pytest.raises(ValueError):
        distance_at(sph, [0.0, 0.0], 0.35)


def test_normal_is_distance_gradient(sphere):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.15, 0.15, size=(40, 2))
    pts[:, 0] += 0.95
    d = 1e-6
    t = 0.1
    grad = np.stack([
        (distance_at(sphere, pts + off, t)
         - distance_at(sphere, pts - off, t)) / (2 * d)
        for off in (np.array([d, 0.0]), np.array([0.0, d]))], axis=-1)
    normals = normals_at(sphere, pts)
    assert np.max(np.abs(grad - normals)) < 1e-6


def test_distance_rate_matches_curvature(sphere):
    # d/dt dist = -H . n in the tube
    pts = np.array([[0.9, 0.1], [0.7, -0.4], [1.05, 0.0]])
    t, dt = 0.1, 1e-6
    rate = (distance_at(sphere, pts, t + dt)
            - distance_at(sphere, pts, t - dt)) / (2 * dt)
    k = sphere.curvature_scale(t)
    n = normals_at(sphere, pts)
    hvec = k * n
    assert np.max(np.abs(rate + np.sum(hvec * n, axis=-1))) < 1e-8


def test_cutoff_shape():
    cut = pl.CutoffSpec(r_c=0.4)
    assert cut.profile(0.0)[0] == 1.0
    assert cut.profile(0.2)[0] == 0.0
    assert cut.profile(-0.5)[0] == 0.0
    s = np.linspace(-0.6, 0.6, 2001)
    bound = np.maximum(1.0 - (s / 0.4) ** 2, 0.0)
    vals = cut.profile(s)[0]
    assert np.all(vals >= -1e-15)
    assert np.all(vals <= bound + 1e-12)
    # plateau of the plain cutoff
    assert np.all(cut.profile(np.linspace(-0.1, 0.1, 11))[2] == 1.0)


def test_cutoff_derivative_bound():
    cut = pl.CutoffSpec(r_c=0.4)
    s = np.linspace(-0.6, 0.6, 4001)
    d = 1e-7
    fd = (cut.profile(s + d)[0] - cut.profile(s - d)[0]) / (2 * d)
    deta = cut.profile(s)[1]
    assert np.max(np.abs(fd - deta)) < 1e-5
    cap = cut.deriv_bound * np.minimum(1.0 / 0.4, np.abs(s) / 0.4 ** 2)
    assert np.all(np.abs(deta) <= cap + 1e-12)


@pytest.mark.parametrize("make", [
    lambda: pl.CutoffSpec(r_c=np.nan),
    lambda: pl.SphereInterface(center=(0.0, 0.0), radius0=np.nan, dim=2,
                               t_max=0.1),
    lambda: pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2,
                               t_max=np.nan),
    lambda: pl.PlaneInterface(normal=(np.nan,)),
], ids=["cutoff_r_c", "sphere_radius0", "sphere_t_max", "plane_normal"])
def test_nan_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_cutoff_validation():
    with pytest.raises(ValueError):
        pl.CutoffSpec(r_c=-0.1)


def test_xi_values(sphere, cutoff):
    pts = [[0.0, 1.0], [1.0 - cutoff.r_c / 2, 0.0],
           [1.0 - cutoff.r_c / 4, 0.0], [0.0, 0.0]]
    on_interface, at_half, at_quarter, center = fields_at(
        sphere, cutoff, pts, 0.0).xi.T
    assert np.linalg.norm(on_interface) == pytest.approx(1.0, abs=1e-14)
    assert on_interface == pytest.approx([0.0, -1.0])
    assert np.linalg.norm(at_half) == 0.0
    assert np.linalg.norm(at_quarter) == pytest.approx(1.0 - 1.0 / 16.0,
                                                       abs=1e-12)
    assert np.linalg.norm(center) == 0.0


def test_xi_length_bound(sphere, cutoff):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.3, 1.3, size=(500, 2))
    vals = fields_at(sphere, cutoff, pts, 0.1).xi.T
    dist = distance_at(sphere, pts, 0.1)
    bound = np.maximum(1.0 - (dist / cutoff.r_c) ** 2, 0.0)
    assert np.all(np.linalg.norm(vals, axis=-1) <= bound + 1e-12)


def test_extended_curvature(sphere, plane2d, cutoff):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(20, 2))
    assert np.max(np.abs(fields_at(plane2d, cutoff, pts, 0.0).hvec)) == 0.0

    # R(t) = 0.5 at t = 0.375: magnitude (d-1)/R = 2, direction -x/|x|
    t = 0.375
    h, far = fields_at(sphere, cutoff,
                       [[0.5, 0.0], [0.5 - cutoff.r_c / 2, 0.0]], t).hvec.T
    assert h == pytest.approx([-2.0, 0.0], abs=1e-12)
    assert np.linalg.norm(far) == 0.0


def test_extended_curvature_against_divergence_oracle(sphere, cutoff):
    # H = -(div n) n on the interface, div n by finite differences
    t, d = 0.1, 1e-5
    x = np.array([sphere.radius(t), 0.0])
    offs = d * np.eye(2)
    f = fields_at(sphere, cutoff, np.vstack([x, x + offs, x - offs]), t)
    normals = -f.e.T
    div = sum((normals[1 + ax, ax] - normals[3 + ax, ax]) / (2 * d)
              for ax in range(2))
    oracle = -div * normals[0]
    assert f.hvec[:, 0] == pytest.approx(oracle, abs=1e-6)


def test_extended_fields_radial_matches_full(sphere, cutoff):
    t = 0.1
    grid_r = pl.radial_grid(2, 1.4, 281)
    fr = on_grid(sphere, cutoff, grid_r, t)
    ff = fields_at(sphere, cutoff,
                   np.stack([grid_r.axis, np.zeros_like(grid_r.axis)],
                            axis=-1), t)
    assert np.allclose(fr.dist, ff.dist, atol=1e-12)
    assert np.allclose(fr.xi[0], ff.xi[0], atol=1e-12)
    assert np.allclose(fr.div_xi[1:], ff.div_xi[1:], atol=1e-10)
    assert np.allclose(fr.div_h[1:], ff.div_h[1:], atol=1e-10)
    assert np.allclose(fr.dt_xi[0], ff.dt_xi[0], atol=1e-12)
    assert np.allclose(fr.adv_xi[0], ff.adv_xi[0], atol=1e-12)


def test_plane_is_the_limit_of_the_tangent_sphere():
    # the sphere of radius R touching the plane from its phase side: each
    # field differs from the plane's by C/R, with C bounded as R grows
    grid, cutoff = pl.full_grid(2, 1.0, 80), pl.CutoffSpec(r_c=0.5)
    plane = pl.PlaneInterface(normal=(0.6, 0.8), offset=0.1)
    flat = extended_fields(plane, cutoff, grid, 0.0)
    names = TUBE_FIELDS + ("dt_xi_rad", "adv_xi_rad")
    scaled = {}
    for R in (1e3, 1e4):
        center = tuple((plane.offset + R) * np.asarray(plane.normal))
        sphere = pl.SphereInterface(center=center, radius0=R, dim=2,
                                    t_max=1.0)
        f = extended_fields(sphere, cutoff, grid, 0.0)
        assert np.array_equal(f.tube, flat.tube)
        scaled[R] = {name: R * np.max(np.abs(
            f.scatter(getattr(f, name)) - flat.scatter(getattr(flat, name))))
            for name in names}
    for name in names:
        assert np.isfinite(scaled[1e4][name]), name
        assert scaled[1e4][name] <= 1.1 * scaled[1e3][name], (name, scaled)


@pytest.mark.parametrize("traj", [
    pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2, t_max=0.4),
    pl.PlaneInterface(normal=(1.0, 0.0), offset=0.0),
], ids=["sphere", "plane"])
def test_nan_time_rejected(traj):
    with pytest.raises(ValueError, match="outside"):
        interface_distance(traj, pl.full_grid(2, 1.4, 40), np.nan)


def whole_grid_frame(grid, center):
    """(r, safe_r, e) on every cell by the whole-grid expressions the
    sphere's frame once cached: r = |x - center| from whole_coords (the
    axis radially), safe_r = where(r > 0, r, 1) and e = where(r > 0,
    (x - center) / safe_r, 0)."""
    if grid.mode == "radial":
        r = grid.axis
        safe_r = np.where(r > 0.0, r, 1.0)
        return r, safe_r, np.where(r > 0.0, 1.0, 0.0)[np.newaxis, :]
    rel = whole_coords(grid) - np.reshape(center, (-1,) + (1,) * grid.dim)
    r = np.sqrt(np.sum(rel ** 2, axis=0))
    safe_r = np.where(r > 0.0, r, 1.0)
    return r, safe_r, np.where(r > 0.0, rel / safe_r, 0.0)


@pytest.mark.parametrize("grid,center", [
    (pl.full_grid(2, 1.4, 140), (0.0, 0.0)),
    (pl.full_grid(2, 1.4, 141), (0.13, -0.07)),   # a cell at the center
    (pl.radial_grid(2, 1.4, 281), (0.0, 0.0)),
    (pl.radial_grid(3, 1.4, 141), (0.0, 0.0, 0.0)),
], ids=["full_even", "full_odd_off_center", "radial_d2", "radial_d3"])
def test_tube_frame_matches_whole_grid_oracle(cutoff, grid, center):
    # the cached r, and safe_r and e at the tube cells, are the bits of the
    # whole-grid frame
    dim = len(center)
    sphere = pl.SphereInterface(center=center, radius0=1.0, dim=dim,
                                t_max=0.1)
    ef = extended_fields(sphere, cutoff, grid, 0.05)
    r, safe_r, e = whole_grid_frame(grid, center)
    assert np.array_equal(radial_frame(grid, center), r)
    tube = ef.tube
    assert 0 < tube.size < r.size
    got_safe_r, got_e = radial_frame_at(grid, center, tube)
    assert np.array_equal(got_safe_r, safe_r.reshape(-1)[tube])
    assert np.array_equal(got_e, e.reshape(len(e), -1)[:, tube])
    assert np.array_equal(ef.e, got_e)
    cells = np.arange(r.size)   # the center cell too, where e is zero
    assert np.array_equal(radial_frame_at(grid, center, cells)[1],
                          e.reshape(len(e), -1))


def test_analytic_divergence_against_stencil(sphere, cutoff):
    # the sup sits at the C^2 joints of the cutoff, so compare medians
    t = 0.1
    errs = []
    for n in (200, 400):
        grid = pl.full_grid(2, 1.4, n)
        f = on_grid(sphere, cutoff, grid, t)
        div_fd = sum(grid.gradient(f.xi[i])[i] for i in range(2))
        mask = np.abs(f.dist) <= cutoff.r_c / 2
        err = np.abs(div_fd - f.div_xi)[mask]
        errs.append((np.median(err), np.max(err)))
    assert errs[0][0] / errs[1][0] > 3.0   # second-order in the bulk
    assert errs[1][1] <= errs[0][1]        # sup does not grow


def test_xi_residuals_plane(plane2d):
    cut = pl.CutoffSpec(r_c=0.5)
    grid = pl.full_grid(2, 1.0, 200)
    rep = pl.xi_pde_residuals(plane2d, cut, grid, 0.5)
    # static fields: transport and length residuals vanish identically
    assert rep.transport_half < 1e-12
    assert rep.length_half < 1e-12
    # curvature residual is genuinely O(dist): bounded ratio
    assert rep.curvature_quarter < 3.0 * (2.0 / cut.r_c ** 2)


def test_xi_residuals_sphere_bounded_and_stable(sphere):
    cut = pl.CutoffSpec(r_c=0.3)
    sups = []
    for n in (160, 320, 640):
        grid = pl.full_grid(2, 1.4, n)
        rep = pl.xi_pde_residuals(sphere, cut, grid, 0.1)
        sups.append((rep.transport_quarter, rep.length_quarter,
                     rep.curvature_quarter))
    for k in range(3):
        seq = [s[k] for s in sups]
        assert all(np.isfinite(v) for v in seq)
        # refinement never grows the normalized residual beyond 20%
        assert seq[1] <= 1.2 * seq[0]
        assert seq[2] <= 1.2 * seq[1]


def test_tau_shape():
    s = np.linspace(-2.5, 2.5, 2001)
    v = tau_truncation(s)
    assert np.all(np.diff(v) >= -1e-15)
    assert np.max(np.abs(v)) <= 1.0
    inner = np.abs(s) <= 0.5
    assert np.allclose(v[inner], s[inner])
    assert np.all(v[s >= 1.0] == 1.0)
    assert np.all(v[s <= -1.0] == -1.0)
    pos = s > 0
    assert np.all(v[pos] >= np.minimum(s[pos], 0.5) - 1e-12)
