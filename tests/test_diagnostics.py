import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import phaselab as pl
from phaselab import diagnostics as dg, geometry
from phaselab.geometry import ExtendedFields, radial_frame
from phaselab.potentials import dw, psi, root_2w, w

from conftest import (make_circle_config, make_plane_config, stepped,
                      whole_coords)


def theta_exact(s):
    return np.tanh(1.5 * s)


def dtheta_exact(s):
    return 1.5 / np.cosh(1.5 * s) ** 2


def psi_exact(u):
    return 1.5 * u - 0.5 * u ** 3


def row(u, cfg, **kw):
    """The relative_entropy record of u on cfg's geometry at t = 0."""
    return dg.relative_entropy(u, cfg.epsilon, cfg.trajectory, cfg.cutoff,
                               cfg.grid, 0.0, **kw)


def derived(u, cfg):
    """The whole-grid derived fields of u on cfg's grid: those of the
    whole-grid oracle below, whose integrands the diagnostics sum to the
    last bit."""
    return oracle_derived_fields(u, cfg.epsilon, cfg.grid)


def test_gl_energy_minimizer(profile):
    cfg = make_plane_config(profile, h_over_eps=3.2)
    assert cfg.grid.npts == 64
    assert row(np.ones(cfg.grid.shape), cfg)["gl_energy"] == 0.0


def test_gl_energy_profile_line_tension(profile):
    # co-area oracle: int theta'(x/eps)^2 / eps dx = int sqrt(2W) = 2;
    # the discrete gradient under-reads by ~0.6 (h/eps)^2, so resolve well
    cfg = make_plane_config(profile, h_over_eps=128)
    val = row(pl.initial_data(cfg), cfg)["gl_energy"]
    assert val == pytest.approx(2.0, abs=1e-4)


def test_gl_energy_circle_perimeter(profile):
    # line tension 2 times perimeter 2 pi R
    cfg = make_circle_config(profile, eps=0.05, half_width=1.4, mode="full")
    val = row(pl.initial_data(cfg), cfg)["gl_energy"]
    assert abs(val - 4.0 * math.pi) / (4.0 * math.pi) < 0.02


def test_dissipation_minimizer(profile):
    cfg = make_plane_config(profile, h_over_eps=3.2)
    assert cfg.grid.npts == 64
    assert row(-np.ones(cfg.grid.shape), cfg)["dissipation"] < 1e-24


def test_dissipation_profile_refines_to_zero(profile):
    vals = []
    for h_over_eps in (16, 32):
        cfg = make_plane_config(profile, h_over_eps=h_over_eps)
        vals.append(row(pl.initial_data(cfg), cfg)["dissipation"])
    assert vals[1] < vals[0] / 8.0   # h^4 scaling of the squared residual
    assert vals[0] < 0.05


def test_dissipation_shrinking_circle(profile):
    # sharp-interface rate: line tension x int H^2 = 2 * 2 pi R / R^2
    cfg = make_circle_config(profile, eps=0.04, half_width=1.4, h_over_eps=16)
    val = row(pl.initial_data(cfg), cfg)["dissipation"]
    assert abs(val - 4.0 * math.pi) / (4.0 * math.pi) < 0.10


def test_relative_entropy_uniform(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    b = dg.relative_entropy(np.ones(cfg.grid.shape), cfg.epsilon,
                            cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
    for name in ("gl_energy", "rel_entropy", "equipartition_defect",
                 "misalignment", "tilt_excess", "dist_weighted_energy",
                 "defect_sq_curvature", "defect_sq_velocity"):
        assert b[name] == pytest.approx(0.0, abs=1e-20)


def test_relative_entropy_far_interface_equals_energy(profile):
    # trajectory far outside the box: xi vanishes on the grid
    cfg = make_plane_config(profile)
    traj = pl.PlaneInterface(normal=(1.0,), offset=30.0)
    u0 = pl.initial_data(cfg)
    b = dg.relative_entropy(u0, cfg.epsilon, traj, cfg.cutoff, cfg.grid, 0.0)
    assert b["rel_entropy"] == pytest.approx(b["gl_energy"], abs=1e-12)
    assert b["gl_energy"] == pytest.approx(2.0, abs=1e-2)


def test_initial_entropy_against_quadrature_oracle(profile):
    # only the cutoff term survives for the exact profile:
    # E(0) = int (1 - eta(x)) theta'(x/eps)^2 / eps dx
    r_c = 0.5
    cut = pl.CutoffSpec(r_c=r_c)
    ks = []
    for eps in (0.05, 0.025):
        cfg = make_plane_config(profile, eps=eps, h_over_eps=32, r_c=r_c)
        u0 = pl.initial_data(cfg)
        b = dg.relative_entropy(u0, eps, cfg.trajectory,
                                cfg.cutoff, cfg.grid, 0.0)
        oracle, _ = quad(
            lambda x: (1.0 - cut.profile(x)[0]) * dtheta_exact(x / eps) ** 2 / eps,
            -0.5, 0.5, limit=400)
        assert b["rel_entropy"] == pytest.approx(oracle, rel=0.05)
        ks.append(b["rel_entropy"] / eps ** 2)
    assert abs(ks[0] - ks[1]) / ks[0] < 0.05


def test_coercivity_trivial_and_profile(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    b = dg.relative_entropy(np.ones(cfg.grid.shape), cfg.epsilon,
                            cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
    assert dg.coercivity_check(b, cfg.cutoff).passed

    u0 = pl.initial_data(cfg)
    b = dg.relative_entropy(u0, cfg.epsilon,
                            cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
    rep = dg.coercivity_check(b, cfg.cutoff)
    assert rep.passed, rep.violations()
    assert b["equipartition_defect"] <= 2.0 * b["rel_entropy"]


def test_coercivity_on_rough_fields(profile):
    # the four controls are pointwise algebra, so they must hold for any
    # field, not only near-profile ones
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    rng = np.random.default_rng(42)
    r = cfg.grid.axis
    for _ in range(5):
        coeffs = rng.normal(size=4)
        u = np.tanh(coeffs[0] + coeffs[1] * np.sin(3 * r)
                    + coeffs[2] * np.cos(7 * r) + coeffs[3] * r)
        b = dg.relative_entropy(u, cfg.epsilon,
                                cfg.trajectory, cfg.cutoff, cfg.grid, 0.1)
        rep = dg.coercivity_check(b, cfg.cutoff, slack=1.0 + 1e-12)
        assert rep.passed, rep.violations()
        assert b["rel_entropy"] >= dg.ENTROPY_FLOOR


def random_field_geometries(profile):
    """A radial and a full 2D circle, a 1D plane and a tilted 2D plane, on
    grids coarse enough to evaluate hundreds of fields quickly."""
    tilted = make_plane_config(profile, eps=0.1, half_width=1.0,
                               h_over_eps=4, dim=2)
    return [
        make_circle_config(profile, eps=0.16, half_width=1.4, h_over_eps=4),
        make_circle_config(profile, eps=0.16, half_width=1.4,
                           h_over_eps=4, mode="full"),
        make_plane_config(profile, h_over_eps=4),
        replace(tilted, trajectory=pl.PlaneInterface(
            normal=(0.6, 0.8), offset=0.1)),
    ]


RANDOM_FIELDS = {   # (rng, shape, scale) -> field
    "uniform": lambda rng, shape, scale: rng.uniform(-1.3, 1.3, shape),
    "tanh": lambda rng, shape, scale: np.tanh(scale * rng.normal(size=shape)),
    "clipped": lambda rng, shape, scale: np.clip(
        scale * rng.normal(size=shape), -1.3, 1.3),
}


@settings(max_examples=240, derandomize=True, deadline=None)
@given(geometry=st.integers(0, 3), kind=st.sampled_from(sorted(RANDOM_FIELDS)),
       scale=st.floats(0.1, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_coercivity_algebra_on_random_fields(profile,
                                             geometry, kind, scale, seed):
    # the controls and the density split are pointwise algebra on the grid,
    # so they hold for any field, however far from a profile
    cfg = random_field_geometries(profile)[geometry]
    u = RANDOM_FIELDS[kind](np.random.default_rng(seed), cfg.grid.shape,
                            scale)
    b = dg.relative_entropy(u, cfg.epsilon,
                            cfg.trajectory, cfg.cutoff, cfg.grid, 0.05)
    rep = dg.coercivity_check(b, cfg.cutoff, slack=1.0 + 1e-12)
    assert rep.passed, rep.violations()
    assert b["rel_entropy"] >= dg.ENTROPY_FLOOR

    d = derived(u, cfg)
    eps = cfg.epsilon
    defect = np.sqrt(eps) * d.gmag - d.sqrt2w / np.sqrt(eps)
    inside = np.abs(u) <= 1.0
    np.testing.assert_allclose((d.grad_psi_mag + 0.5 * defect ** 2)[inside],
                               d.density[inside], rtol=1e-14, atol=0.0)


def test_young_absorption_pointwise(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    rng = np.random.default_rng(1)
    u = np.tanh(rng.normal(size=3) @ np.stack([
        np.sin(2 * cfg.grid.axis), np.cos(5 * cfg.grid.axis),
        cfg.grid.axis]))
    d = derived(u, cfg)
    eps = cfg.epsilon
    defect2 = (np.sqrt(eps) * d.gmag - d.sqrt2w / np.sqrt(eps)) ** 2
    lhs = eps * d.gmag ** 2
    rhs = 2.0 * d.grad_psi_mag + 2.0 * defect2
    assert np.all(lhs <= rhs + 1e-10)


def test_psi_bounded_on_snapshots(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4, t_end=0.02)
    res = pl.run(cfg)
    d = derived(res.final_field, cfg)
    assert np.max(np.abs(d.psi)) <= 1.0


def test_interface_errors_exact_indicator(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    dist = cfg.trajectory.radius(0.0) - cfg.grid.axis
    u = np.where(dist >= 0.0, 1.0, -1.0)   # psi(u) = chi exactly
    b = row(u, cfg)
    assert b["err_l1"] == 0.0
    assert b["err_weighted"] == 0.0


def test_interface_errors_profile_oracle(profile):
    # substitution x = eps*s: err_L1 = eps * int |psi(theta(s)) - sign(s)| ds
    eps = 0.05
    cfg = make_plane_config(profile, eps=eps, h_over_eps=64)
    b = row(pl.initial_data(cfg), cfg)
    err_l1, err_w = b["err_l1"], b["err_weighted"]
    half, _ = quad(lambda s: 1.0 - psi_exact(theta_exact(s)), 0.0, 30.0,
                   limit=400)
    oracle = 2.0 * eps * half
    assert err_l1 == pytest.approx(oracle, abs=1e-5)
    assert 0.0 <= err_w <= err_l1 + 1e-15


def test_identity_rhs_zero_on_uniform(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    b = dg.relative_entropy(np.ones(cfg.grid.shape), cfg.epsilon,
                            cfg.trajectory, cfg.cutoff,
                            cfg.grid, 0.0, with_identity=True)
    assert b["identity_rhs"] == pytest.approx(0.0, abs=1e-20)
    # a record of a run's row table: the residual, a rate across rows,
    # stays NaN, and so does an rhs not assembled
    plain = row(np.ones(cfg.grid.shape), cfg)
    assert b.dtype == plain.dtype == dg.ROW_DTYPE
    assert np.isnan([b["identity_residual"], plain["identity_residual"],
                     plain["identity_rhs"]]).all()
    assert plain.item()[:-2] == b.item()[:-2]


def table(*records):
    """A row table holding the records, one row each, as a run stores
    them."""
    rows = dg.row_table(len(records))
    for i, b in enumerate(records):
        rows[i] = b
    return rows


def record(**values):
    """One ROW_DTYPE record with the given values, NaN in every other
    field."""
    b = dg.row_table(1)[0]
    for name, value in values.items():
        b[name] = value
    return b


def test_identity_residual_fill():
    rows = dg.row_table(6)
    rows["t"] = np.arange(6.0)
    rows["rel_entropy"] = rows["t"] ** 2
    rows["identity_rhs"] = 2.0 * rows["t"]
    rows["identity_rhs"][3] = math.nan   # a row without an assembled rhs
    dg.fill_identity_residuals(rows)
    residual = rows["identity_residual"]
    assert np.isnan(residual[[0, 3, 5]]).all()
    # centered difference of t^2 equals 2t exactly: residual 0
    assert np.array_equal(residual[[1, 2, 4]], np.zeros(3))


def row_loop_rates(rows, name):
    """(j, t_j, centered rate) row by row on Python floats: the per-row
    loop the column readers replace, kept as their reference."""
    t, x = rows["t"].tolist(), rows[name].tolist()
    for j in range(1, len(t) - 1):
        if (abs((t[j + 1] - t[j]) - (t[j] - t[j - 1]))
                <= 1e-9 * max(t[j + 1] - t[j - 1], 1e-300)):
            yield j, t[j], (x[j + 1] - x[j - 1]) / (t[j + 1] - t[j - 1])


def test_column_readers_match_the_row_loop(profile):
    # the same IEEE operations in the same order as the row loop, so the
    # same bits: random rows on the row times of a run whose last interval
    # is shorter than the cadence, one rhs not assembled
    cfg = make_plane_config(profile, cadence=7, t_end=0.004)
    times = cfg.row_times()
    rng = np.random.default_rng(11)
    rows = dg.row_table(len(times))
    rows["t"] = times
    for name in ("gl_energy", "dissipation", "rel_entropy", "identity_rhs"):
        rows[name] = rng.uniform(0.0, 3.0, len(times))
    rows["identity_rhs"][2] = math.nan
    want = [math.nan] * len(times)
    for j, _, dedt in row_loop_rates(rows, "rel_entropy"):
        rhs = rows["identity_rhs"][j].item()
        if not math.isnan(rhs):
            want[j] = abs(dedt - rhs)
    dg.fill_identity_residuals(rows)
    got = rows["identity_residual"].tolist()
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert math.isnan(got[-2])   # the partial interval has no centered rate
    diss = rows["dissipation"].tolist()
    want = [(tc, abs(dedt + diss[j]) / max(diss[j], 1.0))
            for j, tc, dedt in row_loop_rates(rows, "gl_energy")]
    got_t, got_v = dg.dissipation_residuals(rows)
    assert list(zip(got_t.tolist(), got_v.tolist())) == want


def test_csv_rendering_fixed_columns(tmp_path):
    row = record(t=0.1, gl_energy=1.0, dissipation=2.0, rel_entropy=0.5,
                 equipartition_defect=0.1, misalignment=0.2, tilt_excess=0.3,
                 dist_weighted_energy=0.4, defect_sq_curvature=0.05,
                 defect_sq_velocity=0.06, err_l1=0.07, err_weighted=0.08)
    text = "".join(dg.csv_lines(table(row)))
    header, body = text.strip().split("\n")
    assert header == ",".join(dg.CSV_HEADER)
    assert "err_L1" in header
    assert body.split(",")[0] == "0.1"
    assert body.split(",")[-1] == "nan"
    assert "".join(dg.csv_lines(table(row))) == text   # deterministic
    # the file holds the same bytes, a NaN identity_residual included
    rows = table(row, row, row)   # copies of row with a field set
    rows["t"][1:] = 0.2, 0.3
    rows["identity_residual"][1] = 1e-3
    dg.write_csv(tmp_path / "rows.csv", rows)
    assert ((tmp_path / "rows.csv").read_bytes()
            == "".join(dg.csv_lines(rows)).encode("utf-8"))


# --- whole-grid oracle --------------------------------------------------
# The diagnostics evaluate the interface fields on the cutoff's tube only
# and scatter each integrand onto the whole grid.  The oracle below is the
# earlier whole-grid evaluation: every interface field on every cell, and
# every integrand built from whole-grid arrays, with the derived fields of
# oracle_derived_fields rather than the shipped ones.  The two must agree
# to the last bit, because each quadrature sums the same array.

def oracle_derived_fields(u, eps, grid):
    """Every derived field, n and grad psi among them, on every cell, by
    plain whole-grid expressions."""
    g = grid.gradient(u)
    gmag = np.sqrt(np.sum(g * g, axis=0))
    floor = dg.GRAD_FLOOR_SCALE * (float(np.max(gmag)) + 1.0)
    safe = np.where(gmag >= floor, gmag, 1.0)
    n = np.where(gmag >= floor, g / safe, 0.0)
    n[0] = np.where(gmag >= floor, n[0], 1.0)
    w_u = w(np.clip(u, -1.0, 1.0))
    sqrt2w = np.sqrt(np.maximum(2.0 * w_u, 0.0))
    curvature_scalar = -(eps * grid.laplacian(u) - dw(u) / eps)
    return SimpleNamespace(
        gmag=gmag, n=n, psi=psi(u), grad_psi=sqrt2w * g,
        grad_psi_mag=sqrt2w * gmag, w=w_u, sqrt2w=sqrt2w,
        curvature_scalar=curvature_scalar,
        density=0.5 * eps * gmag ** 2 + w_u / eps)


def oracle_fields(traj, cutoff, grid, t):
    """Every interface field on every cell of the grid (the tube is the
    whole grid), with dist, chi, dt xi and (H . grad) xi, and the grad H
    contractions of ExtendedFields."""
    X = whole_coords(grid)
    shape = X.shape[1:]
    zeros_s, zeros_v = np.zeros(shape), np.zeros(X.shape)
    if isinstance(traj, pl.PlaneInterface):
        n = np.asarray(traj.normal, dtype=float)
        # n . x summed over k in order
        dist = sum(n_k * x_k for n_k, x_k in zip(traj.normal, X)) - traj.offset
        n_field = n.reshape((-1,) + (1,) * len(shape)) * np.ones(shape)
        eta, deta = cutoff.profile(dist)[:2]
        fields = dict(xi=eta * n_field, hvec=zeros_v,
                      div_xi=deta, div_h=zeros_s, dt_xi=zeros_v,
                      adv_xi=zeros_v, grad_h_rad=zeros_s,
                      grad_h_tan=zeros_s, e=zeros_v)
    else:
        if grid.mode == "radial":
            r = grid.axis
            e = np.where(r > 0.0, 1.0, 0.0)[np.newaxis, :]
        else:
            rel = X - np.asarray(traj.center).reshape(
                (-1,) + (1,) * len(shape))
            r = np.sqrt(np.sum(rel ** 2, axis=0))
        safe_r = np.where(r > 0.0, r, 1.0)
        if grid.mode != "radial":
            e = np.where(r > 0.0, rel / safe_r, 0.0)
        dist = traj.radius(t) - r
        d, k = traj.dim, traj.curvature_scale(t)
        eta, deta, eta_t, deta_t = cutoff.profile(dist)
        fields = dict(xi=-eta * e, hvec=-k * eta_t * e,
                      div_xi=deta - (d - 1) * eta / safe_r,
                      div_h=k * deta_t - (d - 1) * k * eta_t / safe_r,
                      dt_xi=k * deta * e, adv_xi=-k * eta_t * deta * e,
                      grad_h_rad=k * deta_t, grad_h_tan=-k * eta_t / safe_r,
                      e=e)
    dt_xi, adv_xi = fields.pop("dt_xi"), fields.pop("adv_xi")
    ef = ExtendedFields(shape=shape, tube=np.arange(dist.size),
                        dt_xi_rad=zeros_s, adv_xi_rad=zeros_s, **fields)
    return SimpleNamespace(dist=dist, chi=np.where(dist >= 0.0, 1.0, -1.0),
                           dt_xi=dt_xi, adv_xi=adv_xi,
                           grad_h_quad=ef.grad_h_quad,
                           grad_h_vec=ef.grad_h_vec, **fields)


def oracle_relative_entropy(u, eps, traj, cutoff, grid, t, s0):
    """relative_entropy (with the identity) from whole-grid integrands."""
    d = oracle_derived_fields(u, eps, grid)
    ef = oracle_fields(traj, cutoff, grid, t)
    quad = grid.integrate

    xi_dot_gpsi = np.sum(ef.xi * d.grad_psi, axis=0)
    energy = quad(d.density)
    entropy = quad(d.density - xi_dot_gpsi)
    diss = quad(d.curvature_scalar ** 2 / eps)

    defect = np.sqrt(eps) * d.gmag - d.sqrt2w / np.sqrt(eps)
    nmxi = d.n - ef.xi
    nmxi2 = np.sum(nmxi * nmxi, axis=0)

    hvec_diff = d.curvature_scalar * d.n - eps * d.gmag * ef.hvec
    dsq_curv = quad(np.sum(hvec_diff ** 2, axis=0) / (4.0 * eps))
    dsq_vel = quad((d.curvature_scalar - (-ef.div_xi) * d.sqrt2w) ** 2
                   / (4.0 * eps))

    g1 = -2.0 * (dsq_curv + dsq_vel)
    h2 = np.sum(ef.hvec ** 2, axis=0)
    h_dot_gpsi = np.sum(ef.hvec * d.grad_psi, axis=0)
    g2 = quad(h2 * 0.5 * eps * d.gmag ** 2 + ef.div_xi ** 2 * d.w / eps
              + h_dot_gpsi * ef.div_xi)
    g3 = quad(ef.div_h * (d.density - d.grad_psi_mag))
    g4 = -quad(ef.grad_h_quad(d.n) * (eps * d.gmag ** 2 - d.grad_psi_mag))
    g5 = -quad(ef.grad_h_quad(nmxi) * d.grad_psi_mag)
    g6 = quad(ef.div_h * (d.grad_psi_mag - xi_dot_gpsi))
    t7 = ef.dt_xi + ef.adv_xi + ef.grad_h_vec(ef.xi)
    g7 = -quad(np.sum((d.grad_psi - d.grad_psi_mag * ef.xi) * t7, axis=0))
    t8 = ef.dt_xi + ef.adv_xi
    g8 = -quad(d.grad_psi_mag * np.sum(ef.xi * t8, axis=0))
    return record(
        t=t, gl_energy=energy, dissipation=diss, rel_entropy=entropy,
        equipartition_defect=quad(defect ** 2),
        misalignment=quad(nmxi2 * d.grad_psi_mag),
        tilt_excess=quad(nmxi2 * eps * d.gmag ** 2),
        dist_weighted_energy=quad(np.minimum(ef.dist ** 2, 1.0) * d.density),
        defect_sq_curvature=dsq_curv, defect_sq_velocity=dsq_vel,
        err_l1=quad(np.abs(d.psi - ef.chi)),
        err_weighted=quad((ef.chi - d.psi)
                          * pl.tau_truncation(ef.dist / s0)),
        identity_rhs=g1 + g2 + g3 + g4 + g5 + g6 + g7 + g8)


def plane_with_cell_on_tube_edge(profile):
    """A 1D plane whose cutoff puts one cell at |dist| = r_c/2 exactly: the
    ramp of the cutoff reads exactly 1 there."""
    cfg = make_plane_config(profile, eps=0.05, h_over_eps=4)
    x = float(cfg.grid.axis[3 * cfg.grid.npts // 4])
    return replace(cfg, cutoff=pl.CutoffSpec(r_c=2.0 * x))


ORACLE_GEOMETRIES = {
    "full2d_circle": lambda prof: make_circle_config(
        prof, eps=0.1, half_width=1.4, h_over_eps=4, mode="full"),
    "radial_circle_d2": lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.4),
    "radial_sphere_d3": lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.4, dim=3),
    "plane1d": lambda prof: make_plane_config(prof),
    "tilted_plane2d": lambda prof: replace(
        make_plane_config(prof, eps=0.1, half_width=1.0, h_over_eps=4, dim=2),
        trajectory=pl.PlaneInterface(normal=(0.6, 0.8), offset=0.1)),
    "plane1d_cell_on_tube_edge": plane_with_cell_on_tube_edge,
}


@pytest.mark.parametrize("geometry", sorted(ORACLE_GEOMETRIES))
def test_tube_evaluation_matches_whole_grid_oracle(profile, geometry):
    cfg = ORACLE_GEOMETRIES[geometry](profile)
    s0 = cfg.cutoff.r_c / 4.0   # the weighted error's distance scale
    ef = pl.extended_fields(cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
    assert 0 < ef.tube.size < math.prod(ef.shape)   # a proper subset
    if geometry == "plane1d_cell_on_tube_edge":
        dist = pl.interface_distance(cfg.trajectory, cfg.grid, 0.0)
        assert np.count_nonzero(np.abs(dist) == cfg.cutoff.r_c / 2.0) == 1

    u = pl.initial_data(cfg)
    for k in range(31):   # the profile data, then a stepped field
        if k in (0, 30):
            t = k * cfg.dt_actual()
            got = dg.relative_entropy(u, cfg.epsilon, cfg.trajectory,
                                      cfg.cutoff, cfg.grid, t,
                                      with_identity=True)
            want = oracle_relative_entropy(u, cfg.epsilon, cfg.trajectory,
                                           cfg.cutoff, cfg.grid, t, s0)
            assert (list(dg.csv_lines(table(got)))
                    == list(dg.csv_lines(table(want))))
            assert got["identity_rhs"] == want["identity_rhs"]
        u = stepped(cfg, u)


# the names the diagnostics and C10 read of the interface fields: a
# trajectory's tube_fields may return any object that has them
FIELD_NAMES = ("xi", "hvec", "div_xi", "div_h", "xi_rate", "grad_h_quad",
               "grad_h_vec", "restrict", "scatter")


def test_fields_are_read_by_nine_names(profile, monkeypatch):
    cfgs = {name: ORACLE_GEOMETRIES[name](profile)
            for name in ("full2d_circle", "radial_circle_d2",
                         "tilted_plane2d")}

    def outputs():
        rows = {name: row(pl.initial_data(cfg), cfg,
                          with_identity=True).tobytes()
                for name, cfg in cfgs.items()}
        reports = {name: pl.xi_pde_residuals(cfg.trajectory, cfg.cutoff,
                                             cfg.grid, 0.05)
                   for name, cfg in cfgs.items() if cfg.grid.mode == "full"}
        return rows, reports

    want = outputs()
    whole, calls = geometry.extended_fields, []

    def nine_names(*args):
        calls.append(args)
        ef = whole(*args)
        return SimpleNamespace(**{name: getattr(ef, name)
                                  for name in FIELD_NAMES})

    monkeypatch.setattr(dg, "extended_fields", nine_names)
    monkeypatch.setattr(geometry, "extended_fields", nine_names)
    assert outputs() == want
    assert len(calls) == 3 + 2 * 3   # a row each, three per C10 report


def test_sqrt2w_of_derived_fields_is_the_potentials():
    u = np.random.default_rng(7).uniform(-1.3, 1.3, 400)
    grid = pl.radial_grid(2, 1.0, 400)
    traj = pl.SphereInterface(center=(0.0, 0.0), radius0=0.5, dim=2,
                              t_max=0.1)
    ef = pl.extended_fields(traj, pl.CutoffSpec(r_c=0.2), grid, 0.0)
    sqrt2w_t = dg.derived_fields(u, 0.1, grid, ef)[3]
    assert 0 < ef.tube.size < u.size
    assert np.array_equal(sqrt2w_t, root_2w(
        w(u.clip(-1, 1)))[ef.tube])


def test_identity_row_memory_bound(profile):
    # the C11 280^2 circle: the row runs in stages, forms its whole-grid
    # values block by block into fields past their last use and writes each
    # quadrature's product over its integrand, so a row holds at most 10
    # fields at once (9.6 measured; 18.4 when derived_fields returned eight
    # whole-grid fields, 29.6 when every derived field lived to the end of
    # the row)
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4, mode="full")
    assert cfg.grid.shape == (280, 280)
    u = pl.initial_data(cfg)

    def one_row():
        return row(u, cfg, with_identity=True)

    want = one_row()   # the first row may build caches
    tracemalloc.start()
    try:
        got = one_row()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(dg.csv_lines(table(got))) == list(dg.csv_lines(table(want)))
    assert peak <= 10 * u.nbytes, peak / u.nbytes


def test_cold_full_grid_run_memory_bound(profile):
    # the C11 circle with identity rows cut to t = 0.01 (5 rows), from a
    # fresh grid and an empty radial-frame cache: validation, the initial
    # data, the rows and the steps between them hold at most 13 fields at
    # once (12.6 measured; 13.6 while the idle step buffer lived through the
    # rows, 27.3 when the frame cached r, safe_r, e and the grid's
    # coordinates)
    def config():
        return replace(make_circle_config(
            profile, eps=0.08, half_width=1.4,
            t_end=0.01, mode="full"), compute_identity=True)

    pl.run(config())   # imports and kernels
    radial_frame.cache_clear()
    cfg = config()
    field = np.empty(cfg.grid.shape).nbytes
    tracemalloc.start()
    try:
        res = pl.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.rows) == 5
    assert peak <= 13 * field, peak / field
