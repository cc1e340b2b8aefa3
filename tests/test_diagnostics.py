import math

import numpy as np
import pytest
from scipy.integrate import quad

import phaselab as pl
from phaselab import diagnostics as dg

from conftest import make_circle_config, make_plane_config


def theta_exact(s):
    return np.tanh(1.5 * s)


def dtheta_exact(s):
    return 1.5 / np.cosh(1.5 * s) ** 2


def psi_exact(u):
    return 1.5 * u - 0.5 * u ** 3


def row(u, cfg, **kw):
    """The relative_entropy breakdown of u on cfg's geometry at t = 0."""
    return dg.relative_entropy(u, cfg.epsilon, cfg.potential, cfg.trajectory,
                               cfg.cutoff, cfg.grid, 0.0, **kw)


def test_gl_energy_minimizer(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, h_over_eps=3.2)
    assert cfg.grid.npts == 64
    assert row(np.ones(cfg.grid.shape), cfg).gl_energy == 0.0


def test_gl_energy_profile_line_tension(standard_potential, profile):
    # co-area oracle: int theta'(x/eps)^2 / eps dx = int sqrt(2W) = 2;
    # the discrete gradient under-reads by ~0.6 (h/eps)^2, so resolve well
    cfg = make_plane_config(standard_potential, profile, h_over_eps=128)
    val = row(pl.initial_data(cfg), cfg).gl_energy
    assert val == pytest.approx(2.0, abs=1e-4)


def test_gl_energy_circle_perimeter(standard_potential, profile):
    # line tension 2 times perimeter 2 pi R
    cfg = make_circle_config(standard_potential, profile, eps=0.05,
                             half_width=1.4, mode="full")
    val = row(pl.initial_data(cfg), cfg).gl_energy
    assert abs(val - 4.0 * math.pi) / (4.0 * math.pi) < 0.02


def test_dissipation_minimizer(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, h_over_eps=3.2)
    assert cfg.grid.npts == 64
    assert row(-np.ones(cfg.grid.shape), cfg).dissipation < 1e-24


def test_dissipation_profile_refines_to_zero(standard_potential, profile):
    vals = []
    for h_over_eps in (16, 32):
        cfg = make_plane_config(standard_potential, profile,
                                h_over_eps=h_over_eps)
        vals.append(row(pl.initial_data(cfg), cfg).dissipation)
    assert vals[1] < vals[0] / 8.0   # h^4 scaling of the squared residual
    assert vals[0] < 0.05


def test_dissipation_shrinking_circle(standard_potential, profile):
    # sharp-interface rate: line tension x int H^2 = 2 * 2 pi R / R^2
    cfg = make_circle_config(standard_potential, profile, eps=0.04,
                             half_width=1.4, h_over_eps=16)
    val = row(pl.initial_data(cfg), cfg).dissipation
    assert abs(val - 4.0 * math.pi) / (4.0 * math.pi) < 0.10


def test_relative_entropy_uniform(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    b = dg.relative_entropy(np.ones(cfg.grid.shape), cfg.epsilon,
                            standard_potential, cfg.trajectory, cfg.cutoff,
                            cfg.grid, 0.0)
    for name in ("gl_energy", "rel_entropy", "equipartition_defect",
                 "misalignment", "tilt_excess", "dist_weighted_energy",
                 "defect_sq_curvature", "defect_sq_velocity"):
        assert getattr(b, name) == pytest.approx(0.0, abs=1e-20)


def test_relative_entropy_far_interface_equals_energy(standard_potential,
                                                      profile):
    # trajectory far outside the box: xi vanishes on the grid
    cfg = make_plane_config(standard_potential, profile)
    traj = pl.PlaneInterface(normal=(1.0,), offset=30.0, t_max=10.0)
    u0 = pl.initial_data(cfg)
    b = dg.relative_entropy(u0, cfg.epsilon, standard_potential, traj,
                            cfg.cutoff, cfg.grid, 0.0)
    assert b.rel_entropy == pytest.approx(b.gl_energy, abs=1e-12)
    assert b.gl_energy == pytest.approx(2.0, abs=1e-2)


def test_initial_entropy_against_quadrature_oracle(standard_potential,
                                                   profile):
    # only the cutoff term survives for the exact profile:
    # E(0) = int (1 - eta(x)) theta'(x/eps)^2 / eps dx
    r_c = 0.5
    cut = pl.CutoffSpec(r_c=r_c)
    ks = []
    for eps in (0.05, 0.025):
        cfg = make_plane_config(standard_potential, profile, eps=eps,
                                h_over_eps=32, r_c=r_c)
        u0 = pl.initial_data(cfg)
        b = dg.relative_entropy(u0, eps, standard_potential, cfg.trajectory,
                                cfg.cutoff, cfg.grid, 0.0)
        oracle, _ = quad(
            lambda x: (1.0 - cut.eta(x)) * dtheta_exact(x / eps) ** 2 / eps,
            -0.5, 0.5, limit=400)
        assert b.rel_entropy == pytest.approx(oracle, rel=0.05)
        ks.append(b.rel_entropy / eps ** 2)
    assert abs(ks[0] - ks[1]) / ks[0] < 0.05


def test_coercivity_trivial_and_profile(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    b = dg.relative_entropy(np.ones(cfg.grid.shape), cfg.epsilon,
                            standard_potential, cfg.trajectory, cfg.cutoff,
                            cfg.grid, 0.0)
    assert dg.coercivity_check(b, cfg.cutoff).passed

    u0 = pl.initial_data(cfg)
    b = dg.relative_entropy(u0, cfg.epsilon, standard_potential,
                            cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
    rep = dg.coercivity_check(b, cfg.cutoff)
    assert rep.passed, rep.violations()
    assert b.equipartition_defect <= 2.0 * b.rel_entropy


def test_coercivity_on_rough_fields(standard_potential, profile):
    # the four controls are pointwise algebra, so they must hold for any
    # field, not only near-profile ones
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    rng = np.random.default_rng(42)
    r = cfg.grid.axis
    for _ in range(5):
        coeffs = rng.normal(size=4)
        u = np.tanh(coeffs[0] + coeffs[1] * np.sin(3 * r)
                    + coeffs[2] * np.cos(7 * r) + coeffs[3] * r)
        b = dg.relative_entropy(u, cfg.epsilon, standard_potential,
                                cfg.trajectory, cfg.cutoff, cfg.grid, 0.1)
        rep = dg.coercivity_check(b, cfg.cutoff, slack=1.0 + 1e-12)
        assert rep.passed, rep.violations()
        assert b.rel_entropy >= dg.ENTROPY_FLOOR


def test_young_absorption_pointwise(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    rng = np.random.default_rng(1)
    u = np.tanh(rng.normal(size=3) @ np.stack([
        np.sin(2 * cfg.grid.axis), np.cos(5 * cfg.grid.axis),
        cfg.grid.axis]))
    d = dg.derived_fields(u, cfg.epsilon, standard_potential, cfg.grid)
    eps = cfg.epsilon
    defect2 = (np.sqrt(eps) * d.gmag - d.sqrt2w / np.sqrt(eps)) ** 2
    lhs = eps * d.gmag ** 2
    rhs = 2.0 * d.grad_psi_mag + 2.0 * defect2
    assert np.all(lhs <= rhs + 1e-10)


def test_psi_bounded_on_snapshots(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4, t_end=0.02)
    res = pl.run(cfg)
    d = dg.derived_fields(res.final_field, cfg.epsilon, standard_potential,
                          cfg.grid)
    assert np.max(np.abs(d.psi)) <= 1.0


def test_interface_errors_exact_indicator(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    dist = cfg.trajectory.radius(0.0) - cfg.grid.axis
    u = np.where(dist >= 0.0, 1.0, -1.0)   # psi(u) = chi exactly
    b = row(u, cfg, s0=cfg.cutoff.r_c / 4)
    assert b.err_l1 == 0.0
    assert b.err_weighted == 0.0


def test_interface_errors_profile_oracle(standard_potential, profile):
    # substitution x = eps*s: err_L1 = eps * int |psi(theta(s)) - sign(s)| ds
    eps = 0.05
    cfg = make_plane_config(standard_potential, profile, eps=eps,
                            h_over_eps=64)
    b = row(pl.initial_data(cfg), cfg, s0=cfg.cutoff.r_c / 4)
    err_l1, err_w = b.err_l1, b.err_weighted
    half, _ = quad(lambda s: 1.0 - psi_exact(theta_exact(s)), 0.0, 30.0,
                   limit=400)
    oracle = 2.0 * eps * half
    assert err_l1 == pytest.approx(oracle, abs=1e-5)
    assert 0.0 <= err_w <= err_l1 + 1e-15


def test_identity_rhs_zero_on_uniform(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    b = dg.relative_entropy(np.ones(cfg.grid.shape), cfg.epsilon,
                            standard_potential, cfg.trajectory, cfg.cutoff,
                            cfg.grid, 0.0, with_identity=True)
    assert b.identity_rhs == pytest.approx(0.0, abs=1e-20)


def test_identity_residual_fill():
    rows = [dg.EntropyBreakdown(t=float(j), gl_energy=0.0, dissipation=0.0,
                                rel_entropy=float(j) ** 2,
                                equipartition_defect=0.0, misalignment=0.0,
                                tilt_excess=0.0, dist_weighted_energy=0.0,
                                defect_sq_curvature=0.0,
                                defect_sq_velocity=0.0, err_l1=0.0,
                                err_weighted=0.0, identity_rhs=2.0 * j)
            for j in range(5)]
    dg.fill_identity_residuals(rows)
    assert math.isnan(rows[0].identity_residual)
    assert math.isnan(rows[-1].identity_residual)
    # centered difference of t^2 equals 2t exactly: residual 0
    for row in rows[1:-1]:
        assert row.identity_residual == pytest.approx(0.0, abs=1e-12)


def test_csv_rendering_fixed_columns():
    row = dg.EntropyBreakdown(t=0.1, gl_energy=1.0, dissipation=2.0,
                              rel_entropy=0.5, equipartition_defect=0.1,
                              misalignment=0.2, tilt_excess=0.3,
                              dist_weighted_energy=0.4,
                              defect_sq_curvature=0.05,
                              defect_sq_velocity=0.06, err_l1=0.07,
                              err_weighted=0.08)
    text = dg.rows_to_csv([row])
    header, body = text.strip().split("\n")
    assert header == ",".join(dg.CSV_HEADER)
    assert "err_L1" in header
    assert body.split(",")[0] == "0.1"
    assert body.split(",")[-1] == "nan"
    assert dg.rows_to_csv([row]) == text   # deterministic
