import numpy as np
import pytest
from scipy.linalg import solve_banded

import phaselab as pl
from phaselab.solver import BlowUpError, ConfigError, _radial_diagonals

from conftest import make_circle_config, make_plane_config


def test_initial_data_matches_profile(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile)
    u0 = pl.initial_data(cfg)
    expected = profile(cfg.grid.axis / cfg.epsilon)
    assert np.array_equal(u0, expected)
    assert np.max(np.abs(u0)) <= 1.0
    far = np.abs(cfg.grid.axis) >= 10 * cfg.epsilon
    assert np.all(np.abs(u0[far]) >= 1.0 - 1e-6)


def test_initial_data_zero_on_interface(standard_potential, profile):
    # radial grid with a node exactly on the circle
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    u0 = pl.initial_data(cfg)
    node = np.argmin(np.abs(cfg.grid.axis - 1.0))
    assert cfg.grid.axis[node] == pytest.approx(1.0, abs=1e-12)
    assert u0[node] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_uniform_states_are_fixed_points(standard_potential, profile, value):
    for maker, kw in ((make_plane_config, {}), (make_plane_config, {"dim": 2}),
                      (make_circle_config, {"half_width": 1.4})):
        cfg = maker(standard_potential, profile, **kw)
        step = pl.make_stepper(cfg)
        u = np.full(cfg.grid.shape, value)
        assert np.max(np.abs(step(u) - value)) < 1e-12


@pytest.mark.parametrize("dim, h_over_eps", [(2, 8), (2, 16), (3, 8)])
def test_radial_step_matches_banded_oracle(standard_potential, profile, dim,
                                           h_over_eps):
    # the band is I - dt L for the stencil of Grid.laplacian, and the
    # once-factored solve agrees bit for bit with solve_banded on that band
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4, h_over_eps=h_over_eps, dim=dim)
    dt, eps2, dw = cfg.dt_actual(), cfg.epsilon ** 2, cfg.potential.dw
    lower, diag, upper = _radial_diagonals(cfg.grid, dt)
    n = cfg.grid.npts
    band = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    lap = np.column_stack([cfg.grid.laplacian(e) for e in np.eye(n)])
    np.testing.assert_allclose(band, np.eye(n) - dt * lap, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(band)))
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower

    step = pl.make_stepper(cfg)
    u = v = pl.initial_data(cfg)
    for _ in range(200):
        u = step(u)
        v = solve_banded((1, 1), ab, v - (dt / eps2) * dw(v))
        assert np.array_equal(u, v)
    assert np.max(np.abs(u - pl.initial_data(cfg))) > 1e-3   # it moved


def test_profile_single_step_residual_halves(standard_potential, profile):
    # theta is an exact continuum steady state; one step moves the sampled
    # profile only by discretization error, shrinking ~4x per h-halving
    changes = []
    for h_over_eps in (8, 16):
        cfg = make_plane_config(standard_potential, profile,
                                h_over_eps=h_over_eps)
        step = pl.make_stepper(cfg)
        u0 = pl.initial_data(cfg)
        changes.append(float(np.max(np.abs(step(u0) - u0))))
    assert 3.0 <= changes[0] / changes[1] <= 5.0


def test_steady_profile_drift_ratio(standard_potential, profile):
    drifts = []
    for h_over_eps in (8, 16):
        cfg = make_plane_config(standard_potential, profile,
                                h_over_eps=h_over_eps, t_end=0.1,
                                cadence=10 ** 6)
        res = pl.run(cfg)
        exact = profile(cfg.grid.axis / cfg.epsilon)
        drifts.append(float(np.max(np.abs(res.final_field - exact))))
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


def test_shrinking_circle_radius(standard_potential, profile):
    eps = 0.04
    cfg = make_circle_config(standard_potential, profile, eps=eps,
                             half_width=1.4, t_end=0.1, cadence=10 ** 6)
    res = pl.run(cfg)
    grid = cfg.grid
    u = res.final_field
    idx = np.where(np.diff(np.sign(u)) != 0)[0][0]
    r = grid.axis
    crossing = r[idx] - u[idx] * (r[idx + 1] - r[idx]) / (u[idx + 1] - u[idx])
    assert abs(crossing - np.sqrt(0.8)) <= 5 * eps


def test_stationary_plane_entropy_stays_bounded(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, t_end=0.1)
    res = pl.run(cfg)
    e0 = res.breakdowns[0].rel_entropy
    for b in res.breakdowns:
        assert e0 / 2.0 <= b.rel_entropy <= 2.0 * e0


def test_run_bookkeeping(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, t_end=0.0)
    res = pl.run(cfg)
    assert len(res.breakdowns) == 1
    assert res.n_steps == 0

    cfg = make_plane_config(standard_potential, profile, cadence=1)
    cfg.t_end = 7 * cfg.dt
    res = pl.run(cfg)
    assert len(res.breakdowns) == 8
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(cfg.t_end)


def test_dt_adjusts_to_land_on_t_end(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile)
    cfg.t_end = 2.5 * cfg.dt
    assert cfg.steps() == 3
    assert cfg.dt_actual() * cfg.steps() == pytest.approx(cfg.t_end)
    assert cfg.dt_actual() <= cfg.dt


def test_clamp_counter_zero_on_standard_run(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4, t_end=0.02)
    res = pl.run(cfg)
    assert res.clamp_count == 0


def unstable_plane_config(standard_potential, profile):
    """dt = eps^2 is 18x the reaction limit eps^2/(2 max W'')."""
    cfg = make_plane_config(standard_potential, profile, t_end=0.2)
    cfg.dt = cfg.epsilon ** 2
    return cfg


def test_blowup_guard(standard_potential, profile):
    cfg = unstable_plane_config(standard_potential, profile)
    with pytest.raises(BlowUpError, match="step"):
        pl.run(cfg, _skip_validation=True)


def test_validation_layer_resolution(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, h_over_eps=2)
    issues = pl.validate(cfg)
    assert any("layer resolution" in m for m in issues)
    with pytest.raises(ConfigError):
        pl.run(cfg)


def test_validation_collects_everything(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4, r_c=2.0, t_end=0.5)
    cfg.dt = 1.0
    issues = pl.validate(cfg)
    text = " ".join(issues)
    assert "r_c" in text
    assert "t_end" in text
    assert "stability" in text


@pytest.mark.parametrize("field", ["epsilon", "dt", "t_end"])
def test_validation_rejects_nan(standard_potential, profile, field):
    cfg = make_plane_config(standard_potential, profile, t_end=0.001)
    setattr(cfg, field, np.nan)
    assert any(f"{field}: " in m for m in pl.validate(cfg))


def test_validation_extinction_guard(standard_potential, profile):
    traj = pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2,
                              t_max=0.49)
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4, t_end=0.1)
    cfg.trajectory = traj
    issues = pl.validate(cfg)
    assert any("extinction guard" in m for m in issues)


def test_validation_radial_needs_origin_sphere(standard_potential, profile):
    cfg = make_circle_config(standard_potential, profile, eps=0.08,
                             half_width=1.4)
    cfg.trajectory = pl.PlaneInterface(normal=(1.0, 0.0), offset=0.0,
                                       t_max=10.0)
    issues = pl.validate(cfg)
    assert any("radial mode requires a sphere" in m for m in issues)


def test_validation_boundary_flatness(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, eps=0.05,
                            half_width=0.15)
    issues = pl.validate(cfg)
    assert any("flat at the boundary" in m for m in issues)


def test_clamp_counter_counts_excursions(standard_potential, profile,
                                        monkeypatch):
    cfg = make_plane_config(standard_potential, profile, cadence=1)
    cfg.t_end = 3 * cfg.dt
    n = cfg.grid.npts
    excursion = np.where(np.arange(n) < n // 4, -1.5, 0.5)
    excursion[-1] = 1.0 + 1e-6
    monkeypatch.setattr(pl.solver, "make_stepper",
                        lambda cfg: lambda u: excursion.copy())
    assert pl.run(cfg).clamp_count == 3 * (n // 4 + 1)


def test_blowup_guard_catches_nan(standard_potential, profile, monkeypatch):
    cfg = make_plane_config(standard_potential, profile, t_end=0.001)
    monkeypatch.setattr(pl.solver, "make_stepper",
                        lambda cfg: lambda u: np.full_like(u, np.nan))
    with pytest.raises(BlowUpError, match="not finite"):
        pl.run(cfg)


def test_blowup_reported_with_time(standard_potential, profile):
    cfg = unstable_plane_config(standard_potential, profile)
    with pytest.raises(BlowUpError, match="t ="):
        pl.run(cfg, _skip_validation=True)


def test_snapshot_roundtrip(tmp_path, standard_potential, profile):
    from phaselab.snapshots import read_snapshot, write_snapshot
    cfg = make_plane_config(standard_potential, profile)
    u0 = pl.initial_data(cfg)
    path = tmp_path / "field.bin"
    write_snapshot(path, u0, h=cfg.grid.h, half_width=cfg.grid.half_width,
                   epsilon=cfg.epsilon, t=0.125, grid_mode=cfg.grid.mode,
                   dim=cfg.grid.dim)
    values, meta = read_snapshot(path)
    assert np.array_equal(values, u0)
    assert meta["epsilon"] == cfg.epsilon
    assert meta["t"] == 0.125
    assert meta["grid_mode"] == "full"
    assert (tmp_path / "field.bin.json").exists()


def test_snapshots_kept_at_cadence(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, cadence=2)
    cfg.t_end = 6 * cfg.dt
    res = pl.run(cfg, snapshot_every=1)
    assert len(res.snapshots) == len(res.breakdowns) == 4
    assert res.snapshots[0][0] == 0.0
    every_other = pl.run(cfg, snapshot_every=2)
    assert [t for t, _ in every_other.snapshots] == [0.0, res.times[2]]
    for (t, field), (t_all, field_all) in zip(every_other.snapshots,
                                              res.snapshots[::2]):
        assert t == t_all and np.array_equal(field, field_all)
