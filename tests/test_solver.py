import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded

import phaselab as pl
from phaselab import config
from phaselab.grids import _band_halo, _radial_diagonals, _radial_system
from phaselab.potentials import count_excursions, dw
from phaselab.solver import BlowUpError, ConfigError

from conftest import (make_circle_config, make_plane_config, stepped,
                      whole_solver)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_initial_data_matches_profile(profile):
    cfg = make_plane_config(profile)
    u0 = pl.initial_data(cfg)
    expected = profile(cfg.grid.axis / cfg.epsilon)
    assert np.array_equal(u0, expected)
    assert np.max(np.abs(u0)) <= 1.0
    far = np.abs(cfg.grid.axis) >= 10 * cfg.epsilon
    assert np.all(np.abs(u0[far]) >= 1.0 - 1e-6)


def test_initial_data_zero_on_interface(profile):
    # radial grid with a node exactly on the circle
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4)
    u0 = pl.initial_data(cfg)
    node = np.argmin(np.abs(cfg.grid.axis - 1.0))
    assert cfg.grid.axis[node] == pytest.approx(1.0, abs=1e-12)
    assert u0[node] == pytest.approx(0.0, abs=1e-12)


def stepper_configs(prof):
    """Full grids d = 1, 2 and the radial line d = 2..6, whose axis blocks
    have one node (d <= 4) or two (d = 5, 6).  Spheres with d >= 4 need
    t_max = 0.05 to pass the extinction guard."""
    return [make_plane_config(prof), make_plane_config(prof, dim=2)
            ] + [make_circle_config(prof, half_width=1.4, dim=dim,
                                    t_max=0.22 if dim <= 3 else 0.05)
                 for dim in range(2, 7)]


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_uniform_states_are_fixed_points(profile, value):
    for cfg in stepper_configs(profile):
        u = np.full(cfg.grid.shape, value)
        assert np.max(np.abs(stepped(cfg, u) - value)) < 1e-12


def test_step_leaves_its_input_unchanged(profile):
    # a block's steps read the previous row while they write the next; the
    # first step of a band reads its values in the whole field
    for cfg in stepper_configs(profile):
        u = pl.initial_data(cfg)
        band = cfg.grid.band_solver(cfg.dt_actual())
        v = u[band.place(u)]
        before = u.copy()
        out = np.empty_like(v)
        v_next = pl.make_stepper(cfg)(v, out, band)
        assert np.array_equal(u, before)
        assert v_next is out
        assert not np.shares_memory(v_next, u)


def test_step_is_the_solve_of_the_reaction_right_side(profile):
    # the cubic right side with the weight folded in is u - c W'(u) as the
    # diagnostics evaluate it, up to roundoff
    rng = np.random.default_rng(7)
    for cfg in stepper_configs(profile):
        u = pl.initial_data(cfg) + rng.uniform(-0.05, 0.05, cfg.grid.shape)
        dt = cfg.dt_actual()
        weight, solve = whole_solver(cfg.grid, dt)
        want = solve(weight * (u - dt / cfg.epsilon ** 2 * dw(u)))
        got = stepped(cfg, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, h_over_eps", [(2, 8), (2, 16), (3, 8),
                                             (4, 8), (5, 8), (6, 8)])
def test_radial_step_matches_banded_oracle(profile, dim, h_over_eps):
    # the band is I - dt L for the stencil of Grid.laplacian; each step
    # solves it to roundoff, and 200 steps track solve_banded on that band
    cfg = make_circle_config(profile, eps=0.08,
                             half_width=1.4, h_over_eps=h_over_eps, dim=dim,
                             t_max=0.22 if dim <= 3 else 0.05)
    dt, eps2 = cfg.dt_actual(), cfg.epsilon ** 2
    lower, diag, upper = _radial_diagonals(cfg.grid, dt)
    n = cfg.grid.npts
    band = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    lap = np.column_stack([cfg.grid.laplacian(e) for e in np.eye(n)])
    np.testing.assert_allclose(band, np.eye(n) - dt * lap, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(band)))
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    # the axis block: node 0 alone for d <= 4, nodes 0 and 1 for d = 5, 6
    assert len(_radial_system(cfg.grid, dt)[0]) == (1 if dim <= 4 else 2)

    u = v = pl.initial_data(cfg)
    for _ in range(200):
        rhs = u - (dt / eps2) * dw(u)
        u = stepped(cfg, u)
        assert np.max(np.abs(band @ u - rhs)) <= 1e-13 * np.max(np.abs(rhs))
        v = solve_banded((1, 1), ab, v - (dt / eps2) * dw(v))
    assert np.max(np.abs(u - v)) <= 1e-12
    assert np.max(np.abs(u - pl.initial_data(cfg))) > 1e-3   # it moved


@pytest.mark.parametrize("dim, npts, dt, cause", [
    (2, 141, -1e-3, "non-positive axis pivot"),
    (2, 141, -2.3e-5, "not positive definite"),
    (343, 2001, 1e-5, "weights are not finite")])
def test_radial_factorization_failure_is_loud(dim, npts, dt, cause):
    # I - dt L with dt < 0 is indefinite, and the weights grow like
    # r^(d-1), past the float range at the largest radial dim: each failure
    # of the factorization names its cause
    grid = pl.Grid(mode="radial", dim=dim, half_width=1.4, npts=npts)
    with pytest.raises(np.linalg.LinAlgError, match=cause):
        grid.band_solver(dt)


def full_line_stepper(cfg):
    """The step on every node: the weighted cubic right side
    ((top u) u + lin) u solved on the whole grid by whole_solver, the
    oracle of the band step."""
    dt = cfg.dt_actual()
    weight, solve = whole_solver(cfg.grid, dt)
    c = -dt / cfg.epsilon ** 2
    top, lin = weight * (c * 4.5), weight * (c * -4.5 + 1.0)

    def step(u, out):
        np.multiply(top, u, out=out)
        np.multiply(out, u, out=out)
        np.add(out, lin, out=out)
        np.multiply(out, u, out=out)
        out[...] = solve(out)
        return out
    return step


def finest_member_config(prof):
    """The shipped circle sweep's eps = 0.02 member: 2,241 nodes."""
    return make_circle_config(prof, eps=0.02, radius0=2.0,
                              half_width=2.8, h_over_eps=16,
                              dt_over_eps2=320)


def full_line_stepped(step, u, steps):
    """u after steps steps of the whole-line step, written into two buffers
    in turn."""
    buffers = [np.empty_like(u), np.empty_like(u)]
    for k in range(steps):
        u = step(u, buffers[k % 2])
    return u


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_band_over_the_whole_line_is_the_full_step(profile, dim):
    # a field that is nowhere flat makes the band the whole line, whose
    # step is the full-line step bit for bit
    cfg = make_circle_config(profile, half_width=1.4,
                             dim=dim, t_max=0.22 if dim <= 3 else 0.05)
    u = np.random.default_rng(dim).uniform(-0.5, 0.5, cfg.grid.shape)
    assert cfg.grid.band_solver(cfg.dt_actual()).place(u) \
        == slice(0, cfg.grid.npts)
    want = full_line_stepped(full_line_stepper(cfg), u, 20)
    assert np.array_equal(stepped(cfg, u, 20), want)


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_radial_wells_step_to_themselves(profile, value):
    # every node flat: the band is empty and nothing moves, not even by
    # roundoff
    for cfg in stepper_configs(profile)[2:]:
        u = np.full(cfg.grid.shape, value)
        assert cfg.grid.band_solver(cfg.dt_actual()).place(u) == slice(0, 0)
        assert np.array_equal(stepped(cfg, u, 3), u)


def test_band_tracks_the_full_line_on_the_finest_member(profile):
    # the eps = 0.02 member's layer is a few hundred of 2,241 nodes; its
    # band steps stay at roundoff from the full line's
    cfg = finest_member_config(profile)
    u = pl.initial_data(cfg)
    n, band_of = cfg.grid.npts, cfg.grid.band_solver(cfg.dt_actual()).place
    assert band_of(u).stop - band_of(u).start < n / 2
    got = stepped(cfg, u, 2000)
    want = full_line_stepped(full_line_stepper(cfg), u, 2000)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got - u)) > 1e-4   # it moved
    assert 0 < band_of(got).start and band_of(got).stop < n


@pytest.mark.parametrize("radius0", [0.5, 0.75])
def test_band_near_the_axis_matches_the_full_line(profile, radius0):
    # d = 5 has a two-node axis block: a sphere of radius 0.5 has a band
    # from node 0 that keeps the block's Thomas steps, one of radius 0.75 a
    # band from node 20 whose frozen inner neighbour sits where the radial
    # drift is strongest; both end before the outer node
    cfg = make_circle_config(profile, eps=0.04,
                             radius0=radius0, half_width=2.0, dim=5,
                             t_max=0.01)
    u = pl.initial_data(cfg)
    band = cfg.grid.band_solver(cfg.dt_actual()).place(u)
    assert band.start == (0 if radius0 == 0.5 else 20)
    assert band.stop < cfg.grid.npts
    got = stepped(cfg, u, 200)
    want = full_line_stepped(full_line_stepper(cfg), u, 200)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got - u)) > 1e-3


def test_alternating_bands_step_as_the_full_line(profile):
    # fields whose layers lie 0.1 apart give different bands, so alternating
    # them makes every step place and factor its band anew; a band placed
    # after that back and forth steps near as the whole line does
    cfg = finest_member_config(profile)
    near = pl.initial_data(cfg)
    far = pl.initial_data(replace(cfg, trajectory=pl.SphereInterface(
        center=(0.0, 0.0), radius0=1.9, dim=2, t_max=0.22)))
    band_of = cfg.grid.band_solver(cfg.dt_actual()).place
    assert band_of(near) != band_of(far)
    band = cfg.grid.band_solver(cfg.dt_actual())
    step, out = pl.make_stepper(cfg), np.empty_like(near)

    def placed_step(u):
        v = u[band.place(u)]
        return step(v, out[:v.size], band)
    for _ in range(3):
        for u in (near, far):
            placed_step(u)
    want = full_line_stepper(cfg)(near, np.empty_like(near))
    got = near.copy()
    got[band.rows] = placed_step(near)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_profile_single_step_residual_halves(profile):
    # theta is an exact continuum steady state; one step moves the sampled
    # profile only by discretization error, shrinking ~4x per h-halving
    changes = []
    for h_over_eps in (8, 16):
        cfg = make_plane_config(profile, h_over_eps=h_over_eps)
        u0 = pl.initial_data(cfg)
        changes.append(float(np.max(np.abs(stepped(cfg, u0) - u0))))
    assert 3.0 <= changes[0] / changes[1] <= 5.0


def test_steady_profile_drift_ratio(profile):
    drifts = []
    for h_over_eps in (8, 16):
        cfg = make_plane_config(profile, h_over_eps=h_over_eps, t_end=0.1,
                                cadence=10 ** 6)
        res = pl.run(cfg)
        exact = profile(cfg.grid.axis / cfg.epsilon)
        drifts.append(float(np.max(np.abs(res.final_field - exact))))
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


def test_discrete_equilibrium_is_a_fixed_point_at_any_dt():
    # a fixed point of the step solves L u = W'(u) / eps^2, which holds no
    # dt: the equilibrium the step reaches from the odd profile on
    # plane1d.json's grid is left in place by a step of a quarter of its
    # dt (a Strang splitting's fixed points move with dt)
    doc = json.loads((CONFIGS / "plane1d.json").read_text())
    cfg, _ = config.build_simulation(doc, "simulate")
    u = pl.initial_data(cfg)
    for _ in range(1000):
        u, before = stepped(cfg, u), u
        if np.max(np.abs(u - before)) < 1e-14:
            break
    else:
        raise AssertionError("no discrete equilibrium within 1000 steps")
    quarter = replace(cfg, dt=cfg.dt / 4)
    assert np.max(np.abs(stepped(quarter, u) - u)) < 1e-13


def test_shrinking_circle_radius(profile):
    eps = 0.04
    cfg = make_circle_config(profile, eps=eps,
                             half_width=1.4, t_end=0.1, cadence=10 ** 6)
    res = pl.run(cfg)
    grid = cfg.grid
    u = res.final_field
    idx = np.where(np.diff(np.sign(u)) != 0)[0][0]
    r = grid.axis
    crossing = r[idx] - u[idx] * (r[idx + 1] - r[idx]) / (u[idx + 1] - u[idx])
    assert abs(crossing - np.sqrt(0.8)) <= 5 * eps


def test_stationary_plane_entropy_stays_bounded(profile):
    cfg = make_plane_config(profile, t_end=0.1)
    res = pl.run(cfg)
    entropy = res.rows["rel_entropy"]
    e0 = entropy[0]
    assert np.all((e0 / 2.0 <= entropy) & (entropy <= 2.0 * e0))


def test_run_bookkeeping(profile):
    cfg = make_plane_config(profile, t_end=0.0)
    res = pl.run(cfg)
    assert len(res.rows) == 1
    assert res.n_steps == 0

    cfg = make_plane_config(profile, cadence=1)
    cfg.t_end = 7 * cfg.dt
    res = pl.run(cfg)
    assert len(res.rows) == 8
    assert res.rows["t"][0] == 0.0
    assert res.rows["t"][-1] == pytest.approx(cfg.t_end)


def test_dt_adjusts_to_land_on_t_end(profile):
    cfg = make_plane_config(profile)
    cfg.t_end = 2.5 * cfg.dt
    assert cfg.steps() == 3
    assert cfg.dt_actual() * cfg.steps() == pytest.approx(cfg.t_end)
    assert cfg.dt_actual() <= cfg.dt


def test_clamp_counter_zero_on_standard_run(profile):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4, t_end=0.02)
    res = pl.run(cfg)
    assert res.clamp_count == 0


def unstable_plane_config(profile):
    """dt = eps^2 is 18x the reaction limit eps^2/(2 max W'')."""
    cfg = make_plane_config(profile, t_end=0.2)
    cfg.dt = cfg.epsilon ** 2
    return cfg


def test_blowup_guard(profile, monkeypatch):
    cfg = unstable_plane_config(profile)
    monkeypatch.setattr(pl.solver, "validate", lambda cfg: [])
    with pytest.raises(BlowUpError, match="step"):
        pl.run(cfg)


def test_validation_layer_resolution(profile):
    cfg = make_plane_config(profile, h_over_eps=2)
    issues = pl.validate(cfg)
    assert any("layer resolution" in m for m in issues)
    with pytest.raises(ConfigError):
        pl.run(cfg)


def test_validation_collects_everything(profile):
    cfg = make_circle_config(profile, eps=0.08,
                             half_width=1.4, r_c=2.0, t_end=0.5)
    cfg.dt = 1.0
    issues = pl.validate(cfg)
    text = " ".join(issues)
    assert "r_c" in text
    assert "t_end" in text
    assert "stability" in text


@pytest.mark.parametrize("field", ["epsilon", "dt", "t_end"])
def test_validation_rejects_nan(profile, field):
    # each named by the key that sets it
    key = {"epsilon": "epsilon", "dt": "stepper.dt_over_eps2",
           "t_end": "stepper.t_end"}[field]
    cfg = make_plane_config(profile, t_end=0.001)
    setattr(cfg, field, np.nan)
    assert any(m.startswith(f"{key}: ") for m in pl.validate(cfg))


def sphere(center=(0.0, 0.0), t_max=0.22):
    return pl.SphereInterface(center=center, radius0=1.0, dim=len(center),
                              t_max=t_max)


# each trajectory rule of validate: (config, position in the issue list,
# exact message)
TRAJECTORY_RULES = {
    "r_c_below_min_radius": (lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.4, r_c=0.8), 0,
        "cutoff.r_c: must stay below the minimal sphere radius 0.748331 "
        "(r_c = 0.8)"),
    "extinction_guard_after_r_c": (lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.4, r_c=0.8), 1,
        "trajectory.t_max: extinction guard requires R(t_max) >= "
        "max(2 r_c, 4 eps) = 1.6 (R(t_max) = 0.748331)"),
    "extinction_guard": (lambda prof: replace(make_circle_config(
        prof, eps=0.08, half_width=1.4, t_end=0.1, r_c=0.05),
        trajectory=sphere(t_max=0.49)), 0,
        "trajectory.t_max: extinction guard requires R(t_max) >= "
        "max(2 r_c, 4 eps) = 0.32 (R(t_max) = 0.141421)"),
    "sphere_dim_mismatch": (lambda prof: replace(make_circle_config(
        prof, eps=0.08, half_width=1.4),
        trajectory=sphere(center=(0.0,) * 3, t_max=0.1)), 0,
        "trajectory.dim: must match grid dim"),
    "plane_normal_length": (lambda prof: replace(make_plane_config(
        prof), trajectory=pl.PlaneInterface(normal=(1.0, 0.0))), 0,
        "trajectory.normal: length must match grid dim"),
    "radial_needs_sphere": (lambda prof: replace(make_circle_config(
        prof, eps=0.08, half_width=1.4),
        trajectory=pl.PlaneInterface(normal=(1.0, 0.0))), 0,
        "grid.mode: radial mode requires a sphere trajectory"),
    # after the grid rules of validate itself
    "radial_needs_origin_sphere": (lambda prof: replace(
        make_circle_config(prof, eps=0.08, half_width=1.4, h_over_eps=2),
        trajectory=sphere(center=(0.1, 0.0))), 1,
        "grid.mode: radial mode requires the sphere centered at the origin"),
}


@pytest.mark.parametrize("case", list(TRAJECTORY_RULES))
def test_validation_trajectory_rules(profile, case):
    make, position, message = TRAJECTORY_RULES[case]
    issues = pl.validate(make(profile))
    assert issues[position] == message, issues


FLATNESS_CASES = {
    "plane1d_narrow": (lambda prof: make_plane_config(
        prof, eps=0.05, half_width=0.15), True),
    # a circle shifted to leave 2 eps beyond the interface on one face only
    "full2d_circle_narrow": (lambda prof: replace(
        make_circle_config(prof, eps=0.1, half_width=1.6, h_over_eps=4,
                           mode="full"),
        trajectory=pl.SphereInterface(center=(0.4, 0.0), radius0=1.0, dim=2,
                                      t_max=0.22)), True),
    "radial_circle_narrow": (lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.2), True),
    # the faces y = +-L cross the interface x = 0 and are exempt
    "plane2d_parallel_faces": (lambda prof: make_plane_config(
        prof, dim=2), False), }


@pytest.mark.parametrize("case", list(FLATNESS_CASES))
def test_validation_boundary_flatness(profile, case):
    make, flagged = FLATNESS_CASES[case]
    issues = pl.validate(make(profile))
    assert any("flat at the boundary" in m for m in issues) == flagged
    if not flagged:
        assert issues == []


INITIAL_DATA_CASES = {
    "full2d_circle": lambda prof: make_circle_config(
        prof, eps=0.1, half_width=1.4, h_over_eps=4, mode="full"),
    "full2d_circle_off_centre": lambda prof: replace(
        make_circle_config(prof, eps=0.1, half_width=1.6, h_over_eps=4,
                           mode="full"),
        trajectory=pl.SphereInterface(center=(0.13, -0.21), radius0=1.0,
                                      dim=2, t_max=0.22)),
    "radial_circle_d2": lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.4),
    "radial_sphere_d3": lambda prof: make_circle_config(
        prof, eps=0.08, half_width=1.4, dim=3),
    "plane1d": lambda prof: make_plane_config(prof),
    "tilted_plane2d": lambda prof: replace(
        make_plane_config(prof, eps=0.1, half_width=1.0, h_over_eps=4, dim=2),
        trajectory=pl.PlaneInterface(normal=(0.6, 0.8), offset=0.1)),
}


@pytest.mark.parametrize("case", sorted(INITIAL_DATA_CASES))
def test_initial_data_reads_the_diagnostics_distance(profile, case):
    # the initial data and the diagnostics' interface fields read one
    # signed distance: theta(dist / eps) agrees bit for bit, and the tube
    # of the interface fields is the cutoff's on that distance
    cfg = INITIAL_DATA_CASES[case](profile)
    dist = pl.interface_distance(cfg.trajectory, cfg.grid, 0.0)
    ef = pl.extended_fields(cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
    assert np.array_equal(ef.tube, np.flatnonzero(cfg.cutoff.in_tube(dist)))
    assert np.array_equal(pl.initial_data(cfg),
                          cfg.profile(dist / cfg.epsilon))


def stepper_writing(field):
    """A make_stepper stand-in whose step writes field into out (on full
    grids, whose band is the whole grid)."""
    def step(v, out, band):
        out[...] = field
        return out
    return lambda cfg: step


def test_clamp_counter_counts_excursions(profile, monkeypatch):
    cfg = make_plane_config(profile, cadence=1)
    cfg.t_end = 3 * cfg.dt
    n = cfg.grid.npts
    excursion = np.where(np.arange(n) < n // 4, -1.5, 0.5)
    excursion[-1] = 1.0 + 1e-6
    monkeypatch.setattr(pl.solver, "make_stepper", stepper_writing(excursion))
    assert pl.run(cfg).clamp_count == 3 * (n // 4 + 1)


def test_run_records_step_time_and_max_abs_u(profile, monkeypatch):
    cfg = make_circle_config(profile, eps=0.08, half_width=1.4, t_end=0.02)
    res = pl.run(cfg)
    assert 0.0 < res.step_s and res.rows_s + res.step_s < res.wall_s
    assert res.final_field.flags.owndata   # not a view into a step buffer
    seen = max(float(np.max(np.abs(u)))
               for u in (pl.initial_data(cfg), res.final_field))
    assert seen <= res.max_abs_u <= 1.0 + 1e-12

    # max_abs_u comes from the guard's min and max of every step
    cfg = make_plane_config(profile, cadence=1)
    cfg.t_end = 3 * cfg.dt
    excursion = np.where(np.arange(cfg.grid.npts) < 5, -1.5, 0.5)
    monkeypatch.setattr(pl.solver, "make_stepper", stepper_writing(excursion))
    assert pl.run(cfg).max_abs_u == 1.5


def test_blowup_guard_catches_nan(profile, monkeypatch):
    cfg = make_plane_config(profile, t_end=0.001)
    monkeypatch.setattr(pl.solver, "make_stepper", stepper_writing(np.nan))
    with pytest.raises(BlowUpError, match="not finite"):
        pl.run(cfg)


@pytest.mark.parametrize("value, outcome", [
    (np.nan, "not finite"), (-3.0, "left"), (1.5, 2), (-1.0 - 1e-6, 2)])
def test_guard_reads_the_whole_2d_field(profile, monkeypatch, value, outcome):
    # one bad cell in the last row, away from column 0: a reduce over axis 0
    # alone would not see it as the field's min or max
    cfg = make_plane_config(profile, dim=2, cadence=1)
    cfg.t_end = 2 * cfg.dt
    field = np.zeros(cfg.grid.shape)
    field[-1, 5] = value
    monkeypatch.setattr(pl.solver, "make_stepper", stepper_writing(field))
    if isinstance(outcome, str):
        with pytest.raises(BlowUpError, match=outcome):
            pl.run(cfg)
    else:
        res = pl.run(cfg)
        assert res.clamp_count == outcome
        assert res.max_abs_u == abs(value)


def per_step_guard(cfg, fields):
    """The guard as a loop over single steps: (clamp_count, max_abs_u, row
    times) of a run whose steps give fields, or its BlowUpError message."""
    n, dt = cfg.steps(), cfg.dt_actual()
    u = pl.initial_data(cfg)
    clamps, max_abs_u, times = 0, float(np.max(np.abs(u))), [0.0]
    for k in range(1, n + 1):
        u = fields[k - 1]
        lo, hi = float(np.min(u)), float(np.max(u))
        if not (-2.0 <= lo and hi <= 2.0):
            return (f"max |u| = {max(hi, -lo):.3f} at step {k} (t = "
                    f"{k * dt:.6g}): the field left [-2, 2] or is not finite")
        max_abs_u = max(max_abs_u, hi, -lo)
        clamps += count_excursions(u)
        if k % cfg.cadence == 0 or k == n:
            times.append(k * dt)
    return clamps, max_abs_u, times


def replayed_steps(fields):
    """A make_stepper stand-in whose k-th step writes fields[k - 1] into
    out, after checking that it reads the field the step before wrote."""
    def make(cfg):
        calls = iter(range(len(fields)))
        prev = [pl.initial_data(cfg)]

        def step(u, out, band):
            assert np.array_equal(u, prev[0], equal_nan=True)
            assert not np.shares_memory(u, out)
            out[...] = fields[next(calls)]
            prev[0] = out.copy()
            return out
        return step
    return make


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cadence=st.integers(1, 7), n_steps=st.integers(0, 40),
       block_rows=st.integers(1, 5), spare_bytes=st.integers(0, 1279),
       events=st.lists(st.tuples(
           st.integers(1, 40), st.integers(0, 159),
           st.sampled_from([1.5, -1.5, 3.0, -3.0, np.nan])), max_size=6))
def test_block_guard_matches_the_per_step_guard(profile,
                                                cadence, n_steps, block_rows,
                                                spare_bytes, events):
    # blocks of 1-5 steps that end at every row report what a guard after
    # every single step reports: clamps, max |u|, rows, the first bad step
    cfg = make_plane_config(profile, cadence=cadence)
    cfg.t_end = n_steps * cfg.dt
    assert cfg.steps() == n_steps and cfg.grid.shape == (160,)
    fields = [np.full(cfg.grid.shape, 0.25) for _ in range(n_steps)]
    for k, cell, value in events:
        if k <= n_steps:
            fields[k - 1][cell] = value
    want = per_step_guard(cfg, fields)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl.solver, "BLOCK_BYTES",
                   block_rows * fields[0].nbytes + spare_bytes
                   if fields else 1)
        mp.setattr(pl.solver, "make_stepper", replayed_steps(fields))
        try:
            res = pl.run(cfg)
            got = (res.clamp_count, res.max_abs_u, res.rows["t"].tolist())
        except BlowUpError as err:
            got = str(err)
    assert got == want


def banded_member_config(prof):
    """The shipped circle sweep's eps = 0.04 member: 1,121 nodes, a band of
    371 that ends inside the line on both sides."""
    return make_circle_config(prof, eps=0.04, radius0=2.0,
                              half_width=2.8, h_over_eps=16,
                              dt_over_eps2=320)


def replayed_band_steps(events, seen):
    """A make_stepper stand-in on the radial line whose k-th step writes the
    band's values of the whole field the step before left, with the values
    of the events (step, node, value) of step k set at their nodes, after
    checking that it reads that field's band.  A node counts from the
    band's edges: "lo" and "hi" are its first and last nodes, "mid" its
    middle, "watch_lo" and "watch_hi" the nodes a quarter halo inside them
    whose leaving flatness places the band anew.  seen gets each step's
    whole field."""
    def make(cfg):
        line = [pl.initial_data(cfg)]
        quarter = _band_halo(cfg.grid.h, cfg.dt_actual()) // 4
        calls = iter(range(1, 10 ** 6))

        def step(v, out, band):
            k, lo, hi = next(calls), band.rows.start, band.rows.stop
            assert np.array_equal(v, line[0][band.rows], equal_nan=True)
            assert not np.shares_memory(v, out)
            nodes = {"lo": lo, "hi": hi - 1, "mid": (lo + hi) // 2,
                     "watch_lo": lo + quarter, "watch_hi": hi - 1 - quarter}
            whole = line[0].copy()
            for at, node, value in events:
                if at == k:
                    whole[nodes[node]] = value
            out[...] = whole[band.rows]
            line[0] = whole
            seen.append(whole)
            return out
        return step
    return make


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cadence=st.integers(1, 7), n_steps=st.integers(0, 30),
       block_rows=st.integers(1, 5), spare_bytes=st.integers(0, 2927),
       events=st.lists(st.tuples(
           st.integers(1, 30),
           st.sampled_from(["lo", "hi", "mid", "watch_lo", "watch_hi"]),
           st.sampled_from([0.0, 1.5, -1.5, 3.0, -3.0, np.nan])),
           max_size=6))
@example(cadence=5, n_steps=12, block_rows=4, spare_bytes=0,
         events=[(3, "watch_lo", 0.0), (4, "lo", np.nan)])
@example(cadence=5, n_steps=12, block_rows=4, spare_bytes=0,
         events=[(2, "watch_hi", 1.5), (3, "hi", 3.0)])
@example(cadence=3, n_steps=12, block_rows=2, spare_bytes=7,
         events=[(5, "watch_hi", -1.5), (6, "mid", -3.0)])
@example(cadence=7, n_steps=9, block_rows=5, spare_bytes=0,
         events=[(1, "watch_lo", 0.0), (2, "watch_lo", 1.5), (9, "hi", 1.5)])
def test_band_guard_matches_the_whole_line_guard(profile,
                                                 cadence, n_steps, block_rows,
                                                 spare_bytes, events):
    # blocks of band rows, which end at every row and at every new band,
    # report what a guard over the whole line after every single step
    # reports: clamps, max |u|, rows, the first bad step; values off the
    # wells at a watched node place the band anew before the next step
    cfg = banded_member_config(profile)
    cfg.cadence, cfg.t_end = cadence, n_steps * cfg.dt
    assert cfg.steps() == n_steps and cfg.grid.npts == 1121
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl.solver, "BLOCK_BYTES",
                   block_rows * 371 * 8 + spare_bytes)
        mp.setattr(pl.solver, "make_stepper",
                   replayed_band_steps(events, seen))
        try:
            res = pl.run(cfg)
            got = (res.clamp_count, res.max_abs_u, res.rows["t"].tolist())
            assert np.array_equal(res.final_field,
                                  seen[-1] if seen else pl.initial_data(cfg))
        except BlowUpError as err:
            got = str(err)
    assert got == per_step_guard(cfg, seen)


def test_frozen_bulk_sets_max_abs_u(profile, monkeypatch):
    # the outer node, 5e-13 off the well and so frozen in the bulk, lies
    # above every value the band takes: the band-only guard must still
    # report it as the run's max |u|
    cfg = banded_member_config(profile)
    cfg.t_end = 0.001
    u0 = pl.initial_data(cfg)
    u0[-1] = np.copysign(1.0 + 5e-13, u0[-1])
    monkeypatch.setattr(pl.solver, "initial_data", lambda cfg: u0.copy())
    band = cfg.grid.band_solver(cfg.dt_actual()).place(u0)
    assert band.stop < cfg.grid.npts and band.stop - band.start < 400
    res = pl.run(cfg)
    assert res.final_field[-1] == u0[-1]
    assert np.max(np.abs(res.final_field[:-1])) < 1.0 + 5e-13
    assert res.max_abs_u == 1.0 + 5e-13


def test_run_steps_as_the_band_contract(profile, monkeypatch):
    # between rows a run carries only the band's values, writing the whole
    # field at rows, new bands and the end: its final field is bit for bit
    # that of the band steps, new bands included
    cfg = make_circle_config(profile, eps=0.04,
                             radius0=2.0, half_width=2.8, h_over_eps=16,
                             dt_over_eps2=320, t_end=0.02, cadence=160)
    places = []
    place = pl.grids._RadialBand.place

    def counted(band, u):
        places.append(place(band, u))
        return places[-1]
    monkeypatch.setattr(pl.grids._RadialBand, "place", counted)
    res = pl.run(cfg)
    # band_nodes_max counts the nodes a step solved: the widest band placed
    widest = max(rows.stop - rows.start for rows in places)
    assert len(places) >= 2 and res.band_nodes_max == widest < cfg.grid.npts
    want = stepped(cfg, pl.initial_data(cfg), cfg.steps())
    assert np.array_equal(res.final_field, want)
    # on a full grid every step solves every cell
    full = make_circle_config(profile, eps=0.16, mode="full")
    full.t_end = 2 * full.dt
    assert pl.run(full).band_nodes_max == full.grid.npts ** 2


def test_blowup_mid_block_overflow_names_the_first_step(profile, monkeypatch):
    # step 4 leaves [-2, 2]; steps 5 and 6 of the same block scale the field
    # by 1e200, so step 6 overflows to inf before the block is checked
    cfg = make_plane_config(profile, cadence=100)
    cfg.t_end = 10 * cfg.dt
    calls = []

    def step(u, out, band):
        calls.append(None)
        k = len(calls)
        if k < 4:
            out[...] = 0.25
        elif k == 4:
            out[...] = 3.0
        else:
            np.multiply(u, 1e200, out=out)
        return out
    monkeypatch.setattr(pl.solver, "make_stepper", lambda cfg: step)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as err:
            pl.run(cfg)
    assert str(err.value) == (
        f"max |u| = 3.000 at step 4 (t = {4 * cfg.dt_actual():.6g}): the "
        f"field left [-2, 2] or is not finite")
    assert len(calls) == 10   # the block ran to its end before the check


@pytest.mark.parametrize("mode, steps", [("radial", 200), ("full", 5)])
def test_steps_allocate_no_field(profile, mode, steps):
    # 2,241 radial nodes (the finest sweep member) and the 280^2 full grid:
    # into a preallocated out, a step allocates far less than one field
    if mode == "radial":
        cfg = make_circle_config(profile, eps=0.02,
                                 radius0=2.0, half_width=2.8, h_over_eps=16)
    else:
        cfg = make_circle_config(profile, eps=0.08,
                                 half_width=1.4, mode="full")
    assert cfg.grid.npts == (2241 if mode == "radial" else 280)
    band = cfg.grid.band_solver(cfg.dt_actual())
    step = pl.make_stepper(cfg)
    u = pl.initial_data(cfg)
    v = u[band.place(u)]
    v, out = step(v, np.empty_like(v), band), np.empty_like(v)
    # the first call may build caches
    tracemalloc.start()
    try:
        for _ in range(steps):
            v, out = step(v, out, band), v
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes / 10, peak


def test_run_rows_cost_their_table_row(profile):
    # each row is copied into the run's float64 table as it is measured, so
    # a run retains about 112 B a row (14 float64s) besides its final field;
    # about 480 B a row when every row kept its own object of Python floats
    cfg = make_circle_config(profile, eps=0.08,
                             half_width=1.4, cadence=1, dt_over_eps2=80)
    cfg.t_end = 1000 * cfg.dt
    pl.run(replace(cfg, t_end=10 * cfg.dt))   # the first run builds caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = pl.run(cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_rows = len(cfg.row_steps())
    assert n_rows == 1001
    per_row = (retained - res.final_field.nbytes) / n_rows
    assert per_row <= 200, per_row


def test_row_times_are_the_run_rows(profile):
    # check-identities reads the shared times off row_times before any run
    # and matches them exactly: t_end = 0, every step a row, a last interval
    # shorter than the cadence, and a cadence beyond the last step
    for cadence, t_end, n_steps, n_rows in [
            (10, 0.0, 0, 1), (1, 0.0005, 4, 5), (7, 0.004, 32, 6),
            (10, 0.004, 32, 5), (100, 0.004, 32, 2)]:
        cfg = make_plane_config(profile, cadence=cadence, t_end=t_end)
        assert (cfg.steps(), len(cfg.row_times())) == (n_steps, n_rows)
        assert cfg.row_times() == pl.run(cfg).rows["t"].tolist()


def test_blowup_reported_with_time(profile, monkeypatch):
    cfg = unstable_plane_config(profile)
    monkeypatch.setattr(pl.solver, "validate", lambda cfg: [])
    with pytest.raises(BlowUpError, match="t ="):
        pl.run(cfg)


def test_snapshot_roundtrip(tmp_path, profile):
    from phaselab.snapshots import read_snapshot, write_snapshot
    cfg = make_plane_config(profile)
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


def test_snapshots_kept_at_cadence(tmp_path, profile):
    # run passes every row's field to its sink; simulate writes the field of
    # every k-th row (of the last row when snapshot_every is unset)
    from phaselab import cli
    from phaselab.snapshots import read_snapshot
    cfg = make_plane_config(profile, cadence=2)
    cfg.t_end = 6 * cfg.dt
    seen = []
    res = pl.run(cfg, sink=lambda row, t, u: seen.append((row, t, u.copy())))
    assert [row for row, _, _ in seen] == [0, 1, 2, 3]
    assert [t for _, t, _ in seen] == res.rows["t"].tolist()
    assert np.array_equal(seen[0][2], pl.initial_data(cfg))
    assert np.array_equal(seen[-1][2], res.final_field)
    for every, kept in ((1, seen), (2, seen[::2]), (None, seen[-1:])):
        out = tmp_path / str(every)
        cli._run_simulation(cfg, out, every)
        files = sorted((out / "snapshots").glob("*.bin"))
        assert len(files) == len(kept)
        for path, (_, t, u) in zip(files, kept):
            values, meta = read_snapshot(path)
            assert meta["t"] == t and np.array_equal(values, u)
    # the staging directories are gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1", "2", "None"]
