import math

import numpy as np
import pytest

import phaselab as pl
from phaselab.experiments import (DEFAULT_BANDS, SweepPlan, check_identities,
                                  fit_rate, gronwall_fit,
                                  initial_entropy_study, run_sweep)
from phaselab.solver import ConfigError

from conftest import make_circle_config, make_plane_config


def closed_form_slope(points):
    """Independent least-squares slope via the normal equations."""
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc ** 2))


def test_fit_rate_exact_scalings():
    lin = [(0.1, 0.02), (0.05, 0.01), (0.025, 0.005)]
    assert fit_rate(lin).slope == pytest.approx(1.0, abs=1e-12)
    quadr = [(0.1, 0.01), (0.05, 0.0025), (0.025, 0.000625)]
    assert fit_rate(quadr).slope == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_noisy_points():
    pts = [(0.1, 0.0213), (0.05, 0.0104), (0.025, 0.0051)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(closed_form_slope(pts), abs=1e-12)
    assert fit.slope == pytest.approx(1.03, abs=0.02)
    assert fit.residual_norm > 0.0


def test_fit_rate_preconditions():
    with pytest.raises(ValueError, match=">= 3"):
        fit_rate([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        fit_rate([(0.1, 1.0), (0.05, 0.5), (0.025, 0.0)])


def test_gronwall_exact_exponential():
    ts = np.linspace(0.0, 2.0, 21)
    fit = gronwall_fit([(t, 0.3 * math.exp(3.0 * t)) for t in ts])
    assert not fit.degenerate
    assert fit.c_hat == pytest.approx(3.0, abs=1e-12)


def test_gronwall_nonincreasing_clips_to_zero():
    ts = np.linspace(0.0, 1.0, 11)
    fit = gronwall_fit([(t, 1.0 / (1.0 + t)) for t in ts])
    assert fit.c_hat == 0.0
    assert not fit.degenerate


def test_gronwall_degenerate():
    assert gronwall_fit([(0.0, 0.0), (0.1, 1.0)]).degenerate
    assert gronwall_fit([(0.0, 1.0), (0.1, -0.5)]).degenerate


def test_plan_validation(standard_potential, profile):
    base = make_circle_config(standard_potential, profile, eps=0.16,
                              half_width=1.8, t_end=0.02)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08])
    issues = plan.validate()
    assert any(">= 3" in m for m in issues)

    plan = SweepPlan(base=base, epsilons=[0.16, 0.12, 0.08])
    assert any("4x range" in m for m in plan.validate())

    plan = SweepPlan(base=base, epsilons=[0.04, 0.08, 0.16])
    assert any("descending" in m for m in plan.validate())

    with pytest.raises(ConfigError):
        run_sweep(SweepPlan(base=base, epsilons=[]))


def test_member_coupling_monotone(standard_potential, profile):
    base = make_circle_config(standard_potential, profile, eps=0.16,
                              half_width=1.8, t_end=0.02)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04, 0.02])
    rel = [plan.member(e).grid.h / e for e in plan.epsilons]
    assert all(b <= a + 1e-12 for a, b in zip(rel, rel[1:]))
    assert all(plan.member(e).dt == pytest.approx(e ** 2 / 20)
               for e in plan.epsilons)


def test_initial_entropy_needs_three_points(standard_potential, profile):
    base = make_plane_config(standard_potential, profile, half_width=1.0)
    plan = SweepPlan(base=base, epsilons=[0.05])
    with pytest.raises(ConfigError):
        initial_entropy_study(plan)


def test_plan_bands_hold_every_band(standard_potential, profile):
    base = make_plane_config(standard_potential, profile)
    plan = SweepPlan(base=base, epsilons=[0.2, 0.1, 0.05],
                     bands={"err_l1": (0.5, 1.5)})
    assert plan.bands == {**DEFAULT_BANDS, "err_l1": (0.5, 1.5)}


def test_initial_entropy_validates_only_initial_members(standard_potential,
                                                        profile):
    base = make_plane_config(standard_potential, profile, eps=0.16,
                             half_width=2.0, r_c=1.0)
    # too coarse to step (h = eps/2), but the study never steps
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04], h_over_eps=2.0)
    assert any("layer resolution" in m for m in plan.validate())
    rep = initial_entropy_study(plan)
    assert len(rep.quantities["initial_entropy"]) == 3


def test_initial_entropy_slope_plane(standard_potential, profile):
    base = make_plane_config(standard_potential, profile, eps=0.16,
                             half_width=2.0, r_c=1.0)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04, 0.02])
    rep = initial_entropy_study(plan)
    assert 1.8 <= rep.slopes["initial_entropy"].slope <= 2.2
    assert rep.pass_flags["initial_entropy"]
    assert len(rep.quantities["initial_entropy"]) == 4


def test_plane_sweep_interface_error_rate(standard_potential, profile):
    # stationary interface: the L1 error is a pure profile-width effect
    base = make_plane_config(standard_potential, profile, eps=0.16,
                             half_width=1.0, r_c=0.5, t_end=0.05)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04, 0.02])
    result = run_sweep(plan)
    assert 0.8 <= result.report.slopes["err_l1"].slope <= 1.2
    assert result.report.pass_flags["err_l1"]


def test_sweep_deterministic(standard_potential, profile):
    base = make_circle_config(standard_potential, profile, eps=0.16,
                              half_width=1.8, t_end=0.01)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04])
    first = run_sweep(plan)
    again = run_sweep(plan)
    for i in range(3):
        assert first.member_csv(i) == again.member_csv(i)
    assert first.report.to_json_dict() == again.report.to_json_dict()


def test_sweep_report_complete(standard_potential, profile):
    base = make_circle_config(standard_potential, profile, eps=0.16,
                              half_width=1.8, t_end=0.01)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04])
    rep = run_sweep(plan).report
    for name in ("sup_err_l1", "sup_rel_entropy", "initial_entropy"):
        assert len(rep.quantities[name]) == len(rep.epsilons)
    assert len(rep.gronwall_constants) == len(rep.epsilons)
    assert set(rep.pass_flags) == {"err_l1", "rel_entropy", "gronwall_factor"}
    d = rep.to_json_dict()
    assert d["epsilons"] == [0.16, 0.08, 0.04]
    assert "slope" in d["slopes"]["err_l1"]


def test_check_identities_plane_orders(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, cadence=1)
    cfg.t_end = 40 * cfg.dt
    rep = check_identities(cfg, levels=3)
    assert len(rep.levels) == 3
    assert min(rep.identity_orders) >= 1.0
    assert min(rep.dissipation_orders) >= 1.0
    assert rep.min_order() >= 1.0
    d = rep.to_json_dict()
    assert len(d["levels"]) == 3


def test_check_identities_needs_two_levels(standard_potential, profile):
    cfg = make_plane_config(standard_potential, profile, cadence=1,
                            t_end=0.001)
    with pytest.raises(ValueError):
        check_identities(cfg, levels=1)
