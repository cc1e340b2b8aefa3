import math

import numpy as np
import pytest

import phaselab as pl
from phaselab import experiments
from phaselab.diagnostics import csv_lines
from phaselab.experiments import (SWEEP_MODES, GronwallFit, SweepPlan,
                                  check_identities, fit_rate, gronwall_fit,
                                  initial_entropy_study, run_sweep)
from phaselab.solver import ConfigError

from conftest import make_circle_config, make_plane_config


def fit_against_polyfit(points):
    """fit_rate(points), checked against numpy's least-squares line
    (LAPACK through numpy.polynomial), which shares nothing with the
    closed form."""
    fit = fit_rate(points)
    coeff, stats = np.polynomial.polynomial.polyfit(
        np.log([p[0] for p in points]), np.log([p[1] for p in points]), 1,
        full=True)
    assert fit.slope == pytest.approx(coeff[1], abs=1e-12)
    assert fit.intercept == pytest.approx(coeff[0], abs=1e-12)
    residual_norm = math.sqrt(stats[0][0])
    if residual_norm > 1e-12:
        assert fit.residual_norm == pytest.approx(residual_norm, rel=1e-9)
    else:   # an exact power law: both residuals are roundoff
        assert fit.residual_norm <= 1e-12
    return fit


def test_fit_rate_exact_scalings():
    lin = [(0.1, 0.02), (0.05, 0.01), (0.025, 0.005)]
    assert fit_against_polyfit(lin).slope == pytest.approx(1.0, abs=1e-12)
    quadr = [(0.1, 0.01), (0.05, 0.0025), (0.025, 0.000625)]
    assert fit_against_polyfit(quadr).slope == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_noisy_points():
    pts = [(0.1, 0.0213), (0.05, 0.0104), (0.025, 0.0051)]
    fit = fit_against_polyfit(pts)
    assert fit.slope == pytest.approx(1.03, abs=0.02)
    assert fit.residual_norm > 0.0


def test_fit_rate_preconditions():
    with pytest.raises(ValueError, match=">= 3"):
        fit_rate([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        fit_rate([(0.1, 1.0), (0.05, 0.5), (0.025, 0.0)])
    with pytest.raises(ValueError, match="distinct eps"):
        fit_rate([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
    # non-finite values fail every comparison with 0 and would fit NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite quantities"):
            fit_rate([(0.1, bad), (0.05, 1.0), (0.025, 2.0)])
        with pytest.raises(ValueError, match="finite eps values"):
            fit_rate([(bad, 1.0), (0.05, 1.0), (0.025, 2.0)])


def test_gronwall_exact_exponential():
    ts = np.linspace(0.0, 2.0, 21)
    fit = gronwall_fit([(t, 0.3 * math.exp(3.0 * t)) for t in ts])
    assert not fit.degenerate
    assert fit.c_hat == pytest.approx(3.0, abs=1e-12)
    # the pairs are read once, so a one-shot iterator gives the same fit
    again = gronwall_fit((t, 0.3 * math.exp(3.0 * t)) for t in ts)
    assert again == fit


def test_gronwall_nonincreasing_clips_to_zero():
    ts = np.linspace(0.0, 1.0, 11)
    fit = gronwall_fit([(t, 1.0 / (1.0 + t)) for t in ts])
    assert fit.c_hat == 0.0
    assert not fit.degenerate


def test_gronwall_degenerate():
    assert gronwall_fit([(0.0, 0.0), (0.1, 1.0)]).degenerate
    assert gronwall_fit([(0.0, 1.0), (0.1, -0.5)]).degenerate
    # a nonpositive sample after the largest rate, and no sample at t > 0
    assert gronwall_fit([(0.0, 1.0), (0.1, 2.0), (0.2, 0.0)]).degenerate
    assert gronwall_fit([(0.0, 1.0), (0.0, 2.0)]).degenerate
    # a NaN or inf E(0) or sample: no growth constant, not a passing one
    for series in ([(0.0, math.nan), (0.1, 1.0)],
                   [(0.0, 1.0), (0.1, math.nan), (0.2, 2.0)],
                   [(0.0, 1.0), (0.1, math.inf)],
                   [(0.0, math.inf), (0.1, 1.0)]):
        assert gronwall_fit(series) == GronwallFit(c_hat=0.0,
                                                   degenerate=True)
    with pytest.raises(ValueError, match="empty series"):
        gronwall_fit([])


def test_plan_validation(profile):
    base = make_circle_config(profile, eps=0.16, half_width=1.8, t_end=0.02)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08])
    issues = plan.validate()
    assert any(">= 3" in m for m in issues)

    plan = SweepPlan(base=base, epsilons=[0.16, 0.12, 0.08])
    assert any("4x range" in m for m in plan.validate())

    plan = SweepPlan(base=base, epsilons=[0.04, 0.08, 0.16])
    assert any("descending" in m for m in plan.validate())

    with pytest.raises(ConfigError):
        run_sweep(SweepPlan(base=base, epsilons=[]))

    # no member is built while an eps is not positive
    for eps in ([0.16, 0.08, 0.0], [0.16, 0.08, -0.04],
                [0.16, 0.04, math.nan]):
        plan = SweepPlan(base=base, epsilons=eps)
        assert plan.validate() == ["sweep.epsilons: must be positive"]
    # a member spacing too coarse for a grid is an issue of that member
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04], h_over_eps=0.1)
    assert "member eps=0.16: grid: need at least 8 points per axis" \
        in plan.validate()


def test_member_coupling_monotone(profile):
    base = make_circle_config(profile, eps=0.16, half_width=1.8, t_end=0.02)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04, 0.02])
    rel = [plan.member(e).grid.h / e for e in plan.epsilons]
    assert all(b <= a + 1e-12 for a, b in zip(rel, rel[1:]))
    assert all(plan.member(e).dt == pytest.approx(e ** 2 / 20)
               for e in plan.epsilons)


def test_initial_entropy_needs_three_points(profile):
    base = make_plane_config(profile, half_width=1.0)
    plan = SweepPlan(base=base, epsilons=[0.05], mode="initial-entropy")
    with pytest.raises(ConfigError):
        initial_entropy_study(plan)


def test_plan_takes_its_mode_bands_and_spacing(profile):
    base = make_plane_config(profile)
    eps = [0.2, 0.1, 0.05]
    for mode, spec in SWEEP_MODES.items():
        assert SweepPlan(base=base, epsilons=eps, mode=mode).bands \
            == spec["bands"]
        name = next(iter(spec["bands"]))
        plan = SweepPlan(base=base, epsilons=eps, mode=mode,
                         bands={name: (0.5, 1.5)})
        assert plan.bands == {**spec["bands"], name: (0.5, 1.5)}
        assert plan.h_over_eps == spec["reads"]["h_over_eps"]
    assert SweepPlan(base=base, epsilons=eps).mode == "full"
    assert SweepPlan(base=base, epsilons=eps).h_over_eps == 8.0
    assert SweepPlan(base=base, epsilons=eps,
                     mode="initial-entropy").h_over_eps == 16.0


@pytest.mark.parametrize("mode, bands, message", [
    ("full", {"err_L1": (0, 1)}, "plan.bands.err_L1: unknown key"),
    ("full", {"initial_entropy": (1.8, 2.2)},
     "plan.bands.initial_entropy: read only in mode 'initial-entropy'"),
    ("initial-entropy", {"err_l1": (0.8, 1.2), "gronwall_factor": 2.0},
     "plan.bands.err_l1: read only in mode 'full'"),
])
def test_plan_rejects_bands_its_mode_does_not_read(profile, mode, bands,
                                                   message):
    base = make_plane_config(profile)
    with pytest.raises(ConfigError) as err:
        SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04], mode=mode,
                  bands=bands)
    assert err.value.messages[0] == message
    assert len(err.value.messages) == len(bands)


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "shifted"}, "plan.mode: unknown mode 'shifted' (expected one "
                          "of full, initial-entropy)"),
    ({"h_over_eps": 0}, "plan.h_over_eps: expected a positive number, got 0"),
    ({"h_over_eps": -8.0},
     "plan.h_over_eps: expected a positive number, got -8.0"),
    ({"h_over_eps": math.nan},
     "plan.h_over_eps: expected a positive number, got nan"),
    ({"dt_over_eps2": 0},
     "plan.dt_over_eps2: expected a positive number, got 0"),
    ({"dt_over_eps2": -20.0},
     "plan.dt_over_eps2: expected a positive number, got -20.0"),
    ({"mode": "initial-entropy", "h_over_eps": 0},
     "plan.h_over_eps: expected a positive number, got 0"),
])
def test_plan_built_in_code_rejects_what_build_plan_does(profile, kwargs,
                                                         message):
    # a ConfigError in build_plan's words, not a KeyError on the mode or a
    # ZeroDivisionError in member, which divides by both couplings
    base = make_circle_config(profile)
    with pytest.raises(ConfigError) as err:
        SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04], **kwargs)
    assert err.value.messages == [message]


def test_plan_runs_its_mode_study_found_by_name(profile, monkeypatch):
    # looked up when the plan runs, so a wrapper set on the module runs
    calls = []
    for spec in SWEEP_MODES.values():
        monkeypatch.setattr(experiments, spec["study"],
                            lambda plan, name=spec["study"]:
                            calls.append((name, plan.mode)))
    base = make_plane_config(profile)
    for mode in SWEEP_MODES:
        SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04], mode=mode).run()
    assert calls == [(spec["study"], mode)
                     for mode, spec in SWEEP_MODES.items()]


def test_initial_entropy_validates_only_initial_members(profile):
    base = make_plane_config(profile, eps=0.16, half_width=2.0, r_c=1.0)
    # too coarse to step (h = eps/2), but the study never steps and its
    # members take the mode's finer spacing
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04], h_over_eps=2.0)
    assert any("layer resolution" in m for m in plan.validate())
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04],
                     mode="initial-entropy")
    result = initial_entropy_study(plan)
    assert len(result.report.quantities["initial_entropy"]) == 3
    assert result.runs == []


def test_initial_entropy_slope_plane(profile):
    base = make_plane_config(profile, eps=0.16, half_width=2.0, r_c=1.0)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04, 0.02],
                     mode="initial-entropy")
    rep = initial_entropy_study(plan).report
    assert 1.8 <= rep.slopes["initial_entropy"].slope <= 2.2
    assert rep.pass_flags["initial_entropy"]
    assert len(rep.quantities["initial_entropy"]) == 4


def test_plane_sweep_interface_error_rate(profile):
    # stationary interface: the L1 error is a pure profile-width effect
    base = make_plane_config(profile, eps=0.16,
                             half_width=1.0, r_c=0.5, t_end=0.05)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04, 0.02])
    result = run_sweep(plan)
    assert 0.8 <= result.report.slopes["err_l1"].slope <= 1.2
    assert result.report.pass_flags["err_l1"]


def test_sweep_deterministic(profile):
    base = make_circle_config(profile, eps=0.16, half_width=1.8, t_end=0.01)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04])
    first = run_sweep(plan)
    again = run_sweep(plan)
    for i in range(3):
        assert (list(csv_lines(first.runs[i].rows))
                == list(csv_lines(again.runs[i].rows)))
    assert first.report.to_json_dict() == again.report.to_json_dict()


def test_sweep_report_complete(profile):
    base = make_circle_config(profile, eps=0.16, half_width=1.8, t_end=0.01)
    plan = SweepPlan(base=base, epsilons=[0.16, 0.08, 0.04])
    rep = run_sweep(plan).report
    for name in ("sup_err_l1", "sup_rel_entropy", "initial_entropy"):
        assert len(rep.quantities[name]) == len(rep.epsilons)
    assert len(rep.gronwall_constants) == len(rep.epsilons)
    assert set(rep.pass_flags) == {"err_l1", "rel_entropy", "gronwall_factor"}
    d = rep.to_json_dict()
    assert d["epsilons"] == [0.16, 0.08, 0.04]
    assert "slope" in d["slopes"]["err_l1"]


def test_check_identities_plane_orders(profile):
    cfg = make_plane_config(profile, cadence=1)
    cfg.t_end = 40 * cfg.dt
    rep = check_identities(cfg, levels=3)
    assert len(rep.levels) == 3
    assert min(rep.identity_orders) >= 1.0
    assert min(rep.dissipation_orders) >= 1.0
    assert rep.min_order() >= 1.0
    d = rep.to_json_dict()
    assert len(d["levels"]) == 3


def test_check_identities_needs_two_levels(profile):
    cfg = make_plane_config(profile, cadence=1, t_end=0.001)
    with pytest.raises(ValueError):
        check_identities(cfg, levels=1)


@pytest.mark.parametrize("field, value, message", [
    ("cadence", 0, "diagnostics.cadence: must be >= 1"),
    ("t_end", float("nan"), "stepper.t_end: must be >= 0"),
    ("t_end", -1.0, "stepper.t_end: must be >= 0"),
    ("dt", 0.0, "stepper.dt_over_eps2: dt must be positive")])
def test_check_identities_reports_invalid_values(profile,
                                                 field, value, message):
    # the shared-time check reads only the row times of valid values and
    # leaves the others to the validation of the first run
    cfg = make_plane_config(profile, cadence=1, t_end=0.001)
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=message):
        check_identities(cfg)
