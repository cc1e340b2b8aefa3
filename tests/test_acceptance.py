"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Heavy runs are shared through session fixtures; the sweep
runs the shipped plan configs/sweep_circle.json (shrinking circle of initial
radius 2, eps from 0.16 down to 0.02, resolution coupled as h = eps/16 and
dt = eps^2/320 so the first-order splitting error stays below the
interface-width signal).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import phaselab as pl
from phaselab import cli, config, diagnostics as dg
from phaselab.experiments import (SweepPlan, check_identities,
                                  initial_entropy_study, run_sweep)

from conftest import make_circle_config, make_plane_config

EPSILONS = [0.16, 0.08, 0.04, 0.02]
SWEEP_PLAN = Path(__file__).resolve().parent.parent / "configs" \
    / "sweep_circle.json"


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def sweep_plan():
    plan, _ = config.build_plan(config.load_json(SWEEP_PLAN))
    assert plan.epsilons == EPSILONS
    return plan


@pytest.fixture(scope="session")
def circle_sweep(sweep_plan):
    return run_sweep(sweep_plan)


@pytest.fixture(scope="session")
def dissipation_run(profile):
    cfg = make_circle_config(profile, eps=0.04,
                             radius0=1.0, half_width=1.8, t_end=0.2,
                             cadence=100, dt_over_eps2=80)
    return cfg, pl.run(cfg)


@pytest.fixture(scope="session")
def circle_identity_study(dissipation_run):
    cfg, _ = dissipation_run
    return check_identities(cfg, levels=3)


@pytest.fixture(scope="session")
def plane_identity_study(profile):
    cfg = make_plane_config(profile, cadence=1)
    cfg.t_end = 40 * cfg.dt
    return check_identities(cfg, levels=3)


@pytest.fixture(scope="session")
def crosscheck_runs(profile):
    eps = 0.08
    radial = make_circle_config(profile, eps=eps, half_width=1.4, t_end=0.1)
    full = make_circle_config(profile, eps=eps,
                              half_width=1.4, t_end=0.1, mode="full")
    return pl.run(radial), pl.run(full)


def test_c01_normalization_and_profile(profile):
    start = time.perf_counter()
    from phaselab.potentials import normalization_integral
    norm = normalization_integral()
    s = np.linspace(-8.0, 8.0, 4001)
    profile_err = float(np.max(np.abs(profile(s) - np.tanh(1.5 * s))))
    elapsed = time.perf_counter() - start
    ok = abs(norm - 2.0) < 1e-8 and profile_err < 1e-8 and elapsed < 1.0
    report("C1 normalization & profile", ok,
           f"|norm-2|={abs(norm - 2):.2e}, profile err={profile_err:.2e}, "
           f"{elapsed:.2f}s")


def test_c02_steady_profile_fidelity(profile):
    start = time.perf_counter()
    drifts = []
    for h_over_eps in (8, 16):
        cfg = make_plane_config(profile, eps=0.05,
                                h_over_eps=h_over_eps, t_end=0.1,
                                cadence=10 ** 6)
        res = pl.run(cfg)
        exact = profile(cfg.grid.axis / cfg.epsilon)
        drifts.append(float(np.max(np.abs(res.final_field - exact))))
    ratio = drifts[0] / drifts[1]
    elapsed = time.perf_counter() - start
    ok = 3.0 <= ratio <= 5.0 and elapsed < 10.0
    report("C2 steady-profile fidelity", ok,
           f"drift ratio={ratio:.2f} (target [3,5]), {elapsed:.1f}s")


def test_c03_energy_dissipation_identity(dissipation_run,
                                         circle_identity_study):
    _, res = dissipation_run
    _, residuals = dg.dissipation_residuals(res.rows)
    worst = float(residuals.max())
    orders = circle_identity_study.dissipation_orders
    ok = worst <= 0.05 and min(orders) >= 1.0
    report("C3 energy dissipation identity", ok,
           f"max residual={worst:.4f} (<=0.05), refinement orders="
           f"{['%.2f' % o for o in orders]}")


def test_c04_coercivity_suite(circle_sweep, dissipation_run, crosscheck_runs,
                              sweep_plan):
    cross_cut = pl.CutoffSpec(r_c=0.45 * pl.SphereInterface(
        center=(0.0, 0.0), radius0=1.0, dim=2, t_max=0.22).min_radius())
    sources = [(run_res, sweep_plan.member(e).cutoff)
               for run_res, e in zip(circle_sweep.runs, EPSILONS)]
    sources.append((dissipation_run[1], dissipation_run[0].cutoff))
    sources.append((crosscheck_runs[0], cross_cut))
    sources.append((crosscheck_runs[1], cross_cut))

    checked = 0
    violations = []
    for run_res, cutoff in sources:
        for b in run_res.rows:
            rep = dg.coercivity_check(b, cutoff)
            checked += 1
            if not rep.passed:
                violations.extend(rep.violations())
            if b["rel_entropy"] < dg.ENTROPY_FLOOR:
                violations.append(f"entropy below floor: {b['rel_entropy']}")
    ok = checked > 100 and not violations
    report("C4 coercivity suite", ok,
           f"{checked} snapshots checked, {len(violations)} violations")


def test_c05_initial_entropy_rate(profile, sweep_plan):
    start = time.perf_counter()
    circle_rep = initial_entropy_study(SweepPlan(
        base=sweep_plan.base, epsilons=EPSILONS,
        mode="initial-entropy")).report
    plane_base = make_plane_config(profile, eps=0.16, half_width=2.0, r_c=1.0)
    plane_rep = initial_entropy_study(SweepPlan(
        base=plane_base, epsilons=EPSILONS, mode="initial-entropy")).report
    s_c = circle_rep.slopes["initial_entropy"].slope
    s_p = plane_rep.slopes["initial_entropy"].slope
    elapsed = time.perf_counter() - start
    ok = 1.8 <= s_c <= 2.2 and 1.8 <= s_p <= 2.2 and elapsed < 30.0
    report("C5 initial entropy rate", ok,
           f"slope circle={s_c:.3f}, plane={s_p:.3f} (target [1.8,2.2]), "
           f"{elapsed:.1f}s")


def test_c05_initial_entropy_rate_sphere3d(tmp_path):
    # the shipped d = 3 plan: a radial sphere of radius 2, no step taken
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--plan", str(SWEEP_PLAN.parent
                                          / "initial_entropy_sphere3d.json"),
                   "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    slope = summary["slopes"]["initial_entropy"]["slope"]
    report("C5 initial entropy rate, d = 3 sphere",
           rc == 0 and summary["pass_flags"]["initial_entropy"]
           and 1.8 <= slope <= 2.2, f"slope={slope:.4f} (target [1.8,2.2])")


def test_c06_relative_entropy_rate(circle_sweep):
    slope = circle_sweep.report.slopes["rel_entropy"].slope
    ok = 1.7 <= slope <= 2.3
    report("C6 relative-entropy rate", ok,
           f"slope={slope:.3f} (target [1.7,2.3])")


def test_c07_interface_error_rate(circle_sweep):
    slope = circle_sweep.report.slopes["err_l1"].slope
    ok = 0.8 <= slope <= 1.2
    report("C7 interface-error rate", ok,
           f"slope={slope:.3f} (target [0.8,1.2])")


def test_c07_interface_error_constant(circle_sweep, sweep_plan):
    # the leading-order constant of the L1 error on every row of every
    # member: err_l1 = eps kappa0 |Sigma_t| + o(eps), |Sigma_t| = 2 pi R(t)
    # for the circle, kappa0 = int |psi(theta(s)) - sign s| ds from the
    # profile table; a reference radius law 5% too fast reads 1.34 at
    # eps = 0.02
    ratios = []
    for run_res, eps in zip(circle_sweep.runs, EPSILONS):
        member = sweep_plan.member(eps)
        kappa0, radius = member.profile.kappa0(), member.trajectory.radius
        ratios += [b["err_l1"]
                   / (eps * kappa0 * 2.0 * math.pi * radius(b["t"]))
                   for b in run_res.rows]
    worst = max(abs(r - 1.0) for r in ratios)
    report("C7 interface-error constant", worst <= 0.03,
           f"err_l1 / (eps kappa0 2 pi R) in [{min(ratios):.4f}, "
           f"{max(ratios):.4f}] over {len(ratios)} rows (target 1 +- 0.03)")


def test_c07_weighted_volume_error_rate(circle_sweep):
    # the distance-weighted volume error that the theorem bounds together
    # with the entropy: its sup over each member's rows is O(eps^2)
    fit = pl.fit_rate(
        (eps, run_res.rows["err_weighted"].max())
        for run_res, eps in zip(circle_sweep.runs, EPSILONS))
    report("C7 weighted volume-error rate", 1.7 <= fit.slope <= 2.3,
           f"slope={fit.slope:.4f} (target [1.7,2.3])")


def test_c08_gronwall_stability(circle_sweep):
    cs = circle_sweep.report.gronwall_constants
    if max(cs) <= 0.0:
        factor_ok = True
        factor = 1.0
    elif min(cs) > 0.0:
        factor = max(cs) / min(cs)
        factor_ok = factor <= 2.0
    else:
        factor = math.inf
        factor_ok = False

    pointwise_ok = True
    for run_res, c in zip(circle_sweep.runs, cs):
        rows = run_res.rows
        e0 = rows[0]["rel_entropy"]
        for b in rows:
            if b["rel_entropy"] > e0 * math.exp(c * b["t"]) * 1.05 + 1e-14:
                pointwise_ok = False
    ok = factor_ok and pointwise_ok
    report("C8 growth-constant stability", ok,
           f"constants={['%.3f' % c for c in cs]}, spread factor="
           f"{factor:.2f} (<=2), pointwise bound "
           f"{'holds' if pointwise_ok else 'violated'}")


def test_c09_entropy_identity_refinement(plane_identity_study,
                                         circle_identity_study):
    plane_orders = plane_identity_study.identity_orders
    circle_orders = circle_identity_study.identity_orders
    ok = min(plane_orders) >= 1.0 and min(circle_orders) >= 1.0
    report("C9 entropy identity refinement", ok,
           f"plane orders={['%.2f' % o for o in plane_orders]}, "
           f"circle orders={['%.2f' % o for o in circle_orders]} (>=1)")


def test_c10_xi_pde_residuals():
    start = time.perf_counter()
    sphere = pl.SphereInterface(center=(0.0, 0.0), radius0=1.0, dim=2,
                                t_max=0.22)
    cut = pl.CutoffSpec(r_c=0.45 * sphere.min_radius())
    sups = []
    for n in (160, 320, 640):
        grid = pl.full_grid(2, 1.4, n)
        rep = pl.xi_pde_residuals(sphere, cut, grid, 0.1)
        sups.append({"transport": rep.transport_quarter,
                     "length": rep.length_quarter,
                     "curvature": rep.curvature_quarter})
    elapsed = time.perf_counter() - start
    stable = all(
        np.isfinite(sups[lv][k]) and sups[lv + 1][k] <= 1.2 * sups[lv][k]
        for k in sups[0] for lv in range(2))
    ok = stable and elapsed < 30.0
    report("C10 xi PDE residuals", ok,
           f"quarter-tube sups across halvings: " + ", ".join(
               f"{k}={[round(s[k], 3) for s in sups]}" for k in sups[0])
           + f"; {elapsed:.1f}s")


def test_c11_radial_vs_full_grid(crosscheck_runs):
    res_r, res_f = crosscheck_runs
    sup_err_r = res_r.rows["err_l1"].max()
    sup_err_f = res_f.rows["err_l1"].max()
    sup_e_r = res_r.rows["rel_entropy"].max()
    sup_e_f = res_f.rows["rel_entropy"].max()
    d_err = abs(sup_err_r - sup_err_f) / sup_err_r
    d_e = abs(sup_e_r - sup_e_f) / sup_e_r
    ok = d_err <= 0.05 and d_e <= 0.05
    report("C11 radial vs full grid", ok,
           f"err_l1 mismatch={d_err:.3%}, entropy mismatch={d_e:.3%} (<=5%)")


def test_c12_determinism(sweep_plan, circle_sweep):
    again = run_sweep(sweep_plan)
    identical = all(
        list(dg.csv_lines(circle_sweep.runs[i].rows))
        == list(dg.csv_lines(again.runs[i].rows))
        for i in range(len(EPSILONS)))
    same_report = (circle_sweep.report.to_json_dict()
                   == again.report.to_json_dict())
    ok = identical and same_report
    report("C12 determinism", ok,
           f"CSV bodies identical={identical}, reports identical={same_report}")


def wrong_speed_sphere(factor):
    """A reference sphere whose radius law runs factor times too fast:
    R(t)^2 = R0^2 - 2 (d-1) factor t."""
    class WrongSpeedSphere(pl.SphereInterface):
        def radius(self, t):
            return super().radius(factor * t)
    return WrongSpeedSphere


@pytest.mark.parametrize("factor, exit_code, flags", [
    (1.0, 0, {"err_l1": True, "rel_entropy": True, "gronwall_factor": True}),
    (1.05, 3, {"err_l1": True, "rel_entropy": True, "gronwall_factor": False}),
    (1.2, 3, {"err_l1": False, "rel_entropy": False,
              "gronwall_factor": False}),
])
def test_sweep_rejects_wrong_speed_reference(tmp_path, monkeypatch, factor,
                                             exit_code, flags):
    # the shipped plan on its three coarsest members (a 4x range of eps)
    # against a reference interface that moves at the wrong speed
    plan = json.loads(SWEEP_PLAN.read_text())
    plan["epsilons"] = [0.16, 0.08, 0.04]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    monkeypatch.setattr(config, "SphereInterface", wrong_speed_sphere(factor))
    rc = cli.main(["sweep", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    report(f"wrong-speed reference x{factor}",
           rc == exit_code and summary["pass_flags"] == flags,
           f"exit {rc}, pass flags {summary['pass_flags']}")
