"""Sweep and refinement studies: rate fits, growth-constant fits, and the
identity refinement harness behind the check-identities command.

Sweep members couple the resolution to the interface width (h = eps/8 and
dt = eps^2/20 by default) so that every member resolves its own transition
layer equally well; reports carry fitted log-log slopes with residuals.
Everything here is deterministic: fixed iteration order, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import diagnostics, solver
from .grids import npts_for_spacing
from .solver import BlowUpError, ConfigError, SimulationConfig

DEFAULT_H_OVER_EPS = 8.0
DEFAULT_DT_OVER_EPS2 = 20.0
DEFAULT_INITIAL_H_OVER_EPS = 16.0

DEFAULT_BANDS = {
    "err_l1": (0.8, 1.2),
    "rel_entropy": (1.7, 2.3),
    "initial_entropy": (1.8, 2.2),
    "gronwall_factor": 2.0,
}
GRONWALL_FLOOR = 1e-10


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual_norm: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log q against log eps.

    Needs at least three points with positive q; the intercept and the
    residual norm of the fit are reported alongside the slope.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError(f"rate fit needs >= 3 points, got {len(points)}")
    eps = np.array([p[0] for p in points], dtype=float)
    q = np.array([p[1] for p in points], dtype=float)
    if np.any(q <= 0.0):
        raise ValueError("rate fit requires positive quantities")
    if np.any(eps <= 0.0):
        raise ValueError("rate fit requires positive eps values")
    coeff, stats = np.polynomial.polynomial.polyfit(
        np.log(eps), np.log(q), 1, full=True)
    resid = float(np.sqrt(stats[0][0])) if len(stats[0]) else 0.0
    return RateFit(slope=float(coeff[1]), intercept=float(coeff[0]),
                   residual_norm=resid)


@dataclass
class GronwallFit:
    c_hat: float
    degenerate: bool = False


def gronwall_fit(series) -> GronwallFit:
    """Smallest C >= 0 with E(t) <= E(0) exp(C t) on all samples.

    C = max over t > 0 of log(E(t)/E(0)) / t, clipped at zero.  The fit is
    flagged degenerate when E(0) sits at the quadrature floor or any sample
    is nonpositive.
    """
    series = list(series)
    if not series:
        raise ValueError("empty series")
    e0 = series[0][1]
    values = np.array([e for _, e in series])
    if e0 <= GRONWALL_FLOOR or np.any(values <= 0.0):
        return GronwallFit(c_hat=0.0, degenerate=True)
    rates = [math.log(e / e0) / t for t, e in series[1:] if t > 0.0]
    if not rates:
        return GronwallFit(c_hat=0.0, degenerate=True)
    return GronwallFit(c_hat=max(0.0, max(rates)))


@dataclass
class SweepPlan:
    """An eps sweep over one base configuration.

    Members share everything except eps and the coupled resolution:
    h = eps / h_over_eps and dt = eps^2 / dt_over_eps2 (initial-entropy
    studies may use the finer initial_h_over_eps since they never step).
    Bands not given take their defaults, so bands always holds every band.
    """

    base: SimulationConfig
    epsilons: list
    h_over_eps: float = DEFAULT_H_OVER_EPS
    dt_over_eps2: float = DEFAULT_DT_OVER_EPS2
    initial_h_over_eps: float = DEFAULT_INITIAL_H_OVER_EPS
    bands: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bands = {**DEFAULT_BANDS, **self.bands}

    def validate(self, h_over_eps: Optional[float] = None) -> list:
        """Sweep issues and member issues at the resolution evaluated."""
        issues = []
        eps = list(self.epsilons)
        if len(eps) < 3:
            issues.append(f"sweep.epsilons: need >= 3 entries, got {len(eps)}")
        if eps and (min(eps) <= 0.0):
            issues.append("sweep.epsilons: must be positive")
        if eps and max(eps) < 4.0 * min(eps) - 1e-12:
            issues.append("sweep.epsilons: must span at least a 4x range")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            issues.append("sweep.epsilons: must be strictly descending")
        for e in eps:
            member_issues = solver.validate(self.member(e, h_over_eps))
            issues.extend(f"member eps={e}: {m}" for m in member_issues)
        return issues

    def member(self, eps: float, h_over_eps: Optional[float] = None) -> SimulationConfig:
        rel = h_over_eps if h_over_eps is not None else self.h_over_eps
        grid = self.base.grid
        new_grid = replace(grid, npts=npts_for_spacing(
            grid.mode, grid.half_width, eps / rel))
        return replace(self.base, epsilon=eps, grid=new_grid,
                       dt=eps ** 2 / self.dt_over_eps2)


@dataclass
class RateReport:
    epsilons: list
    quantities: dict          # name -> list aligned with epsilons
    slopes: dict              # name -> RateFit
    gronwall_constants: list
    pass_flags: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepResult:
    report: RateReport
    runs: list = field(default_factory=list)    # RunResult per eps

    def member_csv(self, idx: int) -> str:
        return diagnostics.rows_to_csv(self.runs[idx].breakdowns)


def _in_band(value, band) -> bool:
    return band[0] <= value <= band[1]


def initial_entropy_study(plan: SweepPlan) -> RateReport:
    """Relative entropy of the profile initial data per eps, with the
    fitted decay slope (no time stepping involved)."""
    issues = plan.validate(plan.initial_h_over_eps)
    if issues:
        raise ConfigError(issues)
    values = []
    for eps in plan.epsilons:
        cfg = plan.member(eps, h_over_eps=plan.initial_h_over_eps)
        u0 = solver.initial_data(cfg)
        b = diagnostics.relative_entropy(
            u0, eps, cfg.potential, cfg.trajectory, cfg.cutoff, cfg.grid,
            0.0, s0=cfg.s0)
        values.append(b.rel_entropy)
    fit = fit_rate(list(zip(plan.epsilons, values)))
    return RateReport(
        epsilons=list(plan.epsilons),
        quantities={"initial_entropy": values},
        slopes={"initial_entropy": fit},
        gronwall_constants=[],
        pass_flags={"initial_entropy": _in_band(
            fit.slope, plan.bands["initial_entropy"])})


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run every member, track sup_t of the interface error and the relative
    entropy, fit both slopes and the per-member growth constants."""
    issues = plan.validate()
    if issues:
        raise ConfigError(issues)

    results = []
    for eps in plan.epsilons:
        try:
            results.append(solver.run(plan.member(eps),
                                      _skip_validation=True))
        except BlowUpError as exc:
            raise BlowUpError(f"sweep member eps={eps:g}: {exc}") from exc

    sup_err, sup_ent, e0s, gronwall = [], [], [], []
    for res in results:
        rows = res.breakdowns
        sup_err.append(max(b.err_l1 for b in rows))
        sup_ent.append(max(b.rel_entropy for b in rows))
        e0s.append(rows[0].rel_entropy)
        gronwall.append(gronwall_fit([(b.t, b.rel_entropy) for b in rows]))

    slopes = {
        "err_l1": fit_rate(list(zip(plan.epsilons, sup_err))),
        "rel_entropy": fit_rate(list(zip(plan.epsilons, sup_ent))),
    }
    cs = [g.c_hat for g in gronwall]
    factor_band = plan.bands["gronwall_factor"]
    if any(g.degenerate for g in gronwall):
        gron_ok = False
    elif max(cs) <= 0.0:
        gron_ok = True
    else:
        gron_ok = min(cs) > 0.0 and max(cs) / min(cs) <= factor_band

    pass_flags = {name: _in_band(fit.slope, plan.bands[name])
                  for name, fit in slopes.items()}
    pass_flags["gronwall_factor"] = gron_ok
    report = RateReport(
        epsilons=list(plan.epsilons),
        quantities={"sup_err_l1": sup_err, "sup_rel_entropy": sup_ent,
                    "initial_entropy": e0s},
        slopes=slopes,
        gronwall_constants=cs,
        pass_flags=pass_flags)
    return SweepResult(report=report, runs=results)


@dataclass
class IdentityLevel:
    h: float
    dt: float
    identity_residual: float
    dissipation_residual: float
    max_dissipation_residual: float


@dataclass
class IdentityReport:
    """Residuals of the entropy identity and the energy balance across
    jointly refined (h, dt) levels, with observed convergence orders."""

    levels: list
    identity_orders: list
    dissipation_orders: list

    def min_order(self) -> float:
        orders = self.identity_orders + self.dissipation_orders
        return min(orders) if orders else math.nan

    def to_json_dict(self) -> dict:
        return asdict(self)


def _refined(cfg: SimulationConfig, factor: int) -> SimulationConfig:
    grid = cfg.grid
    new_grid = replace(grid, npts=npts_for_spacing(
        grid.mode, grid.half_width, grid.h / factor))
    return replace(cfg, grid=new_grid, dt=cfg.dt / factor,
                   compute_identity=True)


def check_identities(cfg: SimulationConfig, levels: int = 3) -> IdentityReport:
    """Short runs at (h, dt), (h/2, dt/2), ... comparing the centered dE/dt
    against the assembled identity right-hand side, and the energy decay
    against the dissipation, at the diagnostic times shared by every level."""
    if levels < 2:
        raise ValueError("need at least 2 refinement levels")
    cfgs = [_refined(cfg, 2 ** lv) for lv in range(levels)]
    runs = [solver.run(c) for c in cfgs]

    # nested levels step through bit-identical times, so exact matching holds
    common = set.intersection(*({b.t for b in r.breakdowns[1:-1]}
                                for r in runs))
    if not common:
        raise ConfigError([f"diagnostics.cadence: no diagnostic time before "
                           f"stepper.t_end is shared by all {levels} levels"])

    out_levels = []
    for c, r in zip(cfgs, runs):
        ident = [b.identity_residual for b in r.breakdowns
                 if b.t in common and not math.isnan(b.identity_residual)]
        all_diss = diagnostics.dissipation_residuals(r.breakdowns)
        diss = [v for t, v in all_diss if t in common]
        out_levels.append(IdentityLevel(
            h=c.grid.h, dt=r.dt,
            identity_residual=max(ident),
            dissipation_residual=max(diss),
            max_dissipation_residual=max(v for _, v in all_diss)))

    id_orders = [math.log2(a.identity_residual / b.identity_residual)
                 for a, b in zip(out_levels, out_levels[1:])]
    diss_orders = [math.log2(a.dissipation_residual / b.dissipation_residual)
                   for a, b in zip(out_levels, out_levels[1:])]
    return IdentityReport(levels=out_levels, identity_orders=id_orders,
                          dissipation_orders=diss_orders)
