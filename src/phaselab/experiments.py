"""Sweep and refinement studies: the sweep modes, rate and growth-constant
fits, and the identity refinement harness behind check-identities.

Sweep members couple the resolution to the interface width (h = eps/8 and
dt = eps^2/20 by default in mode full) so that every member resolves its
own transition layer equally well; reports carry fitted log-log slopes.
Everything here is deterministic: fixed iteration order, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import diagnostics, solver
from .grids import PointCountError
from .solver import BlowUpError, ConfigError, SimulationConfig

DEFAULT_H_OVER_EPS = 8.0
DEFAULT_DT_OVER_EPS2 = 20.0

IDENTITY_LEVELS = 3        # pinned, as each mode's bands: check-identities'
MIN_IDENTITY_ORDER = 1.0   # refinement levels and the least order it passes
# per sweep mode: the plan keys it reads with defaults (h_over_eps, member
# spacing, in all), bands, base keys it ignores, study (found by name on run)
SWEEP_MODES = {
    "full": {"reads": {"h_over_eps": DEFAULT_H_OVER_EPS,
                       "dt_over_eps2": DEFAULT_DT_OVER_EPS2},
             "bands": {"err_l1": (0.8, 1.2), "rel_entropy": (1.7, 2.3),
                       "gronwall_factor": 2.0},
             "ignores": (), "study": "run_sweep"},
    # t = 0 only: one row of the initial data, so no step or row keys
    "initial-entropy": {"reads": {"h_over_eps": 16.0},
                        "bands": {"initial_entropy": (1.8, 2.2)},
                        "ignores": ("stepper.scheme", "stepper.t_end",
                                    "diagnostics.cadence",
                                    "diagnostics.compute_identity"),
                        "study": "initial_entropy_study"},
}
GRONWALL_FLOOR = 1e-10
PLAN_SPACING = {"grid.h_over_eps": "plan.h_over_eps",   # run key: plan key
                "stepper.dt_over_eps2": "plan.dt_over_eps2"}


def mode_issues(mode, keys) -> list:
    """Issues of a sweep plan in `mode` that sets the key paths `keys`: an
    unknown mode, or each plan key (`plan.dt_over_eps2`), band
    (`plan.bands.err_l1`) or base key (`stepper.t_end`) another mode reads
    and this one does not, naming every mode that reads it.  A mode reads
    its plan keys, its bands and the base keys it does not ignore; a band
    no mode reads is unknown, other keys are the caller's key tables'."""
    if mode not in tuple(SWEEP_MODES):   # a list-valued mode is unhashable
        return [f"plan.mode: unknown mode {mode!r} (expected one of "
                f"{', '.join(SWEEP_MODES)})"]
    issues = []
    for key in keys:
        section, _, name = key.rpartition(".")
        readers = [repr(other) for other, spec in SWEEP_MODES.items()
                   if (name in spec["bands"] if section == "plan.bands"
                       else name in spec["reads"] if section == "plan"
                       else key not in spec["ignores"])]
        if repr(mode) not in readers and (readers or section == "plan.bands"):
            issues.append(f"{key}: read only in mode {' or '.join(readers)}"
                          if readers else f"{key}: unknown key")
    return issues


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual_norm: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log q against log eps.

    Needs at least three points with finite positive q and eps, and at
    least two distinct eps values; the intercept and the residual norm of
    the fit are reported alongside the slope.  The line is the closed form
    from centred sums of x = log eps and y = log q: slope = sum(xc * yc) /
    sum(xc * xc), with xc and yc the logs minus their means, and intercept
    = mean(y) - slope * mean(x).
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError(f"rate fit needs >= 3 points, got {len(points)}")
    eps = np.array([p[0] for p in points], dtype=float)
    q = np.array([p[1] for p in points], dtype=float)
    for name, values in (("quantities", q), ("eps values", eps)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"rate fit requires finite {name}, got "
                             f"{values.tolist()}")
        if np.any(values <= 0.0):
            raise ValueError(f"rate fit requires positive {name}")
    x, y = np.log(eps), np.log(q)
    if np.all(x == x[0]):
        raise ValueError("rate fit requires at least two distinct eps values")
    x_mean, y_mean = x.mean(), y.mean()
    xc = x - x_mean
    slope = np.sum(xc * (y - y_mean)) / np.sum(xc * xc)
    intercept = y_mean - slope * x_mean
    resid = y - (intercept + slope * x)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual_norm=float(np.sqrt(np.sum(resid * resid))))


@dataclass
class GronwallFit:
    c_hat: float
    degenerate: bool = False


def gronwall_fit(series) -> GronwallFit:
    """Smallest C >= 0 with E(t) <= E(0) exp(C t) on all samples.

    C = max over t > 0 of log(E(t)/E(0)) / t, clipped at zero.  The fit is
    flagged degenerate when E(0) sits at the quadrature floor, E(0) or any
    sample is not a finite number, any sample is nonpositive or no sample
    has t > 0.  The (t, E) pairs are read once, one at a time, so a run's
    columns stream in without a copy.
    """
    pairs = iter(series)
    first = next(pairs, None)
    if first is None:
        raise ValueError("empty series")
    e0 = first[1]
    degenerate = GronwallFit(c_hat=0.0, degenerate=True)
    if not GRONWALL_FLOOR < e0 < math.inf:   # NaN fails both comparisons
        return degenerate
    c_hat = None   # the largest rate so far, compared as max() compares
    for t, e in pairs:
        if not 0.0 < e < math.inf:
            return degenerate
        if t > 0.0:
            rate = math.log(e / e0) / t
            if c_hat is None or rate > c_hat:
                c_hat = rate
    if c_hat is None:
        return degenerate
    return GronwallFit(c_hat=max(0.0, c_hat))


@dataclass
class SweepPlan:
    """An eps sweep over one base configuration in a mode of SWEEP_MODES.

    Members share everything except eps and the coupled resolution:
    h = eps / h_over_eps and dt = eps^2 / dt_over_eps2, h_over_eps by
    default its mode's.  Its bands are its mode's row.
    """

    base: SimulationConfig
    epsilons: list
    mode: str = "full"
    h_over_eps: Optional[float] = None
    dt_over_eps2: float = DEFAULT_DT_OVER_EPS2

    def __post_init__(self):
        if issues := mode_issues(self.mode, []):
            raise ConfigError(issues)
        if self.h_over_eps is None:
            self.h_over_eps = SWEEP_MODES[self.mode]["reads"]["h_over_eps"]
        # member divides by both, whatever the mode; NaN is not positive
        issues = [f"plan.{key}: expected a positive number, got {value!r}"
                  for key, value in (("h_over_eps", self.h_over_eps),
                                     ("dt_over_eps2", self.dt_over_eps2))
                  if not value > 0.0]
        if issues:
            raise ConfigError(issues)
        self.bands = SWEEP_MODES[self.mode]["bands"]   # pinned: the row

    def validate(self) -> list:
        """Sweep issues, then member issues unless an eps is not positive."""
        issues = []
        eps = list(self.epsilons)
        positive = all(e > 0.0 for e in eps)   # NaN is not
        if len(eps) < 3:
            issues.append(f"sweep.epsilons: need >= 3 entries, got {len(eps)}")
        if not positive:
            issues.append("sweep.epsilons: must be positive")
        if eps and max(eps) < 4.0 * min(eps) - 1e-12:
            issues.append("sweep.epsilons: must span at least a 4x range")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            issues.append("sweep.epsilons: must be strictly descending")
        for e in eps if positive else ():
            try:
                member = self.member(e)
            except ValueError as exc:   # no grid holds this spacing or width
                key = (f"plan.h_over_eps = {self.h_over_eps:g}"
                       if isinstance(exc, PointCountError) else "grid")
                issues.append(f"member eps={e}: {key}: {exc}")
                continue
            for message in solver.validate(member):   # naming the plan's key
                key, sep, rest = message.partition(": ")
                issues.append(f"member eps={e}: "
                              f"{PLAN_SPACING.get(key, key)}{sep}{rest}")
        return issues

    def member(self, eps: float) -> SimulationConfig:
        return replace(self.base, epsilon=eps,
                       grid=self.base.grid.respaced(eps / self.h_over_eps),
                       dt=eps ** 2 / self.dt_over_eps2)

    def run(self) -> SweepResult:
        """Run its mode's study, found by name now so a wrapper runs too."""
        return globals()[SWEEP_MODES[self.mode]["study"]](self)


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
    runs: list = field(default_factory=list)    # RunResult per eps stepped


def _in_band(value, band) -> bool:
    return band[0] <= value <= band[1]


def initial_entropy_study(plan: SweepPlan) -> SweepResult:
    """Relative entropy of the profile initial data per eps, with the
    fitted decay slope (no time stepping involved, so no runs)."""
    issues = plan.validate()
    if issues:
        raise ConfigError(issues)
    values = []
    for eps in plan.epsilons:
        cfg = plan.member(eps)
        u0 = solver.initial_data(cfg)
        b = diagnostics.relative_entropy(
            u0, eps, cfg.trajectory, cfg.cutoff, cfg.grid, 0.0)
        values.append(float(b["rel_entropy"]))
    fit = fit_rate(list(zip(plan.epsilons, values)))
    return SweepResult(report=RateReport(
        epsilons=list(plan.epsilons),
        quantities={"initial_entropy": values},
        slopes={"initial_entropy": fit},
        gronwall_constants=[],
        pass_flags={"initial_entropy": _in_band(
            fit.slope, plan.bands["initial_entropy"])}))


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run every member, track sup_t of the interface error and the relative
    entropy, fit both slopes and the per-member growth constants."""
    issues = plan.validate()
    if issues:
        raise ConfigError(issues)

    results = []
    for eps in plan.epsilons:
        try:
            results.append(solver.run(plan.member(eps)))
        except BlowUpError as exc:
            raise BlowUpError(f"sweep member eps={eps:g}: {exc}") from exc

    sup_err, sup_ent, e0s, gronwall = [], [], [], []
    for res in results:
        t, entropy = res.rows["t"], res.rows["rel_entropy"]
        sup_err.append(float(res.rows["err_l1"].max()))
        sup_ent.append(float(entropy.max()))
        e0s.append(float(entropy[0]))
        # Python floats, so the fit's logs are math.log's
        gronwall.append(gronwall_fit(zip(map(float, t),
                                         map(float, entropy))))

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
    runs: list = field(default_factory=list, repr=False)   # RunResult per level

    def min_order(self) -> float:
        orders = self.identity_orders + self.dissipation_orders
        return min(orders) if orders else math.nan

    def to_json_dict(self) -> dict:
        """The levels and orders; the runs stay out."""
        return {"levels": [asdict(lv) for lv in self.levels],
                "identity_orders": self.identity_orders,
                "dissipation_orders": self.dissipation_orders}


def _shared_row_times(cfgs) -> set:
    """Interior row times all levels share, a centered one in each level."""
    times = [c.row_times() for c in cfgs]
    # nested levels step through bit-identical times, so exact matching holds
    common = set.intersection(*(set(ts[1:-1]) for ts in times))
    if not common:
        raise ConfigError([f"diagnostics.cadence: no diagnostic time before "
                           f"stepper.t_end is shared by all {len(cfgs)} "
                           f"levels"])
    for c, ts in zip(cfgs, times):
        if not any(ts[j] in common for j in diagnostics.centered_rows(ts)):
            raise ConfigError([f"diagnostics.cadence: at h = {c.grid.h:g} "
                               f"no shared diagnostic time has evenly spaced "
                               f"neighbors for a centered rate"])
    return common


def check_identities(cfg: SimulationConfig) -> IdentityReport:
    """IDENTITY_LEVELS short runs at (h, dt), (h/2, dt/2), ... comparing the
    centered dE/dt against the assembled identity right-hand side, and the
    energy decay against the dissipation, at the times all levels share."""
    cfgs, issues = [], []
    for lv in range(IDENTITY_LEVELS):
        try:
            cfgs.append(replace(
                cfg, grid=cfg.grid.respaced(cfg.grid.h / 2 ** lv),
                dt=cfg.dt / 2 ** lv, compute_identity=True))
        except ValueError as exc:   # no grid holds this level's spacing
            issues.append(f"grid.h_over_eps: level {lv}: {exc}")
            break
    # before any level steps: the coarsest level's rules, which make its
    # row times defined, then the times all levels share
    issues = solver.validate(cfgs[0]) + issues
    if issues:
        raise ConfigError(issues)
    common = np.array(sorted(_shared_row_times(cfgs)))
    runs = [solver.run(c) for c in cfgs]

    def shared(times):   # the mask of the times in common
        return (times[:, None] == common).any(axis=1)

    out_levels = []
    for c, r in zip(cfgs, runs):
        ident = r.rows["identity_residual"][shared(r.rows["t"])]
        diss_t, diss = diagnostics.dissipation_residuals(r.rows)
        out_levels.append(IdentityLevel(
            h=c.grid.h, dt=r.dt,
            identity_residual=float(np.nanmax(ident)),
            dissipation_residual=float(diss[shared(diss_t)].max()),
            max_dissipation_residual=float(diss.max())))

    id_orders = [math.log2(a.identity_residual / b.identity_residual)
                 for a, b in zip(out_levels, out_levels[1:])]
    diss_orders = [math.log2(a.dissipation_residual / b.dissipation_residual)
                   for a, b in zip(out_levels, out_levels[1:])]
    return IdentityReport(levels=out_levels, identity_orders=id_orders,
                          dissipation_orders=diss_orders, runs=runs)
