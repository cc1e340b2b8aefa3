"""Functionals evaluated on field snapshots: energies, the relative entropy
and its coercivity controls, the dissipation decomposition, the entropy
evolution identity, and interface errors.

A note on discrete exactness: the gradient of the phase map is evaluated by
the chain rule, grad psi = sqrt(2 W(u)) grad u, on the same discrete
gradient that enters the energy.  With that choice the pointwise algebra

    density  = |grad psi| + (1/2) defect^2
    entropy  = (1/2) int defect^2 + int (1 - xi . n) |grad psi|

holds exactly on the grid (defect = sqrt(eps)|grad u| - sqrt(2W/eps)), so
the coercivity inequalities are inherited by the quadrature sums rather
than merely approximated.  The Laplacian used for the curvature proxy and
the dissipation is the solver stencil, which makes uniform states and
discrete steady states exactly dissipation-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (CutoffSpec, InterfaceTrajectory, extended_fields,
                       tau_truncation)
from .grids import Grid
from .potentials import PotentialSpec

GRAD_FLOOR_SCALE = 1e-12
ENTROPY_FLOOR = -1e-10
COERCIVITY_SLACK = 1.1
_ABS_TOL = 1e-12

CSV_COLUMNS = (
    "t", "gl_energy", "dissipation", "rel_entropy", "equipartition_defect",
    "misalignment", "tilt_excess", "dist_weighted_energy",
    "defect_sq_curvature", "defect_sq_velocity", "err_l1", "err_weighted",
    "identity_residual",
)
# wire header: identical to the attribute names except the L1 spelling
CSV_HEADER = tuple("err_L1" if c == "err_l1" else c for c in CSV_COLUMNS)


@dataclass
class EntropyBreakdown:
    """Every tracked functional at one time stamp."""

    t: float
    gl_energy: float
    dissipation: float
    rel_entropy: float
    equipartition_defect: float
    misalignment: float
    tilt_excess: float
    dist_weighted_energy: float
    defect_sq_curvature: float
    defect_sq_velocity: float
    err_l1: float
    err_weighted: float
    identity_residual: float = math.nan
    identity_rhs: float = math.nan   # assembled right-hand side, not in CSV

    def csv_row(self) -> list:
        return [getattr(self, name) for name in CSV_COLUMNS]


@dataclass
class DerivedFields:
    """Pointwise fields shared by the functionals of one snapshot."""

    gmag: np.ndarray
    n: np.ndarray
    psi: np.ndarray
    grad_psi: np.ndarray
    grad_psi_mag: np.ndarray
    w: np.ndarray
    sqrt2w: np.ndarray
    curvature_scalar: np.ndarray   # -(eps lap u - W'(u)/eps); H_eps = this * n
    density: np.ndarray


def derived_fields(u: np.ndarray, eps: float, pot: PotentialSpec,
                   grid: Grid) -> DerivedFields:
    """Gradient, unit normal, phase map and curvature proxy of a snapshot.

    Where |grad u| falls below a relative floor the unit normal is replaced
    by the first coordinate direction; every integrand that touches n
    carries a |grad psi| or |grad u|^2 weight, so the choice does not
    affect any reported value.
    """
    g = grid.gradient(u)
    gmag = np.sqrt(np.sum(g * g, axis=0))
    floor = GRAD_FLOOR_SCALE * (float(np.max(gmag)) + 1.0)
    safe = np.where(gmag >= floor, gmag, 1.0)
    n = np.where(gmag >= floor, g / safe, 0.0)
    n[0] = np.where(gmag >= floor, n[0], 1.0)

    uc = np.clip(u, -1.0, 1.0)
    w = pot.w(uc)
    sqrt2w = pot.sqrt2w(u)
    psi_field = pot.psi(u)
    grad_psi = sqrt2w * g
    lap = grid.laplacian(u)
    curvature_scalar = -(eps * lap - pot.dw(u) / eps)
    density = 0.5 * eps * gmag ** 2 + w / eps
    return DerivedFields(gmag=gmag, n=n, psi=psi_field,
                         grad_psi=grad_psi, grad_psi_mag=sqrt2w * gmag,
                         w=w, sqrt2w=sqrt2w,
                         curvature_scalar=curvature_scalar, density=density)


def default_s0(cutoff: CutoffSpec) -> float:
    """Distance scale of the weighted interface error when none is given."""
    return cutoff.r_c / 4.0


def relative_entropy(u: np.ndarray, eps: float, pot: PotentialSpec,
                     traj: InterfaceTrajectory, cutoff: CutoffSpec,
                     grid: Grid, t: float, s0: Optional[float] = None,
                     with_identity: bool = False) -> EntropyBreakdown:
    """Evaluate the full breakdown of one snapshot.

    The core value is int density - xi . grad psi; the call also fills the
    coercivity integrals, the two dissipation defect squares, the interface
    errors, and (with_identity) the assembled right-hand side of the
    entropy evolution identity.
    """
    if s0 is None:
        s0 = default_s0(cutoff)
    d = derived_fields(u, eps, pot, grid)
    ef = extended_fields(traj, cutoff, grid, t)
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

    err_l1 = quad(np.abs(d.psi - ef.chi))
    err_w = quad((ef.chi - d.psi) * tau_truncation(ef.dist / s0))

    b = EntropyBreakdown(
        t=t,
        gl_energy=energy,
        dissipation=diss,
        rel_entropy=entropy,
        equipartition_defect=quad(defect ** 2),
        misalignment=quad(nmxi2 * d.grad_psi_mag),
        tilt_excess=quad(nmxi2 * eps * d.gmag ** 2),
        dist_weighted_energy=quad(np.minimum(ef.dist ** 2, 1.0) * d.density),
        defect_sq_curvature=dsq_curv,
        defect_sq_velocity=dsq_vel,
        err_l1=err_l1,
        err_weighted=err_w)

    if with_identity:
        b.identity_rhs = _identity_rhs(eps, d, ef, quad, dsq_curv, dsq_vel)
    return b


def _identity_rhs(eps, d: DerivedFields, ef, quad, dsq_curv, dsq_vel):
    """Assemble the eight integral groups of the entropy evolution identity.

    For an exact solution the time derivative of the relative entropy
    equals this sum; the first group carries the two defect squares with
    twice their stored 1/(4 eps) weight.
    """
    g1 = -2.0 * (dsq_curv + dsq_vel)

    h2 = np.sum(ef.hvec ** 2, axis=0)
    h_dot_gpsi = np.sum(ef.hvec * d.grad_psi, axis=0)
    g2 = quad(h2 * 0.5 * eps * d.gmag ** 2
              + ef.div_xi ** 2 * d.w / eps
              + h_dot_gpsi * ef.div_xi)

    g3 = quad(ef.div_h * (d.density - d.grad_psi_mag))

    quad_nn = ef.grad_h_quad(d.n)
    g4 = -quad(quad_nn * (eps * d.gmag ** 2 - d.grad_psi_mag))

    nmxi = d.n - ef.xi
    g5 = -quad(ef.grad_h_quad(nmxi) * d.grad_psi_mag)

    xi_dot_gpsi = np.sum(ef.xi * d.grad_psi, axis=0)
    g6 = quad(ef.div_h * (d.grad_psi_mag - xi_dot_gpsi))

    t7 = ef.dt_xi + ef.adv_xi + ef.grad_h_vec(ef.xi)
    g7 = -quad(np.sum((d.grad_psi - d.grad_psi_mag * ef.xi) * t7, axis=0))

    t8 = ef.dt_xi + ef.adv_xi
    g8 = -quad(d.grad_psi_mag * np.sum(ef.xi * t8, axis=0))

    return g1 + g2 + g3 + g4 + g5 + g6 + g7 + g8


def coercivity_bound_constant(cutoff: CutoffSpec) -> float:
    """Interface constant for the distance-weighted energy control.

    From 1 - xi.n >= min(c_quad dist^2 / r_c^2, 1) and the equipartition
    control: C = max(r_c^2 / c_quad, 1) + 1.
    """
    return max(cutoff.r_c ** 2 / cutoff.c_quad, 1.0) + 1.0


@dataclass
class CoercivityReport:
    passed: bool
    entries: dict   # name -> (lhs, bound)

    def violations(self) -> list:
        return [f"{name}: {lhs:.6e} > {bound:.6e}"
                for name, (lhs, bound) in self.entries.items() if lhs > bound]


def coercivity_check(b: EntropyBreakdown, cutoff: CutoffSpec,
                     slack: float = COERCIVITY_SLACK) -> CoercivityReport:
    """Verify the four entropy coercivity inequalities on one breakdown.

    equipartition <= 2E, misalignment <= 2E, tilt <= 12E, and the
    distance-weighted energy <= C(cutoff) E, each with the given slack
    factor plus a tiny absolute tolerance for the all-zero case.
    """
    e = max(b.rel_entropy, 0.0)
    c_i = coercivity_bound_constant(cutoff)
    entries = {
        "equipartition_defect": (b.equipartition_defect,
                                 2.0 * slack * e + _ABS_TOL),
        "misalignment": (b.misalignment, 2.0 * slack * e + _ABS_TOL),
        "tilt_excess": (b.tilt_excess, 12.0 * slack * e + _ABS_TOL),
        "dist_weighted_energy": (b.dist_weighted_energy,
                                 c_i * slack * e + _ABS_TOL),
    }
    passed = all(lhs <= bound for lhs, bound in entries.values()) \
        and b.rel_entropy >= ENTROPY_FLOOR
    return CoercivityReport(passed=passed, entries=entries)


def _centered_rates(rows: list, name: str):
    """(j, t_j, centered d(name)/dt) on interior rows whose two neighbors
    are evenly spaced; a final partial interval and the endpoints are
    skipped."""
    for j in range(1, len(rows) - 1):
        tl, tc, tr = rows[j - 1].t, rows[j].t, rows[j + 1].t
        if abs((tr - tc) - (tc - tl)) <= 1e-9 * max(tr - tl, 1e-300):
            yield j, tc, (getattr(rows[j + 1], name)
                          - getattr(rows[j - 1], name)) / (tr - tl)


def fill_identity_residuals(rows: list) -> None:
    """Post-fill |centered dE/dt - rhs| on interior rows of a uniform series;
    the other rows keep NaN."""
    for j, _, dedt in _centered_rates(rows, "rel_entropy"):
        if not math.isnan(rows[j].identity_rhs):
            rows[j].identity_residual = abs(dedt - rows[j].identity_rhs)


def dissipation_residuals(rows: list) -> list:
    """Relative energy-balance residual per interior row.

    Returns (t_j, |centered dE_gl/dt + D_j| / max(D_j, 1)) pairs; the
    continuum balance is dE_gl/dt = -D.
    """
    return [(tc, abs(dedt + rows[j].dissipation)
             / max(rows[j].dissipation, 1.0))
            for j, tc, dedt in _centered_rates(rows, "gl_energy")]


def rows_to_csv(rows: list) -> str:
    """Render breakdown rows in the fixed column order, one line per time.

    Floats are written with repr (shortest round-trip form) so repeated
    runs produce byte-identical bodies.
    """
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row.csv_row()))
    return "\n".join(lines) + "\n"


def write_csv(path, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
