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

from .geometry import (CutoffSpec, ExtendedFields, InterfaceTrajectory,
                       extended_fields, tau_truncation)
from .grids import Grid
from .potentials import PotentialSpec, root_2w

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
class TubeFields:
    """The pointwise fields of one snapshot at the cells of the cutoff's
    tube, the last axis running over them (ExtendedFields.restrict)."""

    gmag: np.ndarray
    n: np.ndarray
    grad_psi: np.ndarray
    grad_psi_mag: np.ndarray
    w: np.ndarray
    sqrt2w: np.ndarray
    curvature_scalar: np.ndarray
    density: np.ndarray


@dataclass
class DerivedFields:
    """Whole-grid fields of one snapshot that a row integrates, and (tube)
    the fields its tube terms read.  The unit normal n enters the whole-grid
    integrands only through |n|^2 and |curvature_scalar n|^2."""

    gmag: np.ndarray
    psi: np.ndarray
    grad_psi_mag: np.ndarray
    sqrt2w: np.ndarray
    curvature_scalar: np.ndarray   # -(eps lap u - W'(u)/eps); H_eps = this * n
    density: np.ndarray
    n_sq: np.ndarray
    curv_n_sq: np.ndarray
    tube: TubeFields


def derived_fields(u: np.ndarray, eps: float, pot: PotentialSpec,
                   grid: Grid, ef: ExtendedFields) -> DerivedFields:
    """Gradient, unit normal, phase map and curvature proxy of a snapshot,
    on the whole grid and at the tube cells of ef.

    Where |grad u| falls below a relative floor the unit normal is replaced
    by the first coordinate direction; every integrand that touches n
    carries a |grad psi| or |grad u|^2 weight, so the choice does not
    affect any reported value.

    Each field's tube values are taken as soon as it is formed, and the
    whole-grid gradient, n and W(u) are dropped once the fields built from
    them exist (grad psi is formed at the tube cells only), so the call
    holds few fields at once.  Every value has the operations, in the same
    order, of the plain expressions in the comments.
    """
    on = ef.restrict
    psi = pot.psi(u)
    g = grid.gradient(u)
    # gmag = sqrt(sum(g * g))
    gmag = np.sum(g * g, axis=0)
    np.sqrt(gmag, out=gmag)
    steep = gmag >= GRAD_FLOOR_SCALE * (float(np.max(gmag)) + 1.0)
    # curv = -(eps lap - W'(u) / eps)
    curv = grid.laplacian(u)
    np.multiply(eps, curv, out=curv)
    dw = pot.dw(u)
    np.divide(dw, eps, out=dw)
    np.subtract(curv, dw, out=curv)
    np.negative(curv, out=curv)
    del dw

    # n = g / gmag where steep, else the first coordinate direction
    n = np.divide(g, gmag, out=np.zeros_like(g), where=steep)
    n[0][~steep] = 1.0
    g_tube, n_tube = on(g), on(n)
    # n_sq = sum(n * n), curv_n_sq = sum((curv n)^2), in g's and n's place
    n_sq = np.sum(np.multiply(n, n, out=g), axis=0)
    del g
    curv_n_sq = np.sum(np.square(np.multiply(curv, n, out=n), out=n), axis=0)
    del n

    w = pot.w(np.clip(u, -1.0, 1.0))
    sqrt2w = root_2w(w)
    w_tube, sqrt2w_tube = on(w), on(sqrt2w)
    # density = 0.5 eps gmag^2 + w / eps
    density = np.square(gmag)
    np.multiply(0.5 * eps, density, out=density)
    np.add(density, np.divide(w, eps, out=w), out=density)
    del w
    grad_psi_mag = sqrt2w * gmag
    tube = TubeFields(gmag=on(gmag), n=n_tube, grad_psi=sqrt2w_tube * g_tube,
                      grad_psi_mag=on(grad_psi_mag), w=w_tube,
                      sqrt2w=sqrt2w_tube, curvature_scalar=on(curv),
                      density=on(density))
    return DerivedFields(gmag=gmag, psi=psi, grad_psi_mag=grad_psi_mag,
                         sqrt2w=sqrt2w, curvature_scalar=curv,
                         density=density, n_sq=n_sq, curv_n_sq=curv_n_sq,
                         tube=tube)


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

    The interface fields vanish off the cutoff's tube, so every term that
    carries one is evaluated at the tube cells and scattered into the
    whole-grid integrand, whose other cells hold the value the term takes
    where the field is zero.  For finite u each integrand is the array a
    whole-grid evaluation gives (up to the sign of zeros), so each
    quadrature sum is too.

    Memory: the integrals run in an order that lets each whole-grid field
    be overwritten by its last integrand and freed after that integral;
    the other integrands are built in one scratch field, which then holds
    the zeros the identity groups are scattered onto.  The plain expression
    of each integrand is in the comments; the out= calls repeat its
    operations in its order, so every sum keeps its bits.
    """
    if s0 is None:
        s0 = default_s0(cutoff)
    ef = extended_fields(traj, cutoff, grid, t)
    d = derived_fields(u, eps, pot, grid, ef)
    on = d.tube
    gmag, sqrt2w, psi, curv = d.gmag, d.sqrt2w, d.psi, d.curvature_scalar
    density, gpm = d.density, d.grad_psi_mag
    nmxi2, curv_sq = d.n_sq, d.curv_n_sq
    del d   # the names above now hold each whole-grid field alone
    quad = grid.integrate

    energy = quad(density)
    nmxi = on.n - ef.xi
    # nmxi2 = scatter(|n - xi|^2, |n|^2); misalignment = nmxi2 gpm
    ef.scatter(np.sum(nmxi * nmxi, axis=0), nmxi2)
    misalignment = quad(np.multiply(nmxi2, gpm, out=gpm))
    del gpm
    scratch = np.empty(grid.shape)
    # defect = sqrt(eps) gmag - sqrt2w / sqrt(eps)
    np.multiply(np.sqrt(eps), gmag, out=scratch)
    np.subtract(scratch, np.divide(sqrt2w, np.sqrt(eps), out=sqrt2w),
                out=scratch)
    del sqrt2w
    equipartition = quad(np.square(scratch, out=scratch))
    # tilt = nmxi2 eps gmag^2
    np.multiply(nmxi2, eps, out=nmxi2)
    tilt = quad(np.multiply(nmxi2, np.square(gmag, out=gmag), out=nmxi2))
    del gmag, nmxi2
    # dissipation = curv^2 / eps
    diss = quad(np.divide(np.square(curv, out=scratch), eps, out=scratch))

    # dsq_curv = scatter(|curv n - eps gmag H|^2, |curv n|^2) / (4 eps)
    hvec_diff = on.curvature_scalar * on.n - eps * on.gmag * ef.hvec
    ef.scatter(np.sum(hvec_diff ** 2, axis=0), curv_sq)
    del hvec_diff
    dsq_curv = quad(np.divide(curv_sq, 4.0 * eps, out=curv_sq))
    del curv_sq
    # dsq_vel = scatter(curv + div xi sqrt2w, curv)^2 / (4 eps)
    ef.scatter(on.curvature_scalar - (-ef.div_xi) * on.sqrt2w, curv)
    np.square(curv, out=curv)
    dsq_vel = quad(np.divide(curv, 4.0 * eps, out=curv))
    del curv

    # min(dist^2, 1) density
    np.minimum(np.square(ef.dist, out=scratch), 1.0, out=scratch)
    dist_weighted = quad(np.multiply(scratch, density, out=scratch))
    # entropy = scatter(density - xi . grad psi, density)
    xi_dot_gpsi = np.sum(ef.xi * on.grad_psi, axis=0)
    ef.scatter(on.density - xi_dot_gpsi, density)
    entropy = quad(density)
    del density
    # err_l1 = |psi - chi|, err_weighted = (chi - psi) tau(dist / s0)
    err_l1 = quad(np.abs(np.subtract(psi, ef.chi, out=scratch), out=scratch))
    np.subtract(ef.chi, psi, out=psi)
    err_w = quad(np.multiply(psi, _tau_of_distance(ef.dist, s0), out=psi))
    del psi

    b = EntropyBreakdown(
        t=t,
        gl_energy=energy,
        dissipation=diss,
        rel_entropy=entropy,
        equipartition_defect=equipartition,
        misalignment=misalignment,
        tilt_excess=tilt,
        dist_weighted_energy=dist_weighted,
        defect_sq_curvature=dsq_curv,
        defect_sq_velocity=dsq_vel,
        err_l1=err_l1,
        err_weighted=err_w)

    if with_identity:
        scratch.fill(0.0)
        b.identity_rhs = _identity_rhs(eps, on, ef, quad, dsq_curv, dsq_vel,
                                       xi_dot_gpsi, nmxi, scratch)
    return b


def _tau_of_distance(dist, s0):
    """tau_truncation(dist / s0), whose blend is evaluated only where
    |dist / s0| < 1; beyond, tau is sign(dist / s0) exactly."""
    s = dist / s0
    tau = np.sign(s)
    near = np.abs(s) < 1.0
    tau[near] = tau_truncation(s[near])
    return tau


def _identity_rhs(eps, d: TubeFields, ef, quad, dsq_curv, dsq_vel,
                  xi_dot_gpsi, nmxi, zeros):
    """Assemble the eight integral groups of the entropy evolution identity.

    For an exact solution the time derivative of the relative entropy
    equals this sum; the first group carries the two defect squares with
    twice their stored 1/(4 eps) weight.  The integrands of g2-g8 vanish
    off the tube: d, xi . grad psi and n - xi are taken at the tube cells,
    and each group's integrand is scattered onto zeros, a whole grid of
    zeros whose cells off the tube no group writes.
    """
    g1 = -2.0 * (dsq_curv + dsq_vel)

    def integral(values):
        return quad(ef.scatter(values, zeros))

    h2 = np.sum(ef.hvec ** 2, axis=0)
    h_dot_gpsi = np.sum(ef.hvec * d.grad_psi, axis=0)
    g2 = integral(h2 * 0.5 * eps * d.gmag ** 2
                  + ef.div_xi ** 2 * d.w / eps
                  + h_dot_gpsi * ef.div_xi)

    g3 = integral(ef.div_h * (d.density - d.grad_psi_mag))

    quad_nn = ef.grad_h_quad(d.n)
    g4 = -integral(quad_nn * (eps * d.gmag ** 2 - d.grad_psi_mag))

    g5 = -integral(ef.grad_h_quad(nmxi) * d.grad_psi_mag)

    g6 = integral(ef.div_h * (d.grad_psi_mag - xi_dot_gpsi))

    t7 = ef.dt_xi + ef.adv_xi + ef.grad_h_vec(ef.xi)
    g7 = -integral(np.sum((d.grad_psi - d.grad_psi_mag * ef.xi) * t7,
                          axis=0))

    t8 = ef.dt_xi + ef.adv_xi
    g8 = -integral(d.grad_psi_mag * np.sum(ef.xi * t8, axis=0))

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


def centered_rows(times) -> list:
    """Indices j of the interior times whose two neighbors are evenly spaced,
    the rows with a centered rate: not the endpoints or a partial interval."""
    return [j for j in range(1, len(times) - 1)
            if abs((times[j + 1] - times[j]) - (times[j] - times[j - 1]))
            <= 1e-9 * max(times[j + 1] - times[j - 1], 1e-300)]


def _centered_rates(rows: list, name: str):
    """(j, t_j, centered d(name)/dt) on the centered_rows."""
    for j in centered_rows([r.t for r in rows]):
        a, b = rows[j - 1], rows[j + 1]
        yield j, rows[j].t, (getattr(b, name) - getattr(a, name)) / (b.t - a.t)


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
