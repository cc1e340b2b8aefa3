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
from functools import lru_cache

import numpy as np

from .geometry import (CutoffSpec, ExtendedFields, InterfaceTrajectory,
                       extended_fields, interface_distance, tau_truncation)
from .grids import Grid
from .potentials import dw, psi, root_2w, w

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
# wire header: identical to the field names except the L1 spelling
CSV_HEADER = tuple("err_L1" if c == "err_l1" else c for c in CSV_COLUMNS)
# a run's rows: one float64 field per CSV column, then the assembled
# right-hand side of the entropy identity
ROW_DTYPE = np.dtype([(name, np.float64)
                      for name in (*CSV_COLUMNS, "identity_rhs")])


def row_table(n: int) -> np.ndarray:
    """A table of n rows of ROW_DTYPE, every value NaN until written."""
    return np.full(n, np.nan, dtype=ROW_DTYPE)


@dataclass
class TubeFields:
    """The pointwise fields of one snapshot at the cells of the cutoff's
    tube, the last axis running over them: each value is the one the
    whole-grid field has there (ExtendedFields.restrict)."""

    gmag: np.ndarray
    n: np.ndarray
    grad_psi: np.ndarray
    grad_psi_mag: np.ndarray
    w: np.ndarray
    density: np.ndarray


# cells per block of an elementwise pass over a whole grid; kept because
# whole-grid passes raise the peak RSS of the 280^2 identity run by 1.5 MB
# (42.21-42.28 against 40.75-40.86 MB, six runs each pinned to one CPU)
_BLOCK_CELLS = 8192


@lru_cache(maxsize=8)
def _blocks(shape: tuple) -> tuple:
    """Slices of the leading axis of a grid of this shape, each holding
    about _BLOCK_CELLS cells (one row at least).  An elementwise pass made
    block by block gives every value the bits of the whole-array pass,
    with block-sized temporaries."""
    rows = max(1, _BLOCK_CELLS // math.prod(shape[1:]))
    return tuple(slice(i, i + rows) for i in range(0, shape[0], rows))


def derived_fields(u: np.ndarray, eps: float, grid: Grid,
                   ef: ExtendedFields) -> tuple:
    """(curv, curv_t, w_t, sqrt2w_t): the curvature proxy curv = -(eps
    lap u - W'(u)/eps) of a snapshot on the whole grid (H_eps = curv n),
    and at the tube cells of ef curv, W(u) and sqrt(2 W(u)).

    The Laplacian is the one field the call holds besides its result; W'
    is evaluated block by block, and W and sqrt(2 W) at the tube cells
    only, so each value has the operations of the plain whole-grid
    expressions in the comments.
    """
    # curv = -(eps lap - W'(u) / eps)
    curv = grid.laplacian(u)
    for rows in _blocks(curv.shape):
        c = np.multiply(eps, curv[rows], out=curv[rows])
        dw_u = dw(u[rows])
        np.subtract(c, np.divide(dw_u, eps, out=dw_u), out=c)
        np.negative(c, out=c)
    w_t = w(ef.restrict(u).clip(-1.0, 1.0))
    return curv, ef.restrict(curv), w_t, root_2w(w_t)


def relative_entropy(u: np.ndarray, eps: float, traj: InterfaceTrajectory,
                     cutoff: CutoffSpec, grid: Grid, t: float,
                     with_identity: bool = False) -> np.void:
    """Evaluate every tracked functional of one snapshot, returned as one
    record of ROW_DTYPE, the kind of row a run's table holds.

    The core value is int density - xi . grad psi; the call also fills the
    coercivity integrals, the two dissipation defect squares, the interface
    errors (the weighted one on the distance scale r_c/4), and
    (with_identity) the assembled right-hand side of the
    entropy evolution identity.  identity_residual, a rate across rows, is
    NaN, and so is identity_rhs without with_identity.

    The interface fields vanish off the cutoff's tube, so every term that
    carries one is evaluated at the tube cells and scattered into the
    whole-grid integrand, whose other cells hold the value the term takes
    where the field is zero.  For finite u each integrand is the array a
    whole-grid evaluation gives (up to the sign of zeros), so each
    quadrature sum is too.

    Memory: the row runs in stages that each hold a few whole-grid fields:
    the interface errors before any other field exists, then the curvature
    terms, then the gradient terms, then the potential's terms, then the
    identity groups.  Whole-grid values are formed by out= ufuncs, block by
    block (_blocks) where a pass needs temporaries, each into a field whose
    last use has passed, and each quadrature writes its weighted product
    over its integrand.  The plain expression of each integrand is in the
    comments; the out= calls repeat its operations in its order, so every
    sum keeps its bits.
    """
    quad = grid.integrate
    err_l1, err_w = _interface_errors(u, traj, grid, t, cutoff.r_c / 4.0,
                                      quad)

    ef = extended_fields(traj, cutoff, grid, t)
    curv, curv_t, w_t, sqrt2w_t = derived_fields(u, eps, grid, ef)
    # dissipation = curv^2 / eps
    scratch = np.square(curv)
    diss = quad(np.divide(scratch, eps, out=scratch), out=scratch)
    # dsq_vel = scatter(curv + div xi sqrt2w, curv)^2 / (4 eps)
    np.copyto(scratch, curv)
    ef.scatter(curv_t - (-ef.div_xi) * sqrt2w_t, scratch)
    np.square(scratch, out=scratch)
    dsq_vel = quad(np.divide(scratch, 4.0 * eps, out=scratch), out=scratch)
    del scratch

    gmag, n, g_t, gmag_t, steep_t = _gradient_fields(u, grid, ef)
    pair = _normal_squares(n, curv)   # (|curv n|^2, |n|^2)
    del curv, n
    # n at the tube cells, as the whole-grid n has it
    n_t = np.divide(g_t, gmag_t, out=np.zeros_like(g_t), where=steep_t)
    n_t[0][~steep_t] = 1.0
    del steep_t

    # dsq_curv = scatter(|curv n - eps gmag H|^2, |curv n|^2) / (4 eps)
    scale = np.multiply(eps, gmag_t)
    hvec_diff = np.multiply(curv_t, n_t)
    for k, h in enumerate(ef.hvec):
        hvec_diff[k] -= np.multiply(scale, h, out=curv_t)
    del scale, curv_t
    ef.scatter(np.square(hvec_diff, out=hvec_diff).sum(axis=0), pair[0])
    del hvec_diff
    dsq_curv = quad(np.divide(pair[0], 4.0 * eps, out=pair[0]), out=pair[0])

    # grad psi = sqrt2w grad u and |grad psi| = sqrt2w gmag at the tube
    # cells
    gpsi_t = np.multiply(sqrt2w_t, g_t, out=g_t)
    gpm_t = np.multiply(sqrt2w_t, gmag_t, out=sqrt2w_t)
    del g_t, sqrt2w_t
    # nmxi2 = scatter(|n - xi|^2, |n|^2), over |n|^2
    nmxi = n_t - ef.xi
    nmxi2 = ef.scatter(np.square(nmxi, out=nmxi).sum(axis=0), pair[1])
    del nmxi
    # tilt = nmxi2 eps gmag^2, over |curv n|^2
    tilt = quad(_tilt(nmxi2, gmag, eps, out=pair[0]), out=pair[0])
    # density over |curv n|^2, misalignment over nmxi2, equipartition over
    # gmag
    density = _potential_terms(u, eps, gmag, nmxi2, out=pair[0])
    misalignment = quad(nmxi2, out=nmxi2)
    equipartition = quad(gmag, out=gmag)
    density_t = ef.restrict(density)
    energy = quad(density, out=gmag)
    del nmxi2, gmag
    # min(dist^2, 1) density
    dist = interface_distance(traj, grid, t)
    np.minimum(np.square(dist, out=dist), 1.0, out=dist)
    dist_weighted = quad(np.multiply(dist, density, out=dist), out=dist)
    del dist
    # entropy = scatter(density - xi . grad psi, density)
    xi_dot_gpsi = (ef.xi * gpsi_t).sum(axis=0)
    ef.scatter(density_t - xi_dot_gpsi, density)
    entropy = quad(density, out=density)
    del density, pair

    identity_rhs = math.nan
    if with_identity:
        tube = TubeFields(gmag=gmag_t, n=n_t, grad_psi=gpsi_t,
                          grad_psi_mag=gpm_t, w=w_t, density=density_t)
        identity_rhs = _identity_rhs(eps, tube, ef, quad, dsq_curv, dsq_vel,
                                     xi_dot_gpsi, np.zeros(grid.shape))
    # one call, the values in the field order of ROW_DTYPE
    return np.void((t, energy, diss, entropy, equipartition, misalignment,
                    tilt, dist_weighted, dsq_curv, dsq_vel, err_l1, err_w,
                    math.nan, identity_rhs), dtype=ROW_DTYPE)


def _gradient_fields(u, grid, ef) -> tuple:
    """(gmag, n, g_t, gmag_t, steep_t): |grad u| and the unit normal n on
    the whole grid, n written over grad u, and at the tube cells of ef
    grad u, gmag and steep.  n = grad u / gmag where steep, i.e. where gmag
    reaches a floor relative to its max, else the first coordinate
    direction; every integrand that touches n carries a |grad psi| or
    |grad u|^2 weight, so the choice does not affect any reported value."""
    n = grid.gradient(u)
    g_t = ef.restrict(n)
    # gmag = sqrt(sum(g * g)), the later components added block by block
    gmag = np.square(n[0])
    for comp in n[1:]:
        for rows in _blocks(gmag.shape):
            gmag[rows] += np.square(comp[rows])
    np.sqrt(gmag, out=gmag)
    steep = gmag >= GRAD_FLOOR_SCALE * (float(np.max(gmag)) + 1.0)
    gmag_t, steep_t = ef.restrict(gmag), ef.restrict(steep)
    np.divide(n, gmag, out=n, where=steep)
    flat = np.logical_not(steep, out=steep)
    n[0][flat] = 1.0
    for comp in n[1:]:
        comp[flat] = 0.0
    return gmag, n, g_t, gmag_t, steep_t


def _normal_squares(n: np.ndarray, curv: np.ndarray) -> np.ndarray:
    """pair[0] = sum((curv n)^2) and pair[1] = sum(n * n), block by block,
    written over n when it has two components at least (n is lost)."""
    pair = n if len(n) >= 2 else np.empty((2,) + curv.shape)
    for rows in _blocks(curv.shape):
        nb = n[:, rows]
        cn = np.multiply(curv[rows], nb)
        np.square(cn, out=cn)
        np.square(nb, out=nb).sum(axis=0, out=pair[1][rows])
        cn.sum(axis=0, out=pair[0][rows])
    return pair


def _tilt(nmxi2, gmag, eps, out):
    """nmxi2 eps gmag^2 into out, block by block."""
    for rows in _blocks(gmag.shape):
        np.multiply(np.multiply(nmxi2[rows], eps, out=out[rows]),
                    np.square(gmag[rows]), out=out[rows])
    return out


def _potential_terms(u, eps, gmag, nmxi2, out):
    """The terms that read W(u), block by block: density = 0.5 eps gmag^2
    + w / eps into out (returned), misalignment = nmxi2 gpm (gpm = sqrt2w
    gmag) over nmxi2, and equipartition = (sqrt(eps) gmag - sqrt2w /
    sqrt(eps))^2 over gmag; w = W(clip(u)), sqrt2w = sqrt(2 w)."""
    root_eps = np.sqrt(eps)
    for rows in _blocks(gmag.shape):
        m, density = gmag[rows], out[rows]
        w_u = w(u[rows].clip(-1.0, 1.0))
        sqrt2w = root_2w(w_u)
        np.multiply(0.5 * eps, np.square(m, out=density), out=density)
        np.add(density, np.divide(w_u, eps, out=w_u), out=density)
        np.multiply(nmxi2[rows], np.multiply(sqrt2w, m, out=w_u),
                    out=nmxi2[rows])
        np.multiply(root_eps, m, out=m)
        np.subtract(m, np.divide(sqrt2w, root_eps, out=sqrt2w), out=m)
        np.square(m, out=m)
    return out


def _interface_errors(u, traj, grid, t, s0, quad) -> tuple:
    """(err_l1, err_weighted): the integrals of |psi - chi| and of
    (chi - psi) tau(dist / s0), chi = 1 where dist >= 0 and -1 elsewhere.
    The row calls it before it holds any other field, so it can afford
    the plain whole-grid expressions."""
    dist = interface_distance(traj, grid, t)
    psi_u = psi(u)
    chi = np.where(dist >= 0.0, 1.0, -1.0)
    err_l1 = quad(np.abs(psi_u - chi))
    np.subtract(chi, psi_u, out=psi_u)
    del chi
    tau = _tau_of_distance(dist, s0)
    return err_l1, quad(np.multiply(psi_u, tau, out=psi_u), out=psi_u)


def _tau_of_distance(dist, s0):
    """tau_truncation(dist / s0), whose blend is evaluated only where
    |dist / s0| < 1; beyond, tau is sign(dist / s0) exactly."""
    s = dist / s0
    near = np.abs(s) < 1.0
    tau = np.sign(s)
    tau[near] = tau_truncation(s[near])
    return tau


def _identity_rhs(eps, d: TubeFields, ef, quad, dsq_curv, dsq_vel,
                  xi_dot_gpsi, zeros):
    """Assemble the eight integral groups of the entropy evolution identity.

    For an exact solution the time derivative of the relative entropy
    equals this sum; the first group carries the two defect squares with
    twice their stored 1/(4 eps) weight.  The integrands of g2-g8 vanish
    off the tube: d, xi . grad psi and n - xi are taken at the tube cells,
    and each group's integrand is scattered onto zeros, a whole grid of
    zeros whose cells off the tube no group writes; each quadrature's
    product goes over it, and its cells off the tube stay zero.
    """
    g1 = -2.0 * (dsq_curv + dsq_vel)

    def integral(values):
        return quad(ef.scatter(values, zeros), out=zeros)

    h2 = (ef.hvec ** 2).sum(axis=0)
    h_dot_gpsi = (ef.hvec * d.grad_psi).sum(axis=0)
    g2 = integral(h2 * 0.5 * eps * d.gmag ** 2
                  + ef.div_xi ** 2 * d.w / eps
                  + h_dot_gpsi * ef.div_xi)
    del h2, h_dot_gpsi

    g3 = integral(ef.div_h * (d.density - d.grad_psi_mag))

    quad_nn = ef.grad_h_quad(d.n)
    g4 = -integral(quad_nn * (eps * d.gmag ** 2 - d.grad_psi_mag))
    del quad_nn

    g5 = -integral(ef.grad_h_quad(d.n - ef.xi) * d.grad_psi_mag)

    g6 = integral(ef.div_h * (d.grad_psi_mag - xi_dot_gpsi))

    t8 = ef.xi_rate()
    g8 = -integral(d.grad_psi_mag * (ef.xi * t8).sum(axis=0))

    t7 = t8 + ef.grad_h_vec(ef.xi)
    g7 = -integral(((d.grad_psi - d.grad_psi_mag * ef.xi) * t7).sum(axis=0))

    return g1 + g2 + g3 + g4 + g5 + g6 + g7 + g8


def coercivity_bound_constant(cutoff: CutoffSpec) -> float:
    """Interface constant for the distance-weighted energy control.

    From 1 - xi.n >= min(dist^2 / r_c^2, 1) and the equipartition
    control: C = max(r_c^2, 1) + 1.
    """
    return max(cutoff.r_c ** 2, 1.0) + 1.0


@dataclass
class CoercivityReport:
    passed: bool
    entries: dict   # name -> (lhs, bound)

    def violations(self) -> list:
        return [f"{name}: {lhs:.6e} > {bound:.6e}"
                for name, (lhs, bound) in self.entries.items() if lhs > bound]


def coercivity_check(b, cutoff: CutoffSpec,
                     slack: float = COERCIVITY_SLACK) -> CoercivityReport:
    """Verify the four entropy coercivity inequalities on one row of
    ROW_DTYPE.

    equipartition <= 2E, misalignment <= 2E, tilt <= 12E, and the
    distance-weighted energy <= C(cutoff) E, each with the given slack
    factor plus a tiny absolute tolerance for the all-zero case.
    """
    entropy = float(b["rel_entropy"])
    e = max(entropy, 0.0)
    c_i = coercivity_bound_constant(cutoff)
    factors = {"equipartition_defect": 2.0, "misalignment": 2.0,
               "tilt_excess": 12.0, "dist_weighted_energy": c_i}
    entries = {name: (float(b[name]), factor * slack * e + _ABS_TOL)
               for name, factor in factors.items()}
    passed = all(lhs <= bound for lhs, bound in entries.values()) \
        and entropy >= ENTROPY_FLOOR
    return CoercivityReport(passed=passed, entries=entries)


def centered_rows(times) -> np.ndarray:
    """Indices j of the interior times whose two neighbors are evenly spaced,
    the rows with a centered rate: not the endpoints or a partial interval.
    Each test is |(t[j+1] - t[j]) - (t[j] - t[j-1])| <= 1e-9 max(t[j+1] -
    t[j-1], 1e-300), taken on all j at once."""
    t = np.asarray(times, dtype=float)
    steps = np.diff(t)
    span = t[2:] - t[:-2]
    even = np.abs(steps[1:] - steps[:-1]) <= 1e-9 * np.maximum(span, 1e-300)
    return np.flatnonzero(even) + 1


def _centered_rates(rows: np.ndarray, name: str) -> tuple:
    """(j, centered d(name)/dt at j) on the centered_rows of a row table,
    each rate (x[j+1] - x[j-1]) / (t[j+1] - t[j-1])."""
    t, x = rows["t"], rows[name]
    j = centered_rows(t)
    return j, (x[j + 1] - x[j - 1]) / (t[j + 1] - t[j - 1])


def fill_identity_residuals(rows: np.ndarray) -> None:
    """Post-fill |centered dE/dt - rhs| on the interior rows of a row table
    with a centered rate and an assembled rhs; the other rows keep NaN."""
    j, dedt = _centered_rates(rows, "rel_entropy")
    rhs = rows["identity_rhs"][j]
    assembled = ~np.isnan(rhs)
    rows["identity_residual"][j[assembled]] = np.abs(dedt - rhs)[assembled]


def dissipation_residuals(rows: np.ndarray) -> tuple:
    """Relative energy-balance residual per interior row of a row table.

    Returns (t_j, |centered dE_gl/dt + D_j| / max(D_j, 1)), two arrays
    over the centered rows; the continuum balance is dE_gl/dt = -D.
    """
    j, dedt = _centered_rates(rows, "gl_energy")
    diss = rows["dissipation"][j]
    return rows["t"][j], np.abs(dedt + diss) / np.maximum(diss, 1.0)


def csv_lines(rows: np.ndarray):
    """The CSV of a row table line by line, each line ending in a newline:
    the header, then one line per row in the fixed column order.

    Floats are written with repr (shortest round-trip form) so repeated
    runs produce byte-identical bodies.
    """
    yield ",".join(CSV_HEADER) + "\n"
    line = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"
    for row in rows[list(CSV_COLUMNS)]:
        yield line % row.item()   # item(): a tuple of Python floats


def write_csv(path, rows: np.ndarray) -> None:
    """Write the CSV of a row table to `path` a line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(csv_lines(rows))
