"""Exact interface trajectories under mean curvature flow and the extended
vector fields built from them.

A trajectory class (a stationary plane; a sphere with R(t)^2 = R0^2 -
2 (d-1) t) owns its formulas and rules, so no other code branches on its
type: distance (signed, positive inside; read through interface_distance),
tube_fields, issues (its validation rules) and exempt_axes (the boundary
faces the interface crosses).  The extended normal is damped by a cutoff
eta on a tube of width r_c, the curvature vector by its plateau eta_tilde;
the fields' closed-form derivatives are checked by finite differences.
tube_fields returns them by ExtendedFields.from_frame, the one copy of the
closed forms, from e, the unit direction away from the phase: a plane is
the sphere of infinite radius, with e = -n, k = 0 and 1/r = 0.  A sphere
keeps one whole-grid array per grid and center, the distance r to its
center (radial_frame); its tube fields read e and r at the tube's cells
only (radial_frame_at).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .grids import FULL, Grid, RADIAL

EXTINCTION_EPS_FACTOR = 4.0  # sphere must keep R(t_max) >= 4 eps


@dataclass(frozen=True)
class PlaneInterface:
    """Stationary flat interface {normal . x = offset}; the phase lies on the
    side the (unit, inner) normal points into, so dist = normal . x - offset.
    It does not move, so it has no horizon: t_max is inf."""

    normal: tuple
    offset: float = 0.0
    t_max = np.inf   # a class constant, not a field

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:   # NaN fails too
            raise ValueError("plane normal must be a unit vector")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def min_radius(self) -> float:
        return np.inf

    def distance(self, grid: Grid, t: float) -> np.ndarray:
        # summed over k in order, the open coordinates broadcasting
        return sum(n * x for n, x in zip(self.normal,
                                         grid.open_coords)) - self.offset

    def tube_fields(self, cutoff: CutoffSpec, grid: Grid, t: float,
                    dist: np.ndarray, tube: np.ndarray) -> ExtendedFields:
        """The sphere's fields at infinite radius: e = -n, k = 0, 1/r = 0;
        xi = eta n, div xi = eta', and curvature fields are signed zeros."""
        n = np.asarray(self.normal, dtype=float)
        e = np.broadcast_to(-n[:, np.newaxis], (len(n), tube.size))
        return ExtendedFields.from_frame(cutoff, dist, tube, e, np.inf, 0.0,
                                         self.dim)

    def issues(self, grid: Grid, r_c: float, eps: float) -> list:
        """The validation rules of a plane on this grid: it must cross the
        box [-L, L]^d, which it misses when |offset| >= L sum |n_k|."""
        if grid.mode == RADIAL:
            return ["grid.mode: radial mode requires a sphere trajectory"]
        if self.dim != grid.dim:
            return ["trajectory.normal: length must match grid dim"]
        reach = grid.half_width * sum(map(abs, self.normal))
        if not abs(self.offset) < reach:
            return [f"trajectory.offset: the plane misses the grid: |offset| "
                    f"= {abs(self.offset):.6g} >= L sum |n_k| = {reach:.6g}"]
        return []

    def exempt_axes(self) -> tuple:
        """The axes of the boundary faces parallel to the plane."""
        return tuple(ax for ax, n in enumerate(self.normal) if abs(n) < 1e-9)


@dataclass(frozen=True)
class SphereInterface:
    """Sphere shrinking by mean curvature, phase inside the ball."""

    center: tuple
    radius0: float
    dim: int
    t_max: float

    def __post_init__(self):
        if self.dim < 2:   # first, or a negative dim reads as a bad center
            raise ValueError("sphere needs dim >= 2")
        if len(self.center) != self.dim:
            raise ValueError("center length must match dim")
        if not self.radius0 > 0.0:
            raise ValueError("radius0 must be positive")
        # R(t)^2 = radius0^2 - 2 (d - 1) t must be a float
        if not np.finfo(float).tiny <= self.radius0 * self.radius0 < np.inf:
            raise ValueError(f"radius0 = {self.radius0!r} out of range: "
                             f"radius0^2 is not a normal float")
        if not self.t_max < self.extinction_time:
            raise ValueError(
                f"t_max={self.t_max} reaches extinction at "
                f"{self.extinction_time:.6f}")

    @property
    def extinction_time(self) -> float:
        return self.radius0 ** 2 / (2.0 * (self.dim - 1))

    def radius(self, t) -> float:
        return float(np.sqrt(self.radius0 ** 2 - 2.0 * (self.dim - 1) * t))

    def curvature_scale(self, t) -> float:
        """Magnitude (d-1)/R(t) of the curvature vector on the interface."""
        return (self.dim - 1) / self.radius(t)

    def min_radius(self) -> float:
        return self.radius(self.t_max)

    def distance(self, grid: Grid, t: float) -> np.ndarray:
        return self.radius(t) - radial_frame(grid, self.center)

    def tube_fields(self, cutoff: CutoffSpec, grid: Grid, t: float,
                    dist: np.ndarray, tube: np.ndarray) -> ExtendedFields:
        """The fields in the frame of the center, k = (d-1)/R."""
        safe_r, e = radial_frame_at(grid, self.center, tube)
        return ExtendedFields.from_frame(cutoff, dist, tube, e, safe_r,
                                         self.curvature_scale(t), self.dim)

    def issues(self, grid: Grid, r_c: float, eps: float) -> list:
        """The validation rules of a sphere on this grid."""
        issues = []
        min_r = self.min_radius()
        if r_c >= min_r:
            issues.append(
                f"cutoff.r_c: must stay below the minimal sphere radius "
                f"{min_r:.6g} (r_c = {r_c:.6g})")
        guard = max(2.0 * r_c, EXTINCTION_EPS_FACTOR * eps)
        if min_r < guard - 1e-12:
            issues.append(
                f"trajectory.t_max: extinction guard requires R(t_max) >= "
                f"max(2 r_c, {EXTINCTION_EPS_FACTOR:g} eps) = {guard:.6g} "
                f"(R(t_max) = {min_r:.6g})")
        if self.dim != grid.dim:
            issues.append("trajectory.dim: must match grid dim")
        if grid.mode == RADIAL and np.linalg.norm(self.center) > 1e-12:
            issues.append("grid.mode: radial mode requires the sphere "
                          "centered at the origin")
        return issues

    def exempt_axes(self) -> tuple:
        return ()


InterfaceTrajectory = Union[PlaneInterface, SphereInterface]


def _check_time(traj: InterfaceTrajectory, t: float) -> None:
    if not -1e-12 <= t <= traj.t_max + 1e-12:   # NaN fails too
        raise ValueError(f"t={t} outside [0, t_max={traj.t_max}]")


# The clips below call the ndarray method: np.clip's dispatch costs as much
# as the clip on a tube's few hundred cells.  The cubes are products: numpy's
# float power is an order of magnitude slower on a tube row.

def smoothstep(x):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 across the joints."""
    x = np.asarray(x).clip(0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_deriv(x):
    x = np.asarray(x).clip(0.0, 1.0)
    return 30.0 * (x * (1.0 - x)) ** 2


@dataclass(frozen=True)
class CutoffSpec:
    """Tube cutoff eta(s) = (1 - s^2/r_c^2) * eta_tilde(s).

    eta_tilde is 1 on |s| <= r_c/4, 0 on |s| >= r_c/2, and a monotone
    quintic smoothstep in between (C^2, so div xi stays differentiable).
    The quadratic factor is at least 3/4 where eta_tilde is nonzero.
    """

    r_c: float

    def __post_init__(self):
        if not self.r_c > 0.0:
            raise ValueError("r_c must be positive")
        # eta' divides by r_c^2, which must neither underflow nor overflow
        if not np.finfo(float).tiny <= self.r_c * self.r_c < np.inf:
            raise ValueError(f"r_c = {self.r_c!r} out of range: r_c^2 is "
                             f"not a normal float")

    def _ramp(self, s):
        """The smoothstep argument of eta_tilde: 0 at |s| = r_c/4, 1 at
        |s| = r_c/2."""
        a = np.abs(np.asarray(s, dtype=float))
        return (a - 0.25 * self.r_c) / (0.25 * self.r_c)

    def in_tube(self, s):
        """Where eta_tilde(s) can be nonzero: |s| < r_c/2, decided by the
        very ramp value eta_tilde clips.  Elsewhere the ramp clips to 1, so
        eta_tilde, eta and both derivatives are exact zeros, and so is every
        field built from them."""
        return self._ramp(s) < 1.0

    def profile(self, s) -> tuple:
        """(eta, eta', eta_tilde, eta_tilde') at s, from one ramp value."""
        s = np.asarray(s, dtype=float)
        x = self._ramp(s)
        eta_t = 1.0 - smoothstep(x)
        deta_t = -np.sign(s) * _smoothstep_deriv(x) / (0.25 * self.r_c)
        quad = 1.0 - (s / self.r_c) ** 2
        deta = (-2.0 * s / self.r_c ** 2) * eta_t + quad * deta_t
        return quad * eta_t, deta, eta_t, deta_t

    @property
    def deriv_bound(self) -> float:
        """C with |eta'(s)| <= C * min(1/r_c, |s|/r_c^2) for all s."""
        return 34.0   # 4 from the quadratic factor, 30 from the smoothstep


@dataclass
class ExtendedFields:
    """Closed-form interface fields evaluated on a grid at one time.

    Every field vanishes off the tube of the cutoff (CutoffSpec.in_tube),
    so it is stored at the tube's cells only: tube holds their flat indices
    in a grid of the given shape, and the last axis of each field runs over
    the cells.  Vector fields carry the grid's component axis first.  grad
    H is A e e + B (I - e e), e the unit direction away from the phase (-n
    on a plane, where k = 0 and 1/r = 0 make A = B = 0), which the two
    helpers contract without materializing the matrix; dt xi and (H .
    grad) xi are C e and D e, which xi_rate forms where it is read.
    """

    shape: tuple
    tube: np.ndarray
    xi: np.ndarray
    hvec: np.ndarray
    div_xi: np.ndarray
    div_h: np.ndarray
    dt_xi_rad: np.ndarray    # C
    adv_xi_rad: np.ndarray   # D
    grad_h_rad: np.ndarray   # A
    grad_h_tan: np.ndarray   # B
    e: np.ndarray

    @classmethod
    def from_frame(cls, cutoff: CutoffSpec, dist: np.ndarray, tube, e,
                   safe_r, k: float, d: int) -> ExtendedFields:
        """The fields at the tube cells from the frame there: e, safe_r (r
        with zeros replaced by 1) and k = (d-1)/R.  With s = dist there,
            xi        = -eta(s) e
            H         = -k eta_t(s) e
            div xi    = eta'(s) - (d-1) eta / r
            div H     = k eta_t'(s) - (d-1) k eta_t / r
            dt xi     = k eta'(s) e
            (H.g) xi  = -k eta_t(s) eta'(s) e
            grad H    = k eta_t'(s) e e - (k eta_t / r)(I - e e).
        """
        s = _at_cells(dist, tube, dist.ndim)
        eta, deta, eta_t, deta_t = cutoff.profile(s)
        return cls(shape=dist.shape, tube=tube, xi=-eta * e,
                   hvec=-k * eta_t * e,
                   div_xi=deta - (d - 1) * eta / safe_r,
                   div_h=k * deta_t - (d - 1) * k * eta_t / safe_r,
                   dt_xi_rad=k * deta, adv_xi_rad=-k * eta_t * deta,
                   grad_h_rad=k * deta_t, grad_h_tan=-k * eta_t / safe_r,
                   e=e)

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """A whole-grid field, scalar or vector, at the tube cells."""
        return _at_cells(f, self.tube, len(self.shape))

    def scatter(self, values: np.ndarray, base=None) -> np.ndarray:
        """The whole-grid field equal to values on the tube and to base
        elsewhere.  base (zero when None) is written in place, so it must
        be a C-contiguous array the caller owns."""
        lead = values.shape[:-1]
        out = np.zeros(lead + self.shape) if base is None else base
        out.reshape(lead + (-1,))[..., self.tube] = values
        return out

    def xi_rate(self) -> np.ndarray:
        """dt xi + (H . grad) xi."""
        return self.dt_xi_rad * self.e + self.adv_xi_rad * self.e

    def grad_h_quad(self, v: np.ndarray) -> np.ndarray:
        """grad H : v (x) v = A (e.v)^2 + B (v.v - (e.v)^2)."""
        ev2 = np.square((self.e * v).sum(axis=0))
        vv = (v * v).sum(axis=0)
        return self.grad_h_rad * ev2 + self.grad_h_tan * (vv - ev2)

    def grad_h_vec(self, w: np.ndarray) -> np.ndarray:
        """(grad H)^T w = A (e.w) e + B (w - (e.w) e); grad H is symmetric
        for these trajectories."""
        ew = (self.e * w).sum(axis=0)
        return (self.grad_h_rad * ew * self.e
                + self.grad_h_tan * (w - ew * self.e))


def interface_distance(traj: InterfaceTrajectory, grid: Grid,
                       t: float) -> np.ndarray:
    """Exact signed distance to the interface at time t on every cell of
    the grid, positive inside, as a new array the caller owns.  The one
    place the distance is computed: the initial data, the boundary-flatness
    rule, the interface fields and the diagnostics' distance terms all read
    it.  A radial grid takes a sphere centered at the origin (the sphere's
    issues enforce it)."""
    _check_time(traj, t)
    return traj.distance(grid, t)


def extended_fields(traj: InterfaceTrajectory, cutoff: CutoffSpec,
                    grid: Grid, t: float) -> ExtendedFields:
    """Every interface field the diagnostics need on the grid: the
    trajectory's tube_fields on the cutoff's tube (off the tube each of them
    is an exact zero).  The distance that picks the tube is not kept."""
    dist = interface_distance(traj, grid, t)
    tube = np.flatnonzero(cutoff.in_tube(dist))
    return traj.tube_fields(cutoff, grid, t, dist, tube)


def _at_cells(f, cells, ndim):
    """A scalar or vector field over an ndim-dimensional grid at the cells
    with the given flat indices."""
    return f.reshape(f.shape[:f.ndim - ndim] + (-1,)).take(cells, axis=-1)


@lru_cache(maxsize=2)
def radial_frame(grid: Grid, center: tuple) -> np.ndarray:
    """r, the distance to center on every cell of the grid.  It does not
    change in time, so it is computed once per grid and center, from the
    grid's open coordinates, and shared, hence read-only.  On the radial
    line center is the origin and r the axis."""
    if grid.mode == RADIAL:
        r = grid.axis.view()
    else:   # summed over k in order, the open coordinates broadcasting
        r = np.sqrt(sum(np.square(x - c)
                        for x, c in zip(grid.open_coords, center)))
    r.flags.writeable = False
    return r


def radial_frame_at(grid: Grid, center: tuple, cells: np.ndarray) -> tuple:
    """(safe_r, e) at the cells with the given flat indices: r with its
    zeros replaced by 1, and the unit direction away from center (zero at
    center).  Each value has the operations of the whole-grid expressions
    where(r > 0, r, 1) and where(r > 0, (x - center) / safe_r, 0)."""
    whole = radial_frame(grid, center)
    r = _at_cells(whole, cells, whole.ndim)
    away = r > 0.0
    safe_r = np.where(away, r, 1.0)
    if grid.mode == RADIAL:
        return safe_r, np.where(away, 1.0, 0.0)[np.newaxis, :]
    rel = grid.coords_at(cells) - np.asarray(center, dtype=float)[:, None]
    return safe_r, np.where(away, rel / safe_r, 0.0)


def tau_truncation(s):
    """Smooth odd clamp of the identity: s on |s| <= 1/2, sign(s) beyond
    |s| = 1, monotone quintic in between (C^2, tau(s) >= min(s, 1/2) for
    s > 0)."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    x = (2.0 * a - 1.0).clip(0.0, 1.0)
    blend = 0.5 + 0.5 * x + x * x * x * (2.0 + x * (-3.5 + 1.5 * x))
    mag = np.where(a <= 0.5, a, np.where(a >= 1.0, 1.0, blend))
    return np.sign(s) * mag


@dataclass
class XiResidualReport:
    """Sup norms of the transport/length/curvature residuals of xi, divided
    by max(|dist|, floor) or its square, over the quarter and half tubes.

    The floor (two grid spacings) removes the 0/0 amplification at grid
    points falling arbitrarily close to the interface.
    """

    h: float
    dt_fd: float
    floor: float
    transport_quarter: float
    transport_half: float
    length_quarter: float
    length_half: float
    curvature_quarter: float
    curvature_half: float


def xi_pde_residuals(traj: InterfaceTrajectory, cutoff: CutoffSpec,
                     grid: Grid, t: float,
                     dt_fd: float = 1e-4) -> XiResidualReport:
    """Finite-difference check of the evolution equations satisfied by xi.

    Residuals (all O(dist) except the length one, O(dist^2)):
        r1 = dt xi + (H . grad) xi + (grad H)^T xi
        r2 = dt |xi|^2 + (H . grad) |xi|^2
        r3 = -div xi - H . xi
    Time derivatives use central differences with step dt_fd; spatial
    derivatives use the grid stencils on exactly evaluated fields, so the
    report probes the geometry identities rather than our closed forms.
    """
    if grid.mode != FULL:
        raise ValueError("xi residual checks run on full grids")
    f0 = extended_fields(traj, cutoff, grid, t)
    fp = extended_fields(traj, cutoff, grid, t + dt_fd)
    fm = extended_fields(traj, cutoff, grid, t - dt_fd if t >= dt_fd else 0.0)
    span = (t + dt_fd) - (t - dt_fd if t >= dt_fd else 0.0)

    # the stencils need xi on the whole grid; the three tubes differ
    xi, xi_p, xi_m = (f.scatter(f.xi) for f in (f0, fp, fm))
    hvec = f0.scatter(f0.hvec)
    dts_xi = (xi_p - xi_m) / span
    dts_xi2 = (np.sum(xi_p ** 2, axis=0) - np.sum(xi_m ** 2, axis=0)) / span

    grads = [grid.gradient(xi[i]) for i in range(grid.ncomp)]
    adv = np.stack([np.sum(hvec * grads[i], axis=0)
                    for i in range(grid.ncomp)])
    r1 = dts_xi + adv + f0.scatter(f0.grad_h_vec(f0.xi))

    grad_xi2 = grid.gradient(np.sum(xi ** 2, axis=0))
    r2 = dts_xi2 + np.sum(hvec * grad_xi2, axis=0)

    div_fd = sum(grads[i][i] for i in range(grid.ncomp))
    r3 = -div_fd - np.sum(hvec * xi, axis=0)

    floor = 2.0 * grid.h
    adist = np.abs(interface_distance(traj, grid, t))
    denom1 = np.maximum(adist, floor)
    denom2 = denom1 ** 2
    r1n = np.sqrt(np.sum(r1 ** 2, axis=0))

    def sup(field, denom, radius):
        mask = adist <= radius
        return float(np.max(np.where(mask, np.abs(field) / denom, 0.0)))

    return XiResidualReport(
        h=grid.h, dt_fd=dt_fd, floor=floor,
        transport_quarter=sup(r1n, denom1, cutoff.r_c / 4.0),
        transport_half=sup(r1n, denom1, cutoff.r_c / 2.0),
        length_quarter=sup(r2, denom2, cutoff.r_c / 4.0),
        length_half=sup(r2, denom2, cutoff.r_c / 2.0),
        curvature_quarter=sup(r3, denom1, cutoff.r_c / 4.0),
        curvature_half=sup(r3, denom1, cutoff.r_c / 2.0))
