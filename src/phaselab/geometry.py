"""Exact interface trajectories under mean curvature flow and the extended
vector fields built from them.

Two closed-form trajectories are supported: a stationary flat plane and a
shrinking sphere with radius law R(t)^2 = R0^2 - 2 (d-1) t.  The signed
distance is positive inside the enclosed phase.  The extended unit normal
is damped by a cutoff eta supported on a tube of width r_c around the
interface; the extended curvature vector uses the plateau part eta_tilde of
the cutoff.  All fields have closed-form space and time derivatives here,
which the diagnostics use directly and the finite-difference residual
checks are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .grids import FULL, Grid, RADIAL


@dataclass(frozen=True)
class PlaneInterface:
    """Stationary flat interface {normal . x = offset}; the phase lies on the
    side the (unit, inner) normal points into, so dist = normal . x - offset."""

    normal: tuple
    offset: float = 0.0
    t_max: float = 10.0

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:   # NaN fails too
            raise ValueError("plane normal must be a unit vector")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def min_radius(self) -> float:
        return np.inf


@dataclass(frozen=True)
class SphereInterface:
    """Sphere shrinking by mean curvature, phase inside the ball."""

    center: tuple
    radius0: float
    dim: int
    t_max: float

    def __post_init__(self):
        if len(self.center) != self.dim:
            raise ValueError("center length must match dim")
        if not self.radius0 > 0.0:
            raise ValueError("radius0 must be positive")
        if self.dim < 2:
            raise ValueError("sphere needs dim >= 2")
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


InterfaceTrajectory = Union[PlaneInterface, SphereInterface]


def _check_time(traj: InterfaceTrajectory, t: float) -> None:
    if t < -1e-12 or t > traj.t_max + 1e-12:
        raise ValueError(f"t={t} outside [0, t_max={traj.t_max}]")


def signed_distance(traj: InterfaceTrajectory, x, t: float):
    """Exact signed distance to the interface at time t, positive inside.

    x has the coordinate axis last: shape (..., d).
    """
    _check_time(traj, t)
    x = np.asarray(x, dtype=float)
    if isinstance(traj, PlaneInterface):
        return x @ np.asarray(traj.normal) - traj.offset
    rel = x - np.asarray(traj.center)
    return traj.radius(t) - np.linalg.norm(rel, axis=-1)


def smoothstep(x):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 across the joints."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_deriv(x):
    x = np.clip(x, 0.0, 1.0)
    return 30.0 * (x * (1.0 - x)) ** 2


@dataclass(frozen=True)
class CutoffSpec:
    """Tube cutoff eta(s) = (1 - c_quad s^2/r_c^2) * eta_tilde(s).

    eta_tilde is 1 on |s| <= r_c/4, 0 on |s| >= r_c/2, and a monotone
    quintic smoothstep in between (C^2, so div xi stays differentiable).
    c_quad must lie in (0, 4) to keep eta nonnegative on the plateau.
    """

    r_c: float
    c_quad: float = 1.0

    def __post_init__(self):
        if not self.r_c > 0.0:
            raise ValueError("r_c must be positive")
        if not 0.0 < self.c_quad < 4.0:
            raise ValueError("c_quad must lie in (0, 4)")

    def eta_tilde(self, s):
        a = np.abs(np.asarray(s, dtype=float))
        return 1.0 - smoothstep((a - 0.25 * self.r_c) / (0.25 * self.r_c))

    def deta_tilde(self, s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        return -np.sign(s) * _smoothstep_deriv(
            (a - 0.25 * self.r_c) / (0.25 * self.r_c)) / (0.25 * self.r_c)

    def eta(self, s):
        s = np.asarray(s, dtype=float)
        return (1.0 - self.c_quad * (s / self.r_c) ** 2) * self.eta_tilde(s)

    def deta(self, s):
        s = np.asarray(s, dtype=float)
        quad = 1.0 - self.c_quad * (s / self.r_c) ** 2
        return (-2.0 * self.c_quad * s / self.r_c ** 2) * self.eta_tilde(s) \
            + quad * self.deta_tilde(s)

    @property
    def deriv_bound(self) -> float:
        """C with |eta'(s)| <= C * min(1/r_c, |s|/r_c^2) for all s."""
        return 4.0 * self.c_quad + 30.0


@dataclass
class ExtendedFields:
    """Closed-form interface fields evaluated on a grid at one time.

    Vector fields carry the grid's component axis first.  grad H has the
    radially symmetric form A e(x)e(x) + B (I - e(x)e(x)) with e the unit
    radial direction (A = B = 0 for planes), which the two helpers contract
    without materializing the matrix.
    """

    dist: np.ndarray
    chi: np.ndarray
    xi: np.ndarray
    hvec: np.ndarray
    div_xi: np.ndarray
    div_h: np.ndarray
    dt_xi: np.ndarray
    adv_xi: np.ndarray       # (H . grad) xi
    grad_h_rad: np.ndarray   # A
    grad_h_tan: np.ndarray   # B
    e: np.ndarray

    def grad_h_quad(self, v: np.ndarray) -> np.ndarray:
        """grad H : v (x) v."""
        ev = np.sum(self.e * v, axis=0)
        vv = np.sum(v * v, axis=0)
        return self.grad_h_rad * ev ** 2 + self.grad_h_tan * (vv - ev ** 2)

    def grad_h_vec(self, w: np.ndarray) -> np.ndarray:
        """(grad H)^T w; grad H is symmetric for these trajectories."""
        ew = np.sum(self.e * w, axis=0)
        return self.grad_h_rad * ew * self.e \
            + self.grad_h_tan * (w - ew * self.e)


def extended_fields(traj: InterfaceTrajectory, cutoff: CutoffSpec,
                    grid: Grid, t: float) -> ExtendedFields:
    """Evaluate every interface field the diagnostics need on the grid."""
    _check_time(traj, t)
    if grid.mode == RADIAL:
        return _extended_fields_radial(traj, cutoff, grid, t)
    return _extended_fields_full(traj, cutoff, grid, t)


def _extended_fields_full(traj, cutoff, grid, t) -> ExtendedFields:
    X = grid.coords()                      # (d,) + shape
    shape = X.shape[1:]
    zeros_s = np.zeros(shape)
    zeros_v = np.zeros(X.shape)

    if isinstance(traj, PlaneInterface):
        n = np.asarray(traj.normal, dtype=float)
        dist = np.tensordot(n, X, axes=(0, 0)) - traj.offset
        eta = cutoff.eta(dist)
        n_field = n.reshape((-1,) + (1,) * len(shape)) * np.ones(shape)
        return ExtendedFields(
            dist=dist, chi=np.where(dist >= 0.0, 1.0, -1.0),
            xi=eta * n_field, hvec=zeros_v, div_xi=cutoff.deta(dist),
            div_h=zeros_s, dt_xi=zeros_v, adv_xi=zeros_v,
            grad_h_rad=zeros_s, grad_h_tan=zeros_s, e=zeros_v)

    center = np.asarray(traj.center, dtype=float)
    rel = X - center.reshape((-1,) + (1,) * len(shape))
    r = np.sqrt(np.sum(rel ** 2, axis=0))
    safe_r = np.where(r > 0.0, r, 1.0)
    e = np.where(r > 0.0, rel / safe_r, 0.0)
    R = traj.radius(t)
    k = traj.curvature_scale(t)
    dist = R - r
    return _sphere_fields(traj.dim, cutoff, dist, e, safe_r, k)


def _extended_fields_radial(traj, cutoff, grid, t) -> ExtendedFields:
    if not isinstance(traj, SphereInterface):
        raise ValueError("radial grids require a sphere trajectory")
    if np.linalg.norm(traj.center) > 1e-12:
        raise ValueError("radial grids require the sphere centered at origin")
    r = grid.axis
    safe_r = np.where(r > 0.0, r, 1.0)
    e = np.where(r > 0.0, 1.0, 0.0)[np.newaxis, :]
    dist = traj.radius(t) - r
    return _sphere_fields(traj.dim, cutoff, dist, e, safe_r,
                          traj.curvature_scale(t))


def _sphere_fields(d, cutoff, dist, e, safe_r, k) -> ExtendedFields:
    """Shared sphere formulas; e is the unit outward radial direction.

    With dist = R - r the closed forms are
        xi        = -eta(dist) e
        H         = -k eta_t(dist) e,            k = (d-1)/R
        div xi    = eta'(dist) - (d-1) eta / r
        div H     = k eta_t'(dist) - (d-1) k eta_t / r
        dt xi     = k eta'(dist) e
        (H.g) xi  = -k eta_t(dist) eta'(dist) e
        grad H    = k eta_t'(dist) e e - (k eta_t / r)(I - e e).
    """
    eta = cutoff.eta(dist)
    deta = cutoff.deta(dist)
    eta_t = cutoff.eta_tilde(dist)
    deta_t = cutoff.deta_tilde(dist)
    return ExtendedFields(
        dist=dist,
        chi=np.where(dist >= 0.0, 1.0, -1.0),
        xi=-eta * e,
        hvec=-k * eta_t * e,
        div_xi=deta - (d - 1) * eta / safe_r,
        div_h=k * deta_t - (d - 1) * k * eta_t / safe_r,
        dt_xi=k * deta * e,
        adv_xi=-k * eta_t * deta * e,
        grad_h_rad=k * deta_t,
        grad_h_tan=-k * eta_t / safe_r,
        e=e)


def tau_truncation(s):
    """Smooth odd clamp of the identity: s on |s| <= 1/2, sign(s) beyond
    |s| = 1, monotone quintic in between (C^2, tau(s) >= min(s, 1/2) for
    s > 0)."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    x = np.clip(2.0 * a - 1.0, 0.0, 1.0)
    blend = 0.5 + 0.5 * x + x ** 3 * (2.0 + x * (-3.5 + 1.5 * x))
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

    dts_xi = (fp.xi - fm.xi) / span
    dts_xi2 = (np.sum(fp.xi ** 2, axis=0) - np.sum(fm.xi ** 2, axis=0)) / span

    grads = [grid.gradient(f0.xi[i]) for i in range(grid.ncomp)]
    adv = np.stack([np.sum(f0.hvec * grads[i], axis=0)
                    for i in range(grid.ncomp)])
    r1 = dts_xi + adv + f0.grad_h_vec(f0.xi)

    grad_xi2 = grid.gradient(np.sum(f0.xi ** 2, axis=0))
    r2 = dts_xi2 + np.sum(f0.hvec * grad_xi2, axis=0)

    div_fd = sum(grads[i][i] for i in range(grid.ncomp))
    r3 = -div_fd - np.sum(f0.hvec * f0.xi, axis=0)

    floor = 2.0 * grid.h
    adist = np.abs(f0.dist)
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
