"""The double-well potential, the 1D equilibrium profile, and the phase map.

The one potential is the standard quartic well W(s) = (9/8)(1 - s^2)^2: it
is symmetric, vanishes exactly at +-1, and is normalized so that the
surface-tension integral of sqrt(2 W) over [-1, 1] equals 2.  The
equilibrium profile theta solves theta' = sqrt(2 W(theta)) with theta(0) = 0
and connects -1 to +1 with exponential tails; the phase map
psi(u) = int_0^u sqrt(2 W) turns fields into near-indicators.

The profile is tabulated by RK4 with 4,096 steps on [0, 8]; the table
matches the well's closed form theta(s) = tanh(3 s / 2) to 2e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# |1 - |u|| within this counts as sitting on a well +-1: the roundoff a
# stepped field keeps there (count_excursions, the radial step band)
WELL_ROUNDOFF = 1e-12
# the profile table: RK4 steps on [0, PROFILE_S_MAX], mirrored to the left
PROFILE_S_MAX = 8.0
PROFILE_STEPS = 4096

# tanh-sinh rule on [-1, 1]: nodes tanh(pi/2 sinh t) and weights
# h pi/2 cosh t / cosh^2(pi/2 sinh t) at t = k h, |k| <= 50, h = 1/16.  The
# double-exponential decay towards +-1 absorbs the sqrt(1 - s) endpoint
# behaviour of sqrt(2 W) at a simple root, where Gauss-Legendre loses digits.
_TS_STEP = 1.0 / 16.0
_TS_T = _TS_STEP * np.arange(-50, 51)
_TS_NODES = np.tanh(0.5 * np.pi * np.sinh(_TS_T))
_TS_WEIGHTS = (_TS_STEP * 0.5 * np.pi * np.cosh(_TS_T)
               / np.cosh(0.5 * np.pi * np.sinh(_TS_T)) ** 2)


class PotentialError(ValueError):
    """Raised for a potential name that names no potential."""


@dataclass(frozen=True)
class PotentialSpec:
    """A normalized symmetric double-well potential in closed form.

    Attributes:
        name: identifier used in run configurations.
        w, dw: vectorized W, W'.
        max_ddw: max of W'' on [-1, 1]; used for time-step stability bounds.
        dw_coef: W' as power-series coefficients, low to high degree.
    """

    name: str
    w: Callable
    dw: Callable
    max_ddw: float
    dw_coef: tuple
    _psi: Callable = field(repr=False)

    def psi(self, u):
        """Phase map int_0^u sqrt(2 W); inputs are clamped into [-1, 1]."""
        # the ndarray method: np.clip's dispatch costs more than the clip
        # on the radial line
        return self._psi(np.asarray(u).clip(-1.0, 1.0))


def root_2w(w):
    """sqrt(2 w) from values w of W, floored at zero against roundoff."""
    return np.sqrt(np.maximum(2.0 * w, 0.0))


def count_excursions(u, tol: float = WELL_ROUNDOFF, bounds=None) -> int:
    """Number of samples strictly outside [-1, 1] (beyond roundoff slack).

    bounds, when given, is (min u, max u): a field inside [-1 - tol, 1 + tol]
    then counts 0 without another pass over u.
    """
    if bounds is not None and -1.0 - tol <= bounds[0] \
            and bounds[1] <= 1.0 + tol:
        return 0
    return int(np.count_nonzero(np.abs(np.asarray(u)) > 1.0 + tol))


def normalization_integral(w: Callable) -> float:
    """Quadrature of sqrt(2 W) over [-1, 1]; equals 2 for admissible W.

    One vectorized call of w on the 101 tanh-sinh nodes.
    """
    return float(np.dot(_TS_WEIGHTS, root_2w(w(_TS_NODES))))


def make_standard_potential() -> PotentialSpec:
    """The normalized quartic well W(s) = (9/8)(1 - s^2)^2.

    Closed forms: W'(s) = (9/2) s (s^2 - 1), W''(s) = (9/2)(3 s^2 - 1),
    psi(u) = (3/2)(u - u^3/3), profile theta(s) = tanh(3 s / 2).  max W''
    on [-1, 1] is 9.
    """
    def w(s):   # a float stays a float: the profile RK4 calls it per stage
        return 1.125 * (1.0 - s * s) ** 2

    def dw(s):
        s = np.asarray(s, dtype=float)
        return 4.5 * s * (s * s - 1.0)

    def psi(u):
        # products only: numpy's float64 power takes a slow path for negative
        # bases and is not exactly odd; this form is, and hits +-1 at u = +-1
        return u * (1.5 - 0.5 * (u * u))

    return PotentialSpec(name="standard", w=w, dw=dw, max_ddw=9.0,
                         dw_coef=(0.0, -4.5, 0.0, 4.5), _psi=psi)


def potential_by_name(name: str) -> PotentialSpec:
    if name == "standard":
        return make_standard_potential()
    raise PotentialError(f"unknown potential '{name}'")


def _pchip_edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> tuple:
    """Power-series coefficients (c0, c1, c2, c3) of the monotone cubic
    (Fritsch-Butland PCHIP) interpolant: on [x_i, x_i+1] it is
    c0 z^3 + c1 z^2 + c2 z + c3 with z = x - x_i.  The slopes and the
    coefficients follow scipy.interpolate.PchipInterpolator operation by
    operation, so both give the same bits."""
    h = np.diff(x)
    m = np.diff(y) / h
    sm = np.sign(m)
    mean = ~((sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0))
    w1 = (2 * h[1:] + h[:-1])[mean]
    w2 = (h[1:] + 2 * h[:-1])[mean]
    d = np.zeros_like(y)   # zero slope at a flat piece or a sign change
    d[1:-1][mean] = 1.0 / ((w1 / m[:-1][mean] + w2 / m[1:][mean])
                           / (w1 + w2))
    d[0] = _pchip_edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


@dataclass(frozen=True)
class ProfileTable:
    """Sampled equilibrium profile with monotone-cubic interpolation.

    Samples cover [-s_max, s_max]; beyond that the profile is clamped to
    +-1 (tail_bound records the size of the jump 1 - theta(s_max)).
    """

    s: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray
    s_max: float
    tail_bound: float
    potential: PotentialSpec
    _coef: tuple = field(repr=False, default=None)   # _pchip_coefficients

    def __call__(self, s):
        """theta at s, a new array of s's shape.  Evaluated by out= ufuncs
        into five arrays of s's size, gathering one coefficient at a time;
        every value has the operations of the plain expressions in the
        comments."""
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        x = np.clip(flat, -self.s_max, self.s_max)
        i = np.searchsorted(self.s, x, side="right")
        np.clip(np.subtract(i, 1, out=i), 0, len(self.s) - 2, out=i)
        c0, c1, c2, c3 = self._coef
        # the indices are in range, and mode="clip" takes without a buffer

        def gather(c, out):
            return np.take(c, i, out=out, mode="clip")

        buf = gather(self.s, np.empty_like(x))
        dx = np.subtract(x, buf, out=x)   # x - s[i]
        # the order of scipy's PPoly evaluation, for the same bits:
        # inside = c3 + c2 dx; z = dx dx; inside += c1 z; z *= dx;
        # inside += c0 z
        inside = np.multiply(gather(c2, np.empty_like(x)), dx)
        inside += gather(c3, buf)
        z = np.multiply(dx, dx)
        inside += np.multiply(gather(c1, buf), z, out=buf)
        z *= dx
        inside += np.multiply(gather(c0, buf), z, out=buf)
        # where |s| > s_max, sign(s)
        beyond = np.greater(np.abs(flat, out=buf), self.s_max)
        np.copyto(inside, np.sign(flat, out=buf), where=beyond)
        return inside.reshape(s.shape)

    def kappa0(self) -> float:
        """The L1 constant int |psi(theta(s)) - sign s| ds of the profile,
        psi the potential's phase map: 2 int_0^s_max (1 - psi(theta(s))) ds
        by the trapezoid rule on the table's samples s >= 0.  The tail
        beyond s_max, where 1 - theta < tail_bound, is left out."""
        half = self.s >= 0.0
        gap = 1.0 - self.potential.psi(self.theta[half])
        return 2.0 * float(np.trapezoid(gap, self.s[half]))


def _integrate_profile(p: PotentialSpec, s_max: float, n: int) -> np.ndarray:
    """Classical RK4 for theta' = sqrt(2 W(theta)) from theta(0) = 0, on
    Python floats (numpy scalars would cost more than the arithmetic)."""
    h = s_max / n
    w = p.w

    def f(v):
        return math.sqrt(max(2.0 * w(min(v, 1.0)), 0.0))

    theta = [0.0]
    v = 0.0
    for _ in range(n):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = min(v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 1.0)
        theta.append(v)
    return np.array(theta)


def solve_profile(p: PotentialSpec) -> ProfileTable:
    """Integrate the profile ODE and tabulate it on [-PROFILE_S_MAX,
    PROFILE_S_MAX], PROFILE_STEPS RK4 steps a side."""
    theta = _integrate_profile(p, PROFILE_S_MAX, PROFILE_STEPS)
    s_half = np.linspace(0.0, PROFILE_S_MAX, PROFILE_STEPS + 1)
    s_full = np.concatenate([-s_half[:0:-1], s_half])
    theta_full = np.concatenate([-theta[:0:-1], theta])
    dtheta_full = root_2w(p.w(theta_full))   # theta lies in [-1, 1]
    return ProfileTable(s=s_full, theta=theta_full, dtheta=dtheta_full,
                        s_max=PROFILE_S_MAX, tail_bound=float(1.0 - theta[-1]),
                        potential=p,
                        _coef=_pchip_coefficients(s_full, theta_full))
