"""The double well, the 1D equilibrium profile, and the phase map.

The one well is the quartic W(s) = (9/8)(1 - s^2)^2, in closed form here:
w, dw = W', the phase map psi(u) = int_0^u sqrt(2 W) = (3/2)(u - u^3/3),
which turns fields into near-indicators, and MAX_DDW = max W'' on [-1, 1],
the constant of the step-size rule.  W is symmetric, vanishes exactly at
+-1, and is normalized so that the surface-tension integral of sqrt(2 W)
over [-1, 1] equals 2.  The equilibrium profile theta solves
theta' = sqrt(2 W(theta)) with theta(0) = 0 and connects -1 to +1 with
exponential tails.

The profile is tabulated by RK4 with 4,096 steps on [0, 8]; the table
matches the well's closed form theta(s) = tanh(3 s / 2) to 2e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# |1 - |u|| within this counts as sitting on a well +-1: the roundoff a
# stepped field keeps there (count_excursions, the radial step band)
WELL_ROUNDOFF = 1e-12
DW_COEF = 4.5   # W'(s) = DW_COEF s (s^2 - 1): read by dw and the step
MAX_DDW = 9.0   # max of W''(s) = (9/2)(3 s^2 - 1) on [-1, 1]
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


def w(s):
    """W(s) = (9/8)(1 - s^2)^2; a float stays a float (the profile RK4
    calls it per stage)."""
    return 1.125 * (1.0 - s * s) ** 2


def dw(s):
    """W'(s) = (9/2) s (s^2 - 1), a new array."""
    s = np.asarray(s, dtype=float)
    return DW_COEF * s * (s * s - 1.0)


def psi(u):
    """Phase map int_0^u sqrt(2 W) = (3/2)(u - u^3/3); inputs are clamped
    into [-1, 1]."""
    # the ndarray method: np.clip's dispatch costs more than the clip on
    # the radial line
    u = np.asarray(u).clip(-1.0, 1.0)
    # products only: numpy's float64 power takes a slow path for negative
    # bases and is not exactly odd; this form is, and hits +-1 at u = +-1
    return u * (1.5 - 0.5 * (u * u))


def root_2w(w):
    """sqrt(2 w) from values w of W, floored at zero against roundoff."""
    return np.sqrt(np.maximum(2.0 * w, 0.0))


def count_excursions(u, bounds=None) -> int:
    """Number of samples strictly outside [-1, 1] by more than
    WELL_ROUNDOFF.

    bounds, when given, is (min u, max u): a field inside that slack of
    [-1, 1] then counts 0 without another pass over u.
    """
    limit = 1.0 + WELL_ROUNDOFF
    if bounds is not None and -limit <= bounds[0] and bounds[1] <= limit:
        return 0
    return int(np.count_nonzero(np.abs(np.asarray(u)) > limit))


def normalization_integral() -> float:
    """Quadrature of sqrt(2 W) over [-1, 1]; equals 2 for the standard well.

    One vectorized call of w on the 101 tanh-sinh nodes.
    """
    return float(np.dot(_TS_WEIGHTS, root_2w(w(_TS_NODES))))


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

    Samples cover [-PROFILE_S_MAX, PROFILE_S_MAX]; beyond that the profile
    is clamped to +-1 (tail_bound records the size of the jump
    1 - theta(PROFILE_S_MAX)).
    """

    s: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray
    tail_bound: float
    _coef: tuple = field(repr=False, default=None)   # _pchip_coefficients

    def __call__(self, s):
        """theta at s, a new array of s's shape, gathering one coefficient
        at a time."""
        s = np.asarray(s, dtype=float)
        x = s.clip(-PROFILE_S_MAX, PROFILE_S_MAX)
        i = (np.searchsorted(self.s, x, side="right") - 1).clip(
            0, len(self.s) - 2)
        c0, c1, c2, c3 = self._coef
        dx = x - self.s[i]
        # the order of scipy's PPoly evaluation, for the same bits
        inside = c2[i] * dx + c3[i]
        z = dx * dx
        inside += c1[i] * z
        z *= dx
        inside += c0[i] * z
        return np.where(np.abs(s) > PROFILE_S_MAX, np.sign(s), inside)

    def kappa0(self) -> float:
        """The L1 constant int |psi(theta(s)) - sign s| ds of the profile:
        2 int_0^PROFILE_S_MAX (1 - psi(theta(s))) ds by the trapezoid rule
        on the table's samples s >= 0.  The tail beyond PROFILE_S_MAX,
        where 1 - theta < tail_bound, is left out."""
        half = self.s >= 0.0
        gap = 1.0 - psi(self.theta[half])
        return 2.0 * float(np.trapezoid(gap, self.s[half]))


def _integrate_profile() -> np.ndarray:
    """Classical RK4 for theta' = sqrt(2 W(theta)) from theta(0) = 0,
    PROFILE_STEPS steps on [0, PROFILE_S_MAX], on Python floats (numpy
    scalars would cost more than the arithmetic)."""
    h = PROFILE_S_MAX / PROFILE_STEPS

    def f(v):
        return math.sqrt(max(2.0 * w(min(v, 1.0)), 0.0))

    theta = [0.0]
    v = 0.0
    for _ in range(PROFILE_STEPS):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = min(v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 1.0)
        theta.append(v)
    return np.array(theta)


def solve_profile() -> ProfileTable:
    """Integrate the profile ODE and tabulate it on [-PROFILE_S_MAX,
    PROFILE_S_MAX], PROFILE_STEPS RK4 steps a side."""
    theta = _integrate_profile()
    s_half = np.linspace(0.0, PROFILE_S_MAX, PROFILE_STEPS + 1)
    s_full = np.concatenate([-s_half[:0:-1], s_half])
    theta_full = np.concatenate([-theta[:0:-1], theta])
    dtheta_full = root_2w(w(theta_full))   # theta lies in [-1, 1]
    return ProfileTable(s=s_full, theta=theta_full, dtheta=dtheta_full,
                        tail_bound=float(1.0 - theta[-1]),
                        _coef=_pchip_coefficients(s_full, theta_full))
