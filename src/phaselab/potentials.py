"""Double-well potentials, the 1D equilibrium profile, and the phase map.

Every shipped potential W is symmetric, vanishes exactly at +-1, and is
normalized so that the surface-tension integral of sqrt(2 W) over [-1, 1]
equals 2.  The equilibrium profile theta solves theta' = sqrt(2 W(theta))
with theta(0) = 0 and connects -1 to +1 with exponential tails; the phase
map psi(u) = int_0^u sqrt(2 W) turns fields into near-indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.interpolate import PchipInterpolator

NORMALIZATION_TOL = 1e-8
WELL_ENDPOINT_TOL = 1e-12
_PSI_TABLE_INTERVALS = 1024
_PROFILE_CONVERGENCE_TOL = 1e-7


class PotentialError(ValueError):
    """Raised when a candidate potential violates the double-well contract."""


class ProfileError(RuntimeError):
    """Raised when the profile ODE integration fails to converge."""


@dataclass(frozen=True)
class PotentialSpec:
    """A normalized symmetric double-well potential with derivatives.

    Attributes:
        name: identifier used in run configurations.
        w, dw, ddw: vectorized W, W', W''.
        max_ddw: max of W'' on [-1, 1]; used for time-step stability bounds.
    """

    name: str
    w: Callable
    dw: Callable
    ddw: Callable
    max_ddw: float
    _psi: Callable = field(repr=False, default=None)

    def psi(self, u):
        """Phase map int_0^u sqrt(2 W); inputs are clamped into [-1, 1]."""
        return self._psi(np.clip(u, -1.0, 1.0))

    def sqrt2w(self, u):
        """sqrt(2 W(u)) on clamped input, floored at zero against roundoff."""
        return root_2w(self.w(np.clip(u, -1.0, 1.0)))


def root_2w(w):
    """sqrt(2 w) from values w of W, floored at zero against roundoff."""
    return np.sqrt(np.maximum(2.0 * w, 0.0))


def count_excursions(u, tol: float = 1e-12, bounds=None) -> int:
    """Number of samples strictly outside [-1, 1] (beyond roundoff slack).

    bounds, when given, is (min u, max u): a field inside [-1 - tol, 1 + tol]
    then counts 0 without another pass over u.
    """
    if bounds is not None and -1.0 - tol <= bounds[0] \
            and bounds[1] <= 1.0 + tol:
        return 0
    return int(np.count_nonzero(np.abs(np.asarray(u)) > 1.0 + tol))


def normalization_integral(w: Callable) -> float:
    """Quadrature of sqrt(2 W) over [-1, 1]; equals 2 for admissible W."""
    val, _ = quad(lambda s: np.sqrt(max(2.0 * float(w(s)), 0.0)), -1.0, 1.0,
                  limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def _validate(name, w) -> None:
    issues = []
    for s in (-1.0, 1.0):
        if abs(float(w(s))) > WELL_ENDPOINT_TOL:
            issues.append(f"W({s:+.0f}) = {float(w(s)):.3e}, expected 0")
    s = np.linspace(-0.999, 0.999, 2001)
    if np.any(w(s) <= 0.0):
        issues.append("W must be strictly positive inside (-1, 1)")
    if np.max(np.abs(w(s) - w(-s))) > 1e-12:
        issues.append("W must be symmetric around the origin")
    norm = normalization_integral(w)
    if not abs(norm - 2.0) <= NORMALIZATION_TOL:   # NaN fails too
        issues.append(f"integral of sqrt(2W) over [-1,1] is {norm:.10f}, "
                      "expected 2 (rescale the coefficients)")
    if issues:
        raise PotentialError(f"potential '{name}': " + "; ".join(issues))


def make_standard_potential() -> PotentialSpec:
    """The normalized quartic well W(s) = (9/8)(1 - s^2)^2.

    Closed forms: W'(s) = (9/2) s (s^2 - 1), W''(s) = (9/2)(3 s^2 - 1),
    psi(u) = (3/2)(u - u^3/3).  max W'' on [-1, 1] is 9.
    """
    def w(s):
        s = np.asarray(s, dtype=float)
        return 1.125 * (1.0 - s * s) ** 2

    def dw(s):
        s = np.asarray(s, dtype=float)
        return 4.5 * s * (s * s - 1.0)

    def ddw(s):
        s = np.asarray(s, dtype=float)
        return 4.5 * (3.0 * s * s - 1.0)

    def psi(u):
        # 1.5*u - 0.5*u^3 hits +-1 exactly at u = +-1
        return 1.5 * u - 0.5 * u ** 3

    _validate("standard", w)
    return PotentialSpec(name="standard", w=w, dw=dw, ddw=ddw,
                         max_ddw=9.0, _psi=psi)


def make_polynomial_potential(coeffs) -> PotentialSpec:
    """Build the potential 'poly' from polynomial coefficients (low to high
    degree), rescaled (W -> lam^2 W) so the sqrt(2 W) integral over [-1, 1]
    equals 2.  psi is evaluated from a precomputed 1024-interval quadrature
    table with linear interpolation.
    """
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    raw = normalization_integral(lambda s: np.maximum(p(s), 0.0))
    if not raw > 0.0:
        raise PotentialError("potential 'poly': sqrt(2W) must integrate to > 0")
    p = p * (2.0 / raw) ** 2
    dp = p.deriv()
    ddp = p.deriv(2)

    def w(s):
        return p(np.asarray(s, dtype=float))

    def dw(s):
        return dp(np.asarray(s, dtype=float))

    def ddw(s):
        return ddp(np.asarray(s, dtype=float))

    _validate("poly", w)

    nodes = np.linspace(-1.0, 1.0, _PSI_TABLE_INTERVALS + 1)
    integrand = np.sqrt(np.maximum(2.0 * w(nodes), 0.0))
    table = cumulative_trapezoid(integrand, nodes, initial=0.0)
    table -= table[_PSI_TABLE_INTERVALS // 2]   # psi(0) = 0 exactly
    table *= 1.0 / table[-1]                    # pin psi(+-1) = +-1

    def psi(u):
        return np.interp(u, nodes, table)

    s_grid = np.linspace(-1.0, 1.0, 2001)
    return PotentialSpec(name="poly", w=w, dw=dw, ddw=ddw,
                         max_ddw=float(np.max(ddw(s_grid))), _psi=psi)


def potential_by_name(name: str, coeffs=None) -> PotentialSpec:
    if name == "standard":
        return make_standard_potential()
    if name == "poly":
        if coeffs is None:
            raise PotentialError("potential 'poly' requires a coefficient list")
        return make_polynomial_potential(coeffs)
    raise PotentialError(f"unknown potential '{name}'")


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
    _interp: PchipInterpolator = field(repr=False, default=None)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        inside = self._interp(np.clip(s, -self.s_max, self.s_max))
        return np.where(np.abs(s) > self.s_max, np.sign(s), inside)


def _integrate_profile(p: PotentialSpec, s_max: float, n: int) -> np.ndarray:
    """Classical RK4 for theta' = sqrt(2 W(theta)) from theta(0) = 0."""
    h = s_max / n

    def f(v):
        return np.sqrt(max(2.0 * float(p.w(min(v, 1.0))), 0.0))

    theta = np.empty(n + 1)
    theta[0] = 0.0
    v = 0.0
    for i in range(n):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        theta[i + 1] = min(v, 1.0)
        v = theta[i + 1]
    return theta


def solve_profile(p: PotentialSpec, s_max: float = 8.0,
                  n_samples: int = 4096) -> ProfileTable:
    """Integrate the profile ODE and tabulate it on [-s_max, s_max].

    Requires s_max >= 5 and n_samples >= 64.  A step-halved integration is
    compared against the result; disagreement signals a malformed potential.
    """
    if not s_max >= 5.0:
        raise ValueError(f"s_max must be >= 5, got {s_max}")
    if not n_samples >= 64:
        raise ValueError(f"n_samples must be >= 64, got {n_samples}")

    theta = _integrate_profile(p, s_max, n_samples)
    theta_fine = _integrate_profile(p, s_max, 2 * n_samples)[::2]
    err = float(np.max(np.abs(theta - theta_fine)))
    if err > _PROFILE_CONVERGENCE_TOL:
        raise ProfileError(
            f"profile integration did not converge (step-halving changes the "
            f"solution by {err:.2e}); the potential may be malformed")
    if np.any(np.diff(theta) < -1e-14):
        raise ProfileError("profile lost monotonicity during integration")

    s_half = np.linspace(0.0, s_max, n_samples + 1)
    s_full = np.concatenate([-s_half[:0:-1], s_half])
    theta_full = np.concatenate([-theta[:0:-1], theta])
    dtheta_full = p.sqrt2w(theta_full)
    interp = PchipInterpolator(s_full, theta_full, extrapolate=False)
    return ProfileTable(s=s_full, theta=theta_full, dtheta=dtheta_full,
                        s_max=float(s_max), tail_bound=float(1.0 - theta[-1]),
                        potential=p, _interp=interp)
