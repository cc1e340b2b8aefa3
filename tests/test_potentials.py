import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import phaselab as pl
from phaselab.potentials import (PotentialError, PotentialSpec, ProfileError,
                                 count_excursions, normalization_integral)


def test_standard_values(standard_potential):
    p = standard_potential
    assert p.w(1.0) == 0.0
    assert p.w(-1.0) == 0.0
    assert p.w(0.0) == pytest.approx(1.125, abs=1e-15)
    assert p.max_ddw == 9.0
    # sign convention: dW pushes values toward the wells
    assert p.dw(0.5) < 0.0 < p.dw(-0.5)


def test_standard_derivatives_consistent(standard_potential):
    p = standard_potential
    s = np.linspace(-1.2, 1.2, 41)
    d = 1e-6
    fd1 = (p.w(s + d) - p.w(s - d)) / (2 * d)
    fd2 = (p.dw(s + d) - p.dw(s - d)) / (2 * d)
    assert np.max(np.abs(fd1 - p.dw(s))) < 1e-7
    assert np.max(np.abs(fd2 - p.ddw(s))) < 1e-6


def test_normalization_quadrature(standard_potential):
    norm = normalization_integral(standard_potential.w)
    assert abs(norm - 2.0) < 1e-10


def test_symmetry_and_lower_bound(standard_potential):
    p = standard_potential
    s = np.linspace(-1, 1, 801)
    assert np.max(np.abs(p.w(s) - p.w(-s))) < 1e-14
    # W = (9/8) (1 - s)^2 (1 + s)^2 and the larger factor is >= 1
    inner = s[1:-1]
    bound = 1.125 * np.minimum((inner - 1) ** 2, (inner + 1) ** 2)
    assert np.all(p.w(inner) >= bound * (1 - 1e-12))


def test_psi_standard_values(standard_potential):
    p = standard_potential
    assert p.psi(0.0) == 0.0
    assert p.psi(1.0) == 1.0
    assert p.psi(-1.0) == -1.0
    # closed form at u = 1/2 against direct quadrature of sqrt(2W)
    oracle, _ = quad(lambda s: np.sqrt(2 * p.w(s)), 0.0, 0.5)
    assert p.psi(0.5) == pytest.approx(11.0 / 16.0, abs=1e-14)
    assert oracle == pytest.approx(11.0 / 16.0, abs=1e-10)
    # clamping outside [-1, 1]
    assert p.psi(1.5) == 1.0
    assert p.psi(-3.0) == -1.0


def test_psi_odd_monotone(standard_potential):
    p = standard_potential
    u = np.linspace(-1, 1, 501)
    vals = p.psi(u)
    assert np.max(np.abs(vals + p.psi(-u))) < 1e-14
    assert np.all(np.diff(vals) > 0)
    assert np.max(np.abs(vals)) <= 1.0


def test_profile_matches_closed_form(profile):
    s = np.linspace(-8, 8, 4001)   # includes off-sample points
    assert np.max(np.abs(profile(s) - np.tanh(1.5 * s))) < 1e-8
    assert profile(0.0) == 0.0
    assert float(profile(1.0)) == pytest.approx(np.tanh(1.5), abs=1e-8)


def test_profile_against_independent_integrator(standard_potential, profile):
    p = standard_potential

    def rhs(_, y):
        return np.sqrt(np.maximum(2 * p.w(np.minimum(y, 1.0)), 0.0))

    sol = solve_ivp(rhs, (0.0, 3.0), [0.0], rtol=1e-11, atol=1e-12,
                    dense_output=True)
    for s in (0.5, 1.0, 2.0, 3.0):
        assert float(profile(s)) == pytest.approx(float(sol.sol(s)[0]),
                                                  abs=1e-7)


def test_profile_tails(profile):
    assert 1.0 - float(profile(5.0)) <= np.exp(-6.0)
    assert profile.tail_bound < 1e-9
    assert float(profile(12.0)) == 1.0
    assert float(profile(-12.0)) == -1.0


def test_profile_oddness_monotonicity(profile):
    n = len(profile.s)
    assert np.array_equal(profile.theta[: n // 2],
                          -profile.theta[: n // 2: -1])
    s = np.linspace(-9, 9, 2001)
    vals = profile(s)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(profile.potential.sqrt2w(profile(s)) >= 0)


def test_profile_ode_consistency(standard_potential, profile):
    residual = np.abs(profile.dtheta
                      - standard_potential.sqrt2w(profile.theta))
    assert np.max(residual) <= 1e-8


def test_profile_equilibrium_identity(standard_potential, profile):
    # theta'' = W'(theta) on interior samples, by finite differences
    h = profile.s[1] - profile.s[0]
    th = profile.theta
    fd2 = (th[2:] - 2 * th[1:-1] + th[:-2]) / h ** 2
    assert np.max(np.abs(fd2 - standard_potential.dw(th[1:-1]))) < 1e-5


def test_profile_preconditions(standard_potential):
    with pytest.raises(ValueError):
        pl.solve_profile(standard_potential, s_max=4.0)
    with pytest.raises(ValueError):
        pl.solve_profile(standard_potential, n_samples=32)


def test_profile_rejects_nan_s_max(standard_potential):
    with pytest.raises(ValueError, match="s_max"):
        pl.solve_profile(standard_potential, s_max=np.nan)


def test_profile_rejects_rough_potential(standard_potential):
    base = standard_potential

    def rough_w(s):
        s = np.asarray(s, dtype=float)
        return base.w(s) * (1.0 + 0.4 * np.sin(200.0 * s) ** 2)

    rough = PotentialSpec(name="rough", w=rough_w, dw=base.dw, ddw=base.ddw,
                          max_ddw=9.0, _psi=base._psi)
    with pytest.raises(ProfileError):
        pl.solve_profile(rough, s_max=8.0, n_samples=64)


def test_psi_profile_composition(standard_potential, profile):
    s = np.linspace(-10, 10, 1001)
    vals = standard_potential.psi(profile(s))
    assert np.all(np.diff(vals) >= -1e-15)   # roundoff in saturated tails
    assert vals[0] == -1.0 and vals[-1] == 1.0
    assert np.max(np.abs(vals)) <= 1.0


def test_polynomial_potential_normalized():
    # quartic well shape with a symmetric quadratic modulation
    pot = pl.make_polynomial_potential([1.0, 0.0, -1.5, 0.0, 0.25, 0.0, 0.25])
    assert abs(normalization_integral(pot.w) - 2.0) < 1e-8
    u = np.linspace(-1, 1, 401)
    vals = pot.psi(u)
    assert np.max(np.abs(vals + pot.psi(-u))) < 1e-12
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    # table psi against direct quadrature (1024-interval table accuracy)
    for val in (0.3, 0.7, 0.95):
        oracle, _ = quad(lambda s: np.sqrt(2 * pot.w(s)), 0.0, val)
        assert float(pot.psi(val)) == pytest.approx(oracle, abs=5e-5)


def test_polynomial_potential_rejects_asymmetric():
    with pytest.raises(PotentialError):
        pl.make_polynomial_potential([1.0, 0.5, -2.0, 0.0, 1.0])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_polynomial_potential_rejects_nan():
    with pytest.raises(PotentialError):
        pl.make_polynomial_potential([np.nan, 0.0, -2.0, 0.0, 1.0])


def test_unknown_potential():
    with pytest.raises(PotentialError):
        pl.potential_by_name("nosuch")


def test_count_excursions():
    assert count_excursions(np.array([0.0, 1.0, -1.0])) == 0
    assert count_excursions(np.array([1.0 + 1e-6, -1.2, 0.5])) == 2


@pytest.mark.parametrize("values, count", [
    ([0.0, 1.0 + 1e-13, -1.0 - 1e-13], 0), ([1.0 + 1e-6, 0.5], 1),
    ([-1.2, 0.5, -1.5], 2), ([np.nan, 0.5], 0)])
def test_count_excursions_given_bounds(values, count):
    u = np.array(values)
    assert count_excursions(u, bounds=(np.min(u), np.max(u))) == count
    assert count_excursions(u) == count
