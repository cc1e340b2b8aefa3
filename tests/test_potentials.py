import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from phaselab.potentials import (MAX_DDW, PROFILE_S_MAX, count_excursions,
                                 dw, normalization_integral, psi, root_2w, w)

def test_standard_values():
    assert w(1.0) == 0.0
    assert w(-1.0) == 0.0
    assert w(0.0) == pytest.approx(1.125, abs=1e-15)
    assert MAX_DDW == 9.0
    # sign convention: dW pushes values toward the wells
    assert dw(0.5) < 0.0 < dw(-0.5)
    # the double-well contract: zero at the wells, positive between them,
    # symmetric, and sqrt(2 W) integrating to 2
    s = np.linspace(-0.999, 0.999, 2001)
    assert np.all(w(s) > 0.0)
    assert np.max(np.abs(w(s) - w(-s))) <= 1e-12
    assert abs(normalization_integral() - 2.0) <= 1e-8


def test_standard_derivatives_consistent():
    s = np.linspace(-1.2, 1.2, 41)
    d = 1e-6
    fd1 = (w(s + d) - w(s - d)) / (2 * d)
    assert np.max(np.abs(fd1 - dw(s))) < 1e-7
    # max W'' on [-1, 1], the reaction limit's constant, from W'
    s = np.linspace(-1.0, 1.0, 41)
    fd2 = (dw(s + d) - dw(s - d)) / (2 * d)
    assert abs(np.max(fd2) - MAX_DDW) < 1e-6


def test_normalization_quadrature():
    norm = normalization_integral()
    assert abs(norm - 2.0) < 1e-10


def test_symmetry_and_lower_bound():
    s = np.linspace(-1, 1, 801)
    assert np.max(np.abs(w(s) - w(-s))) < 1e-14
    # W = (9/8) (1 - s)^2 (1 + s)^2 and the larger factor is >= 1
    inner = s[1:-1]
    bound = 1.125 * np.minimum((inner - 1) ** 2, (inner + 1) ** 2)
    assert np.all(w(inner) >= bound * (1 - 1e-12))


def test_psi_standard_values():
    assert psi(0.0) == 0.0
    assert psi(1.0) == 1.0
    assert psi(-1.0) == -1.0
    # closed form at u = 1/2 against direct quadrature of sqrt(2W)
    oracle, _ = quad(lambda s: np.sqrt(2 * w(s)), 0.0, 0.5)
    assert psi(0.5) == pytest.approx(11.0 / 16.0, abs=1e-14)
    assert oracle == pytest.approx(11.0 / 16.0, abs=1e-10)
    # clamping outside [-1, 1]
    assert psi(1.5) == 1.0
    assert psi(-3.0) == -1.0


def test_psi_odd_monotone():
    # exactly odd, bit for bit (a float64 power of a negative base is not)
    u = np.random.default_rng(0).uniform(-1.0, 1.0, 100_000)
    assert np.array_equal(psi(-u), -psi(u))
    u = np.linspace(-1, 1, 501)
    vals = psi(u)
    assert np.all(np.diff(vals) > 0)
    assert np.max(np.abs(vals)) <= 1.0


def test_profile_matches_closed_form(profile):
    s = np.linspace(-8, 8, 4001)   # includes off-sample points
    assert np.max(np.abs(profile(s) - np.tanh(1.5 * s))) < 1e-8
    assert profile(0.0) == 0.0
    assert float(profile(1.0)) == pytest.approx(np.tanh(1.5), abs=1e-8)


def test_profile_against_independent_integrator(profile):
    def rhs(_, y):
        return np.sqrt(np.maximum(2 * w(np.minimum(y, 1.0)), 0.0))

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
    assert np.all(root_2w(w(vals.clip(-1, 1))) >= 0)


def test_profile_ode_consistency(profile):
    residual = np.abs(profile.dtheta - root_2w(
        w(profile.theta.clip(-1, 1))))
    assert np.max(residual) <= 1e-8


def test_profile_equilibrium_identity(profile):
    # theta'' = W'(theta) on interior samples, by finite differences
    h = profile.s[1] - profile.s[0]
    th = profile.theta
    fd2 = (th[2:] - 2 * th[1:-1] + th[:-2]) / h ** 2
    assert np.max(np.abs(fd2 - dw(th[1:-1]))) < 1e-5


def test_standard_table_is_closed_form(profile):
    # the RK4 table itself, on its samples, against tanh(3 s / 2)
    exact = np.tanh(1.5 * profile.s)
    assert np.max(np.abs(profile.theta - exact)) <= 2e-12


def test_psi_profile_composition(profile):
    s = np.linspace(-10, 10, 1001)
    vals = psi(profile(s))
    assert np.all(np.diff(vals) >= -1e-15)   # roundoff in saturated tails
    assert vals[0] == -1.0 and vals[-1] == 1.0
    assert np.max(np.abs(vals)) <= 1.0


def test_kappa0_from_profile_table(profile):
    # theta = tanh(3s/2) has the L1 constant int |psi(theta) - sign s| ds
    # = (2/3)(2 ln 2 - 1/2) in closed form; the table's trapezoid rule is
    # off by 1.4e-6
    exact = (2.0 / 3.0) * (2.0 * np.log(2.0) - 0.5)
    assert profile.kappa0() == pytest.approx(exact, abs=1e-5)


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


def test_profile_table_is_scipy_pchip(profile):
    oracle = PchipInterpolator(profile.s, profile.theta, extrapolate=False)
    s_max = PROFILE_S_MAX
    x = np.concatenate([
        profile.s, [-s_max, s_max, 0.0],
        np.random.default_rng(7).uniform(-s_max, s_max, 100_000)])
    assert np.array_equal(profile(x), oracle(x))
    assert np.array_equal(profile(x[:, None]), oracle(x)[:, None])
    far = np.array([-1e3, -s_max - 1e-9, s_max + 1e-9, 40.0])
    assert np.array_equal(profile(far), np.sign(far))


def test_normalization_integral_matches_adaptive_quadrature():
    oracle, _ = quad(lambda s: np.sqrt(max(2.0 * float(w(s)), 0.0)),
                     -1.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    assert normalization_integral() == pytest.approx(oracle, rel=1e-12,
                                                     abs=0.0)
