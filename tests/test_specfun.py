"""Special-function oracles: independent series/bisection routes and scipy
cross-checks pin every constant used downstream."""

import math

import numpy as np
import pytest
import scipy.special as sp

from capfold import specfun
from capfold.exceptions import InvalidInputError

# frozen from the independent oracle below (series J1' + bisection)
ZETA_REF = 1.8411837813406593
J1_AT_MAX_REF = 0.5818652242816

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_j1_series(x: float, terms: int = 200) -> float:
    total = 0.0
    term = 0.5 * x
    for k in range(terms):
        if k > 0:
            term *= -(x * x) / (4.0 * k * (k + 1))
        total += term
    return total


def oracle_j1_prime(x: float) -> float:
    # derivative series: J1'(x) = sum (-1)^k (2k+1) (x/2)^{2k} / (k! (k+1)!) / 2
    total = 0.0
    power = 0.5
    fact = 1.0
    for k in range(120):
        if k > 0:
            power *= (x / 2.0) ** 2 / 1.0
            fact *= k * (k + 1)
            total += (-1) ** k * (2 * k + 1) * (x / 2.0) ** (2 * k) / (2.0 * fact)
        else:
            total += 0.5
    return total


def oracle_zeta() -> float:
    lo, hi = 1.0, 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if oracle_j1_prime(lo) * oracle_j1_prime(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def test_oracle_zeta_matches_frozen_value():
    assert abs(oracle_zeta() - ZETA_REF) < 1e-9


def test_j1_odd_and_zero():
    assert specfun.bessel_j1(0.0) == 0.0
    for x in (0.3, 1.7, 5.0, 14.2):
        assert specfun.bessel_j1(-x) == -specfun.bessel_j1(x)


def test_j1_at_maximum_against_series_oracle():
    z = oracle_zeta()
    assert abs(specfun.bessel_j1(z) - oracle_j1_series(z)) < 1e-13
    assert abs(specfun.bessel_j1(z) - J1_AT_MAX_REF) < 1e-10


def test_j1_small_argument_limit():
    assert abs(specfun.bessel_j1(1e-8) / 1e-8 - 0.5) <= 1e-8


@pytest.mark.parametrize("x", np.linspace(0.05, 20.0, 81))
def test_j1_relative_accuracy_against_scipy(x):
    mine = specfun.bessel_j1(x)
    ref = sp.j1(x)
    assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref)) + 1e-15


def test_j0_against_scipy():
    for x in np.linspace(0.0, 20.0, 41):
        assert abs(specfun.bessel_j0(x) - sp.j0(x)) < 1e-13


def test_find_zeta_residual_and_interval():
    z = specfun.find_zeta()
    assert 1.8 < z < 1.9
    assert abs(specfun.bessel_j1_derivative(z)) < 1e-12
    assert abs(z - ZETA_REF) < 1e-9
    assert z is not None and specfun.find_zeta() == z  # cached


def test_zeta_squared_value():
    z2 = specfun.mu1_disk()
    assert 3.3899 <= z2 <= 3.3900


def test_gamma_against_scipy_and_half_integers():
    for x in np.linspace(0.1, 170.0, 173):
        assert abs(specfun.gamma(x) - sp.gamma(x)) <= 1e-13 * sp.gamma(x)
    # exact sqrt(pi) multiples at half integers
    root_pi = math.sqrt(math.pi)
    assert abs(specfun.gamma(0.5) - root_pi) < 1e-14
    assert abs(specfun.gamma(1.5) - root_pi / 2) < 1e-15
    assert abs(specfun.gamma(3.5) - 15 * root_pi / 8) < 1e-14


@pytest.mark.parametrize("x", [0.0, -1.5, float("nan")])
def test_gamma_rejects_non_positive_argument(x):
    with pytest.raises(InvalidInputError):
        specfun.gamma(x)


def test_omega_closed_forms():
    assert abs(specfun.omega_n(1) - 2 * math.pi) < 1e-14
    assert abs(specfun.omega_n(2) - 4 * math.pi) < 1e-13
    assert abs(specfun.omega_n(3) - 2 * math.pi**2) < 1e-13


def test_omega_recurrence():
    for n in range(2, 20):
        lhs = specfun.omega_n(n)
        rhs = (
            specfun.omega_n(n - 1)
            * math.sqrt(math.pi)
            * specfun.gamma(n / 2)
            / specfun.gamma((n + 1) / 2)
        )
        assert abs(lhs - rhs) < 1e-12 * lhs


def test_k1_and_k3_exact():
    assert abs(specfun.k_n(1) - 4.0) < 1e-10
    assert abs(specfun.k_n(3) - 64 * math.pi / 15) < 1e-10


@pytest.mark.parametrize("n", range(1, 13))
def test_k_n_closed_form_vs_quadrature(n):
    closed = specfun.k_n(n)
    quad = specfun.k_n_quadrature(n)
    assert abs(closed - quad) < 1e-8 * closed


def test_bound_constants_n3():
    bc = specfun.bound_constants(3)
    assert bc.theorem_constant == pytest.approx(35.83, abs=0.05)
    assert bc.conjecture_constant == pytest.approx(34.78, abs=0.05)
    assert 1.0 < bc.ratio < 1.04
    assert bc.ratio == pytest.approx(1.0301, abs=2e-3)
    assert bc.odd_dimension


def test_bound_constants_ratio_interval_odd_dimensions():
    # the proved-vs-conjectured ratio lives in (1, 1.04) on the theorem's
    # domain of odd dimensions at least 3
    for n in range(3, 100, 2):
        bc = specfun.bound_constants(n)
        assert 1.0 < bc.ratio < 1.04, f"n={n}: ratio={bc.ratio}"


def test_bound_constants_ratio_trend():
    # the ratio peaks at n = 5 and then decreases strictly toward 1
    ratios = [specfun.bound_constants(n).ratio for n in range(3, 100, 2)]
    assert ratios[1] > ratios[0]
    assert all(a > b for a, b in zip(ratios[1:], ratios[2:]))
    assert specfun.bound_constants(51).ratio < specfun.bound_constants(3).ratio
    assert ratios[-1] < 1.0031  # slow approach to 1


def test_bound_constants_even_dimension_flag():
    assert not specfun.bound_constants(2).odd_dimension
    assert not specfun.bound_constants(4).odd_dimension


def test_planar_bound_value():
    pb = specfun.planar_bound()
    assert pb == pytest.approx(2 * 1.8411837813**2 * math.pi, abs=1e-3)
    assert 21.29 <= pb <= 21.31
    assert abs(pb / math.pi - 6.78) < 0.01
    assert pb < 8 * math.pi  # below the k = 2 tiling bound


def test_radial_square_integral_closed_form_vs_quadrature():
    closed = specfun.radial_square_integral()
    x, w = np.polynomial.legendre.leggauss(200)
    r = 0.5 * (x + 1)
    quad = 0.5 * np.sum(w * specfun.radial_profile(r) ** 2 * r)
    assert abs(closed - quad) < 1e-10
    assert closed == pytest.approx(0.11935, abs=1e-5)


def test_radial_profile_derivative_matches_finite_difference():
    r = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (specfun.radial_profile(r + h) - specfun.radial_profile(r - h)) / (2 * h)
    assert np.max(np.abs(fd - specfun.radial_profile_derivative(r))) < 1e-8
