"""Special functions and closed-form constants.

Gamma comes from ``math``, J1(x)/x from a power series and the first zero of
J1' from the literal ``ZETA``: the float that scipy's ``jnp_zeros`` and one
Newton step give, which ``test_find_zeta_is_scipy_newton_step`` derives.  So
disk work never loads ``scipy.special``; only ``bessel_j1`` and
``radial_profile_derivative`` import it, on first use.  On these sit the disk
radial profile, sphere volumes and the bound constants.
``gauss_legendre`` serves every Gauss-Legendre rule, computed once per node
count and process.  ``inequality`` is the one record of a checked bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

__all__ = [
    "gamma",
    "bessel_j1",
    "j1_over_x",
    "gauss_legendre",
    "ZETA",
    "J1_AT_ZETA",
    "find_zeta",
    "mu1_disk",
    "radial_profile",
    "radial_profile_derivative",
    "radial_square_integral",
    "omega_n",
    "k_n",
    "k_n_quadrature",
    "BoundConstants",
    "bound_constants",
    "planar_bound",
    "product_bounds",
    "inequality",
]


def gamma(x: float) -> float:
    """Gamma function for positive real arguments (``math.gamma``).

    Parameters
    ----------
    x : float
        Argument in (0, 171.6); larger values overflow double precision.
    """
    x = float(x)
    if not 0.0 < x < 171.6:
        raise InvalidInputError(f"gamma requires an argument in (0, 171.6), got {x}")
    return math.gamma(x)


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind, order one."""
    from scipy import special

    return float(special.j1(x))


def j1_over_x(x):
    """J1(x)/x, stable at the origin (limit 1/2).  Vectorized.

    A 35-term series; sampled against mpmath, its relative error is at most
    5.1e-16 on (0, 1.85], which holds zeta |z| for every disk point, and
    9.7e-14 on (0, 4] (near J1's zero at 3.83).  Larger |x| is unsupported.
    """
    x = np.asarray(x, dtype=float)
    q = 0.25 * x * x
    term = np.full_like(q, 0.5)
    acc = term.copy()
    for k in range(1, 36):
        term = -term * q / (k * (k + 1))
        acc += term
    return acc


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    numpy's ``leggauss`` arrays, computed once per ``n`` and read-only, since
    every caller shares them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


ZETA = float.fromhex("0x1.d757d1fec8a39p+0")  # see find_zeta
# J1(zeta) from the series, bitwise equal to scipy.special.j1(ZETA)
J1_AT_ZETA = ZETA * float(j1_over_x(ZETA))


def find_zeta() -> float:
    """First positive zero of J1', the literal ``ZETA``.

    scipy's ``jnp_zeros`` gives the float one ulp above the zero; one Newton
    step on J1' gives ``ZETA``, one ulp below, the value every report carries
    (``test_find_zeta_is_scipy_newton_step`` derives it that way).
    """
    return ZETA


def mu1_disk() -> float:
    """First positive Neumann eigenvalue of the unit disk (a double eigenvalue)."""
    z = find_zeta()
    return z * z


def radial_profile(r):
    """Radial factor J1(zeta * r) of the disk eigenfunctions.  Vectorized."""
    z = find_zeta()
    r = np.asarray(r, dtype=float)
    return z * r * j1_over_x(z * r)


def radial_profile_derivative(r):
    """d/dr of J1(zeta r), via zeta * (J0(zeta r) - J1(zeta r)/(zeta r))."""
    from scipy import special

    z = find_zeta()
    x = z * np.asarray(r, dtype=float)
    return z * (special.j0(x) - j1_over_x(x))


def radial_square_integral() -> float:
    """Closed form of the radial energy integral of the profile.

    Integral over (0,1) of J1(zeta r)^2 r dr; since J1'(zeta) = 0 this equals
    (zeta^2 - 1) J1(zeta)^2 / (2 zeta^2).
    """
    z, j = ZETA, J1_AT_ZETA
    return (z * z - 1.0) * j * j / (2.0 * z * z)


def omega_n(n: int) -> float:
    """Volume of the unit round n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


def k_n(n: int) -> float:
    """Gradient-power integral of a linear coordinate function over the n-sphere.

    Closed form 2 pi^((n+1)/2) Gamma(n) / (Gamma(n/2) Gamma(n + 1/2)); its
    denominator overflows double precision from n = 131.
    """
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    denominator = gamma(n / 2.0) * gamma(n + 0.5)
    if math.isinf(denominator):
        raise InvalidInputError(f"k_n overflows double precision at n = {n} > 130")
    return 2.0 * math.pi ** ((n + 1) / 2.0) * gamma(float(n)) / denominator


def k_n_quadrature(n: int) -> float:
    """Independent quadrature route for the same constant.

    Evaluates omega_{n-1} * integral of sin^(2n-1) over (0, pi) with 200
    Gauss-Legendre nodes; omega_0 = 2 covers the circle case.
    """
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    w_lower = 2.0 if n == 1 else omega_n(n - 1)
    x, w = gauss_legendre(200)
    theta = 0.5 * math.pi * (x + 1.0)
    return w_lower * 0.5 * math.pi * float(np.sum(w * np.sin(theta) ** (2 * n - 1)))


@dataclass(frozen=True)
class BoundConstants:
    """Second-eigenvalue constants for conformally round metrics on the n-sphere.

    ``theorem_constant`` is the proved upper-bound constant
    (n+1) (2 K_n)^(2/n); ``conjecture_constant`` is the conjectured sharp
    value n (2 omega_n)^(2/n); ``ratio`` their quotient.  ``odd_dimension``
    is False when n is even, where the bound is not asserted.
    """

    n: int
    theorem_constant: float
    conjecture_constant: float
    ratio: float
    odd_dimension: bool


def bound_constants(n: int) -> BoundConstants:
    """Evaluate both constants and their ratio for sphere dimension n."""
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    theorem = (n + 1) * (2.0 * k_n(n)) ** (2.0 / n)
    conjecture = n * (2.0 * omega_n(n)) ** (2.0 / n)
    return BoundConstants(
        n=n,
        theorem_constant=theorem,
        conjecture_constant=conjecture,
        ratio=theorem / conjecture,
        odd_dimension=(n % 2 == 1),
    )


def planar_bound() -> float:
    """Upper bound for mu_2 * Area over simply-connected planar domains: 2 zeta^2 pi."""
    return 2.0 * mu1_disk() * math.pi


def product_bounds() -> tuple[tuple[str, int, float], ...]:
    """(tag, k, bound) of each planar bound ``mu_k * area <= bound``."""
    return (
        ("szego", 1, mu1_disk() * math.pi),
        ("two-disk", 2, planar_bound()),
        ("polya-k2", 2, 8.0 * math.pi),
    )


def inequality(tag: str, value: float, bound: float, tolerance: float = 0.0) -> dict:
    """Record of the check ``value <= bound * (1 + tolerance)``; NaN fails."""
    value, bound = float(value), float(bound)
    holds = value <= bound * (1.0 + tolerance)
    return {"tag": tag, "value": value, "bound": bound, "holds": holds}
