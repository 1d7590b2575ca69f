"""Special functions and closed-form constants.

Gamma, Bessel J0/J1 and the first positive zero of J1' come from ``math`` and
``scipy.special``; on top of them sit the disk radial profile, sphere
volumes, and the eigenvalue-bound constants built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exceptions import InvalidInputError

__all__ = [
    "gamma",
    "bessel_j0",
    "bessel_j1",
    "bessel_j1_derivative",
    "j1_over_x",
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
]


def gamma(x: float) -> float:
    """Gamma function for positive real arguments (``math.gamma``).

    Parameters
    ----------
    x : float
        Argument in (0, 171.6); larger values overflow double precision.
    """
    x = float(x)
    if not x > 0.0:
        raise InvalidInputError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero."""
    return float(special.j0(x))


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind, order one."""
    return float(special.j1(x))


def bessel_j1_derivative(x: float) -> float:
    """J1'(x) = (J0(x) - J2(x)) / 2."""
    return float(special.jvp(1, x))


def j1_over_x(x):
    """J1(x)/x, stable at the origin (limit 1/2).  Vectorized.

    Only intended for the radial-profile range |x| <= 4; the series is exact
    to machine precision there.
    """
    x = np.asarray(x, dtype=float)
    q = 0.25 * x * x
    term = np.full_like(q, 0.5)
    acc = term.copy()
    for k in range(1, 36):
        term = -term * q / (k * (k + 1))
        acc += term
    return acc


_zeta_cache: list[float] = []


def find_zeta() -> float:
    """First positive zero of J1'.  Cached, write-once.

    ``jnp_zeros`` gives the float one ulp above the zero; one Newton step on
    J1' gives the float one ulp below, the value earlier versions computed,
    so reports keep their digits.
    """
    if not _zeta_cache:
        z = special.jnp_zeros(1, 1)[0]
        _zeta_cache.append(float(z - special.jvp(1, z) / special.jvp(1, z, 2)))
    return _zeta_cache[0]


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
    z = find_zeta()
    x = z * np.asarray(r, dtype=float)
    return z * (special.j0(x) - j1_over_x(x))


def radial_square_integral() -> float:
    """Closed form of the radial energy integral of the profile.

    Integral over (0,1) of J1(zeta r)^2 r dr; since J1'(zeta) = 0 this equals
    (zeta^2 - 1) J1(zeta)^2 / (2 zeta^2).
    """
    z = find_zeta()
    j = bessel_j1(z)
    return (z * z - 1.0) * j * j / (2.0 * z * z)


def omega_n(n: int) -> float:
    """Volume of the unit round n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


def k_n(n: int) -> float:
    """Gradient-power integral of a linear coordinate function over the n-sphere.

    Closed form 2 pi^((n+1)/2) Gamma(n) / (Gamma(n/2) Gamma(n + 1/2)).
    """
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) * gamma(float(n)) / (
        gamma(n / 2.0) * gamma(n + 0.5)
    )


def k_n_quadrature(n: int, nodes: int = 200) -> float:
    """Independent quadrature route for the same constant.

    Evaluates omega_{n-1} * integral of sin^(2n-1) over (0, pi) with
    Gauss-Legendre nodes; omega_0 = 2 covers the circle case.
    """
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    w_lower = 2.0 if n == 1 else omega_n(n - 1)
    x, w = np.polynomial.legendre.leggauss(nodes)
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
