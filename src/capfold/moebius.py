"""Conformal automorphisms of the disk and ball, reflections, and the
renormalization solver locating the unique balancing (Hersch) point of a
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonConvergenceError, ZeroMassError
from .measures import (
    DiscreteMeasure,
    moment_scale,
    moment_vector_raw,
)

__all__ = [
    "disk_moebius",
    "disk_moebius_derivative",
    "ball_moebius",
    "reflection",
    "reflection_disk",
    "pushforward",
    "RenormResult",
    "renormalize",
]

_BOUNDARY_GUARD = 1.0 - 1e-9


def disk_moebius(xi: complex, z):
    """Disk automorphism (z + xi) / (conj(xi) z + 1).

    Sends 0 to xi; the parameter -xi gives the inverse map.
    """
    z = np.asarray(z, dtype=complex)
    return (z + xi) / (np.conj(xi) * z + 1.0)


def disk_moebius_derivative(xi: complex, z):
    """Complex derivative (1 - |xi|^2) / (conj(xi) z + 1)^2."""
    z = np.asarray(z, dtype=complex)
    return (1.0 - abs(xi) ** 2) / (np.conj(xi) * z + 1.0) ** 2


def ball_moebius(xi, x):
    """Moebius transformation of the closed unit ball in R^(n+1).

    Formula ((1-|xi|^2) x + (1 + 2(xi,x) + |x|^2) xi) / (1 + 2(xi,x) +
    |xi|^2 |x|^2).  Maps the sphere to itself, sends 0 to xi, and for points
    of the plane (n = 1) coincides with ``disk_moebius`` under the complex
    identification.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    xx = np.sum(x * x, axis=1)
    xix = x @ xi
    nxi = float(xi @ xi)
    num = (1.0 - nxi) * x + (1.0 + 2.0 * xix + xx)[:, None] * xi
    out = num / (1.0 + 2.0 * xix + nxi * xx)[:, None]
    return out[0] if single else out


def reflection(p, x):
    """Reflection across the hyperplane through 0 orthogonal to p: x - 2(p,x)p."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x - 2.0 * float(x @ p) * p
    return x - 2.0 * (x @ p)[:, None] * p


def reflection_disk(p: complex, z):
    """Disk form of the same reflection: -p^2 conj(z), for |p| = 1."""
    z = np.asarray(z, dtype=complex)
    return -p * p * np.conj(z)


def pushforward(m: DiscreteMeasure, xi) -> DiscreteMeasure:
    """Transport atoms by the Moebius map with parameter xi; weights unchanged."""
    if m.space == "disk":
        return m.with_points(disk_moebius(complex(xi), m.points))
    return m.with_points(ball_moebius(xi, m.points))


@dataclass(frozen=True)
class RenormResult:
    """Balancing point xi with the work the solve took.

    ``evaluations`` counts moment-map evaluations, one per closed-form ball
    Jacobian and one per moment vector of a disk central difference;
    ``halvings`` counts the Newton line-search step halvings.
    """

    xi: object  # complex (disk) or ndarray (sphere)
    residual: float
    iterations: int
    evaluations: int = 0
    halvings: int = 0


def _disk_moments_after(points, weights, xi) -> np.ndarray:
    return moment_vector_raw("disk", disk_moebius(complex(xi), points), weights)


def _ball_moments(points, sq, weights, xi, jacobian=False):
    """First moments F(xi) = sum w_i M_i of the ball pushforward, in closed form.

    With t_i = (x_i, xi), s = |xi|^2, a_i = 1 + 2 t_i + q_i and
    d_i = 1 + 2 t_i + s q_i (q_i = |x_i|^2, passed as ``sq``), the moved atom
    is M_i = ((1-s) x_i + a_i xi) / d_i, so with u_i = w_i / d_i and
    v = X^T u the moments are F = (1-s) v + (u.a) xi.  With ``jacobian`` the
    derivative dF/dxi = (u.a) I + 2 (xi v^T - v xi^T)
    - 2 sum u_i M_i (x_i + q_i xi)^T is returned as well.  Neither builds the
    moved atoms.
    """
    t = points @ xi
    s = float(xi @ xi)
    a = 1.0 + 2.0 * t + sq
    d = 1.0 + 2.0 * t + s * sq
    u = weights / d
    v = points.T @ u
    ua = float(u @ a)
    mom = (1.0 - s) * v + ua * xi
    if not jacobian:
        return mom
    # u_i M_i = r_i ((1-s) x_i + a_i xi) with r_i = w_i / d_i^2
    r = u / d
    ra = r * a
    um_x = (1.0 - s) * (points.T * r) @ points + np.outer(xi, points.T @ ra)
    um_q = (1.0 - s) * (points.T @ (r * sq)) + float(ra @ sq) * xi
    jac = (
        ua * np.eye(len(xi))
        + 2.0 * (np.outer(xi, v) - np.outer(v, xi))
        - 2.0 * (um_x + np.outer(um_q, xi))
    )
    return mom, jac


def renormalize(
    m: DiscreteMeasure,
    tol: float = 1e-10,
    seed: int = 0,
    max_iterations: int = 500,
) -> RenormResult:
    """Find xi in the open disk/ball whose Moebius pushforward balances ``m``.

    The residual is the sup-norm of the first moments of the transported
    measure, normalized by mass times the boundary value of the radial
    profile.  The point is unique, so the result does not depend on the
    starting point; ``seed`` = 0 starts at the origin, any other seed starts
    from a random interior point of norm at most 0.9.

    A damped drift brings the residual under 1e-3, then Newton with a
    halving line search finishes.  On the ball the moments and the Newton
    Jacobian are closed form (``_ball_moments``); the disk still builds its
    Jacobian from central differences of the moment vector (ROADMAP 2(b)).

    Raises
    ------
    NonConvergenceError
        If the iteration is driven into the boundary guard zone or stalls;
        this signals a measure concentrated near a single boundary point,
        which admits no interior balancing point.
    ZeroMassError
        If the measure has no mass.
    """
    mass = m.total_mass
    if mass <= 0:
        raise ZeroMassError("cannot renormalize a zero measure")
    scale = moment_scale(m)
    disk = m.space == "disk"
    dim = 2 if disk else m.ambient_dim

    if seed == 0:
        xi = 0.0 + 0.0j if disk else np.zeros(dim)
    else:
        rng = np.random.default_rng(seed)
        vec = rng.uniform(-0.5, 0.5, size=dim)
        # in dimension 3 and up a draw from the cube can leave the ball
        norm_vec = float(np.linalg.norm(vec))
        if norm_vec >= 0.9:
            vec = vec * (0.9 / norm_vec)
        xi = complex(vec[0], vec[1]) if disk else vec

    points, weights = m.points, m.weights
    if not disk:
        sq = np.sum(points * points, axis=1)
    evaluations = 0
    halvings = 0

    def compose(xi, step):
        # group-like update: the new map is (moebius with the returned
        # parameter) up to a rotation, which leaves residual norms unchanged
        if disk:
            return complex(disk_moebius(xi, step))
        return ball_moebius(xi, step)

    def resid(xi):
        nonlocal evaluations
        evaluations += 1
        if disk:
            mom = _disk_moments_after(points, weights, xi)
        else:
            mom = _ball_moments(points, sq, weights, xi)
        return mom, float(np.max(np.abs(mom))) / scale

    def jacobian(xi):
        nonlocal evaluations
        if not disk:
            evaluations += 1
            return _ball_moments(points, sq, weights, xi, jacobian=True)[1]
        fd = 1e-6
        jac = np.empty((dim, dim))
        for j, dxi in enumerate((fd, 1j * fd)):
            plus = _disk_moments_after(points, weights, xi + dxi)
            minus = _disk_moments_after(points, weights, xi - dxi)
            jac[:, j] = (plus - minus) / (2.0 * fd)
        evaluations += 2 * dim
        return jac

    mom, rn = resid(xi)
    iterations = 0

    # stage 1: damped drift toward the balancing point
    while rn > 1e-3 and iterations < max_iterations:
        c = mom / scale
        step = -0.5 * (complex(c[0], c[1]) if disk else c)
        size = abs(step) if disk else float(np.linalg.norm(step))
        if size > 0.9:
            step = step * (0.9 / size)
        xi = compose(xi, step)
        norm_xi = abs(xi) if disk else float(np.linalg.norm(xi))
        if norm_xi > _BOUNDARY_GUARD:
            raise NonConvergenceError(
                "balancing point escaped to the boundary",
                xi=xi, residual=rn, iterations=iterations,
            )
        mom, rn = resid(xi)
        iterations += 1

    # stage 2: Newton; closed-form Jacobian on the ball, central
    # differences on the disk until ROADMAP 2(b) gives it a closed form
    while rn > tol and iterations < max_iterations:
        try:
            delta = np.linalg.solve(jacobian(xi), -mom)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                "singular moment Jacobian",
                xi=xi, residual=rn, iterations=iterations,
            ) from None
        step = complex(delta[0], delta[1]) if disk else delta
        lam = 1.0
        for _ in range(40):
            cand = xi + lam * step
            norm_c = abs(cand) if disk else float(np.linalg.norm(cand))
            if norm_c < _BOUNDARY_GUARD:
                cand_mom, cand_rn = resid(cand)
                if cand_rn < rn:
                    xi, mom, rn = cand, cand_mom, cand_rn
                    break
            lam *= 0.5
            halvings += 1
        else:
            raise NonConvergenceError(
                "Newton stage stalled near the boundary",
                xi=xi, residual=rn, iterations=iterations,
            )
        iterations += 1

    # written so that a NaN residual (moments of a point pushed onto the
    # boundary by rounding) fails it too
    if not rn <= tol:
        raise NonConvergenceError(
            "renormalization did not reach tolerance",
            xi=xi, residual=rn, iterations=iterations,
        )
    return RenormResult(
        xi=xi, residual=rn, iterations=iterations,
        evaluations=evaluations, halvings=halvings,
    )
