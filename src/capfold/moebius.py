"""Conformal automorphisms of the disk and ball, reflections, and the
renormalization solver locating the unique balancing (Hersch) point of a
measure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInputError, NonConvergenceError, ZeroMassError
from .measures import (
    DirectionForm,
    DiscreteMeasure,
    _atom_blocks,
    _disk_xy_factors,
    _form_from_columns,
    _row_blocks,
    direction_form,
    moment_scale,
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
_MAX_ITERATIONS = 500


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


def _lft(mat, z):
    """Linear-fractional map (a z + b) / (c z + d) of the 2x2 matrix
    [[a, b], [c, d]] at ``z``, with its complex derivative
    (a d - b c) / (c z + d)^2.  Composition is the matrix product, and the
    adjugate [[d, -b], [-c, a]] gives the inverse map."""
    (a, b), (c, d) = mat
    den = c * z + d
    return (a * z + b) / den, (a * d - b * c) / (den * den)


def _adjugate(mat):
    (a, b), (c, d) = mat
    return np.array([[d, -b], [-c, a]])


def _disk_matrix(xi: complex):
    """Matrix of ``disk_moebius(xi, .)``."""
    return np.array([[1.0, xi], [np.conj(xi), 1.0]], dtype=complex)


def _sq_norm(x):
    """|x|^2 of disk points (complex) or of sphere points (rows)."""
    if np.iscomplexobj(x):
        return x.real * x.real + x.imag * x.imag
    return np.einsum("...i,...i->...", x, x)


def _dot(x, p):
    """(x, p) of disk points (complex) or of sphere points (rows)."""
    if np.iscomplexobj(x):
        return np.real(np.conj(p) * x)
    return x @ p


def _scaled_sum(s, x, t, p, out=None):
    """s x + t p for disk points (complex) or sphere points (rows) ``x`` and
    one point ``p``, with the scalars ``s`` and ``t`` given per point or once
    for all, written into ``out`` if given (``x`` itself may be ``out``).
    Fresh sphere results keep the column-major layout of ``x``, as in a
    ``DiscreteMeasure``: t p is added in place one column at a time, so no
    (N, n+1) outer product is built."""
    if np.iscomplexobj(x) or x.ndim == 1:
        return np.add(s * x, t * p, out=out)
    out = np.multiply(np.expand_dims(s, -1), x, out=out)
    for column, pk in zip(out.T, p):
        column += t * pk
    return out


def _inversion_terms(x, h: float, p, a: float, t: float, sq=None, dot=None):
    """Terms c and d of the inversion in the circle or sphere orthogonal to
    the unit sphere through {(x, p) = h}, |h| < 1 (``reflection`` at h = 0):

        x -> (a x + c p) / d,   a = 1 - h^2,   c = h (1 + |x|^2) - 2 (x, p),
                                d = |h x - p|^2 = a + h c.

    Disk points are complex, sphere points rows; the caller passes a and
    t = 1 - |h| computed without cancellation, and may pass |x|^2 and
    (x, p) as ``sq`` and ``dot`` if it has them.  Near the centre p/h the map
    stretches by up to (1 + |h|)/(1 - |h|), so for |h| >= 1/2 both terms are
    written in w = x - sign(h) p, which is small there:

        c = h |w|^2 - 2 t (w, p) - 2 sign(h) t,   d = h^2 |w|^2 - 2 h t (w, p) + t^2,

    where no term of d is negative, since sign(h) (w, p) <= 0 in the ball.
    """
    if abs(h) < 0.5:
        sq = _sq_norm(x) if sq is None else sq
        dot = _dot(x, p) if dot is None else dot
        c = h * (1.0 + sq) - 2.0 * dot
        return c, a + h * c
    sign = np.copysign(1.0, h)
    w = x - sign * p
    ww, wp = _sq_norm(w), _dot(w, p)
    return h * ww - 2.0 * t * wp - 2.0 * sign * t, h * h * ww - 2.0 * h * t * wp + t * t


def ball_moebius(xi, x):
    """Moebius transformation of the closed unit ball in R^(n+1).

    Formula ((1-|xi|^2) x + (1 + 2(xi,x) + |x|^2) xi) / (1 + 2(xi,x) +
    |xi|^2 |x|^2).  Maps the sphere to itself, sends 0 to xi, and for points
    of the plane (n = 1) coincides with ``disk_moebius`` under the complex
    identification.  It is ``reflection(p, x)`` followed by the inversion at
    h = |xi|, p = xi/|xi| (``_inversion_terms``), whose denominator
    |h x + p|^2 is built without cancellation, so an atom near -p, which the
    map stretches by up to (1 + h)/(1 - h), stays on the sphere to rounding
    times that stretch.  The result is a fresh array (``_ball_transport``);
    ``x`` is never written.
    """
    x = np.asarray(x, dtype=float)
    return _ball_transport(np.asarray(xi, dtype=float), x, np.empty_like(x))


def _ball_transport(xi, x, out):
    """Write ``ball_moebius(xi, x)`` into ``out`` and return it.

    ``out`` has the shape of ``x`` and may be ``x`` itself: the points are
    transported one row block (``measures._row_blocks``) at a time, and each
    block of ``x`` is read in full before the same block of ``out`` is
    written, so every temporary is one block long.  A single point (1-D
    ``x``) is one block.
    """
    h = float(np.linalg.norm(xi))
    if h == 0.0:
        np.copyto(out, x)
        return out
    p = xi / h
    a = (1.0 - h) * (1.0 + h)
    for rows in _atom_blocks(x):
        block = x[rows]
        # the reflected point has the c and d of x at (h, -p), and
        # a reflection(p, x) + c p = a x + (c - 2 a (x, p)) p
        c, d = _inversion_terms(block, h, -p, a, 1.0 - h)
        _scaled_sum(a / d, block, (c - 2.0 * a * _dot(block, p)) / d, p, out[rows])
    return out


def reflection(p, x):
    """Reflection across the hyperplane through 0 orthogonal to p: x - 2(p,x)p."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    return _scaled_sum(1.0, x, -2.0 * (x @ p), p)


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
    """Balancing point xi with the balanced measure and the work the solve took.

    ``measure`` is ``pushforward(m, xi)`` and ``form`` its ``direction_form``,
    bitwise, each built on first read and never writing an array of ``m``.
    On the disk both reuse the moved atoms and J1 factors of the residual at
    ``xi``; at ``xi`` = 0 on a measure with a rule ``measure`` shares the
    rule's read-only atoms.  On the sphere a caller that reads neither builds no
    moved atoms here (``caps.rearrange`` transports its own folded atoms in
    place instead).  ``evaluations`` counts moment-map evaluations, one per
    closed-form ball Jacobian (several moment passes of work) and one per
    moment vector of a disk central difference; ``jacobians`` counts the
    Jacobians built and ``halvings`` the Newton line-search step halvings.
    """

    xi: object  # complex (disk) or ndarray (sphere)
    residual: float
    iterations: int
    evaluations: int = 0
    jacobians: int = 0
    halvings: int = 0
    # the measure that was balanced, and on the disk the moved atoms and
    # their J1 factors at xi
    _source: DiscreteMeasure | None = field(default=None, compare=False, repr=False)
    _kept: tuple | None = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def measure(self) -> DiscreteMeasure:
        if self._kept is None:
            return pushforward(self._source, self.xi)
        return self._source.with_points(self._kept[0])

    @functools.cached_property
    def form(self) -> DirectionForm:
        if self._kept is None:
            return direction_form(self.measure)
        return _form_from_columns(self._kept[1], self._source.weights)


def _ball_moments(points, sq, weights, xi, jacobian=False):
    """First moments F(xi) = sum w_i M_i of the ball pushforward, in closed form.

    With t_i = (x_i, xi), s = |xi|^2, a_i = 1 + 2 t_i + q_i and
    d_i = 1 + 2 t_i + s q_i (q_i = |x_i|^2, passed as ``sq``), the moved atom
    is M_i = ((1-s) x_i + a_i xi) / d_i, so with u_i = w_i / d_i and
    v = X^T u the moments are F = (1-s) v + (u.a) xi.  With ``jacobian`` the
    derivative dF/dxi = (u.a) I + 2 (xi v^T - v xi^T)
    - 2 sum u_i M_i (x_i + q_i xi)^T is returned as well.  Neither builds the
    moved atoms: every sum over atoms walks the row blocks of
    ``measures._row_blocks``, so its temporaries are one block long.
    """
    s = float(xi @ xi)
    sums = None
    for rows in _row_blocks(*points.shape):
        x, q = points[rows], sq[rows]
        b = 1.0 + 2.0 * (x @ xi)
        a = b + q
        d = b + s * q
        u = weights[rows] / d
        part = [x.T @ u, u @ a]
        if jacobian:
            # u_i M_i = r_i ((1-s) x_i + a_i xi) with r_i = w_i / d_i^2
            r = u / d
            ra = r * a
            part += [(1.0 - s) * (x.T * r) @ x, x.T @ ra, x.T @ (r * q), ra @ q]
        sums = part if sums is None else [total + p for total, p in zip(sums, part)]
    v, ua = sums[0], float(sums[1])
    mom = (1.0 - s) * v + ua * xi
    if not jacobian:
        return mom
    gram, x_ra, x_rq, ra_q = sums[2:]
    um_x = gram + np.outer(xi, x_ra)
    um_q = (1.0 - s) * x_rq + float(ra_q) * xi
    jac = (
        ua * np.eye(len(xi))
        + 2.0 * (np.outer(xi, v) - np.outer(v, xi))
        - 2.0 * (um_x + np.outer(um_q, xi))
    )
    return mom, jac


def _point_outweighs(points, weights, limit: float) -> bool:
    """Whether sphere atoms at one point weigh more than ``limit`` together,
    for ``limit`` at least half the total weight.

    Such a point lies, coordinate by coordinate, in the only group of equal
    values that weighs more than ``limit``, so the candidates are narrowed
    to that group one coordinate at a time.  The first grouping is by the
    low ten bits of the first coordinate: equal values share them
    (-0.0 + 0.0 is +0.0), and it needs no sort.
    """
    keep, w = None, weights
    labels = (points[:, 0] + 0.0).view(np.int64) & 1023
    for column in points.T:
        totals = np.bincount(labels, w)
        heaviest = np.argmax(totals)
        if totals[heaviest] <= limit:
            return False
        hits = np.flatnonzero(labels == heaviest)
        keep = hits if keep is None else keep[hits]
        w = weights[keep]
        labels = np.unique(column[keep], return_inverse=True)[1]
    return np.max(np.bincount(labels, w)) > limit


# near the boundary guard the moments of a measure without a balancing point
# divide by zero; the NaN residual this leaves raises NonConvergenceError
@np.errstate(divide="ignore", invalid="ignore")
def renormalize(
    m: DiscreteMeasure,
    tol: float = 1e-10,
    seed: int = 0,
    start=None,
) -> RenormResult:
    """Find xi in the open disk/ball whose Moebius pushforward balances ``m``.

    The residual is the sup-norm of the first moments of the transported
    measure, normalized by mass times the boundary value of the radial
    profile.  The point is unique, so the result does not depend on the
    starting point beyond ``tol``: ``start`` (a point of the open disk/ball)
    starts there, which saves iterations when the balancing point of a
    nearby measure is known; otherwise ``seed`` = 0 starts at the origin and
    any other seed from a random interior point of norm at most 0.9.

    One loop serves both spaces, with xi a real vector composed by
    ``ball_moebius``; only the moment map and its Jacobian are picked by
    space.  On the ball a damped drift brings the residual under 1e-1, then
    secant steps with a halving line search finish: one closed-form Jacobian
    (``_ball_moments``) at the first point, updated by Broyden's rank-one
    formula after each step; a step that first lands in (tol/100, tol] gets
    one more try, without halvings, so that the solve ends far below
    ``tol``, as a Newton step does.  The disk drifts to 1e-3, then takes
    Newton steps, each with a fresh central-difference Jacobian (ROADMAP
    item 2): a faster disk solve would shorten the planar scans and move the
    planar benchmark's tail onto another op (item 1).  The returned ``xi`` is
    complex on the disk.  The result also gives the balanced measure and
    its direction form, built when first read (``RenormResult``); on the
    disk from the moved atoms and J1 factors of the residual at the returned
    ``xi``, which the Jacobian's evaluations and rejected line-search
    candidates leave alone; at ``xi`` = 0 a measure with a rule skips the map
    and keeps the rule's read-only atoms and cached columns.  ``m`` is never written.

    Raises
    ------
    NonConvergenceError
        If the iteration is driven into the boundary guard zone or stalls;
        this signals a measure concentrated near a single boundary point,
        which admits no interior balancing point.  Sphere atoms that
        together carry more than half the mass at one point raise at once,
        with ``iterations`` = 0.
    ZeroMassError
        If the measure has no mass.
    InvalidInputError
        If ``tol`` is not finite and positive, or ``start`` is not a number
        (disk) or a real vector of the ambient dimension (ball) inside the
        open disk/ball.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidInputError(f"tol must be finite and positive, got {tol}")
    mass = m.total_mass
    if mass <= 0:
        raise ZeroMassError("cannot renormalize a zero measure")
    scale = moment_scale(m)
    dim = m.ambient_dim
    points, weights = m.points, m.weights
    if m.space == "disk":
        fd = 1e-6

        def moments(xi):
            # moved atoms and J1 factors, kept for the result; xi = 0 moves nothing
            if m.rule is not None and not xi.any():
                moved, cols = points, m.rule.columns
            else:
                moved = disk_moebius(complex(xi[0], xi[1]), points)
                cols = _disk_xy_factors(moved)
            return np.array([np.sum(weights * c) for c in cols.T]), (moved, cols)

        def jacobian(xi):
            return np.column_stack([
                (moments(xi + fd * e)[0] - moments(xi - fd * e)[0]) / (2.0 * fd)
                for e in np.eye(dim)
            ])

        jacobian_cost, drift_tol, secant = 2 * dim, 1e-3, False
        if start is not None:
            if isinstance(start, bool) or not isinstance(start, (int, float, complex, np.number)):
                raise InvalidInputError(f"a disk start must be a number, got {start!r}")
            start = complex(start)
            start = (start.real, start.imag)
    else:
        sq = _sq_norm(points)

        def moments(xi):
            return _ball_moments(points, sq, weights, xi), None

        def jacobian(xi):
            return _ball_moments(points, sq, weights, xi, jacobian=True)[1]

        jacobian_cost, drift_tol, secant = 1, 1e-1, True

    if start is not None:
        xi = np.asarray(start)
        if xi.shape != (dim,) or xi.dtype.kind not in "iuf":
            raise InvalidInputError(f"a sphere start must be a real vector of length {dim}")
        xi = xi.astype(float)
        # written so that a NaN start fails it too
        if not float(np.linalg.norm(xi)) < _BOUNDARY_GUARD:
            raise InvalidInputError("start must lie in the open unit disk/ball")
    elif seed == 0:
        xi = np.zeros(dim)
    else:
        rng = np.random.default_rng(seed)
        xi = rng.uniform(-0.5, 0.5, size=dim)
        # in dimension 3 and up a draw from the cube can leave the ball
        norm_xi = float(np.linalg.norm(xi))
        if norm_xi >= 0.9:
            xi = xi * (0.9 / norm_xi)

    evaluations = jacobians = halvings = 0

    def resid(xi):
        nonlocal evaluations
        evaluations += 1
        mom, kept = moments(xi)
        return mom, float(np.max(np.abs(mom))) / scale, kept

    mom, rn, kept = resid(xi)
    iterations = 0

    def failure(message):
        return NonConvergenceError(
            message, xi=_public(m, xi), residual=rn, iterations=iterations,
        )

    if m.space == "sphere" and _point_outweighs(points, weights, 0.5 * mass):
        # a Moebius map moves a point of weight w > mass/2 to some y on the
        # sphere, where the first moment along y is at least w - (mass - w)
        raise failure("a point carries more than half the mass: no balancing point")

    # stage 1: damped drift toward the balancing point; the new map is the
    # Moebius map with the composed parameter up to a rotation, which leaves
    # residual norms unchanged
    while rn > drift_tol and iterations < _MAX_ITERATIONS:
        step = -0.5 * mom / scale
        size = float(np.linalg.norm(step))
        if size > 0.9:
            step = step * (0.9 / size)
        xi = ball_moebius(xi, step)
        if float(np.linalg.norm(xi)) > _BOUNDARY_GUARD:
            raise failure("balancing point escaped to the boundary")
        mom, rn, kept = resid(xi)
        iterations += 1

    # stage 2: Newton (disk) or secant (ball) steps with a halving line search
    while rn > tol and iterations < _MAX_ITERATIONS:
        if not (secant and jacobians):
            evaluations += jacobian_cost
            jacobians += 1
            jac = jacobian(xi)
        try:
            step = np.linalg.solve(jac, -mom)
        except np.linalg.LinAlgError:
            raise failure("singular moment Jacobian") from None
        lam = 1.0
        for _ in range(40):
            cand = xi + lam * step
            if float(np.linalg.norm(cand)) < _BOUNDARY_GUARD:
                cand_mom, cand_rn, cand_kept = resid(cand)
                if cand_rn < rn:
                    if secant:  # Broyden: J + (dF - J dxi) dxi^T / |dxi|^2
                        dxi = cand - xi
                        jac += np.outer(cand_mom - mom - jac @ dxi, dxi / (dxi @ dxi))
                    xi, mom, rn, kept = cand, cand_mom, cand_rn, cand_kept
                    break
            lam *= 0.5
            halvings += 1
        else:
            raise failure("Newton stage stalled near the boundary")
        iterations += 1
    if secant and jacobians and tol / 100 < rn <= tol:
        # the one extra secant try, so that restarts agree far below tol
        cand = xi + np.linalg.solve(jac, -mom)
        if float(np.linalg.norm(cand)) < _BOUNDARY_GUARD:
            cand_mom, cand_rn, cand_kept = resid(cand)
            if cand_rn < rn:
                xi, mom, rn, kept = cand, cand_mom, cand_rn, cand_kept
                iterations += 1

    # written so that a NaN residual (moments of a point pushed onto the
    # boundary by rounding) fails it too
    if not rn <= tol:
        raise failure("renormalization did not reach tolerance")
    return RenormResult(
        xi=_public(m, xi), residual=rn, iterations=iterations,
        evaluations=evaluations, jacobians=jacobians, halvings=halvings,
        _source=m, _kept=kept,
    )


def _public(m: DiscreteMeasure, xi):
    # the disk's points, balancing point included, are complex numbers
    return complex(xi[0], xi[1]) if m.space == "disk" else xi
