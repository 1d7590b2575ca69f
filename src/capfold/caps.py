"""Hyperbolic and spherical caps: the geodesic reflection, folding of
measures, an explicit cap-to-disk conformal map, the rearrangement pipeline,
and subharmonic growth diagnostics of rearranged densities.

A cap is one side of a hyperbolic geodesic of the Poincare disk (or of a
hyperplane circle of the sphere), parametrized by (r, p): push the half
space centered at the unit vector p with the Moebius map of parameter r*p.
r -> -1 fills the whole space, r -> +1 shrinks the cap to the point p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EvaluationOutsideCapError,
    GridMismatchError,
    InvalidInputError,
    SpaceMismatchError,
)
from .measures import (
    DirectionForm,
    DiscreteMeasure,
    _atom_blocks,
    direction_form,
    disk_grid,
)
from .moebius import (
    _adjugate,
    _ball_transport,
    _disk_matrix,
    _dot,
    _inversion_terms,
    _lft,
    _scaled_sum,
    _sq_norm,
    disk_moebius,
    renormalize,
)
from .specfun import gauss_legendre

__all__ = [
    "Cap",
    "cap_contains",
    "cap_reflection",
    "reflection_renormalizer",
    "fold_measure",
    "CapDiskMap",
    "cap_to_disk",
    "image_cap",
    "RearrangeTrace",
    "rearrange",
    "rearranged_density",
    "rearranged_grid_measure",
    "subharmonic_diagnostics",
    "SubharmonicReport",
]


@dataclass(frozen=True)
class Cap:
    """Cap a_{r,p}: ``p`` is a complex unit (disk) or a unit vector (sphere)."""

    r: float
    p: object
    space: str = "disk"

    def __post_init__(self):
        # each check is written to fail on NaN
        if not -1.0 < self.r < 1.0:
            raise InvalidInputError(f"cap parameter r must lie in (-1, 1), got {self.r}")
        if self.space == "disk":
            p = complex(self.p)
            if not abs(abs(p) - 1.0) <= 1e-12:
                raise InvalidInputError("cap direction p must be a unit complex number")
            object.__setattr__(self, "p", p / abs(p))
        elif self.space == "sphere":
            p = np.asarray(self.p, dtype=float)
            norm = float(np.linalg.norm(p))
            if p.ndim != 1 or not abs(norm - 1.0) <= 1e-12:
                raise InvalidInputError("cap direction p must be a 1-D unit vector")
            object.__setattr__(self, "p", p / norm)
        else:
            raise InvalidInputError(f"unknown space {self.space!r}")

    @property
    def height(self) -> float:
        """Metric height: the cap is {(x, p) > 2r/(1+r^2)} on the sphere."""
        return 2.0 * self.r / (1.0 + self.r * self.r)


def _points(cap: Cap, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex if cap.space == "disk" else float)
    if cap.space == "sphere" and x.shape[-1:] != cap.p.shape:
        raise SpaceMismatchError(f"a cap in R^{len(cap.p)} and points of shape {x.shape}")
    return x


def cap_contains(cap: Cap, x) -> np.ndarray:
    """Membership of points in the closed cap (boundary counts as inside).

    The cap is c <= 0 for c = h (1 + |x|^2) - 2 (x, p), h = ``cap.height``,
    the side of the geodesic that holds p; on the sphere, (x, p) >= h.
    """
    x = _points(cap, x)
    return cap.height * (1.0 + _sq_norm(x)) <= 2.0 * _dot(x, cap.p)


def _inversion(cap: Cap, x, sq=None, dot=None):
    # 1 - h^2 and 1 - |h| from r, without the cancellation near |h| = 1
    r = cap.r
    a = ((1.0 - r) * (1.0 + r) / (1.0 + r * r)) ** 2
    t = (1.0 - abs(r)) ** 2 / (1.0 + r * r)
    return (a,) + _inversion_terms(x, cap.height, cap.p, a, t, sq, dot)


def cap_reflection(cap: Cap, x):
    """Conformal reflection across the cap boundary geodesic.

    An involution that fixes the geodesic pointwise and swaps the cap with
    its complement: on both spaces the inversion in the circle or sphere
    orthogonal to the unit sphere through {(x, p) = h}, h = ``cap.height``,

        x -> ((1 - h^2) x + c p) / |h x - p|^2,   c = h (1 + |x|^2) - 2 (x, p),

    evaluated without cancellation by ``moebius._inversion_terms``.  Disk
    points are complex numbers.
    """
    x = _points(cap, x)
    a, c, d = _inversion(cap, x)
    return _scaled_sum(a / d, x, c / d, cap.p)


def cap_reflection_factor(cap: Cap, z):
    """Conformal distortion |tau_a'(z)| = (1 - h^2)/|h z - p|^2 of the
    reflection (antiholomorphic on the disk)."""
    a, _, d = _inversion(cap, _points(cap, z))
    return a / d


def reflection_renormalizer(cap: Cap):
    """Balancing point of the reflected pushforward of a balanced measure.

    Closed form -2r/(1+r^2) p: composing the Moebius map at this point with
    the cap reflection gives back the linear reflection R_p exactly.
    """
    return -2.0 * cap.r / (1.0 + cap.r * cap.r) * cap.p


def fold_measure(m: DiscreteMeasure, cap: Cap) -> DiscreteMeasure:
    """Fold ``m`` into the cap: atoms outside are reflected in, weights kept.

    The folded atoms are a fresh array and the weights are the array of
    ``m``, shared as ``with_points`` shares it; ``m`` is never written.
    Atoms exactly on the geodesic are assigned to the cap side (deterministic
    tie-break on a measure-zero set).
    """
    if m.space != cap.space:
        raise SpaceMismatchError("measure and cap live on different spaces")
    return m.with_points(_fold_points(cap, m.points))


def _fold_points(cap: Cap, x) -> np.ndarray:
    # a fresh array, written one row block at a time, so that every
    # temporary is one block long
    x = _points(cap, x)
    folded = np.empty_like(x)
    for rows in _atom_blocks(x):
        block, out = x[rows], folded[rows]
        sq, dot = _sq_norm(block), _dot(block, cap.p)
        outside = cap.height * (1.0 + sq) > 2.0 * dot  # the negation of cap_contains
        if block.ndim == 1 or 3 * np.count_nonzero(outside) < len(block):
            # under a third of the atoms outside (and every disk fold):
            # reflect just those, picked and written back through the
            # transpose, which holds column-major sphere atoms as contiguous
            # rows (a no-op on the disk's 1-D array); the test's arrays go
            # first, since a fresh allocation costs more than reusing freed
            # memory
            del sq, dot
            np.copyto(out, block)
            out.T[..., outside] = cap_reflection(
                cap, np.compress(outside, block.T, axis=-1).T
            ).T
        else:
            # more outside: one pass writes the atoms once, with scale 1 and
            # shift 0 inside the cap and the |x|^2 and (x, p) of the test
            # reused
            a, c, d = _inversion(cap, block, sq, dot)
            _scaled_sum(
                np.where(outside, a / d, 1.0), block,
                np.where(outside, c / d, 0.0), cap.p, out,
            )
    return folded


def _rotation_to_e1(direction: np.ndarray) -> np.ndarray:
    """Orthogonal matrix sending ``direction`` to the first basis vector."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    n = len(d)
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = d - e1
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(n)
    v = v / nv
    return np.eye(n) - 2.0 * np.outer(v, v)  # Householder swaps d and e1


def _tangent_frame(p) -> np.ndarray:
    """Orthonormal basis of the tangent space of the unit sphere at ``p``, as
    rows: rows 1..n of the symmetric ``_rotation_to_e1(p)``, whose row 0 is
    p."""
    return _rotation_to_e1(p)[1:]


# ---------------------------------------------------------------------------
# explicit conformal equivalence of a disk cap with the full disk
# ---------------------------------------------------------------------------

def _cap_corners(cap: Cap):
    """Endpoints of the boundary geodesic on the unit circle, ordered so that
    walking from the second to the first keeps the cap on the right."""
    rp = cap.r * cap.p
    return (
        disk_moebius(rp, 1j * cap.p),
        disk_moebius(rp, -1j * cap.p),
    )


def cap_from_corners(c_plus: complex, c_minus: complex) -> Cap:
    """Recover (r, p) from ordered geodesic corners."""
    mid = 0.5 * (c_plus + c_minus)
    half = (c_plus - c_minus) / 2j
    p = half / abs(half)
    r = float(np.real(mid * np.conj(p))) / (1.0 + abs(half))
    return Cap(r, p, "disk")


def image_cap(cap: Cap, xi) -> Cap:
    """Image of a cap under the Moebius map with parameter xi.

    Moebius maps send geodesics to geodesics and preserve orientation, so the
    ordered corners of the image determine the image cap including its side.
    On the sphere the image is symmetric about span(p, xi), and in that plane
    the ball map is the disk map: the disk construction in the frame (p, q)
    gives the image cap.
    """
    if cap.space == "disk":
        cp, cm = _cap_corners(cap)
        return cap_from_corners(
            complex(disk_moebius(complex(xi), cp)),
            complex(disk_moebius(complex(xi), cm)),
        )
    p = cap.p
    xi = np.asarray(xi, dtype=float)
    along = float(xi @ p)
    perp = xi - along * p
    across = float(np.linalg.norm(perp))
    # q completes the frame; when xi is parallel to p any q orthogonal to p does
    q = perp / across if across > 0.0 else _tangent_frame(p)[0]
    b = image_cap(Cap(cap.r, 1.0, "disk"), complex(along, across))
    return Cap(b.r, b.p.real * p + b.p.imag * q, "sphere")


class CapDiskMap:
    """Conformal equivalence of a disk cap with the unit disk.

    The map is z -> post(pre(z)^2) for two linear-fractional maps kept as
    2x2 matrices (``moebius._lft``).  ``pre`` rotates by conj p, sends the
    geodesic corners to 0 and infinity, turning the cap into a quarter
    wedge, and divides by sigma so that the boundary-arc midpoint stays at 1;
    squaring opens the wedge to a half plane.  ``post`` multiplies by sigma,
    Moebius maps back to the disk matching corners and midpoint, composes a
    fixed hyperbolic translation so that the family tends to the identity
    as the cap grows to the full disk, and rotates by p.  The inverse is
    pre^-1(sqrt(post^-1(w))): the principal square root lands in the wedge.

    Evaluations raise ``EvaluationOutsideCapError`` off the closed cap.
    """

    _CORRECTION = 1.0 / 3.0  # kills the nontrivial full-disk limit of the raw chain

    def __init__(self, cap: Cap):
        if cap.space != "disk":
            raise SpaceMismatchError("CapDiskMap is a disk construction")
        self.cap = cap
        cp, cm = (complex(c) for c in _cap_corners(Cap(cap.r, 1.0, "disk")))
        sigma = (1.0 - cp) / (1.0 - cm)
        p, c = cap.p, self._CORRECTION
        self.pre = np.array([[np.conj(p), -cp], [sigma * np.conj(p), -sigma * cm]])
        # (cm w - cp) / (w - 1) sends 0, infinity and sigma to cp, cm and 1
        self.post = np.array([[p, c * p], [c, 1.0]]) @ np.array(
            [[sigma * cm, -cp], [sigma, -1.0]]
        )

    def _checked(self, z, check: bool):
        z = np.asarray(z, dtype=complex)
        if check and not np.all(cap_contains(self.cap, z)):
            raise EvaluationOutsideCapError("point outside the closed cap")
        return z

    # forward: cap -> disk ---------------------------------------------------
    def __call__(self, z, check: bool = True):
        return _open(self.pre, self.post, self._checked(z, check))[0]

    def with_derivative(self, z, check: bool = True):
        """Map values together with the modulus of the complex derivative."""
        val, der = _open(self.pre, self.post, self._checked(z, check))
        return val, np.abs(der)

    # inverse: disk -> cap ---------------------------------------------------
    def inverse(self, w):
        return _close(self.pre, self.post, np.asarray(w, dtype=complex))[0]

    def inverse_with_derivative(self, w):
        val, der = _close(self.pre, self.post, np.asarray(w, dtype=complex))
        return val, np.abs(der)


def _open(pre, post, z):
    """post(pre(z)^2) and its complex derivative."""
    u, du = _lft(pre, z)
    w, dw = _lft(post, u * u)
    return w, dw * 2.0 * u * du


def _close(pre, post, w):
    """pre^-1(sqrt(post^-1(w))), the inverse of ``_open``, and its complex
    derivative."""
    s, ds = _lft(_adjugate(post), w)
    u = np.sqrt(s)
    z, dz = _lft(_adjugate(pre), u)
    return z, dz * ds * 0.5 / u


def cap_to_disk(cap: Cap) -> CapDiskMap:
    """Evaluable conformal map handle for a disk cap."""
    return CapDiskMap(cap)


# ---------------------------------------------------------------------------
# rearrangement pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RearrangeTrace:
    """Solver data of one rearrangement.

    ``xi_a``: balancing point of the folded measure; ``b``: image cap after
    the first Moebius stage; ``eta_a``: balancing point after the cap map
    (None on the sphere, where no cap-map stage exists);
    ``zeta_predicted``: closed-form balancing point of the purely reflected
    measure; ``q_norm``: modulus of the unimodular factor tying the two
    Moebius stages together (1 up to rounding, and 1 on the sphere);
    ``form``: the direction form of the rearranged measure, so that its
    consumers (the cap scan and search, the planar certificate, the modified
    quotient's denominator) need not build it again.
    """

    xi_a: object
    b: Cap
    eta_a: object
    zeta_predicted: object
    q_norm: float
    form: DirectionForm | None = None


def rearrange(
    m: DiscreteMeasure, cap: Cap, start=None
) -> tuple[DiscreteMeasure, RearrangeTrace]:
    """Fold ``m`` into the cap and spread the result back over the full space.

    Disk: fold, balance, transport to the image cap, open it up with the cap
    map, and balance again.  Sphere: fold and balance once (no cap-map stage).
    The input must already be balanced; the output is balanced to the
    default ``renormalize`` tolerance and has the same total mass.
    ``start`` is passed to the first ``renormalize`` (the balancing point of
    a nearby cap saves iterations).  ``m`` is never written.  On the sphere
    the fold writes a fresh atom array, and the transport overwrites that
    array in place (``moebius._ball_transport``): it is the only atom array
    a rearrangement allocates, and the output measure holds it, with the
    weights of ``m``.
    """
    folded = fold_measure(m, cap)
    first = renormalize(folded, start=start)
    b = image_cap(cap, first.xi)
    zeta_pred = reflection_renormalizer(cap)
    eta, q_norm = None, 1.0
    if m.space == "disk":
        moved = first.measure
        opened = moved.with_points(CapDiskMap(b)(moved.points, check=False))
        last = renormalize(opened)
        eta = last.xi
        zeta = complex(zeta_pred)
        q = (np.conj(zeta) * eta + 1.0) / (zeta * np.conj(eta) + 1.0)
        q_norm = float(abs(q))
        nu, form = last.measure, last.form
    else:
        # nothing else holds the folded atoms; ``first`` would build its
        # measure and form from them, so neither is read
        nu = folded.with_points(_ball_transport(first.xi, folded.points, folded.points))
        form = direction_form(nu)
    trace = RearrangeTrace(
        xi_a=first.xi, b=b, eta_a=eta, zeta_predicted=zeta_pred,
        q_norm=q_norm, form=form,
    )
    return nu, trace


def _pipeline(trace: RearrangeTrace):
    # the Moebius stages at xi_a and eta_a folded into the cap map's matrices
    cap_map = CapDiskMap(trace.b)
    return (
        cap_map.pre @ _disk_matrix(complex(trace.xi_a)),
        _disk_matrix(complex(trace.eta_a)) @ cap_map.post,
    )


def rearrange_map(cap: Cap, trace: RearrangeTrace):
    """Forward pipeline map (cap -> disk) together with its distortion.

    Returns a callable giving (psi_a^{-1}(y), |d psi_a^{-1}(y)|) for points
    ``y`` of the cap; this is the composition Moebius -> cap map -> Moebius
    recorded in the trace.
    """
    pre, post = _pipeline(trace)

    def apply(y):
        val, der = _open(pre, post, np.asarray(y, dtype=complex))
        return val, np.abs(der)

    return apply


def rearranged_density(base_density, cap: Cap, trace: RearrangeTrace):
    """Exact pullback density of the rearranged measure on the full disk.

    ``base_density`` is the density of the original measure (for a conformal
    pullback, |phi'|^2).  The rearranged density at z is the folded density
    at psi_a(z) times the squared distortion of psi_a, where psi_a inverts
    the recorded pipeline.
    """
    pre, post = _pipeline(trace)

    def density(z):
        y, der = _close(pre, post, np.asarray(z, dtype=complex))
        folded = base_density(y) + base_density(
            cap_reflection(cap, y)
        ) * cap_reflection_factor(cap, y) ** 2
        return folded * np.abs(der) ** 2

    return density


def rearranged_grid_measure(
    base_density,
    cap: Cap,
    trace: RearrangeTrace,
    semantic_mass: float,
    n_r: int = 96,
    n_theta: int = 192,
) -> DiscreteMeasure:
    """Rearranged measure sampled as a density on the standard polar grid.

    Weights are scaled so the measure represents total mass pi (the measure
    being sampled carries ``semantic_mass``, preserved by rearrangement).
    """
    rule = disk_grid(n_r, n_theta)
    dens = rearranged_density(base_density, cap, trace)
    vals = np.asarray(dens(rule.points), dtype=float) * (np.pi / semantic_mass)
    return DiscreteMeasure("disk", rule.points, rule.weights * vals, rule)


# ---------------------------------------------------------------------------
# subharmonic growth diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubharmonicReport:
    """Angular averages W, cumulative mass G, and their violation magnitudes.

    ``monotonicity_violation``: largest decrease of W between consecutive
    radii (subharmonic densities have nondecreasing circle averages).
    ``growth_violation``: largest excess of G(r) over pi r^2 (mass-pi
    normalization makes the quadratic profile the extremal case).
    """

    radii: np.ndarray
    w_profile: np.ndarray
    g_profile: np.ndarray
    monotonicity_violation: float
    growth_violation: float


def subharmonic_diagnostics(nu: DiscreteMeasure) -> SubharmonicReport:
    """Profile checks for a measure sampled on a polar rule.

    The measure must carry a ``disk_grid`` rule and total (semantic) mass
    pi.  W is the exact angular sum at each radial node; G integrates
    the barycentric interpolant of W r, which reproduces the uniform-measure
    equality case G(r) = pi r^2 to machine precision.
    """
    rule = nu.rule
    if rule is None or rule.shape is None:
        raise GridMismatchError("measure is not on a polar rule")
    n_r, n_theta = rule.shape
    radii = rule.radii
    mass = nu.total_mass
    if abs(mass - np.pi) > 0.05 * np.pi:
        raise GridMismatchError(
            f"measure carries mass {mass:.4f}; normalize to pi first"
        )

    # enforce the mass-pi precondition exactly: quadrature of a density with
    # boundary concentration can land slightly off pi either way
    dens = (nu.weights / rule.weights).reshape(n_r, n_theta) * (np.pi / mass)
    w_prof = dens.sum(axis=1) * (2.0 * np.pi / n_theta)
    mono = float(np.max(np.maximum(0.0, w_prof[:-1] - w_prof[1:])))

    from scipy.interpolate import BarycentricInterpolator

    interp = BarycentricInterpolator(radii, w_prof * radii)
    xg, wg = gauss_legendre(64)
    g_prof = np.empty(n_r)
    for k, rk in enumerate(radii):
        nodes = 0.5 * rk * (xg + 1.0)
        g_prof[k] = 0.5 * rk * float(np.sum(wg * interp(nodes)))
    growth = float(np.max(g_prof - np.pi * radii**2))

    return SubharmonicReport(
        radii=radii,
        w_profile=w_prof,
        g_profile=g_prof,
        monotonicity_violation=mono,
        growth_violation=max(0.0, growth),
    )
