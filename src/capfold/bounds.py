"""Rayleigh-quotient machinery: lifted test functions, the closed-form
Dirichlet energy, the subharmonic L2 lower bound, the planar certificate
mu_2 * Area <= 2 mu_1(disk) pi, and the spherical modified quotient with its
dimension constants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .caps import (
    Cap,
    RearrangeTrace,
    _fold_points,
    rearrange,
    rearrange_map,
)
from .directions import SCAN_GAP_TOL, _canonical, scan_caps
from .exceptions import (
    DimensionUnsupportedError,
    InvalidInputError,
    NotMultipleError,
)
from .measures import (
    ConformalDomain,
    DiscreteMeasure,
    direction_form,
    disk_coordinate_values,
    pullback_measure,
)
from .moebius import ball_moebius, renormalize
from .specfun import (
    bound_constants,
    gauss_legendre,
    inequality,
    mu1_disk,
    omega_n,
    radial_profile,
    radial_square_integral,
)

__all__ = [
    "TestFunction",
    "lift_evaluate",
    "dirichlet_energy_closed_form",
    "l2_lower_bound",
    "BoundReport",
    "planar_bound_certificate",
    "cap_gradient_integral",
    "sphere_modified_quotient",
    "holder_gap_check",
]

# a certified quotient may exceed its bound by this fraction and still hold
CERTIFICATE_SLACK = 1e-2


@dataclass(frozen=True)
class TestFunction:
    """Eigenfunction coordinate transported to a cap through the pipeline.

    On the cap ``trace.cap`` the value is X_s composed with the recorded
    cap-to-disk pipeline; the lift extends it across the geodesic by
    composing with the cap reflection, which is continuous because the
    reflection fixes the geodesic pointwise.
    """

    __test__ = False  # name collides with pytest's collector prefix

    direction: object  # complex unit (disk) or unit vector (sphere)
    trace: RearrangeTrace

    @property
    def cap(self) -> Cap:
        return self.trace.cap

    def on_cap(self, y):
        if self.cap.space == "disk":
            img, _ = rearrange_map(self.trace)(y)
            return disk_coordinate_values(img, self.direction)
        img = ball_moebius(self.trace.xi_a, y)
        return img @ np.asarray(self.direction, dtype=float)


def lift_evaluate(tf: TestFunction, z) -> np.ndarray:
    """Evaluate the lifted test function anywhere on the closed disk/sphere."""
    disk = tf.cap.space == "disk"
    pts = np.atleast_1d(z) if disk else np.atleast_2d(z)
    return tf.on_cap(_fold_points(tf.cap, pts))


def dirichlet_energy_closed_form() -> float:
    """Dirichlet energy of any lifted test function with a unit direction.

    Cap independent by conformal invariance: twice the disk energy of the
    eigenfunction coordinate, i.e. 2 mu_1 pi times the radial square
    integral.
    """
    return 2.0 * mu1_disk() * np.pi * radial_square_integral()


def l2_lower_bound(nu_a: DiscreteMeasure, s) -> dict:
    """Check the subharmonic L2 bound at a multiple rearranged measure.

    ``nu_a`` must be balanced, multiple within ``SCAN_GAP_TOL``, and carry
    total mass pi.  Returns the quadratic-form value in direction ``s``, the
    closed-form lower bound pi * radial square integral, and the
    angular-average value (half the integral of the squared radial profile),
    which matches the directional value when the form is isotropic.
    """
    form = direction_form(nu_a)
    if form.gap >= SCAN_GAP_TOL:
        raise NotMultipleError(
            f"gap {form.gap:.2e} exceeds multiplicity tolerance {SCAN_GAP_TOL}"
        )
    if nu_a.space == "disk":
        s = complex(s)
        s = s / abs(s)
        svec = np.array([s.real, s.imag])
        profile = radial_profile(np.abs(nu_a.points))
    else:
        svec = np.asarray(s, dtype=float)
        svec = svec / np.linalg.norm(svec)
        profile = np.ones(len(nu_a.points))
    value = form.value(svec)
    average = 0.5 * float(np.sum(nu_a.weights * profile**2))
    lower = np.pi * radial_square_integral()
    if nu_a.space == "sphere":
        lower = nu_a.total_mass / nu_a.ambient_dim
    return {"value": value, "lower": lower, "average": average}


@dataclass(frozen=True)
class BoundReport:
    """Certificate of the eigenvalue bound for one conformal domain; its
    ``inequality`` record checks ``quotient_sup <= bound`` within
    ``CERTIFICATE_SLACK``, and ``as_dict`` is the report the CLI writes."""

    domain_id: str
    area: float
    branch: str  # "simple-folded" or "multiple-direct"
    quotient_sup: float
    bound: float
    margin: float
    gap: float
    cap: Cap | None

    @property
    def inequality(self) -> dict:
        tag = "two-disk" if self.branch == "simple-folded" else "szego"
        return inequality(tag, self.quotient_sup, self.bound, CERTIFICATE_SLACK)

    @property
    def holds(self) -> bool:
        return self.inequality["holds"]

    def as_dict(self) -> dict:
        doc = {
            "domain": self.domain_id,
            "area": self.area,
            "branch": self.branch,
            "quotient_sup": self.quotient_sup,
            "bound": self.bound,
            "margin": self.margin,
            "gap": self.gap,
            "slack": CERTIFICATE_SLACK,
            "holds": self.holds,
            "inequalities": [self.inequality],
        }
        if self.cap is not None:
            doc["cap"] = {
                "r": self.cap.r,
                "theta": float(np.angle(self.cap.p)),
            }
        return doc


def planar_bound_certificate(
    domain: ConformalDomain,
    domain_id: str = "domain",
    n_r: int = 96,
    n_theta: int = 192,
) -> BoundReport:
    """Run the full test-function pipeline for one planar domain.

    Balance the pullback measure once.  A multiple one is certified from
    that solve's form, with no canonical measure, with the eigenfunction
    coordinates against mu_1 (k = 1); a simple one is canonicalized and
    certified through the cap scan with the lifted test functions, of twice
    the energy, against 2 mu_1 (k = 2).  The quotient k mu_1 pi E / ((pi /
    area) m), E the radial square integral and m the runner-up eigenvalue,
    has its denominator at unit-area scale, so the bound k mu_1 is
    dimensionless and the margin is bound - quotient.  The map is sampled
    over the power of two nearest |c1| (exact; quotient and gap are scale-free).
    """
    area = domain.area
    scale = 2.0 ** round(np.log2(abs(domain.coeffs[0])))
    sampled = domain if scale == 1.0 else ConformalDomain(domain.coeffs / scale)
    balanced = renormalize(pullback_measure(sampled, n_r, n_theta))
    if balanced.form.gap < SCAN_GAP_TOL:
        branch, k, form, cap = "multiple-direct", 1.0, balanced.form, None
    else:
        scan = scan_caps(_canonical(balanced)[0])
        branch, k, form, cap = "simple-folded", 2.0, scan.form, scan.cap
    bound = k * mu1_disk()
    denom = (np.pi / sampled.area) * form.eig_second
    quotient = bound * np.pi * radial_square_integral() / denom
    return BoundReport(
        domain_id=domain_id,
        area=area,
        branch=branch,
        quotient_sup=quotient,
        bound=bound,
        margin=bound - quotient,
        gap=form.gap,
        cap=cap,
    )


# ---------------------------------------------------------------------------
# sphere side
# ---------------------------------------------------------------------------

@functools.cache
def _phi_axis(n: int):
    """cap_gradient_integral's phi axis, which does not depend on the cap:
    read-only cos(phi) and sin(phi)^(n-2) w_phi, and the (n-2)-sphere volume."""
    xg, wg = gauss_legendre(64)
    phi = 0.5 * np.pi * (xg + 1.0)
    cos_phi, weight = np.cos(phi), np.sin(phi) ** (n - 2) * (0.5 * np.pi * wg)
    cos_phi.flags.writeable = weight.flags.writeable = False
    return cos_phi, weight, 2.0 if n == 2 else omega_n(n - 2)


def cap_gradient_integral(n: int, cap: Cap, s) -> float:
    """Integral of |grad X_s|^n over a metric cap of the round n-sphere.

    The gradient of the linear coordinate has |grad X_s|^2 = 1 - (s, x)^2
    exactly.  Writing x = cos(t) c + sin(t) y with y on the equatorial
    (n-1)-sphere reduces the integral to two 64-node Gauss-Legendre axes.
    """
    p = np.asarray(cap.p, dtype=float)
    s = np.asarray(s, dtype=float)
    s = s / np.linalg.norm(s)
    sc = float(s @ p)
    s_perp = float(np.linalg.norm(s - sc * p))
    t_max = float(np.arccos(np.clip(cap.height, -1.0, 1.0)))

    xg, wg = gauss_legendre(64)
    theta = 0.5 * t_max * (xg + 1.0)
    wt = 0.5 * t_max * wg

    if n == 1:
        # equatorial sphere is two points u = +-1
        a_plus = sc * np.cos(theta) + s_perp * np.sin(theta)
        a_minus = sc * np.cos(theta) - s_perp * np.sin(theta)
        vals = np.sqrt(np.maximum(0.0, 1 - a_plus**2)) + np.sqrt(
            np.maximum(0.0, 1 - a_minus**2)
        )
        return float(np.sum(wt * vals))

    cos_phi, wphi, w_eq = _phi_axis(n)
    a = sc * np.cos(theta)[:, None] + s_perp * np.sin(theta)[:, None] * cos_phi
    integrand = np.maximum(0.0, 1.0 - a * a) ** (n / 2.0)
    inner = (integrand * wphi).sum(axis=1) * w_eq
    return float(np.sum(wt * np.sin(theta) ** (n - 1) * inner))


def sphere_modified_quotient(
    g: DiscreteMeasure,
    cap: Cap,
    s,
    trace: RearrangeTrace | None = None,
) -> dict:
    """Conformally invariant Rayleigh quotient of a lifted coordinate.

    ``g`` must be a unit-mass sphere measure; ``s`` a direction from the
    top eigenspace of the rearranged measure, of norm 1 within 1e-12 as
    ``Cap`` asks of ``p``: the numerator sees only the direction of ``s``
    and the denominator also its length, so any other norm raises
    ``InvalidInputError``.  ``trace``, if given, must come from
    ``rearrange(g, cap)``: a trace whose ``cap`` has another ``r`` or ``p``
    raises ``InvalidInputError``.  The numerator integrates the exact gradient
    power over the image cap (a strict subset of the sphere), the
    denominator is the lifted-coordinate second moment against ``g``.  The
    lift folds and transports each atom of ``g`` exactly as the
    rearrangement did, so the denominator is read off the rearranged
    measure's direction form, ``trace.form.value(s)``, instead of lifting
    again (``lift_evaluate`` gives the same sum).  Returns the quotient
    together with the theorem constant it must stay below, and under
    ``inequality`` the record that checks one against the other within
    ``CERTIFICATE_SLACK``.
    """
    if g.space != "sphere":
        raise DimensionUnsupportedError("needs a sphere measure")
    n = g.sphere_dim
    if not abs(g.total_mass - 1.0) <= 1e-8:
        raise InvalidInputError("sphere measure must be normalized to unit mass")
    if np.shape(s) != (g.ambient_dim,) or not abs(float(np.linalg.norm(s)) - 1.0) <= 1e-12:
        raise InvalidInputError(f"direction s must be a unit vector of length {g.ambient_dim}")
    if trace is None:
        _, trace = rearrange(g, cap)
    elif trace.cap.r != cap.r or not np.array_equal(trace.cap.p, cap.p):
        raise InvalidInputError("trace comes from the rearrangement at another cap")
    denominator = trace.form.value(s)
    integral = cap_gradient_integral(n, trace.b, s)
    numerator = (2.0 * integral) ** (2.0 / n)
    quotient = numerator / denominator
    constant = bound_constants(n).theorem_constant
    return {
        "quotient": quotient,
        "numerator": numerator,
        "denominator": denominator,
        "cap_integral": integral,
        "constant": constant,
        "inequality": inequality("sphere-conformal", quotient, constant, CERTIFICATE_SLACK),
    }


def holder_gap_check(u, g: DiscreteMeasure, base_weights=None) -> dict:
    """Rayleigh quotient vs its conformally invariant majorant on one grid.

    ``u`` is a callable on sphere points; the gradient is taken by central
    finite differences (step 1e-5) in tangent directions.  ``g`` carries the
    conformal measure with unit mass; ``base_weights`` are the round-measure
    weights of the same grid (defaults to equal conformal factor, i.e. g
    itself round).
    The discrete quotients satisfy R <= R' exactly by the Hoelder inequality
    whenever n >= 2; equality requires constant gradient modulus.
    """
    if g.space != "sphere":
        raise DimensionUnsupportedError("needs a sphere measure")
    n = g.sphere_dim
    pts = g.points
    if base_weights is None:
        base_weights = g.weights
    base_weights = np.asarray(base_weights, dtype=float)
    rho = g.weights / base_weights  # conformal density dg / dg0

    grad_sq = _tangent_gradient_squared(u, pts, 1e-5)
    vals = np.asarray(u(pts), dtype=float)

    denom = float(np.sum(g.weights * vals**2))
    # metric-side numerator: with dg = e^{n phi} dg0 the gradient weight is
    # e^{(n-2) phi} dg0 = rho^{(n-2)/n} dg0
    r_num = float(np.sum(base_weights * rho ** ((n - 2.0) / n) * grad_sq))
    rp_num = float(np.sum(base_weights * grad_sq ** (n / 2.0))) ** (2.0 / n)
    return {"R": r_num / denom, "Rprime": rp_num / denom}


def _tangent_gradient_squared(u, pts, h):
    # central differences along the ambient axes, then project out the
    # normal component; the test functions all extend smoothly off the sphere
    m, dim = pts.shape
    grad = np.empty((m, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        grad[:, k] = (np.asarray(u(pts + e)) - np.asarray(u(pts - e))) / (2.0 * h)
    normal = np.sum(grad * pts, axis=1)
    return np.maximum(0.0, np.sum(grad * grad, axis=1) - normal**2)
