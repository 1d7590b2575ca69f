"""Rayleigh-quotient machinery: lifted test functions, the closed-form
Dirichlet energy, the subharmonic L2 lower bound, the planar certificate
mu_2 * Area <= 2 mu_1(disk) pi, and the spherical modified quotient with its
dimension constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .caps import (
    Cap,
    RearrangeTrace,
    cap_contains,
    cap_reflection,
    rearrange,
    rearrange_map,
)
from .directions import SCAN_GAP_TOL, canonicalize, classify, scan_caps
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
from .moebius import ball_moebius
from .specfun import (
    k_n,
    mu1_disk,
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

CERTIFICATE_SLACK = 1e-2


@dataclass(frozen=True)
class TestFunction:
    """Eigenfunction coordinate transported to a cap through the pipeline.

    On the cap the value is X_s composed with the recorded cap-to-disk
    pipeline; the lift extends it across the geodesic by composing with the
    cap reflection, which is continuous because the reflection fixes the
    geodesic pointwise.
    """

    __test__ = False  # name collides with pytest's collector prefix

    cap: Cap
    direction: object  # complex unit (disk) or unit vector (sphere)
    trace: RearrangeTrace

    def on_cap(self, y):
        if self.cap.space == "disk":
            pipeline = rearrange_map(self.cap, self.trace)
            img, _ = pipeline(y)
            return disk_coordinate_values(img, self.direction)
        img = ball_moebius(self.trace.xi_a, y)
        return img @ np.asarray(self.direction, dtype=float)


def lift_evaluate(tf: TestFunction, z) -> np.ndarray:
    """Evaluate the lifted test function anywhere on the closed disk/sphere."""
    if tf.cap.space == "disk":
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        inside = cap_contains(tf.cap, z)
        pts = np.where(inside, z, cap_reflection(tf.cap, z))
        return tf.on_cap(pts)
    pts = np.atleast_2d(np.asarray(z, dtype=float))
    inside = cap_contains(tf.cap, pts)
    folded = pts.copy()
    if np.any(~inside):
        folded[~inside] = cap_reflection(tf.cap, pts[~inside])
    return tf.on_cap(folded)


def dirichlet_energy_closed_form() -> float:
    """Dirichlet energy of any lifted test function with a unit direction.

    Cap independent by conformal invariance: twice the disk energy of the
    eigenfunction coordinate, i.e. 2 mu_1 pi times the radial square
    integral.
    """
    return 2.0 * mu1_disk() * np.pi * radial_square_integral()


def l2_lower_bound(
    nu_a: DiscreteMeasure, s, gap_tol: float = SCAN_GAP_TOL
) -> dict:
    """Check the subharmonic L2 bound at a multiple rearranged measure.

    ``nu_a`` must be balanced, multiple within ``gap_tol``, and carry total
    mass pi.  Returns the quadratic-form value in direction ``s``, the
    closed-form lower bound pi * radial square integral, and the
    angular-average value (half the integral of the squared radial profile),
    which matches the directional value when the form is isotropic.
    """
    form = direction_form(nu_a)
    if form.gap >= gap_tol:
        raise NotMultipleError(
            f"gap {form.gap:.2e} exceeds multiplicity tolerance {gap_tol}"
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
    """Certificate of the eigenvalue bound for one conformal domain."""

    domain_id: str
    area: float
    branch: str  # "simple-folded" or "multiple-direct"
    quotient_sup: float
    bound: float
    margin: float
    gap: float
    cap: Cap | None
    slack: float = CERTIFICATE_SLACK

    @property
    def holds(self) -> bool:
        return self.quotient_sup <= self.bound * (1.0 + self.slack)

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "domain": self.domain_id,
            "area": self.area,
            "branch": self.branch,
            "quotient_sup": self.quotient_sup,
            "bound": self.bound,
            "margin": self.margin,
            "gap": self.gap,
            "slack": self.slack,
            "holds": self.holds,
        }
        if self.cap is not None:
            doc["cap"] = {
                "r": self.cap.r,
                "theta": float(np.angle(self.cap.p)),
            }
        return json.dumps(doc)


def planar_bound_certificate(
    domain: ConformalDomain,
    domain_id: str = "domain",
    n_r: int = 96,
    n_theta: int = 192,
    eps: float = SCAN_GAP_TOL,
) -> BoundReport:
    """Run the full test-function pipeline for one planar domain.

    Canonicalize the pullback measure; a multiple measure is certified
    directly with the eigenfunction coordinates against mu_1, a simple one
    goes through the cap scan and the lifted test functions against 2 mu_1.
    The quotient normalizes the denominator to unit-area scale, so the
    reported bound is dimensionless and the margin is bound - quotient.
    """
    mu1 = mu1_disk()
    energy_integral = radial_square_integral()
    area = domain.area
    raw = pullback_measure(domain, n_r, n_theta)
    canon, _ = canonicalize(raw)
    cls = classify(canon, eps)

    if cls.multiple:
        form = direction_form(canon)
        denom = (np.pi / area) * form.eig_second
        quotient = mu1 * np.pi * energy_integral / denom
        return BoundReport(
            domain_id=domain_id,
            area=area,
            branch="multiple-direct",
            quotient_sup=quotient,
            bound=mu1,
            margin=mu1 - quotient,
            gap=cls.gap,
            cap=None,
        )

    scan = scan_caps(canon, eps=eps)
    nu, _ = rearrange(canon, scan.cap)
    form = direction_form(nu)
    denom = (np.pi / area) * form.eig_second
    quotient = dirichlet_energy_closed_form() / denom
    return BoundReport(
        domain_id=domain_id,
        area=area,
        branch="simple-folded",
        quotient_sup=quotient,
        bound=2.0 * mu1,
        margin=2.0 * mu1 - quotient,
        gap=scan.gap,
        cap=scan.cap,
    )


# ---------------------------------------------------------------------------
# sphere side
# ---------------------------------------------------------------------------

def cap_gradient_integral(n: int, cap: Cap, s, nodes: int = 64) -> float:
    """Integral of |grad X_s|^n over a metric cap of the round n-sphere.

    The gradient of the linear coordinate has |grad X_s|^2 = 1 - (s, x)^2
    exactly.  Writing x = cos(t) c + sin(t) y with y on the equatorial
    (n-1)-sphere reduces the integral to two Gauss-Legendre axes.
    """
    p = np.asarray(cap.p, dtype=float)
    s = np.asarray(s, dtype=float)
    s = s / np.linalg.norm(s)
    sc = float(s @ p)
    s_perp = float(np.linalg.norm(s - sc * p))
    t_max = float(np.arccos(np.clip(cap.height, -1.0, 1.0)))

    xg, wg = np.polynomial.legendre.leggauss(nodes)
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

    from .specfun import omega_n as _omega

    w_eq = 2.0 if n == 2 else _omega(n - 2)
    ug, wu = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * np.pi * (ug + 1.0)
    wphi = 0.5 * np.pi * wu
    th_mat, ph_mat = np.meshgrid(theta, phi, indexing="ij")
    a = sc * np.cos(th_mat) + s_perp * np.sin(th_mat) * np.cos(ph_mat)
    integrand = np.maximum(0.0, 1.0 - a * a) ** (n / 2.0)
    inner = (integrand * (np.sin(ph_mat) ** (n - 2) * wphi)).sum(axis=1) * w_eq
    return float(np.sum(wt * np.sin(theta) ** (n - 1) * inner))


def sphere_modified_quotient(
    g: DiscreteMeasure,
    cap: Cap,
    s,
    trace: RearrangeTrace | None = None,
    gap_tol: float = SCAN_GAP_TOL,
) -> dict:
    """Conformally invariant Rayleigh quotient of a lifted coordinate.

    ``g`` must be a unit-mass sphere measure; ``s`` a direction from the
    top eigenspace of the rearranged measure.  The numerator integrates the
    exact gradient power over the image cap (a strict subset of the sphere),
    the denominator is the lifted-coordinate second moment against ``g``.
    Returns the quotient together with the theorem constant it must stay
    below.
    """
    if g.space != "sphere":
        raise DimensionUnsupportedError("needs a sphere measure")
    n = g.sphere_dim
    if not abs(g.total_mass - 1.0) <= 1e-8:
        raise InvalidInputError("sphere measure must be normalized to unit mass")
    if trace is None:
        _, trace = rearrange(g, cap)
    tf = TestFunction(cap=cap, direction=np.asarray(s, dtype=float), trace=trace)
    values = lift_evaluate(tf, g.points)
    denominator = float(np.sum(g.weights * values**2))
    integral = cap_gradient_integral(n, trace.b, s)
    numerator = (2.0 * integral) ** (2.0 / n)
    quotient = numerator / denominator
    constant = (n + 1) * (2.0 * k_n(n)) ** (2.0 / n)
    return {
        "quotient": quotient,
        "numerator": numerator,
        "denominator": denominator,
        "cap_integral": integral,
        "constant": constant,
        "holds": quotient < constant * (1.0 + CERTIFICATE_SLACK),
    }


def holder_gap_check(
    u, g: DiscreteMeasure, base_weights=None, fd_step: float = 1e-5
) -> dict:
    """Rayleigh quotient vs its conformally invariant majorant on one grid.

    ``u`` is a callable on sphere points; the gradient is taken by central
    finite differences in tangent directions.  ``g`` carries the conformal
    measure with unit mass; ``base_weights`` are the round-measure weights of
    the same grid (defaults to equal conformal factor, i.e. g itself round).
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

    grad_sq = _tangent_gradient_squared(u, pts, fd_step)
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
