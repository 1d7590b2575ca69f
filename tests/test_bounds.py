"""Lifted test functions, Dirichlet energy, the L2 lower bound, planar
certificates, and the spherical modified quotient."""

import numpy as np
import pytest

from capfold.bounds import (
    TestFunction,
    cap_gradient_integral,
    dirichlet_energy_closed_form,
    holder_gap_check,
    l2_lower_bound,
    lift_evaluate,
    planar_bound_certificate,
    sphere_modified_quotient,
)
from capfold.caps import Cap, cap_contains, fold_measure, rearrange
from capfold.directions import canonicalize
from capfold.exceptions import InvalidInputError, NotMultipleError
from capfold.measures import (
    ConformalDomain,
    DiscreteMeasure,
    direction_form,
    disk_quadrature,
    pullback_measure,
    sphere_quadrature,
)
from capfold.moebius import disk_moebius, disk_moebius_derivative
from capfold.specfun import (
    bound_constants,
    k_n,
    mu1_disk,
    omega_n,
    radial_profile,
    radial_profile_derivative,
    radial_square_integral,
)


@pytest.fixture(scope="module")
def bent_multiple_cap(bent_canonical):
    from capfold.directions import scan_caps

    canon, _ = bent_canonical
    scan = scan_caps(canon)
    nu, trace = rearrange(canon, scan.cap)
    return canon, scan, nu, trace


# ------------------------------------------------------------------- lift

def test_lift_continuous_across_geodesic(uniform_disk):
    # on the geodesic the two branches (direct value, value after the cap
    # reflection) agree because the reflection fixes it pointwise
    from capfold.caps import cap_reflection

    cap = Cap(0.4, np.exp(0.6j))
    _, trace = rearrange(uniform_disk, cap)
    tf = TestFunction(cap=cap, direction=1.0 + 0j, trace=trace)
    t = np.linspace(-0.9, 0.9, 15)
    geod = disk_moebius(cap.r * cap.p, 1j * cap.p * t)
    direct = tf.on_cap(geod)
    reflected = tf.on_cap(cap_reflection(cap, geod))
    assert np.max(np.abs(direct - reflected)) < 1e-10


def test_lift_pairing_identity(uniform_disk, rng):
    # integral of the lift against mu equals the integral against the
    # folded measure
    cap = Cap(0.3, np.exp(1.3j))
    _, trace = rearrange(uniform_disk, cap)
    folded = fold_measure(uniform_disk, cap)
    for s in (1.0 + 0j, np.exp(0.77j)):
        tf = TestFunction(cap=cap, direction=s, trace=trace)
        lifted = lift_evaluate(tf, uniform_disk.points)
        on_fold = tf.on_cap(folded.points)
        lhs = float(np.sum(uniform_disk.weights * lifted))
        rhs = float(np.sum(folded.weights * on_fold))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_lift_halfdisk_surrogate_is_even_extension(rng):
    # half-disk cap with the bare coordinate as cap function: the lift is
    # the even extension across the diameter
    from capfold.measures import disk_coordinate_values
    from capfold.moebius import reflection_disk

    cap = Cap(0.0, 1.0)

    def surrogate_lift(z, s):
        inside = cap_contains(cap, z)
        folded = np.where(inside, z, reflection_disk(cap.p, z))
        return disk_coordinate_values(folded, s)

    z = rng.uniform(-0.9, 0.9, 40) + 1j * rng.uniform(-0.9, 0.9, 40)
    z = z[np.abs(z) < 0.95]
    for s in (1j, np.exp(0.4j)):
        vals = surrogate_lift(z, s)
        mirrored = surrogate_lift(reflection_disk(cap.p, z), s)
        assert np.max(np.abs(vals - mirrored)) < 1e-14


# -------------------------------------------------------- Dirichlet energy

def test_energy_closed_form_value():
    e = dirichlet_energy_closed_form()
    assert e == pytest.approx(2 * mu1_disk() * np.pi * 0.11934679, abs=1e-6)


def test_energy_matches_cap_quadrature(uniform_disk):
    # chain-rule gradient of the transported coordinate integrated over the
    # cap and doubled; conformal invariance makes it cap independent
    from capfold.caps import rearrange_map

    def cap_quadrature(cap, n_r=128, n_t=128):
        x, wx = np.polynomial.legendre.leggauss(n_r)
        rho = 0.5 * (x + 1)
        wrho = 0.5 * wx
        y, wy = np.polynomial.legendre.leggauss(n_t)
        th = 0.5 * np.pi * y
        wth = 0.5 * np.pi * wy
        rm, tm = np.meshgrid(rho, th, indexing="ij")
        wq = np.outer(rho * wrho, wth).ravel()
        base = (rm * np.exp(1j * tm)).ravel() * cap.p
        z = disk_moebius(cap.r * cap.p, base)
        jac = np.abs(disk_moebius_derivative(cap.r * cap.p, base)) ** 2
        return z, wq * jac

    def grad_sq(w, s):
        from capfold.specfun import find_zeta, j1_over_x

        r = np.abs(w)
        th = np.angle(w)
        al = np.angle(s)
        fp = radial_profile_derivative(r)
        f_over_r = find_zeta() * j1_over_x(find_zeta() * r)  # stable at 0
        return fp**2 * np.cos(th - al) ** 2 + f_over_r**2 * np.sin(th - al) ** 2

    closed = dirichlet_energy_closed_form()
    energies = {}
    for r, th in [(0.3, 0.5), (-0.4, 2.0), (0.6, 4.0), (0.85, 1.1), (-0.75, 5.3)]:
        cap = Cap(r, np.exp(1j * th))
        _, trace = rearrange(uniform_disk, cap)
        fwd = rearrange_map(cap, trace)
        zq, wq = cap_quadrature(cap)
        img, dist = fwd(zq)
        for s in (1.0 + 0j, 1j):
            energies[(r, s)] = 2.0 * float(
                np.sum(wq * grad_sq(img, s) * dist**2)
            )
            assert energies[(r, s)] == pytest.approx(closed, rel=1e-3)
    # direction independence of the quadrature route as well
    assert energies[(0.3, 1 + 0j)] == pytest.approx(energies[(0.3, 1j)], rel=1e-10)


# ---------------------------------------------------------- L2 lower bound

def test_l2_bound_uniform_equality(uniform_disk):
    out = l2_lower_bound(uniform_disk, 1.0 + 0j)
    assert out["value"] == pytest.approx(out["lower"], abs=1e-10)
    assert out["average"] == pytest.approx(out["lower"], abs=1e-10)


def test_l2_bound_requires_multiplicity(bent_canonical):
    canon, _ = bent_canonical
    scaled = canon.scaled(np.pi / canon.total_mass)
    with pytest.raises(NotMultipleError):
        l2_lower_bound(scaled, 1.0 + 0j)


def test_l2_bound_at_scanned_cap(bent_multiple_cap):
    canon, scan, nu, trace = bent_multiple_cap
    normalized = nu.scaled(np.pi / nu.total_mass)
    for s in (1.0 + 0j, 1j, np.exp(0.3j)):
        out = l2_lower_bound(normalized, s)
        assert out["value"] >= out["lower"] * (1 - 1e-3)
        # averaging identity at a multiple measure
        assert out["value"] == pytest.approx(out["average"], rel=2e-3)


def test_l2_integration_by_parts(uniform_disk):
    # int f^2 G' dr computed as an atom sum equals the boundary term minus
    # int (f^2)' G dr with G from the profile interpolant
    from capfold.caps import rearranged_grid_measure, subharmonic_diagnostics

    cap = Cap(0.5, np.exp(0.8j))
    nu, trace = rearrange(uniform_disk, cap)
    grid_nu = rearranged_grid_measure(
        lambda z: np.ones_like(np.real(z)), cap, trace, uniform_disk.total_mass
    )
    report = subharmonic_diagnostics(grid_nu)
    # diagnostics renormalize to mass pi exactly; scale the atom route the
    # same way so both sides integrate the identical measure
    scale = np.pi / grid_nu.total_mass
    atom_sum = scale * float(
        np.sum(grid_nu.weights * radial_profile(np.abs(grid_nu.points)) ** 2)
    )
    from scipy.interpolate import BarycentricInterpolator

    ginterp = BarycentricInterpolator(report.radii, report.g_profile)
    x, w = np.polynomial.legendre.leggauss(200)
    r = 0.5 * (x + 1)
    fp = 2.0 * radial_profile(r) * radial_profile_derivative(r)
    # the radial profile has vanishing derivative at 1, so the sliver of
    # the interpolant beyond the last node cannot enter the integral term
    boundary = radial_profile(1.0) ** 2 * np.pi
    ibp = boundary - 0.5 * float(np.sum(w * fp * ginterp(r)))
    assert atom_sum == pytest.approx(ibp, abs=1e-6)


# ------------------------------------------------------ planar certificate

def test_certificate_disk_multiple_direct():
    report = planar_bound_certificate(ConformalDomain([1.0]), "disk")
    assert report.branch == "multiple-direct"
    assert report.bound == pytest.approx(mu1_disk())
    assert report.quotient_sup == pytest.approx(mu1_disk(), rel=1e-8)
    assert report.holds


def test_certificate_bent_simple_folded(bent_domain):
    report = planar_bound_certificate(bent_domain, "bent")
    assert report.branch == "simple-folded"
    assert report.quotient_sup <= 2 * mu1_disk() * 1.01
    assert report.holds
    assert report.gap < 1e-3


def test_certificate_cubic_is_simple():
    # |1 + 0.3 z^2|^2 carries a second angular harmonic, so the balanced
    # pullback of z + 0.1 z^3 is genuinely anisotropic
    report = planar_bound_certificate(ConformalDomain([1.0, 0.0, 0.1]), "cubic")
    assert report.branch == "simple-folded"
    assert report.holds


@pytest.mark.slow
def test_certificate_dominates_fem_eigenvalue():
    # the variational characterization: the certified quotient is an upper
    # bound for mu_2 * Area / pi, which the FEM computes independently
    from capfold.fem import build_mesh, neumann_eigs

    for name, coeffs in (
        ("disk", [1.0]),
        ("bent", [1.0, 0.3]),
        ("wavy", [1.0, 0.2, 0.05]),
    ):
        domain = ConformalDomain(coeffs)
        report = planar_bound_certificate(domain, name)
        mesh = build_mesh(domain, 0.02)
        res = neumann_eigs(mesh, k=2, h=0.02)
        fem_value = res.mu(2) * res.area / np.pi
        assert fem_value <= report.quotient_sup * 1.02, (name, fem_value, report)


@pytest.mark.slow
def test_certificate_rotation_invariance():
    # z + 0.3i z^2 parametrizes a rotated copy of the z + 0.3 z^2 domain,
    # so the certified quotient must agree
    base = planar_bound_certificate(ConformalDomain([1.0, 0.3]), "bent")
    spun = planar_bound_certificate(ConformalDomain([1.0, 0.3j]), "bent-rot")
    assert spun.branch == base.branch == "simple-folded"
    assert spun.quotient_sup == pytest.approx(base.quotient_sup, rel=1e-6)


def test_certificate_quintic_symmetric_multiple():
    # |1 + 0.25 z^4|^2 has only 0th and 4th harmonics: the second-moment
    # matrix is isotropic and the direct branch applies
    report = planar_bound_certificate(ConformalDomain([1.0, 0, 0, 0, 0.05]), "quintic")
    assert report.branch == "multiple-direct"
    assert report.holds
    assert report.quotient_sup <= mu1_disk() * 1.01


# ------------------------------------------------------------ sphere side

def test_cap_gradient_integral_full_sphere():
    for n in (2, 3, 5):
        cap = Cap(-0.999999, np.eye(n + 1)[0], "sphere")
        s = np.ones(n + 1) / np.sqrt(n + 1)
        val = cap_gradient_integral(n, cap, s)
        assert val == pytest.approx(k_n(n), rel=1e-5)


def test_cap_gradient_integral_half_sphere_direct():
    g = sphere_quadrature(3, resolution=20)
    c = np.array([1.0, 0, 0, 0])
    s = np.array([0.3, -0.5, 0.8, 0.1])
    s /= np.linalg.norm(s)
    cap = Cap(0.0, c, "sphere")
    reduced = cap_gradient_integral(3, cap, s)
    mask = g.points @ c > 0
    direct = float(
        np.sum(g.weights[mask] * (1 - (g.points[mask] @ s) ** 2) ** 1.5)
    )
    assert reduced == pytest.approx(direct, rel=1e-5)


def test_modified_quotient_uniform(sphere3_uniform):
    cap = Cap(0.3, np.array([1.0, 0, 0, 0]), "sphere")
    nu, trace = rearrange(sphere3_uniform, cap)
    form = direction_form(nu)
    out = sphere_modified_quotient(
        sphere3_uniform, cap, form.max_direction, trace=trace
    )
    n = 3
    assert out["denominator"] >= 1.0 / (n + 1) - 1e-3
    assert out["cap_integral"] < k_n(n)
    assert out["quotient"] < bound_constants(n).theorem_constant * 1.01
    assert out["holds"]


def test_modified_quotient_needs_unit_mass():
    g = sphere_quadrature(3, resolution=6)
    with pytest.raises(InvalidInputError):
        sphere_modified_quotient(g, Cap(0.2, np.eye(4)[0], "sphere"), np.eye(4)[0])


# ------------------------------------------------------------ Hoelder gap

def test_holder_equality_constant_gradient():
    # sawtooth in the circle angle: |du/dphi| = 1 almost everywhere; the
    # kinks are offset so finite differences never straddle them
    g = sphere_quadrature(1, resolution=400)
    g = g.scaled(1.0 / g.total_mass)
    kink = 0.503 * (2 * np.pi / len(g.points))

    def u(x):
        x = np.atleast_2d(x)
        phi = np.mod(np.arctan2(x[:, 1], x[:, 0]) - kink, 2 * np.pi)
        return np.where(phi < np.pi, phi, 2 * np.pi - phi)

    out = holder_gap_check(u, g)
    assert out["R"] == pytest.approx(out["Rprime"], abs=1e-8)


def test_holder_strict_for_coordinate(sphere3_uniform):
    def u(x):
        return np.atleast_2d(x)[:, 1]

    out = holder_gap_check(u, sphere3_uniform)
    assert out["R"] <= out["Rprime"] + 1e-10
    # exact values: R = 3, R' = 4 (K_3/omega_3)^{2/3}; a strict 3% gap
    assert out["R"] == pytest.approx(3.0, rel=1e-6)
    assert out["Rprime"] == pytest.approx(
        4.0 * (k_n(3) / omega_n(3)) ** (2.0 / 3.0), rel=1e-6
    )
    assert out["Rprime"] > out["R"] * 1.02


def test_holder_random_bandlimited(sphere3_uniform, rng):
    pts_dim = 4
    for _ in range(100):
        a = rng.normal(size=pts_dim)
        b = rng.normal(size=pts_dim)
        c = rng.normal(size=pts_dim)

        def u(x):
            x = np.atleast_2d(x)
            return (x @ a) + 0.6 * (x @ b) * (x @ c)

        out = holder_gap_check(u, sphere3_uniform)
        assert out["R"] <= out["Rprime"] + 1e-10
