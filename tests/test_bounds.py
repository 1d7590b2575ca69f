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
from capfold.moebius import disk_moebius, disk_moebius_derivative, renormalize
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
def bent_multiple_cap(bent_canonical, bent_scan):
    canon, _ = bent_canonical
    nu, trace = rearrange(canon, bent_scan.cap)
    return canon, bent_scan, nu, trace


# ------------------------------------------------------------------- lift

def test_lift_continuous_across_geodesic(uniform_disk):
    # on the geodesic the two branches (direct value, value after the cap
    # reflection) agree because the reflection fixes it pointwise
    from capfold.caps import cap_reflection

    cap = Cap(0.4, np.exp(0.6j))
    _, trace = rearrange(uniform_disk, cap)
    tf = TestFunction(direction=1.0 + 0j, trace=trace)
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
        tf = TestFunction(direction=s, trace=trace)
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
        fwd = rearrange_map(trace)
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
        lambda z: np.ones_like(np.real(z)), trace, uniform_disk.total_mass
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


def test_certificate_multiple_direct_evaluates_the_kernel_once(monkeypatch):
    # the J1 kernel runs once per grid shape: a cold certificate evaluates
    # it on the grid's atoms alone, for the cached columns that give the
    # balancing solve's residual at xi = 0, the balanced measure, its
    # direction form and the canonical form the certificate reads; a warm
    # certificate evaluates it zero times, at any resolution
    import capfold.bounds
    import capfold.directions
    import capfold.measures
    import capfold.moebius

    domain = ConformalDomain([1.0])
    quintic = ConformalDomain([1.0, 0.0, 0.0, 0.0, 0.05])
    kernel_calls, form_calls = [], []
    kernel = capfold.measures.j1_over_x

    def counted_kernel(x):
        kernel_calls.append(x)
        return kernel(x)

    def counted_form(m):
        form_calls.append(m)
        return direction_form(m)

    monkeypatch.setattr(capfold.measures, "j1_over_x", counted_kernel)
    for module in (capfold.bounds, capfold.directions, capfold.moebius):
        monkeypatch.setattr(module, "direction_form", counted_form)
    def certify_both():
        return [
            planar_bound_certificate(domain, "disk", n_r=16, n_theta=32).as_dict(),
            planar_bound_certificate(quintic, "quintic").as_dict(),
        ]

    capfold.measures.disk_grid.cache_clear()
    cold = certify_both()
    assert [x.size for x in kernel_calls] == [16 * 32, 96 * 192]
    kernel_calls.clear()
    warm = certify_both()
    assert len(kernel_calls) == 0
    assert len(form_calls) == 0
    assert [r["branch"] for r in cold] == ["multiple-direct"] * 2
    assert cold == warm


def _symmetric(k, c=0.04 * np.exp(1j)):
    # z + c z^(k+1): k-fold symmetric, multiple on a grid whose n_theta k divides
    return ConformalDomain([1.0] + [0.0] * (k - 1) + [c])


def test_multiple_direct_certificate_balances_once_and_builds_nothing_else(monkeypatch):
    # the multiple-direct branch reads only the balancing solve's form: one
    # renormalize, no canonical measure, no kernel call once the grid's
    # columns are cached, and the pullback is the one measure built
    import capfold.bounds
    import capfold.directions
    import capfold.measures

    domain = _symmetric(4)
    planar_bound_certificate(domain)
    calls = {"renormalize": 0, "canonical": 0, "kernel": 0, "measures": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(capfold.bounds, "renormalize",
                        counted("renormalize", capfold.bounds.renormalize))
    monkeypatch.setattr(capfold.bounds, "_canonical",
                        counted("canonical", capfold.bounds._canonical))
    monkeypatch.setattr(capfold.directions, "_canonical",
                        counted("canonical", capfold.directions._canonical))
    monkeypatch.setattr(capfold.measures, "j1_over_x",
                        counted("kernel", capfold.measures.j1_over_x))
    monkeypatch.setattr(DiscreteMeasure, "__post_init__",
                        counted("measures", DiscreteMeasure.__post_init__))
    report = planar_bound_certificate(domain)
    assert report.branch == "multiple-direct"
    assert calls == {"renormalize": 1, "canonical": 0, "kernel": 0, "measures": 1}


def test_simple_folded_certificate_balances_the_pullback_once(monkeypatch):
    # the scan gets the canonical measure built from the one balancing solve
    # of the pullback, bitwise what canonicalize gives; the scan itself is
    # replaced, as it balances other measures only
    import types

    import capfold.bounds

    domain = ConformalDomain([1.0, 0.3])
    raw = pullback_measure(domain, 16, 32)
    expected = canonicalize(raw)[0]
    pullbacks, solved, scanned = [], [], []

    def recorded_pullback(*args):
        pullbacks.append(pullback_measure(*args))
        return pullbacks[-1]

    def counted_renormalize(m, *args, renormalize=capfold.bounds.renormalize, **kwargs):
        solved.append(m)
        return renormalize(m, *args, **kwargs)

    def fake_scan(m):
        scanned.append(m)
        return types.SimpleNamespace(form=direction_form(m), cap=Cap(0.0, 1.0, "disk"))

    monkeypatch.setattr(capfold.bounds, "pullback_measure", recorded_pullback)
    monkeypatch.setattr(capfold.bounds, "renormalize", counted_renormalize)
    monkeypatch.setattr(capfold.bounds, "scan_caps", fake_scan)
    report = planar_bound_certificate(domain, n_r=16, n_theta=32)
    assert report.branch == "simple-folded"
    assert len(pullbacks) == 1 and [m is pullbacks[0] for m in solved] == [True]
    (canon,) = scanned
    assert canon.points.tobytes() == expected.points.tobytes()
    assert canon.weights.tobytes() == expected.weights.tobytes()


@pytest.mark.parametrize(
    "domain",
    [ConformalDomain([1.0]), ConformalDomain([1.0, 0.0, 0.0, 0.0, 0.05]),
     _symmetric(3), _symmetric(4), _symmetric(6)],
    ids=["identity", "z+0.05z^5", "k3", "k4", "k6"],
)
def test_multiple_direct_certificate_matches_the_canonical_form_bitwise(domain):
    report = planar_bound_certificate(domain)
    form = renormalize(pullback_measure(domain)).form
    quotient = mu1_disk() * np.pi * radial_square_integral() / (
        (np.pi / domain.area) * form.eig_second
    )
    assert report.branch == "multiple-direct"
    assert report.gap == form.gap
    assert report.quotient_sup == quotient


def _certificate_fields(report):
    return report.branch, report.quotient_sup, report.gap, report.margin


@pytest.mark.parametrize("c", [2.0**400, 2.0**-400, -(2.0**400) * 1j])
def test_certificate_of_a_power_of_two_scale_is_bitwise_unscaled(c):
    unit = planar_bound_certificate(ConformalDomain([1.0]))
    report = planar_bound_certificate(ConformalDomain([c]))
    assert _certificate_fields(report) == _certificate_fields(unit)
    assert report.area == np.pi * abs(c) ** 2


@pytest.mark.parametrize("c", [1e-150, 1e-100, 1e100, 1e150])
def test_certificate_does_not_depend_on_the_scale_of_the_map(c):
    unit = planar_bound_certificate(ConformalDomain([1.0]))
    report = planar_bound_certificate(ConformalDomain([c]))
    assert report.branch == unit.branch
    assert report.quotient_sup == pytest.approx(unit.quotient_sup, rel=1e-13)
    assert report.gap == pytest.approx(unit.gap, abs=1e-13)
    assert report.area == pytest.approx(np.pi * c * c, rel=1e-15)
    assert report.holds


def test_certificate_bent_simple_folded(bent_certificate):
    report = bent_certificate
    assert report.branch == "simple-folded"
    assert report.quotient_sup <= 2 * mu1_disk() * 1.01
    assert report.holds
    assert report.gap < 1e-3


@pytest.fixture(scope="module")
def wavy_coarse_certificate():
    return planar_bound_certificate(
        ConformalDomain([1.0, 0.2, 0.05]), "wavy", n_r=32, n_theta=64
    )


def test_certificate_wavy_coarse_grid_reaches_a_multiple_cap(wavy_coarse_certificate):
    # at 32x64 the grid and its winding refinement stop at gap 1.2e-3; the
    # Gauss-Newton solver shared with the sphere search goes below 1e-3
    rep = wavy_coarse_certificate
    assert rep.branch == "simple-folded"
    assert rep.gap < 1e-3
    assert rep.holds


def test_certificate_wavy_coarse_grid_gap_below_refined_tolerance(wavy_coarse_certificate):
    # the solve from the refined cap stalls at gap 4.7e-4 on this grid; the
    # scan then also solves from the best grid cap, which reaches 3e-13
    assert wavy_coarse_certificate.gap < 1e-10


def test_certificate_cubic_is_simple():
    # |1 + 0.3 z^2|^2 carries a second angular harmonic, so the balanced
    # pullback of z + 0.1 z^3 is genuinely anisotropic
    report = planar_bound_certificate(ConformalDomain([1.0, 0.0, 0.1]), "cubic")
    assert report.branch == "simple-folded"
    assert report.holds


@pytest.mark.slow
def test_certificate_dominates_fem_eigenvalue(bent_certificate, wavy_certificate):
    # the variational characterization: the certified quotient is an upper
    # bound for mu_2 * Area / pi, which the FEM computes independently
    from capfold.fem import build_mesh, neumann_eigs

    for name, coeffs, report in (
        ("disk", [1.0], None),
        ("bent", [1.0, 0.3], bent_certificate),
        ("wavy", [1.0, 0.2, 0.05], wavy_certificate),
    ):
        domain = ConformalDomain(coeffs)
        if report is None:
            report = planar_bound_certificate(domain, name)
        mesh = build_mesh(domain, 0.02)
        res = neumann_eigs(mesh, k=2, h=0.02)
        fem_value = res.mu(2) * res.area / np.pi
        assert fem_value <= report.quotient_sup * 1.02, (name, fem_value, report)


@pytest.mark.slow
def test_certificate_rotation_invariance(bent_certificate):
    # z + 0.3i z^2 parametrizes a rotated copy of the z + 0.3 z^2 domain,
    # so the certified quotient must agree
    base = bent_certificate
    spun = planar_bound_certificate(ConformalDomain([1.0, 0.3j]), "bent-rot")
    assert spun.branch == base.branch == "simple-folded"
    assert spun.quotient_sup == pytest.approx(base.quotient_sup, rel=1e-6)


@pytest.mark.parametrize("coeffs, spun", [
    ([1.0, 0.3], [1.0, 0.3j]),
    ([1.0, 0.2, 0.05], [1.0, 0.2j, -0.05]),
])
def test_certificate_rotation_covariance_coarse(coeffs, spun):
    # w + 0.2i w^2 - 0.05 w^3 is i (z + 0.2 z^2 + 0.05 z^3) at z = -i w, a
    # rotated copy of the same domain, so the certificates must agree
    base = planar_bound_certificate(ConformalDomain(coeffs), n_r=24, n_theta=48)
    turned = planar_bound_certificate(ConformalDomain(spun), n_r=24, n_theta=48)
    assert base.branch == turned.branch == "simple-folded"
    assert turned.quotient_sup == pytest.approx(base.quotient_sup, rel=1e-9)


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


def test_cap_gradient_integral_matches_the_full_grid(rng):
    # the cached phi axis gives the sum over the full 64 x 64 grid
    x, w = np.polynomial.legendre.leggauss(64)
    for n in (3, 5, 7):
        for _ in range(5):
            p, s = (v / np.linalg.norm(v) for v in rng.normal(size=(2, n + 1)))
            cap = Cap(float(rng.uniform(-0.9, 0.9)), p, "sphere")
            sc = float(s @ p)
            s_perp = float(np.linalg.norm(s - sc * p))
            t_max = float(np.arccos(cap.height))
            theta, phi = 0.5 * t_max * (x + 1.0), 0.5 * np.pi * (x + 1.0)
            th, ph = np.meshgrid(theta, phi, indexing="ij")
            a = sc * np.cos(th) + s_perp * np.sin(th) * np.cos(ph)
            inner = np.maximum(0.0, 1.0 - a * a) ** (n / 2.0) * np.sin(ph) ** (n - 2)
            full = omega_n(n - 2) * 0.25 * np.pi * t_max * float(
                np.sin(theta) ** (n - 1) * w @ inner @ w
            )
            assert cap_gradient_integral(n, cap, s) == pytest.approx(full, rel=1e-13)


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
    assert out["inequality"] == {
        "tag": "sphere-conformal", "value": out["quotient"],
        "bound": out["constant"], "holds": True,
    }


@pytest.mark.parametrize("n, res", [(3, 16), (5, 8)])
def test_modified_quotient_denominator_is_the_lifted_second_moment(n, res):
    # the denominator comes from the rearranged measure's direction form;
    # lifting the coordinate folds and transports g's atoms the same way
    rng = np.random.default_rng(90210 + n)
    g0 = sphere_quadrature(n, resolution=res)
    a = rng.normal(size=n + 1)
    a *= 0.3 / np.linalg.norm(a)
    g = DiscreteMeasure("sphere", g0.points, g0.weights * (1.0 + g0.points @ a))
    g = g.scaled(1.0 / g.total_mass)
    for r in (-0.5, -0.1, 0.0, 0.3, 0.6):
        p = rng.normal(size=n + 1)
        cap = Cap(r, p / np.linalg.norm(p), "sphere")
        nu, trace = rearrange(g, cap)
        t = rng.normal(size=n + 1)
        for s in (direction_form(nu).max_direction, t / np.linalg.norm(t)):
            out = sphere_modified_quotient(g, cap, s, trace=trace)
            tf = TestFunction(direction=s, trace=trace)
            lifted = float(np.sum(g.weights * lift_evaluate(tf, g.points) ** 2))
            assert out["denominator"] == pytest.approx(lifted, rel=1e-12)
        # without a trace the quotient rearranges g itself
        s = direction_form(nu).max_direction
        assert sphere_modified_quotient(g, cap, s)["denominator"] == pytest.approx(
            sphere_modified_quotient(g, cap, s, trace=trace)["denominator"], rel=1e-12
        )


def test_modified_quotient_needs_unit_mass():
    g = sphere_quadrature(3, resolution=6)
    with pytest.raises(InvalidInputError):
        sphere_modified_quotient(g, Cap(0.2, np.eye(4)[0], "sphere"), np.eye(4)[0])


def test_modified_quotient_needs_a_unit_direction():
    # the numerator normalizes s and the denominator does not, so 2s would
    # read a quarter of the quotient (29.22 -> 7.31 here)
    g = sphere_quadrature(3, resolution=10)
    g = g.scaled(1.0 / g.total_mass)
    cap = Cap(0.3, np.eye(4)[0], "sphere")
    nu, trace = rearrange(g, cap)
    s = direction_form(nu).max_direction
    assert sphere_modified_quotient(g, cap, s, trace=trace)["quotient"] > 29.0
    for scaled in (2.0 * s, 0.5 * s):
        with pytest.raises(InvalidInputError):
            sphere_modified_quotient(g, cap, scaled, trace=trace)


def test_modified_quotient_needs_a_direction_of_the_ambient_dimension():
    # a unit 3-vector on S^3 raised numpy's ValueError
    g = sphere_quadrature(3, resolution=6)
    g = g.scaled(1.0 / g.total_mass)
    with pytest.raises(InvalidInputError):
        sphere_modified_quotient(g, Cap(0.2, np.eye(4)[0], "sphere"), np.eye(3)[0])


def test_modified_quotient_rejects_a_trace_of_another_cap():
    # the trace of A = Cap(0.3, e0) read at B = Cap(-0.4, e1) gave 50.18,
    # above the theorem constant, for B's own 30.99; a hemisphere's trace
    # at another hemisphere and a cap's at its complement share zeta
    g = sphere_quadrature(3, resolution=8)
    g = g.scaled(1.0 / g.total_mass)
    e = np.eye(4)
    pairs = [
        (Cap(-0.4, e[1], "sphere"), Cap(0.3, e[0], "sphere")),
        (Cap(0.0, e[0], "sphere"), Cap(0.0, e[1], "sphere")),
        (Cap(-0.3, -e[0], "sphere"), Cap(0.3, e[0], "sphere")),
    ]
    for cap, other in pairs:
        nu, trace = rearrange(g, cap)
        s = direction_form(nu).max_direction
        own = sphere_modified_quotient(g, cap, s, trace=trace)
        assert own["quotient"] < own["constant"]
        with pytest.raises(InvalidInputError):
            sphere_modified_quotient(g, cap, s, trace=rearrange(g, other)[1])
    assert sphere_modified_quotient(
        g, pairs[0][0], direction_form(rearrange(g, pairs[0][0])[0]).max_direction
    )["quotient"] == pytest.approx(30.99, abs=0.01)


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
