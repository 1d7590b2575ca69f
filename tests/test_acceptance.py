"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one summary line per criterion.

Two assertions of criterion 2 fail by arithmetic (the dimension-1 ratio is
128/(4 pi)^2 ~= 0.81, and the ratio sequence peaks at n = 5 before
decreasing); they are kept as stated rather than weakened.  Everything else
passes.
"""

import numpy as np
import pytest

import capfold as cf
from capfold.caps import (
    Cap,
    cap_reflection,
    rearrange,
    rearranged_grid_measure,
    subharmonic_diagnostics,
)
from capfold.directions import canonicalize, winding_diagnostic
from capfold.measures import (
    ConformalDomain,
    DiscreteMeasure,
    direction_form,
    disk_quadrature,
    measure_distance,
    sphere_quadrature,
)
from capfold.moebius import pushforward, reflection_disk, renormalize
from capfold.bounds import (
    holder_gap_check,
    planar_bound_certificate,
    sphere_modified_quotient,
)
from capfold.exceptions import EvenDimensionError
from capfold.fem import build_mesh, neumann_eigs
from capfold.specfun import bound_constants, find_zeta, k_n, k_n_quadrature, mu1_disk, planar_bound


def _report(cid: str, detail: str):
    print(f"criterion {cid}: PASS ({detail})")


# -------------------------------------------------------------------- C1

def test_c01_constants():
    z2 = find_zeta() ** 2
    assert 3.3899 <= z2 <= 3.3900
    pb = planar_bound()
    assert 21.29 <= pb <= 21.31
    assert pb == pytest.approx(2 * z2 * np.pi, rel=1e-15)
    _report("1", f"zeta^2={z2:.6f}, 2 zeta^2 pi={pb:.4f}")


# -------------------------------------------------------------------- C2

def test_c02a_ratio_interval_all_odd_dimensions():
    # stated domain includes n = 1, where the arithmetic value is
    # 128/(4 pi)^2 ~= 0.8106; kept as stated, fails honestly there
    offenders = []
    for n in range(1, 100, 2):
        ratio = bound_constants(n).ratio
        if not 1.0 < ratio < 1.04:
            offenders.append((n, ratio))
    assert not offenders, f"ratio outside (1, 1.04) at {offenders}"
    _report("2a", "ratio in (1,1.04) for odd n in [1,99]")


def test_c02b_ratio_decreasing_from_three():
    # the true sequence rises from n = 3 to its peak at n = 5 first;
    # kept as stated, fails honestly on that pair
    ratios = [(n, bound_constants(n).ratio) for n in range(3, 100, 2)]
    bad = [
        (a, b)
        for (a, ra), (b, rb) in zip(ratios, ratios[1:])
        if not ra > rb
    ]
    assert not bad, f"ratio not decreasing at pairs {bad}"
    _report("2b", "ratio strictly decreasing on odd n >= 3")


def test_c02_supplement_true_shape():
    # the attainable part: interval on [3, 99], peak at 5, decrease after,
    # and the large-n ratio approaching 1
    ratios = [bound_constants(n).ratio for n in range(3, 100, 2)]
    assert all(1.0 < r < 1.04 for r in ratios)
    assert ratios[1] == max(ratios)
    assert all(a > b for a, b in zip(ratios[1:], ratios[2:]))
    assert bound_constants(51).ratio < bound_constants(3).ratio
    _report("2s", "interval holds on [3,99]; peak at n=5; decreasing after")


# -------------------------------------------------------------------- C3

def test_c03_gradient_constant_cross_check():
    for n in range(1, 13):
        closed = k_n(n)
        quad = k_n_quadrature(n)
        assert abs(closed - quad) <= 1e-8 * closed
    assert abs(k_n(1) - 4.0) <= 1e-10
    assert abs(k_n(3) - 64 * np.pi / 15) <= 1e-10
    _report("3", "closed form vs quadrature to 1e-8 for n=1..12")


# -------------------------------------------------------------------- C4

@pytest.fixture(scope="module")
def uniform96():
    return disk_quadrature(96, 192)


def test_c04_renormalization(uniform96):
    # symmetric measures balance at the origin
    res = renormalize(uniform96)
    assert abs(res.xi) < 1e-9
    q = 0.41 + 0.33j
    sym = DiscreteMeasure("disk", np.array([q, -q]), np.array([1.0, 1.0]))
    assert abs(renormalize(sym).xi) < 1e-9

    # planted transport: fixed and random parameters
    res = renormalize(pushforward(uniform96, 0.3 + 0j))
    assert abs(res.xi + 0.3) < 1e-8
    rng = np.random.default_rng(4)
    vec = rng.uniform(-1, 1, 2)
    vec *= rng.uniform(0.2, 0.7) / np.linalg.norm(vec)
    xi0 = complex(*vec)
    assert abs(renormalize(pushforward(uniform96, xi0)).xi + xi0) < 1e-8

    # twenty seeded restarts agree (uniqueness)
    moved = pushforward(uniform96, 0.42 - 0.17j)
    sols = [renormalize(moved, seed=s).xi for s in range(1, 21)]
    spread = max(abs(a - sols[0]) for a in sols)
    assert spread < 1e-9
    _report("4", f"planted recovery ok, restart spread {spread:.1e}")


# -------------------------------------------------------------------- C5

def test_c05_reflected_renormalizer_closed_form(uniform96):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(-0.95, 0.95)
        p = np.exp(1j * rng.uniform(0, 2 * np.pi))
        cap = Cap(float(r), p)
        reflected = uniform96.with_points(
            cap_reflection(cap, uniform96.points)
        )
        xi = renormalize(reflected).xi
        worst = max(worst, abs(xi - (-2 * r / (1 + r * r)) * p))
    assert worst < 1e-6
    _report("5", f"20 random caps, worst deviation {worst:.1e}")


# -------------------------------------------------------------------- C6

def test_c06_flipflop_trend(bent_canonical):
    canon, _ = bent_canonical
    ladder = (0.9, 0.95, 0.99, 0.995)
    for p in (1.0 + 0j, 1j):
        target = canon.with_points(reflection_disk(p, canon.points))
        dists = []
        for r in ladder:
            nu, _ = rearrange(canon, Cap(r, p))
            dists.append(measure_distance(nu, target))
        assert all(a > b for a, b in zip(dists, dists[1:])), dists
        assert dists[-1] < 0.05
    _report("6", f"distances strictly decreasing, final {dists[-1]:.2e}")


# -------------------------------------------------------------------- C7

def test_c07_direction_limits_and_winding(bent_canonical, bent_scan):
    canon, _ = bent_canonical
    for th in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        nu, _ = rearrange(canon, Cap(-0.95, np.exp(1j * th)))
        s = direction_form(nu).max_direction
        ang = np.arctan2(s[1], s[0])
        err = abs((ang + np.pi / 2) % np.pi - np.pi / 2)
        assert np.degrees(err) < 5.0
        nu, _ = rearrange(canon, Cap(0.95, np.exp(1j * th)))
        s = direction_form(nu).max_direction
        ang = np.arctan2(s[1], s[0])
        err = abs((ang - 2 * th + np.pi / 2) % np.pi - np.pi / 2)
        assert np.degrees(err) < 10.0

    assert winding_diagnostic(canon, -0.95, n_theta=16) == 0
    assert winding_diagnostic(canon, 0.95, n_theta=16) == 4
    assert bent_scan.gap < 1e-3
    _report(
        "7",
        f"limits within 5/10 deg, windings 0/4, scan gap {bent_scan.gap:.1e}",
    )


# -------------------------------------------------------------------- C8

def test_c08_subharmonic_growth(bent_canonical, bent_scan):
    # uniform saturation
    uniform = disk_quadrature(96, 192)
    report = subharmonic_diagnostics(uniform)
    assert np.max(np.abs(report.g_profile - np.pi * report.radii**2)) < 1e-10

    # corpus of rearranged measures: identity domain and the bent domain,
    # over fixed caps plus the scanned multiple cap
    canon, cmap = bent_canonical
    bent_density = cmap.density(ConformalDomain([1.0, 0.3]).density)
    corpus = []
    for cap in (Cap(0.5, np.exp(0.8j)), Cap(-0.3, 1j)):
        _, trace = rearrange(uniform, cap)
        corpus.append((lambda z: np.ones_like(np.real(z)), cap, trace, np.pi))
    caps_bent = [bent_scan.cap, Cap(0.4, np.exp(2.0j))]
    for cap in caps_bent:
        _, trace = rearrange(canon, cap)
        corpus.append((bent_density, cap, trace, canon.total_mass))
    for dens, cap, trace, mass in corpus:
        grid_nu = rearranged_grid_measure(dens, cap, trace, mass)
        rep = subharmonic_diagnostics(grid_nu)
        assert rep.monotonicity_violation < 1e-6
        assert rep.growth_violation < 1e-6
    _report("8", f"{len(corpus)} rearranged measures within 1e-6 tolerances")


# -------------------------------------------------------------------- C9

def test_c09_planar_certificates(bent_certificate, wavy_certificate):
    reports = {
        "disk": planar_bound_certificate(ConformalDomain([1.0]), "disk"),
        "bent": bent_certificate,
        "wavy": wavy_certificate,
    }
    for name, rep in reports.items():
        assert rep.quotient_sup <= rep.bound * 1.01, (name, rep)
    assert reports["disk"].branch == "multiple-direct"
    assert reports["disk"].bound == pytest.approx(mu1_disk())
    _report(
        "9",
        "; ".join(
            f"{k}:{v.branch} q={v.quotient_sup:.3f}<=b={v.bound:.3f}"
            for k, v in reports.items()
        ),
    )


# ------------------------------------------------------------------- C10

@pytest.mark.slow
def test_c10_fem_ground_truth():
    h = 0.02
    disk = neumann_eigs(build_mesh({"kind": "disk"}, h), k=2, h=h)
    assert disk.mu(1) == pytest.approx(mu1_disk(), rel=0.01)

    square = neumann_eigs(build_mesh({"kind": "rectangle", "a": 1, "b": 1}, h), k=2, h=h)
    assert square.mu(1) == pytest.approx(np.pi**2, rel=0.01)
    assert square.mu(2) == pytest.approx(np.pi**2, rel=0.01)

    rect = neumann_eigs(build_mesh({"kind": "rectangle", "a": 2, "b": 1}, h), k=2, h=h)
    assert rect.mu(2) * rect.area == pytest.approx(2 * np.pi**2, rel=0.02)

    rng = np.random.default_rng(10)
    corpus = [
        ("square", {"kind": "rectangle", "a": 1.0, "b": 1.0}),
        ("rect2x1", {"kind": "rectangle", "a": 2.0, "b": 1.0}),
        ("disk", {"kind": "disk"}),
        ("bent", ConformalDomain([1.0, 0.3])),
        ("wavy", ConformalDomain([1.0, 0.2, 0.05])),
    ]
    for i in range(5):
        c2 = 0.12 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        c3 = 0.05 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        corpus.append((f"perturbed{i}", ConformalDomain([1.0, c2, c3])))

    szego = mu1_disk() * np.pi
    two_disk = planar_bound()
    worst1 = worst2 = 0.0
    for name, spec in corpus:
        res = neumann_eigs(build_mesh(spec, h), k=2, h=h)
        p1 = res.mu(1) * res.area
        p2 = res.mu(2) * res.area
        assert p1 <= szego * 1.02, (name, p1)
        assert p2 <= two_disk * 1.02, (name, p2)
        worst1 = max(worst1, p1 / szego)
        worst2 = max(worst2, p2 / two_disk)
    _report(
        "10",
        f"disk/square/rect eigs within 1-2%; corpus max mu1A/szego={worst1:.3f}, "
        f"max mu2A/two-disk={worst2:.3f}",
    )


# ------------------------------------------------------------------- C11

@pytest.mark.slow
def test_c11_two_disk_family():
    bound_ref = 21.2989
    products = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        h = min(0.02, eps / 4.2)
        mesh = build_mesh(
            {"kind": "two_disks_neck", "eps": eps, "neck_length": 0.2}, h
        )
        res = neumann_eigs(mesh, k=2, h=h)
        products.append(res.mu(2) * res.area)
    assert all(a < b for a, b in zip(products, products[1:])), products
    assert products[-1] >= 20.0
    assert all(p < bound_ref * 1.02 for p in products)
    gaps = [bound_ref - p for p in products]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    _report("11", "mu2*Area " + " -> ".join(f"{p:.4f}" for p in products))


# ------------------------------------------------------------------- C12

@pytest.mark.slow
def test_c12_sphere_pipeline():
    n = 3
    constant = bound_constants(n).theorem_constant
    assert constant * 1.01 == pytest.approx(36.2, abs=0.2)

    g0 = sphere_quadrature(n, resolution=14)
    base_weights = g0.weights.copy()
    uniform = g0.scaled(1.0 / g0.total_mass)

    rng = np.random.default_rng(12)
    measures = {"uniform": (uniform, uniform.weights / uniform.total_mass)}
    for i, axis in enumerate((1, 2)):
        dens = 1.0 + 0.3 * g0.points[:, axis] + 0.1 * g0.points[:, 0] ** 2
        m = DiscreteMeasure("sphere", g0.points, g0.weights * dens)
        m = m.scaled(1.0 / m.total_mass)
        canon, _ = canonicalize(m)
        # canonical transport moves atoms off the product grid, so keep the
        # original-grid version for quotient tests (balanced is not required)
        measures[f"perturbed{i}"] = (m, None)

    caps = [
        Cap(0.3, np.eye(4)[0], "sphere"),
        Cap(-0.4, np.eye(4)[1], "sphere"),
        Cap(0.55, np.array([0.5, 0.5, 0.5, 0.5]), "sphere"),
    ]
    worst_quotient = 0.0
    for name, (g, _) in measures.items():
        for cap in caps:
            nu, trace = rearrange(g, cap)
            form = direction_form(nu)
            for s in (form.max_direction,):
                out = sphere_modified_quotient(g, cap, s, trace=trace)
                assert out["denominator"] >= 1.0 / (n + 1) - 1e-3, (name, cap)
                assert out["quotient"] < constant * 1.01, (name, cap)
                worst_quotient = max(worst_quotient, out["quotient"])

    # Hoelder comparison on the shared grid for every lifted coordinate
    from capfold.bounds import TestFunction, lift_evaluate

    for name, (g, _) in measures.items():
        for cap in caps:
            nu, trace = rearrange(g, cap)
            s = direction_form(nu).max_direction
            tf = TestFunction(cap=cap, direction=s, trace=trace)

            def u(x, tf=tf):
                return lift_evaluate(tf, x)

            out = holder_gap_check(
                u, g, base_weights=base_weights / g0.total_mass
            )
            assert out["R"] <= out["Rprime"] + 1e-10, (name, cap)

    degrees = cf.sphere_degree_check(3)
    assert degrees == {"deg_psi": 2, "deg_phi": 4}
    with pytest.raises(EvenDimensionError):
        cf.sphere_degree_check(2)
    _report(
        "12",
        f"worst modified quotient {worst_quotient:.2f} < {constant * 1.01:.2f}; "
        f"degrees (2,4); R<=R'",
    )
