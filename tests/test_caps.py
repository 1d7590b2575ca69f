"""Cap geometry, folding, the cap-to-disk map, rearrangement, and the
subharmonic profile diagnostics."""

import numpy as np
import pytest

from capfold.caps import (
    Cap,
    cap_contains,
    cap_from_corners,
    cap_reflection,
    cap_reflection_factor,
    cap_to_disk,
    fold_measure,
    image_cap,
    rearrange,
    rearranged_density,
    rearranged_grid_measure,
    reflection_renormalizer,
    subharmonic_diagnostics,
    _cap_corners,
    _fold_points,
    _tangent_frame,
)
from capfold.exceptions import (
    EvaluationOutsideCapError,
    GridMismatchError,
    InvalidInputError,
    SpaceMismatchError,
)
from capfold.measures import (
    DiscreteMeasure,
    disk_quadrature,
    disk_grid,
    measure_distance,
    moment_vector,
    sphere_quadrature,
)
from capfold.moebius import (
    disk_moebius,
    pushforward,
    reflection,
    reflection_disk,
    renormalize,
)


def _interior_points(rng, cap, count=24):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < 0.985 and cap_contains(cap, np.array([z]))[0]:
            pts.append(z)
    return np.array(pts)


# --------------------------------------------------------------------- caps

def test_cap_reflection_involution(rng):
    for r, th in [(0.4, 0.3), (-0.6, 2.1), (0.85, 5.0)]:
        cap = Cap(r, np.exp(1j * th))
        z = rng.uniform(-0.7, 0.7, 40) + 1j * rng.uniform(-0.7, 0.7, 40)
        z = z[np.abs(z) < 0.99]
        assert np.max(np.abs(cap_reflection(cap, cap_reflection(cap, z)) - z)) < 1e-12


def test_cap_reflection_halfdisk_is_linear(rng):
    cap = Cap(0.0, np.exp(0.9j))
    z = rng.uniform(-0.7, 0.7, 30) + 1j * rng.uniform(-0.7, 0.7, 30)
    assert np.max(np.abs(cap_reflection(cap, z) - reflection_disk(cap.p, z))) < 1e-14


def test_cap_reflection_fixes_geodesic():
    cap = Cap(0.37, np.exp(0.9j))
    t = np.linspace(-0.99, 0.99, 33)
    geodesic = disk_moebius(cap.r * cap.p, 1j * cap.p * t)
    assert np.max(np.abs(cap_reflection(cap, geodesic) - geodesic)) < 1e-12


def test_cap_reflection_swaps_sides(rng):
    cap = Cap(0.3, 1.0)
    z = _interior_points(rng, cap)
    assert not np.any(cap_contains(cap, cap_reflection(cap, z) * (1 - 1e-12)))


def test_conjugation_identity(rng):
    # moebius at the closed-form point composed with the cap reflection is
    # the plain linear reflection
    for _ in range(20):
        r = rng.uniform(-0.95, 0.95)
        p = np.exp(1j * rng.uniform(0, 2 * np.pi))
        cap = Cap(r, p)
        zeta = reflection_renormalizer(cap)
        z = rng.uniform(-0.9, 0.9, 10) + 1j * rng.uniform(-0.6, 0.6, 10)
        lhs = disk_moebius(zeta, cap_reflection(cap, z))
        rhs = reflection_disk(p, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cap_sphere_membership_and_reflection(rng):
    p = np.array([0.0, 0.0, 1.0, 0.0])
    cap = Cap(0.4, p, "sphere")
    g = sphere_quadrature(3, resolution=8)
    inside = cap_contains(cap, g.points)
    assert 0 < inside.sum() < len(g.points)
    refl = cap_reflection(cap, g.points[~inside][:30])
    assert np.max(np.abs(np.linalg.norm(refl, axis=1) - 1)) < 1e-12
    assert np.all(cap_contains(cap, refl))
    back = cap_reflection(cap, refl)
    assert np.max(np.abs(back - g.points[~inside][:30])) < 1e-11


def test_cap_from_corners_roundtrip(rng):
    for _ in range(30):
        cap = Cap(rng.uniform(-0.95, 0.95), np.exp(1j * rng.uniform(0, 2 * np.pi)))
        cp, cm = _cap_corners(cap)
        back = cap_from_corners(complex(cp), complex(cm))
        assert abs(back.r - cap.r) < 1e-12
        assert abs(back.p - cap.p) < 1e-12


def test_image_cap_side_preserved(rng):
    for _ in range(12):
        cap = Cap(rng.uniform(-0.85, 0.85), np.exp(1j * rng.uniform(0, 2 * np.pi)))
        xi = complex(*rng.uniform(-0.45, 0.45, 2))
        img = image_cap(cap, xi)
        z = _interior_points(rng, cap, 25)
        assert np.all(cap_contains(img, disk_moebius(xi, z)))


def test_image_cap_sphere(rng):
    p = np.array([1.0, 0, 0, 0])
    cap = Cap(0.3, p, "sphere")
    xi = np.array([0.2, -0.25, 0.1, 0.05])
    img = image_cap(cap, xi)
    g = sphere_quadrature(3, resolution=10)
    inside = cap_contains(cap, g.points)
    mapped = np.asarray(
        __import__("capfold.moebius", fromlist=["ball_moebius"]).ball_moebius(
            xi, g.points[inside]
        )
    )
    frac = np.mean(cap_contains(img, mapped))
    assert frac > 0.999  # boundary rounding may clip a stray sample


# --------------------------------------------------------------------- fold

def test_fold_halfdisk_doubles_density(uniform_disk):
    cap = Cap(0.0, 1.0)
    folded = fold_measure(uniform_disk, cap)
    assert folded.total_mass == pytest.approx(uniform_disk.total_mass, abs=1e-12)
    assert np.all(cap_contains(cap, folded.points))
    # reflection symmetry: folded second moments match twice the half-disk
    from capfold.measures import direction_form

    half = DiscreteMeasure(
        "disk",
        uniform_disk.points[cap_contains(cap, uniform_disk.points)],
        uniform_disk.weights[cap_contains(cap, uniform_disk.points)],
    )
    f_form = direction_form(folded)
    h_form = direction_form(half)
    assert np.allclose(f_form.matrix, 2 * h_form.matrix, atol=1e-10)


def test_fold_boundary_atom_tiebreak():
    # an atom on the geodesic belongs to the cap and must stay put
    cap = Cap(0.0, 1.0)  # geodesic is the imaginary axis
    m = DiscreteMeasure("disk", np.array([0.5j, -0.25 + 0j]), np.array([1.0, 1.0]))
    folded = fold_measure(m, cap)
    assert folded.points[0] == 0.5j
    assert folded.points[1] == 0.25 + 0j  # reflected in


def test_fold_mass_preserved(uniform_disk, rng):
    for _ in range(5):
        cap = Cap(rng.uniform(-0.9, 0.9), np.exp(1j * rng.uniform(0, 2 * np.pi)))
        folded = fold_measure(uniform_disk, cap)
        assert folded.total_mass == pytest.approx(uniform_disk.total_mass, abs=1e-12)


def test_fold_matches_high_resolution_oracle():
    # the folded integrands are only piecewise smooth, so the dictionary
    # converges at the grid rate; at doubled resolution the distance to the
    # 4x oracle is already below 1e-6
    cap = Cap(0.35, np.exp(0.8j))
    oracle = fold_measure(disk_quadrature(768, 1536), cap)
    mid = fold_measure(disk_quadrature(192, 384), cap)
    base = fold_measure(disk_quadrature(96, 192), cap)
    d_mid = measure_distance(mid, oracle)
    d_base = measure_distance(base, oracle)
    assert d_mid < 1e-6
    assert d_base < 1e-5 and d_mid < d_base


@pytest.mark.parametrize("r", [-0.9, -0.45, -0.2, 0.0, 0.2, 0.45, 0.9])
def test_sphere_fold_reflects_exactly_the_outside_atoms(rng, r):
    # few atoms outside (r < 0) and most atoms outside (r > 0) take
    # different paths; both keep the inside atoms bitwise and the layout,
    # and reflect the others up to the rounding of the row sums, which
    # follows the memory layout
    x = sphere_quadrature(3, resolution=8).points
    p = rng.normal(size=4)
    cap = Cap(r, p / np.linalg.norm(p), "sphere")
    folded = _fold_points(cap, x)
    inside = cap_contains(cap, x)
    assert folded.flags.f_contiguous
    assert np.array_equal(folded[inside], x[inside])
    assert np.max(np.abs(folded[~inside] - cap_reflection(cap, x[~inside])), initial=0.0) <= 1e-14


def test_disk_fold_writes_the_reflected_atoms_bitwise(rng):
    x = disk_quadrature(12, 24).points
    for r in (-0.6, 0.0, 0.6):
        cap = Cap(r, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        out = ~cap_contains(cap, x)
        expected = x.copy()
        expected[out] = cap_reflection(cap, x[out])
        assert np.array_equal(_fold_points(cap, x), expected)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_tangent_frame_is_an_orthonormal_basis_of_the_tangent_space(rng, n):
    for p in [rng.normal(size=n + 1) for _ in range(5)] + [np.eye(n + 1)[0], -np.eye(n + 1)[0]]:
        p = p / np.linalg.norm(p)
        frame = _tangent_frame(p)
        assert frame.shape == (n, n + 1)
        assert np.max(np.abs(frame @ frame.T - np.eye(n))) < 1e-14
        assert np.max(np.abs(frame @ p)) < 1e-14


def test_image_cap_sphere_xi_parallel_to_p():
    # with xi along p the image cap stays centred on the axis of p, however
    # the frame completes it
    p = np.array([0.0, 0.6, 0.0, 0.8])
    for along in (-0.4, 0.3):
        img = image_cap(Cap(0.2, p, "sphere"), along * p)
        flat = image_cap(Cap(0.2, 1.0, "disk"), complex(along, 0.0))
        assert img.r == pytest.approx(flat.r, abs=1e-14)
        assert np.max(np.abs(img.p - flat.p.real * p)) < 1e-14


# ------------------------------------------------------------- cap-to-disk

def test_cap_map_into_disk_and_boundary(rng):
    for r, th in [(0.0, 0.0), (0.45, 1.2), (-0.5, 3.9), (0.9, 5.5)]:
        cap = Cap(r, np.exp(1j * th))
        cmap = cap_to_disk(cap)
        z = _interior_points(rng, cap)
        w = cmap(z)
        assert np.max(np.abs(w)) < 1.0
        # arc midpoint p sits on the cap closure and maps to the boundary
        assert abs(abs(complex(cmap(np.array([cap.p * (1 - 1e-13)]))[0])) - 1.0) < 1e-5


def test_cap_map_rejects_outside_points():
    cap = Cap(0.5, 1.0)
    cmap = cap_to_disk(cap)
    with pytest.raises(EvaluationOutsideCapError):
        cmap(np.array([-0.9 + 0j]))


def test_cap_map_conformality_finite_difference(rng):
    # Cauchy-Riemann residual of the finite-difference Jacobian
    h = 1e-6
    for r, th in [(0.3, 0.4), (-0.6, 2.0)]:
        cap = Cap(r, np.exp(1j * th))
        cmap = cap_to_disk(cap)
        z = _interior_points(rng, cap, 12)
        fx = (cmap(z + h, check=False) - cmap(z - h, check=False)) / (2 * h)
        fy = (cmap(z + 1j * h, check=False) - cmap(z - 1j * h, check=False)) / (2 * h)
        assert np.max(np.abs(fx + 1j * fy)) < 1e-6


def test_cap_map_identity_limit(rng):
    # cap filling the whole disk: the normalized map approaches the identity
    grid = []
    for x in np.linspace(-0.7, 0.7, 9):
        for y in np.linspace(-0.7, 0.7, 9):
            if x * x + y * y < 0.49:
                grid.append(complex(x, y))
    grid = np.array(grid)
    for th in (0.0, 2.2):
        cap = Cap(-0.99, np.exp(1j * th))
        cmap = cap_to_disk(cap)
        assert np.max(np.abs(cmap(grid) - grid)) < 0.05


def test_cap_map_inverse_roundtrip(rng):
    for r, th in [(0.2, 0.9), (-0.7, 4.4), (0.8, 0.1)]:
        cap = Cap(r, np.exp(1j * th))
        cmap = cap_to_disk(cap)
        z = _interior_points(rng, cap)
        w, dw = cmap.with_derivative(z)
        zb, dz = cmap.inverse_with_derivative(w)
        assert np.max(np.abs(zb - z)) < 1e-12
        assert np.max(np.abs(dw * dz - 1.0)) < 1e-10
        # inverse maps the full disk into the cap
        probe = rng.uniform(-0.9, 0.9, 50) + 1j * rng.uniform(-0.9, 0.9, 50)
        probe = probe[np.abs(probe) < 0.95]
        back = cmap.inverse(probe)
        assert np.all(cap_contains(cap, back))


# -------------------------------------------------------------- rearrange

def test_reflected_measure_renormalizer_closed_form(uniform_disk):
    cap = Cap(0.5, 1.0)
    reflected = uniform_disk.with_points(
        cap_reflection(cap, uniform_disk.points)
    )
    res = renormalize(reflected)
    assert abs(res.xi - (-0.8)) < 1e-6
    assert abs(complex(reflection_renormalizer(cap)) - (-0.8)) < 1e-15


def test_rearrange_uniform_basics(uniform_disk):
    cap = Cap(0.5, np.exp(0.8j))
    nu, trace = rearrange(uniform_disk, cap)
    assert nu.total_mass == pytest.approx(uniform_disk.total_mass, abs=1e-12)
    assert np.max(np.abs(moment_vector(nu))) < 1e-8
    assert np.max(np.abs(nu.points)) <= 1.0 + 1e-12


def test_rearrange_requires_matching_space(uniform_disk):
    with pytest.raises(SpaceMismatchError):
        rearrange(uniform_disk, Cap(0.3, np.array([1.0, 0, 0]), "sphere"))


@pytest.mark.parametrize(
    "call",
    [fold_measure, rearrange, lambda m, cap: cap_contains(cap, m.points)],
    ids=["fold_measure", "rearrange", "cap_contains"],
)
def test_cap_of_another_dimension_is_a_space_mismatch(sphere3_uniform, call):
    # an S^2 cap on S^3 atoms raised numpy's ValueError
    with pytest.raises(SpaceMismatchError):
        call(sphere3_uniform, Cap(0.2, np.eye(3)[0], "sphere"))


def test_sphere_cap_direction_is_one_dimensional():
    # a (1, 4) direction was accepted as a cap on S^3
    with pytest.raises(InvalidInputError):
        Cap(0.2, np.eye(4)[:1], "sphere")


def test_flipflop_trend_uniform(uniform_disk):
    # uniform measure is reflection invariant, so the rearranged measure
    # approaches the original as the cap shrinks to a boundary point
    p = np.exp(0.5j)
    dists = []
    for r in (0.9, 0.95, 0.99):
        nu, _ = rearrange(uniform_disk, Cap(r, p))
        dists.append(measure_distance(nu, uniform_disk))
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] < 0.05


def test_flipflop_trend_bent(bent_canonical):
    canon, _ = bent_canonical
    for p in (1.0 + 0j, 1j):
        target = canon.with_points(reflection_disk(p, canon.points))
        dists = []
        for r in (0.9, 0.995):
            nu, _ = rearrange(canon, Cap(r, p))
            dists.append(measure_distance(nu, target))
        assert dists[1] < dists[0]
        assert dists[1] < 0.05


def test_rearrange_balanced_output_over_random_caps(bent_canonical, rng):
    # the pipeline output is balanced and mass preserving for every cap
    canon, _ = bent_canonical
    for _ in range(8):
        cap = Cap(rng.uniform(-0.85, 0.85), np.exp(1j * rng.uniform(0, 2 * np.pi)))
        nu, trace = rearrange(canon, cap)
        assert nu.total_mass == pytest.approx(canon.total_mass, abs=1e-10)
        assert np.max(np.abs(moment_vector(nu))) < 1e-8 * nu.total_mass


def test_rearrange_sphere_perturbed_balanced():
    from capfold.directions import canonicalize

    g = sphere_quadrature(3, resolution=10)
    bumped = DiscreteMeasure(
        "sphere", g.points, g.weights * (1.0 + 0.3 * g.points[:, 1])
    )
    bumped = bumped.scaled(1.0 / bumped.total_mass)
    canon, _ = canonicalize(bumped)
    cap = Cap(0.35, np.array([0.3, -0.5, 0.2, 0.78]) / np.linalg.norm(
        np.array([0.3, -0.5, 0.2, 0.78])
    ), "sphere")
    nu, trace = rearrange(canon, cap)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(moment_vector(nu))) < 1e-8


def test_rearrange_sphere_invariants(sphere3_uniform):
    cap = Cap(0.4, np.array([0.0, 1.0, 0.0, 0.0]), "sphere")
    nu, trace = rearrange(sphere3_uniform, cap)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(moment_vector(nu))) < 1e-8
    assert trace.eta_a is None
    # the closed-form reflected-measure balancing point carries over
    reflected = sphere3_uniform.with_points(
        cap_reflection(cap, sphere3_uniform.points)
    )
    res = renormalize(reflected)
    assert np.linalg.norm(res.xi - reflection_renormalizer(cap)) < 1e-6



def test_rearrange_trace_records_its_cap(uniform_disk, sphere3_uniform):
    for m, cap in (
        (uniform_disk, Cap(0.5, np.exp(0.8j))),
        (sphere3_uniform, Cap(0.4, np.array([0.0, 1.0, 0.0, 0.0]), "sphere")),
    ):
        assert rearrange(m, cap)[1].cap is cap

# ------------------------------------------------- subharmonic diagnostics

def test_subharmonic_uniform_saturates():
    nu = disk_quadrature(96, 192)
    report = subharmonic_diagnostics(nu)
    assert report.monotonicity_violation == 0.0
    assert np.max(np.abs(report.w_profile - 2 * np.pi)) < 1e-12
    assert np.max(np.abs(report.g_profile - np.pi * report.radii**2)) < 1e-10


def test_subharmonic_explicit_density():
    # |1 + 0.6 z|^2 is the squared modulus of an analytic function, hence
    # subharmonic; normalize to mass pi
    dens = lambda z: np.abs(1 + 0.6 * z) ** 2 / 1.18
    nu = disk_quadrature(96, 192, dens)
    report = subharmonic_diagnostics(nu)
    assert report.monotonicity_violation < 1e-12
    assert report.growth_violation < 1e-9


def test_subharmonic_rearranged(uniform_disk):
    cap = Cap(0.5, np.exp(0.8j))
    nu, trace = rearrange(uniform_disk, cap)
    grid_nu = rearranged_grid_measure(
        lambda z: np.ones_like(np.real(z)), trace, uniform_disk.total_mass
    )
    report = subharmonic_diagnostics(grid_nu)
    assert report.monotonicity_violation < 1e-6
    assert report.growth_violation < 1e-6
    # the grid density agrees with the transported atoms in the moment metric
    assert measure_distance(grid_nu.scaled(uniform_disk.total_mass / np.pi), nu) < 0.02


def test_rearranged_density_matches_atoms(bent_canonical):
    canon, cmap = bent_canonical
    from capfold.measures import ConformalDomain

    base = cmap.density(ConformalDomain([1.0, 0.3]).density)
    cap = Cap(0.45, np.exp(2.2j))
    nu, trace = rearrange(canon, cap)
    dens = rearranged_density(base, trace)
    grid = disk_grid(96, 192)
    grid_mass = float(np.sum(grid.weights * dens(grid.points)))
    # the density concentrates at the two image-cap corners on the boundary,
    # so the grid quadrature carries a small boundary-layer deficit
    assert grid_mass == pytest.approx(canon.total_mass, rel=1e-2)
    finer_grid = disk_grid(256, 384)
    finer = float(np.sum(finer_grid.weights * dens(finer_grid.points)))
    assert abs(finer - canon.total_mass) < abs(grid_mass - canon.total_mass)


def test_subharmonic_grid_mismatch(uniform_disk):
    # atoms off the rule cannot carry it; a measure without a polar rule,
    # on the grid's own atoms or on a sphere rule, is refused
    with pytest.raises(GridMismatchError):
        DiscreteMeasure(
            "disk", uniform_disk.points * 0.5, uniform_disk.weights, uniform_disk.rule
        )
    no_rule = DiscreteMeasure("disk", uniform_disk.points, uniform_disk.weights)
    moved = uniform_disk.with_points(uniform_disk.points)
    for m in (no_rule, moved, sphere_quadrature(3, 4)):
        with pytest.raises(GridMismatchError):
            subharmonic_diagnostics(m)


def test_reflection_factor_is_jacobian(rng):
    cap = Cap(0.4, np.exp(1.0j))
    z = _interior_points(rng, cap, 10)
    h = 1e-6
    for zz in z[:5]:
        fd = abs(
            cap_reflection(cap, np.array([zz + h]))[0]
            - cap_reflection(cap, np.array([zz - h]))[0]
        ) / (2 * h)
        assert fd == pytest.approx(
            float(cap_reflection_factor(cap, np.array([zz]))[0]), rel=1e-5
        )
