"""Measure construction, moments, direction forms, and the moment metric."""

import tracemalloc

import numpy as np
import pytest

from capfold.exceptions import (
    GridMismatchError,
    InvalidInputError,
    NegativeDensityError,
    SpaceMismatchError,
    UnivalenceError,
)
from capfold import measures
from capfold.measures import (
    ConformalDomain,
    DiscreteMeasure,
    QuadratureRule,
    _disk_xy_factors,
    _form_from_columns,
    coordinate_values,
    direction_form,
    disk_grid,
    disk_quadrature,
    measure_distance,
    measure_from_json,
    measure_to_json,
    moment_vector,
    pullback_measure,
    sphere_quadrature,
    sphere_rule,
)
from capfold.specfun import (
    bessel_j1,
    find_zeta,
    gauss_legendre,
    radial_profile,
    radial_square_integral,
)


def test_uniform_mass_is_pi(uniform_disk):
    assert uniform_disk.total_mass == pytest.approx(np.pi, abs=1e-10)


def test_uniform_moments_vanish(uniform_disk):
    assert np.max(np.abs(moment_vector(uniform_disk))) < 1e-12


def test_negative_density_rejected():
    with pytest.raises(NegativeDensityError):
        disk_quadrature(8, 8, lambda z: np.real(z) - 2.0)


def _assert_shared_read_only_and_unchanged(build, *args):
    # one rule per shape, bitwise the uncached computation; a caller cannot
    # write into the arrays every other caller shares
    rule = build(*args)
    fresh = build.__wrapped__(*args)
    assert build(*args) is rule
    assert rule.shape == fresh.shape
    for name in ("points", "weights", "radii"):
        arr, ref = getattr(rule, name), getattr(fresh, name)
        if ref is None:
            assert arr is None, name
            continue
        assert not arr.flags.writeable, name
        assert arr.tobytes() == ref.tobytes(), name
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_disk_grid_is_shared_read_only_and_unchanged():
    _assert_shared_read_only_and_unchanged(disk_grid, 12, 20)


def _meshgrid_sphere_rule(n, resolution):
    # the product-angle rule built on full meshgrids, the reference for the
    # broadcast build: same factors, same order of products
    x, w = gauss_legendre(resolution)
    m_az = 2 * resolution
    angles = [0.5 * np.pi * (x + 1.0)] * (n - 1) + [2.0 * np.pi * np.arange(m_az) / m_az]
    factors = [0.5 * np.pi * w] * (n - 1) + [np.full(m_az, 2.0 * np.pi / m_az)]
    mesh = np.meshgrid(*angles, indexing="ij")
    coords = np.empty((n + 1,) + mesh[0].shape)
    sin_prod = np.ones(mesh[0].shape)
    for k in range(n):
        coords[k] = sin_prod * np.cos(mesh[k])
        sin_prod = sin_prod * np.sin(mesh[k])
    coords[n] = sin_prod
    weight = np.ones(mesh[0].shape)
    for k in range(n - 1):
        weight = weight * np.sin(mesh[k]) ** (n - 1 - k)
    for wm in np.meshgrid(*factors, indexing="ij"):
        weight = weight * wm
    return coords.reshape(n + 1, -1).T, weight.ravel()


def test_sphere_rule_refuses_more_than_its_size_limit(monkeypatch):
    # at resolution 16, n = 7 asked for 34 GB of atoms and n = 9 for 11 TB
    for n in (7, 9):
        with pytest.raises(InvalidInputError, match="limit"):
            sphere_rule(n, 16)
    # the limit counts the atom coordinates: a rule of exactly that many builds
    monkeypatch.setattr(measures, "RULE_MAX_FLOATS", 4**2 * 8 * 4)
    assert sphere_rule.__wrapped__(3, 4).points.size == 4**2 * 8 * 4
    with pytest.raises(InvalidInputError, match="limit"):
        sphere_rule.__wrapped__(3, 5)


def test_disk_grid_refuses_more_than_the_rule_limit(monkeypatch):
    # unchecked, 20000 radial nodes built a 3.2 GB companion matrix, then
    # 8e8 complex atoms
    with pytest.raises(InvalidInputError, match="limit"):
        disk_grid(20000, 40000)
    # the limit counts n_r^2 + 2 n_r n_theta floats: a rule of exactly
    # that many builds
    monkeypatch.setattr(measures, "RULE_MAX_FLOATS", 4 * 4 + 2 * 4 * 8)
    assert disk_grid.__wrapped__(4, 8).points.size == 4 * 8
    with pytest.raises(InvalidInputError, match="limit"):
        disk_grid.__wrapped__(4, 9)


def test_sphere_rule_is_shared_read_only_and_unchanged():
    _assert_shared_read_only_and_unchanged(sphere_rule, 3, 4)
    # sphere_quadrature builds its measure on the shared rule
    g, rule = sphere_quadrature(3, 4), sphere_rule(3, 4)
    assert g.rule is rule and g.points is rule.points and g.weights is rule.weights
    # broadcast 1-D factors give the meshgrid build's atoms and weights
    # bitwise, column-major
    for n, res in ((1, 6), (2, 5), (3, 16), (5, 8), (7, 5)):
        fresh = sphere_rule.__wrapped__(n, res)
        points, weights = _meshgrid_sphere_rule(n, res)
        assert fresh.points.flags.f_contiguous, (n, res)
        assert fresh.points.tobytes(order="A") == points.tobytes(order="A"), (n, res)
        assert fresh.weights.tobytes() == weights.tobytes(), (n, res)
    # with no full grid per angle, the build's peak stays near its atoms'
    # size: the meshgrid build peaked at 10.5, 79.6 and 32.5 MB
    for n, res, limit_mb in ((5, 8, 5.0), (5, 12, 36.0), (7, 5, 15.0)):
        tracemalloc.start()
        try:
            sphere_rule.__wrapped__(n, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6, (n, res, peak)


def test_grid_columns_are_cached_read_only_and_unchanged():
    # X_e1, X_e2 of a polar rule: one (N, 2) array per rule, cached on it,
    # bitwise the kernel's values at the rule's atoms, and read-only like
    # the atoms
    for shape in ((12, 20), (96, 192)):
        rule = disk_grid(*shape)
        cols = rule.columns
        fresh = _disk_xy_factors(rule.points)
        assert cols is disk_grid(*shape).columns
        assert cols.shape == (len(rule.points), 2) and cols.flags.c_contiguous
        assert cols.tobytes() == fresh.tobytes()
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0] = 0.0


def test_grid_columns_serve_only_the_grid_array():
    # only a measure that keeps its rule reads the cached columns; a copy of
    # the grid or a with_points measure has no rule and evaluates the
    # kernel, and every one of them gets the fresh evaluation's numbers
    grid = disk_quadrature(12, 20, lambda z: np.abs(1.0 + 0.4 * z) ** 2)
    copy = DiscreteMeasure("disk", grid.points.copy(), grid.weights)
    cases = {
        "grid": (grid, True),
        "scaled": (grid.scaled(2.0), True),
        "copy": (copy, False),
        "with_points": (grid.with_points(grid.points), False),
    }
    for name, (m, cached) in cases.items():
        assert (m.rule is disk_grid(12, 20)) == cached, name
        fresh = _disk_xy_factors(m.points)
        moments = np.array([np.sum(m.weights * col) for col in fresh.T])
        form = _form_from_columns(fresh, m.weights)
        assert moment_vector(m).tobytes() == moments.tobytes(), name
        assert direction_form(m).matrix.tobytes() == form.matrix.tobytes(), name


def test_measure_given_a_rule_must_sit_on_its_atoms():
    rule = disk_grid(12, 20)
    assert DiscreteMeasure("disk", rule.points, rule.weights, rule).rule is rule
    for points in (rule.points.copy(), 0.5 * rule.points):
        with pytest.raises(GridMismatchError):
            DiscreteMeasure("disk", points, rule.weights, rule)
    sphere = sphere_rule(3, 4)
    with pytest.raises(GridMismatchError):
        DiscreteMeasure("sphere", np.array(sphere.points), sphere.weights, sphere)


def test_rule_checks_its_atoms_once():
    # a rule's atoms pass the measure checks when it is built; a measure on
    # the rule's own array does not scan them again
    with pytest.raises(InvalidInputError):
        QuadratureRule(np.array([0.5, 1.5j]), np.ones(2))
    with pytest.raises(InvalidInputError):
        QuadratureRule(np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]), np.ones(2))
    with pytest.raises(NegativeDensityError):
        QuadratureRule(np.array([0.5, 0.5j]), np.array([1.0, -1.0]))
    # the check is not repeated: atoms moved off after the rule was built
    # (which only a writer that unlocks the array can do) pass on the rule,
    # and fail as a copy
    sphere = np.asfortranarray([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    for points in (np.array([0.5, 0.5j]), sphere):
        rule = QuadratureRule(points, np.ones(2))
        space = "disk" if points.ndim == 1 else "sphere"
        rule.points.flags.writeable = True
        rule.points[0] *= 3.0
        assert DiscreteMeasure(space, rule.points, rule.weights, rule).rule is rule
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(space, rule.points.copy(), rule.weights)


def test_derivative_is_plain_horner_up_to_the_sign_of_zeros(rng):
    # in-place Horner that skips zero coefficients: a skipped addition of
    # zero can change only the sign of a zero, which |phi'| removes
    z = disk_grid(12, 20).points
    for degree in (1, 2, 3, 5, 7):
        for _ in range(4):
            c = rng.uniform(0.5, 2.0, degree) * np.exp(2j * np.pi * rng.random(degree))
            c[1:] *= 0.1 * abs(c[0]) / np.arange(2, degree + 1) ** 2
            c[1:][rng.random(degree - 1) < 0.5] = 0.0
            domain = ConformalDomain(c)
            ref = np.zeros_like(z)
            for k in range(degree, 0, -1):
                ref = ref * z + k * c[k - 1]
            got = domain.derivative(z)
            assert np.array_equal(got, ref)
            assert np.abs(got).tobytes() == np.abs(ref).tobytes()


def test_measure_keeps_atoms_of_the_right_dtype_uncopied():
    rule = disk_grid(12, 20)
    assert DiscreteMeasure("disk", rule.points, rule.weights).points is rule.points
    sphere = sphere_quadrature(3, 4)
    assert DiscreteMeasure("sphere", sphere.points, sphere.weights).points is sphere.points


@pytest.mark.parametrize(
    "space, points, weights",
    [
        # (x, y) rows are not complex disk atoms: moment_vector read [0.630, 0]
        ("disk", np.array([[0.1, 0.2], [0.3, 0.1]]), [1.0, 1.0]),
        ("disk", np.array([0.1, 0.2j, 0.3]), [1.0, 1.0]),
        ("disk", np.array([0.1, 0.2j]), [[1.0], [1.0]]),
        ("sphere", np.eye(4)[:3], [1.0, 1.0]),
        ("sphere", np.eye(4)[0], [1.0]),
    ],
    ids=["disk-xy-rows", "disk-3-atoms-2-weights", "disk-weight-column",
         "sphere-3-atoms-2-weights", "sphere-1d"],
)
def test_measure_rejects_malformed_shapes(space, points, weights):
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(space, points, weights)


def test_quadrature_of_derivative_density():
    # |1 + 2 c z|^2 with c = 0.3 integrates to pi (1 + 2 c^2)
    c = 0.3
    m = disk_quadrature(96, 192, lambda z: np.abs(1 + 2 * c * z) ** 2)
    assert m.total_mass == pytest.approx(np.pi * (1 + 2 * c * c), abs=1e-8)


def test_quadrature_convergence_with_radial_order():
    # smooth radial density: error collapses once the rule resolves it
    dens = lambda z: np.exp(-np.abs(z) ** 2)
    exact = np.pi * (1 - np.exp(-1.0))
    coarse = abs(disk_quadrature(8, 32, dens).total_mass - exact)
    fine = abs(disk_quadrature(32, 32, dens).total_mass - exact)
    assert fine < coarse * 1e-6 or fine < 1e-14


def test_pullback_identity_map():
    m = pullback_measure(ConformalDomain([1.0]), 48, 96)
    assert m.total_mass == pytest.approx(np.pi, abs=1e-10)


def test_pullback_bent_mass(bent_domain):
    m = pullback_measure(bent_domain, 96, 192)
    assert m.total_mass == pytest.approx(np.pi * 1.18, abs=1e-8)
    assert m.total_mass == pytest.approx(bent_domain.area, abs=1e-8)


def test_pullback_scaling_map():
    m = pullback_measure(ConformalDomain([2.0]), 48, 96)
    assert m.total_mass == pytest.approx(4 * np.pi, abs=1e-8)


def test_pullback_mass_matches_coefficient_formula(rng):
    # random univalent-certified coefficient sets
    for _ in range(5):
        coeffs = [1.0]
        budget = 0.85
        for k in range(2, 5):
            c = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * budget / (4 * k)
            coeffs.append(c)
        dom = ConformalDomain(coeffs)
        m = pullback_measure(dom, 96, 192)
        assert m.total_mass == pytest.approx(dom.area, rel=1e-8)


@pytest.mark.parametrize("c", [1e-170, 1e-156, 1e154, 1e200])
def test_domain_whose_area_leaves_the_normal_floats_is_rejected(c):
    # pi |c|^2 under the smallest normal float, or infinite
    with pytest.raises(InvalidInputError):
        ConformalDomain([c])


def test_univalence_certificate_rejects_folding_map():
    with pytest.raises(UnivalenceError):
        ConformalDomain([1.0, 0.0, 2.0])  # z + 2 z^3 is not injective


@pytest.mark.parametrize("coeffs", [[1, 1], [1, 0.99], [1, 1.01], [1, 0.5]])
def test_univalence_rejects_a_critical_point_in_the_closed_disk(coeffs):
    # z + z^2: f' vanishes at -1/2 and the boundary crosses itself at -1
    # exactly on two vertices of the boundary polygon; z + z^2/2 (the
    # cardioid) has its critical point on the boundary
    with pytest.raises(UnivalenceError):
        ConformalDomain(coeffs)


def test_univalence_without_the_certificate_accepts_a_univalent_map():
    # 2 |c2| + 3 |c3| = 1.1 fails the coefficient certificate; the critical
    # points of 1 + 0.8 z + 0.3 z^2 lie outside the disk
    assert ConformalDomain([1.0, 0.4, 0.1]).area > 0


def test_domain_from_pairs_keeps_each_part():
    dom = ConformalDomain.from_pairs([[1.0, 0.0], [0.1, -0.0], [0.0, 0.05]])
    assert dom.coeffs.tolist() == [1.0, 0.1, 0.05j]
    assert np.signbit(dom.coeffs[1].imag)


@pytest.mark.parametrize(
    "pairs",
    [
        [1, 2], [[1]], [["x", 0]], [[1, 0], [float("nan"), 0]], [[float("inf"), 0]], 3, None,
        [["1", 0]], [[1, 0], [True, 0]], [[1, 0], [0, np.bool_(False)]],
    ],
    ids=[
        "flat", "short-pair", "text", "nan", "inf", "number", "null",
        "numeric-text", "bool", "numpy-bool",
    ],
)
def test_domain_from_pairs_rejects_malformed(pairs):
    with pytest.raises(InvalidInputError):
        ConformalDomain.from_pairs(pairs)


def test_boundary_atom_moment():
    # single boundary atom: moment = w * J1(zeta) * p
    p = np.exp(0.7j)
    w = 0.35
    m = DiscreteMeasure("disk", np.array([p]), np.array([w]))
    vec = moment_vector(m)
    expect = w * bessel_j1(find_zeta()) * np.array([p.real, p.imag])
    assert np.allclose(vec, expect, atol=1e-13)


def test_uniform_sphere_moments_vanish():
    for n in (1, 2, 3):
        g = sphere_quadrature(n, resolution=10)
        assert np.max(np.abs(moment_vector(g))) < 1e-10


def test_sphere_mass():
    from capfold.specfun import omega_n

    for n in (1, 2, 3, 5):
        g = sphere_quadrature(n, resolution=12)
        assert g.total_mass == pytest.approx(omega_n(n), rel=1e-12)


def test_direction_form_uniform_is_isotropic(uniform_disk):
    form = direction_form(uniform_disk)
    lam = np.pi * radial_square_integral()
    assert form.matrix == pytest.approx(lam * np.eye(2), abs=1e-10)
    # radial quadrature oracle for the same number
    x, w = np.polynomial.legendre.leggauss(200)
    r = 0.5 * (x + 1)
    oracle = np.pi * 0.5 * np.sum(w * radial_profile(r) ** 2 * r)
    assert form.eig_max == pytest.approx(oracle, abs=1e-10)


def test_direction_form_uniform_sphere_isotropic():
    g = sphere_quadrature(2, resolution=12)
    form = direction_form(g)
    assert form.gap < 1e-12
    assert form.matrix == pytest.approx(form.matrix[0, 0] * np.eye(3), abs=1e-10)


def test_direction_form_raw_bent_pullback_is_isotropic(bent_domain):
    # only 0th/1st angular harmonics in |phi'|^2: exactly multiple before
    # any balancing
    m = pullback_measure(bent_domain, 96, 192)
    form = direction_form(m)
    assert form.gap < 1e-12


def test_direction_form_balanced_bent_pullback(bent_canonical):
    # after balancing, the measure is genuinely anisotropic; against a
    # denser quadrature oracle the top eigenvector is reproducible
    canon, _ = bent_canonical
    form = direction_form(canon)
    assert form.eig_max > form.eig_second
    assert form.gap > 0.05
    # canonical rotation puts the maximizer on e1
    assert abs(abs(form.max_direction[0]) - 1.0) < 1e-9


def test_direction_form_elongated_density():
    # density 1 + 0.6 r^2 cos(2 theta) is balanced with maximizer e1
    def dens(z):
        return 1.0 + 0.6 * np.real(z * z)

    m = disk_quadrature(96, 192, dens)
    assert np.max(np.abs(moment_vector(m))) < 1e-12
    form = direction_form(m)
    assert form.gap > 1e-3
    assert abs(abs(form.max_direction[0]) - 1.0) < 1e-10
    # dense-quadrature oracle agrees
    dense = direction_form(disk_quadrature(192, 384, dens))
    assert form.eig_max == pytest.approx(dense.eig_max, rel=1e-9)


def test_direction_form_bilinear_consistency(rng, bent_canonical):
    canon, _ = bent_canonical
    form = direction_form(canon)
    for _ in range(5):
        s = rng.normal(size=2)
        t = rng.normal(size=2)
        via_matrix = s @ form.matrix @ t
        xs = coordinate_values(canon, complex(*s))
        xt = coordinate_values(canon, complex(*t))
        direct = np.sum(canon.weights * xs * xt)
        assert via_matrix == pytest.approx(direct, rel=1e-10)


def test_v_symmetric_under_sign():
    m = disk_quadrature(32, 64)
    form = direction_form(m)
    s = np.array([0.6, 0.8])
    assert form.value(s) == form.value(-s)


def test_measure_distance_identity(uniform_disk):
    assert measure_distance(uniform_disk, uniform_disk) == 0.0


def test_measure_distance_rotation_invariance(bent_canonical):
    canon, _ = bent_canonical
    rot = np.exp(1.234j)
    # rotating both arguments must leave the metric unchanged exactly
    other = canon.with_points(canon.points * np.exp(0.4j))
    d1 = measure_distance(canon, other)
    d2 = measure_distance(
        canon.with_points(rot * canon.points),
        other.with_points(rot * other.points),
    )
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_measure_distance_uniform_rotated(uniform_disk):
    rotated = uniform_disk.with_points(np.exp(0.77j) * uniform_disk.points)
    assert measure_distance(uniform_disk, rotated) < 1e-12


def test_measure_distance_triangle_and_symmetry(uniform_disk, bent_canonical):
    canon, _ = bent_canonical
    scaledu = uniform_disk.scaled(1.18)
    d_ab = measure_distance(uniform_disk, canon)
    d_ba = measure_distance(canon, uniform_disk)
    assert d_ab == d_ba
    d_ac = measure_distance(uniform_disk, scaledu)
    d_cb = measure_distance(scaledu, canon)
    assert d_ab <= d_ac + d_cb + 1e-12


def test_measure_distance_space_mismatch(uniform_disk):
    g = sphere_quadrature(2, resolution=8)
    with pytest.raises(SpaceMismatchError):
        measure_distance(uniform_disk, g)


def test_measure_json_bad_schema_rejected():
    import json as _json

    doc = {"schema": 2, "space": "disk", "n": 1, "atoms": [[0, 0, 1]]}
    with pytest.raises(ValueError):
        measure_from_json(_json.dumps(doc))


@pytest.mark.parametrize(
    "space, n, atoms",
    [
        ("sphere", 5, [[1.0, 0.0, 0.0, 0.0, 1.0]]),  # S^3 atoms
        ("sphere", 3.0, [[1.0, 0.0, 0.0, 0.0, 1.0]]),
        ("sphere", "3", [[1.0, 0.0, 0.0, 0.0, 1.0]]),
        ("disk", 7, [[0.0, 0.0, 1.0]]),
        ("disk", True, [[0.0, 0.0, 1.0]]),
        ("disk", None, [[0.0, 0.0, 1.0]]),
    ],
    ids=["sphere-5-of-width-5", "float", "text", "disk-7", "bool", "missing"],
)
def test_measure_json_n_must_match_the_atoms(space, n, atoms):
    import json as _json

    doc = {"schema": 1, "space": space, "atoms": atoms}
    if n is not None:
        doc["n"] = n
    with pytest.raises(InvalidInputError, match="measure n"):
        measure_from_json(_json.dumps(doc))


def test_measure_json_roundtrip(uniform_disk):
    small = DiscreteMeasure(
        "disk", uniform_disk.points[:7], uniform_disk.weights[:7]
    )
    back = measure_from_json(measure_to_json(small))
    assert np.allclose(back.points, small.points)
    assert np.allclose(back.weights, small.weights)

    g = sphere_quadrature(2, resolution=6)
    back = measure_from_json(measure_to_json(g))
    assert back.space == "sphere"
    assert np.allclose(back.points, g.points)
    assert np.allclose(back.weights, g.weights)
