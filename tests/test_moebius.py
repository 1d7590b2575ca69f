"""Moebius maps, reflections, and the renormalization solver."""

import warnings

import numpy as np
import pytest

from capfold.caps import Cap, rearrange
from capfold.directions import _compressed_traceless, _sphere_cap_jacobian, _tangents
from capfold.exceptions import InvalidInputError, NonConvergenceError, ZeroMassError
from capfold.measures import (
    DiscreteMeasure,
    coordinate_values,
    direction_form,
    disk_quadrature,
    sphere_quadrature,
)
from capfold.moebius import (
    _ball_moments,
    _point_outweighs,
    ball_moebius,
    disk_moebius,
    disk_moebius_derivative,
    pushforward,
    reflection,
    reflection_disk,
    renormalize,
)


def _random_disk_points(rng, count, rmax=0.98):
    pts = np.empty(0, dtype=complex)
    while len(pts) < count:
        block = rng.uniform(-1, 1, size=(4 * count, 2))
        z = block[:, 0] + 1j * block[:, 1]
        pts = np.concatenate([pts, z[np.abs(z) < rmax]])
    return pts[:count]


def test_disk_moebius_identity_and_center(rng):
    z = _random_disk_points(rng, 32)
    assert np.allclose(disk_moebius(0.0, z), z)
    for xi in (0.3 + 0.1j, -0.7j, 0.55):
        assert disk_moebius(xi, np.array([0.0 + 0j]))[0] == pytest.approx(xi)


def test_disk_moebius_inverse(rng):
    z = _random_disk_points(rng, 64)
    for xi in (0.4 + 0.2j, -0.6j, 0.15 - 0.6j):
        back = disk_moebius(-xi, disk_moebius(xi, z))
        assert np.max(np.abs(back - z)) < 1e-13


def test_disk_moebius_preserves_boundary():
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    bnd = np.exp(1j * theta)
    img = disk_moebius(0.37 - 0.52j, bnd)
    assert np.max(np.abs(np.abs(img) - 1.0)) < 1e-13


def test_disk_moebius_derivative_finite_difference(rng):
    z = _random_disk_points(rng, 16, rmax=0.9)
    xi = 0.33 - 0.41j
    h = 1e-7
    fd = (disk_moebius(xi, z + h) - disk_moebius(xi, z - h)) / (2 * h)
    assert np.max(np.abs(fd - disk_moebius_derivative(xi, z))) < 1e-7


def test_composition_rotation_factor(rng):
    # composing one map with the inverse of another is a rotation times a
    # third map; the rotation factor (1 - eta conj(xi))/(1 - conj(eta) xi)
    # is unimodular
    for _ in range(10):
        xi = complex(*rng.uniform(-0.6, 0.6, 2))
        eta = complex(*rng.uniform(-0.6, 0.6, 2))
        q = (1 - eta * np.conj(xi)) / (1 - np.conj(eta) * xi)
        assert abs(abs(q) - 1.0) < 1e-13
        alpha = disk_moebius(-xi, np.array([eta]))[0]
        z = _random_disk_points(rng, 20)
        lhs = disk_moebius(eta, disk_moebius(-xi, z))
        rhs = q * disk_moebius(alpha, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ball_moebius_matches_disk_for_n1(rng):
    z = _random_disk_points(rng, 40)
    for _ in range(5):
        xi = complex(*rng.uniform(-0.5, 0.5, 2))
        got = ball_moebius(
            np.array([xi.real, xi.imag]),
            np.stack([z.real, z.imag], axis=1),
        )
        want = disk_moebius(xi, z)
        assert np.max(np.abs(got[:, 0] + 1j * got[:, 1] - want)) < 1e-13


def test_ball_moebius_sphere_preservation(rng):
    for dim in (3, 4, 5):
        x = rng.normal(size=(50, dim))
        x /= np.linalg.norm(x, axis=1)[:, None]
        xi = rng.normal(size=dim)
        xi *= 0.62 / np.linalg.norm(xi)
        y = ball_moebius(xi, x)
        assert np.max(np.abs(np.linalg.norm(y, axis=1) - 1.0)) < 1e-12
        # inverse composition
        back = ball_moebius(-xi, y)
        assert np.max(np.abs(back - x)) < 1e-12
        assert np.allclose(ball_moebius(np.zeros(dim), x), x)


def test_ball_moebius_center():
    xi = np.array([0.2, -0.3, 0.1, 0.4])
    assert np.allclose(ball_moebius(xi, np.zeros(4)), xi)


def test_reflection_involution_and_antipode(rng):
    p = rng.normal(size=3)
    p /= np.linalg.norm(p)
    x = rng.normal(size=(20, 3))
    assert np.allclose(reflection(p, reflection(p, x)), x, atol=1e-14)
    assert np.allclose(reflection(p, p), -p, atol=1e-14)


def test_reflection_disk_matches_vector_form(rng):
    z = _random_disk_points(rng, 30)
    p = np.exp(1j * 1.1)
    ref = reflection_disk(p, z)
    vec = reflection(
        np.array([p.real, p.imag]), np.stack([z.real, z.imag], axis=1)
    )
    assert np.max(np.abs(ref - (vec[:, 0] + 1j * vec[:, 1]))) < 1e-14


def test_reflection_commutes_with_coordinates(rng):
    # X_s(R_p z) = X_{R_p s}(z)
    z = _random_disk_points(rng, 25)
    m = DiscreteMeasure("disk", z, np.ones(len(z)))
    p = np.exp(0.3j)
    s = np.exp(1.9j)
    lhs = coordinate_values(m.with_points(reflection_disk(p, z)), s)
    rs = reflection_disk(p, s)
    rhs = coordinate_values(m, rs)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_renormalize_uniform(uniform_disk):
    res = renormalize(uniform_disk)
    assert abs(res.xi) < 1e-10
    assert res.residual < 1e-10


def test_renormalize_two_atoms():
    q = 0.53 + 0.2j
    m = DiscreteMeasure("disk", np.array([q, -q]), np.array([1.0, 1.0]))
    res = renormalize(m)
    assert abs(res.xi) < 1e-10


def test_renormalize_planted_transport(uniform_disk):
    planted = pushforward(uniform_disk, 0.3 + 0.0j)
    res = renormalize(planted)
    assert abs(res.xi - (-0.3)) < 1e-8


def test_renormalize_random_plants(uniform_disk, rng):
    for _ in range(4):
        vec = rng.uniform(-1, 1, 2)
        vec *= rng.uniform(0.1, 0.7) / np.linalg.norm(vec)
        xi0 = complex(*vec)
        planted = pushforward(uniform_disk, xi0)
        res = renormalize(planted)
        assert abs(res.xi + xi0) < 1e-8


def test_renormalize_restart_uniqueness(bent_canonical):
    canon, _ = bent_canonical
    # perturb out of balance, then check all restarts land together
    moved = pushforward(canon, 0.21 - 0.13j)
    results = [renormalize(moved, seed=seed).xi for seed in range(1, 8)]
    base = results[0]
    assert all(abs(x - base) < 1e-9 for x in results)


def test_renormalize_restart_uniqueness_s5():
    # in R^6 a start drawn from the cube can leave the ball (seeds 79, 126
    # and 249 do); every seeded start must still reach the same point
    g = sphere_quadrature(5, resolution=6)
    m = DiscreteMeasure("sphere", g.points, g.weights * (1.0 + 0.1 * g.points[:, 1]))
    base = renormalize(m).xi
    for seed in [*range(1, 21), 79, 126, 249]:
        assert np.max(np.abs(renormalize(m, seed=seed).xi - base)) < 1e-12


def test_renormalize_restart_uniqueness_s3_bench_densities():
    # densities 1 + (a, x) + b x0^2, the form of the benchmark's quotient
    # ops: the secant stage's last step must land as far below tol as a
    # Newton step, or seeded restarts disagree at the 1e-11 level
    g = sphere_quadrature(3, resolution=16)
    for a, b in (
        ([0.1, -0.2, 0.15, 0.05], 0.1),
        ([0.0, 0.3, 0.0, 0.0], 0.05),
        ([-0.2, 0.05, -0.1, 0.15], 0.0),
    ):
        density = 1.0 + g.points @ np.array(a) + b * g.points[:, 0] ** 2
        m = DiscreteMeasure("sphere", g.points, g.weights * density)
        base = renormalize(m)
        assert base.residual <= 1e-12
        for seed in range(1, 21):
            res = renormalize(m, seed=seed)
            assert res.residual <= 1e-12
            assert np.max(np.abs(res.xi - base.xi)) < 1e-12


def test_renormalize_counts_its_work(uniform_disk, sphere3_uniform):
    # drift steps cost one evaluation each, a Newton step one for the
    # residual; the disk adds four central-difference moment vectors per
    # step for its Jacobian, the ball one evaluation for its single
    # closed-form Jacobian, which the secant steps after it update
    disk = renormalize(pushforward(uniform_disk, 0.3 + 0j))
    ball = renormalize(pushforward(sphere3_uniform, np.array([0.25, -0.1, 0.3, 0.05])))
    assert (disk.iterations, disk.evaluations, disk.halvings) == (9, 18, 0)
    assert (ball.iterations, ball.evaluations, ball.halvings) == (6, 8, 0)


def test_renormalize_builds_one_ball_jacobian(uniform_disk, sphere3_uniform):
    # from the origin, a seeded start and a warm start, each solve takes
    # several secant steps after the one closed-form Jacobian
    moved = pushforward(sphere3_uniform, np.array([0.25, -0.1, 0.3, 0.05]))
    warm = renormalize(moved).xi + 0.01
    for res in (renormalize(moved), renormalize(moved, seed=3), renormalize(moved, start=warm)):
        assert res.jacobians == 1
        assert res.evaluations == res.iterations + 2
    # the disk builds a central-difference Jacobian at each of its 2 Newton
    # steps: 1 + 9 residuals and 2 x 4 moment vectors
    disk = renormalize(pushforward(uniform_disk, 0.3 + 0j))
    assert disk.jacobians == 2
    assert disk.evaluations == 1 + disk.iterations + 4 * disk.jacobians


def test_renormalize_idempotent(bent_canonical):
    canon, _ = bent_canonical
    res = renormalize(canon)
    assert abs(res.xi) < 1e-9


def test_renormalize_equivariance(bent_canonical):
    # renormalize(rotate(m)) = rotate(renormalize(m))
    canon, _ = bent_canonical
    moved = pushforward(canon, 0.3 + 0.1j)
    rot = np.exp(0.9j)
    xi_base = renormalize(moved).xi
    xi_rot = renormalize(moved.with_points(rot * moved.points)).xi
    assert abs(xi_rot - rot * xi_base) < 1e-9


def test_renormalize_zero_mass():
    m = DiscreteMeasure("disk", np.array([0.1 + 0j]), np.array([0.0]))
    with pytest.raises(ZeroMassError):
        renormalize(m)


def test_renormalize_interior_concentration_converges():
    # concentration strictly inside the disk still has a balancing point,
    # just very close to the boundary
    pts = np.array([0.999999 + 0j] * 50 + [0.0 + 0j])
    w = np.array([1.0] * 50 + [1e-6])
    m = DiscreteMeasure("disk", pts, w)
    res = renormalize(m, tol=1e-8)
    assert abs(res.xi + 0.999999) < 1e-4


def test_renormalize_boundary_concentration_fails():
    # mass pinned on the boundary cannot be balanced: every disk
    # automorphism keeps it on the boundary, and the guard trips
    pts = np.array([1.0 + 0j, 0.0 + 0j])
    w = np.array([1.0, 1e-6])
    m = DiscreteMeasure("disk", pts, w)
    with pytest.raises(NonConvergenceError):
        renormalize(m)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_renormalize_heavy_sphere_atom_fails(dim):
    # an atom with more than half the mass has no balancing point
    x = np.vstack([np.eye(dim), -np.eye(dim)])
    w = np.full(2 * dim, 0.1 / (2 * dim - 1))
    w[0] = 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            renormalize(DiscreteMeasure("sphere", x, w))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_renormalize_split_heavy_atom_fails_quietly(dim):
    # two coincident atoms of 0.45 each pass the single-atom check; the drift
    # drives xi to the boundary, where the moments divide by zero
    x = np.vstack([np.eye(dim), -np.eye(dim), np.eye(dim)[:1]])
    w = np.full(2 * dim + 1, 0.1 / (2 * dim - 1))
    w[0] = w[-1] = 0.45
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            renormalize(DiscreteMeasure("sphere", x, w))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_renormalize_coincident_atoms_over_half_raise_at_once(dim):
    # two atoms of 0.45 at e1 carry 90 % of the mass at one point
    x = np.vstack([np.eye(dim), -np.eye(dim), np.eye(dim)[:1]])
    w = np.full(2 * dim + 1, 0.1 / (2 * dim - 1))
    w[0] = w[-1] = 0.45
    with pytest.raises(NonConvergenceError) as info:
        renormalize(DiscreteMeasure("sphere", x, w))
    assert info.value.iterations == 0


def test_renormalize_heavy_atom_raises_before_iterating(sphere3_uniform):
    # S^3 res 16 plus one atom with 54.5 % of the mass
    atom = np.array([[0.6, 0.0, 0.8, 0.0]])
    m = DiscreteMeasure(
        "sphere",
        np.vstack([sphere3_uniform.points, atom]),
        np.append(sphere3_uniform.weights, 0.545 / 0.455),
    )
    with pytest.raises(NonConvergenceError) as info:
        renormalize(m)
    assert info.value.iterations == 0


def test_renormalize_half_mass_antipodal_atoms_balance():
    # exactly half the mass in one atom is allowed: this pair balances at 0
    x = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    res = renormalize(DiscreteMeasure("sphere", x, np.array([0.5, 0.5])))
    assert np.linalg.norm(res.xi) < 1e-12


@pytest.fixture(scope="module")
def sphere5_res8():
    return sphere_quadrature(5, resolution=8)


@pytest.mark.parametrize("extra, outweighs", [(1, True), (0, False)])
def test_heavy_cluster_among_many_atoms(sphere5_res8, extra, outweighs):
    # 65,536 atoms of weight 1, of which half (plus ``extra``) sit at one
    # point: only a cluster above half the mass fails at once
    x = np.array(sphere5_res8.points)
    w = np.ones(len(x))
    x[: len(x) // 2 + extra] = x[0]
    assert _point_outweighs(x, w, 0.5 * w.sum()) == outweighs
    if outweighs:
        with pytest.raises(NonConvergenceError) as err:
            renormalize(DiscreteMeasure("sphere", x, w))
        assert err.value.iterations == 0


def test_atom_sums_allocate_one_row_block(sphere5_res8, peak_bytes):
    # sums over the 65,536 x 6 atoms (3 MB) walk row blocks of 2^16 floats
    # (0.5 MB), so no temporary is as long as the measure
    g = sphere5_res8
    sq = np.einsum("ij,ij->i", g.points, g.points)
    xi = np.array([0.1, -0.2, 0.05, 0.3, 0.0, 0.1])
    jac_peak = peak_bytes(lambda: _ball_moments(g.points, sq, g.weights, xi, jacobian=True))
    assert jac_peak <= 1.5 * 2**20
    assert peak_bytes(lambda: direction_form(g)) <= 1.0 * 2**20


def test_sphere_rearrangement_and_cap_jacobian_allocate_one_atom_array(
    sphere5_res8, peak_bytes
):
    # the fold writes the one atom array a rearrangement allocates (3 MB
    # here) and the transport overwrites it in place; the cap Jacobian sums
    # over row blocks.  Before, their peaks were 9.5 MB and 34.1 MB.
    g = sphere5_res8.scaled(1.0 / sphere5_res8.total_mass)
    rng = np.random.default_rng(8)
    for r in (-0.6, 0.3):
        p = rng.normal(size=6)
        p /= np.linalg.norm(p)
        cap = Cap(r, p, "sphere")
        assert peak_bytes(lambda: rearrange(g, cap)) <= 6 * 2**20
        nu, trace = rearrange(g, cap)
        basis = np.linalg.eigh(trace.form.matrix)[1][:, -2:]
        f = _compressed_traceless(trace.form.matrix, basis)
        args = (g, cap, nu, trace, basis, f, _tangents(p))
        assert peak_bytes(lambda: _sphere_cap_jacobian(*args)) <= 6 * 2**20


def test_renormalize_start_must_lie_inside(uniform_disk, sphere3_uniform):
    for m, start in (
        (uniform_disk, 1.0 + 0j),
        (uniform_disk, complex(np.nan, 0.0)),
        (sphere3_uniform, np.array([0.0, 1.0, 0.0, 0.0])),
        (sphere3_uniform, np.full(4, np.nan)),
    ):
        with pytest.raises(InvalidInputError):
            renormalize(m, start=start)
    # a disk start is honoured too: the planted point is found from near it
    res = renormalize(pushforward(uniform_disk, 0.3 + 0j), start=-0.29 + 0.01j)
    assert abs(res.xi + 0.3) < 1e-8


@pytest.mark.parametrize("space, start", [
    ("sphere", [0.1, 0.2]),
    ("sphere", np.zeros((2, 4))),
    ("sphere", ["0.1", "0", "0", "0"]),
    ("disk", "0.1"),
    ("disk", [0.1, 0.2]),
    ("disk", False),
])
def test_renormalize_start_must_match_the_space(uniform_disk, sphere3_uniform, space, start):
    # a sphere start is a real vector of the ambient dimension, a disk start
    # a number: a string was parsed and solved from, a wrong shape raised
    # numpy's ValueError or a TypeError
    m = sphere3_uniform if space == "sphere" else uniform_disk
    with pytest.raises(InvalidInputError):
        renormalize(m, start=start)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_renormalize_tolerance_must_be_finite_and_positive(tol):
    # zero, negative and NaN tolerances used to run a solve that could only
    # fail, and an infinite one returned after the drift stage alone
    with pytest.raises(InvalidInputError):
        renormalize(disk_quadrature(4, 8), tol=tol)


def test_renormalize_mass_scale_invariance(uniform_disk):
    # the residual normalization makes recovery independent of total mass
    big = uniform_disk.scaled(1e6)
    planted = pushforward(big, 0.3 + 0.0j)
    res = renormalize(planted)
    assert abs(res.xi + 0.3) < 1e-8


def test_renormalize_sphere_uniform(sphere3_uniform):
    res = renormalize(sphere3_uniform)
    assert np.linalg.norm(res.xi) < 1e-10


def test_renormalize_sphere_planted(sphere3_uniform):
    xi0 = np.array([0.25, -0.1, 0.3, 0.05])
    planted = pushforward(sphere3_uniform, xi0)
    res = renormalize(planted)
    assert np.linalg.norm(res.xi + xi0) < 1e-8


def _same_form(a, b):
    return (
        np.array_equal(a.matrix, b.matrix)
        and a.eig_max == b.eig_max
        and a.eig_second == b.eig_second
        and np.array_equal(a.max_direction, b.max_direction)
    )


@pytest.mark.parametrize("space", ["disk", "sphere"])
def test_renormalize_returns_the_balanced_measure_and_its_form(space):
    # the result carries exactly what pushforward and direction_form give,
    # bit for bit, whether the solve starts at the origin or warm
    from capfold.measures import direction_form

    rng = np.random.default_rng(4242)
    if space == "disk":
        base = disk_quadrature(24, 48)
        m = pushforward(base, 0.35 - 0.2j)
        m = DiscreteMeasure("disk", m.points, m.weights * rng.uniform(0.5, 1.5, len(m.weights)))
        starts = (None, 0.3 + 0.2j)
    else:
        base = sphere_quadrature(3, resolution=8)
        m = pushforward(base, np.array([0.3, -0.2, 0.1, 0.25]))
        m = DiscreteMeasure("sphere", m.points, m.weights * rng.uniform(0.5, 1.5, len(m.weights)))
        starts = (None, np.array([-0.25, 0.2, -0.1, -0.2]))
    for start in starts:
        res = renormalize(m, start=start)
        assert res.iterations > 0
        moved = pushforward(m, res.xi)
        assert np.array_equal(res.measure.points, moved.points)
        assert np.array_equal(res.measure.weights, moved.weights)
        assert _same_form(res.form, direction_form(moved))


@pytest.mark.parametrize(
    "density", [None, lambda z: np.abs(1.0 + 0.6 * z) ** 2], ids=["balanced", "off-center"]
)
def test_renormalize_grid_measure_matches_a_copy_bitwise(density):
    # a grid measure reads its grid's cached columns at xi = 0 and a copy of
    # its atoms evaluates the kernel there; every number agrees to the bit,
    # and a measure balanced at 0 keeps the grid's read-only atoms
    grid = disk_quadrature(24, 48, density)
    copy = DiscreteMeasure("disk", grid.points.copy(), grid.weights)
    a, b = renormalize(grid), renormalize(copy)
    assert (a.xi, a.residual, a.iterations, a.evaluations, a.halvings) == (
        b.xi, b.residual, b.iterations, b.evaluations, b.halvings
    )
    moved = pushforward(grid, a.xi).points.tobytes()
    assert a.measure.points.tobytes() == b.measure.points.tobytes() == moved
    assert _same_form(a.form, b.form)
    assert (a.measure.points is grid.points) == (a.iterations == 0)
    assert (a.iterations == 0) == (density is None)
