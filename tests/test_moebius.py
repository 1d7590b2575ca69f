"""Moebius maps, reflections, and the renormalization solver."""

import numpy as np
import pytest

from capfold.exceptions import NonConvergenceError, ZeroMassError
from capfold.measures import (
    DiscreteMeasure,
    coordinate_values,
    disk_quadrature,
    sphere_quadrature,
)
from capfold.moebius import (
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


def test_renormalize_counts_its_work(uniform_disk, sphere3_uniform):
    # drift steps cost one evaluation each, a Newton step one for the
    # residual plus its Jacobian: one in closed form on the ball, four
    # central-difference moment vectors on the disk
    disk = renormalize(pushforward(uniform_disk, 0.3 + 0j))
    ball = renormalize(pushforward(sphere3_uniform, np.array([0.25, -0.1, 0.3, 0.05])))
    assert (disk.iterations, disk.evaluations, disk.halvings) == (9, 18, 0)
    assert (ball.iterations, ball.evaluations, ball.halvings) == (7, 10, 0)


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


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_renormalize_heavy_sphere_atom_fails(dim):
    # an atom with more than half the mass has no balancing point; the
    # drift drives xi to the boundary, where the moments turn to NaN
    x = np.vstack([np.eye(dim), -np.eye(dim)])
    w = np.full(2 * dim, 0.1 / (2 * dim - 1))
    w[0] = 0.9
    with pytest.raises(NonConvergenceError):
        renormalize(DiscreteMeasure("sphere", x, w))


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
