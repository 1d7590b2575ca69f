"""Property tests (hypothesis) for invariants that hold for every input."""

import numpy as np
import pytest
from scipy.linalg import null_space

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capfold.bounds import sphere_modified_quotient  # noqa: E402
from capfold.caps import (  # noqa: E402
    Cap,
    RearrangeTrace,
    _fold_points,
    _inversion,
    cap_contains,
    cap_reflection,
    cap_reflection_factor,
    cap_to_disk,
    fold_measure,
    image_cap,
    rearrange,
    rearrange_map,
)
from capfold.exceptions import InvalidInputError  # noqa: E402
from capfold.measures import (  # noqa: E402
    _BLOCK_FLOATS,
    DiscreteMeasure,
    direction_form,
    moment_vector_raw,
    sphere_quadrature,
)
from capfold.moebius import (  # noqa: E402
    _ball_moments,
    _ball_transport,
    _disk_matrix,
    _dot,
    _inversion_terms,
    _lft,
    _scaled_sum,
    _sq_norm,
    ball_moebius,
    disk_moebius,
    disk_moebius_derivative,
    pushforward,
    reflection,
    reflection_disk,
    renormalize,
)

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


@PROPERTY_SETTINGS
@given(
    dim=st.sampled_from([2, 4, 6]),
    r=st.floats(-0.9, 0.9),
    xi_kind=st.sampled_from(["general", "zero", "parallel"]),
    xi_len=st.floats(-0.8, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_image_cap_is_the_moebius_image(dim, r, xi_kind, xi_len, seed):
    rng = np.random.default_rng(seed)
    p = _unit(rng, dim)
    cap = Cap(r, p, "sphere")
    if xi_kind == "general":
        xi = xi_len * _unit(rng, dim)
    elif xi_kind == "zero":
        xi = np.zeros(dim)
    else:
        xi = xi_len * p
    img = image_cap(cap, xi)

    # boundary samples t p + sqrt(1 - t^2) u, u a unit vector orthogonal to p
    # taken in an orthonormal basis of p's complement, so it is exact to eps
    t = cap.height
    coeffs = rng.normal(size=(32, dim - 1))
    coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
    u = coeffs @ null_space(p[None, :]).T
    boundary = t * p + np.sqrt(1.0 - t * t) * u
    heights = ball_moebius(xi, boundary) @ img.p
    assert np.max(np.abs(heights - img.height)) < 1e-12

    assert cap_contains(img, ball_moebius(xi, p))


def _ball_atoms(rng, dim, count):
    """Weighted atoms in the closed ball: half on the sphere, half inside."""
    x = rng.normal(size=(count, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    x[::2] *= rng.uniform(0.0, 1.0, size=(len(x[::2]), 1))
    return x, rng.uniform(0.1, 2.0, size=count)


ball_case = given(
    dim=st.sampled_from([2, 4, 6]),
    xi_len=st.floats(0.0, 0.9),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)


@PROPERTY_SETTINGS
@ball_case
def test_ball_moments_closed_form_is_the_pushforward_moment(dim, xi_len, count, seed):
    rng = np.random.default_rng(seed)
    xi = xi_len * _unit(rng, dim)
    x, w = _ball_atoms(rng, dim, count)
    sq = np.sum(x * x, axis=1)
    mom = _ball_moments(x, sq, w, xi)
    ref = moment_vector_raw("sphere", ball_moebius(xi, x), w)
    assert np.max(np.abs(mom - ref)) <= 1e-12 * w.sum()
    assert np.array_equal(_ball_moments(x, sq, w, xi, jacobian=True)[0], mom)


@PROPERTY_SETTINGS
@ball_case
def test_ball_moment_jacobian_matches_central_differences(dim, xi_len, count, seed):
    rng = np.random.default_rng(seed)
    xi = xi_len * _unit(rng, dim)
    x, w = _ball_atoms(rng, dim, count)
    sq = np.sum(x * x, axis=1)
    _, jac = _ball_moments(x, sq, w, xi, jacobian=True)
    fd, step = np.empty((dim, dim)), 1e-6
    for j, e in enumerate(step * np.eye(dim)):
        fd[:, j] = (_ball_moments(x, sq, w, xi + e) - _ball_moments(x, sq, w, xi - e)) / (2 * step)
    assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(jac)


# sums over atoms walk row blocks of _BLOCK_FLOATS // dim rows: atom counts
# one short of a block, one block, one past it, and three blocks and a part
def _block_counts(dim):
    rows = _BLOCK_FLOATS // dim
    return [rows - 1, rows, rows + 1, 3 * rows + rows // 3]


block_cases = pytest.mark.parametrize(
    "dim, count", [(dim, count) for dim in (4, 6) for count in _block_counts(dim)]
)


def _one_block_moments(points, sq, weights, xi):
    # the closed-form moments and Jacobian summed over all atoms at once
    t = points @ xi
    s = float(xi @ xi)
    a = 1.0 + 2.0 * t + sq
    d = 1.0 + 2.0 * t + s * sq
    u = weights / d
    v = points.T @ u
    ua = float(u @ a)
    r = u / d
    ra = r * a
    um_x = (1.0 - s) * (points.T * r) @ points + np.outer(xi, points.T @ ra)
    um_q = (1.0 - s) * (points.T @ (r * sq)) + float(ra @ sq) * xi
    jac = (
        ua * np.eye(len(xi))
        + 2.0 * (np.outer(xi, v) - np.outer(v, xi))
        - 2.0 * (um_x + np.outer(um_q, xi))
    )
    return (1.0 - s) * v + ua * xi, jac


@block_cases
def test_ball_moments_across_row_blocks(dim, count):
    rng = np.random.default_rng(count)
    xi = 0.7 * _unit(rng, dim)
    x, w = _ball_atoms(rng, dim, count)
    x = np.asfortranarray(x)
    sq = np.sum(x * x, axis=1)
    mom = _ball_moments(x, sq, w, xi)
    mom_j, jac = _ball_moments(x, sq, w, xi, jacobian=True)
    assert np.array_equal(mom_j, mom)
    ref = moment_vector_raw("sphere", ball_moebius(xi, x), w)
    assert np.max(np.abs(mom - ref)) <= 1e-12 * w.sum()

    fd, step = np.empty((dim, dim)), 1e-6
    for j, e in enumerate(step * np.eye(dim)):
        fd[:, j] = (_ball_moments(x, sq, w, xi + e) - _ball_moments(x, sq, w, xi - e)) / (2 * step)
    assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(jac)

    one_mom, one_jac = _one_block_moments(x, sq, w, xi)
    if count <= _BLOCK_FLOATS // dim:
        assert np.array_equal(mom, one_mom) and np.array_equal(jac, one_jac)
    else:
        assert _relative(one_mom, mom) <= 1e-13 and _relative(one_jac, jac) <= 1e-13


@block_cases
def test_direction_form_across_row_blocks(dim, count):
    rng = np.random.default_rng(count)
    x = rng.normal(size=(count, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    w = rng.uniform(0.1, 2.0, size=count)
    m = DiscreteMeasure("sphere", x, w)
    mat = direction_form(m).matrix
    ref = np.einsum("i,ij,ik->jk", w, x, x)
    assert _relative(ref, mat) <= 1e-14
    if count <= _BLOCK_FLOATS // dim:
        one = m.points.T @ (m.points * w[:, None])
        assert np.array_equal(mat, 0.5 * (one + one.T))

    # the sphere-point check sees an atom off the sphere in every block
    for k in range(0, count, _BLOCK_FLOATS // dim):
        moved = x.copy()
        moved[-1 - k] *= 1.0 + 2e-9
        with pytest.raises(InvalidInputError):
            DiscreteMeasure("sphere", moved, w)


def _one_pass_fold(cap, x):
    # the fold over all the atoms at once, as before its row blocks
    sq, dot = _sq_norm(x), _dot(x, cap.p)
    out = cap.height * (1.0 + sq) > 2.0 * dot
    if 3 * np.count_nonzero(out) < len(x):
        folded = x.copy(order="K")
        folded.T[..., out] = cap_reflection(cap, np.compress(out, x.T, axis=-1).T).T
        return folded
    a, c, d = _inversion(cap, x, sq, dot)
    return _scaled_sum(np.where(out, a / d, 1.0), x, np.where(out, c / d, 0.0), cap.p)


def _one_pass_transport(xi, x):
    # ball_moebius over all the atoms at once, as before its row blocks
    h = float(np.linalg.norm(xi))
    p = xi / h
    a = (1.0 - h) * (1.0 + h)
    c, d = _inversion_terms(x, h, -p, a, 1.0 - h)
    return _scaled_sum(a / d, x, (c - 2.0 * a * _dot(x, p)) / d, p)


@block_cases
def test_fold_and_transport_across_row_blocks(dim, count):
    # caps with |h| below and above 1/2 (direct and w-form inversion terms),
    # each with most atoms inside (only the outside ones are reflected) and
    # most outside (one pass), and Moebius parameters below and above 1/2
    rng = np.random.default_rng(count)
    x = rng.normal(size=(count, dim))
    x = np.asfortranarray(x / np.linalg.norm(x, axis=1)[:, None])
    kept = x.copy(order="K")

    def same(got, ref, h):
        assert got.flags.f_contiguous
        if count <= _BLOCK_FLOATS // dim:
            assert np.array_equal(got, ref)
        else:
            # a row's (x, p) can round differently in a short block (one ulp
            # in a one-row last block), which the inversion stretches by up
            # to (1 + |h|)/(1 - |h|)
            assert np.max(np.abs(got - ref)) <= 1e-15 * (1.0 + abs(h)) / (1.0 - abs(h))

    for r in (-0.6, -0.2, 0.2, 0.6):
        cap = Cap(r, _unit(rng, dim), "sphere")
        same(_fold_points(cap, x), _one_pass_fold(cap, x), cap.height)
    for size in (0.3, 0.8):
        xi = size * _unit(rng, dim)
        moved = ball_moebius(xi, x)
        same(moved, _one_pass_transport(xi, x), size)
        # in place, each block is read before it is written
        atoms = x.copy(order="K")
        assert _ball_transport(xi, atoms, atoms) is atoms
        assert np.array_equal(atoms, moved)
    assert np.array_equal(x, kept)


reflection_case = given(
    dim=st.sampled_from([2, 4, 6]),
    r=st.floats(-0.95, 0.95),
    seed=st.integers(0, 2**32 - 1),
)


def _reflection_points(rng, p, count=32):
    """Sphere points: half uniform, half within 0.05 of p or -p, where the
    inversion centre p/h of a cap with |r| near 0.95 lies."""
    x = rng.normal(size=(count, len(p)))
    x[count // 2:] = 0.05 * x[count // 2:] + np.where(
        rng.uniform(size=(count - count // 2, 1)) < 0.5, p, -p
    )
    return x / np.linalg.norm(x, axis=1)[:, None]


def _stretch(cap, x):
    # conformal factor (1 - h^2)/|h x - p|^2 of the inversion at x: 1 on the
    # boundary, up to (1 + |h|)/(1 - |h|), about 1500 at |r| = 0.95, next to
    # the centre; a rounding of x or p moves the image by this much more
    h = cap.height
    return (1.0 - h * h) / np.sum((h * x - cap.p) ** 2, axis=1)


@PROPERTY_SETTINGS
@reflection_case
def test_sphere_cap_reflection_is_the_moebius_conjugate(dim, r, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, _unit(rng, dim), "sphere")
    x = _reflection_points(rng, cap.p)
    rp = cap.r * cap.p
    conjugate = ball_moebius(rp, reflection(cap.p, ball_moebius(-rp, x)))
    err = np.max(np.abs(cap_reflection(cap, x) - conjugate), axis=1)
    assert np.all(err <= 1e-13 * np.maximum(1.0, _stretch(cap, x)))


@PROPERTY_SETTINGS
@reflection_case
def test_sphere_cap_reflection_keeps_points_on_the_sphere(dim, r, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, _unit(rng, dim), "sphere")
    x = _reflection_points(rng, cap.p)
    off = np.abs(np.linalg.norm(cap_reflection(cap, x), axis=1) - 1.0)
    assert np.all(off <= 1e-14 * np.maximum(1.0, _stretch(cap, x)))


@PROPERTY_SETTINGS
@reflection_case
def test_sphere_cap_reflection_fixes_the_boundary(dim, r, seed):
    rng = np.random.default_rng(seed)
    p = _unit(rng, dim)
    cap = Cap(r, p, "sphere")
    t = cap.height
    coeffs = rng.normal(size=(32, dim - 1))
    coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
    boundary = t * p + np.sqrt(1.0 - t * t) * (coeffs @ null_space(p[None, :]).T)
    assert np.max(np.abs(cap_reflection(cap, boundary) - boundary)) <= 1e-14


@PROPERTY_SETTINGS
@reflection_case
def test_sphere_cap_reflection_is_an_involution_outside_the_cap(dim, r, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, _unit(rng, dim), "sphere")
    x = _reflection_points(rng, cap.p)
    x = x[~cap_contains(cap, x)]
    y = cap_reflection(cap, x)
    assert np.all(cap_contains(cap, y))
    # the second reflection stretches by the inverse of the first
    stretch = _stretch(cap, x)
    err = np.max(np.abs(cap_reflection(cap, y) - x), axis=1)
    assert np.all(err <= 1e-14 * np.maximum(stretch, 1.0 / stretch))


_SEEDED_SPHERES = {
    dim: sphere_quadrature(dim - 1, resolution={2: 64, 4: 8, 6: 5}[dim])
    for dim in (2, 4, 6)
}


@PROPERTY_SETTINGS
@given(
    dim=st.sampled_from([2, 4, 6]),
    start_len=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_renormalize_start_does_not_move_the_balancing_point(dim, start_len, seed):
    rng = np.random.default_rng(seed)
    g = _SEEDED_SPHERES[dim]
    a = _unit(rng, dim) * rng.uniform(0.0, 0.4)
    b = rng.uniform(0.0, 0.2)
    dens = 1.0 + g.points @ a + b * g.points[:, 0] ** 2
    m = DiscreteMeasure("sphere", g.points, g.weights * dens)
    cold = renormalize(m)
    warm = renormalize(m, start=start_len * _unit(rng, dim))
    assert np.max(np.abs(warm.xi - cold.xi)) <= 1e-9


disk_cap_case = given(
    r=st.floats(-0.95, 0.95),
    angle=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)


def _disk_points(rng, p, count=32):
    """Disk points: half uniform, half within about 0.05 of p or -p, next to
    the centre p/h of the inversion when |r| is near 0.95."""
    z = np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    half = count // 2
    near = p * (1.0 - 0.05 * rng.uniform(size=half)) * np.exp(0.05j * rng.normal(size=half))
    z[half:] = np.where(rng.uniform(size=half) < 0.5, near, -near)
    return z


@PROPERTY_SETTINGS
@disk_cap_case
def test_disk_cap_reflection_is_the_moebius_conjugate(r, angle, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, np.exp(1j * angle))
    z = _disk_points(rng, cap.p)
    rp = cap.r * cap.p
    conjugate = disk_moebius(rp, reflection_disk(cap.p, disk_moebius(-rp, z)))
    assert np.max(np.abs(cap_reflection(cap, z) - conjugate)) <= 1e-12


@PROPERTY_SETTINGS
@disk_cap_case
def test_disk_cap_reflection_is_an_involution_fixing_the_geodesic(r, angle, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, np.exp(1j * angle))
    z = _disk_points(rng, cap.p)
    assert np.max(np.abs(cap_reflection(cap, cap_reflection(cap, z)) - z)) <= 1e-12
    # the geodesic is the Moebius image of the diameter through +-i p
    geodesic = disk_moebius(cap.r * cap.p, 1j * cap.p * np.linspace(-0.999, 0.999, 33))
    assert np.max(np.abs(cap_reflection(cap, geodesic) - geodesic)) <= 1e-14


@PROPERTY_SETTINGS
@disk_cap_case
def test_disk_cap_membership_is_the_pulled_back_half_plane(r, angle, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, np.exp(1j * angle))
    z = _disk_points(rng, cap.p, count=64)
    side = np.real(np.conj(cap.p) * disk_moebius(-cap.r * cap.p, z))
    clear = np.abs(side) > 1e-12
    assert np.array_equal(cap_contains(cap, z)[clear], side[clear] >= 0.0)


@PROPERTY_SETTINGS
@disk_cap_case
def test_disk_cap_reflection_factor_is_the_moebius_chain_rule(r, angle, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, np.exp(1j * angle))
    z = _disk_points(rng, cap.p)
    rp = cap.r * cap.p
    pulled = disk_moebius(-rp, z)
    chain = np.abs(disk_moebius_derivative(-rp, z)) * np.abs(
        disk_moebius_derivative(rp, reflection_disk(cap.p, pulled))
    )
    assert np.max(np.abs(cap_reflection_factor(cap, z) / chain - 1.0)) <= 1e-12


def _cap_points(rng, cap, count=32):
    """Points of the cap: the Moebius image of the half disk about p, kept
    at least 0.02 from the unit circle before the map."""
    z = np.sqrt(rng.uniform(size=count)) * 0.98 * np.exp(
        1j * np.pi * (rng.uniform(size=count) - 0.5)
    )
    return disk_moebius(cap.r * cap.p, cap.p * z)


@PROPERTY_SETTINGS
@disk_cap_case
def test_cap_to_disk_inverse_undoes_the_map(r, angle, seed):
    rng = np.random.default_rng(seed)
    cmap = cap_to_disk(Cap(r, np.exp(1j * angle)))
    w = 0.98 * np.sqrt(rng.uniform(size=32)) * np.exp(2j * np.pi * rng.uniform(size=32))
    z, dz = cmap.inverse_with_derivative(w)
    back, dw = cmap.with_derivative(z, check=False)
    # near the cap edge the map stretches rounding in z by up to about 3e3
    assert np.max(np.abs(back - w)) <= 1e-11
    assert np.max(np.abs(dz * dw - 1.0)) <= 1e-10
    z = _cap_points(rng, cmap.cap)
    w, dw = cmap.with_derivative(z)
    back, dz = cmap.inverse_with_derivative(w)
    assert np.max(np.abs(back - z)) <= 1e-12
    assert np.max(np.abs(dz * dw - 1.0)) <= 1e-10


@PROPERTY_SETTINGS
@given(
    r=st.floats(-0.95, 0.95),
    angle=st.floats(0.0, 2.0 * np.pi),
    xi_len=st.floats(0.0, 0.9),
    eta_len=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_rearrange_map_is_the_composed_stages(r, angle, xi_len, eta_len, seed):
    rng = np.random.default_rng(seed)
    cap = Cap(r, np.exp(1j * angle))
    xi = xi_len * np.exp(2j * np.pi * rng.uniform())
    eta = eta_len * np.exp(2j * np.pi * rng.uniform())
    b = image_cap(cap, xi)
    trace = RearrangeTrace(xi_a=xi, b=b, eta_a=eta, zeta_predicted=None, q_norm=1.0)
    y = _cap_points(rng, cap)
    val, dist = rearrange_map(cap, trace)(y)
    g1 = disk_moebius(xi, y)
    g2, f2 = cap_to_disk(b).with_derivative(g1, check=False)
    f1 = np.abs(disk_moebius_derivative(xi, y))
    f3 = np.abs(disk_moebius_derivative(eta, g2))
    assert np.max(np.abs(val - disk_moebius(eta, g2))) <= 1e-12
    assert np.max(np.abs(dist / (f1 * f2 * f3) - 1.0)) <= 1e-10


@PROPERTY_SETTINGS
@given(
    dim=st.sampled_from([2, 4, 6]),
    xi_len=st.floats(0.0, 0.95),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_ball_moebius_inverse_is_the_negated_parameter(dim, xi_len, count, seed):
    rng = np.random.default_rng(seed)
    xi = xi_len * _unit(rng, dim)
    x, _ = _ball_atoms(rng, dim, count)
    assert np.max(np.abs(ball_moebius(-xi, ball_moebius(xi, x)) - x)) <= 1e-12


disk_moebius_case = given(
    xi_len=st.floats(0.0, 0.95),
    xi_angle=st.floats(0.0, 2.0 * np.pi),
    eta_len=st.floats(0.0, 0.95),
    eta_angle=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)


def _closed_disk_points(rng, count=32):
    """Uniform disk points and points of the unit circle."""
    z = np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    return np.concatenate([z, np.exp(2j * np.pi * rng.uniform(size=count))])


@PROPERTY_SETTINGS
@disk_moebius_case
def test_disk_moebius_inverse_is_the_negated_parameter(
    xi_len, xi_angle, eta_len, eta_angle, seed
):
    z = _closed_disk_points(np.random.default_rng(seed))
    for xi in (xi_len * np.exp(1j * xi_angle), eta_len * np.exp(1j * eta_angle)):
        assert np.max(np.abs(disk_moebius(-xi, disk_moebius(xi, z)) - z)) <= 1e-12


@PROPERTY_SETTINGS
@disk_moebius_case
def test_disk_moebius_composition_is_the_matrix_product(
    xi_len, xi_angle, eta_len, eta_angle, seed
):
    z = _closed_disk_points(np.random.default_rng(seed))
    xi, eta = xi_len * np.exp(1j * xi_angle), eta_len * np.exp(1j * eta_angle)
    composed, _ = _lft(_disk_matrix(eta) @ _disk_matrix(xi), z)
    assert np.max(np.abs(disk_moebius(eta, disk_moebius(xi, z)) - composed)) <= 1e-12


@pytest.mark.parametrize("n, res", [(3, 16), (5, 8)])
def test_rearrange_near_the_cap_guard_keeps_atoms_on_the_sphere(n, res):
    # at r = 0.95 the balancing point of the folded measure has |xi_a| near
    # 0.9987; the transport by it used to leave atoms 6e-10 off the sphere
    # and, from r = 0.96, past the 1e-9 check of DiscreteMeasure
    g = sphere_quadrature(n, res)
    g = g.scaled(1.0 / g.total_mass)
    rng = np.random.default_rng(7)
    for _ in range(3):
        nu, trace = rearrange(g, Cap(0.95, _unit(rng, n + 1), "sphere"))
        assert np.linalg.norm(trace.xi_a) > 0.998
        assert np.max(np.abs(np.linalg.norm(nu.points, axis=1) - 1.0)) <= 1e-11


# sphere atoms are stored column-major; no result may depend on the layout
# the caller's atoms come in, and no kernel may hand back row-major atoms
_LAYOUT_SPHERES = {n: sphere_quadrature(n, resolution={3: 6, 5: 4}[n]) for n in (3, 5)}


def _relative(u, v):
    return np.max(np.abs(np.asarray(u) - np.asarray(v))) / np.max(np.abs(u))


@PROPERTY_SETTINGS
@given(
    n=st.sampled_from([3, 5]),
    r=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_results_do_not_depend_on_the_atom_layout(n, r, seed):
    rng = np.random.default_rng(seed)
    g = _LAYOUT_SPHERES[n]
    assert g.points.flags.f_contiguous
    a = _unit(rng, n + 1) * rng.uniform(0.0, 0.3)
    rows = np.ascontiguousarray(g.points)
    w = g.weights * (1.0 + rows @ a + rng.uniform(0.0, 0.1) * rows[:, 0] ** 2)
    w = w / w.sum()
    cap = Cap(r, _unit(rng, n + 1), "sphere")
    s = _unit(rng, n + 1)
    xi = rng.uniform(0.0, 0.9) * _unit(rng, n + 1)

    results = []
    for points in (rows, np.asfortranarray(rows)):
        m = DiscreteMeasure("sphere", points, w)
        balanced = renormalize(m)
        nu, trace = rearrange(balanced.measure, cap)
        quotient = sphere_modified_quotient(m, cap, s)
        for out in (m, fold_measure(m, cap), pushforward(m, xi), balanced.measure, nu):
            assert out.points.flags.f_contiguous
        # the kernels on raw arrays keep the caller's column-major layout
        if points.flags.f_contiguous:
            for out in (ball_moebius(xi, points), cap_reflection(cap, points),
                        _fold_points(cap, points)):
                assert out.flags.f_contiguous
        results.append((
            balanced.xi, trace.form.matrix, quotient["quotient"],
            ball_moebius(xi, points), _fold_points(cap, points),
        ))
    for row_major, column_major in zip(*results):
        assert _relative(row_major, column_major) <= 1e-12

    # the sphere-point check keeps its 1e-9 bound in either layout
    k = rng.integers(len(rows))
    for off, raises in ((2e-9, True), (-2e-9, True), (5e-10, False)):
        moved = rows.copy()
        moved[k] *= 1.0 + off
        for points in (moved, np.asfortranarray(moved)):
            if raises:
                with pytest.raises(InvalidInputError):
                    DiscreteMeasure("sphere", points, w)
            else:
                DiscreteMeasure("sphere", points, w)


@pytest.mark.parametrize("n, res", [(3, 16), (5, 8)])
def test_sphere_kernels_never_write_the_callers_atoms(n, res):
    # rearrange transports its own folded atoms in place; no public function
    # writes the atoms or weights it is given, nor do the balanced measure
    # and form of a renormalize result when they are read.  Caps have |h|
    # below and above 1/2, balancing points norms below and above 1/2.
    rng = np.random.default_rng(n)
    g = sphere_quadrature(n, resolution=res)
    norms = []
    for size in (0.1, 0.7):
        m = pushforward(g, size * _unit(rng, n + 1))
        balanced = renormalize(m)
        inputs = [(m, m.points.copy(order="K"), m.weights.copy())]
        bm = balanced.measure
        direction_form(bm), balanced.form
        inputs.append((bm, bm.points.copy(order="K"), bm.weights.copy()))
        norms.append(np.linalg.norm(balanced.xi))
        for r in (-0.6, 0.2, 0.6):
            cap = Cap(r, _unit(rng, n + 1), "sphere")
            for source in (m, bm):
                nu, trace = rearrange(source, cap)
                assert not np.shares_memory(nu.points, source.points)
                norms.append(np.linalg.norm(trace.xi_a))
                fold_measure(source, cap), cap_reflection(cap, source.points)
            pushforward(bm, trace.xi_a), ball_moebius(trace.xi_a, bm.points)
        for source, points, weights in inputs:
            assert np.array_equal(source.points, points)
            assert np.array_equal(source.weights, weights)
    assert min(norms) < 0.5 <= max(norms)
