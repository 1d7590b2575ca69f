"""Property tests (hypothesis) for invariants that hold for every input."""

import numpy as np
import pytest
from scipy.linalg import null_space

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capfold.caps import Cap, cap_contains, image_cap  # noqa: E402
from capfold.measures import moment_vector_raw  # noqa: E402
from capfold.moebius import _ball_moments, ball_moebius  # noqa: E402

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
