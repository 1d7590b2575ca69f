"""Property tests (hypothesis) for invariants that hold for every input."""

import numpy as np
import pytest
from scipy.linalg import null_space

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capfold.caps import Cap, cap_contains, image_cap  # noqa: E402
from capfold.moebius import ball_moebius  # noqa: E402

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
