"""Direction classification, canonical position, the multiple-cap scan,
winding counts, and the sphere degree diagnostics."""

import numpy as np
import pytest

from capfold import directions
from capfold.caps import Cap, RearrangeTrace, fold_measure, rearrange
from capfold.directions import (
    SCAN_GAP_TOL,
    _compressed_traceless,
    _field,
    _loop_rotation,
    _sphere_cap_jacobian,
    _tangents,
    _turning_cell,
    canonicalize,
    scan_caps,
    sphere_cap_search,
    sphere_degree_check,
    winding_diagnostic,
)
from capfold.exceptions import CapScanError, EvenDimensionError, InvalidInputError
from capfold.measures import (
    ConformalDomain,
    DirectionForm,
    direction_form,
    disk_quadrature,
    moment_vector,
    pullback_measure,
    sphere_quadrature,
)
from capfold.moebius import pushforward, renormalize


def test_form_uniform_multiple(uniform_disk):
    assert direction_form(uniform_disk).gap < SCAN_GAP_TOL


def test_form_uniform_multiple_any_resolution():
    for res in ((24, 48), (48, 96)):
        assert direction_form(disk_quadrature(*res)).gap < SCAN_GAP_TOL


def test_form_uniform_sphere_multiple():
    g = sphere_quadrature(3, resolution=8)
    assert direction_form(g).gap < SCAN_GAP_TOL


def test_form_balanced_bent_simple(bent_canonical):
    canon, _ = bent_canonical
    form = direction_form(canon)
    assert form.gap >= SCAN_GAP_TOL
    # canonical position: the maximizing direction is the first axis
    assert abs(abs(form.max_direction[0]) - 1.0) < 1e-9


def test_canonicalize_conventions(bent_canonical):
    canon, _ = bent_canonical
    assert np.max(np.abs(moment_vector(canon))) < 1e-8
    form = direction_form(canon)
    assert form.matrix[0, 0] >= form.matrix[1, 1]
    assert abs(form.matrix[0, 1]) < 1e-10


def test_canonicalize_uniform_fixed(uniform_disk):
    canon, cmap = canonicalize(uniform_disk)
    assert abs(complex(cmap.xi)) < 1e-9
    assert np.max(np.abs(canon.points - uniform_disk.points * cmap.rotation)) < 1e-10


def test_canonicalize_recovers_rotation(bent_canonical, rng):
    canon, _ = bent_canonical
    spun = canon.with_points(np.exp(0.8j) * canon.points)
    back, cmap = canonicalize(spun)
    form = direction_form(back)
    assert abs(abs(form.max_direction[0]) - 1.0) < 1e-6
    # quadratic forms agree after the recovered rotation
    assert np.allclose(form.matrix, direction_form(canon).matrix, atol=1e-9)


def test_canonicalize_roundtrip_through_moebius(bent_canonical):
    canon, _ = bent_canonical
    moved = pushforward(canon, 0.2j)
    back, cmap = canonicalize(moved)
    assert np.max(np.abs(moment_vector(back))) < 1e-8
    form = direction_form(back)
    assert form.matrix[0, 0] >= form.matrix[1, 1] - 1e-12


def test_direction_field_limits_full_disk(bent_canonical):
    # caps close to the full disk: maximizing direction near e1
    canon, _ = bent_canonical
    for th in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        nu, _ = rearrange(canon, Cap(-0.95, np.exp(1j * th)))
        s = direction_form(nu).max_direction
        ang = np.arctan2(s[1], s[0])
        dist = abs((ang + np.pi / 2) % np.pi - np.pi / 2)
        assert np.degrees(dist) < 5.0


def test_direction_field_limits_point(bent_canonical):
    # caps shrinking to a boundary point p = e^{i theta}: direction near
    # the doubled angle
    canon, _ = bent_canonical
    for th in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        nu, _ = rearrange(canon, Cap(0.95, np.exp(1j * th)))
        s = direction_form(nu).max_direction
        ang = np.arctan2(s[1], s[0])
        dist = abs((ang - 2 * th + np.pi / 2) % np.pi - np.pi / 2)
        assert np.degrees(dist) < 10.0


def test_winding_diagnostic_levels(bent_canonical):
    canon, _ = bent_canonical
    assert winding_diagnostic(canon, -0.95, n_theta=16) == 0
    assert winding_diagnostic(canon, 0.95, n_theta=16) == 4


@pytest.mark.parametrize("n_theta", [-1, 0, 1, 2])
def test_winding_diagnostic_needs_three_points(n_theta):
    # fewer than three caps make no loop that can turn: one or two used to
    # read 0 half turns, and zero raised IndexError
    with pytest.raises(InvalidInputError):
        winding_diagnostic(disk_quadrature(4, 8), 0.5, n_theta=n_theta)


def test_winding_stable_under_angle_doubling(bent_canonical):
    canon, _ = bent_canonical
    assert winding_diagnostic(canon, 0.95, n_theta=32) == 4


def test_scan_finds_multiple_cap(bent_scan):
    assert bent_scan.gap < 1e-3
    assert bent_scan.cap is not None
    # a numpy float64 r would print as np.float64(...) in the scan CSV
    assert type(bent_scan.cap.r) is float


def test_scan_carries_the_form_of_a_cold_rearrange(bent_canonical, bent_scan):
    canon, _ = bent_canonical
    form = rearrange(canon, bent_scan.cap)[1].form
    assert np.array_equal(bent_scan.form.matrix, form.matrix)
    assert bent_scan.gap == bent_scan.form.gap == form.gap


@pytest.fixture(scope="module")
def bent_coarse(bent_domain):
    return canonicalize(pullback_measure(bent_domain, 24, 48))[0]


@pytest.mark.parametrize("i, j", [(0, 0), (2, 3), (5, 7), (7, 11)])
def test_scan_grid_complement_caps_share_a_gap(bent_coarse, i, j):
    # (r, theta) and (-r, theta + pi) are complement caps, both on the scan
    # grid: their folded measures differ by the cap reflection, so the
    # rearranged measures share a gap and the grid holds each gap twice
    r_grid, theta_grid = directions.SCAN_R_GRID, directions.SCAN_THETA_GRID
    half = len(theta_grid) // 2
    gaps = [
        _field(bent_coarse, r_grid[[a]], theta_grid[[b]])[0][0, 0]
        for a, b in ((i, j), (-1 - i, (j + half) % len(theta_grid)))
    ]
    assert gaps[1] == pytest.approx(gaps[0], abs=1e-9)


def test_scan_reports_best_gap_when_every_start_stalls(bent_domain, monkeypatch):
    # with a zero tolerance both Gauss-Newton starts run and fail, and the
    # error carries the smallest gap reached, that of a cold rearrange
    canon, _ = canonicalize(pullback_measure(bent_domain, 16, 32))
    monkeypatch.setattr(directions, "SCAN_GAP_TOL", 0.0)
    with pytest.raises(CapScanError) as info:
        scan_caps(canon)
    best = info.value
    assert best.best_gap < 1e-8
    assert best.best_gap == rearrange(canon, best.best_cap)[1].form.gap


def test_first_multiple_cap_never_picks_a_nan_gap(monkeypatch):
    def trace(r, eig_max):
        form = DirectionForm(np.eye(2), eig_max, 1.0, np.array([1.0, 0.0]))
        return RearrangeTrace(Cap(r, 1.0), 0j, Cap(r, 1.0), 0j, form)

    traces = [trace(0.1, np.nan), trace(0.2, 3.0)]
    monkeypatch.setattr(directions, "_gauss_newton", lambda m, start: traces[start])
    assert directions._first_multiple_cap(None, [0, 1], 1.0) is traces[1]
    with pytest.raises(CapScanError) as info:
        directions._first_multiple_cap(None, [0], 1.0)
    assert info.value.best_cap is None and info.value.best_gap == np.inf


HALF_TURNS = [-2, -1, 0, 1, 3]


def _axis_field(half_turns):
    # an axis turning by half_turns * pi around the loop, with the sign of
    # every third direction flipped, which leaves the axis alone
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    angle = 0.5 * half_turns * theta + 0.3
    signs = np.where(np.arange(24) % 3 == 0, -1.0, 1.0)
    return signs[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)


@pytest.mark.parametrize("half_turns", HALF_TURNS)
def test_loop_rotation_of_an_axis_field(half_turns):
    rotation = _loop_rotation(_axis_field(half_turns))
    assert rotation == pytest.approx(half_turns * np.pi, abs=1e-12)


def test_loop_rotation_batched_equals_each_loop():
    # loops run along the second-to-last axis; a stack of them gives each
    # loop's turn exactly, as the grid windings and cells rely on
    fields = np.stack([_axis_field(k) for k in HALF_TURNS])
    batched = _loop_rotation(fields)
    assert batched.shape == (5,)
    assert batched.tolist() == [float(_loop_rotation(f)) for f in fields]
    grid = np.stack([fields, fields[::-1]])
    assert np.array_equal(_loop_rotation(grid), np.stack([batched, batched[::-1]]))


def _vortex_field(centers, rs, ts):
    # axes at half the angle around each center: a half turn around each
    x, y = np.meshgrid(rs, ts, indexing="ij")
    angle = sum(0.5 * np.arctan2(y - cy, x - cx) for cx, cy in centers)
    gaps = np.min([np.hypot(x - cx, y - cy) for cx, cy in centers], axis=0)
    return gaps, np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def test_turning_cell_holds_the_vortex():
    rs, ts = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 6)
    gaps, axes = _vortex_field([(0.3, 0.7)], rs, ts)
    assert _turning_cell(gaps, axes, rs, ts) == (rs[2], rs[3], ts[1], ts[2])


def test_turning_cell_prefers_the_smallest_corner_gap():
    # two vortices; the one nearer a grid corner has the smaller corner gap
    rs, ts = np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9)
    gaps, axes = _vortex_field([(-0.6, -0.6), (0.51, 0.51)], rs, ts)
    assert _turning_cell(gaps, axes, rs, ts) == (rs[6], rs[7], ts[6], ts[7])
    gaps, axes = _vortex_field([(-0.51, -0.51), (0.6, 0.6)], rs, ts)
    assert _turning_cell(gaps, axes, rs, ts) == (rs[1], rs[2], ts[1], ts[2])


def test_turning_cell_none_on_a_constant_field():
    rs, ts = np.linspace(-1.0, 1.0, 4), np.linspace(0.0, 1.0, 4)
    axes = np.broadcast_to([np.cos(0.4), np.sin(0.4)], (4, 4, 2))
    assert _turning_cell(np.ones((4, 4)), axes, rs, ts) is None


@pytest.mark.parametrize("coeffs, count", [([1.0, 0.3], 173), ([1.0, 0.2, 0.05], 170)])
def test_scan_rearrangement_count(monkeypatch, coeffs, count):
    # grid, descent and Gauss-Newton together; the wavy grid has no turning
    # cell, so its descent starts from the cell around the best grid cap
    canon, _ = canonicalize(pullback_measure(ConformalDomain(coeffs), 16, 32))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rearrange(*args, **kwargs)

    monkeypatch.setattr(directions, "rearrange", counted)
    assert scan_caps(canon).gap < 1e-3
    assert len(calls) == count


def test_scan_direction_field_table(bent_scan):
    rows = np.asarray(bent_scan.direction_field)
    assert rows.shape[1] == 5
    norms = rows[:, 2] ** 2 + rows[:, 3] ** 2
    assert np.allclose(norms, 1.0, atol=1e-10)
    assert np.all(rows[:, 4] >= 0)


def test_scan_winding_table(bent_scan):
    levels = sorted(bent_scan.winding_numbers)
    assert bent_scan.winding_numbers[levels[0]] == 0
    assert bent_scan.winding_numbers[levels[-1]] == 4


def test_scan_rows_sign_each_axis_by_its_larger_component(bent_domain):
    canon, _ = canonicalize(pullback_measure(bent_domain, 16, 32))
    result = scan_caps(canon)
    s = np.asarray(result.direction_field)[:, 2:4]
    lead = s[np.arange(len(s)), np.argmax(np.abs(s), axis=1)]
    assert np.all(lead >= 0)
    # the windings double the angles, so the sign leaves them alone
    assert list(result.winding_numbers.values()) == [0, 2, 2, 2, 2, 2, 2, 2, 4]


def test_scan_rotation_covariance(bent_canonical):
    # gap at the found cap is rotation covariant: rotate measure and cap
    canon, _ = bent_canonical
    cap = Cap(0.4, np.exp(0.7j))
    nu, _ = rearrange(canon, cap)
    g1 = direction_form(nu).gap
    rot = np.exp(1.1j)
    spun = canon.with_points(rot * canon.points)
    nu2, _ = rearrange(spun, Cap(0.4, rot * np.exp(0.7j)))
    g2 = direction_form(nu2).gap
    assert g1 == pytest.approx(g2, abs=1e-10)
    s1 = direction_form(nu).max_direction
    s2 = direction_form(nu2).max_direction
    z1 = complex(*s1) * rot
    align = abs(np.real(np.conj(z1) * complex(*s2)))
    assert align == pytest.approx(1.0, abs=1e-6)


def test_sphere_degree_check_n3():
    out = sphere_degree_check(3)
    assert out == {"deg_psi": 2, "deg_phi": 4}


def test_sphere_degree_check_n5():
    out = sphere_degree_check(5, n_targets=3)
    assert out == {"deg_psi": 2, "deg_phi": 4}


def test_sphere_degree_check_rejects_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed"):
        sphere_degree_check(3, seed=-1)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_sphere_degree_check_any_tangent_frame(n):
    # the sign product does not depend on the orientation of the frames
    for seed in range(3):
        assert sphere_degree_check(n, n_targets=3, seed=seed) == {"deg_psi": 2, "deg_phi": 4}


@pytest.mark.parametrize("n, n_targets", [(-1, 6), (0, 6), (3, 0), (3, -2)])
def test_sphere_degree_check_rejects_bad_input(n, n_targets):
    with pytest.raises(InvalidInputError):
        sphere_degree_check(n, n_targets=n_targets)


def test_sphere_degree_check_even_rejected():
    with pytest.raises(EvenDimensionError):
        sphere_degree_check(2)


@pytest.mark.slow
def test_sphere_cap_search_finds_small_gap():
    from capfold.measures import DiscreteMeasure

    g = sphere_quadrature(3, resolution=10)
    bumped = DiscreteMeasure(
        "sphere", g.points, g.weights * (1.0 + 0.25 * g.points[:, 0])
    )
    bumped = bumped.scaled(1.0 / bumped.total_mass)
    canon, _ = canonicalize(bumped)
    cap, gap = sphere_cap_search(canon, eps=1e-3)
    assert gap < 1e-3


def _sphere_density_measure(resolution, density, n=3):
    from capfold.measures import DiscreteMeasure

    g = sphere_quadrature(n, resolution=resolution)
    m = DiscreteMeasure("sphere", g.points, g.weights * density(g.points))
    return m.scaled(1.0 / m.total_mass)


def _seeded_sweep(count):
    # densities 1 + (a, x) + b x0^2 on S^3 at res 10, |a| <= 0.4, b <= 0.2
    rng = np.random.default_rng(12345)
    for _ in range(count):
        a = rng.normal(size=4)
        a *= rng.uniform(0.0, 0.4) / np.linalg.norm(a)
        b = rng.uniform(0.0, 0.2)
        yield _sphere_density_measure(
            10, lambda x, a=a, b=b: 1.0 + x @ a + b * x[:, 0] ** 2
        )


def test_sphere_cap_search_known_res16_density():
    # Nelder-Mead on the gap stopped at 2.5e-3 on this measure
    m = _sphere_density_measure(
        16, lambda x: 1.0 + 0.3 * x[:, 1] + 0.1 * x[:, 0] ** 2
    )
    canon, _ = canonicalize(m)
    _, gap = sphere_cap_search(canon)
    assert gap < 1e-3


def test_sphere_cap_search_seeded_sweep():
    # the first 14 draws hold two on which Nelder-Mead missed gap 1e-3
    for m in _seeded_sweep(14):
        canon, _ = canonicalize(m)
        _, gap = sphere_cap_search(canon)
        assert gap < 1e-3


def test_sphere_cap_search_gap_is_recomputable():
    # the solve runs far below the 1e-3 tolerance (Nelder-Mead: 3.8e-4 here),
    # and the gap it reports is that of the returned cap
    canon, _ = canonicalize(next(_seeded_sweep(1)))
    cap, gap = sphere_cap_search(canon)
    assert gap < 1e-8
    assert gap == direction_form(rearrange(canon, cap)[0]).gap


def test_sphere_cap_search_without_canonicalizing():
    # neither balanced nor rotated: the first start is the top eigenvector
    for m in _seeded_sweep(3):
        cap, gap = sphere_cap_search(m)
        assert gap < 1e-3
        assert gap == direction_form(rearrange(m, cap)[0]).gap


def test_sphere_trial_rearrangement_warm_start_saves_evaluations():
    # a finite-difference trial cap of the Gauss-Newton search, 1e-5 away:
    # started from the current cap's xi_a its balancing solve needs fewer
    # moment evaluations than from 0, and lands on the same point
    canon, _ = canonicalize(next(_seeded_sweep(1)))
    p = np.eye(4)[0]
    xi_a = rearrange(canon, Cap(0.2, p, "sphere"))[1].xi_a
    trials = [Cap(0.2 + 1e-5, p, "sphere")] + [
        Cap(0.2, (p + 1e-5 * e) / np.sqrt(1.0 + 1e-10), "sphere")
        for e in np.eye(4)[1:]
    ]
    for trial in trials:
        folded = fold_measure(canon, trial)
        cold = renormalize(folded)
        warm = renormalize(folded, start=xi_a)
        assert warm.evaluations < cold.evaluations
        assert np.max(np.abs(warm.xi - cold.xi)) <= 1e-9


def test_sphere_cap_search_does_not_depend_on_the_sign_eigh_returns(monkeypatch):
    # eigh may return either sign of an eigenvector, and on this draw the
    # hemispheres (0, p) and (0, -p) led to multiple caps 5e-3 apart; the
    # starts are signed by their largest component, so the cap is the same
    canon, _ = canonicalize(list(_seeded_sweep(12))[-1])
    cap, gap = sphere_cap_search(canon)
    eigh = np.linalg.eigh

    def flipped(a):
        w, v = eigh(a)
        return w, -v

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    flipped_cap, flipped_gap = sphere_cap_search(canon)
    assert flipped_cap.r == cap.r
    assert np.array_equal(flipped_cap.p, cap.p)
    assert flipped_gap == gap


def test_sphere_cap_search_reports_best_gap_when_every_start_stalls():
    # no cap reaches gap 0 exactly, so the search raises, and the error
    # carries the smallest gap any start reached
    canon, _ = canonicalize(next(_seeded_sweep(1)))
    with pytest.raises(CapScanError) as info:
        sphere_cap_search(canon, eps=0.0)
    best = info.value
    assert best.best_gap < 1e-8
    assert best.best_gap == direction_form(rearrange(canon, best.best_cap)[0]).gap


def test_canonicalize_hands_over_column_major_sphere_atoms():
    # the rotated atoms come out column-major, as DiscreteMeasure stores
    # them, and the cap search on draw 11 of the seeded sweep lands on a
    # fixed cap of its 2-dimensional set of multiple caps (the one the
    # closed-form Gauss-Newton steps reach from the first start that does
    # not stall)
    canon, _ = canonicalize(list(_seeded_sweep(12))[-1])
    assert canon.points.flags.f_contiguous
    cap, gap = sphere_cap_search(canon)
    assert cap.r == pytest.approx(0.2987106025988418, abs=1e-10)
    expected = [0.9999673078693615, -0.0008277085870872362,
                0.006675028879759079, 0.004487992920115163]
    assert np.max(np.abs(cap.p - expected)) <= 1e-10
    assert gap < 1e-10


@pytest.mark.parametrize("n, resolution", [(3, 10), (5, 6)])
def test_sphere_cap_jacobian_matches_central_differences(n, resolution):
    # r in {-0.6, 0.7} folds with the w-form of the inversion terms,
    # r in {-0.2, 0.3} with the direct one
    rng = np.random.default_rng(3)
    a = rng.normal(size=n + 1)
    a *= 0.3 / np.linalg.norm(a)
    canon, _ = canonicalize(_sphere_density_measure(
        resolution, lambda x: 1.0 + x @ a + 0.1 * x[:, 0] ** 2, n=n
    ))
    p = rng.normal(size=n + 1)
    p /= np.linalg.norm(p)
    tangents = _tangents(p)
    step = 1e-6
    for r in (-0.6, -0.2, 0.3, 0.7):
        cap = Cap(r, p, "sphere")
        nu, trace = rearrange(canon, cap)
        basis = np.linalg.eigh(trace.form.matrix)[1][:, -2:]
        f = _compressed_traceless(trace.form.matrix, basis)
        jac = _sphere_cap_jacobian(canon, nu, trace, basis, f, tangents)

        def residual(dr, dp):
            moved = rearrange(canon, Cap(r + dr, (p + dp) / np.linalg.norm(p + dp), "sphere"))
            return _compressed_traceless(moved[1].form.matrix, basis)

        central = np.column_stack(
            [(residual(step, 0.0) - residual(-step, 0.0)) / (2.0 * step)]
            + [(residual(0.0, step * t) - residual(0.0, -step * t)) / (2.0 * step)
               for t in tangents]
        )
        assert np.max(np.abs(jac - central)) <= 1e-6 * np.max(np.abs(central))


def test_sphere_cap_search_rearranges_at_most_twelve_times(monkeypatch):
    # draw 11 of the seeded sweep took 29 rearrangements when every step
    # paid n+1 more for a forward-difference Jacobian
    canon, _ = canonicalize(list(_seeded_sweep(12))[-1])
    calls = []
    cold = directions.rearrange

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cold(*args, **kwargs)

    monkeypatch.setattr(directions, "rearrange", counted)
    _, gap = sphere_cap_search(canon)
    assert gap < 1e-10
    assert len(calls) <= 12


def test_sphere_cap_search_builds_no_difference_jacobian(monkeypatch):
    # the sphere's Jacobian is closed form; the forward difference is the
    # disk's, and 18 of these 40 draws took one when it was a fallback
    difference = directions._difference_jacobian
    spheres = []

    def counted(m, *args):
        spheres.append(m.space == "sphere")
        return difference(m, *args)

    monkeypatch.setattr(directions, "_difference_jacobian", counted)
    for m in _seeded_sweep(40):
        canon, _ = canonicalize(m)
        _, gap = sphere_cap_search(canon)
        assert gap < 1e-3
    assert not any(spheres)


@pytest.mark.parametrize("draw", [0, 5, 23])
def test_sphere_cap_search_restarts_a_stalled_start(draw):
    # the first start of these draws stops short of gap 1e-10; a search that
    # ended at the first start below 1e-3 reported 2.2e-10, 1.0e-8 and
    # 3.6e-7 here, and the second start reaches 1e-10
    canon, _ = canonicalize(list(_seeded_sweep(draw + 1))[-1])
    cap, gap = sphere_cap_search(canon)
    assert gap <= 1e-10
    assert gap == direction_form(rearrange(canon, cap)[0]).gap