"""Meshing, P1 assembly against hand-computed element matrices, eigenvalue
accuracy against separation-of-variables and Bessel references, and the
corpus/extremal-family sweeps."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from capfold import fem
from capfold.exceptions import (
    InvalidSpecError,
    NeckTooNarrowError,
    NumericalFailureError,
)
from capfold.fem import (
    Mesh,
    _dissection_order,
    assemble,
    build_mesh,
    neumann_eigs,
    parse_domain_spec,
    two_disk_area,
    verify_corpus,
)
from capfold.measures import ConformalDomain
from capfold.specfun import mu1_disk, planar_bound

PI2 = np.pi**2


# ----------------------------------------------------------------- meshes

def test_rectangle_mesh_exact_area():
    mesh = build_mesh({"kind": "rectangle", "a": 1.0, "b": 1.0}, 0.05)
    assert mesh.area == pytest.approx(1.0, abs=1e-14)
    assert np.all(mesh.areas > 0)


def test_disk_mesh_area():
    mesh = build_mesh({"kind": "disk", "radius": 1.0}, 0.02)
    assert mesh.area == pytest.approx(np.pi, rel=1e-3)


def test_mesh_is_edge_connected_and_boundary_consistent():
    mesh = build_mesh({"kind": "disk"}, 0.1)
    # every boundary edge belongs to exactly one triangle by construction;
    # interior edges to exactly two
    edges = {}
    for tri in mesh.triangles:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
            edges[key] = edges.get(key, 0) + 1
    counts = np.array(list(edges.values()))
    assert set(np.unique(counts)) <= {1, 2}
    assert (counts == 1).sum() == len(mesh.boundary_edges)
    once = {key for key, cnt in edges.items() if cnt == 1}
    assert {tuple(e) for e in mesh.boundary_edges.tolist()} == once
    # connectivity via union-find over shared edges
    parent = list(range(len(mesh.vertices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for tri in mesh.triangles:
        for i, j in ((0, 1), (1, 2)):
            ra, rb = find(tri[i]), find(tri[j])
            if ra != rb:
                parent[ra] = rb
    roots = {find(v) for tri in mesh.triangles for v in tri}
    assert len(roots) == 1


def _ring_walk_triangles(ring_index):
    # loop reference for the vectorized ring merge in fem._disk_triangles
    start0, count0 = ring_index[0]
    tris = [(0, start0 + j, start0 + (j + 1) % count0) for j in range(count0)]
    for (sa, ka), (sb, kb) in zip(ring_index[:-1], ring_index[1:]):
        ang_a = 2.0 * np.pi * np.arange(ka) / ka
        ang_b = 2.0 * np.pi * np.arange(kb) / kb
        ia = ib = 0
        while ia < ka or ib < kb:
            nxt_a = ang_a[(ia + 1) % ka] + (2.0 * np.pi if ia + 1 >= ka else 0.0)
            nxt_b = ang_b[(ib + 1) % kb] + (2.0 * np.pi if ib + 1 >= kb else 0.0)
            if ia < ka and (nxt_a <= nxt_b or ib >= kb):
                tris.append((sa + ia % ka, sb + ib % kb, sa + (ia + 1) % ka))
                ia += 1
            else:
                tris.append((sa + ia % ka, sb + ib % kb, sb + (ib + 1) % kb))
                ib += 1
    return np.asarray(tris, dtype=np.int64)


def _ring_loop_vertices(h, radius=1.0):
    # loop reference for the vectorized rings of fem._disk_vertices
    rings = max(2, int(round(radius / h)))
    verts = [(0.0, 0.0)]
    ring_index = []
    for i in range(1, rings + 1):
        r = radius * i / rings
        count = max(6, int(round(2.0 * np.pi * r / h)))
        theta = 2.0 * np.pi * np.arange(count) / count
        ring_index.append((len(verts), count))
        verts.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    return np.asarray(verts), ring_index


@pytest.mark.parametrize("h", [0.3, 0.07, 0.02])
def test_mesh_builders_match_loop_references(h):
    from capfold.fem import _disk_triangles, _disk_vertices, _rectangle_mesh

    for radius in (1.0, 0.7):
        verts, rings = _disk_vertices(h, radius)
        ref_verts, ref_rings = _ring_loop_vertices(h, radius)
        assert rings == ref_rings
        assert verts.tobytes() == ref_verts.tobytes()
    _, rings = _disk_vertices(h)
    assert np.array_equal(_disk_triangles(rings), _ring_walk_triangles(rings))
    nx, ny = max(2, round(2.0 / h)), max(2, round(1.0 / h))
    cells = [(i * (ny + 1) + j, (i + 1) * (ny + 1) + j) for i in range(nx) for j in range(ny)]
    ref = [t for a, b in cells for t in ((a, b, b + 1), (a, b + 1, a + 1))]
    assert np.array_equal(_rectangle_mesh(2.0, 1.0, h).triangles, ref)


def _boundary_loop(mesh):
    """Check that ``mesh`` triangulates one polygon; return its boundary loop.

    Every directed edge of the positively oriented triangles occurs once, so
    an interior edge lies in exactly two triangles, run in opposite
    directions.  The directed edges without a reverse must chain into one
    closed loop through ``B`` vertices, and the triangle count of a
    triangulated simply-connected polygon is ``2 V - B - 2``.
    """
    t = mesh.triangles
    n = len(mesh.vertices)
    assert np.all(mesh.areas > 0)
    assert np.array_equal(np.unique(t), np.arange(n))
    tail, head = t.ravel(), t[:, [1, 2, 0]].ravel()
    keys = tail * n + head
    assert len(np.unique(keys)) == len(keys)
    outer = ~np.isin(head * n + tail, keys)
    b_tail, b_head = tail[outer], head[outer]
    count = len(b_tail)
    assert count == len(mesh.boundary_edges)
    assert len(np.unique(b_tail)) == count
    succ = np.full(n, -1)
    succ[b_tail] = b_head
    loop = [b_tail[0]]
    for _ in range(count - 1):
        loop.append(succ[loop[-1]])
    assert succ[loop[-1]] == loop[0]
    assert len(set(loop)) == count
    assert len(t) == 2 * n - count - 2
    return np.asarray(loop)


@pytest.mark.parametrize(
    "spec,h",
    [
        ({"kind": "disk"}, 0.05),
        ({"kind": "rectangle", "a": 2.0, "b": 1.0}, 0.05),
        ({"kind": "conformal", "coeffs": [[1, 0], [0.3, 0]]}, 0.05),
        ({"kind": "two_disks_neck", "eps": 0.1, "neck_length": 0.2}, 0.01),
        ({"kind": "two_disks_neck", "eps": 0.4, "neck_length": 0.2}, 0.1),
    ],
    ids=["disk", "rectangle", "conformal", "two-disks-bench", "two-disks-coarse"],
)
def test_mesh_conformity(spec, h):
    mesh = build_mesh(spec, h)
    x, y = mesh.vertices[_boundary_loop(mesh)].T
    shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert mesh.area == pytest.approx(shoelace, rel=1e-12)


def _two_disk_whole_domain(eps, neck_length, h):
    # reference: the two-disk points built lattice row by lattice row, then
    # one Delaunay call over the whole domain kept by centroid
    from scipy.spatial import Delaunay

    from capfold.fem import _orient_and_wrap, _two_disk_signed

    delta = neck_length / 2.0
    t = 1.0 - np.sqrt(1.0 - eps**2 / 4.0)
    alpha = np.arcsin(eps / 2.0)
    n_arc = max(16, int(round((2.0 * np.pi - 2.0 * alpha) / h)))
    ang = np.linspace(-(np.pi - alpha), np.pi - alpha, n_arc + 1)
    right = np.stack([1.0 + delta + np.cos(ang), np.sin(ang)], axis=1)
    left = np.stack([-right[:, 0], right[:, 1]], axis=1)
    x_end = delta + t
    n_seg = max(2, int(round(2.0 * x_end / h)))
    xs = np.linspace(-x_end, x_end, n_seg + 1)[1:-1]
    top = np.stack([xs, np.full_like(xs, eps / 2.0)], axis=1)
    bottom = np.stack([xs, np.full_like(xs, -eps / 2.0)], axis=1)

    x_min, x_max = -2.0 - neck_length, 2.0 + neck_length
    row_step = h * np.sqrt(3.0) / 2.0
    cols = int((x_max - x_min) / h) + 1
    lattice = []
    for j in range(int(2.1 / row_step) + 1):
        y = -1.02 + j * row_step
        xr = x_min + (j % 2) * h / 2.0 + h * np.arange(cols)
        lattice.append(np.stack([xr, np.full_like(xr, y)], axis=1))
    lattice = np.concatenate(lattice)
    lattice = lattice[_two_disk_signed(eps, neck_length, lattice) > 0.55 * h]

    pts = np.concatenate([right, left, top, bottom, lattice])
    simplices = Delaunay(pts).simplices
    inside = _two_disk_signed(eps, neck_length, pts[simplices].mean(axis=1)) > 1e-12
    return _orient_and_wrap(pts, simplices[inside])


@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05])
def test_two_disk_mesh_matches_whole_domain_delaunay(eps):
    # the h of C11; eps = 0.1 is two_disks:0.1,0.2 at h = 0.02.  Qhull may
    # split near-cocircular quads in the passage either way, so the triangle
    # sets may differ in a few diagonals: only counts and mu_1, mu_2 match
    h = min(0.02, eps / 4.2)
    mesh = build_mesh({"kind": "two_disks_neck", "eps": eps, "neck_length": 0.2}, h)
    ref = _two_disk_whole_domain(eps, 0.2, h)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert len(mesh.triangles) == len(ref.triangles)
    got, want = neumann_eigs(mesh, k=2, h=h), neumann_eigs(ref, k=2, h=h)
    for i in (1, 2):
        assert got.mu(i) == pytest.approx(want.mu(i), rel=1e-6)


def test_two_disk_bench_mesh_size():
    mesh = build_mesh(parse_domain_spec("two_disks:0.1,0.2"), 0.01)
    ref = _two_disk_whole_domain(0.1, 0.2, 0.01)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert len(mesh.vertices) == 73217
    assert len(mesh.triangles) == len(ref.triangles) == 145156


def test_two_disk_mesh_miss_raises(monkeypatch):
    # a band too thin to hold the circumdisks of the triangles along the
    # boundary leaves holes, which the triangle count catches
    import capfold.fem as fem

    monkeypatch.setattr(fem, "_BAND", 1.0)
    with pytest.raises(NumericalFailureError, match="triangles"):
        build_mesh(parse_domain_spec("two_disks:0.4,0.2"), 0.1)


def test_no_duplicate_vertices():
    mesh = build_mesh({"kind": "disk"}, 0.05)
    rounded = np.round(mesh.vertices, 12)
    unique = np.unique(rounded, axis=0)
    assert len(unique) == len(mesh.vertices)


def test_two_disk_area_formula():
    # against numerically integrated indicator on a fine grid
    eps, length = 0.3, 0.2
    exact = two_disk_area(eps, length)
    from capfold.fem import _two_disk_signed

    n = 1600
    xs = np.linspace(-2.4, 2.4, n)
    ys = np.linspace(-1.2, 1.2, n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    inside = _two_disk_signed(eps, length, pts) > 0
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    mc = inside.sum() * cell
    assert exact == pytest.approx(mc, rel=2e-3)


def test_two_disk_mesh_area():
    mesh = build_mesh({"kind": "two_disks_neck", "eps": 0.1, "neck_length": 0.2}, 0.01)
    assert mesh.area == pytest.approx(two_disk_area(0.1, 0.2), rel=1e-3)


def test_neck_too_narrow_guard():
    with pytest.raises(NeckTooNarrowError):
        build_mesh({"kind": "two_disks_neck", "eps": 0.05, "neck_length": 0.2}, 0.02)


def test_invalid_spec():
    with pytest.raises(InvalidSpecError):
        build_mesh({"kind": "pentagon"}, 0.1)
    with pytest.raises(InvalidSpecError):
        build_mesh({"no": "kind"}, 0.1)
    with pytest.raises(InvalidSpecError):
        build_mesh({"kind": "disk"}, float("nan"))


def test_conformal_mesh_area(bent_domain):
    mesh = build_mesh(bent_domain, 0.02)
    assert mesh.area == pytest.approx(bent_domain.area, rel=1e-3)


@pytest.mark.parametrize("coeffs", [[1.0, 0.3], [1.0, 0.25j], [1.0, 0.2, 0.05]])
def test_conformal_mesh_matches_two_pass_build(coeffs):
    # reference: the two-pass build, which orients the disk mesh, maps it,
    # then orients the mapped triangles and finds their boundary again
    from capfold.fem import _conformal_mesh, _disk_mesh, _orient_and_wrap

    domain = ConformalDomain(coeffs)
    h = 0.02
    scale = float(np.max(np.abs(domain.derivative(
        np.exp(1j * np.linspace(0, 2 * np.pi, 256))
    ))))
    base = _disk_mesh(h / max(scale, 1.0))
    w = domain.map(base.vertices[:, 0] + 1j * base.vertices[:, 1])
    ref = _orient_and_wrap(np.stack([w.real, w.imag], axis=1), base.triangles)
    mesh = _conformal_mesh(domain, h)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert np.array_equal(mesh.boundary_edges, ref.boundary_edges)


def test_parse_domain_spec():
    assert parse_domain_spec("disk")["kind"] == "disk"
    assert parse_domain_spec("square")["a"] == 1.0
    spec = parse_domain_spec("rectangle:2x1")
    assert spec["a"] == 2.0 and spec["b"] == 1.0
    spec = parse_domain_spec("two_disks:0.1,0.2")
    assert spec["eps"] == 0.1
    with pytest.raises(InvalidSpecError):
        parse_domain_spec("heptagon")


# --------------------------------------------------------------- assembly

def test_reference_triangle_element_matrices():
    # unit right triangle: hand-computed P1 stiffness and consistent mass
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    mesh = Mesh(verts, tris)
    stiffness, mass = assemble(mesh)
    k_ref = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    m_ref = (0.5 / 12.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    assert np.allclose(stiffness.toarray(), k_ref, atol=1e-14)
    assert np.allclose(mass.toarray(), m_ref, atol=1e-15)


def _assemble_by_blocks(mesh):
    # reference: one (row, column, value) block per element entry (i, j),
    # concatenated
    import scipy.sparse as sparse

    v, t, area = mesh.vertices, mesh.triangles, mesh.areas
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    gx = np.stack([b[:, 1] - c[:, 1], c[:, 1] - a[:, 1], a[:, 1] - b[:, 1]], axis=1)
    gy = np.stack([c[:, 0] - b[:, 0], a[:, 0] - c[:, 0], b[:, 0] - a[:, 0]], axis=1)
    rows, cols, k_vals, m_vals = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            k_vals.append((gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]) / (4.0 * area))
            m_vals.append(area / 12.0 * (2.0 if i == j else 1.0))
    index = (np.concatenate(rows), np.concatenate(cols))
    n = len(v)
    return (
        sparse.coo_matrix((np.concatenate(k_vals), index), shape=(n, n)).tocsc(),
        sparse.coo_matrix((np.concatenate(m_vals), index), shape=(n, n)).tocsc(),
    )


@pytest.mark.parametrize("spec", [
    "disk",
    "rectangle:2x1",
    '{"kind": "conformal", "coeffs": [[1, 0], [0.15, 0.2]]}',
    "two_disks:0.1,0.2",
])
def test_assembly_matches_block_reference(spec):
    from capfold.fem import _relabelled

    mesh = build_mesh(parse_domain_spec(spec), 0.02)
    relabelled = _relabelled(mesh, _dissection_order(mesh))
    for m in (mesh, relabelled):
        for got, ref in zip(assemble(m), _assemble_by_blocks(m)):
            for part in ("indptr", "indices", "data"):
                assert getattr(got, part).tobytes() == getattr(ref, part).tobytes()
        # the areas the mesh builder and the relabelling hand on are cached
        # and have the bits of a fresh computation
        assert m.areas is m.areas
        assert m.areas.tobytes() == fem._signed_areas(m.vertices, m.triangles).tobytes()
    # neumann_eigs forms K - sigma M over the values of one shared pattern
    stiffness, mass = assemble(relabelled)
    assert np.array_equal(stiffness.indptr, mass.indptr)
    assert np.array_equal(stiffness.indices, mass.indices)


def test_assembly_holds_one_value_buffer(peak_bytes):
    # int32 indices (72 B per triangle) and one (9, T) value buffer (72 B)
    # that becomes K, then M; the block reference above peaks at 733 B per
    # triangle here
    mesh = build_mesh(parse_domain_spec("two_disks:0.1,0.2"), 0.02)
    peak = peak_bytes(lambda: assemble(mesh))
    assert peak < 450 * len(mesh.triangles)


def test_degenerate_triangle_rejected():
    from capfold.exceptions import DegenerateTriangleError

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateTriangleError):
        assemble(mesh)


def test_stiffness_kernel_and_mass_partition():
    mesh = build_mesh({"kind": "disk"}, 0.05)
    stiffness, mass = assemble(mesh)
    ones = np.ones(stiffness.shape[0])
    assert np.max(np.abs(stiffness @ ones)) < 1e-12
    assert float(ones @ (mass @ ones)) == pytest.approx(mesh.area, abs=1e-12)


# ------------------------------------------------------------ eigenvalues

def test_disk_eigenvalues():
    mesh = build_mesh({"kind": "disk"}, 0.02)
    res = neumann_eigs(mesh, k=3, h=0.02)
    assert res.mu(0) < 1e-8 * res.mu(1)
    assert res.mu(1) == pytest.approx(mu1_disk(), rel=0.01)
    # double eigenvalue on the disk
    assert res.mu(2) == pytest.approx(res.mu(1), rel=1e-3)
    assert np.all(np.diff(res.eigenvalues) > -1e-10)
    assert np.all(res.residuals < 1e-9)


def test_square_eigenvalues():
    mesh = build_mesh({"kind": "rectangle", "a": 1, "b": 1}, 0.02)
    res = neumann_eigs(mesh, k=3, h=0.02)
    assert res.mu(1) == pytest.approx(PI2, rel=0.01)
    assert res.mu(2) == pytest.approx(PI2, rel=0.01)


def test_rectangle_products():
    mesh = build_mesh({"kind": "rectangle", "a": 2, "b": 1}, 0.02)
    res = neumann_eigs(mesh, k=2, h=0.02)
    assert res.mu(2) * res.area == pytest.approx(2 * PI2, rel=0.02)
    assert res.mu(2) * res.area < planar_bound()


def test_disk_convergence_order():
    errs = []
    for h in (0.08, 0.04):
        mesh = build_mesh({"kind": "disk"}, h)
        res = neumann_eigs(mesh, k=2, h=h)
        errs.append(abs(res.mu(1) - mu1_disk()))
    assert errs[0] / errs[1] >= 3.0  # O(h^2) up to constant slack


def test_scale_invariance():
    base = build_mesh({"kind": "rectangle", "a": 1, "b": 1}, 0.05)
    scaled = Mesh(2.5 * base.vertices, base.triangles)
    res1 = neumann_eigs(base, k=2)
    res2 = neumann_eigs(scaled, k=2)
    for i in (1, 2):
        assert res2.mu(i) == pytest.approx(res1.mu(i) / 2.5**2, rel=1e-9)
    assert res2.mu(1) * res2.area == pytest.approx(
        res1.mu(1) * res1.area, rel=1e-9
    )


# ---------------------------------------------- ordering and factorization

@pytest.mark.parametrize(
    "spec,h",
    [
        ("disk", 0.5),  # 20 vertices: a single leaf
        ("disk", 0.3),
        ("rectangle:2x1", 0.05),
        ("two_disks:0.2,0.2", 0.05),
    ],
)
def test_dissection_order_is_permutation(spec, h):
    mesh = build_mesh(parse_domain_spec(spec), h)
    order = _dissection_order(mesh)
    assert np.array_equal(np.sort(order), np.arange(len(mesh.vertices)))


def _sigma(stiffness):
    return -1e-8 * float(stiffness.diagonal().mean())


@pytest.mark.parametrize("spec", ["two_disks:0.1,0.2", "disk"])
def test_dissection_fill_below_colamd(spec):
    # a silent fall back to the identity or the COLAMD order fails this
    # count: the dissection stores 0.62x (two disks) and 0.66x (disk) of
    # COLAMD's factor, COLAMD in the dissection's place 0.97x
    mesh = build_mesh(parse_domain_spec(spec), 0.02)
    res = neumann_eigs(mesh, k=2, h=0.02)
    stiffness, mass = assemble(mesh)
    colamd = spla.splu(stiffness - _sigma(stiffness) * mass)
    assert res.factor_nnz < 0.8 * colamd.nnz


@pytest.mark.parametrize(
    "spec,h", [("disk", 0.1), ("rectangle:2x1", 0.1), ("two_disks:0.4,0.2", 0.1)]
)
def test_eigenvalues_match_dense_solve(spec, h):
    mesh = build_mesh(parse_domain_spec(spec), h)
    res = neumann_eigs(mesh, k=2, h=h)
    stiffness, mass = assemble(mesh)
    dense = scipy.linalg.eigh(
        stiffness.toarray(), mass.toarray(), eigvals_only=True, subset_by_index=[0, 2]
    )
    for i in (1, 2):
        assert res.mu(i) == pytest.approx(dense[i], rel=1e-10)


def test_eigenvalues_match_default_ordered_eigsh():
    # reference: eigsh factoring K - sigma M itself, in the caller's order
    mesh = build_mesh(parse_domain_spec("two_disks:0.1,0.2"), 0.02)
    res = neumann_eigs(mesh, k=2, h=0.02)
    stiffness, mass = assemble(mesh)
    vals = spla.eigsh(
        stiffness, k=3, M=mass, sigma=_sigma(stiffness), which="LM",
        v0=np.ones(stiffness.shape[0]), maxiter=2000, return_eigenvectors=False,
    )
    vals = np.sort(vals)
    for i in (1, 2):
        assert res.mu(i) == pytest.approx(vals[i], rel=1e-10)
    assert np.all(res.residuals < 1e-9)


@pytest.mark.parametrize("shift", [1e-6, np.nan])
def test_residual_check_raises(monkeypatch, shift):
    # an eigenvector off by 1e-6 leaves a relative residual near 1e-6,
    # which no accepted eigenpair may have; nor a NaN residual
    from capfold.exceptions import EigSolveError

    eigsh = spla.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        vecs[:, -1] += shift * np.linspace(-1.0, 1.0, len(vecs))
        return vals, vecs

    mesh = build_mesh({"kind": "disk"}, 0.1)
    assert max(neumann_eigs(mesh, k=2).residuals) < 1e-9
    monkeypatch.setattr(spla, "eigsh", perturbed)
    with pytest.raises(EigSolveError, match="residual"):
        neumann_eigs(mesh, k=2)


@pytest.mark.slow
def test_corpus_sweep():
    specs = [
        {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"},
        {"kind": "rectangle", "a": 2.0, "b": 1.0, "name": "rect2x1"},
        {"kind": "disk", "radius": 1.0, "name": "disk"},
        {"kind": "conformal", "coeffs": [[1, 0], [0.3, 0]], "name": "bent"},
        {"kind": "conformal", "coeffs": [[1, 0], [0.2, 0], [0.05, 0]], "name": "wavy"},
    ]
    report = verify_corpus(specs, h=0.03)
    assert not report["failures"]
    assert report["all_ok"]
    szego = report["bounds"]["szego"]
    for row in report["rows"]:
        assert row["mu1_area"] <= szego * 1.02


def test_corpus_collects_capfold_errors():
    specs = [
        {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"},
        {"kind": "heptagon", "name": "bad-kind"},
        {"kind": "rectangle", "a": 1.0, "name": "no-b"},
    ]
    report = verify_corpus(specs, h=0.1)
    assert [r["name"] for r in report["rows"]] == ["square"]
    assert set(report["failures"]) == {"bad-kind", "no-b"}
    assert "InvalidSpecError" in report["failures"]["bad-kind"]
    assert not report["all_ok"]


def test_corpus_keeps_every_failure_of_a_repeated_name():
    # two failing disk specs: each error is kept under its own key, and a
    # count that another spec already names is skipped
    specs = [
        {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "disk#2"},
        {"kind": "disk", "radius": -1.0},
        {"kind": "disk", "radius": None},
    ]
    report = verify_corpus(specs, h=0.1)
    assert list(report["failures"]) == ["disk", "disk#3"]
    assert list(report["errors"]) == ["disk", "disk#3"]
    assert "radius" in str(report["errors"]["disk"])
    assert report["errors"]["disk"] is not report["errors"]["disk#3"]
    assert [r["name"] for r in report["rows"]] == ["disk#2"]


def test_corpus_rows_of_a_repeated_name_get_counts():
    square = {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"}
    report = verify_corpus([square, square, square], h=0.1)
    assert [r["name"] for r in report["rows"]] == ["square", "square#2", "square#3"]
    assert not report["failures"]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "rectangle", "a": None, "b": 1.0},
        {"kind": "disk", "radius": None},
        {"kind": "conformal", "coeffs": [[1]]},
        {"kind": "conformal", "coeffs": [["x", 0]]},
        {"kind": "conformal", "coeffs": [[1, 0], [float("nan"), 0]]},
        {"kind": "conformal", "coeffs": 3},
        {"kind": "rectangle", "a": 1.0, "b": 1.0, "h": None},
        {"kind": "rectangle", "a": 1.0, "b": 1.0, "h": "0.1"},
    ],
    ids=[
        "a-null", "radius-null", "short-pair", "text-pair", "nan-coeff",
        "not-a-list", "h-null", "h-text",
    ],
)
def test_corpus_collects_malformed_specs(spec):
    report = verify_corpus([dict(spec, name="bad")], h=0.1)
    assert not report["rows"]
    assert list(report["failures"]) == ["bad"]


def test_corpus_propagates_programming_errors(monkeypatch):
    # a mesher that fails with anything but a CapfoldError has a bug
    def broken(a, b, h):
        raise TypeError("bug in the mesher")

    monkeypatch.setattr(fem, "_rectangle_mesh", broken)
    with pytest.raises(TypeError):
        verify_corpus([{"kind": "rectangle", "a": 1.0, "b": 1.0}], h=0.1)


@pytest.mark.slow
def test_two_disk_family_monotone():
    products = []
    for eps in (0.4, 0.2, 0.1):
        h = min(0.02, eps / 4.2)
        mesh = build_mesh(
            {"kind": "two_disks_neck", "eps": eps, "neck_length": 0.2}, h
        )
        res = neumann_eigs(mesh, k=2, h=h)
        products.append(res.mu(2) * res.area)
    assert products[0] < products[1] < products[2] < planar_bound()
