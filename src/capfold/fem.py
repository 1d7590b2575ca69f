"""P1 finite-element Neumann eigensolver on planar domains.

Independent ground truth for the eigenvalue bounds: structured meshes for
disks and rectangles, mapped disk meshes for conformal images, a Delaunay
mesh for the two-disk-with-passage family (lattice triangles inside, Qhull
on a band along the boundary, checked by its Euler count), consistent-mass
assembly, and a shift-invert sparse eigensolve.  The eigensolve orders the
unknowns by geometric nested dissection of the mesh and factors
``K - sigma M`` once as a symmetric LU with diagonal pivots, which the
Lanczos iteration reuses.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    CapfoldError,
    DegenerateTriangleError,
    EigSolveError,
    InvalidInputError,
    InvalidSpecError,
    NeckTooNarrowError,
    NumericalFailureError,
)
from .measures import ConformalDomain
from .specfun import inequality, product_bounds

__all__ = [
    "Mesh",
    "SpectralResult",
    "build_mesh",
    "assemble",
    "neumann_eigs",
    "bound_checks",
    "verify_corpus",
    "two_disk_area",
    "parse_domain_spec",
]


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed triangle areas, positive for counterclockwise vertex order."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return 0.5 * (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )


@dataclass(frozen=True)
class Mesh:
    """Triangulation with positively oriented triangles; ``areas``, the
    signed triangle areas, are computed unless given, and given ones must
    equal ``_signed_areas`` bit for bit."""

    vertices: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.areas is None:
            object.__setattr__(self, "areas", _signed_areas(self.vertices, self.triangles))

    @property
    def area(self) -> float:
        return float(np.sum(self.areas))

    @functools.cached_property
    def boundary_edges(self) -> np.ndarray:
        """Vertex-index pairs (i < j) of the edges adjacent to exactly one
        triangle, found on first read."""
        # sorted (i, j) edges keyed as i * n + j; boundary edges occur once
        n = int(self.triangles.max()) + 1
        pairs = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = pairs.min(axis=1) * n + pairs.max(axis=1)
        unique, counts = np.unique(keys, return_counts=True)
        once = unique[counts == 1]
        return np.stack([once // n, once % n], axis=1)


def _orient_and_wrap(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    areas = _signed_areas(vertices, triangles)
    flip = areas < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    # swapping two vertices negates the signed area exactly
    areas[flip] = -areas[flip]
    return Mesh(vertices, triangles, areas)


# ---------------------------------------------------------------------------
# mesh generators
# ---------------------------------------------------------------------------

# the most vertices a mesh may have, counted before any array is built
MESH_MAX_VERTICES = 2**22


def _within_budget(vertices: float, h: float) -> None:
    # written to fail on an infinite or NaN count
    if not vertices <= MESH_MAX_VERTICES:
        raise InvalidSpecError(
            f"the mesh at h = {h} needs about {vertices:.3g} vertices, "
            f"over the limit of {MESH_MAX_VERTICES}"
        )


def _disk_vertices(h: float, radius: float = 1.0):
    """The centre, then ring ``i = 1 .. rings`` of radius ``radius i / rings``
    with ``count_i`` equally spaced vertices from angle 0; ``ring_index``
    lists each ring's (first vertex, count)."""
    ratio = radius / h
    _within_budget(np.pi * ratio * ratio, h)
    rings = max(2, int(round(ratio)))
    r = radius * np.arange(1, rings + 1) / rings
    counts = np.maximum(6, np.round(2.0 * np.pi * r / h).astype(np.int64))
    starts = np.cumsum(counts) - counts + 1
    ring = np.repeat(np.arange(rings), counts)
    k = np.arange(len(ring)) - (starts - 1)[ring]
    theta = 2.0 * np.pi * k / counts[ring]
    verts = np.zeros((len(ring) + 1, 2))
    verts[1:, 0] = r[ring] * np.cos(theta)
    verts[1:, 1] = r[ring] * np.sin(theta)
    return verts, list(zip(starts.tolist(), counts.tolist()))


def _disk_triangles(ring_index):
    start0, count0 = ring_index[0]
    j = np.arange(count0)
    tris = [np.stack([np.zeros_like(j), start0 + j, start0 + (j + 1) % count0], 1)]
    for (sa, ka), (sb, kb) in zip(ring_index[:-1], ring_index[1:]):
        # walk both rings by angle: each step advances the ring whose next
        # vertex comes first (ring a on ties) and closes one triangle
        ang_a = 2.0 * np.pi * np.arange(ka) / ka
        ang_b = 2.0 * np.pi * np.arange(kb) / kb
        nxt = np.concatenate([ang_a[1:], [ang_a[0] + 2.0 * np.pi],
                              ang_b[1:], [ang_b[0] + 2.0 * np.pi]])
        step_a = np.argsort(nxt, kind="stable") < ka
        ia = np.cumsum(step_a) - step_a
        ib = np.cumsum(~step_a) - ~step_a
        third = np.where(step_a, sa + (ia + 1) % ka, sb + (ib + 1) % kb)
        tris.append(np.stack([sa + ia % ka, sb + ib % kb, third], 1))
    return np.concatenate(tris).astype(np.int64)


def _disk_mesh(h: float, radius: float = 1.0) -> Mesh:
    verts, rings = _disk_vertices(h, radius)
    return _orient_and_wrap(verts, _disk_triangles(rings))


def _rectangle_mesh(a: float, b: float, h: float) -> Mesh:
    _within_budget((a / h + 1.0) * (b / h + 1.0), h)
    nx = max(2, int(round(a / h)))
    ny = max(2, int(round(b / h)))
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([xg.ravel(), yg.ravel()], axis=1)

    # cell (i, j) has lower-left vertex i * (ny + 1) + j and two triangles
    v00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    v10, v01 = v00 + ny + 1, v00 + 1
    tris = np.stack([v00, v10, v10 + 1, v00, v10 + 1, v01], 1).reshape(-1, 3)
    return _orient_and_wrap(verts, tris)


def _conformal_mesh(domain: ConformalDomain, h: float) -> Mesh:
    # push a disk mesh through the map; derivative bounds keep quality
    scale = float(np.max(np.abs(domain.derivative(
        np.exp(1j * np.linspace(0, 2 * np.pi, 256))
    ))))
    # the map keeps orientation, so one pass orients the mapped triangles
    verts, rings = _disk_vertices(h / max(scale, 1.0))
    w = domain.map(verts[:, 0] + 1j * verts[:, 1])
    return _orient_and_wrap(np.stack([w.real, w.imag], axis=1), _disk_triangles(rings))


def two_disk_area(eps: float, neck_length: float) -> float:
    """Exact area of two unit disks joined by a passage of width ``eps``.

    Disk centers sit at (+-(1 + L/2), 0); the passage is the strip |y| <
    eps/2 extended into each disk up to the chord where the circles cross
    y = +-eps/2, so the union is Lipschitz.  Area = two disks + strip -
    two circular-segment overlaps.
    """
    delta = neck_length / 2.0
    t = 1.0 - np.sqrt(1.0 - eps**2 / 4.0)
    alpha = np.arcsin(eps / 2.0)
    strip = 2.0 * (delta + t) * eps
    lens = alpha - np.sin(alpha) * np.cos(alpha)
    return float(2.0 * np.pi + strip - 2.0 * lens)


def _two_disk_signed(eps: float, neck_length: float, pts: np.ndarray):
    delta = neck_length / 2.0
    t = 1.0 - np.sqrt(1.0 - eps**2 / 4.0)
    x, y = pts[:, 0], pts[:, 1]
    d_left = 1.0 - np.hypot(x + 1.0 + delta, y)
    d_right = 1.0 - np.hypot(x - 1.0 - delta, y)
    d_strip = np.minimum.reduce(
        [eps / 2.0 - y, eps / 2.0 + y, x + delta + t, delta + t - x]
    )
    return np.maximum.reduce([d_left, d_right, d_strip])


# half-width of the boundary band that Qhull triangulates, in mesh sizes
_BAND = 4.0


def _circumcircles(pts: np.ndarray, tris: np.ndarray):
    """Circumcentres and circumradii of the triangles ``tris`` of ``pts``."""
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    ab, ac = b - a, c - a
    d = 2.0 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    nb, nc = np.sum(ab * ab, axis=1), np.sum(ac * ac, axis=1)
    ux = (ac[:, 1] * nb - ab[:, 1] * nc) / d
    uy = (ab[:, 0] * nc - ac[:, 0] * nb) / d
    return a + np.stack([ux, uy], axis=1), np.hypot(ux, uy)


def _two_disk_mesh(eps: float, neck_length: float, h: float) -> Mesh:
    """Delaunay mesh of two unit disks joined by a passage (see ``two_disk_area``).

    The points are the boundary polygon (both arcs, then the passage walls)
    followed by the nodes of an equilateral lattice of spacing ``h`` (rows
    ``h sqrt(3)/2`` apart, odd rows shifted by ``h/2``) that lie deeper than
    ``0.55 h`` inside.  The triangles are those of the Delaunay triangulation
    of all these points whose centroids lie inside, found in two parts.

    ``_two_disk_signed`` is 1-Lipschitz and at most the depth of a point, so
    a disk about ``c`` of radius ``r < sd(c)`` lies inside the domain.

    - Lattice triangles: a triangle of three kept nodes of adjacent rows has
      circumradius ``h/sqrt(3)``, and every other lattice node lies at twice
      that from its circumcentre.  Where ``sd`` of the circumcentre exceeds
      the circumradius by a margin, the circumdisk lies inside the domain,
      so no boundary point lies in or on it either: the circle is empty and
      the triangle is Delaunay in the full point set.
    - Boundary band: Qhull triangulates only the boundary points and the
      nodes with ``sd < _BAND * h``.  A simplex of that set whose centroid
      lies inside and whose circumdisk lies within the band
      (``sd(centre) + radius < _BAND * h``) has an empty circle in the full
      set, because every point of the full set inside that disk belongs to
      the band.  Such a simplex of three lattice nodes is a lattice
      triangle; it is dropped when its centre passes the depth test that
      admits lattice triangles.

    Every kept triangle is then a Delaunay triangle, and none overlap.  The
    union is complete when it triangulates the boundary polygon, whose
    triangle count is ``2 V - B - 2`` for ``V`` vertices, ``B`` of them on
    the boundary; any other count raises ``NumericalFailureError``.
    """
    if eps < 4.0 * h:
        raise NeckTooNarrowError(
            f"passage width {eps} under-resolved at mesh size {h} (need eps >= 4h)"
        )
    # lattice node (j, i) is grid entry j * cols + i
    x_min, x_max = -2.0 - neck_length, 2.0 + neck_length
    row_step = h * np.sqrt(3.0) / 2.0
    _within_budget((2.1 / row_step + 1.0) * ((x_max - x_min) / h + 1.0), h)
    rows = int(2.1 / row_step) + 1
    cols = int((x_max - x_min) / h) + 1
    delta = neck_length / 2.0
    t = 1.0 - np.sqrt(1.0 - eps**2 / 4.0)
    alpha = np.arcsin(eps / 2.0)
    cx = 1.0 + delta

    n_arc = max(16, int(round((2.0 * np.pi - 2.0 * alpha) / h)))
    ang = np.linspace(-(np.pi - alpha), np.pi - alpha, n_arc + 1)
    right = np.stack([cx + np.cos(ang), np.sin(ang)], axis=1)
    left = np.stack([-right[:, 0], right[:, 1]], axis=1)

    x_end = delta + t
    n_seg = max(2, int(round(2.0 * x_end / h)))
    xs = np.linspace(-x_end, x_end, n_seg + 1)[1:-1]
    top = np.stack([xs, np.full_like(xs, eps / 2.0)], axis=1)
    bottom = np.stack([xs, np.full_like(xs, -eps / 2.0)], axis=1)
    boundary = np.concatenate([right, left, top, bottom])
    nb = len(boundary)

    row = np.arange(rows)
    y = -1.02 + row * row_step
    offset = (row % 2) * h / 2.0
    xr = (x_min + offset)[:, None] + h * np.arange(cols)
    grid = np.stack([xr.ravel(), np.repeat(y, cols)], axis=1)
    depth = _two_disk_signed(eps, neck_length, grid)
    kept = depth > 0.55 * h
    index = np.cumsum(kept) + (nb - 1)
    pts = np.concatenate([boundary, grid[kept]])

    # triangles on rows j and j + 1 with their base on row j, then on j + 1
    j, i = np.arange(rows - 1)[:, None], np.arange(cols - 1)
    s = j % 2
    g = j * cols + i
    lattice = np.stack([
        np.stack([g, g + 1, g + cols + s], axis=-1),
        np.stack([g + cols, g + cols + 1, g + 1 - s], axis=-1),
    ]).reshape(-1, 3)
    lattice = lattice[np.all(kept[lattice], axis=1)]
    # the centroid of an equilateral triangle is its circumcentre
    centres = grid[lattice].mean(axis=1)
    radius = h / np.sqrt(3.0)
    lattice = index[lattice[
        _two_disk_signed(eps, neck_length, centres) > radius * (1.0 + 1e-6)
    ]]

    from scipy.spatial import Delaunay

    band = _BAND * h
    near = np.concatenate([np.arange(nb), index[kept & (depth < band)]])
    near_pts = pts[near]
    simplices = Delaunay(near_pts).simplices
    centroids = near_pts[simplices].mean(axis=1)
    simplices = simplices[_two_disk_signed(eps, neck_length, centroids) > 1e-12]
    centres, radii = _circumcircles(near_pts, simplices)
    sd = _two_disk_signed(eps, neck_length, centres)
    # a simplex of three lattice nodes with an empty circle is a lattice
    # triangle; drop it where the lattice test above admitted it
    in_lattice = np.all(simplices >= nb, axis=1) & (sd > radii * (1.0 + 1e-6))
    simplices = near[simplices[(sd + radii < band) & ~in_lattice]]

    n = len(pts)
    triangles = np.concatenate([lattice, simplices])
    expected = 2 * n - nb - 2
    if len(triangles) != expected:
        raise NumericalFailureError(
            f"two-disk mesh has {len(triangles)} triangles, a triangulation of its "
            f"{n} vertices ({nb} on the boundary) has {expected}"
        )
    return _orient_and_wrap(pts, triangles)


_POSITIVE = (lambda v: 0.0 < v < np.inf, "finite and positive")


def _parameter(spec: dict, key: str, default, accept, rule: str) -> float:
    """``spec[key]`` (or ``default`` if given and the key is absent) as a
    float that ``accept`` admits; anything else, a boolean included, is an
    ``InvalidSpecError``."""
    raw = spec[key] if default is None else spec.get(key, default)
    try:
        value = float("nan") if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError):
        value = float("nan")
    if not accept(value):
        raise InvalidSpecError(f"{spec['kind']} {key} must be {rule}, got {raw!r}")
    return value


def build_mesh(spec, h: float) -> Mesh:
    """Mesh one of the supported domain specs at target edge size ``h``.

    ``spec`` is a dict with a ``kind`` key: ``disk`` (radius), ``rectangle``
    (a, b), ``conformal`` (coeffs), or ``two_disks_neck`` (eps, neck_length).
    A ``ConformalDomain`` may be passed directly.  A mesh of more than
    ``MESH_MAX_VERTICES`` vertices raises ``InvalidSpecError`` before any
    array is built: pi rings^2 count for a disk or conformal mesh,
    (nx + 1)(ny + 1) for a rectangle, and rows x cols for the whole
    ``two_disks_neck`` lattice, which is built before it is filtered.
    """
    # an int past the float range is no finite mesh size either
    if (isinstance(h, bool) or not isinstance(h, (int, float))
            or not 0.0 < h <= sys.float_info.max):
        raise InvalidSpecError(f"mesh size must be positive and finite, got {h!r}")
    if isinstance(spec, ConformalDomain):
        return _conformal_mesh(spec, h)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidSpecError(f"malformed domain spec: {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "disk":
            return _disk_mesh(h, _parameter(spec, "radius", 1.0, *_POSITIVE))
        if kind == "rectangle":
            a, b = (_parameter(spec, key, None, *_POSITIVE) for key in "ab")
            return _rectangle_mesh(a, b, h)
        if kind == "conformal":
            return _conformal_mesh(ConformalDomain.from_pairs(spec["coeffs"]), h)
        if kind == "two_disks_neck":
            return _two_disk_mesh(
                _parameter(spec, "eps", None, lambda v: 0.0 < v < 2.0, "in (0, 2)"),
                _parameter(spec, "neck_length", 0.2,
                           lambda v: 0.0 <= v < np.inf, "finite and non-negative"),
                h,
            )
    except KeyError as exc:
        raise InvalidSpecError(f"{kind} spec lacks parameter {exc}") from None
    raise InvalidSpecError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# assembly and eigensolve
# ---------------------------------------------------------------------------

def assemble(mesh: Mesh):
    """Sparse stiffness and consistent mass matrices for P1 elements.

    Constants lie in the stiffness kernel (row sums vanish) and the total
    mass equals the mesh area.

    Memory: the 9 entries of each of the ``T`` element matrices go in one
    (9, T) float buffer, entry ``(i, j)`` in row ``3 i + j``, with int32 row
    and column indices, 144 bytes per triangle in all.  The buffer holds the
    stiffness entries, the gradients are dropped, the buffer becomes K; then
    it is refilled with the mass entries and becomes M.  Later stages hold K,
    M, the SuperLU factor of ``K - sigma M`` and the Lanczos basis, and the
    factor is the largest.
    """
    import scipy.sparse as sparse

    v = mesh.vertices
    t = mesh.triangles
    area = mesh.areas
    if np.any(area <= 0.5e-16):
        raise DegenerateTriangleError("triangle with non-positive area")
    n, count = len(v), len(t)
    corners = t.T.astype(np.int32, copy=False)
    rows = np.repeat(corners, 3, axis=0).ravel()
    cols = np.tile(corners, (3, 1)).ravel()
    del corners
    vals = np.empty((9, count))

    # gradient of the barycentric coordinate i, times twice the area
    x, y = v[:, 0][t.T], v[:, 1][t.T]
    gx = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    gy = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    del x, y
    quad = 4.0 * area
    for i in range(3):
        for j in range(i, 3):
            out = vals[3 * i + j]
            np.multiply(gx[i], gx[j], out=out)
            out += gy[i] * gy[j]
            out /= quad
            vals[3 * j + i] = out
    del gx, gy, quad
    stiffness = sparse.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsc()

    vals[:] = area / 12.0
    vals[[0, 4, 8]] *= 2.0
    mass = sparse.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsc()
    return stiffness, mass


@dataclass(frozen=True)
class SpectralResult:
    """Ascending Neumann eigenvalues with the kernel mode dropped.

    ``eigenvalues[0]`` is the numerically zero constant mode; ``products``
    are the scale-invariant values mu_i * area.  ``residuals`` are the
    relative residuals of the generalized problem per mode, ``solves`` the
    number of shift-invert solves Lanczos made and ``factor_nnz`` the
    entries SuperLU stores for the L and U factors of ``K - sigma M``
    (``SuperLU.nnz``: supernodal storage, counting the explicit zeros of
    relaxed supernodes).
    """

    eigenvalues: np.ndarray
    area: float
    h: float
    residuals: np.ndarray
    solves: int
    factor_nnz: int

    @property
    def products(self) -> np.ndarray:
        return self.eigenvalues * self.area

    def mu(self, i: int) -> float:
        return float(self.eigenvalues[i])

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "area": self.area,
            "h": self.h,
            "products": [float(x) for x in self.products],
            "residuals": [float(x) for x in self.residuals],
            "solves": self.solves,
            "factor_nnz": self.factor_nnz,
        }


# vertices per leaf cell of the dissection, and a depth cap that keeps the
# cell codes inside int64
_LEAF = 32
_LEVELS = 40


def _dissection_order(mesh: Mesh) -> np.ndarray:
    """Geometric nested-dissection order of the mesh vertices.

    The bounding box is halved along its longer side, recursively, until a
    cell holds at most ``_LEAF`` vertices.  The left (lower) endpoints of the
    edges a cut crosses form the separator of that cut, ordered after both
    halves: with it removed the halves share no edge, so their blocks of the
    factor fill in apart.  ``order[i]`` is the old index of new vertex ``i``.
    """
    v = mesh.vertices
    n = len(v)
    lo = v.min(axis=0)
    size = np.maximum(v.max(axis=0) - lo, 1e-300)
    # the halves of a box are congruent, so one level cuts every cell along
    # the same axis; bit d of a vertex's code is its side of the level-d cut
    axes, cell = [], size.copy()
    for _ in range(_LEVELS):
        axes.append(int(cell[1] > cell[0]))
        cell[axes[-1]] /= 2.0
    bits = [axes.count(0), axes.count(1)]
    grid = [
        np.minimum(((v[:, a] - lo[a]) / size[a] * 2.0 ** bits[a]).astype(np.int64),
                   2 ** bits[a] - 1)
        for a in (0, 1)
    ]
    code = np.zeros(n, dtype=np.int64)
    taken = [0, 0]
    for a in axes:
        taken[a] += 1
        code = 2 * code + ((grid[a] >> (bits[a] - taken[a])) & 1)

    # leaf depth: the number of levels whose cell holds more than _LEAF
    # vertices; sorted by code, every cell is a contiguous run
    by_code = np.argsort(code, kind="stable")
    sorted_code = code[by_code]
    depth = np.zeros(n, dtype=np.int64)
    for d in range(_LEVELS):
        starts = np.flatnonzero(np.diff(sorted_code >> (_LEVELS - d), prepend=-1))
        sizes = np.diff(starts, append=n)
        split = np.repeat(sizes > _LEAF, sizes)
        if not split.any():
            break
        depth[by_code[split]] += 1
    shift = _LEVELS - depth
    code = code >> shift << shift

    # an edge between two leaves crosses the cut at their first differing
    # bit; its lower endpoint joins that cut's separator unless it already
    # sits in a separator higher up.  One triangle side at a time keeps the
    # transients at a few int64 per triangle.
    node_depth = depth.copy()
    t = mesh.triangles
    for a, b in ((0, 1), (1, 2), (2, 0)):
        cu, cv = code[t[:, a]], code[t[:, b]]
        cut = np.flatnonzero(cu != cv)
        cu, cv = cu[cut], cv[cut]
        lower = np.where(cu < cv, t[cut, a], t[cut, b])
        level = _LEVELS - np.frexp((cu ^ cv).astype(float))[1].astype(np.int64)
        np.minimum.at(node_depth, lower, level)

    # post-order: a vertex goes with the end of its node's code range, and a
    # shallower node (a separator) after the deeper ones ending there
    shift = _LEVELS - node_depth
    end = ((code >> shift) + 1) << shift
    return np.lexsort((-node_depth, end))


def _relabelled(mesh: Mesh, perm: np.ndarray) -> Mesh:
    """``mesh`` with old vertex ``perm[i]`` as vertex ``i`` and its triangles
    sorted by their lowest new label, which keeps the assembly's scatter into
    the sparse matrices local.  The labels are int32, and the areas are those
    of ``mesh`` in the new triangle order."""
    rank = np.empty(len(perm), dtype=np.int32)
    rank[perm] = np.arange(len(perm), dtype=np.int32)
    triangles = rank[mesh.triangles]
    order = np.argsort(triangles.min(axis=1), kind="stable")
    return Mesh(mesh.vertices[perm], triangles[order], mesh.areas[order])


# largest relative residual of an accepted eigenpair
_RESIDUAL_TOL = 1e-8


def neumann_eigs(mesh: Mesh, k: int = 2, h: float = float("nan")) -> SpectralResult:
    """Smallest k+1 Neumann eigenvalues by shift-invert Lanczos.

    Deterministic all-ones start vector; the shift sits just below zero so
    the constant mode comes out first.  The unknowns are relabelled in
    geometric nested-dissection order (``_dissection_order``), and
    ``K - sigma M``, symmetric positive definite for sigma < 0, is factored
    once by SuperLU in that order as a symmetric LU with diagonal pivots;
    every Lanczos step solves with that factor.  A relative residual of
    the generalized problem above ``_RESIDUAL_TOL`` raises
    ``EigSolveError``, as does a Lanczos run that does not converge.
    """
    if not 1 <= k < len(mesh.vertices) - 1:
        raise InvalidInputError(
            f"need 1 <= k < vertices - 1 = {len(mesh.vertices) - 1}, got {k}"
        )
    import scipy.sparse as sparse
    import scipy.sparse.linalg as spla

    stiffness, mass = assemble(_relabelled(mesh, _dissection_order(mesh)))
    n = stiffness.shape[0]
    scale = float(stiffness.diagonal().mean())
    sigma = -1e-8 * scale
    # K and M come from the same index arrays, so they share one sparsity
    # pattern and K - sigma M is a pass over their values
    lu = spla.splu(
        sparse.csc_matrix(
            (stiffness.data - sigma * mass.data, stiffness.indices, stiffness.indptr),
            shape=(n, n),
        ),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    try:
        vals, vecs = spla.eigsh(
            stiffness,
            k=k + 1,
            M=mass,
            sigma=sigma,
            which="LM",
            v0=np.ones(n),
            maxiter=2000,
            OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float),
        )
    except spla.ArpackNoConvergence as exc:
        raise EigSolveError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    residuals = []
    for i in range(len(vals)):
        v = vecs[:, i]
        r = stiffness @ v - vals[i] * (mass @ v)
        residuals.append(np.linalg.norm(r) / max(np.linalg.norm(mass @ v), 1e-300))
    residuals = np.asarray(residuals)
    if not np.all(residuals <= _RESIDUAL_TOL):
        raise EigSolveError(
            f"shift-invert Lanczos residual {residuals.max():.3g} above {_RESIDUAL_TOL:g}"
        )
    return SpectralResult(
        eigenvalues=vals,
        area=mesh.area,
        h=h,
        residuals=residuals,
        solves=solves,
        factor_nnz=int(lu.nnz),
    )


# a product may exceed its bound by this fraction (the FEM tolerance) and
# still count as holding
FEM_TOLERANCE = 0.02


def bound_checks(result: SpectralResult) -> list[dict]:
    """The inequality record of each ``specfun.product_bounds`` bound on
    ``mu_k * area``, holding within ``FEM_TOLERANCE``."""
    return [
        inequality(tag, result.mu(k) * result.area, bound, FEM_TOLERANCE)
        for tag, k, bound in product_bounds()
    ]


def verify_corpus(specs, h: float = 0.02) -> dict:
    """Sweep a corpus of domain specs and tabulate the eigenvalue products.

    Each row reports mu_1 * area, mu_2 * area, the ``bound_checks`` records
    under ``inequalities`` and their verdicts as ``szego_ok``,
    ``two_disk_ok`` and ``polya_k2_ok``.  A spec that raises a
    ``CapfoldError`` lands in ``failures`` (name -> repr) and ``errors``
    (name -> exception) without aborting the sweep; any other exception is
    a bug and propagates.  A name that an earlier spec already used gets
    the first free count (``disk``, ``disk#2``, ...), so every row and
    failure keeps its own key.  ``all_ok``: every record holds, no spec failed.
    """
    rows = []
    errors = {}
    used = set()
    for spec in specs:
        base = spec.get("name", spec.get("kind", "domain")) if isinstance(spec, dict) else "conformal"
        name, count = base, 1
        while name in used:
            count += 1
            name = f"{base}#{count}"
        used.add(name)
        try:
            spec_h = spec.get("h", h) if isinstance(spec, dict) else h
            mesh = build_mesh(spec, spec_h)
            res = neumann_eigs(mesh, k=2, h=spec_h)
            checks = bound_checks(res)
            row = {
                "name": name,
                "h": spec_h,
                "area": res.area,
                "mu1": res.mu(1),
                "mu2": res.mu(2),
                "mu1_area": checks[0]["value"],
                "mu2_area": checks[1]["value"],
                "inequalities": checks,
            }
            for q in checks:
                row[q["tag"].replace("-", "_") + "_ok"] = q["holds"]
            rows.append(row)
        except CapfoldError as exc:
            errors[name] = exc
    return {
        "bounds": {tag: bound for tag, _, bound in product_bounds()},
        "tolerance": FEM_TOLERANCE,
        "rows": rows,
        "failures": {name: repr(exc) for name, exc in errors.items()},
        "errors": errors,
        "all_ok": all(q["holds"] for r in rows for q in r["inequalities"]) and not errors,
    }


def parse_domain_spec(token: str) -> dict:
    """Parse a CLI shorthand like ``disk``, ``square``, ``rectangle:2x1``,
    ``two_disks:0.1,0.2`` or a JSON object string."""
    token = token.strip()
    if token.startswith("{"):
        return json.loads(token)
    if token == "disk":
        return {"kind": "disk", "radius": 1.0, "name": "disk"}
    if token == "square":
        return {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"}
    try:
        if token.startswith("rectangle:"):
            a, b = token.split(":", 1)[1].split("x")
            return {
                "kind": "rectangle",
                "a": float(a),
                "b": float(b),
                "name": token,
            }
        if token.startswith("two_disks:"):
            eps, length = token.split(":", 1)[1].split(",")
            return {
                "kind": "two_disks_neck",
                "eps": float(eps),
                "neck_length": float(length),
                "name": token,
            }
    except ValueError:
        raise InvalidSpecError(f"malformed domain spec {token!r}") from None
    raise InvalidSpecError(f"cannot parse domain spec {token!r}")
