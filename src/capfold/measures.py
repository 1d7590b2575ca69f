"""Discrete quadrature-atom measures on the closed unit disk and unit n-sphere.

A measure is a finite set of weighted atoms.  Disk atoms are stored as
complex numbers, sphere atoms as rows of a column-major (N, n+1) array.
Weights are never normalized implicitly: total mass is semantic (for a
conformal pullback it equals the image area).
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    GridMismatchError,
    InvalidInputError,
    NegativeDensityError,
    SpaceMismatchError,
    UnivalenceError,
)
from .specfun import J1_AT_ZETA, find_zeta, gauss_legendre, j1_over_x

__all__ = [
    "QuadratureRule",
    "DiscreteMeasure",
    "DirectionForm",
    "ConformalDomain",
    "disk_quadrature",
    "disk_grid",
    "sphere_rule",
    "sphere_quadrature",
    "pullback_measure",
    "coordinate_values",
    "moment_vector",
    "direction_form",
    "measure_distance",
    "measure_to_json",
    "measure_from_json",
]

_BOUNDARY_SLACK = 1e-9

# sums over atoms walk row blocks of this many floats, so that no pass
# builds a temporary as long as the measure
_BLOCK_FLOATS = 2**16


def _row_blocks(rows: int, columns: int):
    step = _BLOCK_FLOATS // max(columns, 1)
    return [slice(start, start + step) for start in range(0, max(rows, 1), step)]


def _atom_blocks(x):
    # the row blocks of sphere atoms; 1-D disk atoms and a single sphere
    # point are one block
    return _row_blocks(*x.shape) if x.ndim == 2 else [...]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Read-only atoms ``points`` and base ``weights``, shared per shape.

    A polar rule (``disk_grid``) also holds its Gauss-Legendre ``radii``,
    their ``radial_weights`` and its ``shape`` (n_r, n_theta).  The atoms
    pass the ``DiscreteMeasure`` checks once, when the rule is built.
    """

    points: np.ndarray
    weights: np.ndarray
    radii: np.ndarray | None = None
    radial_weights: np.ndarray | None = None
    shape: tuple | None = None

    def __post_init__(self):
        DiscreteMeasure("disk" if np.iscomplexobj(self.points) else "sphere",
                        self.points, self.weights)
        for arr in (self.points, self.weights, self.radii, self.radial_weights):
            if arr is not None:
                arr.flags.writeable = False

    @functools.cached_property
    def columns(self):
        """The J1 columns X_{e1}, X_{e2} at the atoms of a disk rule, one
        (N, 2) array, computed once and read-only like the atoms."""
        cols = _disk_xy_factors(self.points)
        cols.flags.writeable = False
        return cols


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms on the closed disk or the unit n-sphere.

    Parameters
    ----------
    space : str
        Either ``"disk"`` or ``"sphere"``.
    points : ndarray
        Complex array of shape (N,) for the disk; float array of shape
        (N, n+1) for the sphere, stored column-major (Fortran order).
    weights : ndarray
        Nonnegative weights, one per atom.
    rule : QuadratureRule, optional
        The rule whose own array ``points`` must be (else ``GridMismatchError``);
        those atoms were checked when the rule was built, and are not again.

    Sphere atoms keep one row per atom, but each coordinate is a contiguous
    column: with only n+1 = 4 or 6 floats per row, row-major storage runs
    every elementwise op and row reduction of the fold, transport and
    balancing kernels as N short inner loops, while column-major storage
    runs them as n+1 long ones.  The kernels that build sphere atoms keep
    this layout, so constructing a measure from their output copies nothing.
    Sums over atoms walk row blocks (``_row_blocks``) of 2^16 floats.
    """

    space: str
    points: np.ndarray
    weights: np.ndarray
    rule: QuadratureRule | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.space == "sphere":
            points = np.asfortranarray(self.points, dtype=float)
        else:
            points = np.asarray(self.points, dtype=complex)  # keeps a rule's own array
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.space not in ("disk", "sphere"):
            raise InvalidInputError(f"unknown space {self.space!r}")
        if points.ndim != (1 if self.space == "disk" else 2):
            raise InvalidInputError(f"{self.space} atoms cannot have shape {points.shape}")
        if self.weights.shape != points.shape[:1]:
            raise InvalidInputError(f"{self.weights.shape} weights, {len(points)} atoms")
        if self.rule is not None and points is not self.rule.points:
            raise GridMismatchError("atoms are not the rule's own array")
        # each check is written to fail on NaN
        if not np.all(self.weights >= 0):
            raise NegativeDensityError("atom weights must be nonnegative")
        if self.rule is None and self.space == "disk":
            if not np.all(np.abs(points) <= 1.0 + _BOUNDARY_SLACK):
                raise InvalidInputError("disk atoms must lie in the closed unit disk")
        elif self.rule is None:
            for rows in _row_blocks(*points.shape):
                x = points[rows]
                norms = np.sqrt(np.einsum("ij,ij->i", x, x))
                if not np.all(np.abs(norms - 1.0) <= 1e-9):
                    raise InvalidInputError("sphere atoms must lie on the unit sphere")

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def sphere_dim(self) -> int:
        """Dimension n of the sphere (points live in R^(n+1)); 1 for the disk."""
        if self.space == "disk":
            return 1
        return self.points.shape[1] - 1

    @property
    def ambient_dim(self) -> int:
        """Number of coordinate directions: 2 on the disk, n+1 on the sphere."""
        return 2 if self.space == "disk" else self.points.shape[1]

    def with_points(self, points) -> "DiscreteMeasure":
        """Same weights, new atom positions (e.g. after a pushforward).

        Transported atoms no longer sit on any quadrature rule, so the rule
        is dropped.
        """
        return DiscreteMeasure(self.space, points, self.weights)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.space, self.points, self.weights * factor, self.rule)

    def same_space(self, other: "DiscreteMeasure") -> bool:
        return (
            self.space == other.space and self.ambient_dim == other.ambient_dim
        )


@functools.cache
def disk_grid(n_r: int = 96, n_theta: int = 192) -> QuadratureRule:
    """Standard polar rule: Gauss-Legendre radii x uniform angles.

    Its weights already contain the r dr dtheta area element, so that a
    density-1 measure has total mass pi.  Built once per shape and shared
    by every measure on it, as are its cached J1 columns.
    """
    if n_r < 4 or n_theta < 4:
        raise InvalidInputError(f"need n_r, n_theta >= 4, got {n_r}, {n_theta}")
    x, wx = gauss_legendre(n_r)
    radii = 0.5 * (x + 1.0)
    wr = 0.5 * wx
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    r_mat, th_mat = np.meshgrid(radii, theta, indexing="ij")
    points = (r_mat * np.exp(1j * th_mat)).ravel()
    base = np.outer(radii * wr, np.full(n_theta, 2.0 * np.pi / n_theta)).ravel()
    return QuadratureRule(points, base, radii, wr, (n_r, n_theta))


def disk_quadrature(n_r: int, n_theta: int, density=None) -> DiscreteMeasure:
    """Tensor quadrature measure with the given density on the unit disk.

    ``density`` is a callable taking a complex array; ``None`` means the
    uniform density 1 (Lebesgue measure, mass pi).
    """
    rule = disk_grid(n_r, n_theta)
    if density is None:
        weights = rule.weights
    else:
        values = np.asarray(density(rule.points), dtype=float)
        if np.any(values < 0):
            raise NegativeDensityError("density is negative on the grid")
        weights = rule.weights * values
    return DiscreteMeasure("disk", rule.points, weights, rule)


@functools.cache
def sphere_rule(n: int, resolution: int = 24) -> QuadratureRule:
    """Product-angle rule for the round measure on the unit n-sphere.

    Gauss-Legendre in the polar angles, uniform in the final azimuthal one;
    built once per (n, resolution) and shared.  The weights carry the
    sin^(n-1-k) factors of the polar angles, which are not polynomials in
    the angle, so the total mass is not exactly omega_n: its relative error
    decays spectrally in the resolution, from 2.3e-2 at n = 3, resolution 3
    to 4.9e-13 at n = 5, resolution 12.
    """
    if n < 1 or resolution < 1:
        raise InvalidInputError(f"need n, resolution >= 1, got {n}, {resolution}")
    x, w = gauss_legendre(resolution)
    m_az = 2 * resolution
    az = 2.0 * np.pi * np.arange(m_az) / m_az
    az_w = np.full(m_az, 2.0 * np.pi / m_az)

    # 1-D factors broadcast along their axes, with no full grid per angle
    polar = [(-1,) + (1,) * (n - 1 - k) for k in range(n - 1)]
    angles = [(0.5 * np.pi * (x + 1.0)).reshape(axis) for axis in polar] + [az]
    factors = [(0.5 * np.pi * w).reshape(axis) for axis in polar] + [az_w]

    # one coordinate per leading index, so that the transpose of the
    # flattened array holds the atoms column-major
    shape = (resolution,) * (n - 1) + (m_az,)
    coords = np.empty((n + 1,) + shape, dtype=float)
    sin_prod = 1.0
    for k, angle in enumerate(angles):
        np.multiply(sin_prod, np.cos(angle), out=coords[k])
        sin_prod = sin_prod * np.sin(angle)
    coords[n] = sin_prod
    del sin_prod

    weight = 1.0
    for k in range(n - 1):
        weight = weight * np.sin(angles[k]) ** (n - 1 - k)
    for factor in factors:
        weight = weight * factor

    return QuadratureRule(coords.reshape(n + 1, -1).T, weight.ravel())


def sphere_quadrature(n: int, resolution: int = 24) -> DiscreteMeasure:
    """The round measure on the unit n-sphere, on the rule ``sphere_rule``."""
    rule = sphere_rule(n, resolution)
    return DiscreteMeasure("sphere", rule.points, rule.weights, rule)


@dataclass(frozen=True)
class ConformalDomain:
    """Simply-connected planar domain given as a polynomial image of the disk.

    The map is z -> sum_k coeffs[k-1] z^k with coeffs[0] = c1 != 0.  The
    cheap univalence certificate sum_{k>=2} k |c_k| < |c_1| is tried first;
    otherwise the derivative must have no root in the closed disk and the
    boundary polygon must not cross itself.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("map coefficients must be finite")
        if len(c) == 0 or c[0] == 0:
            raise UnivalenceError("leading coefficient c1 must be nonzero")
        if not np.finfo(float).tiny <= self.area < np.inf:
            raise InvalidInputError(f"domain area {self.area} is not a normal float")
        if not self._certificate() and not self._grid_check():
            raise UnivalenceError("could not certify univalence of the map")

    @classmethod
    def from_pairs(cls, pairs) -> "ConformalDomain":
        """The domain whose coefficients are written ``[[re, im], ...]``, as
        in domain documents and corpus specs.

        Anything else raises ``InvalidInputError``, numeric strings and
        booleans included: a document holds numbers.
        """
        parts = _number_rows(pairs, "map coefficients")
        if parts.shape[1] != 2:
            raise InvalidInputError(
                f"map coefficients must be [re, im] pairs, got shape {parts.shape}"
            )
        coeffs = np.empty(len(parts), dtype=complex)
        coeffs.real, coeffs.imag = parts[:, 0], parts[:, 1]
        return cls(coeffs)

    def _certificate(self) -> bool:
        c = self.coeffs
        tail = sum((k + 1) * abs(c[k]) for k in range(1, len(c)))
        return tail < abs(c[0])

    def _grid_check(self) -> bool:
        # a critical point in the closed disk, where the map folds or forms
        # a cusp, is not univalent on the closed disk; the boundary test
        # below misses a self-crossing that falls on polygon vertices
        c = self.coeffs
        slopes = np.arange(len(c), 0, -1) * c[::-1]
        if np.any(np.abs(np.roots(slopes)) <= 1.0):
            return False
        theta = 2.0 * np.pi * np.arange(720) / 720
        bnd = self.map(np.exp(1j * theta))
        return not _polyline_self_intersects(bnd)

    @property
    @np.errstate(over="ignore")
    def area(self) -> float:
        """Area of the image domain: pi * sum k |c_k|^2."""
        c = self.coeffs
        return float(np.pi * sum((k + 1) * abs(c[k]) ** 2 for k in range(len(c))))

    def map(self, z):
        out = np.zeros_like(np.asarray(z, dtype=complex))
        for ck in self.coeffs[::-1]:
            out = (out + ck) * z
        return out

    def derivative(self, z):
        # Horner in place; skipping zero coefficients only moves signs of zeros
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, len(self.coeffs) * self.coeffs[-1])
        for k in range(len(self.coeffs) - 1, 0, -1):
            out *= z
            if self.coeffs[k - 1] != 0:
                out += k * self.coeffs[k - 1]
        return out

    def density(self, z):
        """Pullback area density |phi'(z)|^2."""
        return np.abs(self.derivative(z)) ** 2


def _polyline_self_intersects(pts: np.ndarray) -> bool:
    # O(m^2) segment test on a closed polyline; fine at the resolutions used
    p = np.stack([pts.real, pts.imag], axis=1)
    q = np.roll(p, -1, axis=0)
    m = len(p)
    d = q - p
    for i in range(m):
        js = np.arange(i + 2, m if i > 0 else m - 1)
        if len(js) == 0:
            continue
        r = p[js] - p[i]
        denom = d[i, 0] * d[js, 1] - d[i, 1] * d[js, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (r[:, 0] * d[js, 1] - r[:, 1] * d[js, 0]) / denom
            u = (r[:, 0] * d[i, 1] - r[:, 1] * d[i, 0]) / denom
        hit = (
            np.isfinite(t)
            & np.isfinite(u)
            & (t > 1e-12)
            & (t < 1 - 1e-12)
            & (u > 1e-12)
            & (u < 1 - 1e-12)
        )
        if np.any(hit):
            return True
    return False


def pullback_measure(
    domain: ConformalDomain, n_r: int = 96, n_theta: int = 192
) -> DiscreteMeasure:
    """Disk measure with density |phi'|^2; total mass equals the domain area."""
    return disk_quadrature(n_r, n_theta, domain.density)


def _disk_xy_factors(points: np.ndarray) -> np.ndarray:
    # X_{e1}, X_{e2} at disk points on a last axis: the J1 kernel of every disk moment
    amp = find_zeta() * j1_over_x(find_zeta() * np.abs(points))
    out = np.empty(points.shape + (2,))
    np.multiply(amp, points.real, out=out[..., 0])
    np.multiply(amp, points.imag, out=out[..., 1])
    return out


def disk_coordinate_values(z, s) -> np.ndarray:
    """Disk eigenfunction coordinate X_s(z) = J1(zeta |z|) (z . s)/|z|.

    ``s`` is a complex unit; the J1(x)/x form keeps the origin stable.
    """
    s = complex(s)
    xy = _disk_xy_factors(np.asarray(z, dtype=complex))
    return xy[..., 0] * s.real + xy[..., 1] * s.imag


def coordinate_values(m: DiscreteMeasure, s) -> np.ndarray:
    """Eigenfunction coordinate X_s sampled at the atoms of ``m``.

    Disk: see ``disk_coordinate_values``.  Sphere: X_s(x) = (x, s).
    """
    if m.space == "disk":
        return disk_coordinate_values(m.points, s)
    s = np.asarray(s, dtype=float)
    return m.points @ s


def moment_vector_raw(space: str, points, weights) -> np.ndarray:
    """Moment vector on raw arrays (no measure validation); solver internals."""
    if space == "disk":
        cols = _disk_xy_factors(np.asarray(points, dtype=complex))
        weights = np.asarray(weights, dtype=float)
        return np.array([np.sum(weights * col) for col in cols.T])
    return np.asarray(points, dtype=float).T @ np.asarray(weights, dtype=float)


def moment_vector(m: DiscreteMeasure) -> np.ndarray:
    """First-order moments (integral of X_{e_i}) for each coordinate direction."""
    if m.space == "disk":
        cols = _disk_xy_factors(m.points) if m.rule is None else m.rule.columns
        return np.array([np.sum(m.weights * col) for col in cols.T])
    return moment_vector_raw(m.space, m.points, m.weights)


def moment_scale(m: DiscreteMeasure) -> float:
    """Natural scale of first moments, used to normalize solver residuals."""
    if m.space == "disk":
        return m.total_mass * J1_AT_ZETA
    return m.total_mass


@dataclass(frozen=True)
class DirectionForm:
    """Quadratic form V(s) = integral of X_s^2, with its eigen-structure.

    ``matrix`` is the symmetric moment matrix; ``eig_max`` the top eigenvalue
    M; ``eig_second`` the runner-up m (on the disk simply the other one);
    ``max_direction`` a top unit eigenvector.
    """

    matrix: np.ndarray
    eig_max: float
    eig_second: float
    max_direction: np.ndarray

    @property
    def gap(self) -> float:
        """Relative eigenvalue gap (M - m)/(M + m); zero means multiple."""
        tot = self.eig_max + self.eig_second
        if tot <= 0:
            return 0.0
        return (self.eig_max - self.eig_second) / tot

    def value(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return float(s @ self.matrix @ s)

    def rotated(self, rotation) -> "DirectionForm":
        """The form after the atoms move by the orthogonal matrix ``rotation``:
        matrix R V R^T and top direction R s, with the same eigenvalues."""
        rot = np.asarray(rotation, dtype=float)
        mat = rot @ self.matrix @ rot.T
        return DirectionForm(
            matrix=0.5 * (mat + mat.T),
            eig_max=self.eig_max,
            eig_second=self.eig_second,
            max_direction=rot @ self.max_direction,
        )


def direction_form(m: DiscreteMeasure) -> DirectionForm:
    """Assemble and diagonalize the matrix of second moments of X; on a
    disk measure with a rule, X is the rule's cached (N, 2) columns."""
    if m.space == "disk":
        cols = _disk_xy_factors(m.points) if m.rule is None else m.rule.columns
    else:
        cols = m.points
    return _form_from_columns(cols, m.weights)


def _form_from_columns(cols: np.ndarray, weights: np.ndarray) -> DirectionForm:
    # cols holds the coordinates X_{e_i} at the atoms, one column each
    mat = None
    for rows in _row_blocks(*cols.shape):
        x = cols[rows]
        part = x.T @ (x * weights[rows, None])
        mat = part if mat is None else mat + part
    mat = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(mat)
    return DirectionForm(
        matrix=mat,
        eig_max=float(evals[-1]),
        eig_second=float(evals[-2]),
        max_direction=evecs[:, -1].copy(),
    )


def _dictionary(m: DiscreteMeasure):
    mass = m.total_mass
    vec = moment_vector(m)
    mat = direction_form(m).matrix
    if m.space == "disk":
        radii = np.abs(m.points)
        rad = np.array([np.sum(m.weights * radii**k) for k in (1, 2, 3, 4)])
    else:
        rad = np.zeros(0)
    return mass, vec, mat, rad


def measure_distance(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Moment metric between two measures on the same space.

    The dictionary consists of the coordinate functions X_{e_i}, their
    pairwise products, and low-order radial moments; vector and matrix blocks
    enter through rotation-invariant norms, so the metric commutes exactly
    with isometries of the space.
    """
    if not m1.same_space(m2):
        raise SpaceMismatchError("measures live on different spaces")
    mass1, v1, b1, r1 = _dictionary(m1)
    mass2, v2, b2, r2 = _dictionary(m2)
    parts = [
        abs(mass1 - mass2),
        float(np.linalg.norm(v1 - v2)),
        float(np.linalg.norm(b1 - b2, ord="fro")),
    ]
    if len(r1):
        parts.append(float(np.max(np.abs(r1 - r2))))
    return max(parts)


def _number_rows(rows, what: str) -> np.ndarray:
    """A document's rows ``[[x, ...], ...]`` as a 2-D float array.  The parsed
    values are checked before the array is built: anything but equal-length
    rows of real numbers, numeric strings and booleans included, raises
    ``InvalidInputError``, since a document holds numbers."""
    try:
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        if all(issubclass(k, numbers.Real) and not issubclass(k, bool) for k in kinds):
            table = np.asarray(rows, dtype=float)
            if table.ndim == 2:
                return table
    except (TypeError, ValueError):
        pass
    raise InvalidInputError(f"{what} must be equal-length rows of numbers")


def measure_to_json(m: DiscreteMeasure) -> str:
    """Versioned JSON document {schema, space, n, atoms: [[x..., w], ...]}."""
    points = m.points
    if m.space == "disk":
        points = np.column_stack([points.real, points.imag])
    atoms = [[*map(float, x), float(w)] for x, w in zip(points, m.weights)]
    doc = {
        "schema": 1,
        "space": m.space,
        "n": int(m.sphere_dim),
        "atoms": atoms,
    }
    return json.dumps(doc)


def measure_from_json(text: str) -> DiscreteMeasure:
    """Read a schema-1 measure document as written by ``measure_to_json``.

    A malformed document raises ``InvalidInputError``, and so does one whose
    integer ``n`` is missing or is not the dimension its atoms have.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise InvalidInputError("unsupported measure schema")
    space = doc.get("space")
    atoms = _number_rows(doc.get("atoms"), "measure atoms")
    if atoms.shape[1] < 3 or (space == "disk" and atoms.shape[1] != 3):
        raise InvalidInputError(f"measure atoms have shape {atoms.shape}")
    n = doc.get("n")
    if type(n) is not int or n != (1 if space == "disk" else atoms.shape[1] - 2):
        raise InvalidInputError(
            f"measure n = {n!r} does not match atoms of width {atoms.shape[1]}"
        )
    if space == "disk":
        return DiscreteMeasure(
            "disk", atoms[:, 0] + 1j * atoms[:, 1], atoms[:, 2]
        )
    return DiscreteMeasure(space, atoms[:, :-1], atoms[:, -1])
