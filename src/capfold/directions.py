"""Maximizing-direction analysis: canonical normalization of a measure, the
cap scan locating a multiple cap for simple measures, and the winding /
degree diagnostics that stand in for the topological existence arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .caps import Cap, _rotation_to_e1, _tangent_frame, rearrange
from .exceptions import (
    CapScanError,
    DegenerateFieldError,
    DimensionUnsupportedError,
    EvenDimensionError,
    InvalidInputError,
)
from .measures import DirectionForm, DiscreteMeasure, _row_blocks, direction_form
from .moebius import RenormResult, _disk_matrix, _lft, _scaled_sum, renormalize

__all__ = [
    "CanonicalMap",
    "canonicalize",
    "CapScanResult",
    "scan_caps",
    "winding_diagnostic",
    "sphere_degree_check",
    "sphere_cap_search",
]

SCAN_GAP_TOL = 1e-3
SOLVED_GAP = 1e-10  # a start of the multiple-cap solver ends at this gap
STALL_FACTOR = 0.6  # or after a step that leaves more than this of its gap
# the (r, theta) grid of caps that scan_caps evaluates, and how many times
# it subdivides the cell where the direction field turns
SCAN_R_GRID = np.linspace(-0.8, 0.8, 9)
SCAN_THETA_GRID = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
REFINE_DEPTH = 12


@dataclass(frozen=True)
class CanonicalMap:
    """Balancing point and rotation bringing a measure to canonical position.

    Disk: atoms move by the Moebius map at ``xi`` followed by multiplication
    with ``rotation`` (a unit complex number).  Sphere: the Moebius stage is
    followed by the orthogonal matrix ``rotation``.  ``form`` is the
    direction form of the canonical measure: the balanced measure's form
    rotated, with its eigenvalues as computed before the rotation.
    """

    space: str
    xi: object
    rotation: object
    form: DirectionForm = field(compare=False, repr=False)

    def density(self, base_density):
        """Density of the canonicalized pushforward, for a disk base density."""
        if self.space != "disk":
            raise DimensionUnsupportedError("density transport is a disk feature")
        # undo the rotation, then the Moebius map at xi
        back = _disk_matrix(-complex(self.xi)) @ np.diag([np.conj(self.rotation), 1.0])

        def dens(z):
            w, der = _lft(back, np.asarray(z, dtype=complex))
            return base_density(w) * np.abs(der) ** 2

        return dens


def canonicalize(m: DiscreteMeasure) -> tuple[DiscreteMeasure, CanonicalMap]:
    """Balance the measure, then rotate its maximizing direction onto e1.

    After this both normalization conventions hold: all first moments vanish
    (to ``renormalize``'s default tolerance) and the first coordinate
    direction maximizes the quadratic form.  ``cmap.form`` has the
    eigenvalues of ``renormalize(m).form`` bitwise.
    """
    return _canonical(renormalize(m))


def _canonical(result: RenormResult) -> tuple[DiscreteMeasure, CanonicalMap]:
    balanced, form = result.measure, result.form
    if balanced.space == "disk":
        s = form.max_direction
        angle = np.arctan2(s[1], s[0])
        rot = np.exp(-1j * angle)
        canon = balanced.with_points(rot * balanced.points)
        rmat = np.array([[rot.real, -rot.imag], [rot.imag, rot.real]])
        cmap = CanonicalMap("disk", complex(result.xi), complex(rot), form.rotated(rmat))
    else:
        rmat = _rotation_to_e1(form.max_direction)
        # the product of the column-major points stays column-major
        canon = balanced.with_points((rmat @ balanced.points.T).T)
        cmap = CanonicalMap("sphere", result.xi, rmat, form.rotated(rmat))
    return canon, cmap


# ---------------------------------------------------------------------------
# direction field over caps, winding, and the multiple-cap scan
# ---------------------------------------------------------------------------

def _field(m: DiscreteMeasure, rs, ts):
    """Relative gaps and top axes of ``m`` rearranged at the caps
    (r, e^{it}) for r in ``rs`` and t in ``ts``: arrays of shape
    (len rs, len ts) and (len rs, len ts, 2), one cold ``rearrange`` each."""
    gaps = np.empty((len(rs), len(ts)))
    axes = np.empty((len(rs), len(ts), 2))
    for i, r in enumerate(rs):
        for j, t in enumerate(ts):
            form = rearrange(m, Cap(float(r), np.exp(1j * t), "disk"))[1].form
            gaps[i, j], axes[i, j] = form.gap, form.max_direction
    return gaps, axes


@dataclass
class CapScanResult:
    """Outcome of a multiple-cap search.

    ``cap``/``gap``: the best cap found and its relative eigen-gap;
    ``form``: the direction form of the measure rearranged at ``cap`` (cold
    ``rearrange``), whose gap is ``gap``;
    ``direction_field``: list of (r, theta, s_x, s_y, gap) grid rows, each
    axis (s_x, s_y) signed so that its larger-magnitude component is positive;
    ``winding_numbers``: half-turn counts of the direction field along each
    scanned r-level loop.
    """

    cap: Cap
    gap: float
    form: DirectionForm = field(repr=False)
    direction_field: list = field(default_factory=list)
    winding_numbers: dict = field(default_factory=dict)


def scan_caps(m: DiscreteMeasure) -> CapScanResult:
    """Locate a cap whose rearranged measure is multiple.

    Evaluate the direction field over the ``SCAN_R_GRID`` x
    ``SCAN_THETA_GRID`` grid of caps, which gives the ``direction_field``
    table and the ``winding_numbers``.  Then descend up to ``REFINE_DEPTH``
    3 x 3 levels, each into the cell around which the field makes a half
    turn (such a cell must contain a degeneracy) and, of several, the one
    with the smallest corner gap; the first cell is the grid cell around the
    best grid cap when no grid cell turns.  Then the multiple-cap solver
    shared with ``sphere_cap_search`` (``_first_multiple_cap``) runs from
    the smallest-gap cap of the descent and, unless that reaches gap
    ``SOLVED_GAP``, from the best grid cap too.  Returns the cap with the
    smaller gap, that of a cold ``rearrange`` of it, if below
    ``SCAN_GAP_TOL``; raises ``CapScanError`` with the smallest gap reached
    when both starts end at ``SCAN_GAP_TOL`` or above.
    """
    if m.space != "disk":
        raise DimensionUnsupportedError("scan_caps operates on disk measures")
    r_grid, theta_grid = SCAN_R_GRID, SCAN_THETA_GRID
    gaps, axes = _field(m, r_grid, theta_grid)
    # an axis has no sign: print it with its larger component positive (the
    # first on a tie), not with the sign eigh returns
    lead = np.take_along_axis(axes, np.abs(axes).argmax(axis=-1)[..., None], -1)
    grid = np.stack(np.meshgrid(r_grid, theta_grid, indexing="ij"), axis=-1)
    table = np.dstack([grid, axes * np.sign(lead), gaps])
    rows = list(map(tuple, table.reshape(-1, 5).tolist()))
    turns = np.rint(_loop_rotation(axes) / np.pi).astype(int)
    windings = dict(zip(r_grid.tolist(), turns.tolist()))
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    best_cap = Cap(float(r_grid[i]), np.exp(1j * theta_grid[j]), "disk")

    # the theta loop closes one step past the last grid angle
    dr, dt = r_grid[1] - r_grid[0], theta_grid[1] - theta_grid[0]
    cell = _turning_cell(
        np.concatenate([gaps, gaps[:, :1]], axis=1),
        np.concatenate([axes, axes[:, :1]], axis=1),
        r_grid, np.append(theta_grid, theta_grid[-1] + dt),
    )
    if cell is None:
        rb, tb = float(best_cap.r), float(np.angle(best_cap.p)) % (2 * np.pi)
        cell = (rb - dr / 2, rb + dr / 2, tb - dt / 2, tb + dt / 2)
    refined, refined_gap = None, np.inf
    for _ in range(REFINE_DEPTH):
        rs, ts = np.linspace(*cell[:2], 3), np.linspace(*cell[2:], 3)
        gaps, axes = _field(m, rs, ts)
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        if gaps[i, j] < refined_gap:
            refined_gap = gaps[i, j]
            refined = Cap(float(rs[i]), np.exp(1j * ts[j]), "disk")
        cell = _turning_cell(gaps, axes, rs, ts)
        if cell is None:
            break

    cap, form = _first_multiple_cap(m, [refined, best_cap], SCAN_GAP_TOL)
    return CapScanResult(
        cap=cap, gap=float(form.gap), form=form, direction_field=rows,
        winding_numbers=windings,
    )


def _loop_rotation(directions) -> np.ndarray:
    """Turn of an axis field (directions up to sign) around closed loops
    that run along the second-to-last axis of ``directions``.

    Doubling the angles makes an axis a point of the circle, which
    ``np.unwrap`` lifts; each loop closes back at its first direction.
    """
    s = np.asarray(directions)
    doubled = 2.0 * np.arctan2(s[..., 1], s[..., 0])
    lift = np.unwrap(np.concatenate([doubled, doubled[..., :1]], axis=-1))
    return 0.5 * (lift[..., -1] - lift[..., 0])


def _turning_cell(gaps, axes, rs, ts):
    """Bounds (r_lo, r_hi, t_lo, t_hi) of the cell of the field at (``rs``,
    ``ts``) around whose corners the axes turn by more than a quarter turn,
    the first one with the smallest corner gap; None if no cell turns."""
    f = np.dstack([gaps, axes])
    quads = np.stack([f[:-1, :-1], f[:-1, 1:], f[1:, 1:], f[1:, :-1]], axis=-2)
    turning = np.abs(_loop_rotation(quads[..., 1:])) > np.pi / 2
    if not turning.any():
        return None
    score = np.where(turning, quads[..., 0].min(axis=-1), np.inf)
    i, j = np.unravel_index(np.argmin(score), score.shape)
    return rs[i], rs[i + 1], ts[j], ts[j + 1]


def winding_diagnostic(m: DiscreteMeasure, r: float, n_theta: int = 24) -> int:
    """Half-turn count of the maximizing direction along the loop of
    ``n_theta`` >= 3 caps a_{r, e^{i theta}}.

    A change of winding between two r-levels brackets a multiple cap.  Raises
    ``DegenerateFieldError`` if the eigen-gap vanishes on the loop, where the
    direction (and the count) is meaningless.
    """
    if n_theta < 3:
        raise InvalidInputError(f"a winding loop needs n_theta >= 3, got {n_theta}")
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    (gaps,), (axes,) = _field(m, [r], thetas)
    k = np.argmin(gaps)
    if gaps[k] < 1e-9:
        raise DegenerateFieldError(f"gap {gaps[k]:.2e} on the loop at theta={thetas[k]}")
    return int(round(_loop_rotation(axes) / np.pi))


# ---------------------------------------------------------------------------
# the multiple-cap solver shared by the disk scan and the sphere search
# ---------------------------------------------------------------------------

def _cap_rearrange(m: DiscreteMeasure, r: float, p, start=None):
    cap = Cap(float(r), p, m.space)
    return (cap,) + rearrange(m, cap, start=start)


def _tangents(p) -> np.ndarray:
    """Orthonormal tangent directions at p of the unit circle (p complex,
    tangent i p) or of the unit sphere (rows)."""
    if np.iscomplexobj(p):
        return np.array([1j * p])
    return _tangent_frame(p)


def _compressed_traceless(mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # traceless part of the 2x2 compression onto ``basis``, over its trace;
    # its norm is the relative gap when ``basis`` spans the top eigenspace
    c = basis.T @ mat @ basis
    return np.array([c[0, 0] - c[1, 1], 2.0 * c[0, 1]]) / (c[0, 0] + c[1, 1])


def _difference_jacobian(m, cap, moved, trace, basis, f, tangents):
    """Forward-difference Jacobian (step 1e-5) of ``_compressed_traceless``
    on ``basis`` in r and the tangent of p, for a disk cap: one
    rearrangement per column, each started at the current cap's ``xi_a``,
    a Newton step or two from the nearby cap's balancing point.  ``moved``
    (the current cap's rearranged measure) is not needed."""
    h = 1e-5
    trials = [(cap.r + h, cap.p)] + [
        (cap.r, (cap.p + h * t) / np.linalg.norm(cap.p + h * t)) for t in tangents
    ]
    return np.column_stack([
        (_compressed_traceless(
            _cap_rearrange(m, rk, pk, trace.xi_a)[2].form.matrix, basis
        ) - f) / h
        for rk, pk in trials
    ])


def _sphere_cap_jacobian(m, cap, moved, trace, basis, f, tangents):
    """Closed-form Jacobian of ``_compressed_traceless`` on ``basis`` in r
    and the ``tangents`` of p, for a sphere cap whose rearrangement of
    ``m`` is ``moved``; no trial measure is built.

    Each parameter moves the folded atoms y = (a x + c p) / d outside the
    cap (``moebius._inversion_terms``; on the sphere c = 2 (h - (x, p)))
    by dy = (da x + dc p - dd y) / d, through h = 2r/(1+r^2) for r, and
    leaves the atoms inside where they are.  The balancing point moves by
    dxi = -J^-1 sum w D_y phi[dy], with J = sum w D_xi phi the ball
    Jacobian, and the moved atoms M = phi_xi(y) by
    dM = D_y phi[dy] + D_xi phi[dxi], where, with s = |xi|^2,
    Dn = 1 + 2 (xi, y) + s and atoms on the sphere (|y| = 1, (y, dy) = 0),

        D_y phi[e]  = ((1 - s) e + 2 (xi, e) (xi - M)) / Dn,
        D_xi phi[g] = (-2 (xi, g) y + 2 (g, y) xi + 2 (1 + (xi, y)) g
                       - 2 M ((g, y) + (xi, g))) / Dn.

    The compressed form moves by dC = 2 sym(sum w (U^T dM)(U^T M)^T), so
    dy enters only through its coordinates along U and xi, and every sum
    over the atoms is a product of the atoms with a few vectors.  The sums
    walk row blocks (``measures._row_blocks``) sized to the largest per-atom
    temporary, the 3 (n+1) values (v, dy), so no pass builds an array as
    long as the measure.
    """
    p, h, r = cap.p, cap.height, cap.r
    xi = np.asarray(trace.xi_a, dtype=float)
    s = float(xi @ xi)
    dim = len(xi)
    # coordinates along U_0, U_1, xi, p and the tangents
    frame = np.column_stack([basis, xi])
    coords = np.column_stack([frame, p, tangents.T]).T
    pv, ev = frame.T @ p, frame.T @ tangents.T
    # the fold, from (x, p) alone: outside the cap, scale a/d and shift c/d
    a = (1.0 - h) * (1.0 + h)
    dh = 2.0 * (1.0 - r * r) / (1.0 + r * r) ** 2
    totals = None
    for rows in _row_blocks(len(m.weights), 3 * dim):
        # atoms as columns (contiguous rows of the column-major measures)
        x, w = m.points[rows], m.weights[rows]
        n_atoms = len(w)
        xt, mt = x.T, moved.points[rows].T
        xb = coords @ xt
        xv, xp = xb[:3], xb[3]
        c = 2.0 * (h - xp)
        out = c > 0.0
        inv = out / (a + h * c)
        ce, xe = c * inv, xb[4:] * inv
        y = _scaled_sum(np.where(out, a * inv, 1.0), x, ce, p)
        yt = y.T
        yv = frame.T @ yt
        omega = w / (1.0 + 2.0 * yv[2] + s)
        # (v, dy) for v = U_0, U_1, xi (first index) and each parameter
        # (second): dy = dh (-2 h x + 2 p - c y) / d along r
        # (dd/dh = 2 h - 2 (x, p) = c), dy = (x, e_k) (2 h y - 2 p) / d
        # + c e_k / d along a tangent e_k (dc = -2 (x, e_k), dd = h dc),
        # and dy = 0 inside the cap
        vdy = np.empty((3, len(tangents) + 1, n_atoms))
        vdy[:, 0] = dh * inv * (2.0 * pv[:, None] - c * yv - 2.0 * h * xv)
        np.multiply((2.0 * (h * yv - pv[:, None]))[:, None], xe, out=vdy[:, 1:])
        vdy[:, 1:] += ev[:, :, None] * ce
        proj = basis.T @ mt
        wp = omega * proj
        feats = np.vstack([wp, (proj[:, None] * wp).reshape(4, -1)])
        part = [
            (vdy.reshape(-1, n_atoms) @ np.vstack([omega, feats]).T).reshape(3, -1, 7),
            yt @ np.vstack([omega, omega * ce, omega * xe]).T,
            omega @ inv, xt @ (omega * inv), xe @ omega, omega @ ce,
            mt @ (vdy[2] * omega).T, omega @ (1.0 + yv[2]), mt @ omega, (mt * omega) @ y,
            yt @ feats.T, feats[2:].sum(axis=1), yv[:2] @ wp.T, (1.0 + yv[2]) @ wp.T,
        ]
        totals = part if totals is None else [t + q for t, q in zip(totals, part)]
    (sums, y_sums, w_inv, x_w_inv, xe_w, w_ce, m_vdy, w_yxi, m_w, m_w_y, y_feats,
     feat_sums, y_wp, yxi_wp) = totals
    # the balancing point: dxi = -J^-1 sum w D_y phi[dy], one column each
    sum_dy = np.column_stack([
        dh * (2.0 * w_inv * p - 2.0 * h * x_w_inv - y_sums[:, 1]),
        2.0 * h * y_sums[:, 2:] - 2.0 * np.outer(p, xe_w) + tangents.T * w_ce,
    ])
    pull = (1.0 - s) * sum_dy + 2.0 * np.outer(xi, sums[2, :, 0]) - 2.0 * m_vdy
    jac = (
        2.0 * w_yxi * np.eye(dim)
        + 2.0 * (np.outer(xi, y_sums[:, 0]) - np.outer(y_sums[:, 0] + m_w, xi))
        - 2.0 * m_w_y
    )
    g = -np.linalg.solve(jac, pull)
    gv = frame.T @ g
    # half[k, j, l] = sum w (U_j, dM_k) (U_l, M); with z = (xi, dy) + (g, y),
    # Dn (U_j, dM) = (1 - s) (U_j, dy) + 2 (U_j, xi) z - 2 (U_j, M) (z + (xi, g))
    #                - 2 (xi, g) (U_j, y) + 2 (1 + (xi, y)) (U_j, g)
    z = sums[2, :, 1:] + g.T @ y_feats
    half = (
        (1.0 - s) * sums[:2, :, 1:3].transpose(1, 0, 2)
        + 2.0 * (basis.T @ xi)[None, :, None] * z[:, None, :2]
        - 2.0 * z[:, 2:].reshape(-1, 2, 2)
        - 2.0 * gv[2][:, None, None] * (feat_sums.reshape(2, 2) + y_wp)
        + 2.0 * gv[:2].T[:, :, None] * yxi_wp
    )
    dc = half + half.transpose(0, 2, 1)
    trace_c = float(np.trace(basis.T @ trace.form.matrix @ basis))
    dtr = dc[:, 0, 0] + dc[:, 1, 1]
    return np.vstack([
        dc[:, 0, 0] - dc[:, 1, 1] - f[0] * dtr,
        2.0 * dc[:, 0, 1] - f[1] * dtr,
    ]) / trace_c


def _line_search(m, cap, trace, step, tangents):
    """Halve ``step`` up to five times until the cap it reaches has a
    smaller gap than ``trace``; returns that cap with its rearrangement, or
    None."""
    gap = trace.form.gap
    for lam in 0.5 ** np.arange(6):
        r_new = cap.r + lam * step[0]
        if abs(r_new) >= 0.95:
            # the fold and the transport keep sphere atoms on the sphere
            # to about 1e-11 up to r = 0.98, but the balancing solve does
            # not keep up: at r = 0.98 its Newton stage stalls near the
            # boundary on 1 of 6 seeded S^3 res-16 caps
            continue
        p_new = cap.p + lam * (step[1:] @ tangents)
        found = _cap_rearrange(m, r_new, p_new / np.linalg.norm(p_new), trace.xi_a)
        if found[2].form.gap < gap:
            return found
    return None


def _gauss_newton(m: DiscreteMeasure, start: Cap):
    """Min-norm Gauss-Newton for a multiple cap, started at ``start``.

    Unknowns are r and a tangent step of p (one on the disk, n on the
    n-sphere), retracted onto the circle or sphere; the residual is
    ``_compressed_traceless`` on the top-2 eigenspace picked at the current
    cap and held fixed for the step (on the disk the whole plane).  The
    Jacobian is closed form on the sphere (``_sphere_cap_jacobian``), so a
    step costs one rearrangement plus that Jacobian, and a forward
    difference on the disk (``_difference_jacobian``), so a step costs
    1 + 2 rearrangements.  Line-search halvings cost one rearrangement
    each.  Every rearrangement starts its balancing solve at the current
    cap's ``xi_a``; that point is unique, so the start moves the solve's
    result by no more than its tolerance.  Stops at gap ``SOLVED_GAP``,
    after 20 steps, when no halving of the step lowers the gap, or when an
    accepted step leaves more than ``STALL_FACTOR`` of the gap (near a
    degenerate multiple cap the steps shrink and first-order steps stall,
    so another start does better).  Returns the final cap and the
    direction form of a cold ``rearrange`` of it, so its gap is exactly
    recomputable.
    """
    jacobian = _sphere_cap_jacobian if m.space == "sphere" else _difference_jacobian
    cap, moved, trace = (start,) + rearrange(m, start)
    warm = False
    for _ in range(20):
        form = trace.form
        if form.gap <= SOLVED_GAP:
            break
        basis = np.linalg.eigh(form.matrix)[1][:, -2:]
        f = _compressed_traceless(form.matrix, basis)
        tangents = _tangents(cap.p)
        jac = jacobian(m, cap, moved, trace, basis, f, tangents)
        found = _line_search(m, cap, trace, -np.linalg.pinv(jac) @ f, tangents)
        if found is None:
            break
        (cap, moved, trace), warm = found, True
        if trace.form.gap > STALL_FACTOR * form.gap:
            break
    if warm:
        trace = rearrange(m, cap)[1]
    return cap, trace.form


def _first_multiple_cap(m: DiscreteMeasure, starts, eps: float):
    """``_gauss_newton`` from each start cap in turn until one ends at gap
    ``SOLVED_GAP``; returns the cap with the smallest gap reached and its
    form if that gap is below ``eps``, else raises ``CapScanError`` with
    it."""
    best_cap, best_form, best_gap = None, None, np.inf
    for start in starts:
        cap, form = _gauss_newton(m, start)
        if form.gap < best_gap:
            best_cap, best_form, best_gap = cap, form, form.gap
        if best_gap <= SOLVED_GAP:
            break
    if best_gap < eps:
        return best_cap, best_form
    raise CapScanError(
        f"no multiple cap below gap {eps}",
        best_cap=best_cap, best_gap=float(best_gap),
    )


def sphere_cap_search(
    m: DiscreteMeasure, eps: float = SCAN_GAP_TOL
) -> tuple[Cap, float]:
    """Find a spherical cap whose rearranged measure is multiple.

    Solves for a zero of the traceless part of the direction form,
    compressed onto its top-2 eigenspace, by min-norm Gauss-Newton over the
    cap parameters (``_gauss_newton``, shared with ``scan_caps``).  Each
    step costs one rearrangement plus the closed-form Jacobian
    (``_sphere_cap_jacobian``), and each line-search halving one more.  The
    first start is the hemisphere r = 0 around the top eigenvector of
    ``direction_form(m)`` (e1 for a canonicalized measure).  Unless that
    reaches gap ``SOLVED_GAP``, the search restarts from r = +-0.3 around
    the top and the second eigenvector, in turn until one does; the caps
    (r, p) and (-r, -p) fold to the same gap, so these four starts also
    cover -p.  Each start vector has its largest-magnitude component
    positive, so the result does not depend on the sign ``eigh`` returns.
    Returns the cap with the smallest gap reached and the gap of
    ``direction_form(rearrange(m, cap))`` if that is below ``eps``; raises
    ``CapScanError`` with it otherwise.
    """
    if m.space != "sphere":
        raise DimensionUnsupportedError("sphere_cap_search needs a sphere measure")
    evecs = np.linalg.eigh(direction_form(m).matrix)[1]
    # (0, p) and (0, -p) can lead to different multiple caps
    lead = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(len(evecs))]
    evecs = evecs * np.sign(lead)
    starts = [Cap(0.0, evecs[:, -1], "sphere")] + [
        Cap(r, evecs[:, k], "sphere") for k in (-1, -2) for r in (0.3, -0.3)
    ]
    cap, form = _first_multiple_cap(m, starts, eps)
    return cap, float(form.gap)


def sphere_degree_check(n: int, n_targets: int = 6, seed: int = 0) -> dict:
    """Signed preimage counts for the antipodal-reflection direction map.

    The map sends p to 2 (e1, p) p - e1 on the n-sphere.  Every regular
    target has exactly two preimages; for odd n both carry positive
    orientation so the degree is 2, and the projective quotient doubles it
    to 4.  Even n is rejected: the two orientations cancel and the argument
    collapses.
    """
    if n < 1 or n_targets < 1:
        raise InvalidInputError(f"need n, n_targets >= 1, got {n}, {n_targets}")
    if n % 2 == 0:
        raise EvenDimensionError("degree diagnostics require odd sphere dimension")
    rng = np.random.default_rng(seed)
    e1 = np.zeros(n + 1)
    e1[0] = 1.0

    def signed_count(target):
        return sum(_orientation_sign(p, target) for p in _psi_preimages(target, e1))

    deg_psi = None
    deg_phi = None
    for _ in range(n_targets):
        q = rng.normal(size=n + 1)
        q /= np.linalg.norm(q)
        if abs(abs(q[0]) - 1.0) < 1e-6:
            continue
        count_q = signed_count(q)
        count_mq = signed_count(-q)
        if deg_psi is None:
            deg_psi = count_q
            deg_phi = count_q + count_mq
        elif count_q != deg_psi or count_q + count_mq != deg_phi:
            raise ArithmeticError("degree count is target dependent")
    return {"deg_psi": int(deg_psi), "deg_phi": int(deg_phi)}


def _psi_preimages(q, e1):
    v = e1 + q
    nv = np.linalg.norm(v)
    root = v / nv
    return [root, -root]


def _orientation_sign(p, q):
    """Orientation sign of psi(p) = 2 p0 p - e1 at its preimage p of q: the
    sign of its Jacobian between the frames (p, tangents) and (q, images).
    psi's derivative along a tangent t is exactly 2 t0 p + 2 p0 t."""
    basis_p = _tangent_frame(p)
    cols = [2.0 * t[0] * p + 2.0 * p[0] * t for t in basis_p]
    det_source = np.linalg.det(np.column_stack([p] + list(basis_p)))
    det_target = np.linalg.det(np.column_stack([q] + cols))
    return int(np.sign(det_source * det_target))
