"""Simplicial triangulation of the phase cylinder [0,T) x R^n.

The complex subdivides each scaled lattice cell into (n+1)! simplices via
the permutation construction, reflects cells with negative coordinates so
that the mesh is symmetric about the coordinate planes, keeps exactly the
simplices meeting the region interior, and identifies vertices at t=0 with
their t=T counterparts (periodic storage slots).

Bulk data is kept in flat numpy arrays indexed by simplex or vertex id:
the mesh and its geometry, with no per-simplex views and no system's data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedRegionError,
    EmptySelectionError,
    SingularSimplexError,
)

_COND_LIMIT = 1e12
# a barycentric weight within FACE_TOL of zero lies on the face
FACE_TOL = 1e-9
# a kept simplex meets a box shrunk by this times the coordinate scale
_SELECTION_MARGIN = 1e-12
# the cover check locates this many region points, the random ones drawn
# from this seed
_COVER_SAMPLES = 200
_COVER_SEED = 0


@dataclass(frozen=True)
class ScalingMatrix:
    """Diagonal scaling (1, s1..sn); the leading 1 keeps the mesh periodic."""

    diag: tuple

    def __post_init__(self):
        if len(self.diag) < 2:
            raise ValueError("scaling needs at least the t entry and one spatial entry")
        if self.diag[0] != 1.0:
            raise ValueError("first scaling entry must be exactly 1")
        if not all(0.0 < s < math.inf for s in self.diag):  # NaN fails too
            raise ValueError("scaling entries must be positive and finite")

    @classmethod
    def identity(cls, n):
        return cls((1.0,) * (n + 1))

    @classmethod
    def from_spatial(cls, spatial):
        return cls((1.0,) + tuple(float(s) for s in spatial))

    @property
    def n(self):
        return len(self.diag) - 1


@dataclass(frozen=True)
class Geometry:
    """Shape data of one simplex, or of a stack of S simplices: X and Xinv
    are (n+1, n+1) or (S, n+1, n+1); h and one_norm_inv are scalars or (S,)."""

    X: np.ndarray
    Xinv: np.ndarray
    h: float | np.ndarray
    one_norm_inv: float | np.ndarray


def simplex_geometry(vertices):
    """Shape matrix, its inverse, diameter, and the 1-norm of the inverse.

    `vertices` is one simplex, an (n+2, n+1) array, or a stack of S of
    them, (S, n+2, n+1); rows of X are v_k - v_0. Raises
    SingularSimplexError when some shape matrix is singular or its 1-norm
    condition estimate exceeds `_COND_LIMIT`.
    """
    verts = np.asarray(vertices, dtype=float)
    d = verts.shape[-1]
    if verts.ndim not in (2, 3) or verts.shape[-2] != d + 1:
        raise ValueError(f"expected {d + 1} vertices in dimension {d}")
    X = verts[..., 1:, :] - verts[..., :1, :]
    try:
        Xinv = np.linalg.inv(X)
    except np.linalg.LinAlgError:
        raise SingularSimplexError("shape matrix is singular") from None
    norm_inv = np.abs(Xinv).sum(axis=-2).max(axis=-1)
    cond = np.abs(X).sum(axis=-2).max(axis=-1) * norm_inv
    if not np.isfinite(norm_inv).all() or (cond > _COND_LIMIT).any():
        raise SingularSimplexError(
            f"shape matrix condition estimate {cond.max():.2e} too large")
    a, b = np.triu_indices(d + 1, 1)
    h = np.linalg.norm(verts[..., a, :] - verts[..., b, :], axis=-1)
    return Geometry(X=X, Xinv=Xinv, h=h.max(axis=-1), one_norm_inv=norm_inv)


def _permutation_patterns(n):
    """For each permutation sigma of 0..n, the 0/1 increments of the
    n+2 simplex vertices: patt[p, k, c] = 1 iff c in sigma[:k]."""
    perms = list(itertools.permutations(range(n + 1)))
    patt = np.zeros((len(perms), n + 2, n + 1), dtype=np.int64)
    for p, sigma in enumerate(perms):
        for k in range(1, n + 2):
            patt[p, k, list(sigma[:k])] = 1
    return perms, patt


def normalize_region(region):
    boxes = []
    for b in region:
        arr = np.asarray(b, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("region box must be a list of [lo, hi] pairs")
        if np.any(arr[:, 0] >= arr[:, 1]):
            raise ValueError("region box has empty interior")
        boxes.append(arr)
    if not boxes:
        raise ValueError("region must contain at least one box")
    dims = {b.shape[0] for b in boxes}
    if len(dims) != 1:
        raise ValueError("region boxes have inconsistent dimensions")
    return boxes


def _check_region_connected(boxes):
    """Interior of the union must be connected: boxes adjacent when their
    overlap is full-dimensional or a positive-measure shared facet."""
    nb = len(boxes)
    if nb == 1:
        return
    adj = [[] for _ in range(nb)]
    for i in range(nb):
        for j in range(i + 1, nb):
            lo = np.maximum(boxes[i][:, 0], boxes[j][:, 0])
            hi = np.minimum(boxes[i][:, 1], boxes[j][:, 1])
            width = hi - lo
            if np.any(width < 0):
                continue
            degenerate = int(np.sum(width == 0))
            if degenerate <= 1 and np.all(width[width != 0] > 0) and (
                    degenerate == 0 or np.sum(width > 0) == len(width) - 1):
                adj[i].append(j)
                adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != nb:
        raise DisconnectedRegionError(
            "region boxes do not form a connected-interior union")


def barycentric_weights(Xinv, v0, point):
    """All n+2 barycentric weights of a point, first weight for v0.

    Broadcasts over leading axes of `Xinv` (..., n+1, n+1), `v0` and
    `point` (..., n+1); returns (..., n+2).
    """
    d = np.asarray(point, dtype=float) - v0
    lam = (d[..., None, :] @ Xinv)[..., 0, :]
    return np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)


def index_ranges(start, end):
    """Concatenation of the integer ranges [start, end)."""
    lens = end - start
    return np.repeat(start - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def unique_rows(a):
    """`np.unique(a, axis=0, return_index=True, return_inverse=True,
    return_counts=True)` for a nonempty integer array (N, k): the distinct
    rows in lexicographic order, the index of each one's first occurrence,
    the inverse and the counts. The rows are keyed by one integer each,
    in mixed radix over the columns' ranges, which orders them as the rows
    do; where that key would overflow int64, a stable `np.lexsort` of the
    rows takes its place."""
    lo = a.min(axis=0)
    span = (a.max(axis=0) - lo + 1).tolist()
    if np.prod(span, dtype=object) < 2**63:
        radix = np.cumprod([1] + span[:0:-1])[::-1]
        _, first, inverse, counts = np.unique(
            (a - lo) @ radix, return_index=True, return_inverse=True,
            return_counts=True)
    else:
        order = np.lexsort(a.T[::-1])
        new = np.append(True, (np.diff(a[order], axis=0) != 0).any(axis=1))
        first = order[new]
        inverse = np.empty(len(a), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        counts = np.diff(np.append(np.flatnonzero(new), len(a)))
    return a[first], first, inverse, counts


@dataclass
class ValidationReport:
    face_violations: list = field(default_factory=list)
    duplicate_simplices: list = field(default_factory=list)
    unpaired_vertices: list = field(default_factory=list)
    cover_ok: bool = True
    cover_failures: list = field(default_factory=list)
    pairs_checked: int = 0

    @property
    def ok(self):
        return (not self.face_violations and not self.duplicate_simplices
                and not self.unpaired_vertices and self.cover_ok)


class SimplicialComplex:
    """Cylinder triangulation with geometry caches and periodic pairing.

    Attributes (bulk arrays):
        vert_q     (Nv, n+1) integer lattice coordinates, t index unwrapped
        vert_xyz   (Nv, n+1) real coordinates
        vert_slot  (Nv,) periodic storage slot per geometric vertex
        slot_keys  (n_slots, n+1) lattice coordinates of each slot, t mod 2^K
        simp_verts (S, n+2) geometric vertex ids, generator order
        simp_gen   (S, n+3) generator key (slab, cell.., perm index),
                   sorted by slab and cell
        X, Xinv    (S, n+1, n+1) shape matrices and inverses
        h          (S,) diameters
        Xinv_1norm (S,)
    """

    def __init__(self, n, T, K, scaling, region_boxes):
        self.n = n
        self.T = float(T)
        self.K = int(K)
        self.scaling = scaling
        self.region = region_boxes
        self.rho = self.T * 2.0 ** (-self.K)
        self.n_slabs = 2 ** self.K

    # ---- construction helpers (filled by build_complex) ----

    @property
    def n_simplices(self):
        return self.simp_verts.shape[0]

    @property
    def n_vertices(self):
        return self.vert_xyz.shape[0]

    @property
    def n_slots(self):
        return self._n_slots

    @property
    def cell_sizes(self):
        return self.rho * np.asarray(self.scaling.diag)

    def slot_coordinates(self):
        """Representative (t in [0,T)) coordinates per storage slot."""
        return self.vert_xyz[self.slot_rep]

    def wrap_time(self, t):
        tw = t - self.T * np.floor(t / self.T)
        return np.where(tw >= self.T, 0.0, tw)

    def _cell_of(self, points):
        """Lattice cell (slab, x-cell..) of points with wrapped t; huge or
        non-finite coordinates give cells off the grid."""
        with np.errstate(invalid="ignore"):
            q = np.floor(points / self.cell_sizes).astype(np.int64)
        q[..., 0] = np.minimum(q[..., 0], self.n_slabs - 1)
        return q

    def _flat_cells(self, q):
        """Index into the cell ranges of cells q (..., n+1); cells off the
        grid map to the trailing empty range."""
        q = q - self._cell_origin
        inside = np.all((q >= 0) & (q < self._cell_shape), axis=-1)
        return np.where(inside, q @ self._cell_strides, -1)

    def _weights(self, sids, points):
        return barycentric_weights(self.Xinv[sids],
                                   self.vert_xyz[self.simp_verts[sids, 0]], points)

    def containing(self, point):
        """All (simplex id, barycentric weights) containing the point, by
        ascending id; candidates come from its cell and the neighbours."""
        p = np.asarray(point, dtype=float)
        p = np.concatenate(([self.wrap_time(p[0])], p[1:]))
        q = self._cell_of(p) + self._offsets
        q[:, 0] %= self.n_slabs
        flat = self._flat_cells(q)
        sids = np.unique(index_ranges(self._cell_start[flat],
                                        self._cell_end[flat]))
        lam = self._weights(sids, p)
        return [(int(s), w) for s, w in zip(sids, lam) if w.min() >= -FACE_TOL]

    def locate_many(self, points):
        """Simplex id and barycentric weights for each of N points, shaped
        (N,) and (N, n+2); the id is -1 (zero weights) outside the domain.

        Each point is tested against the simplices of its own cell; only
        the misses go through `containing`, whose first hit they take.
        """
        p = np.array(points, dtype=float).reshape(-1, self.n + 1)
        p[:, 0] = self.wrap_time(p[:, 0])
        flat = self._flat_cells(self._cell_of(p))
        start, end = self._cell_start[flat], self._cell_end[flat]
        sids = start[:, None] + np.arange(max((end - start).max(initial=0), 1))
        valid = sids < end[:, None]
        sids = np.where(valid, sids, 0)
        lam = self._weights(sids, p[:, None, :])
        hit = valid & (lam.min(axis=-1) >= -FACE_TOL)
        rows, first = np.arange(len(p)), hit.argmax(axis=1)
        out_sid = np.where(hit.any(axis=1), sids[rows, first], -1)
        out_lam = lam[rows, first]
        for i in np.nonzero(out_sid < 0)[0]:
            hits = self.containing(p[i])
            out_sid[i], out_lam[i] = hits[0] if hits else (-1, 0.0)
        return out_sid, out_lam


def build_complex(region, T, K, scaling=None):
    """Construct the level-K triangulation of [0,T) x region.

    `region` is a list of boxes in x (each a list of [lo, hi] pairs with
    connected-interior union). Keeps the simplices whose interior meets
    the region interior: those in a cell inside a box, and those whose
    margin in some box, which `_box_margin` gives in closed form, exceeds
    `_SELECTION_MARGIN` times the coordinate scale.
    """
    boxes = normalize_region(region)
    n = boxes[0].shape[0]
    _check_region_connected(boxes)
    if K < 0 or int(K) != K:
        raise ValueError("K must be a nonnegative integer")
    if scaling is None:
        scaling = ScalingMatrix.identity(n)
    if scaling.n != n:
        raise ValueError("scaling dimension does not match region dimension")

    cx = SimplicialComplex(n, T, K, scaling, boxes)
    rho = cx.rho
    sizes = cx.cell_sizes  # (n+1,), entry 0 is the t step

    # Candidate x-cells: integer cells whose closure meets some box.
    per_dim = []
    for j in range(n):
        vals = set()
        for b in boxes:
            cmin = int(np.floor(b[j, 0] / sizes[j + 1])) - 1
            cmax = int(np.ceil(b[j, 1] / sizes[j + 1])) + 1
            vals.update(range(cmin, cmax + 1))
        per_dim.append(np.array(sorted(vals), dtype=np.int64))
    grids = np.meshgrid(*per_dim, indexing="ij") if n > 1 else [per_dim[0]]
    cells = np.stack([g.ravel() for g in grids], axis=1)  # (Nc, n)

    cell_lo = cells * sizes[1:]
    cell_hi = (cells + 1) * sizes[1:]
    meets_any = np.zeros(len(cells), dtype=bool)
    inside_any = np.zeros(len(cells), dtype=bool)
    for b in boxes:
        meets = np.all((cell_lo <= b[:, 1]) & (cell_hi >= b[:, 0]), axis=1)
        meets_any |= meets
        inside_any |= np.all((cell_lo >= b[:, 0]) & (cell_hi <= b[:, 1]), axis=1)
    cells = cells[meets_any]
    cell_inside = inside_any[meets_any]
    if len(cells) == 0:
        raise EmptySelectionError("no lattice cell meets the region")

    perms, patt = _permutation_patterns(n)
    n_perm = len(perms)
    n_slabs = cx.n_slabs
    Nc = len(cells)

    # Vertex lattice coordinates of every simplex of every cell, one slab.
    # x part: independent of the slab; t part added later.
    cell_rep = np.repeat(cells, n_perm, axis=0)              # (Nc*P, n)
    patt_rep = np.tile(patt, (Nc, 1, 1))                     # (Nc*P, n+2, n+1)
    xq = np.where(
        (cell_rep >= 0)[:, None, :],
        cell_rep[:, None, :] + patt_rep[:, :, 1:],
        cell_rep[:, None, :] + 1 - patt_rep[:, :, 1:],
    )                                                        # (Nc*P, n+2, n)

    # Selection on the x-projection (identical for every slab).
    keep = np.repeat(cell_inside, n_perm)
    pending = np.nonzero(~keep)[0]
    scale = max(1.0, float(np.max(np.abs(xq * sizes[1:]))))
    on = patt_rep[pending, :, 1:].sum(axis=1)  # earlier turn-on, more ones
    for b in boxes:
        keep[pending] |= _box_margin(cell_rep[pending], on, sizes[1:],
                                     b) > _SELECTION_MARGIN * scale
    if not np.any(keep):
        raise EmptySelectionError("no simplex meets the region interior")

    kept = np.nonzero(keep)[0]
    cell_of_kept = cell_rep[kept]
    perm_of_kept = (kept % n_perm).astype(np.int64)
    xq_kept = xq[kept]
    patt_kept = patt_rep[kept]
    S_per_slab = len(kept)

    # Replicate across slabs; t lattice coordinate is slab + pattern.
    slab_ids = np.repeat(np.arange(n_slabs, dtype=np.int64), S_per_slab)
    xq_all = np.tile(xq_kept, (n_slabs, 1, 1))
    tq_all = slab_ids[:, None] + np.tile(patt_kept[:, :, 0], (n_slabs, 1))
    simp_q = np.concatenate([tq_all[:, :, None], xq_all], axis=2)  # (S, n+2, n+1)

    gen = np.concatenate(
        [slab_ids[:, None], np.tile(cell_of_kept, (n_slabs, 1)),
         np.tile(perm_of_kept, n_slabs)[:, None]], axis=1)
    # sorted by generator key (slab-major, then cells; stable in the
    # permutation), the simplices of each cell form one contiguous run
    order = np.lexsort(tuple(gen[:, k] for k in range(n + 1, -1, -1)))
    cx.simp_gen = gen[order]

    flat_q = simp_q[order].reshape(-1, n + 1)
    vert_q, _, inverse, _ = unique_rows(flat_q)
    cx.vert_q = vert_q
    cx.simp_verts = inverse.reshape(-1, n + 2).astype(np.int64)
    cx.vert_xyz = vert_q * sizes

    slot_keys = vert_q.copy()
    slot_keys[:, 0] %= n_slabs
    cx.slot_keys, _, slot_inverse, _ = unique_rows(slot_keys)
    cx.vert_slot = slot_inverse.astype(np.int64)
    cx._n_slots = cx.slot_keys.shape[0]

    # Representative vertex per slot: the copy with unwrapped t < T.
    rep = np.full(cx._n_slots, -1, dtype=np.int64)
    wrapped = vert_q[:, 0] < n_slabs
    rep[cx.vert_slot[wrapped]] = np.nonzero(wrapped)[0]
    cx.slot_rep = rep

    # Periodic pairing (t=0 vertex, t=T vertex) with identical x.
    at0 = np.nonzero(vert_q[:, 0] == 0)[0]
    atT = np.nonzero(vert_q[:, 0] == n_slabs)[0]
    byx = {tuple(vert_q[v, 1:]): v for v in atT}
    cx.pairing = np.array(
        [(v, byx[tuple(vert_q[v, 1:])]) for v in at0 if tuple(vert_q[v, 1:]) in byx],
        dtype=np.int64).reshape(-1, 2)

    geo = simplex_geometry(cx.vert_xyz[cx.simp_verts])
    cx.X, cx.Xinv = geo.X, geo.Xinv
    cx.h, cx.Xinv_1norm = geo.h, geo.one_norm_inv

    # Dense (slab, x-cell) -> [start, end) index over the cells' runs of
    # simplices for point location. A one-cell border keeps the neighbours
    # of every nonempty cell on the grid; the trailing entry is an empty
    # range for cells off the grid.
    key = cx.simp_gen[:, :-1]
    cx._cell_origin = np.concatenate(([0], key[:, 1:].min(axis=0) - 1))
    cx._cell_shape = np.concatenate(
        ([n_slabs], key[:, 1:].max(axis=0) + 2 - cx._cell_origin[1:]))
    cx._cell_strides = np.append(np.cumprod(cx._cell_shape[::-1])[-2::-1], 1)
    flat = (key - cx._cell_origin) @ cx._cell_strides
    cells = np.arange(np.prod(cx._cell_shape) + 1)
    cx._cell_start = np.searchsorted(flat, cells, side="left")
    cx._cell_end = np.searchsorted(flat, cells, side="right")
    cx._offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n + 1)))
    return cx


def _box_margin(cells, on, sizes, box):
    """Largest delta such that the x-projection of each Kuhn simplex meets
    the box shrunk by delta on every side, [lo + delta, hi - delta].

    A simplex is given by its x-cell and `on`, (P, n): the number of its
    vertices at which each x-coordinate is on. Its projection is the
    cell's order simplex: in local coordinates u in [0, 1]^n, reflected
    where the cell is negative, u_i >= u_j whenever coordinate i turns on
    no later than j. With the box at alpha <= u <= beta, the ordered
    chain of intervals [alpha + delta/s, beta - delta/s], cut to [0, 1],
    is nonempty iff no lower end exceeds an upper end at or before it.
    """
    cell_lo, cell_hi = cells * sizes, (cells + 1) * sizes
    neg = cells < 0
    alpha = np.where(neg, cell_hi - box[:, 1], box[:, 0] - cell_lo) / sizes
    beta = np.where(neg, cell_hi - box[:, 0], box[:, 1] - cell_lo) / sizes
    pair = (beta[:, :, None] - alpha[:, None, :]) / (
        1.0 / sizes[:, None] + 1.0 / sizes[None, :])
    pair = np.where(on[:, :, None] >= on[:, None, :], pair, np.inf)
    ends = np.minimum(cell_hi - box[:, 0], box[:, 1] - cell_lo)
    return np.minimum(pair.min(axis=(1, 2)), ends.min(axis=1))


# ---------------------------------------------------------------------------
# Validation


def check_complex(cx):
    """Structural validation: face-to-face property, periodic pairing,
    and sampled confirmation that the domain covers the region."""
    report = ValidationReport()

    order = np.sort(cx.simp_verts, axis=1)
    _, first, counts = np.unique(order, axis=0, return_index=True, return_counts=True)
    report.duplicate_simplices = [int(i) for i in first[counts > 1]]

    # Face property is checked on the exact integer lattice coordinates
    # (the real mesh is their image under a positive diagonal scaling,
    # which preserves convex structure). Pairs equal up to a lattice
    # translation form one class and share the verdict of its first pair.
    pairs = np.array(_candidate_pairs(cx), dtype=np.int64).reshape(-1, 3)
    report.pairs_checked = len(pairs)
    qa = cx.vert_q[cx.simp_verts[pairs[:, 0]]]
    qb = cx.vert_q[cx.simp_verts[pairs[:, 1]]]
    qb[:, :, 0] += pairs[:, 2:] * cx.n_slabs
    base = np.minimum(qa.min(axis=1), qb.min(axis=1))[:, None]
    shifted = np.concatenate([qa - base, qb - base], axis=1)
    _, first, cls = np.unique(shifted.reshape(len(pairs), -1), axis=0,
                              return_index=True, return_inverse=True)
    verdict = np.array([_pair_violates_face_property(qa[k].astype(float),
                                                     qb[k].astype(float))
                        for k in first], dtype=bool)
    report.face_violations = [(int(i), int(j))
                              for i, j, _ in pairs[verdict[cls.ravel()]]]

    # periodic pairing: every t=0 vertex needs a t=T twin and vice versa
    n_slabs = cx.n_slabs
    at0 = {tuple(cx.vert_q[v, 1:]) for v in np.nonzero(cx.vert_q[:, 0] == 0)[0]}
    atT = {tuple(cx.vert_q[v, 1:]) for v in np.nonzero(cx.vert_q[:, 0] == n_slabs)[0]}
    for x in sorted(at0 - atT):
        report.unpaired_vertices.append(("t=0", x))
    for x in sorted(atT - at0):
        report.unpaired_vertices.append(("t=T", x))
    paired = {(int(a), int(b)) for a, b in cx.pairing}
    for a, b in paired:
        if cx.vert_slot[a] != cx.vert_slot[b]:
            report.unpaired_vertices.append(("slot-mismatch", (a, b)))

    rng = np.random.default_rng(_COVER_SEED)
    pts = np.asarray(_region_sample_points(cx, _COVER_SAMPLES, rng))
    sids, _ = cx.locate_many(pts)
    report.cover_failures = [tuple(p) for p in pts[sids < 0]]
    report.cover_ok = not report.cover_failures
    return report


def _candidate_pairs(cx):
    """Simplex pairs in identical or adjacent cells (with t-wrap)."""
    pairs = []
    starts, ends = cx._cell_start, cx._cell_end
    for c in np.nonzero(ends > starts)[0]:
        a = range(starts[c], ends[c])
        pairs.extend((i, j, False) for i in a for j in a if j > i)
        q = np.unravel_index(c, cx._cell_shape) + cx._cell_origin + cx._offsets
        wrap = q[:, 0] // cx.n_slabs        # -1, 0 or 1 across t = 0 / t = T
        q[:, 0] %= cx.n_slabs
        for off, nb, w in zip(cx._offsets, cx._flat_cells(q), wrap):
            # wrap == -1 is counted from the other side as wrap == 1
            if w >= 0 and off.any():
                pairs.extend((i, j, w == 1) for i in a
                             for j in range(starts[nb], ends[nb]) if w or j > i)
    return pairs


def _pair_violates_face_property(va, vb):
    """True when co(va) and co(vb) intersect in more than the convex hull
    of their shared vertices.

    Coordinates where the two bounding boxes merely touch pin the
    intersection to a hyperplane; the remaining free coordinates give the
    joint barycentric system E z = rhs, z >= 0, of the common points. The
    vertices of that polytope are the nonnegative basic solutions over a
    maximal set of independent rows of E (`_independent_rows`) that also
    meet the dependent rows; one batched det and solve takes every basis
    at once. A violation is a vertex with weight on an unshared vertex.
    """
    scale = max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
    mtol = 1e-9 * scale

    same = np.abs(va[:, None, :] - vb[None, :, :]).max(axis=2) <= mtol
    shared_a, shared_b = same.any(axis=1), same.any(axis=0)

    ov_lo = np.maximum(va.min(axis=0), vb.min(axis=0))
    ov_hi = np.minimum(va.max(axis=0), vb.max(axis=0))
    if np.any(ov_hi < ov_lo - mtol):
        return False  # disjoint
    pinned = ov_hi - ov_lo <= mtol
    mid = 0.5 * (ov_lo + ov_hi)
    keep_a = np.all(np.abs(va - mid)[:, pinned] <= mtol, axis=1)
    keep_b = np.all(np.abs(vb - mid)[:, pinned] <= mtol, axis=1)
    if not keep_a.any() or not keep_b.any():
        return False
    free = np.nonzero(~pinned)[0]

    ia, ib = np.nonzero(keep_a)[0], np.nonzero(keep_b)[0]
    if shared_a[ia].all() and shared_b[ib].all():
        # both restrictions consist purely of common vertices, so the
        # intersection is exactly their (equal) convex hull
        return False
    p, q = len(ia), len(ib)
    E = np.zeros((len(free) + 2, p + q))
    E[0, :p] = E[1, p:] = 1.0
    E[2:, :p], E[2:, p:] = va[ia][:, free].T, -vb[ib][:, free].T
    rhs = np.r_[1.0, 1.0, np.zeros(len(free))]
    unshared = ~np.concatenate([shared_a[ia], shared_b[ib]])

    rows = _independent_rows(E)
    E_dep, rhs_dep = np.delete(E, rows, axis=0), np.delete(rhs, rows)
    E, rhs = E[rows], rhs[rows]
    cols = np.array(list(itertools.combinations(range(p + q), len(rows))))
    sub = np.moveaxis(E[:, cols], 1, 0)                 # (bases, r, r)
    basic = np.abs(np.linalg.det(sub)) > 1e-10
    cols, sub = cols[basic], sub[basic]
    z = np.linalg.solve(sub, np.broadcast_to(rhs[:, None], sub.shape[:2] + (1,)))[..., 0]
    full = np.zeros((len(cols), p + q))
    np.put_along_axis(full, cols, z, axis=1)
    wtol = 1e-7
    feasible = (z.min(axis=1) >= -wtol) & (
        np.abs(full @ E_dep.T - rhs_dep).max(axis=1, initial=0.0) <= mtol)
    return bool(np.any(feasible & np.any((full > wtol) & unshared, axis=1)))


def _independent_rows(E):
    """Ascending indices of a maximal set of linearly independent rows:
    the rows at which the rank of the row prefix rises, every prefix
    (zero-padded to full height) ranked in one batched call."""
    prefixes = np.tril(np.ones((len(E), len(E))))[:, :, None] * E
    return np.flatnonzero(np.diff(np.linalg.matrix_rank(prefixes),
                                  prepend=0))


def _region_sample_points(cx, budget, rng):
    pts = []
    t_grid = np.linspace(0.0, cx.T, 5, endpoint=False)
    for b in cx.region:
        mesh = np.meshgrid(*[np.linspace(lo, hi, 3) for lo, hi in b], indexing="ij")
        xs = np.stack([g.ravel() for g in mesh], axis=1)
        for t in t_grid:
            for x in xs:
                pts.append(np.concatenate(([t], x)))
    for _ in range(max(0, budget - len(pts))):
        b = cx.region[rng.integers(len(cx.region))]
        x = rng.uniform(b[:, 0], b[:, 1])
        t = rng.uniform(0.0, cx.T)
        pts.append(np.concatenate(([t], x)))
    return pts[:budget]
