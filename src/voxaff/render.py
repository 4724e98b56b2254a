"""Voxel ray casting: depth, surface-feature, and affordance renders.

Rays leave the camera through pixel centers and march the r^3 lattice of
the normalized cube with an exact amortized grid traversal (one cell per
step, no samples skipped).  A hit reports the *entry face* of the first
occupied cell; recorded depth is the camera-frame z coordinate of that
face point, which makes unprojection land exactly back on the face.
Pixels whose rays never meet an occupied cell read 0.  Every render is
an ``Image``: read-only (height, width) values, finite and non-negative,
holding depth or first-hit heat.  A first hit is its ray length and
entry axis, as in the Amanatides & Woo walk; the face normal points
against the ray direction on that axis.

The camera must sit outside the cube.  Traversal order at exact tMax
ties is x before y before z, so renders are bit-deterministic.

``_march`` steps every live ray one cell per numpy operation, column-wise:
each ray's state is 1-D columns (``t_max`` and ``t_delta`` per axis, the
signed flat step per axis) and one running flat index into the lattice
grown by a one-cell border.  Border cells read "past the exit", so one
gather per step finds both first hits and exits, and finished rays are
compacted out.  A step adds ``t_delta`` to the chosen axis's ``t_max``
only, so every float is that of the textbook walk.  A first-hit march
first drops every ray whose line misses the bounding box of the occupied
cells grown by one cell (the slab test of Kay & Kajiya, in grid units,
as for the cube): such a ray reads as a miss, and the rays kept still
start at the cube entry, so their floats are unchanged.  The unit
camera-frame pixel directions depend only on the intrinsics and are
cached per ``CameraIntrinsics``; each view then costs one rotation and
the slab tests.

The cells a ray crosses do not depend on the occupancy, so a camera's
*ray table* (the walk of every pixel ray to the cube exit, identical cell
sequences stored once) serves every occupancy seen from it.  The table
keeps its rows back to back with CSR row offsets (``indptr``), so the
first occupied cell of every row is one gather of the occupancy through
the cells, one ``flatnonzero`` and one ``searchsorted`` of the row
offsets.  ``render_affordance`` scores the same fixed candidate cameras
against many occupancies, so it builds and caches the table of every
camera it sees, keyed by (pose rotation and translation bytes,
intrinsics, r), and a 128^2 candidate at r = 8 then costs about 0.4 ms,
mostly the table read.  Observation renders (``render_views``)
read the table when their camera already has one cached, recovering the
entry axis and distance of the hit bit-identically to a march; any other
camera is marched to its first hit, since building a table costs more
than one march.  The cache holds
``RAY_TABLE_CACHE_SIZE`` (64) tables, least recently used out first; the
40-candidate lattice at 128^2 and r = 8 takes about 4.6 MB, and building
it costs about 1.5 to 2 times a march of those 40 views (the walk to the
exit, then deduplicating its rows).  Beyond 64 cameras in rotation the
cache thrashes and each affordance render costs about one table build.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CameraInsideCubeError, DomainError, ShapeMismatchError
from .geometry import CameraIntrinsics, Viewpoint
from .synthscene import SyntheticObject, ground_truth_occupancy, surface_features
from .voxel import AffordanceHeatmap, _frozen, flat_index, flat_order_indices

Array = np.ndarray

#: Ray tables kept for reuse; holds the 40-candidate lattice.
RAY_TABLE_CACHE_SIZE = 64

@dataclass(frozen=True)
class Image:
    """Per-pixel render, read-only: camera-frame z depth with 0 for a miss,
    or first-hit heat."""

    values: Array  # (height, width) float64, finite and non-negative

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a private copy
        if values.ndim != 2:
            raise ShapeMismatchError(f"image values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("image values must be finite and non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


class _Rays(NamedTuple):
    """Per-pixel ray set-up shared by the march and the ray tables."""

    dirs: Array  # (n, 3) unit world directions
    z_per_t: Array  # (n,) camera-frame z per unit ray length
    og: Array  # (3,) origin in grid units
    dg: Array  # (n, 3) directions in grid units
    t_enter: Array  # (n,) world ray length to the cube entry
    enter_axis: Array  # (n,) axis of the entry face
    reaches: Array  # (n,) bool: the ray meets the cube ahead of the camera


@functools.lru_cache(maxsize=8)
def _pixel_rays(intr: CameraIntrinsics) -> tuple[Array, Array]:
    """Unit camera-frame pixel-center directions of ``intr`` and the
    camera-frame z per unit ray length, shared by every pose."""
    h, w = intr.height, intr.width
    uu = (np.arange(w) + 0.5 - intr.cx) / intr.fx
    vv = (np.arange(h) + 0.5 - intr.cy) / intr.fy
    du, dv = np.meshgrid(uu, vv)
    dirs_cam = np.stack([du, dv, np.ones_like(du)], axis=-1).reshape(h * w, 3)
    inv_norm = 1.0 / np.linalg.norm(dirs_cam, axis=1)
    return _frozen(dirs_cam * inv_norm[:, None]), _frozen(inv_norm)


def _slab(og: Array, dg: Array, lo, hi):
    """Kay & Kajiya slab test of rays ``og + t * dg`` (grid units) against
    the box [lo, hi] per axis: per-axis near and far ``t`` as (3, n)
    arrays, and which rays run parallel to a slab outside it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - og) / dg
        t_hi = (hi - og) / dg
    parallel = dg == 0.0
    t_near = np.where(parallel, -np.inf, np.minimum(t_lo, t_hi)).T
    t_far = np.where(parallel, np.inf, np.maximum(t_lo, t_hi)).T
    outside = (og < lo) | (og > hi)
    miss_parallel = (
        (parallel[:, 0] & outside[0]) | (parallel[:, 1] & outside[1]) | (parallel[:, 2] & outside[2])
    )
    return t_near, t_far, miss_parallel


def _ray_setup(view: Viewpoint, r: int) -> _Rays:
    """Unit pixel-center ray directions and their slab entry into the r^3 cube."""
    unit_cam, inv_norm = _pixel_rays(view.intrinsics)
    dirs = unit_cam @ view.pose.rotation.T

    origin = view.pose.translation
    if np.max(np.abs(origin)) <= 0.5:
        raise CameraInsideCubeError(f"camera origin {origin} lies inside the cube")

    og = (origin + 0.5) * r
    dg = dirs * r
    t_near, t_far, miss_parallel = _slab(og, dg, 0.0, float(r))

    # Per-axis maxima and minima, one column at a time: numpy reduces a
    # length-3 axis far slower.  Ties name the lowest axis, as argmax does.
    t_enter = np.maximum(np.maximum(t_near[0], t_near[1]), t_near[2])
    t_exit = np.minimum(np.minimum(t_far[0], t_far[1]), t_far[2])
    enter_axis = np.where(t_near[0] == t_enter, 0, np.where(t_near[1] == t_enter, 1, 2))
    reaches = (t_enter <= t_exit) & (t_exit > 0.0) & ~miss_parallel
    return _Rays(dirs, inv_norm, og, dg, t_enter, enter_axis, reaches)


def _meets_box(rays: _Rays, idx: Array, occ: Array) -> Array:
    """Which of the rays ``idx`` cross the bounding box of the cells set in
    ``occ``, grown by one cell and clipped to the cube; none for an empty
    ``occ``.  The margin absorbs float error at edge and corner ties, so a
    ray that misses the box cannot meet an occupied cell in the walk."""
    r = occ.shape[0]
    lo, hi = np.zeros(3), np.zeros(3)
    for axis in range(3):
        filled = np.flatnonzero(occ.any(axis=tuple(a for a in range(3) if a != axis)))
        if filled.size == 0:
            return np.zeros(idx.size, dtype=bool)
        lo[axis] = max(filled[0] - 1, 0)
        hi[axis] = min(filled[-1] + 2, r)
    t_near, t_far, miss_parallel = _slab(rays.og, rays.dg[idx], lo, hi)
    t_in = np.maximum(np.maximum(t_near[0], t_near[1]), t_near[2])
    t_out = np.minimum(np.minimum(t_far[0], t_far[1]), t_far[2])
    return (t_in <= t_out) & ~miss_parallel


def _march(rays: _Rays, r: int, occ: Array | None = None):
    """Amanatides & Woo walk of every reaching ray through the r^3 lattice.

    Given an (r, r, r) boolean ``occ``, each ray stops at its first
    occupied cell and the result is the per-pixel ``hit`` mask, world ray
    length ``t`` to the entry face and entry ``axis``; the face normal
    points against the ray on that axis.  Given none, each
    ray walks to the cube exit and the result is an (n, 3r + 2) table of
    the flat cells ``ix + r*iy + r^2*iz`` it crosses, in order, padded
    with r^3.  The walk keeps its state column-wise on the lattice grown
    by a one-cell border, as the module docstring describes.
    """
    n = rays.dirs.shape[0]
    p = r + 2  # side of the bordered lattice
    if occ is None:
        table = np.full((n, 3 * r + 2), r**3, dtype=np.min_scalar_type(r**3))
        # A cell reads its flat index; the border reads r^3, the padding.
        code = np.arange(r**3, dtype=table.dtype).reshape(r, r, r, order="F")
        code = np.pad(code, 1, constant_values=r**3)
    else:
        # 0 empty, 1 occupied, 2 border.
        code = np.pad(occ.astype(np.uint8), 1, constant_values=2)
        hit = np.zeros(n, dtype=bool)
        t_hit = np.zeros(n)
        step_hit = np.zeros(n, dtype=np.int64)
    code = code.ravel(order="F")

    idx = np.nonzero(rays.reaches)[0]
    if occ is not None:
        # A ray that misses the occupied box reads as a miss without a walk.
        idx = idx[_meets_box(rays, idx, occ)]
    og = rays.og
    d = rays.dg[idx]
    t = rays.t_enter[idx]
    axis = rays.enter_axis[idx]
    step = np.sign(d).astype(np.int64)
    pos = og + t[:, None] * d
    cell = np.clip(np.floor(pos).astype(np.int64), 0, r - 1)
    # Entry axis is known exactly: the ray enters through that cube face.
    rows = np.arange(idx.size)
    cell[rows, axis] = np.where(step[rows, axis] > 0, 0, r - 1)

    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on a parallel axis
        t_delta = np.where(d != 0.0, 1.0 / np.abs(d), np.inf)
        next_bound = cell + (step > 0)
        t_max = np.where(d != 0.0, (next_bound - og) / d, np.inf)

    flat = flat_index(cell + 1, p)
    steps = step * np.array([1, p, p * p])
    moved = steps[rows, axis]  # the flat step into the current cell
    mx, my, mz = t_max.T.copy()
    dx, dy, dz = t_delta.T.copy()
    fx, fy, fz = steps.T.copy()
    # Only the columns live through the walk: free the (m, 3) set-up arrays.
    del d, pos, cell, next_bound, t_max, t_delta, step, steps, rows, axis

    for k in range(3 * r + 2):
        if idx.size == 0:
            break
        here = code[flat]
        if occ is None:
            table[idx, k] = here
            keep = here != r**3
        else:
            keep = here == 0
        if not keep.all():
            if occ is not None:
                hits = here == 1
                out = idx[hits]
                hit[out] = True
                t_hit[out] = t[hits]
                step_hit[out] = moved[hits]
            idx, flat = idx[keep], flat[keep]
            mx, my, mz, dx, dy, dz = mx[keep], my[keep], mz[keep], dx[keep], dy[keep], dz[keep]
            fx, fy, fz = fx[keep], fy[keep], fz[keep]
        # Step along the smallest t_max, ties x before y before z as in
        # argmin; only that axis gets its one t_delta add.  The minimum is
        # one of its operands, so t is the chosen t_max exactly.
        t = np.minimum(np.minimum(mx, my), mz)
        px = mx == t
        py = (my == t) & ~px
        mx = np.where(px, mx + dx, mx)
        my = np.where(py, my + dy, my)
        mz = np.where(px | py, mz, mz + dz)
        moved = np.where(px, fx, np.where(py, fy, fz))
        flat = flat + moved

    if occ is None:
        return table
    stride = np.abs(step_hit)  # 1, p or p^2 on a hit
    return hit, t_hit, (stride >= p).astype(np.int64) + (stride >= p * p)


class _RayTable(NamedTuple):
    """Occupancy-free traversal of one camera, deduplicated and stored CSR-style.

    Each distinct cell sequence is one row: ``cells`` holds the rows back
    to back, and row j fills ``cells[indptr[j]:indptr[j + 1]]``.  A pixel
    whose ``rows`` entry is j >= 1 crosses, in order, the flat cells of
    row j - 1; 0 marks a miss.
    """

    cells: Array  # smallest unsigned dtype holding r^3
    indptr: Array  # (rows + 1,) row offsets into cells, smallest unsigned dtype
    rows: Array  # (h * w,) row per pixel, 0 = miss


#: Least recently used first: (rotation bytes, translation bytes, intrinsics, r) -> table.
_ray_tables: dict[tuple, _RayTable] = {}


def _table_key(view: Viewpoint, r: int) -> tuple:
    pose = view.pose
    return pose.rotation.tobytes(), pose.translation.tobytes(), view.intrinsics, r


def _cached_ray_table(view: Viewpoint, r: int) -> _RayTable | None:
    """The cached table of ``view`` at ``r``, or None; never builds one."""
    key = _table_key(view, r)
    table = _ray_tables.pop(key, None)
    if table is not None:
        _ray_tables[key] = table
    return table


def _ray_table(view: Viewpoint, r: int) -> _RayTable:
    """Occupancy-free traversal of ``view`` at ``r``, built and cached on a miss."""
    table = _cached_ray_table(view, r)
    if table is None:
        table = _build_ray_table(_ray_setup(view, r), r)
        _ray_tables[_table_key(view, r)] = table
        if len(_ray_tables) > RAY_TABLE_CACHE_SIZE:
            del _ray_tables[next(iter(_ray_tables))]
    return table


def _build_ray_table(rays: _Rays, r: int) -> _RayTable:
    table = _march(rays, r)
    walked = np.ascontiguousarray(table[rays.reaches])
    # One opaque key per row: 1-D np.unique is ~10x faster than axis=0.
    keys = walked.view(np.dtype((np.void, walked.strides[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    uniq = walked[first]
    rows = np.zeros(table.shape[0], dtype=np.int64)
    rows[rays.reaches] = inverse.ravel() + 1
    filled = uniq != r**3
    indptr = np.zeros(uniq.shape[0] + 1, dtype=np.int64)
    np.cumsum(filled.sum(axis=1), out=indptr[1:])
    return _RayTable(
        cells=_frozen(uniq[filled]),
        indptr=_frozen(indptr.astype(np.min_scalar_type(indptr[-1]))),
        rows=_frozen(rows.astype(np.min_scalar_type(uniq.shape[0]))),
    )


def _first_occupied(table: _RayTable, occ_flat: Array) -> tuple[Array, Array]:
    """Which rows of ``table`` cross a cell set in the flat occupancy
    ``occ_flat``, as a (rows,) mask, and where in ``table.cells`` the first
    such cell of each of those rows sits."""
    # ``take`` gathers through a uint16 index about twice as fast as ``[]``.
    at = np.flatnonzero(np.take(occ_flat, table.cells))
    # How many occupied positions precede each row offset: a row holds one
    # exactly when the count grows across it.
    before = np.searchsorted(at, table.indptr)
    crosses = before[1:] > before[:-1]
    return crosses, at[before[:-1][crosses]]


def _read_table(table: _RayTable, rays: _Rays, r: int, occ: Array):
    """``_march(rays, r, occ)`` read from the ray table of the same camera.

    The hit cell and its row's entry cell come from the table.  The entry
    axis of a hit past the row's first cell is the one axis whose index
    changed on the last step, and its ``t`` replays the march's float
    operations: ``t_max`` from the entry cell, then ``t_delta`` added once
    per earlier step along that axis, so the result is bit-identical.
    """
    n = table.rows.shape[0]
    hit = np.zeros(n, dtype=bool)
    t_hit = np.zeros(n)
    axis_hit = np.zeros(n, dtype=np.int64)

    crosses, first = _first_occupied(table, occ.ravel(order="F"))
    # Zero-led like ``table.rows``: where each row's first occupied cell
    # sits in ``table.cells``, -1 for none.
    row_first = np.full(crosses.size + 1, -1, dtype=np.int64)
    row_first[1:][crosses] = first
    at = row_first[table.rows]
    pix = np.flatnonzero(at >= 0)
    at = at[pix]
    start = table.indptr[table.rows[pix] - 1]
    flat_at = table.cells[at].astype(np.int64)
    triples = flat_order_indices(r)
    cell, entry = triples[flat_at], triples[table.cells[start]]

    stepped = at > start
    change = np.abs(flat_at - table.cells[np.maximum(at - 1, 0)])  # 1, r or r^2
    axis = np.where(stepped, (change >= r).astype(np.int64) + (change >= r * r), rays.enter_axis[pix])
    t = rays.t_enter[pix]
    s = np.nonzero(stepped)[0]
    a = axis[s]
    ds = rays.dg[pix[s], a]
    t_max = (entry[s, a] + (ds > 0) - rays.og[a]) / ds
    t_delta = 1.0 / np.abs(ds)
    steps = np.abs(cell[s, a] - entry[s, a])
    for k in range(1, int(steps.max(initial=1))):
        more = steps > k
        t_max[more] += t_delta[more]
    t[s] = t_max

    hit[pix] = True
    t_hit[pix] = t
    axis_hit[pix] = axis
    return hit, t_hit, axis_hit


def _first_hits(occ: Array, view: Viewpoint):
    """Ray set-up and ``(hit, t, axis)`` of every pixel ray's first hit in ``occ``.

    A camera whose ray table is cached reads its hits from the table;
    any other marches, since building a table costs more than one march.
    """
    r = occ.shape[0]
    rays = _ray_setup(view, r)
    table = _cached_ray_table(view, r)
    if table is None:
        return rays, _march(rays, r, occ)
    return rays, _read_table(table, rays, r, occ)


def render_views(
    obj: SyntheticObject, view: Viewpoint, r: int, channels: int = 16, *, occ: Array | None = None
) -> tuple[Image, Array]:
    """Render one posed observation of an object: depth plus surface features.

    Features carry the hit part's label embedding and the entry-face
    normal (see ``surface_features``); missed pixels stay zero.  ``occ``
    is the object's boolean lattice ``ground_truth_occupancy(obj, r)``,
    for a caller that renders one object many times; left out, it is
    built here.
    """
    if occ is None:
        occ = ground_truth_occupancy(obj, r)
    rays, (hit, t_hit, axis_hit) = _first_hits(occ, view)
    intr = view.intrinsics
    h, w = intr.height, intr.width
    depth = np.where(hit, t_hit * rays.z_per_t, 0.0).reshape(h, w)
    feats = np.zeros((h * w, channels))
    if np.any(hit):
        pix, axis = np.flatnonzero(hit), axis_hit[hit]
        points = view.pose.translation + t_hit[pix, None] * rays.dirs[pix]
        normals = np.zeros((pix.size, 3))
        normals[np.arange(pix.size), axis] = -np.sign(rays.dg[pix, axis])
        feats[hit] = surface_features(obj, points, normals, channels)
    return Image(depth), feats.reshape(h, w, channels)


def render_affordance(occ: Array, heat: AffordanceHeatmap, view: Viewpoint) -> Image:
    """Project a voxel heatmap through the occupancy: first-hit value per pixel.

    ``occ`` is the (r, r, r) boolean lattice, as ``render_views`` takes
    it.  The full occupancy occludes: a heated voxel hidden behind
    unheated geometry contributes nothing.  Misses and unheated hits read
    0, and heat on a cell that ``occ`` leaves unset is never hit.
    """
    r = heat.resolution
    table = _ray_table(view, r)
    # Heat per flat cell, then per table row, zero-led like ``table.rows``.
    values = np.zeros(r**3)
    values[flat_index(heat.positions, r)] = heat.values
    crosses, first = _first_occupied(table, occ.ravel(order="F"))
    row_heat = np.zeros(crosses.size + 1)
    row_heat[1:][crosses] = values[table.cells[first]]
    return Image(np.take(row_heat, table.rows).reshape(view.intrinsics.height, -1))
