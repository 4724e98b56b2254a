"""Sparse voxel grids over the normalized cube, fusion, and conditioning.

The scene volume is the cube [-0.5, 0.5]^3 split into r^3 cells.  A world
point p falls into cell ``floor((p + 0.5) * r)`` clamped to [0, r-1]; the
center of cell (i, j, k) is ``(i + 0.5) / r - 0.5`` per axis
(``cell_centers``).

Index triples are (ix, iy, iz).  An index set is an (n, 3) integer array
of triples in [0, r)^3, checked once by ``_check_indices`` where it enters;
nothing casts it before, so a fractional coordinate is refused, not
truncated.  Sparse entries are kept sorted lexicographically by that triple.  A dense occupancy is an (r, r, r)
boolean lattice indexed ``[ix, iy, iz]``; flattened, it uses the "x
fastest" order flat = ix + r * iy + r^2 * iz (numpy's ``order="F"``),
and ``np.argwhere`` of it lists the occupied triples in sorted order.

Sorting, grouping and the sorted/unique checks run on one integer key per
triple, ``(ix * r + iy) * r + iz`` (ix most significant, so key order is
lexicographic order and equal triples share a key): a stable ``argsort``
of the keys sorts, one ``!=`` between neighbouring sorted keys finds the
groups, and one ``np.diff`` checks order and uniqueness.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError, malformed
from .geometry import Viewpoint, unproject_pixels

Array = np.ndarray

#: Smallest supported positional-encoding width (two slots per axis).
MIN_PE_DIM = 6


def _frozen(a: Array) -> Array:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _lex_keys(indices: Array, r: int) -> Array:
    """Flat key ``(ix*r + iy)*r + iz`` of (n, 3) triples in [0, r)^3: it
    orders rows as lexicographic order does, and equal rows share a key."""
    return (indices[:, 0] * r + indices[:, 1]) * r + indices[:, 2]


def _group_by_key(indices: Array, r: int):
    """Stable order that sorts ``indices`` lexicographically, the sorted
    rows, and the start of each run of equal rows among them."""
    keys = _lex_keys(indices, r)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return order, indices[order], start


def _check_sorted_unique(indices: Array, r: int, unsorted: str, repeated: str):
    """Raise ``DomainError(unsorted)`` unless (n, 3) triples in [0, r)^3 are
    sorted lexicographically, then ``DomainError(repeated)`` unless unique."""
    steps = np.diff(_lex_keys(indices, r))
    if np.any(steps < 0):
        raise DomainError(unsorted)
    if np.any(steps == 0):
        raise DomainError(repeated)


def _check_indices(indices, r: int, name: str = "indices") -> Array:
    """An (n, 3) array or nested sequence of integer triples in [0, r)^3 as
    int64, unsorted; anything else, or a resolution that is not a positive
    integer, raises ``DomainError``.  ``[]`` and shape (0, 3), of any dtype,
    are the empty set; rows of another width are refused even when empty."""
    if isinstance(r, bool) or not isinstance(r, numbers.Integral) or r < 1:
        raise DomainError(f"resolution must be a positive integer, got {r!r}")
    if r**3 > 2**63:
        raise DomainError(f"resolution {r} too large: cell keys below r^3 must fit in int64")
    indices = np.asarray(indices)
    if indices.shape in ((0,), (0, 3)):
        return np.zeros((0, 3), dtype=np.int64)
    if indices.ndim != 2 or indices.shape[1] != 3:
        raise DomainError(f"{name} must have shape (n, 3), got {indices.shape}")
    if not np.issubdtype(indices.dtype, np.integer):
        raise DomainError(f"{name} must be integer typed")
    if indices.min() < 0 or indices.max() >= r:
        raise DomainError(f"{name} must lie in [0, {r})^3")
    return indices.astype(np.int64, copy=False)


def as_index_array(occupied, r: int) -> Array:
    """An index set (see ``_check_indices``) sorted lexicographically; repeated triples stay."""
    arr = _check_indices(occupied, r, "occupancy indices")
    return arr[np.argsort(_lex_keys(arr, r), kind="stable")]


@dataclass(frozen=True)
class SparseVoxelGrid:
    """Sparse per-voxel features over the normalized cube.

    Entries are unique, sorted lexicographically by index triple.  The
    weight of an entry counts contributing views (>= 1), so weighted means
    stay exact under repeated fusion.
    """

    resolution: int
    channels: int
    indices: Array  # (n, 3) int64
    features: Array  # (n, channels) float64
    weights: Array  # (n,) int64

    def __post_init__(self):
        if self.channels < 0:
            raise DomainError("channel count must be >= 0")
        indices = _check_indices(self.indices, self.resolution)
        features = np.asarray(self.features, dtype=float)
        if features.size == 0:
            features = features.reshape(0, self.channels)
        weights = np.asarray(self.weights)
        if weights.size == 0:
            weights = weights.reshape(0)
        if features.shape != (indices.shape[0], self.channels):
            raise ShapeMismatchError(
                f"features shape {features.shape} != ({indices.shape[0]}, {self.channels})"
            )
        if weights.shape != (indices.shape[0],):
            raise ShapeMismatchError("weights must be one per entry")
        if not np.issubdtype(weights.dtype, np.integer):
            raise DomainError("weights must be integers (contributing view counts)")
        if np.any(weights < 1):
            raise DomainError("weights must be >= 1")
        if not np.all(np.isfinite(features)):
            raise DomainError("features must be finite")
        _check_sorted_unique(
            indices,
            self.resolution,
            "entries must be sorted lexicographically by index",
            "entries must have unique indices",
        )
        object.__setattr__(self, "indices", _frozen(indices))
        object.__setattr__(self, "features", _frozen(features))
        object.__setattr__(self, "weights", _frozen(weights.astype(np.int64)))

    def __len__(self) -> int:
        return self.indices.shape[0]

    @classmethod
    def empty(cls, resolution: int, channels: int) -> "SparseVoxelGrid":
        return cls(
            resolution=resolution,
            channels=channels,
            indices=np.zeros((0, 3), dtype=np.int64),
            features=np.zeros((0, channels)),
            weights=np.zeros(0, dtype=np.int64),
        )


def flat_index(indices: Array, r: int) -> Array:
    """Flat x-fastest cell index ``ix + r*iy + r^2*iz`` of (n, 3) index triples."""
    return indices[:, 0] + r * indices[:, 1] + r * r * indices[:, 2]


def cell_centers(indices: Array, r: int) -> Array:
    """World-space centers of (n, 3) index triples at resolution ``r``."""
    return (indices + 0.5) / r - 0.5


@functools.lru_cache(maxsize=32)
def flat_order_indices(r: int) -> Array:
    """(r^3, 3) index triples enumerated in the x-fastest flat order."""
    iz, iy, ix = np.meshgrid(np.arange(r), np.arange(r), np.arange(r), indexing="ij")
    out = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3).astype(np.int64)
    return _frozen(out)


@dataclass(frozen=True)
class AffordanceHeatmap:
    """Scalar affordance field over a set of occupied voxels.

    ``values`` are probabilities in [0, 1].  Positions are unique and
    sorted lexicographically.
    """

    resolution: int
    positions: Array  # (n, 3) int64
    values: Array  # (n,) float64

    def __post_init__(self):
        positions = _check_indices(self.positions, self.resolution, "positions")
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.shape[0] != positions.shape[0]:
            raise ShapeMismatchError("one value per position required")
        if not np.all(np.isfinite(values)):
            raise DomainError("heatmap values must be finite")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise DomainError("probability heatmap values must lie in [0, 1]")
        _check_sorted_unique(
            positions,
            self.resolution,
            "positions must be sorted lexicographically",
            "positions must be unique",
        )
        object.__setattr__(self, "positions", _frozen(positions))
        object.__setattr__(self, "values", _frozen(values))

    def __len__(self) -> int:
        return self.positions.shape[0]


def backproject_view(
    depth_image: Array, feature_image: Array, view: Viewpoint, r: int
) -> SparseVoxelGrid:
    """Lift one posed RGB-D style observation into a sparse voxel grid.

    Every pixel with positive depth is unprojected at its center
    (u + 0.5, v + 0.5); points outside the normalized cube are dropped.
    Each touched voxel stores the mean feature of its contributing pixels
    and weight 1 (a single view contributed).
    """
    depth = np.asarray(depth_image, dtype=float)
    feats = np.asarray(feature_image, dtype=float)
    h, w = view.intrinsics.height, view.intrinsics.width
    if depth.shape != (h, w):
        raise ShapeMismatchError(f"depth shape {depth.shape} != image size {(h, w)}")
    if feats.ndim != 3 or feats.shape[:2] != (h, w):
        raise ShapeMismatchError("feature image must be (height, width, channels)")
    if np.any(depth < 0) or not np.all(np.isfinite(depth)):
        raise DomainError("depths must be finite and non-negative")
    channels = feats.shape[2]

    vs, us = np.nonzero(depth > 0)
    if us.size == 0:
        return SparseVoxelGrid.empty(r, channels)

    points = unproject_pixels(us + 0.5, vs + 0.5, depth[vs, us], view)
    inside = np.all((points >= -0.5) & (points <= 0.5), axis=1)
    points = points[inside]
    if points.shape[0] == 0:
        return SparseVoxelGrid.empty(r, channels)
    pix_feats = feats[vs[inside], us[inside]]

    cells = np.clip(np.floor((points + 0.5) * r).astype(np.int64), 0, r - 1)
    order, cells, start = _group_by_key(cells, r)
    uniq = cells[start]
    sums = np.add.reduceat(pix_feats[order], start, axis=0)
    counts = np.diff(np.append(start, cells.shape[0]))
    means = sums / counts[:, None]
    return SparseVoxelGrid(
        resolution=r,
        channels=channels,
        indices=uniq,
        features=means,
        weights=np.ones(uniq.shape[0], dtype=np.int64),
    )


def fuse(grids) -> SparseVoxelGrid:
    """Fuse per-view grids into one by weight-weighted feature means.

    The output voxel set is the union of the inputs; each fused feature is
    (sum_i w_i f_i) / (sum_i w_i) accumulated in sorted-by-index order and
    its weight is sum_i w_i.  Because weights count original views, fusion
    is associative: fuse([fuse([a, b]), c]) == fuse([a, b, c]) exactly.
    """
    grids = list(grids)
    if not grids:
        raise DomainError("fuse requires at least one grid")
    r = grids[0].resolution
    channels = grids[0].channels
    for g in grids[1:]:
        if g.resolution != r or g.channels != channels:
            raise ShapeMismatchError("grids must share resolution and channel count")
    indices = np.concatenate([g.indices for g in grids], axis=0)
    if indices.shape[0] == 0:
        return SparseVoxelGrid.empty(r, channels)
    weights = np.concatenate([g.weights for g in grids])
    weighted = np.concatenate([g.features * g.weights[:, None] for g in grids], axis=0)

    order, indices, start = _group_by_key(indices, r)
    w_sums = np.add.reduceat(weights[order], start)
    f_sums = np.add.reduceat(weighted[order], start, axis=0)
    return SparseVoxelGrid(
        resolution=r,
        channels=channels,
        indices=indices[start],
        features=f_sums / w_sums[:, None],
        weights=w_sums,
    )


@functools.lru_cache(maxsize=32)
def _frequencies(width: int) -> Array:
    """``1 / 10000^(2i / width)`` for i < width // 2."""
    return _frozen(1.0 / np.power(10000.0, 2.0 * np.arange(width // 2) / width))


def sinusoid(x, width: int) -> Array:
    """Interleaved ``sin(x / 10000^(2i/width))``, ``cos(...)`` pairs for
    i < width // 2 along a new last axis: the embedding of times and positions."""
    args = np.multiply.outer(x, _frequencies(width))
    out = np.empty(args.shape[:-1] + (2 * args.shape[-1],))
    out[..., 0::2] = np.sin(args)
    out[..., 1::2] = np.cos(args)
    return out


@functools.lru_cache(maxsize=32)
def position_codes(r: int, dim: int) -> Array:
    """Read-only (r^3, dim) codes of every cell in ``flat_order_indices`` order:
    three per-axis blocks of ``d_a = dim // 3`` slots, each the ``sinusoid``
    of the raw coordinate at width ``d_a``, in (x, y, z) order; leftover
    slots stay zero.  Requires dim >= 6."""
    if dim < MIN_PE_DIM:
        raise DomainError(f"positional encoding needs dim >= {MIN_PE_DIM}, got {dim}")
    d_a = dim // 3
    table = np.zeros((r**3, dim))
    coords = flat_order_indices(r)
    for axis in range(3):
        codes = sinusoid(coords[:, axis], d_a)
        table[:, axis * d_a : axis * d_a + codes.shape[1]] = codes
    return _frozen(table)


def encode_positions(positions, r: int, dim: int) -> Array:
    """``position_codes`` of the cells of (n, 3) integer index triples."""
    positions = _check_indices(positions, r, "positions")
    return position_codes(r, dim)[flat_index(positions, r)]


def pooled_condition(grid: SparseVoxelGrid) -> Array:
    """The condition vector handed to models: the mean over a fused grid's
    tokens, each token its voxel's feature plus its positional code.

    The encoding width equals the grid's channel count, so the condition
    keeps the feature dimensionality.  An empty grid, from views that see
    nothing, is the null condition: the zero vector, the same one that
    classifier-free dropout trains on and guided sampling's unconditional
    branch reads.
    """
    if len(grid) == 0:
        return np.zeros(grid.channels)
    tokens = grid.features + encode_positions(grid.indices, grid.resolution, grid.channels)
    return tokens.mean(axis=0)


def heatmap_to_dict(heat: AffordanceHeatmap) -> dict:
    return {
        "resolution": heat.resolution,
        "positions": heat.positions.tolist(),
        "values": heat.values.tolist(),
        "logits": False,
    }


def heatmap_from_dict(data: dict) -> AffordanceHeatmap:
    """A heatmap record; its ``logits`` flag, when present, must be
    ``false``: heatmaps hold probabilities."""
    with malformed("malformed heatmap record", DomainError):
        if data.get("logits", False) is not False:
            raise DomainError(f"heatmap 'logits' must be JSON false, got {data['logits']!r}")
        return AffordanceHeatmap(
            resolution=data["resolution"],
            positions=data["positions"],
            values=np.array(data["values"], dtype=float).reshape(-1),
        )
