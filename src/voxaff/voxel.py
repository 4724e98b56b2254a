"""Sparse voxel grids over the normalized cube, fusion, and conditioning.

The scene volume is the cube [-0.5, 0.5]^3 split into r^3 cells.  A world
point p falls into cell ``floor((p + 0.5) * r)`` clamped to [0, r-1]; the
center of cell (i, j, k) is ``(i + 0.5) / r - 0.5`` per axis.

Index triples are (ix, iy, iz).  Sparse entries are kept sorted
lexicographically by that triple.  Dense grids use the "x fastest" flat
layout: flat = ix + r * iy + r^2 * iz, with channels contiguous per cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptyConditionError,
    ShapeMismatchError,
    SupportError,
)
from .geometry import Viewpoint, unproject_pixels

Array = np.ndarray

#: Smallest supported positional-encoding width (two slots per axis).
MIN_PE_DIM = 6


def _frozen(a: Array) -> Array:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _lexsort_rows(indices: Array):
    """Order that sorts (ix, iy, iz) rows lexicographically, ix most significant."""
    return np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0]))


def _check_indices(indices: Array, r: int, name: str = "indices") -> Array:
    indices = np.asarray(indices)
    if indices.size == 0:
        indices = indices.reshape(0, 3)
    if indices.ndim != 2 or indices.shape[1] != 3:
        raise DomainError(f"{name} must have shape (n, 3), got {indices.shape}")
    if not np.issubdtype(indices.dtype, np.integer):
        raise DomainError(f"{name} must be integer typed")
    if indices.size and (indices.min() < 0 or indices.max() >= r):
        raise DomainError(f"{name} must lie in [0, {r})^3")
    return indices.astype(np.int64, copy=False)


def _index_rows(occupied) -> Array:
    """A set/sequence/array of index triples as an (n, 3) int64 array, unsorted."""
    if isinstance(occupied, np.ndarray):
        return occupied.astype(np.int64, copy=False).reshape(-1, 3)
    rows = [tuple(idx) for idx in occupied]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3)


def as_index_array(occupied, r: int) -> Array:
    """Normalize a set/sequence/array of index triples in [0, r)^3 to a sorted (n, 3) array."""
    arr = _index_rows(occupied)
    _check_indices(arr, r, "occupancy indices")
    if arr.shape[0] > 1:
        arr = arr[_lexsort_rows(arr)]
    return arr


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
        if self.resolution < 1:
            raise DomainError(f"resolution must be >= 1, got {self.resolution}")
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
        if indices.shape[0] > 1:
            order_ok = np.array_equal(indices, indices[_lexsort_rows(indices)])
            if not order_ok:
                raise DomainError("entries must be sorted lexicographically by index")
        if indices.shape[0] != len(np.unique(indices, axis=0)):
            raise DomainError("entries must have unique indices")
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

    @classmethod
    def from_entries(cls, resolution, channels, indices, features, weights) -> "SparseVoxelGrid":
        """Build a grid from unsorted (but unique) entries."""
        indices = _check_indices(np.asarray(indices), resolution)
        features = np.asarray(features, dtype=float).reshape(indices.shape[0], channels)
        weights = np.asarray(weights, dtype=np.int64).reshape(indices.shape[0])
        order = _lexsort_rows(indices) if indices.shape[0] > 1 else slice(None)
        return cls(
            resolution=resolution,
            channels=channels,
            indices=indices[order],
            features=features[order],
            weights=weights[order],
        )


@dataclass(frozen=True)
class DenseGrid:
    """Dense r^3 x channels field over the cube, values indexed [ix, iy, iz, c]."""

    resolution: int
    channels: int
    values: Array  # (r, r, r, channels) float64

    def __post_init__(self):
        if self.resolution < 1:
            raise DomainError("resolution must be >= 1")
        if self.channels < 1:
            raise DomainError("channel count must be >= 1")
        values = np.asarray(self.values, dtype=float)
        r = self.resolution
        if values.shape != (r, r, r, self.channels):
            raise ShapeMismatchError(
                f"values shape {values.shape} != {(r, r, r, self.channels)}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        object.__setattr__(self, "values", _frozen(values))

    def flat(self) -> Array:
        """(r^3, channels) view in x-fastest order: row ix + r*iy + r^2*iz."""
        return self.values.transpose(2, 1, 0, 3).reshape(-1, self.channels)

    @classmethod
    def from_flat(cls, resolution: int, channels: int, flat: Array) -> "DenseGrid":
        flat = np.asarray(flat, dtype=float).reshape(resolution**3, channels)
        cube = flat.reshape(resolution, resolution, resolution, channels).transpose(2, 1, 0, 3)
        return cls(resolution=resolution, channels=channels, values=cube)


def flat_index(indices: Array, r: int) -> Array:
    """Flat x-fastest cell index ``ix + r*iy + r^2*iz`` of (n, 3) index triples."""
    return indices[:, 0] + r * indices[:, 1] + r * r * indices[:, 2]


@functools.lru_cache(maxsize=32)
def flat_order_indices(r: int) -> Array:
    """(r^3, 3) index triples enumerated in the x-fastest flat order."""
    iz, iy, ix = np.meshgrid(np.arange(r), np.arange(r), np.arange(r), indexing="ij")
    out = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3).astype(np.int64)
    return _frozen(out)


@dataclass(frozen=True)
class AffordanceHeatmap:
    """Scalar affordance field over a set of occupied voxels.

    ``values`` are probabilities in [0, 1] unless ``logits`` is set, in
    which case they are pre-sigmoid scores.  Positions are unique and
    sorted lexicographically.
    """

    resolution: int
    positions: Array  # (n, 3) int64
    values: Array  # (n,) float64
    logits: bool = False

    def __post_init__(self):
        positions = _check_indices(np.asarray(self.positions), self.resolution, "positions")
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.shape[0] != positions.shape[0]:
            raise ShapeMismatchError("one value per position required")
        if not np.all(np.isfinite(values)):
            raise DomainError("heatmap values must be finite")
        if not self.logits and values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise DomainError("probability heatmap values must lie in [0, 1]")
        if positions.shape[0] > 1:
            if not np.array_equal(positions, positions[_lexsort_rows(positions)]):
                raise DomainError("positions must be sorted lexicographically")
        if positions.shape[0] != len(np.unique(positions, axis=0)):
            raise DomainError("positions must be unique")
        object.__setattr__(self, "positions", _frozen(positions))
        object.__setattr__(self, "values", _frozen(values))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def from_entries(cls, resolution: int, entries: dict, logits: bool = False) -> "AffordanceHeatmap":
        """Build from an ``{(ix, iy, iz): value}`` mapping (any order)."""
        items = sorted((tuple(int(c) for c in k), float(v)) for k, v in entries.items())
        positions = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 3)
        values = np.array([v for _, v in items], dtype=float)
        return cls(resolution=resolution, positions=positions, values=values, logits=logits)

    def check_support(self, occupied) -> Array:
        """Raise unless every heated position appears in ``occupied``.

        Returns the flat x-fastest boolean lattice of the occupied cells.
        Triples outside [0, r)^3 are dropped first, so none aliases a cell.
        """
        r = self.resolution
        occ = _index_rows(occupied)
        occ = occ[np.all((occ >= 0) & (occ < r), axis=1)]
        lattice = np.zeros(r**3, dtype=bool)
        lattice[flat_index(occ, r)] = True
        missing = np.count_nonzero(~lattice[flat_index(self.positions, r)])
        if missing:
            raise SupportError(f"{missing} heatmap positions outside occupancy")
        return lattice


def backproject_view(
    depth_image: Array,
    feature_image: Array,
    view: Viewpoint,
    r: int,
    stats: dict | None = None,
) -> SparseVoxelGrid:
    """Lift one posed RGB-D style observation into a sparse voxel grid.

    Every pixel with positive depth is unprojected at its center
    (u + 0.5, v + 0.5); points outside the normalized cube are dropped
    (count reported via ``stats["out_of_cube"]`` when a dict is passed).
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
    if stats is not None:
        stats["out_of_cube"] = 0
    if us.size == 0:
        return SparseVoxelGrid.empty(r, channels)

    points = unproject_pixels(us + 0.5, vs + 0.5, depth[vs, us], view)
    inside = np.all((points >= -0.5) & (points <= 0.5), axis=1)
    if stats is not None:
        stats["out_of_cube"] = int(np.count_nonzero(~inside))
    points = points[inside]
    if points.shape[0] == 0:
        return SparseVoxelGrid.empty(r, channels)
    pix_feats = feats[vs[inside], us[inside]]

    cells = np.clip(np.floor((points + 0.5) * r).astype(np.int64), 0, r - 1)
    order = _lexsort_rows(cells)
    cells = cells[order]
    pix_feats = pix_feats[order]
    uniq, start = np.unique(cells, axis=0, return_index=True)
    sums = np.add.reduceat(pix_feats, start, axis=0)
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

    order = _lexsort_rows(indices)
    indices, weights, weighted = indices[order], weights[order], weighted[order]
    uniq, start = np.unique(indices, axis=0, return_index=True)
    w_sums = np.add.reduceat(weights, start)
    f_sums = np.add.reduceat(weighted, start, axis=0)
    return SparseVoxelGrid(
        resolution=r,
        channels=channels,
        indices=uniq,
        features=f_sums / w_sums[:, None],
        weights=w_sums,
    )


@functools.lru_cache(maxsize=32)
def _pe_table(r: int, dim: int) -> Array:
    if dim < MIN_PE_DIM:
        raise DomainError(f"positional encoding needs dim >= {MIN_PE_DIM}, got {dim}")
    d_a = dim // 3
    n_pairs = d_a // 2
    freqs = 1.0 / np.power(10000.0, 2.0 * np.arange(n_pairs) / d_a)
    table = np.zeros((r**3, dim))
    coords = flat_order_indices(r)  # row ix + r*iy + r^2*iz
    for axis in range(3):
        args = coords[:, axis, None] * freqs[None, :]
        base = axis * d_a
        table[:, base : base + 2 * n_pairs : 2] = np.sin(args)
        table[:, base + 1 : base + 2 * n_pairs : 2] = np.cos(args)
    return _frozen(table)


def encode_positions(positions: Array, r: int, dim: int) -> Array:
    """Sinusoidal 3D positional encodings of (n, 3) integer index triples.

    The width splits into three per-axis blocks of ``d_a = dim // 3``
    slots, paired as ``sin(x / 10000^(2i/d_a))`` and ``cos(...)`` of the
    raw coordinate for i < d_a // 2, in (x, y, z) order; leftover slots
    stay zero.  Requires dim >= 6.
    """
    positions = _check_indices(np.asarray(positions), r, "positions")
    return _pe_table(r, dim)[flat_index(positions, r)]


def pooled_condition(grid: SparseVoxelGrid) -> Array:
    """The condition vector handed to models: the mean over a fused grid's
    tokens, each token its voxel's feature plus its positional code.

    The encoding width equals the grid's channel count, so the condition
    keeps the feature dimensionality.  An empty grid cannot condition
    anything and raises ``EmptyConditionError`` (callers fall back to the
    unconditional branch).
    """
    if len(grid) == 0:
        raise EmptyConditionError("cannot build conditioning tokens from an empty grid")
    tokens = grid.features + encode_positions(grid.indices, grid.resolution, grid.channels)
    return tokens.mean(axis=0)


def dense_threshold(latent: DenseGrid, threshold: float = 0.0) -> Array:
    """Indices of cells whose first channel exceeds ``threshold`` (sorted)."""
    if latent.channels < 1:
        raise DomainError("latent grid needs at least one channel")
    mask = latent.flat()[:, 0] > threshold
    picked = flat_order_indices(latent.resolution)[mask]
    if picked.shape[0] > 1:
        picked = picked[_lexsort_rows(picked)]
    return picked.copy()


def heatmap_to_dict(heat: AffordanceHeatmap) -> dict:
    return {
        "resolution": heat.resolution,
        "positions": heat.positions.tolist(),
        "values": heat.values.tolist(),
        "logits": heat.logits,
    }


def heatmap_from_dict(data: dict) -> AffordanceHeatmap:
    try:
        return AffordanceHeatmap(
            resolution=int(data["resolution"]),
            positions=np.array(data["positions"], dtype=np.int64).reshape(-1, 3),
            values=np.array(data["values"], dtype=float).reshape(-1),
            logits=bool(data.get("logits", False)),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed heatmap record: {exc}") from exc
