"""Evaluation metrics for reconstruction and affordance grounding.

Point clouds are plain (n, 3) float arrays in normalized object
coordinates; ``as_pointcloud`` validates shape and finiteness.  All
pairwise-distance metrics use exact chunked brute force (the desk-scale
cloud sizes never justify a spatial index), so results match O(n^2)
oracles bit for bit.

Empty-set conventions, stated once and applied throughout:
- volumetric IoU of two empty sets is 1.0 (nothing to disagree on);
- Chamfer distance and F-score require non-empty clouds and raise
  ``UndefinedMetricError`` otherwise;
- per-threshold Chamfer terms where exactly one side is empty are
  excluded from the averaged aCD, with the exclusion count reported.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, ShapeMismatchError, UndefinedMetricError
from .geometry import eval_intrinsics, sphere_viewpoints, unproject_pixels
from .render import raycast_depth
from .voxel import AffordanceHeatmap, as_index_array, flat_index

Array = np.ndarray

#: Probability levels over which aIoU/aCD average.
AFFORDANCE_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)

#: Default F-score distance threshold.
FSCORE_TAU = 0.05


def as_pointcloud(points) -> Array:
    """Validate and normalize a point cloud to an (n, 3) float array."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ShapeMismatchError(f"point cloud must be (n, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("point cloud must be finite")
    return arr


def voxel_center_cloud(indices, r: int) -> Array:
    """Centers of the given cells as a point cloud."""
    arr = as_index_array(indices, r)
    return (arr + 0.5) / r - 0.5


# --- occupancy metrics -------------------------------------------------------


def volumetric_iou(a, b, r: int) -> float:
    """Intersection-over-union of two voxel index sets in [0, r)^3 (both empty -> 1)."""
    a, b = as_index_array(a, r), as_index_array(b, r)
    fa, fb = flat_index(a, r), flat_index(b, r)
    union = np.union1d(fa, fb).size
    if not union:
        return 1.0
    return np.intersect1d(fa, fb).size / union


# --- point-cloud metrics -----------------------------------------------------


def _min_dists(a: Array, b: Array, chunk: int = 256) -> Array:
    """Per-point distance from each point of ``a`` to its nearest in ``b``."""
    out = np.empty(a.shape[0])
    for start in range(0, a.shape[0], chunk):
        block = a[start : start + chunk]
        d2 = ((block[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def chamfer(a, b) -> float:
    """Symmetric mean-of-means Chamfer distance.

    0.5 * mean over a of the nearest-neighbor distance into b, plus the
    mirrored term.  Zero exactly when the two clouds coincide as sets.
    """
    a = as_pointcloud(a)
    b = as_pointcloud(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise UndefinedMetricError("chamfer distance needs two non-empty clouds")
    return 0.5 * float(_min_dists(a, b).mean()) + 0.5 * float(_min_dists(b, a).mean())


def fscore(a, b, tau: float = FSCORE_TAU) -> float:
    """Harmonic mean of precision/recall at distance threshold ``tau``."""
    a = as_pointcloud(a)
    b = as_pointcloud(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise UndefinedMetricError("f-score needs two non-empty clouds")
    if tau <= 0:
        raise DomainError("f-score threshold must be positive")
    precision = float((_min_dists(a, b) <= tau).mean())
    recall = float((_min_dists(b, a) <= tau).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def extract_pointcloud(
    occupied,
    r: int,
    n_views: int = 100,
    n_points: int = 10_000,
    seed: int = 0,
    image_size: int | None = None,
) -> Array:
    """Surface cloud of an occupancy: depth renders from spread-out views.

    Casts depth from ``n_views`` sphere directions (low-discrepancy
    sequence, radius 2), unprojects every hit pixel, and uniformly
    subsamples to ``n_points`` with a seeded rng.  Fewer hits than
    ``n_points`` keeps everything.
    """
    occ = as_index_array(occupied, r)
    if occ.shape[0] == 0:
        raise UndefinedMetricError("cannot extract a point cloud from empty occupancy")
    intrinsics = eval_intrinsics(image_size) if image_size else eval_intrinsics()
    views = sphere_viewpoints(n_views, intrinsics=intrinsics)
    pieces = []
    for view in views:
        img = raycast_depth(occ, r, view)
        vs, us = np.nonzero(img.values)
        if us.size:
            pieces.append(unproject_pixels(us + 0.5, vs + 0.5, img.values[vs, us], view))
    if not pieces:
        raise UndefinedMetricError("no view hit the occupancy")
    cloud = np.concatenate(pieces, axis=0)
    if cloud.shape[0] > n_points:
        keep = np.random.default_rng(seed).choice(cloud.shape[0], size=n_points, replace=False)
        cloud = cloud[np.sort(keep)]
    return cloud


# --- thresholded affordance metrics -----------------------------------------


@dataclass(frozen=True)
class ThresholdedResult:
    """aIoU/aCD with per-threshold breakdowns and exclusion accounting."""

    aiou: float
    acd: float | None  # None when every threshold's CD was excluded
    per_threshold_iou: tuple
    per_threshold_cd: tuple  # entries are floats or None (excluded)
    excluded: int


def aiou_acd(pred: AffordanceHeatmap, gt: AffordanceHeatmap, r: int) -> ThresholdedResult:
    """Threshold-averaged IoU and Chamfer between probability heatmaps.

    At each probability level the heatmaps binarize to voxel sets
    (value >= level); IoU runs on the index sets, Chamfer on their
    center clouds.  Both-empty levels contribute IoU 1 / CD 0; levels
    where exactly one side is empty contribute IoU 0 and are excluded
    from the aCD mean (``excluded`` counts them).
    """
    if pred.logits or gt.logits:
        raise DataError("thresholded metrics need probability heatmaps, not logits")
    if pred.resolution != gt.resolution or pred.resolution != r:
        raise DomainError("heatmap resolutions must match the stated resolution")
    ious, cds = [], []
    excluded = 0
    for level in AFFORDANCE_THRESHOLDS:
        p_set = pred.positions[pred.values >= level]
        g_set = gt.positions[gt.values >= level]
        p_empty, g_empty = p_set.shape[0] == 0, g_set.shape[0] == 0
        if p_empty and g_empty:
            ious.append(1.0)
            cds.append(0.0)
        elif p_empty or g_empty:
            ious.append(0.0)
            cds.append(None)
            excluded += 1
        else:
            ious.append(volumetric_iou(p_set, g_set, r))
            cds.append(chamfer(voxel_center_cloud(p_set, r), voxel_center_cloud(g_set, r)))
    defined = [c for c in cds if c is not None]
    return ThresholdedResult(
        aiou=float(np.mean(ious)),
        acd=float(np.mean(defined)) if defined else None,
        per_threshold_iou=tuple(ious),
        per_threshold_cd=tuple(cds),
        excluded=excluded,
    )


# --- scalar heatmap metrics --------------------------------------------------


def _paired_values(pred, gt):
    p = np.asarray(pred, dtype=float).reshape(-1)
    g = np.asarray(gt, dtype=float).reshape(-1)
    if p.shape != g.shape:
        raise ShapeMismatchError(f"value lengths differ: {p.shape[0]} vs {g.shape[0]}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(g))):
        raise DomainError("metric inputs must be finite")
    return p, g


def _midranks(values: Array) -> Array:
    """1-based ranks with ties assigned the mean of their rank range."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.shape[0])
    i = 0
    while i < order.size:
        j = i
        while j + 1 < order.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc(pred, gt) -> float:
    """Probability a random positive outranks a random negative (ties half).

    Ground truth binarizes at 0.5; a single-class ground truth leaves the
    metric undefined.
    """
    p, g = _paired_values(pred, gt)
    positive = g >= 0.5
    n_pos = int(positive.sum())
    n_neg = p.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes in the ground truth")
    ranks = _midranks(p)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def sim(pred, gt) -> float:
    """Histogram intersection of the two value sets normalized to sum 1."""
    p, g = _paired_values(pred, gt)
    if np.any(p < 0) or np.any(g < 0):
        raise DomainError("similarity expects non-negative values")
    ps, gs = float(p.sum()), float(g.sum())
    if ps == 0.0 or gs == 0.0:
        raise UndefinedMetricError("similarity is undefined for zero-sum inputs")
    return float(np.minimum(p / ps, g / gs).sum())


def mae(pred, gt) -> float:
    """Mean absolute difference of paired values."""
    p, g = _paired_values(pred, gt)
    if p.shape[0] == 0:
        raise UndefinedMetricError("MAE of empty inputs is undefined")
    return float(np.mean(np.abs(p - g)))


# --- tabular output ----------------------------------------------------------

#: Identity columns written first when present, in this order.
_LEAD_COLUMNS = ("object", "query", "strategy", "views")


def metrics_rows_to_csv(rows: list[dict]) -> str:
    """Render metric rows as CSV text; missing/None values become "NA"."""
    if not rows:
        return ""
    keys = set()
    for row in rows:
        keys.update(row)
    lead = [c for c in _LEAD_COLUMNS if c in keys]
    rest = sorted(keys - set(lead))
    columns = lead + rest

    def fmt(value):
        if value is None:
            return "NA"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def write_metrics_csv(path, rows: list[dict], config_echo: dict | None = None):
    """Write rows to ``path``; optionally a deterministic config sidecar.

    The sidecar lands next to the CSV with a ``.config.json`` suffix.
    """
    with open(path, "w") as f:
        f.write(metrics_rows_to_csv(rows))
    if config_echo is not None:
        sidecar = str(path)
        if sidecar.endswith(".csv"):
            sidecar = sidecar[: -len(".csv")]
        with open(sidecar + ".config.json", "w") as f:
            json.dump(config_echo, f, sort_keys=True)
            f.write("\n")
