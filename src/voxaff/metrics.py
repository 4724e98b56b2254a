"""Evaluation metrics for reconstruction and affordance grounding.

Point clouds are plain (n, 3) float arrays in normalized object
coordinates; ``as_pointcloud`` validates shape and finiteness.  Chamfer
uses exact chunked brute force (the desk-scale cloud sizes never justify
a spatial index): one squared-distance table per block of points serves
both directions, its row minima one way and running column minima the
other, so results match O(n^2) oracles bit for bit.  AUC counts each
positive's wins and ties with two binary searches over the sorted
negatives (the Mann-Whitney U count), which is exact in floats.

Empty-set conventions, stated once and applied throughout:
- volumetric IoU of two empty sets is 1.0 (nothing to disagree on);
- Chamfer distance requires non-empty clouds and raises
  ``UndefinedMetricError`` otherwise;
- per-threshold Chamfer terms where exactly one side is empty are
  excluded from the averaged aCD, with the exclusion count reported.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError, UndefinedMetricError, write_json
from .voxel import AffordanceHeatmap, _check_indices, cell_centers, flat_index

Array = np.ndarray

#: Probability levels over which aIoU/aCD average.
AFFORDANCE_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)


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


# --- occupancy metrics -------------------------------------------------------


def volumetric_iou(a, b, r: int) -> float:
    """Intersection-over-union of two voxel index sets in [0, r)^3 (both empty -> 1)."""
    fa, fb = (flat_index(_check_indices(s, r, "occupancy indices"), r) for s in (a, b))
    union = np.union1d(fa, fb).size
    if not union:
        return 1.0
    return np.intersect1d(fa, fb).size / union


# --- point-cloud metrics -----------------------------------------------------

#: Points of ``a`` per block of ``chamfer``'s brute-force distance table.
_CHUNK = 256


def chamfer(a, b) -> float:
    """Symmetric mean-of-means Chamfer distance.

    0.5 * mean over a of the nearest-neighbor distance into b, plus the
    mirrored term.  Zero exactly when the two clouds coincide as sets.
    """
    a = as_pointcloud(a)
    b = as_pointcloud(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise UndefinedMetricError("chamfer distance needs two non-empty clouds")
    to_b = np.empty(a.shape[0])
    to_a = np.full(b.shape[0], np.inf)
    for start in range(0, a.shape[0], _CHUNK):
        d2 = ((a[start : start + _CHUNK, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        to_b[start : start + _CHUNK] = d2.min(axis=1)
        np.minimum(to_a, d2.min(axis=0), out=to_a)
    return 0.5 * float(np.sqrt(to_b).mean()) + 0.5 * float(np.sqrt(to_a).mean())


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
            cds.append(chamfer(cell_centers(p_set, r), cell_centers(g_set, r)))
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
    # Half the sum of both searches is each positive's count of negatives
    # below it plus half the negatives tied with it: the U statistic.
    negatives = np.sort(p[~positive])
    below = np.searchsorted(negatives, p[positive], side="left")
    below_or_tied = np.searchsorted(negatives, p[positive], side="right")
    return float((below.sum() + below_or_tied.sum()) / 2.0 / (n_pos * n_neg))


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


def write_metrics_csv(path, rows: list[dict], config_echo: dict):
    """Write rows to ``path`` and a deterministic config sidecar next to it,
    with a ``.config.json`` suffix in place of ``.csv``."""
    with open(path, "w") as f:
        f.write(metrics_rows_to_csv(rows))
    sidecar = str(path)
    if sidecar.endswith(".csv"):
        sidecar = sidecar[: -len(".csv")]
    write_json(sidecar + ".config.json", config_echo)
