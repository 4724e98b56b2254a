"""Test-side reference code: oracles and input builders no program path needs.

* ``unproject_pixel`` / ``project_point``: the scalar pinhole camera that
  the camera round-trip gate and the vectorised ``unproject_pixels`` are
  checked against.
* ``gradient_check``: the central-difference oracle behind the
  analytic-gradient gate.
* ``viewpoint_from_dict``: the inverse of ``viewpoint_to_dict``, so a
  round trip pins the viewpoint records that ``trace.json`` holds.
* ``sparse_grid_from_entries`` / ``heatmap_from_entries``: builders from
  unsorted entries for the metric-oracle, view-selection and fusion tests.
* ``occupancy_cube`` / ``raycast_depth``: a depth render of an index set
  over the renderer's own first-hit traversal.
"""

from __future__ import annotations

import math

import numpy as np

from voxaff.errors import DomainError
from voxaff.geometry import CameraIntrinsics, Pose, Viewpoint, _vec3
from voxaff.netcore import backward, forward
from voxaff.render import DepthImage, _first_hits
from voxaff.voxel import AffordanceHeatmap, SparseVoxelGrid, as_index_array


def unproject_pixel(u: float, v: float, d: float, view: Viewpoint) -> np.ndarray:
    """World point of pixel (u, v), within the image bounds, at camera-frame
    depth d >= 0; d == 0 gives the camera origin."""
    if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(d)):
        raise DomainError(f"non-finite pixel/depth ({u}, {v}, {d})")
    if d < 0:
        raise DomainError(f"depth must be non-negative, got {d}")
    intr = view.intrinsics
    if not (0.0 <= u <= intr.width and 0.0 <= v <= intr.height):
        raise DomainError(f"pixel ({u}, {v}) outside image bounds")
    cam = np.array([(u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d])
    return view.pose.rotation @ cam + view.pose.translation


def project_point(p, view: Viewpoint) -> tuple[float, float, float]:
    """(u, v, depth) of world point ``p``: the exact inverse of
    ``unproject_pixel`` wherever the camera-frame depth is positive."""
    cam = view.pose.rotation.T @ (_vec3(p, "point") - view.pose.translation)
    d = cam[2]
    if d <= 0:
        raise DomainError(f"point has non-positive camera depth {d}")
    intr = view.intrinsics
    return float(intr.cx + intr.fx * cam[0] / d), float(intr.cy + intr.fy * cam[1] / d), float(d)


def viewpoint_from_dict(data: dict) -> Viewpoint:
    """Inverse of ``viewpoint_to_dict``."""
    try:
        intr = CameraIntrinsics(
            fx=float(data["fx"]),
            fy=float(data["fy"]),
            cx=float(data["cx"]),
            cy=float(data["cy"]),
            width=int(data["width"]),
            height=int(data["height"]),
        )
        pose_values = [float(x) for x in data["pose"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed viewpoint record: {exc}") from exc
    if len(pose_values) != 16:
        raise DomainError(f"pose must hold 16 numbers, got {len(pose_values)}")
    m = np.array(pose_values).reshape(4, 4)
    if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
        raise DomainError("pose matrix must have homogeneous bottom row")
    return Viewpoint(intrinsics=intr, pose=Pose(rotation=m[:3, :3], translation=m[:3, 3]))


def gradient_check(model, loss_fn, batch, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    tokens, cond, t = batch
    _, grads = backward(model, loss_fn, batch)
    worst = 0.0
    for name, param in model.params.items():
        flat = param.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn(forward(model, tokens, cond, t))[0]
            flat[i] = orig - h
            lo = loss_fn(forward(model, tokens, cond, t))[0]
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * h)
            analytic = grads[name].reshape(-1)[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def sparse_grid_from_entries(resolution, channels, indices, features, weights) -> SparseVoxelGrid:
    """A grid from unsorted (but unique) entries."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    features = np.asarray(features, dtype=float).reshape(indices.shape[0], channels)
    weights = np.asarray(weights, dtype=np.int64).reshape(indices.shape[0])
    order = np.lexsort(indices.T[::-1]) if indices.shape[0] > 1 else slice(None)
    return SparseVoxelGrid(
        resolution=resolution,
        channels=channels,
        indices=indices[order],
        features=features[order],
        weights=weights[order],
    )


def heatmap_from_entries(resolution: int, entries: dict, logits: bool = False) -> AffordanceHeatmap:
    """A heatmap from an ``{(ix, iy, iz): value}`` mapping in any order."""
    items = sorted((tuple(int(c) for c in k), float(v)) for k, v in entries.items())
    positions = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 3)
    values = np.array([v for _, v in items], dtype=float)
    return AffordanceHeatmap(resolution=resolution, positions=positions, values=values, logits=logits)


def occupancy_cube(occupied, r: int) -> np.ndarray:
    """(r, r, r) boolean lookup cube of a set or array of index triples."""
    arr = as_index_array(occupied, r)
    cube = np.zeros((r, r, r), dtype=bool)
    cube[arr[:, 0], arr[:, 1], arr[:, 2]] = True
    return cube


def raycast_depth(occupied, r: int, view: Viewpoint) -> DepthImage:
    """Camera-frame depth of the entry face of each pixel ray's first
    occupied cell (0 = miss), as ``render_views`` computes it."""
    rays, (hit, t_hit, _, _, _) = _first_hits(occupancy_cube(occupied, r), view)
    intr = view.intrinsics
    depth = np.where(hit, t_hit * rays.z_per_t, 0.0).reshape(intr.height, intr.width)
    return DepthImage(width=intr.width, height=intr.height, values=depth)
