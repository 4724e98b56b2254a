"""Pinhole cameras, depth unprojection, and deterministic view sampling.

Coordinate conventions, fixed for the whole package:

  * World frame: right-handed, +z is "up".  All objects live inside the
    normalized cube [-0.5, 0.5]^3 centered at the origin.
  * Camera frame: +x right, +y down, +z forward (image origin is the
    top-left corner, u grows right, v grows down).
  * A pose stores the world-from-camera rotation and the camera origin in
    world coordinates, so ``p_world = R @ p_camera + t``.
  * Depth values are camera-frame z coordinates (not ray lengths), so
    ``unproject_pixels`` inverts the pinhole projection wherever depth is
    positive.

All view sampling here is closed-form and deterministic: repeated calls
with identical arguments return bit-identical poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

Array = np.ndarray

#: Golden angle in radians; azimuth increment of the spherical Fibonacci lattice.
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: Default evaluation camera: 40 degree vertical field of view, square image.
EVAL_FOV_DEG = 40.0
EVAL_IMAGE_SIZE = 128

#: Default distance from view candidates to the scene they observe.
VIEW_RADIUS = 2.0

_WORLD_UP = np.array([0.0, 0.0, 1.0])
_FALLBACK_UP = np.array([0.0, 1.0, 0.0])


def _vec3(x, name: str = "vector") -> Array:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics for an image of ``width`` x ``height`` pixels.

    ``fx, fy`` are focal lengths in pixels, ``(cx, cy)`` the principal
    point.  Pixel (u, v) lies at column u, row v with the origin at the
    top-left corner; integer pixels are sampled at their centers
    (u + 0.5, v + 0.5).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise DomainError(f"focal lengths must be positive, got {self.fx}, {self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise DomainError("image dimensions must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise DomainError("principal point must lie within the image")


def eval_intrinsics(size: int = EVAL_IMAGE_SIZE) -> CameraIntrinsics:
    """Square evaluation camera with the ``EVAL_FOV_DEG`` vertical field of view."""
    if size <= 0:
        raise DomainError("image size must be positive")
    f = (size / 2.0) / math.tan(math.radians(EVAL_FOV_DEG) / 2.0)
    c = size / 2.0
    return CameraIntrinsics(fx=f, fy=f, cx=c, cy=c, width=size, height=size)


@dataclass(frozen=True)
class Pose:
    """Rigid world-from-camera transform: ``p_world = rotation @ p_cam + translation``."""

    rotation: Array  # (3, 3) orthonormal, det +1
    translation: Array  # (3,) camera origin in world coordinates

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tr = _vec3(self.translation, "translation")
        if rot.shape != (3, 3) or not np.all(np.isfinite(rot)):
            raise DomainError("rotation must be a finite 3x3 matrix")
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9):
            raise DomainError("rotation must be orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise DomainError("rotation must have determinant +1")
        rot = rot.copy()
        tr = tr.copy()
        rot.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    def matrix(self) -> Array:
        """4x4 homogeneous world-from-camera matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class Viewpoint:
    """A camera: intrinsics plus world-from-camera pose."""

    intrinsics: CameraIntrinsics
    pose: Pose


def unproject_pixels(us: Array, vs: Array, ds: Array, view: Viewpoint) -> Array:
    """Lift pixels (u, v) at camera-frame depths d into world coordinates.

    Each camera-frame point is ``((u - cx) * d / fx, (v - cy) * d / fy, d)``,
    mapped through the world-from-camera pose; d == 0 gives the camera
    origin.  Returns an (n, 3) array for equal-length coordinate arrays.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    ds = np.asarray(ds, dtype=float)
    if not (us.shape == vs.shape == ds.shape):
        raise DomainError("u, v, d arrays must share a shape")
    if not (np.all(np.isfinite(us)) and np.all(np.isfinite(vs)) and np.all(np.isfinite(ds))):
        raise DomainError("non-finite pixel/depth input")
    if np.any(ds < 0):
        raise DomainError("depths must be non-negative")
    intr = view.intrinsics
    cam = np.stack(
        [(us - intr.cx) * ds / intr.fx, (vs - intr.cy) * ds / intr.fy, ds], axis=-1
    )
    return cam @ view.pose.rotation.T + view.pose.translation


def look_at(origin, target, up=_WORLD_UP) -> Pose:
    """Pose of a camera at ``origin`` whose +z (forward) axis points at ``target``.

    The camera +y axis (image "down") is chosen so the world ``up``
    direction appears upward in the image.  Raises when origin == target
    or when the viewing direction is parallel to ``up``.
    """
    origin = _vec3(origin, "origin")
    target = _vec3(target, "target")
    up = _vec3(up, "up")
    forward = target - origin
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise DomainError("look_at origin and target coincide")
    forward = forward / norm
    right = np.cross(forward, up)
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-9:
        raise DomainError("viewing direction is parallel to the up vector")
    right = right / rnorm
    down = np.cross(forward, right)  # unit because forward is orthogonal to right
    rotation = np.column_stack([right, down, forward])
    return Pose(rotation=rotation, translation=origin)


def _up_for(direction: Array) -> Array:
    """World up, or the +y fallback when looking straight along +-z."""
    if abs(float(direction @ _WORLD_UP)) > (1.0 - 1e-9) * float(np.linalg.norm(direction)):
        return _FALLBACK_UP
    return _WORLD_UP


def hemisphere_candidates(k: int, intrinsics: CameraIntrinsics) -> list[Viewpoint]:
    """k candidate cameras on the upper hemisphere of radius ``VIEW_RADIUS``.

    Positions follow a spherical Fibonacci lattice restricted to the upper
    hemisphere: candidate i sits at elevation ``z_i = 1 - i / (k - 1)``
    (the sequence starts at the pole and ends on the equator) and azimuth
    ``i * GOLDEN_ANGLE``.  For k == 1 the single candidate sits at the
    pole.  Each camera looks at the origin with world +z up; the pole
    camera falls back to +y as its up direction.

    Returns a list of length k, deterministic and bit-identical across calls.
    """
    if k < 1:
        raise DomainError(f"candidate count must be >= 1, got {k}")
    target = np.zeros(3)
    views = []
    for i in range(k):
        z = 1.0 if k == 1 else 1.0 - i / (k - 1)
        s = math.sqrt(max(0.0, 1.0 - z * z))
        phi = i * GOLDEN_ANGLE
        direction = np.array([s * math.cos(phi), s * math.sin(phi), z])
        origin = target + VIEW_RADIUS * direction
        pose = look_at(origin, target, up=_up_for(target - origin))
        views.append(Viewpoint(intrinsics=intrinsics, pose=pose))
    return views


def viewpoint_to_dict(view: Viewpoint) -> dict:
    """JSON-ready dict: intrinsics plus a row-major 4x4 world-from-camera pose."""
    intr = view.intrinsics
    return {
        "fx": intr.fx,
        "fy": intr.fy,
        "cx": intr.cx,
        "cy": intr.cy,
        "width": intr.width,
        "height": intr.height,
        "pose": [float(x) for x in view.pose.matrix().reshape(-1)],
    }
