"""Pinhole cameras, depth unprojection, and deterministic view sampling.

Coordinate conventions, fixed for the whole package:

  * World frame: right-handed, +z is "up".  All objects live inside the
    normalized cube [-0.5, 0.5]^3 centered at the origin.
  * Camera frame: +x right, +y down, +z forward (image origin is the
    top-left corner, u grows right, v grows down).
  * A pose stores the world-from-camera rotation and the camera origin in
    world coordinates, so ``p_world = R @ p_camera + t``.
  * Depth values are camera-frame z coordinates (not ray lengths).  With
    that convention ``unproject_pixel`` is an exact inverse of
    ``project_point`` wherever depth is positive.

All view sampling here is closed-form and deterministic: repeated calls
with identical arguments return bit-identical poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, DomainError

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


def eval_intrinsics(size: int = EVAL_IMAGE_SIZE, fov_deg: float = EVAL_FOV_DEG) -> CameraIntrinsics:
    """Square evaluation camera with the given vertical field of view."""
    if size <= 0:
        raise DomainError("image size must be positive")
    f = (size / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
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


def unproject_pixel(u: float, v: float, d: float, view: Viewpoint) -> Array:
    """Lift pixel (u, v) at camera-frame depth d into world coordinates.

    The camera-frame point is ``((u - cx) * d / fx, (v - cy) * d / fy, d)``;
    it is then mapped through the world-from-camera pose.

    Args:
        u, v: continuous pixel coordinates within the image bounds.
        d: camera-frame depth, >= 0.  d == 0 returns the camera origin.

    Returns:
        World-space 3-vector.
    """
    if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(d)):
        raise DomainError(f"non-finite pixel/depth ({u}, {v}, {d})")
    if d < 0:
        raise DomainError(f"depth must be non-negative, got {d}")
    intr = view.intrinsics
    if not (0.0 <= u <= intr.width and 0.0 <= v <= intr.height):
        raise DomainError(f"pixel ({u}, {v}) outside image bounds")
    cam = np.array([(u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d])
    return view.pose.rotation @ cam + view.pose.translation


def unproject_pixels(us: Array, vs: Array, ds: Array, view: Viewpoint) -> Array:
    """Vectorized :func:`unproject_pixel` for equal-length coordinate arrays."""
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


def project_point(p, view: Viewpoint) -> tuple[float, float, float]:
    """Project a world point into (u, v, depth) for the given camera.

    Exact inverse of :func:`unproject_pixel` whenever the camera-frame
    depth is positive.  The returned pixel coordinates are continuous and
    may fall outside the image bounds.

    Raises:
        BehindCameraError: camera-frame depth <= 0.
    """
    p = _vec3(p, "point")
    cam = view.pose.rotation.T @ (p - view.pose.translation)
    d = cam[2]
    if d <= 0:
        raise BehindCameraError(f"point has non-positive camera depth {d}")
    intr = view.intrinsics
    u = intr.cx + intr.fx * cam[0] / d
    v = intr.cy + intr.fy * cam[1] / d
    return float(u), float(v), float(d)


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


def hemisphere_candidates(
    k: int,
    radius: float = VIEW_RADIUS,
    target=(0.0, 0.0, 0.0),
    intrinsics: CameraIntrinsics | None = None,
) -> list[Viewpoint]:
    """k candidate cameras on the upper hemisphere around ``target``.

    Positions follow a spherical Fibonacci lattice restricted to the upper
    hemisphere: candidate i sits at elevation ``z_i = 1 - i / (k - 1)``
    (the sequence starts at the pole and ends on the equator) and azimuth
    ``i * GOLDEN_ANGLE``.  For k == 1 the single candidate sits at the
    pole.  Each camera looks at ``target`` with world +z up; the pole
    camera falls back to +y as its up direction.

    Returns a list of length k, deterministic and bit-identical across calls.
    """
    if k < 1:
        raise DomainError(f"candidate count must be >= 1, got {k}")
    if radius <= 0:
        raise DomainError("radius must be positive")
    target = _vec3(target, "target")
    if intrinsics is None:
        intrinsics = eval_intrinsics()
    views = []
    for i in range(k):
        z = 1.0 if k == 1 else 1.0 - i / (k - 1)
        s = math.sqrt(max(0.0, 1.0 - z * z))
        phi = i * GOLDEN_ANGLE
        direction = np.array([s * math.cos(phi), s * math.sin(phi), z])
        origin = target + radius * direction
        pose = look_at(origin, target, up=_up_for(target - origin))
        views.append(Viewpoint(intrinsics=intrinsics, pose=pose))
    return views


def radical_inverse_base2(i: int) -> float:
    """Van der Corput radical inverse of ``i`` in base 2 (in [0, 1))."""
    if i < 0:
        raise DomainError("index must be non-negative")
    inv = 0.0
    bk = 0.5
    while i > 0:
        inv += (i & 1) * bk
        i >>= 1
        bk *= 0.5
    return inv


def hammersley_directions(n: int) -> Array:
    """n unit directions on the full sphere from the 2D Hammersley set.

    Sample i maps (i / n, radical_inverse_base2(i)) through the equal-area
    sphere parameterization ``phi = 2 pi u``, ``z = 1 - 2 v``.  Directions
    are pairwise distinct for any n >= 1.

    Returns:
        (n, 3) array of unit vectors.
    """
    if n < 1:
        raise DomainError(f"direction count must be >= 1, got {n}")
    us = np.arange(n, dtype=float) / n
    vs = np.array([radical_inverse_base2(i) for i in range(n)])
    z = 1.0 - 2.0 * vs
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * us
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def sphere_viewpoints(
    n: int,
    radius: float = VIEW_RADIUS,
    target=(0.0, 0.0, 0.0),
    intrinsics: CameraIntrinsics | None = None,
) -> list[Viewpoint]:
    """Cameras at ``hammersley_directions(n) * radius`` looking at ``target``."""
    target = _vec3(target, "target")
    if intrinsics is None:
        intrinsics = eval_intrinsics()
    views = []
    for direction in hammersley_directions(n):
        origin = target + radius * direction
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


def viewpoint_from_dict(data: dict) -> Viewpoint:
    """Inverse of :func:`viewpoint_to_dict`."""
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
    pose = Pose(rotation=m[:3, :3], translation=m[:3, 3])
    return Viewpoint(intrinsics=intr, pose=pose)
