"""Test-side reference code: oracles and input builders no program path needs.

* ``unproject_pixel`` / ``project_point``: the scalar pinhole camera that
  the camera round-trip gate and the vectorised ``unproject_pixels`` are
  checked against.
* ``gradient_check``: the central-difference oracle behind the
  analytic-gradient gate; ``grad_buffer``: a fresh flat gradient vector
  and its named views for ``backward``.
* ``reference_forward`` / ``reference_backward``: the velocity MLP with a
  fresh array per layer, which the work-buffer forward and backward must
  match bit for bit.
* ``ReferenceAdamState`` / ``reference_adam_update`` / ``reference_fit``:
  the training loop with one dict entry per parameter, Adam looping over
  sorted names, and its dropout and corruption draws written inline; the
  flat-vector loop must give the same losses and parameters bit for bit.
* ``reference_hemisphere_candidates``, ``reference_random_hemisphere_view``
  and ``reference_sequential_view``: the three camera placements as each
  was written before ``geometry.orbit_view`` took over their shared part;
  the cameras built today must equal them bit for bit.
* ``reference_cfm_loss_mse`` / ``reference_cfm_loss_mse_grad`` and
  ``reference_mask_loss`` / ``reference_mask_loss_grad``: each loss and its
  gradient as separate functions, which the merged ``(loss, dloss)``
  losses must match exactly.
* ``viewpoint_from_dict``: the inverse of ``viewpoint_to_dict``, so a
  round trip pins the viewpoint records that ``trace.json`` holds.
* ``ScriptedRng``: a generator whose draws are given, for the pole case of
  the random training view.
* ``sparse_grid_from_entries`` / ``heatmap_from_entries``: builders from
  unsorted entries for the metric-oracle, view-selection and fusion tests.
* ``occupancy_cube`` / ``raycast_depth``: a depth render of an index set
  over the renderer's own first-hit traversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from voxaff.errors import DomainError, NumericalError
from voxaff.flow import (
    DICE_SMOOTHING,
    _check_binary,
    _check_same_shape,
    _softplus,
    interpolate,
    sample_timestep,
    sigmoid,
    velocity_target,
)
from voxaff.geometry import (
    GOLDEN_ANGLE,
    VIEW_RADIUS,
    CameraIntrinsics,
    Pose,
    Viewpoint,
    _up_for,
    _vec3,
    look_at,
)
from voxaff.netcore import PE_DIM, TrainResult, VelocityModel, _stack_inputs, backward, forward
from voxaff.pipeline import SEQUENTIAL_ELEVATION
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


def grad_buffer(model) -> tuple[np.ndarray, dict]:
    """A fresh float64 vector as long as the model has parameters, and its
    named views: ``backward``'s last two arguments."""
    flat = np.empty(sum(p.size for p in model.params.values()))
    return flat, model.param_views(flat)


def gradient_check(model, loss_fn, batch, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    tokens, cond, t = batch
    _, grads = backward(model, loss_fn, batch, *grad_buffer(model))
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


def _reference_forward_cached(model, tokens, cond, t):
    x = _stack_inputs(model, tokens, cond, t, np.float64)
    acts = [x]
    h = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(model.depth):
            h = np.tanh(h @ model.params[f"W{k}"] + model.params[f"b{k}"])
            acts.append(h)
        v = (h @ model.params["Wout"] + model.params["bout"])[:, 0]
    if not np.all(np.isfinite(v)):
        raise NumericalError("velocity forward pass produced non-finite values")
    return v, acts


def reference_forward(model, tokens, cond, t) -> np.ndarray:
    """Per-token velocities, every layer a fresh array."""
    return _reference_forward_cached(model, tokens, cond, t)[0]


def _reference_velocity_backward(model, acts, dv) -> dict:
    grads = {}
    delta = np.asarray(dv, dtype=float).reshape(-1, 1)
    grads["Wout"] = acts[-1].T @ delta
    grads["bout"] = delta.sum(axis=0)
    delta = delta @ model.params["Wout"].T
    for k in reversed(range(model.depth)):
        delta = delta * (1.0 - acts[k + 1] ** 2)  # tanh'
        grads[f"W{k}"] = acts[k].T @ delta
        grads[f"b{k}"] = delta.sum(axis=0)
        delta = delta @ model.params[f"W{k}"].T
    return grads


def reference_backward(model, loss_fn, batch) -> tuple[float, dict]:
    """Loss and parameter gradients, pulled back through every layer."""
    tokens, cond, t = batch
    v, acts = _reference_forward_cached(model, tokens, cond, t)
    loss, dv = loss_fn(v)
    if not np.isfinite(loss):
        raise NumericalError("loss is not finite")
    grads = _reference_velocity_backward(model, acts, dv)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"gradient for {name} is not finite")
    return float(loss), grads


@dataclass
class ReferenceAdamState:
    """First/second moment accumulators for adaptive-moment updates."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "ReferenceAdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def reference_adam_update(
    params: dict,
    grads: dict,
    state: ReferenceAdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One in-place adaptive-moment step with bias correction."""
    state.step += 1
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    for name in sorted(params):
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        params[name] = params[name] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def reference_fit(cond_dim: int, sample_fn, flow_cfg, cfg) -> TrainResult:
    """``netcore._fit`` with one dict entry per parameter."""
    model = VelocityModel.create(
        token_dim=1 + PE_DIM, cond_dim=cond_dim, hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed
    )
    rng = np.random.default_rng(cfg.seed)
    adam = ReferenceAdamState.for_params(model.params)
    ema = {k: p.copy() for k, p in model.params.items()} if cfg.ema_rate else None
    losses = np.zeros(cfg.steps)
    for step in range(cfg.steps):
        total_grads, total_loss = None, 0.0
        for _ in range(cfg.batch_size):
            x0, pe, cond, loss_of = sample_fn(rng)
            if rng.random() < cfg.cfg_dropout:
                cond = np.zeros(cond_dim)
            eps = flow_cfg.noise_scale * rng.standard_normal(x0.shape)
            t = sample_timestep(rng)
            tokens = np.column_stack([interpolate(x0, eps, t), pe])
            loss, grads = reference_backward(model, lambda v: loss_of(v, eps), (tokens, cond, t))
            if total_grads is not None:
                grads = {k: total_grads[k] + g for k, g in grads.items()}
            total_grads = grads
            total_loss += loss
        mean_grads = {k: g / cfg.batch_size for k, g in total_grads.items()}
        reference_adam_update(
            model.params, mean_grads, adam, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps
        )
        if ema is not None:
            for k in ema:
                ema[k] = cfg.ema_rate * ema[k] + (1.0 - cfg.ema_rate) * model.params[k]
        losses[step] = total_loss / cfg.batch_size
    if ema is not None:
        model.params = ema
    model.steps_trained = cfg.steps
    model.check()
    return TrainResult(model=model, losses=losses)


def reference_hemisphere_candidates(k: int, intrinsics: CameraIntrinsics) -> list[Viewpoint]:
    """``geometry.hemisphere_candidates`` with its camera placement inline."""
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


def reference_random_hemisphere_view(rng: np.random.Generator, intrinsics: CameraIntrinsics) -> Viewpoint:
    """``netcore.random_hemisphere_view`` with its camera placement inline."""
    z = rng.random()
    phi = 2.0 * np.pi * rng.random()
    s = np.sqrt(max(0.0, 1.0 - z * z))
    direction = np.array([s * np.cos(phi), s * np.sin(phi), z])
    origin = VIEW_RADIUS * direction
    pose = look_at(origin, (0.0, 0.0, 0.0), up=_up_for(-direction))
    return Viewpoint(intrinsics=intrinsics, pose=pose)


def reference_sequential_view(azimuth: float, intrinsics) -> Viewpoint:
    """``pipeline._sequential_view`` with its camera placement inline."""
    direction = np.array(
        [
            math.cos(SEQUENTIAL_ELEVATION) * math.cos(azimuth),
            math.cos(SEQUENTIAL_ELEVATION) * math.sin(azimuth),
            math.sin(SEQUENTIAL_ELEVATION),
        ]
    )
    origin = VIEW_RADIUS * direction
    pose = look_at(origin, (0.0, 0.0, 0.0), up=_up_for(-direction))
    return Viewpoint(intrinsics=intrinsics, pose=pose)


def reference_cfm_loss_mse(v_pred, x0, eps) -> float:
    """Mean squared error against the straight-path velocity target."""
    _check_same_shape(v_pred, x0, "cfm_loss_mse")
    diff = np.asarray(v_pred, dtype=float) - velocity_target(x0, eps)
    return float(np.mean(diff * diff))


def reference_cfm_loss_mse_grad(v_pred, x0, eps) -> np.ndarray:
    """d cfm_loss_mse / d v_pred (mean reduction)."""
    _check_same_shape(v_pred, x0, "cfm_loss_mse_grad")
    diff = np.asarray(v_pred, dtype=float) - velocity_target(x0, eps)
    return 2.0 * diff / diff.size


def reference_mask_loss(pred_logits, gt_binary) -> float:
    """Binary cross-entropy (mean, from logits) plus smoothed Dice loss."""
    p = np.asarray(pred_logits, dtype=float)
    gt = np.asarray(gt_binary, dtype=float)
    _check_same_shape(p, gt, "mask_loss")
    _check_binary(gt)
    bce = float(np.mean(_softplus(p) - p * gt))
    s = sigmoid(p)
    s0 = DICE_SMOOTHING
    dice = 1.0 - (2.0 * float(np.sum(s * gt)) + s0) / (float(np.sum(s) + np.sum(gt)) + s0)
    return bce + dice


def reference_mask_loss_grad(pred_logits, gt_binary) -> np.ndarray:
    """d mask_loss / d pred_logits, elementwise."""
    p = np.asarray(pred_logits, dtype=float)
    gt = np.asarray(gt_binary, dtype=float)
    _check_same_shape(p, gt, "mask_loss_grad")
    _check_binary(gt)
    s = sigmoid(p)
    grad_bce = (s - gt) / p.size
    s0 = DICE_SMOOTHING
    a = float(np.sum(s * gt))
    denom = float(np.sum(s) + np.sum(gt)) + s0
    # quotient rule on (2A + s0)/denom, then sigmoid chain
    grad_dice = -(2.0 * gt * denom - (2.0 * a + s0)) / (denom * denom)
    return grad_bce + grad_dice * s * (1.0 - s)


class ScriptedRng:
    """Stand-in generator whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


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


def heatmap_from_entries(resolution: int, entries: dict) -> AffordanceHeatmap:
    """A heatmap from an ``{(ix, iy, iz): value}`` mapping in any order."""
    items = sorted((tuple(int(c) for c in k), float(v)) for k, v in entries.items())
    positions = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 3)
    values = np.array([v for _, v in items], dtype=float)
    return AffordanceHeatmap(resolution=resolution, positions=positions, values=values)


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
