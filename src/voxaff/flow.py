"""Rectified-flow machinery: interpolation, matching losses, Euler sampling.

Time convention: t = 1 is pure noise, t = 0 is clean data, and states
move along the straight path X_t = (1 - t) X_0 + t eps.  The matching
target for a velocity model is the constant path derivative (eps - X_0),
so a perfect model undoes the corruption in a single Euler step.  The
sampler walks the uniform grid t = 1, 1 - dt, ..., dt with dt = 1/steps.

Each loss here is a pure numpy function that returns its value and its
hand-derived gradient, ``(loss, dloss)``: the ``loss_fn`` contract of
``netcore.backward``.  `velocity_mask_loss` composes the mask loss with
the clean-sample estimate (eps - v), with the chain-rule sign already
applied to the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericalError,
    ShapeMismatchError,
    check_integer,
    check_real,
)

Array = np.ndarray


def _check_same_shape(a: Array, b: Array, what: str):
    if np.shape(a) != np.shape(b):
        raise ShapeMismatchError(f"{what}: shapes {np.shape(a)} and {np.shape(b)} differ")


#: Largest accepted ``FlowConfig.noise_scale``.
MAX_NOISE_SCALE = 1e150


@dataclass(frozen=True)
class FlowConfig:
    """Sampler/corruption settings.

    ``noise_scale`` is the standard deviation of the Gaussian eps used
    both to corrupt training targets and to initialize sampling.  It is
    at most ``MAX_NOISE_SCALE`` (1e150), so that squares and products of
    noise draws, as the losses and the first layer form them, stay
    finite.
    """

    steps: int = 5
    guidance_strength: float = 3.0
    noise_scale: float = 1.0

    def __post_init__(self):
        check_integer("steps", self.steps)
        check_real("guidance_strength", self.guidance_strength)
        check_real("noise_scale", self.noise_scale)
        if self.steps < 1:
            raise ConfigError(f"need at least one Euler step, got {self.steps}")
        if not 0 < self.noise_scale <= MAX_NOISE_SCALE:
            raise ConfigError(f"noise scale must lie in (0, {MAX_NOISE_SCALE:g}], got {self.noise_scale}")

    @classmethod
    def for_structure(cls) -> "FlowConfig":
        return cls(noise_scale=1.0)

    @classmethod
    def for_affordance_training(cls) -> "FlowConfig":
        return cls(noise_scale=5.0)

    @classmethod
    def for_affordance_eval(cls) -> "FlowConfig":
        return cls(noise_scale=0.5)


def interpolate(x0: Array, eps: Array, t: float) -> Array:
    """Point on the straight noising path: (1 - t) x0 + t eps."""
    _check_same_shape(x0, eps, "interpolate")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"interpolation time {t} outside [0, 1]")
    return (1.0 - t) * np.asarray(x0, dtype=float) + t * np.asarray(eps, dtype=float)


def velocity_target(x0: Array, eps: Array) -> Array:
    """The constant velocity a perfect model should predict: eps - x0."""
    _check_same_shape(x0, eps, "velocity_target")
    return np.asarray(eps, dtype=float) - np.asarray(x0, dtype=float)


def cfm_loss_mse(v_pred: Array, x0: Array, eps: Array) -> tuple[float, Array]:
    """Mean squared error against the straight-path velocity target, and
    its gradient with respect to ``v_pred``."""
    _check_same_shape(v_pred, x0, "cfm_loss_mse")
    diff = np.asarray(v_pred, dtype=float) - velocity_target(x0, eps)
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def predicted_clean(v_pred: Array, eps: Array) -> Array:
    """Implied clean sample eps - v_pred (inverts velocity_target)."""
    _check_same_shape(v_pred, eps, "predicted_clean")
    return np.asarray(eps, dtype=float) - np.asarray(v_pred, dtype=float)


def _softplus(x: Array) -> Array:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: Array) -> Array:
    """Overflow-safe logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


#: Dice smoothing constant.
DICE_SMOOTHING = 1.0


def _check_binary(gt: Array):
    if not np.all((gt == 0.0) | (gt == 1.0)):
        raise DataError("mask ground truth must be binary (0/1)")


def mask_loss(pred_logits: Array, gt_binary: Array) -> tuple[float, Array]:
    """Binary cross-entropy (mean, from logits) plus smoothed Dice loss, and
    its elementwise gradient with respect to ``pred_logits``."""
    p = np.asarray(pred_logits, dtype=float)
    gt = np.asarray(gt_binary, dtype=float)
    _check_same_shape(p, gt, "mask_loss")
    _check_binary(gt)
    bce = float(np.mean(_softplus(p) - p * gt))
    s = sigmoid(p)
    s0 = DICE_SMOOTHING
    a = float(np.sum(s * gt))
    denom = float(np.sum(s) + np.sum(gt)) + s0
    dice = 1.0 - (2.0 * a + s0) / denom
    grad_bce = (s - gt) / p.size
    # quotient rule on (2A + s0)/denom, then sigmoid chain
    grad_dice = -(2.0 * gt * denom - (2.0 * a + s0)) / (denom * denom)
    return bce + dice, grad_bce + grad_dice * s * (1.0 - s)


def velocity_mask_loss(v_pred: Array, eps: Array, gt_binary: Array) -> tuple[float, Array]:
    """Mask loss through the clean-sample estimate, with d/d v_pred.

    loss = mask_loss(eps - v_pred, gt); since the estimate moves opposite
    to the velocity, the returned gradient is the negated logit gradient.
    """
    loss, dlogits = mask_loss(predicted_clean(v_pred, eps), gt_binary)
    return loss, -dlogits


def sample_timestep(rng: np.random.Generator) -> float:
    """Draw t from the logit-normal with location 1 and scale 1."""
    z = 1.0 + rng.standard_normal()
    return float(sigmoid(np.array([z]))[0])


def cfg_combine(v_cond: Array, v_uncond: Array, s: float) -> Array:
    """Classifier-free guidance: v_uncond + s (v_cond - v_uncond)."""
    _check_same_shape(v_cond, v_uncond, "cfg_combine")
    v_c = np.asarray(v_cond, dtype=float)
    v_u = np.asarray(v_uncond, dtype=float)
    return v_u + s * (v_c - v_u)


def euler_sample(velocity_fn, shape, config: FlowConfig, rng: np.random.Generator):
    """Integrate the learned flow from noise back to a clean estimate.

    Starts at ``noise_scale``-scaled Gaussian noise drawn from ``rng`` and
    applies `steps` uniform Euler updates x <- x - dt * velocity_fn(x, t)
    over t = 1, 1 - dt, ..., dt.  Deterministic for a fixed config and
    generator state.
    """
    x = config.noise_scale * rng.standard_normal(shape)
    dt = 1.0 / config.steps
    for i in range(config.steps):
        t = 1.0 - i * dt
        v = np.asarray(velocity_fn(x, t), dtype=float)
        _check_same_shape(v, x, "euler_sample velocity")
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"velocity field produced non-finite values at t={t:.4f}")
        x = x - dt * v
    return x
