"""Flow-matching core tests: hand-derived values, closed forms, and
finite-difference gradient checks."""

import dataclasses
import math

import numpy as np
import pytest

import voxaff.flow as fl
from oracles import (
    reference_cfm_loss_mse,
    reference_cfm_loss_mse_grad,
    reference_mask_loss,
    reference_mask_loss_grad,
)
from voxaff.errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericalError,
    ShapeMismatchError,
)


def _dyadic(rng, shape, denom=8):
    """Random multiples of 1/denom: float arithmetic on these is exact."""
    return rng.integers(-2 * denom, 2 * denom + 1, size=shape) / denom


# --- interpolation and targets ---------------------------------------------


def test_interpolate_endpoints_and_hand_value():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((4, 3))
    eps = rng.standard_normal((4, 3))
    assert np.array_equal(fl.interpolate(x0, eps, 0.0), x0)
    assert np.array_equal(fl.interpolate(x0, eps, 1.0), eps)
    assert fl.interpolate(np.array(2.0), np.array(-2.0), 0.25) == pytest.approx(1.0)


def test_interpolate_validates():
    with pytest.raises(ShapeMismatchError):
        fl.interpolate(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(DomainError):
        fl.interpolate(np.zeros(3), np.zeros(3), 1.5)


def test_velocity_target_oracle():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(10)
    eps = rng.standard_normal(10)
    assert np.array_equal(fl.velocity_target(x0, x0), np.zeros(10))
    assert np.array_equal(fl.velocity_target(np.zeros(10), eps), eps)
    expect = np.array([eps[i] - x0[i] for i in range(10)])
    assert np.array_equal(fl.velocity_target(x0, eps), expect)


def test_path_derivative_is_velocity_target():
    # Two-point difference along the straight path recovers the target.
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)
    t1, t2 = 0.25, 0.75
    diff = (fl.interpolate(x0, eps, t2) - fl.interpolate(x0, eps, t1)) / (t2 - t1)
    np.testing.assert_allclose(diff, fl.velocity_target(x0, eps), atol=1e-12)


def test_cfm_loss_mse_values_and_oracle():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((2, 5))
    eps = rng.standard_normal((2, 5))
    assert fl.cfm_loss_mse(fl.velocity_target(x0, eps), x0, eps)[0] == 0.0
    assert fl.cfm_loss_mse(np.ones(7), np.zeros(7), np.zeros(7))[0] == pytest.approx(1.0)
    v = rng.standard_normal((2, 5))
    brute = sum(
        (v[i, j] - (eps[i, j] - x0[i, j])) ** 2 for i in range(2) for j in range(5)
    ) / 10.0
    assert fl.cfm_loss_mse(v, x0, eps)[0] == pytest.approx(brute, abs=1e-14)


def test_predicted_clean_inverts_velocity_target():
    rng = np.random.default_rng(4)
    # dyadic grid makes eps - (eps - x0) float-exact, matching the
    # algebraic identity without rounding slack
    x0 = _dyadic(rng, (3, 4))
    eps = _dyadic(rng, (3, 4))
    assert np.array_equal(fl.predicted_clean(fl.velocity_target(x0, eps), eps), x0)
    assert np.array_equal(fl.predicted_clean(np.zeros_like(eps), eps), eps)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    np.testing.assert_allclose(
        fl.predicted_clean(fl.velocity_target(a, b), b), a, atol=1e-12
    )


# --- mask loss ---------------------------------------------------------------


def _naive_bce(p, gt):
    s = 1.0 / (1.0 + np.exp(-p))
    return float(np.mean(-(gt * np.log(s) + (1 - gt) * np.log(1 - s))))


def _naive_dice(p, gt):
    s = 1.0 / (1.0 + np.exp(-p))
    return 1.0 - (2.0 * np.sum(s * gt) + 1.0) / (np.sum(s) + np.sum(gt) + 1.0)


def test_mask_loss_hand_case():
    pred = np.zeros(4)
    gt = np.array([1.0, 0.0, 1.0, 0.0])
    assert fl.mask_loss(pred, gt)[0] == pytest.approx(math.log(2.0) + 0.4, abs=1e-12)


def test_mask_loss_zero_logits_bce_is_ln2():
    rng = np.random.default_rng(5)
    gt = (rng.random(9) < 0.5).astype(float)
    total = fl.mask_loss(np.zeros(9), gt)[0]
    assert total - _naive_dice(np.zeros(9), gt) == pytest.approx(math.log(2.0), abs=1e-12)


def test_mask_loss_saturated_predictions_vanish():
    gt = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
    pred = np.where(gt == 1.0, 20.0, -20.0)
    assert fl.mask_loss(pred, gt)[0] < 1e-6


def test_mask_loss_decomposes_and_is_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        p = rng.standard_normal(n) * 3.0
        gt = (rng.random(n) < 0.5).astype(float)
        total = fl.mask_loss(p, gt)[0]
        assert total >= 0.0
        assert total == pytest.approx(_naive_bce(p, gt) + _naive_dice(p, gt), abs=1e-12)


def test_mask_loss_rejects_nonbinary_gt():
    with pytest.raises(DataError):
        fl.mask_loss(np.zeros(3), np.array([0.0, 0.5, 1.0]))


def test_mask_loss_stable_at_extreme_logits():
    gt = np.array([0.0, 1.0])
    val = fl.mask_loss(np.array([500.0, -500.0]), gt)[0]
    assert np.isfinite(val) and val > 100.0  # confidently wrong, not overflowed


# --- gradients ---------------------------------------------------------------


def _central_diff(f, x, h=1e-6):
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        xf[i] += h
        hi = f(x)
        xf[i] -= 2 * h
        lo = f(x)
        xf[i] += h
        flat[i] = (hi - lo) / (2 * h)
    return grad


def _assert_grad_close(analytic, numeric, rel=1e-4):
    scale = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / scale) < rel


def test_cfm_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 4))
    eps = rng.standard_normal((3, 4))
    v = rng.standard_normal((3, 4))
    numeric = _central_diff(lambda vv: fl.cfm_loss_mse(vv, x0, eps)[0], v)
    _assert_grad_close(fl.cfm_loss_mse(v, x0, eps)[1], numeric)


def test_mask_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    p = rng.standard_normal(11) * 2.0
    gt = (rng.random(11) < 0.4).astype(float)
    numeric = _central_diff(lambda pp: fl.mask_loss(pp, gt)[0], p)
    _assert_grad_close(fl.mask_loss(p, gt)[1], numeric)


def test_velocity_mask_loss_value_and_gradient():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(10)
    eps = rng.standard_normal(10) * 5.0
    gt = (rng.random(10) < 0.5).astype(float)
    loss, grad = fl.velocity_mask_loss(v, eps, gt)
    assert loss == fl.mask_loss(fl.predicted_clean(v, eps), gt)[0]
    numeric = _central_diff(lambda vv: fl.mask_loss(fl.predicted_clean(vv, eps), gt)[0], v)
    _assert_grad_close(grad, numeric)


@pytest.mark.parametrize("shape", [(1,), (7,), (2, 5), (512,)])
def test_merged_losses_equal_the_separate_value_and_gradient(shape):
    # Each loss returns exactly what its value and gradient functions did.
    rng = np.random.default_rng(int(np.prod(shape)))
    v, x0, eps = (3.0 * rng.standard_normal(shape) for _ in range(3))
    loss, grad = fl.cfm_loss_mse(v, x0, eps)
    assert loss == reference_cfm_loss_mse(v, x0, eps)
    assert np.array_equal(grad, reference_cfm_loss_mse_grad(v, x0, eps))

    gt = (rng.random(shape) < 0.5).astype(float)
    logits = 4.0 * rng.standard_normal(shape)
    extreme = rng.random(shape) < 0.25
    logits[extreme] = rng.choice([500.0, -500.0], size=int(extreme.sum()))
    for p in (logits, np.full(shape, 500.0), np.full(shape, -500.0)):
        loss, grad = fl.mask_loss(p, gt)
        assert loss == reference_mask_loss(p, gt)
        assert np.array_equal(grad, reference_mask_loss_grad(p, gt))

    loss, grad = fl.velocity_mask_loss(v, eps, gt)
    clean = fl.predicted_clean(v, eps)
    assert loss == reference_mask_loss(clean, gt)
    assert np.array_equal(grad, -reference_mask_loss_grad(clean, gt))


# --- timestep sampling -------------------------------------------------------


def test_sample_timestep_range_and_median():
    rng = np.random.default_rng(10)
    draws = np.array([fl.sample_timestep(rng) for _ in range(100_000)])
    assert draws.min() > 0.0 and draws.max() < 1.0
    median = float(np.median(draws))
    assert abs(median - 1.0 / (1.0 + math.exp(-1.0))) < 0.01


def test_sample_timestep_deterministic():
    a = [fl.sample_timestep(np.random.default_rng(11)) for _ in range(5)]
    b = [fl.sample_timestep(np.random.default_rng(11)) for _ in range(5)]
    assert a == b


# --- guidance ----------------------------------------------------------------


def test_cfg_combine_values():
    v_c = np.array([1.0, 2.0])
    v_u = np.array([0.0, 1.0])
    assert np.array_equal(fl.cfg_combine(v_c, v_u, 1.0), v_c)
    assert np.array_equal(fl.cfg_combine(v_c, v_u, 0.0), v_u)
    assert fl.cfg_combine(np.array(1.0), np.array(0.0), 3.0) == pytest.approx(3.0)


# --- Euler sampling ----------------------------------------------------------


def test_euler_single_step_recovers_clean_sample():
    # With the oracle velocity (actual-noise minus target), one Euler step
    # lands on the target: x = eps - 1.0 * (eps - x0).
    cfg = fl.FlowConfig(steps=1, noise_scale=1.0)
    rng = np.random.default_rng(5)
    x0_star = _dyadic(rng, (4, 2))
    eps_hat = cfg.noise_scale * np.random.default_rng(21).standard_normal((4, 2))
    out = fl.euler_sample(
        lambda x, t: eps_hat - x0_star, (4, 2), cfg, np.random.default_rng(21)
    )
    np.testing.assert_allclose(out, x0_star, atol=1e-12)


def test_euler_zero_velocity_returns_initial_noise():
    cfg = fl.FlowConfig(steps=5, noise_scale=0.5)
    out = fl.euler_sample(lambda x, t: np.zeros_like(x), (6,), cfg, np.random.default_rng(33))
    expect = 0.5 * np.random.default_rng(33).standard_normal(6)
    assert np.array_equal(out, expect)


def test_euler_linear_field_matches_closed_form_and_fine_integrator():
    # v(x, t) = x decays the state by (1 - dt) each step; a fine grid
    # approaches x * e^{-1}.
    shape = (8,)
    coarse = fl.euler_sample(
        lambda x, t: x, shape, fl.FlowConfig(steps=5), np.random.default_rng(77)
    )
    x_init = np.random.default_rng(77).standard_normal(8)
    np.testing.assert_allclose(coarse, x_init * (1.0 - 0.2) ** 5, atol=1e-12)
    fine = fl.euler_sample(
        lambda x, t: x, shape, fl.FlowConfig(steps=4096), np.random.default_rng(77)
    )
    np.testing.assert_allclose(fine, x_init * math.exp(-1.0), atol=2e-4)
    assert np.max(np.abs(coarse - fine)) < 0.05 * np.max(np.abs(x_init))


def test_euler_visits_uniform_time_grid():
    seen = []
    cfg = fl.FlowConfig(steps=4)

    def probe(x, t):
        seen.append(t)
        return np.zeros_like(x)

    fl.euler_sample(probe, (2,), cfg, np.random.default_rng(0))
    np.testing.assert_allclose(seen, [1.0, 0.75, 0.5, 0.25], atol=1e-15)


def test_euler_deterministic_and_seed_sensitive():
    cfg = fl.FlowConfig(steps=5)
    fn = lambda x, t: 0.1 * x
    a = fl.euler_sample(fn, (7,), cfg, np.random.default_rng(3))
    b = fl.euler_sample(fn, (7,), cfg, np.random.default_rng(3))
    assert np.array_equal(a, b)
    c = fl.euler_sample(fn, (7,), cfg, np.random.default_rng(4))
    assert not np.array_equal(a, c)


def test_euler_surfaces_nonfinite_velocity():
    cfg = fl.FlowConfig(steps=2)
    with pytest.raises(NumericalError):
        fl.euler_sample(lambda x, t: x * np.inf, (3,), cfg, np.random.default_rng(0))


# --- config and state types --------------------------------------------------


def test_flow_config_validation_and_presets():
    with pytest.raises(ConfigError):
        fl.FlowConfig(steps=0)
    with pytest.raises(ConfigError):
        fl.FlowConfig(noise_scale=0.0)
    with pytest.raises(ConfigError):
        fl.FlowConfig(noise_scale=math.nextafter(fl.MAX_NOISE_SCALE, math.inf))
    assert fl.FlowConfig(noise_scale=fl.MAX_NOISE_SCALE).noise_scale == fl.MAX_NOISE_SCALE
    for field, value in (
        ("steps", 2.5),
        ("steps", True),
        ("noise_scale", math.inf),
        ("noise_scale", True),
        ("guidance_strength", math.nan),
        ("guidance_strength", "3"),
    ):
        with pytest.raises(ConfigError, match=field):
            fl.FlowConfig(**{field: value})
    assert fl.FlowConfig.for_structure().noise_scale == 1.0
    assert fl.FlowConfig.for_affordance_training().noise_scale == 5.0
    assert fl.FlowConfig.for_affordance_eval().noise_scale == 0.5
    tweaked = dataclasses.replace(
        fl.FlowConfig.for_affordance_eval(), steps=20, guidance_strength=1.0
    )
    assert tweaked.steps == 20 and tweaked.guidance_strength == 1.0
    assert tweaked.noise_scale == 0.5
    assert fl.FlowConfig().guidance_strength == 3.0
