"""Velocity-model tests: forward contract, exact gradients vs finite
differences, optimizer arithmetic, and the two training loops."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import voxaff.netcore as nc
import voxaff.synthscene as sc
from oracles import (
    ScriptedRng,
    grad_buffer,
    gradient_check,
    project_point,
    reference_adam_update,
    ReferenceAdamState,
    reference_backward,
    reference_fit,
    reference_folded_forward,
    reference_forward,
)
from voxaff.errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericalError,
    ShapeMismatchError,
    UntrainedModelError,
)
from voxaff.flow import FlowConfig, cfm_loss_mse, velocity_mask_loss


def _small_model(seed=0, depth=2):
    return nc.VelocityModel.create(token_dim=3, cond_dim=2, hidden=4, depth=depth, seed=seed)


def _randomize(model, seed):
    """Overwrite all parameters with random values (kills the zero inits)."""
    rng = np.random.default_rng(seed)
    for name in sorted(model.params):
        model.params[name] = rng.standard_normal(model.params[name].shape) * 0.5
    return model


# --- time embedding ----------------------------------------------------------


def test_time_embedding_structure():
    emb = nc.time_embedding(0.0)
    assert emb.shape == (16,)
    assert np.array_equal(emb[0::2], np.zeros(8))
    assert np.array_equal(emb[1::2], np.ones(8))
    emb = nc.time_embedding(0.7)
    assert emb[0] == pytest.approx(np.sin(0.7))
    assert emb[1] == pytest.approx(np.cos(0.7))
    with pytest.raises(DomainError):
        nc.time_embedding(0.5, dim=7)


# --- forward -----------------------------------------------------------------


def test_fresh_model_outputs_zero_velocities():
    model = _small_model()
    rng = np.random.default_rng(1)
    v = nc.forward(model, rng.standard_normal((6, 3)), rng.standard_normal(2), 0.3)
    assert np.array_equal(v, np.zeros(6))


def test_untrained_condition_path_is_inert():
    # input rows reading the condition start at zero, so swapping the
    # condition changes nothing until training touches those rows
    model = _small_model()
    rng = np.random.default_rng(2)
    model.params["Wout"] = rng.standard_normal(model.params["Wout"].shape)
    tokens = rng.standard_normal((5, 3))
    a = nc.forward(model, tokens, np.zeros(2), 0.5)
    b = nc.forward(model, tokens, rng.standard_normal(2) * 10.0, 0.5)
    assert np.array_equal(a, b)


def test_depth_zero_affine_map_hand_oracle():
    model = nc.VelocityModel.create(token_dim=2, cond_dim=1, hidden=1, depth=0, seed=3)
    rng = np.random.default_rng(4)
    w = rng.standard_normal((model.in_dim, 1))
    model.params["Wout"] = w
    model.params["bout"] = np.array([0.25])
    tokens = rng.standard_normal((3, 2))
    cond = rng.standard_normal(1)
    t = 0.4
    temb = nc.time_embedding(t)
    v = nc.forward(model, tokens, cond, t)
    for i in range(3):
        row = np.concatenate([tokens[i], cond, temb])
        expect = sum(row[j] * w[j, 0] for j in range(model.in_dim)) + 0.25
        assert v[i] == pytest.approx(expect, abs=1e-12)


def test_forward_is_per_token_and_permutation_equivariant():
    model = _randomize(_small_model(), 5)
    rng = np.random.default_rng(6)
    tokens = rng.standard_normal((7, 3))
    cond = rng.standard_normal(2)
    v = nc.forward(model, tokens, cond, 0.6)
    perm = rng.permutation(7)
    assert np.array_equal(nc.forward(model, tokens[perm], cond, 0.6), v[perm])
    assert np.array_equal(nc.forward(model, tokens[:3], cond, 0.6), v[:3])


def test_forward_validates_widths():
    model = _small_model()
    with pytest.raises(ShapeMismatchError):
        nc.forward(model, np.zeros((2, 4)), np.zeros(2), 0.5)
    with pytest.raises(ShapeMismatchError):
        nc.forward(model, np.zeros((2, 3)), np.zeros(3), 0.5)


def test_model_check_catches_corruption():
    model = _small_model()
    model.params["W0"] = model.params["W0"][:, :2]
    with pytest.raises(ShapeMismatchError):
        model.check()
    model = _small_model()
    model.params["bout"] = np.array([np.nan])
    with pytest.raises(NumericalError):
        model.check()


def test_create_zero_init_layout():
    model = _small_model(seed=9)
    w0 = model.params["W0"]
    assert not w0[:3].any() or w0[:3].any()  # token rows free
    assert not w0[3:5].any()  # condition rows zeroed
    assert w0[5:].any()  # time rows random
    assert not model.params["Wout"].any()
    assert not model.params["b0"].any()


# --- backward ----------------------------------------------------------------


def _mse_loss_fn(target, eps):
    return lambda v: cfm_loss_mse(v, target, eps)


def test_gradients_match_finite_differences_mse_path():
    model = _randomize(_small_model(seed=10), 11)
    rng = np.random.default_rng(12)
    batch = (rng.standard_normal((5, 3)), rng.standard_normal(2), 0.35)
    x0 = rng.standard_normal(5)
    eps = rng.standard_normal(5)
    assert gradient_check(model, _mse_loss_fn(x0, eps), batch) < 1e-4


def test_gradients_match_finite_differences_mask_path():
    model = _randomize(_small_model(seed=13), 14)
    rng = np.random.default_rng(15)
    batch = (rng.standard_normal((6, 3)), rng.standard_normal(2), 0.8)
    eps = rng.standard_normal(6) * 5.0
    gt = (rng.random(6) < 0.5).astype(float)
    assert gradient_check(model, lambda v: velocity_mask_loss(v, eps, gt), batch) < 1e-4


def test_gradcheck_also_covers_depth_zero():
    model = nc.VelocityModel.create(token_dim=2, cond_dim=1, hidden=1, depth=0, seed=16)
    _randomize(model, 17)
    rng = np.random.default_rng(18)
    batch = (rng.standard_normal((4, 2)), rng.standard_normal(1), 0.5)
    x0, eps = rng.standard_normal(4), rng.standard_normal(4)
    assert gradient_check(model, _mse_loss_fn(x0, eps), batch) < 1e-4


def test_zero_loss_point_gives_zero_gradients():
    # a fresh model predicts v = 0; if the target velocity is also zero
    # (x0 == eps) the MSE sits at its exact minimum
    model = _small_model(seed=19)
    rng = np.random.default_rng(20)
    x0 = rng.standard_normal(4)
    batch = (rng.standard_normal((4, 3)), rng.standard_normal(2), 0.5)
    loss, grads = nc.backward(model, _mse_loss_fn(x0, x0), batch, *grad_buffer(model))
    assert loss == 0.0
    assert all(not g.any() for g in grads.values())


def test_backward_is_linear_in_loss_scale():
    model = _randomize(_small_model(seed=21), 22)
    rng = np.random.default_rng(23)
    batch = (rng.standard_normal((5, 3)), rng.standard_normal(2), 0.25)
    x0, eps = rng.standard_normal(5), rng.standard_normal(5)
    base = _mse_loss_fn(x0, eps)
    _, g1 = nc.backward(model, base, batch, *grad_buffer(model))
    _, g2 = nc.backward(
        model, lambda v: tuple(2.0 * np.asarray(x) for x in base(v)), batch, *grad_buffer(model)
    )
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-14)


def test_param_views_lay_out_every_parameter_in_order():
    model = _randomize(_small_model(seed=26), 27)
    flat = np.concatenate([p.reshape(-1) for p in model.params.values()])
    views = model.param_views(flat)
    assert list(views) == list(model.params)
    for name, view in views.items():
        assert view.shape == model.params[name].shape
        assert np.shares_memory(view, flat)
        assert np.array_equal(view, model.params[name])
    with pytest.raises(ShapeMismatchError):
        model.param_views(flat[:-1])


def test_backward_names_a_gradient_that_is_not_finite():
    model = _randomize(_small_model(seed=28), 29)
    rng = np.random.default_rng(30)
    batch = (rng.standard_normal((4, 3)), rng.standard_normal(2), 0.5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match=r"gradient for \w+ is not finite"
    ):
        nc.backward(model, lambda v: (0.0, np.full_like(v, np.inf)), batch, *grad_buffer(model))


# --- work buffers ------------------------------------------------------------


def _wide_model(hidden=96, depth=2, seed=40):
    """A model of the trainers' shape (17 + 16 + 16 inputs), all weights random."""
    model = nc.VelocityModel.create(token_dim=17, cond_dim=16, hidden=hidden, depth=depth, seed=seed)
    return _randomize(model, seed + 1)


def _batch(model, n, seed):
    rng = np.random.default_rng(seed)
    batch = (rng.standard_normal((n, model.token_dim)), rng.standard_normal(model.cond_dim), 0.3)
    return batch, _mse_loss_fn(rng.standard_normal(n), rng.standard_normal(n))


def _assert_matches_reference(model, n, seed=50):
    batch, loss_fn = _batch(model, n, seed)
    v, stacked = nc.forward(model, *batch), reference_forward(model, *batch)
    assert np.array_equal(v, reference_folded_forward(model, *batch))
    # Folding changes only the rounding of the first layer's sums.
    assert np.all(np.abs(v - stacked) <= 1e-12 * (1.0 + np.abs(stacked)))
    assert np.array_equal(nc._forward_cached(model, *batch)[0], stacked)
    loss, grads = nc.backward(model, loss_fn, batch, *grad_buffer(model))
    ref_loss, ref_grads = reference_backward(model, loss_fn, batch)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 7, 512, 4096])
def test_forward_and_backward_match_reference_bit_for_bit(n, depth):
    _assert_matches_reference(_wide_model(depth=depth), n)


def test_small_batch_after_a_large_one_matches_reference_in_the_same_buffer():
    model = _wide_model()
    large = nc._forward_cached(model, *_batch(model, 4096, 51)[0])[1][1]
    for n in (7, 1, 512, 4096):
        _assert_matches_reference(model, n, seed=n)
    small = nc._forward_cached(model, *_batch(model, 7, 52)[0])[1][1]
    assert np.shares_memory(small, large)


def test_alternating_models_of_different_width_match_reference_and_keep_their_buffers():
    wide, narrow = _wide_model(hidden=96), _wide_model(hidden=32, seed=60)
    batch, _ = _batch(wide, 512, 61)
    first_hidden = nc._forward_cached(wide, *batch)[1][1]
    for step in range(3):
        _assert_matches_reference(wide, 512, seed=step)
        _assert_matches_reference(narrow, 512, seed=step)
    # the wide model's first layer is still written into the same memory
    assert np.shares_memory(nc._forward_cached(wide, *batch)[1][1], first_hidden)


def test_forward_returns_fresh_velocities():
    model = _wide_model()
    a, _ = _batch(model, 512, 70)
    b, _ = _batch(model, 512, 71)
    v1 = nc.forward(model, *a)
    kept = v1.copy()
    v2 = nc.forward(model, *b)
    assert not np.shares_memory(v1, v2)
    assert np.array_equal(v1, kept)
    assert not np.array_equal(v1, v2)


def _assert_next_forward_is_clean(model, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_reference(model, n, seed=80)


def test_forward_after_a_refused_forward_matches_reference():
    broken = _wide_model()
    broken.params["b0"][3] = np.nan
    batch, _ = _batch(broken, 512, 81)
    with pytest.raises(NumericalError):
        nc.forward(broken, *batch)
    _assert_next_forward_is_clean(_wide_model(seed=82), 512)
    _assert_next_forward_is_clean(_wide_model(seed=82), 7)


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_forward_after_a_saturated_forward_matches_reference(value):
    huge = _wide_model()
    huge.params["W0"][0, 0] = value
    batch, _ = _batch(huge, 512, 83)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(nc.forward(huge, *batch), reference_folded_forward(huge, *batch))
    _assert_next_forward_is_clean(_wide_model(seed=84), 512)


# --- float32 sampling --------------------------------------------------------


def _float32_copy(model):
    """The model with float32 weights, as ``pipeline`` samples it."""
    return dataclasses.replace(
        model, params={name: p.astype(np.float32) for name, p in model.params.items()}
    )


def _trained_scale_model(seed=90):
    """The trainers' shape with weights of the spread the committed r = 16
    checkpoints have: about 1.5 in the first layer, 1 in the second and
    0.4 in the output layer."""
    model = nc.VelocityModel.create(token_dim=17, cond_dim=16, hidden=96, depth=2, seed=seed)
    rng = np.random.default_rng(seed)
    scale = {"W0": 1.5, "W1": 1.0, "Wout": 0.4, "b0": 0.4, "b1": 0.5, "bout": 0.3}
    for name in sorted(model.params):
        model.params[name] = scale[name] * rng.standard_normal(model.params[name].shape)
    return model


@pytest.mark.parametrize("n", [1, 512, 4096])
def test_float32_forward_is_within_float32_noise_of_the_reference(n):
    model = _trained_scale_model()
    batch, _ = _batch(model, n, 91)
    low = _float32_copy(model)
    v = nc.forward(low, *batch)
    ref = reference_forward(model, *batch)
    assert v.dtype == np.float32 and v.shape == ref.shape
    assert np.all(np.abs(v - ref) <= 1e-5 * (1.0 + np.abs(ref)))
    assert np.array_equal(v, reference_folded_forward(low, *batch))


def test_float64_forward_after_a_float32_one_matches_reference_in_its_own_buffers():
    model = _trained_scale_model()
    batch, _ = _batch(model, 4096, 92)
    low = nc._forward_cached(_float32_copy(model), *batch)[1][1]
    assert low.dtype == np.float32
    full = nc._forward_cached(model, *batch)[1][1]
    assert full.dtype == np.float64 and not np.shares_memory(low, full)
    nc.forward(_float32_copy(model), *batch)
    assert np.array_equal(nc.forward(model, *batch), reference_folded_forward(model, *batch))
    _assert_matches_reference(model, 4096, seed=93)


# --- optimizer ---------------------------------------------------------------


def test_adam_first_step_hand_oracle():
    params = np.array([0.0])
    state = nc.AdamState.for_params(params)
    nc.adam_update(params, np.array([0.5]), state, learning_rate=0.01)
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expect = -0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params[0] == pytest.approx(expect, abs=1e-15)
    assert state.step == 1


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(24)
    params = rng.standard_normal(6)
    ref = params.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    state = nc.AdamState.for_params(params)
    for k in range(1, 8):
        g = rng.standard_normal(6)
        nc.adam_update(params, g, state, 0.05, 0.9, 0.999, 1e-8)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.05 * (m / (1 - 0.9**k)) / (np.sqrt(v / (1 - 0.999**k)) + 1e-8)
    np.testing.assert_allclose(params, ref, atol=1e-14)


def test_flat_adam_matches_the_per_name_update_bit_for_bit():
    model = _wide_model()
    flat = np.concatenate([p.reshape(-1) for p in model.params.values()])
    params = model.param_views(flat)
    ref = {name: p.copy() for name, p in params.items()}
    state, ref_state = nc.AdamState.for_params(flat), ReferenceAdamState.for_params(ref)
    rng = np.random.default_rng(25)
    for _ in range(5):
        g = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-6, 3)
        nc.adam_update(flat, g, state, 0.02, 0.9, 0.999, 1e-8)
        reference_adam_update(ref, model.param_views(g), ref_state, 0.02, 0.9, 0.999, 1e-8)
    for name in ref:
        assert np.array_equal(params[name], ref[name]), name
        assert np.array_equal(model.param_views(state.m)[name], ref_state.m[name]), name
        assert np.array_equal(model.param_views(state.v)[name], ref_state.v[name]), name


# --- trainer config ----------------------------------------------------------


def test_trainer_config_validation():
    with pytest.raises(ConfigError):
        nc.TrainerConfig(steps=0)
    with pytest.raises(ConfigError):
        nc.TrainerConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        nc.TrainerConfig(cfg_dropout=1.5)
    with pytest.raises(ConfigError):
        nc.TrainerConfig(view_range=(0, 4))
    with pytest.raises(ConfigError):
        nc.TrainerConfig(view_range=(5, 2))
    with pytest.raises(ConfigError):
        nc.TrainerConfig(ema_rate=1.0)
    with pytest.raises(ConfigError):
        nc.TrainerConfig(steps=2.5)
    with pytest.raises(ConfigError):
        nc.TrainerConfig(batch_size=True)
    for bad in (
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"learning_rate": True},
        {"beta1": 2.0},
        {"beta1": -0.1},
        {"beta2": 1.0},
        {"beta2": math.nan},
        {"adam_eps": -1.0},
        {"adam_eps": 0.0},
        {"adam_eps": math.inf},
        {"cfg_dropout": math.nan},
        {"cfg_dropout": True},
        {"ema_rate": math.nan},
        {"ema_rate": False},
        {"ema_rate": "0.5"},
        {"view_range": (1.5, 2)},
        {"view_range": (1, True)},
    ):
        with pytest.raises(ConfigError):
            nc.TrainerConfig(**bad)
    for field, limit in (
        ("resolution", nc.MAX_RESOLUTION),
        ("channels", nc.MAX_CHANNELS),
        ("view_pixels", nc.MAX_IMAGE_SIZE),
        ("hidden", nc.MAX_HIDDEN),
        ("depth", nc.MAX_DEPTH),
    ):
        assert getattr(nc.TrainerConfig(**{field: limit}), field) == limit
        with pytest.raises(ConfigError, match=f"^trainer {field} must lie in"):
            nc.TrainerConfig(**{field: limit + 1})
    assert nc.TrainerConfig(beta1=0.0, ema_rate=0.5).ema_rate == 0.5
    cfg = nc.TrainerConfig()
    assert cfg.learning_rate == 2e-2
    assert cfg.cfg_dropout == 0.10
    assert cfg.view_range == (1, 8)
    assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999


# --- training loops ----------------------------------------------------------


def _tiny_dataset(n=2):
    return [sc.generate_object(seed) for seed in range(n)]


def _fast_cfg(**overrides):
    base = dict(steps=8, batch_size=1, view_pixels=16, hidden=8, depth=1, seed=5)
    base.update(overrides)
    return nc.TrainerConfig(**base)


def test_train_structure_smoke_and_shapes():
    result = nc.train_structure(_tiny_dataset(), _fast_cfg())
    assert result.losses.shape == (8,)
    assert np.all(np.isfinite(result.losses))
    assert result.model.steps_trained == 8
    assert result.model.token_dim == 1 + nc.PE_DIM
    assert result.model.cond_dim == 16
    result.model.check()


def test_train_structure_is_bit_deterministic():
    a = nc.train_structure(_tiny_dataset(), _fast_cfg())
    b = nc.train_structure(_tiny_dataset(), _fast_cfg())
    assert np.array_equal(a.losses, b.losses)
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])
    c = nc.train_structure(_tiny_dataset(), _fast_cfg(seed=6))
    assert any(
        not np.array_equal(a.model.params[n], c.model.params[n]) for n in a.model.params
    )


def test_train_structure_steps_whose_views_miss_the_object_train_on_the_zero_condition():
    # One-pixel views see nothing on some steps of this run, so their
    # fused grid is empty and pools to the null condition.
    cfg = nc.TrainerConfig(steps=30, view_pixels=1, hidden=8, depth=1, seed=5)
    a = nc.train_structure([sc.generate_object(5)], cfg)
    b = nc.train_structure([sc.generate_object(5)], cfg)
    assert np.all(np.isfinite(a.losses)) and np.array_equal(a.losses, b.losses)
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])


def test_train_structure_rejects_empty_dataset():
    with pytest.raises(DataError):
        nc.train_structure([], _fast_cfg())


def test_full_dropout_never_trains_condition_path():
    result = nc.train_structure(_tiny_dataset(), _fast_cfg(cfg_dropout=1.0, steps=6))
    model = result.model
    rng = np.random.default_rng(7)
    tokens = rng.standard_normal((10, model.token_dim))
    uncond = nc.forward(model, tokens, np.zeros(model.cond_dim), 0.5)
    cond = nc.forward(model, tokens, rng.standard_normal(model.cond_dim), 0.5)
    assert np.array_equal(uncond, cond)


def test_train_affordance_smoke_and_determinism():
    data = _tiny_dataset(3)
    cfg = _fast_cfg(steps=40)
    a = nc.train_affordance(data, cfg)
    b = nc.train_affordance(data, cfg)
    assert a.losses.shape == (40,)
    assert np.array_equal(a.losses, b.losses)
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])
    assert a.model.cond_dim == 16


def test_train_affordance_loss_decreases_with_aggressive_lr():
    data = _tiny_dataset(2)
    cfg = _fast_cfg(steps=400, learning_rate=5e-3, hidden=16, depth=2)
    result = nc.train_affordance(data, cfg)
    first = float(result.losses[:50].mean())
    last = float(result.losses[-50:].mean())
    assert last < first


def test_train_affordance_requires_matching_queries():
    with pytest.raises(DataError):
        nc.train_affordance([], _fast_cfg())
    table = sc.QueryTable(
        entries={"polish it": ("polish", sc.query_embedding("polish it", 16))}, dim=16
    )
    with pytest.raises(DataError):
        nc.train_affordance(_tiny_dataset(1), _fast_cfg(), table=table)


def test_train_affordance_batch_size_two_runs():
    result = nc.train_affordance(_tiny_dataset(1), _fast_cfg(steps=5, batch_size=2))
    assert result.losses.shape == (5,)
    assert np.all(np.isfinite(result.losses))


def test_ema_variant_produces_different_final_weights():
    data = _tiny_dataset(1)
    plain = nc.train_affordance(data, _fast_cfg(steps=30))
    smoothed = nc.train_affordance(data, _fast_cfg(steps=30, ema_rate=0.99))
    assert any(
        not np.array_equal(plain.model.params[n], smoothed.model.params[n])
        for n in plain.model.params
    )


#: Batch settings of the flat-trainer comparison: the plain step, and a
#: batch mean with an EMA.
FIT_CASES = {"batch1": {"batch_size": 1}, "batch3-ema": {"batch_size": 3, "ema_rate": 0.99}}


@pytest.mark.parametrize("case", FIT_CASES)
@pytest.mark.parametrize("kind", ["structure", "affordance"])
def test_flat_trainer_matches_reference(monkeypatch, kind, case):
    # The trainers' model shape; 32^2 views keep the structure fits short.
    trainer = getattr(nc, f"train_{kind}")
    cfg = nc.TrainerConfig(steps=30, seed=5, view_pixels=32, **FIT_CASES[case])
    flat = trainer(_tiny_dataset(), cfg)
    monkeypatch.setattr(nc, "_fit", reference_fit)
    ref = trainer(_tiny_dataset(), cfg)
    assert np.array_equal(flat.losses, ref.losses)
    assert sorted(flat.model.params) == sorted(ref.model.params)
    for name in ref.model.params:
        assert np.array_equal(flat.model.params[name], ref.model.params[name]), name


# --- random views ------------------------------------------------------------


def test_random_hemisphere_view_geometry():
    from voxaff.geometry import eval_intrinsics

    intr = eval_intrinsics(32)
    rng = np.random.default_rng(8)
    for _ in range(25):
        view = nc.random_hemisphere_view(rng, intr)
        origin = view.pose.translation
        assert np.linalg.norm(origin) == pytest.approx(2.0, abs=1e-12)
        assert origin[2] >= 0.0
        u, v, d = project_point(np.zeros(3), view)
        assert u == pytest.approx(intr.cx, abs=1e-9)
        assert v == pytest.approx(intr.cy, abs=1e-9)
        assert d == pytest.approx(2.0, abs=1e-12)


def test_random_hemisphere_view_handles_pole():
    from voxaff.geometry import eval_intrinsics

    view = nc.random_hemisphere_view(ScriptedRng([1.0 - 1e-13, 0.25]), eval_intrinsics(16))
    assert view.pose.translation[2] == pytest.approx(2.0, abs=1e-6)


# --- checkpoints -------------------------------------------------------------

#: The trainer record of a checkpoint, and the run sizes that load it.
TRAINER = nc.TrainerConfig()


def _load(path, kind="structure"):
    return nc.load_model(path, TRAINER.resolution, TRAINER.channels, kind)


def test_checkpoint_round_trip_is_exact(tmp_path):
    result = nc.train_affordance(_tiny_dataset(1), _fast_cfg(steps=12))
    path = tmp_path / "aff.model.json"
    nc.save_model(path, result.model, _fast_cfg(steps=12))
    loaded = _load(path, "affordance")
    assert loaded.token_dim == result.model.token_dim
    assert loaded.steps_trained == 12
    for name in result.model.params:
        assert np.array_equal(loaded.params[name], result.model.params[name])
    rng = np.random.default_rng(9)
    tokens = rng.standard_normal((4, loaded.token_dim))
    cond = rng.standard_normal(loaded.cond_dim)
    assert np.array_equal(nc.forward(loaded, tokens, cond, 0.5), nc.forward(result.model, tokens, cond, 0.5))


def test_checkpoint_bytes_stable(tmp_path):
    model = _randomize(_small_model(seed=30), 31)
    nc.save_model(tmp_path / "a.model.json", model, TRAINER)
    nc.save_model(tmp_path / "b.model.json", model, TRAINER)
    assert (tmp_path / "a.model.json").read_bytes() == (tmp_path / "b.model.json").read_bytes()


def test_checkpoint_echoes_trainer_config():
    model = _small_model()
    record = nc.model_to_dict(model, TRAINER, None)
    assert record["trainer"]["learning_rate"] == 2e-2
    assert record["trainer"]["view_range"] == [1, 8]
    assert "params" in record and "Wout" in record["params"]


def test_checkpoint_records_its_kind_and_refuses_another(tmp_path):
    model = _small_model()
    model.steps_trained = 1  # a checkpoint with no training step is refused at load
    path = tmp_path / "s.model.json"
    nc.save_model(path, model, TRAINER, "structure")
    assert nc.model_to_dict(model, TRAINER, "structure")["kind"] == "structure"
    assert _load(path, "structure").steps_trained == model.steps_trained
    with pytest.raises(ConfigError, match="kind 'structure'"):
        _load(path, "affordance")
    # Without a recorded kind a checkpoint loads as either kind.
    nc.save_model(path, model, TRAINER)
    assert "kind" not in nc.model_to_dict(model, TRAINER, None)
    assert _load(path, "affordance").steps_trained == model.steps_trained


def test_checkpoint_without_training_steps_is_refused_at_load(tmp_path):
    path = tmp_path / "fresh.model.json"
    nc.save_model(path, _small_model(), TRAINER)
    with pytest.raises(UntrainedModelError, match="no training steps"):
        _load(path)
    # The record itself still parses: only loading a checkpoint refuses it.
    assert nc.model_from_dict(nc.model_to_dict(_small_model(), TRAINER, None)).steps_trained == 0


def test_checkpoint_rejects_malformed_records():
    with pytest.raises(DataError):
        nc.model_from_dict({"token_dim": 3})
    model = _small_model()
    record = nc.model_to_dict(model, TRAINER, None)
    record["params"]["W0"] = [[1.0], [2.0]]
    with pytest.raises((DataError, ShapeMismatchError)):
        nc.model_from_dict(record)
