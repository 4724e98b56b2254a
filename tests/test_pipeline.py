"""Pipeline tests: exact-recovery reconstruction with injected velocity
fields, grounding semantics, view scoring against render oracles, and
the full observe/reconstruct/select loop for every strategy."""

import json

import numpy as np
import pytest

import voxaff.pipeline as pl
from oracles import raycast_depth
import voxaff.render as rd
from voxaff.errors import (
    CandidatesExhaustedError,
    ConfigError,
    DataError,
    DegenerateQueryError,
    DomainError,
    SupportError,
    UnknownQueryError,
)
from voxaff.flow import FlowConfig, sigmoid
from voxaff.geometry import Viewpoint, _up_for, eval_intrinsics, hemisphere_candidates, look_at
from voxaff.netcore import VelocityModel
from voxaff.render import DepthImage, render_views
from voxaff.synthscene import (
    default_query_table,
    generate_object,
    ground_truth_affordance,
    ground_truth_occupancy,
    occupied_indices,
)
from voxaff.voxel import AffordanceHeatmap

R = 8
CHANNELS = 16
TABLE = default_query_table()


def _view(k=1, image_size=32):
    return hemisphere_candidates(k, intrinsics=eval_intrinsics(image_size))


def _observation(obj, view):
    return (*render_views(obj, view, R, CHANNELS), view)


def _structure_oracle(obj):
    """Velocity field whose one-step Euler update lands on the true occupancy.

    With x <- x - 1.0 * (x - star) the result is star up to one rounding,
    and the +-1 targets keep the sign (hence the thresholded set) exact.
    """
    star = np.where(ground_truth_occupancy(obj, R).ravel(order="F"), 1.0, -1.0)
    return lambda x, t: x - star


def _affordance_oracle(gt_heat):
    """Velocity field recovering +-3 logits for the true heated set."""
    star = np.where(gt_heat.values >= 0.5, 3.0, -3.0)
    return lambda x, t: x - star


def _oracle_models(obj, query):
    gt_heat = ground_truth_affordance(obj, query, R, TABLE)
    return pl.StageModels(
        structure=_structure_oracle(obj), affordance=_affordance_oracle(gt_heat)
    )


def _loop_config(**overrides):
    base = dict(
        structure_flow=FlowConfig(steps=1, noise_scale=1.0),
        affordance_flow=FlowConfig(steps=1, noise_scale=0.5),
        n_candidates=8,
        image_size=32,
    )
    base.update(overrides)
    return pl.PipelineConfig(**base)


def _index_set(arr):
    return {tuple(int(c) for c in row) for row in np.asarray(arr).reshape(-1, 3)}


# --- reconstruct ---------------------------------------------------------------


def test_reconstruct_recovers_occupancy_from_exact_velocity():
    obj = generate_object(0)
    gt = occupied_indices(obj, R)
    cfg = FlowConfig(steps=1, noise_scale=1.0)
    eps_hat = np.random.default_rng(5).standard_normal(R**3)
    star = np.where(ground_truth_occupancy(obj, R).ravel(order="F"), 1.0, -1.0)

    def velocity(x, t):
        return eps_hat - star

    obs = _observation(obj, _view()[0])
    occ = pl.reconstruct([obs], velocity, R, cfg, np.random.default_rng(5))
    assert np.array_equal(occ, gt)


def test_reconstruct_x_dependent_oracle_is_rng_robust():
    obj = generate_object(1)
    gt = occupied_indices(obj, R)
    obs = _observation(obj, _view()[0])
    for seed in (0, 5, 123):
        cfg = FlowConfig(steps=1, noise_scale=1.0)
        occ = pl.reconstruct([obs], _structure_oracle(obj), R, cfg, np.random.default_rng(seed))
        assert np.array_equal(occ, gt)


def _reconstruct_from_latent(monkeypatch, latent):
    """``reconstruct`` with the sampler replaced by one that returns ``latent``."""
    monkeypatch.setattr(pl, "euler_sample", lambda velocity, shape, cfg, rng: latent)
    obs = _observation(generate_object(0), _view()[0])
    return pl.reconstruct([obs], lambda x, t: x, R, FlowConfig(steps=1), np.random.default_rng(0))


def test_reconstruct_indices_follow_the_scan_oracle(monkeypatch):
    latent = np.random.default_rng(19).standard_normal(R**3) - 0.3
    got = _reconstruct_from_latent(monkeypatch, latent)
    expected = [
        (ix, iy, iz)
        for ix in range(R)
        for iy in range(R)
        for iz in range(R)
        if latent[ix + R * iy + R * R * iz] > 0
    ]
    assert got.dtype == np.int64 and [tuple(row) for row in got] == expected


@pytest.mark.parametrize("sign, count", [(-1.0, 0), (1.0, R**3)], ids=["all-negative", "all-positive"])
def test_reconstruct_of_a_one_signed_latent_is_empty_or_full(monkeypatch, sign, count):
    occ = _reconstruct_from_latent(monkeypatch, np.full(R**3, sign))
    assert occ.shape == (count, 3) and occ.dtype == np.int64


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_reconstruct_refuses_a_non_finite_latent(monkeypatch, bad):
    latent = np.ones(R**3)
    latent[5] = bad
    with pytest.raises(DomainError, match="finite"):
        _reconstruct_from_latent(monkeypatch, latent)


def test_reconstruct_rejects_empty_observations():
    model = VelocityModel.create(CHANNELS + 1, CHANNELS, hidden=8, depth=1)
    with pytest.raises(DataError):
        pl.reconstruct([], model, R, FlowConfig.for_structure(), np.random.default_rng(0))
    with pytest.raises(DataError):
        pl.fuse_observations([], R)


def test_reconstruct_with_an_untrained_model_returns_the_noise():
    obj = generate_object(2)
    obs = _observation(obj, _view()[0])
    model = VelocityModel.create(CHANNELS + 1, CHANNELS, hidden=8, depth=1)
    cfg = FlowConfig(steps=5, noise_scale=1.0)
    occ = pl.reconstruct([obs], model, R, cfg, np.random.default_rng(3))
    # A fresh model outputs zero velocity, so the latent is exactly the
    # initial noise and the occupancy is its positive entries.
    noise = np.random.default_rng(3).standard_normal(R**3)
    from voxaff.voxel import flat_order_indices

    expected = flat_order_indices(R)[noise > 0]
    assert _index_set(occ) == _index_set(expected)


def test_reconstruct_blank_views_fall_back_to_unconditional():
    size = 16
    view = _view(image_size=size)[0]
    blank = (
        DepthImage(width=size, height=size, values=np.zeros((size, size))),
        np.zeros((size, size, CHANNELS)),
        view,
    )
    model = VelocityModel.create(CHANNELS + 1, CHANNELS, hidden=8, depth=1)
    occ = pl.reconstruct([blank], model, R, FlowConfig.for_structure(), np.random.default_rng(0))
    assert occ.ndim == 2 and occ.shape[1] == 3


# --- ground ---------------------------------------------------------------------


def test_ground_recovers_mask_and_aligns_positions():
    obj = generate_object(1)
    query = "strike a nail"
    occ = occupied_indices(obj, R)
    gt_heat = ground_truth_affordance(obj, query, R, TABLE)
    cfg = FlowConfig(steps=1, noise_scale=0.5)
    heat = pl.ground(occ, query, _affordance_oracle(gt_heat), R, cfg, np.random.default_rng(13), TABLE)
    assert np.array_equal(heat.positions, occ)
    assert not heat.logits
    assert np.all((heat.values > 0.0) & (heat.values < 1.0))
    assert np.array_equal(heat.values > 0.5, gt_heat.values >= 0.5)


def test_ground_rejects_empty_occupancy():
    model = VelocityModel.create(CHANNELS + 1, CHANNELS, hidden=8, depth=1)
    with pytest.raises(DataError):
        pl.ground(
            np.zeros((0, 3), dtype=np.int64), "strike a nail", model, R,
            FlowConfig.for_affordance_eval(), np.random.default_rng(0), TABLE,
        )


def test_ground_unknown_query():
    occ = occupied_indices(generate_object(1), R)
    with pytest.raises(UnknownQueryError):
        pl.ground(
            occ, "fly to the moon", lambda x, t: x, R,
            FlowConfig.for_affordance_eval(), np.random.default_rng(0), TABLE,
        )


def test_ground_with_an_untrained_model_returns_the_noise():
    occ = occupied_indices(generate_object(1), R)
    model = VelocityModel.create(CHANNELS + 1, CHANNELS, hidden=8, depth=1)
    cfg = FlowConfig(steps=1, noise_scale=0.5)
    heat = pl.ground(occ, "strike a nail", model, R, cfg, np.random.default_rng(13), TABLE)
    noise = 0.5 * np.random.default_rng(13).standard_normal(occ.shape[0])
    assert np.array_equal(heat.values, sigmoid(noise))


def test_ground_seed_and_rng_sensitivity():
    occ = occupied_indices(generate_object(1), R)
    model = VelocityModel.create(CHANNELS + 1, CHANNELS, hidden=8, depth=1)
    cfg = FlowConfig(steps=1, noise_scale=0.5)

    def run(rng):
        return pl.ground(occ, "strike a nail", model, R, cfg, rng=rng, table=TABLE).values

    assert np.array_equal(run(np.random.default_rng(1)), run(np.random.default_rng(1)))
    assert not np.array_equal(run(np.random.default_rng(1)), run(np.random.default_rng(2)))


# --- view scoring ----------------------------------------------------------------


def test_visibility_score_zero_heat_is_zero():
    occ = occupied_indices(generate_object(2), R)
    heat = AffordanceHeatmap(resolution=R, positions=occ, values=np.zeros(occ.shape[0]))
    for view in _view(4):
        assert pl.visibility_score(occ, heat, view) == 0.0


def test_visibility_score_counts_pixels_seeing_a_unit_voxel():
    occ = np.array([[4, 4, 4]], dtype=np.int64)
    heat = AffordanceHeatmap(resolution=R, positions=occ, values=np.ones(1))
    for view in _view(3):
        hit_pixels = np.count_nonzero(raycast_depth(occ, R, view).values)
        assert hit_pixels > 0
        assert pl.visibility_score(occ, heat, view) == float(hit_pixels)


def test_visibility_score_occluded_voxel_scores_zero():
    wall = [(6, iy, iz) for iy in range(R) for iz in range(R)]
    occ = np.array(wall + [(2, 4, 4)], dtype=np.int64)
    heat = AffordanceHeatmap(
        resolution=R, positions=np.array([[2, 4, 4]], dtype=np.int64), values=np.ones(1)
    )
    eye = np.array([2.0, 0.0, 0.0])
    view = Viewpoint(
        intrinsics=eval_intrinsics(32),
        pose=look_at(eye, (0.0, 0.0, 0.0), up=_up_for(-eye)),
    )
    # Sanity: the camera does see the object at all.
    assert np.count_nonzero(raycast_depth(occ, R, view).values) > 0
    assert pl.visibility_score(occ, heat, view) == 0.0


def test_visibility_score_requires_support():
    occ = np.array([[4, 4, 4]], dtype=np.int64)
    heat = AffordanceHeatmap(
        resolution=R, positions=np.array([[0, 0, 0]], dtype=np.int64), values=np.ones(1)
    )
    with pytest.raises(SupportError):
        pl.visibility_score(occ, heat, _view()[0])


# --- next-view selection -----------------------------------------------------------


def test_select_next_view_zero_heat_breaks_ties_by_index():
    occ = np.array([[4, 4, 4]], dtype=np.int64)
    heat = AffordanceHeatmap(resolution=R, positions=occ, values=np.zeros(1))
    cands = _view(4, image_size=16)
    first = pl.select_next_view(occ, heat, cands)
    assert first.index == 0
    assert first.scores == (0.0,) * 4
    assert pl.select_next_view(occ, heat, cands, visited={0}).index == 1
    assert pl.select_next_view(occ, heat, cands, visited={0, 2}).index == 1
    with pytest.raises(CandidatesExhaustedError):
        pl.select_next_view(occ, heat, cands, visited=range(4))


def test_select_next_view_prefers_the_heated_face():
    block = [(ix, iy, iz) for ix in range(2, 6) for iy in range(2, 6) for iz in range(2, 6)]
    occ = np.array(sorted(block), dtype=np.int64)
    values = np.where((occ == (2, 4, 4)).all(axis=1), 1.0, 0.0)
    heat = AffordanceHeatmap(resolution=R, positions=occ, values=values)
    cands = _view(12)
    choice = pl.select_next_view(occ, heat, cands)
    assert choice.scores == tuple(pl.visibility_score(occ, heat, v) for v in cands)
    assert choice.index == max(range(12), key=lambda i: (choice.scores[i], -i))
    # The heated voxel sits on the low-x face, so the winner looks from x < 0.
    assert choice.viewpoint.pose.translation[0] < 0
    assert choice.viewpoint is cands[choice.index]


def test_select_next_view_scale_invariant():
    occ = occupied_indices(generate_object(3), R)
    base = 0.02 + 0.06 * np.random.default_rng(4).random(occ.shape[0])
    cands = _view(6)
    picks = []
    for scale in (1.0, 0.2, 5.0):
        heat = AffordanceHeatmap(resolution=R, positions=occ, values=scale * base)
        picks.append(pl.select_next_view(occ, heat, cands).index)
    assert picks[0] == picks[1] == picks[2]


def test_select_next_view_single_candidate():
    occ = np.array([[4, 4, 4]], dtype=np.int64)
    heat = AffordanceHeatmap(resolution=R, positions=occ, values=np.ones(1))
    assert pl.select_next_view(occ, heat, _view(1)).index == 0


def test_worst_initial_view_minimizes_true_visibility():
    obj = generate_object(1)
    query = "strike a nail"
    cands = _view(12)
    res = pl.worst_initial_view(obj, query, cands, R, TABLE)
    heat = ground_truth_affordance(obj, query, R, TABLE)
    expected = tuple(pl.visibility_score(heat.positions, heat, v) for v in cands)
    assert res.scores == expected
    assert res.index == min(range(12), key=lambda i: (res.scores[i], i))
    assert res.scores[res.index] == min(res.scores)


def test_worst_initial_view_rejects_degenerate_query():
    with pytest.raises(DegenerateQueryError):
        pl.worst_initial_view(generate_object(0), "strike a nail", _view(4), R, TABLE)


# --- the active loop ----------------------------------------------------------------


def test_active_loop_budget_one_records_no_selection():
    obj = generate_object(1)
    query = "strike a nail"
    cfg = _loop_config()
    trace = pl.active_loop(
        obj, query, cfg.candidates()[0], 1, "active", _oracle_models(obj, query), cfg,
        np.random.default_rng(0), TABLE,
    )
    assert trace.budget == 1 and len(trace.steps) == 1
    step = trace.steps[0]
    assert step.selected_index is None and step.candidate_scores is None
    assert step.metrics == {"iou": 1.0, "aiou": 1.0, "acd": 0.0, "acd_excluded": 0}
    assert np.array_equal(step.occupied, occupied_indices(obj, R))
    assert trace.object_id == obj.object_id
    assert trace.strategy == "active"


def test_active_loop_active_is_deterministic_and_never_revisits():
    obj = generate_object(1)
    query = "strike a nail"
    cfg = _loop_config()

    def run():
        return pl.active_loop(
            obj,
            query,
            cfg.candidates()[0],
            3,
            "active",
            _oracle_models(obj, query),
            cfg,
            rng=np.random.default_rng(3),
            table=TABLE,
        )

    t1, t2 = run(), run()
    assert json.dumps(pl.trace_to_dict(t1), sort_keys=True) == json.dumps(
        pl.trace_to_dict(t2), sort_keys=True
    )
    picked = [s.selected_index for s in t1.steps]
    assert picked[-1] is None and None not in picked[:-1]
    # The initial pose is candidate 0, so it is never re-selected.
    assert 0 not in picked[:-1]
    assert len(set(picked[:-1])) == len(picked) - 1
    cands = cfg.candidates()
    for step, index in zip(t1.steps[1:], picked[:-1]):
        assert np.allclose(step.viewpoint.pose.translation, cands[index].pose.translation)
    for step in t1.steps:
        assert step.metrics["iou"] == 1.0 and step.metrics["aiou"] == 1.0
    assert len(t1.steps[0].candidate_scores) == cfg.n_candidates


def test_active_loop_sequential_ignores_rng_and_walks_the_circle():
    obj = generate_object(2)
    query = "sit on the seat"
    cfg = _loop_config()
    models = _oracle_models(obj, query)
    initial = cfg.candidates()[0]

    def run(seed):
        return pl.active_loop(
            obj, query, initial, 3, "sequential", models, cfg, np.random.default_rng(seed), TABLE
        )

    t1, t2 = run(7), run(99)
    for s1, s2 in zip(t1.steps, t2.steps):
        assert np.array_equal(s1.viewpoint.pose.translation, s2.viewpoint.pose.translation)
        assert s1.selected_index is None and s1.candidate_scores is None
    # After the first step the trajectory sits on the 30-degree circle
    # and advances one fixed increment in azimuth per view.
    step_angle = 2.0 * np.pi / cfg.n_candidates
    prev = np.arctan2(
        initial.pose.translation[1], initial.pose.translation[0]
    )
    for step in t1.steps[1:]:
        x, y, z = step.viewpoint.pose.translation
        assert z == pytest.approx(2.0 * np.sin(np.radians(30.0)))
        azimuth = np.arctan2(y, x)
        delta = (azimuth - prev) % (2.0 * np.pi)
        assert delta == pytest.approx(step_angle)
        prev = azimuth


def test_active_loop_random_is_seeded_and_avoids_visited():
    obj = generate_object(1)
    query = "strike a nail"
    cfg = _loop_config()
    models = _oracle_models(obj, query)

    def run(seed):
        return pl.active_loop(
            obj,
            query,
            cfg.candidates()[0],
            4,
            "random",
            models,
            cfg,
            rng=np.random.default_rng(seed),
            table=TABLE,
        )

    t1, t2 = run(5), run(5)
    assert json.dumps(pl.trace_to_dict(t1), sort_keys=True) == json.dumps(
        pl.trace_to_dict(t2), sort_keys=True
    )
    picked = [s.selected_index for s in t1.steps[:-1]]
    assert all(p is not None and 0 < p < cfg.n_candidates for p in picked)
    assert len(set(picked)) == len(picked)


def _conditioned_model(cond_dim, seed):
    """Small model with random weights in every layer, so that what it
    samples depends on its condition and hence on every render."""
    model = VelocityModel.create(CHANNELS + 1, cond_dim, hidden=8, depth=1, seed=seed)
    rng = np.random.default_rng(seed)
    model.params = {name: rng.standard_normal(p.shape) for name, p in model.params.items()}
    model.steps_trained = 1
    return model


@pytest.mark.parametrize("strategy", pl.STRATEGIES)
def test_active_loop_trace_does_not_depend_on_cached_ray_tables(strategy):
    # A cleared cache marches every observation that precedes a table
    # build (all of them under "random"); a warm one reads every candidate
    # observation from its table.
    obj = generate_object(1)
    query = "strike a nail"
    cfg = _loop_config()
    models = pl.StageModels(structure=_conditioned_model(CHANNELS, 1), affordance=_conditioned_model(16, 2))

    def run():
        trace = pl.active_loop(
            obj, query, cfg.candidates()[0], 3, strategy, models, cfg, np.random.default_rng(8), TABLE
        )
        assert all(step.occupied.shape[0] for step in trace.steps)
        return json.dumps(pl.trace_to_dict(trace), sort_keys=True)

    rd._ray_tables.clear()
    cleared = run()
    for view in cfg.candidates():
        rd._ray_table(view, R)
    assert run() == cleared


def test_active_loop_validates_inputs():
    obj = generate_object(1)
    models = _oracle_models(obj, "strike a nail")
    cfg = _loop_config()
    start, rng = cfg.candidates()[0], np.random.default_rng(0)
    with pytest.raises(DomainError):
        pl.active_loop(obj, "strike a nail", start, 0, "active", models, cfg, rng, TABLE)
    with pytest.raises(ConfigError):
        pl.active_loop(obj, "strike a nail", start, 1, "spiral", models, cfg, rng, TABLE)


def test_active_loop_empty_reconstruction_degrades_gracefully():
    obj = generate_object(1)
    query = "strike a nail"
    cfg = _loop_config()
    # This velocity drives every latent to about -1, so nothing crosses
    # the occupancy threshold and the grounded heatmap must be empty.
    models = pl.StageModels(
        structure=lambda x, t: x + 1.0,
        affordance=_affordance_oracle(ground_truth_affordance(obj, query, R, TABLE)),
    )
    trace = pl.active_loop(
        obj, query, cfg.candidates()[0], 2, "active", models, cfg, np.random.default_rng(0), TABLE
    )
    step = trace.steps[0]
    assert step.occupied.shape == (0, 3)
    assert step.heatmap.positions.shape == (0, 3)
    assert step.metrics["iou"] == 0.0
    assert step.metrics["aiou"] == 0.0
    assert step.metrics["acd"] is None
    assert step.metrics["acd_excluded"] == 5
    # All-zero visibility everywhere: ties resolve to the lowest unvisited index.
    assert step.selected_index == 1


# --- traces ---------------------------------------------------------------------------


def test_view_trace_checks_step_count():
    with pytest.raises(DomainError):
        pl.ViewTrace(object_id="x", query="q", strategy="active", budget=2, steps=())


# --- observations ----------------------------------------------------------------------


def test_fuse_observations_union_grows_with_views():
    obj = generate_object(2)
    views = _view(3)
    o1, o2 = _observation(obj, views[1]), _observation(obj, views[2])
    g1 = pl.fuse_observations([o1], R)
    g12 = pl.fuse_observations([o1, o2], R)
    assert _index_set(g1.indices) <= _index_set(g12.indices)
    assert len(g12) >= len(g1)


def test_pipeline_config_validation_and_candidates():
    with pytest.raises(ConfigError):
        pl.PipelineConfig(resolution=0)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(n_candidates=0)
    for field, value in (("resolution", 8.0), ("channels", True), ("n_candidates", "40"),
                         ("image_size", 1.5)):
        with pytest.raises(ConfigError, match=field):
            pl.PipelineConfig(**{field: value})
    cfg = _loop_config()
    cands = cfg.candidates()
    assert len(cands) == cfg.n_candidates
    assert cands[0].intrinsics.width == cfg.image_size
    assert cfg.structure_flow.noise_scale == 1.0
    assert cfg.affordance_flow.noise_scale == 0.5


def _same_viewpoints(a, b) -> bool:
    return len(a) == len(b) and all(
        u.intrinsics == v.intrinsics
        and np.array_equal(u.pose.rotation, v.pose.rotation)
        and np.array_equal(u.pose.translation, v.pose.translation)
        for u, v in zip(a, b)
    )


def test_candidates_are_built_once_per_count_and_size(monkeypatch):
    calls = []

    def counting(k, **kwargs):
        calls.append((k, kwargs["intrinsics"].width))
        return hemisphere_candidates(k, **kwargs)

    monkeypatch.setattr(pl, "hemisphere_candidates", counting)
    pl._candidate_lattice.cache_clear()
    cfg = pl.PipelineConfig(n_candidates=7, image_size=24)
    first = cfg.candidates()
    assert _same_viewpoints(first, hemisphere_candidates(7, intrinsics=eval_intrinsics(24)))
    assert _same_viewpoints(cfg.candidates(), first)
    # Another config of the same count and size shares the lattice.
    assert _same_viewpoints(pl.PipelineConfig(n_candidates=7, image_size=24, channels=8).candidates(), first)
    assert calls == [(7, 24)]
    pl.PipelineConfig(n_candidates=7, image_size=16).candidates()
    pl.PipelineConfig(n_candidates=5, image_size=24).candidates()
    cfg.candidates()
    assert calls == [(7, 24), (7, 16), (5, 24)]


def test_candidates_list_is_the_callers_own():
    cfg = pl.PipelineConfig(n_candidates=6, image_size=16)
    want = cfg.candidates()
    mine = cfg.candidates()
    assert mine is not want
    mine.reverse()
    mine.append(mine[0])
    del mine[1]
    assert _same_viewpoints(cfg.candidates(), want)
    assert _same_viewpoints(want, hemisphere_candidates(6, intrinsics=eval_intrinsics(16)))
