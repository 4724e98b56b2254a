"""End-to-end acceptance gates for the reconstruction/affordance stack.

One test per release criterion: exact camera round trips and metric
oracles, flow algebra identities, analytic gradients, fusion invariants,
trained-model quality floors, view-count and planning-strategy
orderings, few-step sampling, CLI reproducibility, and selection scale
invariance.  Each passing gate prints a single summary line (run with
``pytest -s`` to see them); a failed gate shows up as a normal pytest
failure.

The trained-model gates share one module-scoped fixture that fits the
shipped default configuration (20 synthetic objects, 2000 steps,
seed 7); the whole module runs single-threaded in a few minutes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import gradient_check, heatmap_from_entries, project_point
from voxaff import cli
from voxaff.flow import (
    FlowConfig,
    cfm_loss_mse,
    cfm_loss_mse_grad,
    euler_sample,
    interpolate,
    mask_loss,
    predicted_clean,
    velocity_target,
)
from voxaff.geometry import (
    Viewpoint,
    eval_intrinsics,
    hemisphere_candidates,
    look_at,
    unproject_pixels,
)
from voxaff.metrics import (
    AFFORDANCE_THRESHOLDS,
    aiou_acd,
    auc,
    chamfer,
    mae,
    sim,
    volumetric_iou,
    voxel_center_cloud,
)
from voxaff.netcore import (
    TrainerConfig,
    VelocityModel,
    train_affordance,
    train_structure,
)
from voxaff.flow import velocity_mask_loss
from voxaff.pipeline import (
    PipelineConfig,
    StageModels,
    active_loop,
    ground,
    reconstruct,
    select_next_view,
    worst_initial_view,
)
from voxaff.render import render_views
from voxaff.synthscene import (
    default_query_table,
    generate_object,
    ground_truth_affordance,
    occupied_indices,
)
from voxaff.voxel import AffordanceHeatmap, backproject_view, fuse

R = 8
CHANNELS = 16
TOKEN_DIM = 17  # voxel value plus 16 positional-encoding channels


def _done(number: int, detail: str):
    print(f"[acceptance] criterion {number:>2} PASS - {detail}")


# --- brute-force metric oracles ----------------------------------------------
#
# Deliberately naive re-implementations: per-pair loops, explicit sets,
# no shared code with the library beyond elementary numpy ops.


def _brute_iou(a_rows, b_rows) -> float:
    sa = {tuple(int(c) for c in row) for row in np.asarray(a_rows).reshape(-1, 3)}
    sb = {tuple(int(c) for c in row) for row in np.asarray(b_rows).reshape(-1, 3)}
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def _brute_min_dists(a, b):
    return np.array([np.sqrt((((b - p) ** 2).sum(axis=1)).min()) for p in a])


def _brute_chamfer(a, b) -> float:
    return 0.5 * float(np.mean(_brute_min_dists(a, b))) + 0.5 * float(
        np.mean(_brute_min_dists(b, a))
    )


def _brute_auc(pred, gt) -> float:
    positives = [p for p, g in zip(pred, gt) if g >= 0.5]
    negatives = [p for p, g in zip(pred, gt) if g < 0.5]
    wins = 0.0
    for x in positives:
        for y in negatives:
            if x > y:
                wins += 1.0
            elif x == y:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def _brute_sim(pred, gt) -> float:
    ps, gs = float(np.sum(pred)), float(np.sum(gt))
    mins = np.array([min(p / ps, g / gs) for p, g in zip(pred, gt)])
    return float(mins.sum())


def _brute_mae(pred, gt) -> float:
    return float(np.mean(np.array([abs(p - g) for p, g in zip(pred, gt)])))


def _brute_aiou_acd(pred: AffordanceHeatmap, gt: AffordanceHeatmap, r: int) -> dict:
    ious, cds, excluded = [], [], 0
    for level in AFFORDANCE_THRESHOLDS:
        p_rows = pred.positions[pred.values >= level]
        g_rows = gt.positions[gt.values >= level]
        if p_rows.shape[0] == 0 and g_rows.shape[0] == 0:
            ious.append(1.0)
            cds.append(0.0)
        elif p_rows.shape[0] == 0 or g_rows.shape[0] == 0:
            ious.append(0.0)
            cds.append(None)
            excluded += 1
        else:
            ious.append(_brute_iou(p_rows, g_rows))
            cds.append(_brute_chamfer((p_rows + 0.5) / r - 0.5, (g_rows + 0.5) / r - 0.5))
    defined = [c for c in cds if c is not None]
    return {
        "aiou": float(np.mean(ious)),
        "acd": float(np.mean(defined)) if defined else None,
        "ious": tuple(ious),
        "cds": tuple(cds),
        "excluded": excluded,
    }


def _random_cells(rng: np.random.Generator, n: int) -> np.ndarray:
    flat = rng.choice(R**3, size=n, replace=False)
    return np.stack([flat % R, (flat // R) % R, flat // (R * R)], axis=1).astype(np.int64)


def _random_heatmap(rng: np.random.Generator, scale: float) -> AffordanceHeatmap:
    cells = _random_cells(rng, int(rng.integers(5, 51)))
    values = scale * rng.random(cells.shape[0])
    entries = {tuple(int(c) for c in row): float(v) for row, v in zip(cells, values)}
    return heatmap_from_entries(R, entries)


def test_criterion_01_camera_round_trips_and_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    intrinsics = eval_intrinsics(128)
    checked = 0
    for _ in range(100):
        direction = rng.standard_normal(3)
        while np.linalg.norm(direction) < 1e-6 or abs(direction[2]) > 0.98 * np.linalg.norm(direction):
            direction = rng.standard_normal(3)
        direction = direction / np.linalg.norm(direction)
        origin = (1.2 + 1.8 * rng.random()) * direction
        view = Viewpoint(intrinsics=intrinsics, pose=look_at(origin, (0.0, 0.0, 0.0)))
        us = rng.uniform(0.0, intrinsics.width, 100)
        vs = rng.uniform(0.0, intrinsics.height, 100)
        ds = 0.3 + 3.0 * rng.random(100)
        points = unproject_pixels(us, vs, ds, view)
        for u, v, d, point in zip(us, vs, ds, points):
            u2, v2, d2 = project_point(point, view)
            for got, want in ((u2, u), (v2, v), (d2, d)):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            checked += 1
    assert checked == 10_000

    empty = np.zeros((0, 3), dtype=np.int64)
    assert volumetric_iou(empty, empty, R) == 1.0
    assert volumetric_iou(empty, _random_cells(np.random.default_rng(1), 5), R) == 0.0

    for trial in range(20):
        trng = np.random.default_rng(300 + trial)
        a = _random_cells(trng, int(trng.integers(1, 51)))
        b = _random_cells(trng, int(trng.integers(1, 51)))
        assert volumetric_iou(a, b, R) == _brute_iou(a, b)
        ca, cb = voxel_center_cloud(a, R), voxel_center_cloud(b, R)
        assert chamfer(ca, cb) == _brute_chamfer(ca, cb)
        fa = 0.4 * trng.standard_normal((int(trng.integers(1, 51)), 3))
        fb = 0.4 * trng.standard_normal((int(trng.integers(1, 51)), 3))
        assert chamfer(fa, fb) == _brute_chamfer(fa, fb)

    for trial in range(20):
        vrng = np.random.default_rng(600 + trial)
        n = int(vrng.integers(2, 51))
        pred = np.round(vrng.random(n), 1)  # coarse grid forces rank ties
        gt = (vrng.random(n) < 0.5).astype(float)
        if gt.min() == gt.max():
            gt[0] = 1.0 - gt[0]
        assert auc(pred, gt) == _brute_auc(pred, gt)
        p_vals = vrng.random(n) + 0.01
        g_vals = vrng.random(n) + 0.01
        assert sim(p_vals, g_vals) == _brute_sim(p_vals, g_vals)
        assert mae(p_vals, g_vals) == _brute_mae(p_vals, g_vals)

    for trial in range(10):
        hrng = np.random.default_rng(900 + trial)
        pred = _random_heatmap(hrng, scale=0.15 if trial % 2 else 0.6)
        gt = _random_heatmap(hrng, scale=1.0)
        got = aiou_acd(pred, gt, R)
        want = _brute_aiou_acd(pred, gt, R)
        assert got.aiou == want["aiou"]
        assert got.acd == want["acd"]
        assert got.per_threshold_iou == want["ious"]
        assert got.per_threshold_cd == want["cds"]
        assert got.excluded == want["excluded"]

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _done(1, f"10000 camera round trips within 1e-9; 6 metrics match brute-force oracles exactly ({elapsed:.1f}s)")


def test_criterion_02_flow_algebra_and_mask_loss_identities():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(257)
    eps = rng.standard_normal(257)
    assert np.array_equal(interpolate(x0, eps, 0.0), x0)
    assert np.array_equal(interpolate(x0, eps, 1.0), eps)

    # dyadic values (multiples of 1/8 in [-2, 2]) make every intermediate
    # sum exactly representable, so the clean-sample identity is bitwise
    x0_d = rng.integers(-16, 17, size=300) / 8.0
    eps_d = rng.integers(-16, 17, size=300) / 8.0
    assert np.array_equal(predicted_clean(velocity_target(x0_d, eps_d), eps_d), x0_d)

    target = rng.standard_normal(64)
    recovered = euler_sample(
        lambda x, t: x - target,
        (64,),
        FlowConfig(steps=1, noise_scale=1.0),
        rng=np.random.default_rng(123),
    )
    assert float(np.max(np.abs(recovered - target))) < 1e-12

    # zero logits: cross-entropy ln 2; sigmoid 1/2 gives Dice 1 - 3/5
    loss = mask_loss(np.zeros(4), np.array([1.0, 0.0, 1.0, 0.0]))
    assert abs(loss - (math.log(2.0) + 0.4)) < 1e-12
    _done(2, "interpolation endpoints, clean-sample identity, one-step recovery, mask hand value")


def test_criterion_03_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    model = VelocityModel.create(token_dim=5, cond_dim=2, hidden=4, depth=1, seed=21)
    rng = np.random.default_rng(22)
    for name in sorted(model.params):
        model.params[name] = 0.5 * rng.standard_normal(model.params[name].shape)
    n_params = sum(p.size for p in model.params.values())
    assert 90 <= n_params <= 110

    batch = (rng.standard_normal((7, 5)), rng.standard_normal(2), 0.4)
    x0 = rng.standard_normal(7)
    eps = rng.standard_normal(7)
    err_match = gradient_check(
        model, lambda v: (cfm_loss_mse(v, x0, eps), cfm_loss_mse_grad(v, x0, eps)), batch
    )
    assert err_match < 1e-4

    eps_mask = 5.0 * rng.standard_normal(7)
    gt = (rng.random(7) < 0.5).astype(float)
    err_mask = gradient_check(model, lambda v: velocity_mask_loss(v, eps_mask, gt), batch)
    assert err_mask < 1e-4

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _done(3, f"{n_params}-parameter model, max rel err {err_match:.1e} (matching) / {err_mask:.1e} (mask) in {elapsed:.2f}s")


def test_criterion_04_fusion_permutation_associativity_union():
    candidates = hemisphere_candidates(12, intrinsics=eval_intrinsics(16))
    rng = np.random.default_rng(4242)
    for _ in range(200):
        obj = generate_object(int(rng.integers(0, 400)))
        n_views = int(rng.integers(2, 5))
        picks = rng.choice(len(candidates), size=n_views, replace=False)
        grids = []
        for i in picks:
            view = candidates[i]
            depth, feats = render_views(obj, view, R, CHANNELS)
            grids.append(backproject_view(depth.values, feats, view, R))
        fused = fuse(grids)

        permuted = fuse([grids[j] for j in rng.permutation(n_views)])
        assert np.array_equal(fused.indices, permuted.indices)
        assert np.array_equal(fused.weights, permuted.weights)
        assert np.allclose(fused.features, permuted.features, rtol=0.0, atol=1e-12)

        nested = fuse([fuse(grids[:2])] + list(grids[2:]))
        assert np.array_equal(fused.indices, nested.indices)
        assert np.array_equal(fused.weights, nested.weights)
        assert np.allclose(fused.features, nested.features, rtol=0.0, atol=1e-12)

        union = set()
        for g in grids:
            union |= {tuple(row) for row in g.indices}
        assert len(fused) == len(union)
        assert len(fused) <= R**3
    _done(4, "200 multi-view fusions: permutation-invariant, associative, union-sized, within r^3")


# --- trained-model gates ------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    """Checkpoints under the shipped default trainer configuration."""
    t0 = time.monotonic()
    objects = [generate_object(seed) for seed in range(20)]
    table = default_query_table(CHANNELS)
    config = TrainerConfig()
    multi = train_structure(objects, config).model
    single = train_structure(objects, dataclasses.replace(config, view_range=(1, 1))).model
    affordance = train_affordance(objects, config, table=table).model
    return SimpleNamespace(
        multi=multi,
        single=single,
        affordance=affordance,
        table=table,
        config=config,
        train_seconds=time.monotonic() - t0,
    )


def _held_objects():
    return [generate_object(seed) for seed in range(100, 110)]


def _test_objects():
    return [generate_object(seed) for seed in range(200, 220)]


def _recon_iou_curve(model, objects, view_counts, euler_steps=5):
    """Mean reconstruction IoU per view count under the frozen eval protocol."""
    means = []
    for k in view_counts:
        flow_cfg = FlowConfig(steps=euler_steps, guidance_strength=3.0, noise_scale=1.0)
        views = hemisphere_candidates(k, intrinsics=eval_intrinsics(128))
        values = []
        for obj in objects:
            observations = [(*render_views(obj, v, R, CHANNELS), v) for v in views]
            occupied = reconstruct(
                observations, model, R, flow_cfg, rng=np.random.default_rng(0)
            )
            values.append(volumetric_iou(occupied, occupied_indices(obj, R), R))
        means.append(float(np.mean(values)))
    return means


def _mask_iou_mean(model, table, objects):
    """Mean IoU of 0.5-thresholded predicted vs true heatmaps over all pairs."""
    flow_cfg = FlowConfig.for_affordance_eval()
    values = []
    for obj in objects:
        occupied = occupied_indices(obj, R)
        for query in table.queries_for(obj):
            heat = ground(
                occupied,
                query,
                model,
                R,
                flow_cfg,
                rng=np.random.default_rng(0),
                table=table,
            )
            truth = ground_truth_affordance(obj, query, R, table)
            pred_set = heat.positions[heat.values >= 0.5]
            true_set = truth.positions[truth.values >= 0.5]
            values.append(volumetric_iou(pred_set, true_set, R))
    return float(np.mean(values)), len(values)


def test_criterion_05_training_clears_quality_floors(trained):
    t0 = time.monotonic()
    held = _held_objects()

    untrained = VelocityModel.create(
        TOKEN_DIM, CHANNELS, hidden=trained.config.hidden, depth=trained.config.depth,
        seed=trained.config.seed,
    )
    trained_iou = _recon_iou_curve(trained.multi, held, (1,))[0]
    untrained_iou = _recon_iou_curve(untrained, held, (1,))[0]
    recon_gain = trained_iou - untrained_iou
    assert recon_gain >= 0.3

    untrained_aff = VelocityModel.create(
        TOKEN_DIM, CHANNELS, hidden=trained.config.hidden, depth=trained.config.depth,
        seed=trained.config.seed,
    )
    trained_mask, pairs = _mask_iou_mean(trained.affordance, trained.table, held)
    untrained_mask, _ = _mask_iou_mean(untrained_aff, trained.table, held)
    mask_gain = trained_mask - untrained_mask
    assert mask_gain >= 0.2

    total_seconds = trained.train_seconds + (time.monotonic() - t0)
    assert total_seconds < 1800.0
    _done(
        5,
        f"single-view IoU {trained_iou:.3f} vs untrained {untrained_iou:.3f} (gain {recon_gain:+.3f}); "
        f"mask IoU over {pairs} pairs {trained_mask:.3f} vs {untrained_mask:.3f} (gain {mask_gain:+.3f}); "
        f"{total_seconds / 60:.1f} min",
    )


def test_criterion_06_reconstruction_improves_with_views(trained):
    objects = _test_objects()
    multi_curve = _recon_iou_curve(trained.multi, objects, (1, 2, 3, 4))
    single_curve = _recon_iou_curve(trained.single, objects, (1, 2, 3, 4))

    for earlier, later in zip(multi_curve, multi_curve[1:]):
        assert later >= earlier - 0.02
    multi_gain = multi_curve[-1] - multi_curve[0]
    single_gain = single_curve[-1] - single_curve[0]
    assert multi_gain >= 0.05
    assert single_gain < multi_gain
    curve_text = " ".join(f"{v:.3f}" for v in multi_curve)
    _done(
        6,
        f"multi-view curve [{curve_text}] gain {multi_gain:+.3f}; "
        f"single-view-trained gain {single_gain:+.3f} is smaller",
    )


def test_criterion_07_active_selection_beats_baselines(trained):
    objects = _test_objects()
    models = StageModels(structure=trained.multi, affordance=trained.affordance)
    pipe_cfg = PipelineConfig()
    candidates = pipe_cfg.candidates()
    means = {}
    for strategy in ("active", "random", "sequential"):
        values = []
        for obj in objects:
            query = trained.table.queries_for(obj)[0]
            start = worst_initial_view(obj, query, candidates, R, trained.table)
            trace = active_loop(
                obj, query, start.viewpoint, 2, strategy, models, pipe_cfg,
                rng=np.random.default_rng(0), table=trained.table,
            )
            values.append(trace.steps[-1].metrics["aiou"])
        means[strategy] = float(np.mean(values))
    assert means["active"] > means["sequential"]
    assert means["active"] >= means["random"]
    _done(
        7,
        f"mean aIoU at 2 views from worst starts: active {means['active']:.4f} > "
        f"sequential {means['sequential']:.4f}, >= random {means['random']:.4f}",
    )


def test_criterion_08_five_step_sampling_matches_twenty(trained):
    held = _held_objects()
    iou_5 = _recon_iou_curve(trained.multi, held, (2,), euler_steps=5)[0]
    iou_20 = _recon_iou_curve(trained.multi, held, (2,), euler_steps=20)[0]
    assert abs(iou_5 - iou_20) <= 0.02
    _done(8, f"2-view IoU: 5 steps {iou_5:.4f} vs 20 steps {iou_20:.4f} (|diff| {abs(iou_5 - iou_20):.4f})")


# --- CLI reproducibility ------------------------------------------------------

_CLI_TINY = {
    "n_candidates": 6,
    "image_size": 32,
    "budget": 2,
    "trainer": {"steps": 5, "view_pixels": 16, "hidden": 8, "depth": 1, "view_range": [1, 2]},
}


def _drive_cli(root, config_path) -> dict:
    cfg = ["--config", str(config_path)]
    data = root / "data"
    ckpt = root / "ckpt"
    commands = [
        ["gen-dataset", "--count", "2", "--seed", "0", *cfg, "--out", str(data)],
        ["train", "--kind", "structure", "--dataset", str(data), *cfg, "--out", str(ckpt)],
        ["train", "--kind", "affordance", "--dataset", str(data), *cfg, "--out", str(ckpt)],
        ["reconstruct", "--model", str(ckpt / "structure.model.json"),
         "--object", str(data / "object_0000.json"), "--views", "2", *cfg,
         "--out", str(root / "recon.json")],
        ["ground", "--model", str(ckpt / "affordance.model.json"),
         "--object", str(data / "object_0000.json"), "--query", "grasp the handle",
         "--occupancy", str(root / "recon.json"), *cfg, "--out", str(root / "heat.json")],
        ["ground", "--ground-truth", "--object", str(data / "object_0000.json"),
         "--query", "grasp the handle", *cfg, "--out", str(root / "truth.json")],
        ["plan", "--structure", str(ckpt / "structure.model.json"),
         "--affordance", str(ckpt / "affordance.model.json"),
         "--object", str(data / "object_0001.json"), "--query", "strike a nail",
         "--budget", "2", "--strategy", "active", *cfg, "--out", str(root / "plan")],
        ["bench", "--suite", "views_vs_iou", "--dataset", str(data),
         "--structure-single", str(ckpt / "structure.model.json"),
         "--structure-multi", str(ckpt / "structure.model.json"), *cfg,
         "--out", str(root / "views.csv")],
        ["bench", "--suite", "strategy_vs_aiou", "--dataset", str(data),
         "--structure", str(ckpt / "structure.model.json"),
         "--affordance", str(ckpt / "affordance.model.json"), "--budget", "2", *cfg,
         "--out", str(root / "strategies.csv")],
        ["eval", "--pred", str(root / "heat.json"), "--gt", str(root / "truth.json"),
         *cfg, "--out", str(root / "scores.csv")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_09_cli_reruns_are_byte_identical(tmp_path):
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(_CLI_TINY))
    first = _drive_cli(tmp_path / "run1", config_path)
    second = _drive_cli(tmp_path / "run2", config_path)
    assert first == second
    assert len(first) >= 12
    _done(9, f"10 commands produced {len(first)} artifacts with identical SHA-256 digests on rerun")


def test_criterion_10_view_selection_is_scale_invariant():
    candidates = hemisphere_candidates(12, intrinsics=eval_intrinsics(64))
    rng = np.random.default_rng(10_000)
    for trial in range(50):
        obj = generate_object(300 + trial)
        occupied = occupied_indices(obj, R)
        values = 0.005 + 0.095 * rng.random(occupied.shape[0])
        entries = {tuple(int(c) for c in row): float(v) for row, v in zip(occupied, values)}
        base = select_next_view(occupied, heatmap_from_entries(R, entries), candidates)
        for scale in (0.1, 10.0):
            scaled = {key: value * scale for key, value in entries.items()}
            pick = select_next_view(
                occupied, heatmap_from_entries(R, scaled), candidates
            )
            assert pick.index == base.index
    _done(10, "50 random heatmaps, x0.1 and x10 scalings: selected view index unchanged")
