"""Metric tests: exhaustive/brute-force oracles on small inputs, hand
arithmetic for the documented cases, and the stated empty-set rules."""

import numpy as np
import pytest

import voxaff.metrics as mx
from oracles import heatmap_from_entries
from voxaff.errors import DataError, DomainError, ShapeMismatchError, UndefinedMetricError


# --- volumetric IoU ----------------------------------------------------------


def test_volumetric_iou_hand_cases():
    a = [(i, 0, 0) for i in range(8)]
    b = [(i, 0, 0) for i in range(4, 12)]
    assert mx.volumetric_iou(a, a, 12) == 1.0
    assert mx.volumetric_iou(a, [(0, 5, 5)], 12) == 0.0
    assert mx.volumetric_iou(a, b, 12) == pytest.approx(4.0 / 12.0)
    assert mx.volumetric_iou([], [], 12) == 1.0
    assert mx.volumetric_iou(a, [], 12) == 0.0


def test_volumetric_iou_symmetric_and_matches_set_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = {tuple(row) for row in rng.integers(0, 4, size=(rng.integers(0, 30), 3))}
        b = {tuple(row) for row in rng.integers(0, 4, size=(rng.integers(0, 30), 3))}
        got = mx.volumetric_iou(a, b, 4)
        assert got == mx.volumetric_iou(b, a, 4)
        expect = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert got == expect


def test_volumetric_iou_duplicate_rows_count_once():
    a = np.array([(1, 2, 3), (1, 2, 3), (0, 0, 0)])
    b = np.array([(1, 2, 3), (4, 4, 4), (4, 4, 4)])
    assert mx.volumetric_iou(a, b, r=8) == 1.0 / 3.0
    assert mx.volumetric_iou(a, a[:1], r=8) == 0.5


def test_volumetric_iou_both_empty_is_one():
    empty = np.zeros((0, 3), dtype=np.int64)
    assert mx.volumetric_iou(empty, empty, r=8) == 1.0


def test_volumetric_iou_matches_set_oracle_at_any_resolution():
    # No two distinct triples in [0, r)^3 may share a flat index.
    rng = np.random.default_rng(1)
    for r in (2, 7, 1000):
        for _ in range(10):
            a = rng.integers(0, r, size=(rng.integers(0, 40), 3))
            b = np.concatenate([a[: len(a) // 2], rng.integers(0, r, size=(20, 3))])
            sa, sb = {tuple(row) for row in a}, {tuple(row) for row in b}
            assert mx.volumetric_iou(a, b, r) == len(sa & sb) / len(sa | sb)
    assert mx.volumetric_iou([(100, 0, 0)], [(0, 100, 0)], 101) == 0.0


def test_volumetric_iou_validates_range():
    with pytest.raises(DomainError):
        mx.volumetric_iou([(9, 0, 0)], [(0, 0, 0)], r=8)


# --- chamfer -----------------------------------------------------------------


def _dist(p, q):
    return np.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2)


def _brute_chamfer(a, b):
    fwd = np.mean([min(_dist(p, q) for q in b) for p in a])
    bwd = np.mean([min(_dist(p, q) for p in a) for q in b])
    return 0.5 * fwd + 0.5 * bwd


def test_chamfer_hand_cases():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert mx.chamfer(a, a) == 0.0
    assert mx.chamfer(a, b) == pytest.approx(1.0)


def test_chamfer_matches_brute_force_exactly():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((7, 3))
    assert mx.chamfer(a, b) == _brute_chamfer(a, b)
    assert mx.chamfer(a, b) == mx.chamfer(b, a)


def test_chamfer_zero_iff_same_point_set():
    a = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    b = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert mx.chamfer(a, b) == 0.0
    assert mx.chamfer(a, a + 1e-3) > 0.0


def test_chamfer_chunking_is_invisible():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((300, 3))  # crosses the 256 chunk boundary
    b = rng.standard_normal((10, 3))
    direct = 0.5 * np.sqrt(((a[:, None] - b[None]) ** 2).sum(2)).min(1).mean() + 0.5 * np.sqrt(
        ((b[:, None] - a[None]) ** 2).sum(2)
    ).min(1).mean()
    assert mx.chamfer(a, b) == pytest.approx(direct, abs=1e-15)


def test_chamfer_rejects_empty():
    with pytest.raises(UndefinedMetricError):
        mx.chamfer(np.zeros((0, 3)), np.zeros((3, 3)))


# --- aIoU / aCD --------------------------------------------------------------


def _heat(r, entries):
    return heatmap_from_entries(r, entries)


def test_aiou_acd_identical_heatmaps():
    heat = _heat(8, {(1, 1, 1): 1.0, (2, 2, 2): 1.0})
    result = mx.aiou_acd(heat, heat, 8)
    assert result.aiou == 1.0
    assert result.acd == 0.0
    assert result.excluded == 0


def test_aiou_acd_empty_prediction_everywhere():
    pred = _heat(8, {(1, 1, 1): 0.0})
    gt = _heat(8, {(1, 1, 1): 1.0})
    result = mx.aiou_acd(pred, gt, 8)
    assert result.aiou == 0.0
    assert result.acd is None
    assert result.excluded == 5
    assert result.per_threshold_iou == (0.0,) * 5
    assert result.per_threshold_cd == (None,) * 5


def test_aiou_acd_hand_enumeration():
    # Pred voxels along x at values 0.15 / 0.35 / 0.55; gt marks only the
    # 0.55 voxel.  Per level the pred sets are {A,B,C}, {B,C}, {B,C},
    # {C}, {C}; gt is always {C}.
    r = 8
    a, b, c = (1, 1, 1), (2, 1, 1), (4, 1, 1)
    pred = _heat(r, {a: 0.15, b: 0.35, c: 0.55})
    gt = _heat(r, {c: 0.55})
    result = mx.aiou_acd(pred, gt, r)
    assert result.per_threshold_iou == pytest.approx((1 / 3, 1 / 2, 1 / 2, 1.0, 1.0))
    assert result.aiou == pytest.approx((1 / 3 + 1 / 2 + 1 / 2 + 1 + 1) / 5)
    # distances in world units: cells are 1/8 wide
    cd_01 = 0.5 * ((3 / 8 + 2 / 8 + 0.0) / 3)
    cd_02 = 0.5 * ((2 / 8 + 0.0) / 2)
    assert result.per_threshold_cd == pytest.approx((cd_01, cd_02, cd_02, 0.0, 0.0))
    assert result.acd == pytest.approx((cd_01 + 2 * cd_02) / 5)
    assert result.excluded == 0


def test_aiou_acd_both_empty_levels_count_as_perfect():
    pred = _heat(8, {(1, 1, 1): 0.15})
    gt = _heat(8, {(1, 1, 1): 0.15})
    result = mx.aiou_acd(pred, gt, 8)
    assert result.aiou == 1.0
    assert result.acd == 0.0


def test_aiou_acd_monotone_sanity_and_validation():
    rng = np.random.default_rng(5)
    positions = {(int(i), int(j), 0): float(v) for (i, j), v in zip(
        [(0, 0), (1, 0), (2, 0), (3, 0)], rng.random(4)
    )}
    pred = _heat(8, positions)
    gt = _heat(8, {(0, 0, 0): 1.0, (1, 0, 0): 1.0})
    assert mx.aiou_acd(pred, gt, 8).aiou <= mx.aiou_acd(gt, gt, 8).aiou
    with pytest.raises(DataError):
        mx.aiou_acd(heatmap_from_entries(8, {(0, 0, 0): 2.0}, logits=True), gt, 8)
    with pytest.raises(DomainError):
        mx.aiou_acd(pred, _heat(16, {(0, 0, 0): 1.0}), 8)


# --- AUC ---------------------------------------------------------------------


def _brute_auc(pred, gt):
    pos = [p for p, g in zip(pred, gt) if g >= 0.5]
    neg = [p for p, g in zip(pred, gt) if g < 0.5]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_hand_cases():
    gt = np.array([1.0, 1.0, 0.0, 0.0])
    assert mx.auc(np.array([0.9, 0.8, 0.2, 0.1]), gt) == 1.0
    assert mx.auc(np.full(4, 0.3), gt) == 0.5


def test_auc_six_element_enumeration():
    pred = np.array([0.1, 0.4, 0.35, 0.8, 0.4, 0.05])
    gt = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert mx.auc(pred, gt) == _brute_auc(pred, gt)


def test_auc_matches_enumeration_on_random_cases_with_ties():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(4, 50))
        pred = rng.integers(0, 5, size=n) / 4.0  # frequent ties
        gt = (rng.random(n) < 0.5).astype(float)
        if gt.min() == gt.max():
            continue
        assert mx.auc(pred, gt) == _brute_auc(pred, gt)


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(7)
    pred = rng.random(20)
    gt = (rng.random(20) < 0.4).astype(float)
    base = mx.auc(pred, gt)
    assert mx.auc(np.exp(3.0 * pred), gt) == base
    assert mx.auc(10.0 * pred - 4.0, gt) == base


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        mx.auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))


# --- SIM and MAE -------------------------------------------------------------


def test_sim_hand_cases():
    pred = np.array([0.2, 0.2, 0.4, 0.2])
    gt = np.array([0.5, 0.5, 0.0, 0.0])
    assert mx.sim(pred, pred) == pytest.approx(1.0)
    assert mx.sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert mx.sim(pred, gt) == pytest.approx(0.4, abs=1e-15)


def test_sim_validation():
    with pytest.raises(UndefinedMetricError):
        mx.sim(np.zeros(3), np.ones(3))
    with pytest.raises(DomainError):
        mx.sim(np.array([-0.1, 1.0]), np.ones(2))


def test_mae_cases():
    rng = np.random.default_rng(8)
    gt = rng.random(30)
    assert mx.mae(gt, gt) == 0.0
    assert mx.mae(np.clip(gt * 0 + 0.5, 0, 1), gt * 0 + 0.3) == pytest.approx(0.2)
    pred = rng.random(30)
    assert mx.mae(pred, gt) == np.mean([abs(p - g) for p, g in zip(pred, gt)])
    with pytest.raises(ShapeMismatchError):
        mx.mae(np.zeros(3), np.zeros(4))


# --- CSV output --------------------------------------------------------------


def test_metrics_csv_format_and_na(tmp_path):
    rows = [
        {"object": "mug-000000", "query": "grasp the handle", "views": 2, "aiou": 0.5, "acd": None},
        {"object": "mug-000001", "query": "grasp the handle", "views": 2, "aiou": 0.25, "acd": 0.125},
    ]
    text = mx.metrics_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "object,query,views,acd,aiou"
    assert lines[1].endswith("NA,0.5")
    assert "0.125" in lines[2]
    path = tmp_path / "out.metrics.csv"
    mx.write_metrics_csv(path, rows, config_echo={"seed": 3})
    again = tmp_path / "out2.metrics.csv"
    mx.write_metrics_csv(again, rows, config_echo={"seed": 3})
    assert path.read_bytes() == again.read_bytes()
    sidecar = tmp_path / "out.metrics.config.json"
    assert sidecar.exists() and b'"seed": 3' in sidecar.read_bytes()
    assert mx.metrics_rows_to_csv([]) == ""


def test_voxel_center_cloud_positions():
    cloud = mx.voxel_center_cloud([(0, 0, 0), (7, 7, 7)], 8)
    np.testing.assert_allclose(cloud[0], [-0.4375] * 3)
    np.testing.assert_allclose(cloud[1], [0.4375] * 3)
