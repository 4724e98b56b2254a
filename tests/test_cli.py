"""Command-line tests: artifact layout, schemas, byte-identical reruns,
exit codes, and self-consistency between stored rows and recomputation."""

import argparse
import copy
import csv
import hashlib
import json
import math
import pathlib
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import voxaff.cli as cli
from voxaff.flow import MAX_NOISE_SCALE
from voxaff.netcore import load_model
from voxaff.pipeline import worst_initial_view
from voxaff.synthscene import (
    default_query_table,
    generate_object,
    ground_truth_affordance,
    load_object,
    object_to_dict,
)
from voxaff.voxel import heatmap_to_dict, AffordanceHeatmap

TINY = {
    "n_candidates": 6,
    "image_size": 32,
    "budget": 2,
    "trainer": {"steps": 5, "view_pixels": 16, "hidden": 8, "depth": 1, "view_range": [1, 2]},
}


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared tiny dataset, config file, and five-step checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    data = root / "data"
    assert cli.main(["gen-dataset", "--count", "3", "--seed", "0", "--out", str(data)]) == 0
    ckpt = root / "ckpt"
    for kind in ("structure", "affordance"):
        rc = cli.main(
            ["train", "--kind", kind, "--dataset", str(data), "--config", str(config),
             "--out", str(ckpt)]
        )
        assert rc == 0
    return SimpleNamespace(
        root=root,
        config=str(config),
        data=data,
        structure=str(ckpt / "structure.model.json"),
        affordance=str(ckpt / "affordance.model.json"),
        ckpt=ckpt,
    )


# --- gen-dataset -------------------------------------------------------------


def test_gen_dataset_layout_and_hashes(ws):
    manifest = json.loads((ws.data / "manifest.json").read_text())
    assert manifest["objects"] == [f"object_{i:04d}.json" for i in range(3)]
    assert manifest["count"] == 3 and manifest["seed"] == 0
    for name, digest in manifest["hashes"].items():
        recomputed = hashlib.sha256((ws.data / name).read_bytes()).hexdigest()
        assert digest == recomputed
    for seed in range(3):
        stored = load_object(ws.data / f"object_{seed:04d}.json")
        assert object_to_dict(stored) == object_to_dict(generate_object(seed))
    assert manifest["config"]["command"] == "gen-dataset"


def test_gen_dataset_single_object(tmp_path):
    out = tmp_path / "one"
    assert cli.main(["gen-dataset", "--count", "1", "--seed", "7", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "object_0007.json", "queries.json"]


def test_gen_dataset_same_seed_identical_bytes(ws, tmp_path):
    out = tmp_path / "again"
    assert cli.main(["gen-dataset", "--count", "3", "--seed", "0", "--out", str(out)]) == 0
    for name in ["manifest.json", "queries.json", "object_0000.json"]:
        assert (out / name).read_bytes() == (ws.data / name).read_bytes()


# --- train ---------------------------------------------------------------------


def test_train_artifacts_and_rerun(ws, tmp_path):
    losses = (ws.ckpt / "structure.losses.csv").read_text().splitlines()
    assert losses[0] == "step,loss"
    assert len(losses) == 1 + TINY["trainer"]["steps"]
    model = load_model(ws.structure, 8, 16, "structure")
    assert model.steps_trained == TINY["trainer"]["steps"]
    echo = json.loads((ws.ckpt / "structure.config.json").read_text())
    assert echo["kind"] == "structure"
    assert echo["run"]["trainer"]["steps"] == TINY["trainer"]["steps"]

    out = tmp_path / "retrain"
    rc = cli.main(
        ["train", "--kind", "structure", "--dataset", str(ws.data), "--config", ws.config,
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "structure.model.json").read_bytes() == (
        ws.ckpt / "structure.model.json"
    ).read_bytes()
    assert (out / "structure.losses.csv").read_bytes() == (
        ws.ckpt / "structure.losses.csv"
    ).read_bytes()


def test_train_affordance_artifacts(ws):
    losses = (ws.ckpt / "affordance.losses.csv").read_text().splitlines()
    assert len(losses) == 1 + TINY["trainer"]["steps"]
    assert load_model(ws.affordance, 8, 16, "affordance").steps_trained == TINY["trainer"]["steps"]


# --- reconstruct and ground -------------------------------------------------------


def test_reconstruct_output_and_determinism(ws, tmp_path):
    out = tmp_path / "recon.json"
    argv = ["reconstruct", "--model", ws.structure, "--object",
            str(ws.data / "object_0001.json"), "--views", "2", "--config", ws.config,
            "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["views"] == 2 and payload["resolution"] == 8
    occ = np.array(payload["occupied"], dtype=np.int64)
    assert occ.ndim == 2 and occ.shape[1] == 3
    assert np.all((occ >= 0) & (occ < 8))
    assert 0.0 <= payload["iou_vs_ground_truth"] <= 1.0
    assert payload["config"]["command"] == "reconstruct"
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


def test_ground_prediction_and_truth_outputs(ws, tmp_path):
    obj_path = str(ws.data / "object_0001.json")
    pred_path = tmp_path / "pred.json"
    rc = cli.main(
        ["ground", "--model", ws.affordance, "--object", obj_path, "--query", "strike a nail",
         "--config", ws.config, "--out", str(pred_path)]
    )
    assert rc == 0
    pred = json.loads(pred_path.read_text())["heatmap"]
    values = np.array(pred["values"])
    assert np.all((values > 0.0) & (values < 1.0))

    gt_path = tmp_path / "gt.json"
    rc = cli.main(
        ["ground", "--ground-truth", "--object", obj_path, "--query", "strike a nail",
         "--config", ws.config, "--out", str(gt_path)]
    )
    assert rc == 0
    stored = json.loads(gt_path.read_text())["heatmap"]
    expected = ground_truth_affordance(
        load_object(obj_path), "strike a nail", 8, default_query_table()
    )
    assert stored == heatmap_to_dict(expected)


def test_ground_reads_occupancy_file(ws, tmp_path):
    obj_path = str(ws.data / "object_0002.json")
    recon = tmp_path / "recon.json"
    assert cli.main(
        ["reconstruct", "--model", ws.structure, "--object", obj_path, "--config", ws.config,
         "--out", str(recon)]
    ) == 0
    heat_path = tmp_path / "heat.json"
    rc = cli.main(
        ["ground", "--model", ws.affordance, "--object", obj_path, "--query", "sit on the seat",
         "--occupancy", str(recon), "--config", ws.config, "--out", str(heat_path)]
    )
    assert rc == 0
    positions = json.loads(heat_path.read_text())["heatmap"]["positions"]
    assert positions == json.loads(recon.read_text())["occupied"]


def test_ground_unknown_query_is_a_data_error(ws, tmp_path):
    rc = cli.main(
        ["ground", "--ground-truth", "--object", str(ws.data / "object_0000.json"),
         "--query", "fly me to the moon", "--out", str(tmp_path / "x.json")]
    )
    assert rc == 3


# --- plan ------------------------------------------------------------------------


def test_plan_trace_metrics_and_self_consistency(ws, tmp_path):
    out = tmp_path / "plan"
    obj_path = str(ws.data / "object_0001.json")
    argv = ["plan", "--structure", ws.structure, "--affordance", ws.affordance,
            "--object", obj_path, "--query", "strike a nail", "--strategy", "active",
            "--budget", "2", "--config", ws.config, "--out", str(out)]
    assert cli.main(argv) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["budget"] == 2 and trace["strategy"] == "active"

    rows = _read_csv(out / "metrics.csv")
    assert [row["views"] for row in rows] == ["1", "2"]
    for row, step in zip(rows, trace["steps"]):
        assert float(row["aiou"]) == step["metrics"]["aiou"]

    # The stored candidate scores must reproduce the recorded selection:
    # highest score wins among candidates other than the starting pose.
    obj = load_object(obj_path)
    table = default_query_table(16)
    run = cli.run_config_from_dict(json.loads(open(ws.config).read()))
    candidates = run.candidates()
    start = worst_initial_view(obj, "strike a nail", candidates, 8, table)
    step = trace["steps"][0]
    remaining = [i for i in range(len(candidates)) if i != start.index]
    best = max(remaining, key=lambda i: (step["candidate_scores"][i], -i))
    assert step["selected_index"] == best

    first = (out / "trace.json").read_bytes(), (out / "metrics.csv").read_bytes()
    assert cli.main(argv) == 0
    assert ((out / "trace.json").read_bytes(), (out / "metrics.csv").read_bytes()) == first


def test_plan_budget_one_trace(ws, tmp_path):
    out = tmp_path / "plan1"
    rc = cli.main(
        ["plan", "--structure", ws.structure, "--affordance", ws.affordance,
         "--object", str(ws.data / "object_0002.json"), "--query", "sit on the seat",
         "--strategy", "sequential", "--budget", "1", "--config", ws.config, "--out", str(out)]
    )
    assert rc == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["budget"] == 1 and len(trace["steps"]) == 1
    assert trace["steps"][0]["selected_index"] is None


@pytest.mark.parametrize("command", ["plan", "bench", "bench-views"])
def test_budget_below_one_exits_2(ws, tmp_path, capsys, command):
    # The flag and the config field are refused by the same check.
    out = tmp_path / "out"
    argv = _model_argv(ws, {"bench": "bench-strategy"}.get(command, command), out)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({**TINY, "budget": 0}))
    errs = []
    for extra in (["--budget", "0", "--config", ws.config], ["--config", str(zero)]):
        assert cli.main(argv + extra) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "Traceback" not in errs[0] and "budget" in errs[0]
    assert len(errs[0].strip().splitlines()) == 1
    assert not out.exists()


def test_unknown_strategy_flag_exits_2_as_the_config_field_does(ws, tmp_path, capsys):
    out = tmp_path / "out"
    spiral = tmp_path / "spiral.json"
    spiral.write_text(json.dumps({**TINY, "strategy": "spiral"}))
    errs = []
    for extra in (["--strategy", "spiral", "--config", ws.config], ["--config", str(spiral)]):
        assert cli.main(_model_argv(ws, "plan", out) + extra) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and len(errs[0].strip().splitlines()) == 1
    assert "strategy" in errs[0] and not out.exists()


# --- bench -------------------------------------------------------------------------


def test_bench_views_vs_iou_schema_and_aggregates(ws, tmp_path):
    out = tmp_path / "views.csv"
    rc = cli.main(
        ["bench", "--suite", "views_vs_iou", "--dataset", str(ws.data),
         "--structure-single", ws.structure, "--structure-multi", ws.structure,
         "--config", ws.config, "--out", str(out)]
    )
    assert rc == 0
    rows = _read_csv(out)
    samples = [r for r in rows if r["object"] != "mean"]
    means = [r for r in rows if r["object"] == "mean"]
    for kind in ("single_view", "multi_view"):
        for k in range(1, 9):
            got = [r for r in samples if r["strategy"] == kind and r["views"] == str(k)]
            assert len(got) == 3  # one per dataset object
            agg = [r for r in means if r["strategy"] == kind and r["views"] == str(k)]
            assert len(agg) == 1
            expected = np.mean([float(r["iou"]) for r in got])
            assert float(agg[0]["iou"]) == expected
    sidecar = json.loads((tmp_path / "views.config.json").read_text())
    assert sidecar["suite"] == "views_vs_iou"


def test_bench_strategy_vs_aiou_schema_and_aggregates(ws, tmp_path):
    out = tmp_path / "strat.csv"
    rc = cli.main(
        ["bench", "--suite", "strategy_vs_aiou", "--dataset", str(ws.data),
         "--structure", ws.structure, "--affordance", ws.affordance,
         "--config", ws.config, "--out", str(out)]
    )
    assert rc == 0
    rows = _read_csv(out)
    samples = [r for r in rows if r["object"] != "mean"]
    means = [r for r in rows if r["object"] == "mean"]
    assert {r["strategy"] for r in rows} == {"active", "random", "sequential"}
    assert {r["views"] for r in rows} == {"1", "2"}
    for strategy in ("active", "random", "sequential"):
        for k in ("1", "2"):
            got = [r for r in samples if r["strategy"] == strategy and r["views"] == k]
            assert len(got) == 3
            agg = [r for r in means if r["strategy"] == strategy and r["views"] == k]
            expected = np.mean([float(r["aiou"]) for r in got])
            assert float(agg[0]["aiou"]) == expected
    # Iteration one precedes any strategy divergence: same start, same rng,
    # so the first-step metrics agree across strategies per object.
    for obj_id in {r["object"] for r in samples}:
        first = {r["strategy"]: r["aiou"] for r in samples
                 if r["object"] == obj_id and r["views"] == "1"}
        assert len(set(first.values())) == 1


def test_bench_requires_matching_checkpoint_flags(ws, tmp_path):
    rc = cli.main(
        ["bench", "--suite", "views_vs_iou", "--dataset", str(ws.data),
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2


# --- eval --------------------------------------------------------------------------


def test_eval_perfect_pair_and_aggregate(ws, tmp_path):
    obj_path = str(ws.data / "object_0001.json")
    gt_path = tmp_path / "gt.json"
    assert cli.main(
        ["ground", "--ground-truth", "--object", obj_path, "--query", "strike a nail",
         "--out", str(gt_path)]
    ) == 0
    out = tmp_path / "eval.csv"
    rc = cli.main(["eval", "--pred", str(gt_path), "--gt", str(gt_path), "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 2 and rows[1]["object"] == "mean"
    perfect = rows[0]
    assert float(perfect["aiou"]) == 1.0
    assert float(perfect["acd"]) == 0.0
    assert float(perfect["auc"]) == 1.0
    assert float(perfect["sim"]) == 1.0
    assert float(perfect["mae"]) == 0.0
    assert rows[1]["aiou"] == perfect["aiou"]


def test_eval_marks_undefined_metrics_na(tmp_path):
    # Single-class ground truth leaves AUC undefined; it must be NA, not 0.
    positions = [[1, 1, 1], [2, 2, 2]]
    gt = AffordanceHeatmap(
        resolution=8, positions=np.array(positions), values=np.array([1.0, 1.0])
    )
    pred = AffordanceHeatmap(
        resolution=8, positions=np.array(positions), values=np.array([0.9, 0.4])
    )
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(json.dumps(heatmap_to_dict(gt)))
    pred_path.write_text(json.dumps(heatmap_to_dict(pred)))
    out = tmp_path / "eval.csv"
    assert cli.main(["eval", "--pred", str(pred_path), "--gt", str(gt_path),
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0]["auc"] == "NA"
    assert rows[1]["auc"] == "NA"  # aggregate over zero defined values
    assert float(rows[0]["mae"]) == pytest.approx(abs(0.9 - 1.0) / 2 + abs(0.4 - 1.0) / 2)


def test_aligned_values_match_a_dict_oracle():
    rng = np.random.default_rng(4)
    r = 6
    heats = []
    for _ in range(2):
        flat = np.unique(rng.integers(0, r**3, size=40))
        positions = np.stack([flat // (r * r), flat // r % r, flat % r], axis=1)
        heats.append(AffordanceHeatmap(resolution=r, positions=positions, values=rng.random(len(flat))))
    maps = [{tuple(p): v for p, v in zip(h.positions.tolist(), h.values)} for h in heats]
    keys = sorted(set(maps[0]) | set(maps[1]))
    got = cli._aligned_values(*heats)
    for values, table in zip(got, maps):
        assert np.array_equal(values, [table.get(k, 0.0) for k in keys])


def test_eval_rejects_mismatched_pair_counts(tmp_path):
    a = tmp_path / "a.json"
    a.write_text("{}")
    rc = cli.main(["eval", "--pred", str(a), str(a), "--gt", str(a), "--out",
                   str(tmp_path / "x.csv")])
    assert rc == 2


# --- config handling and exit codes ----------------------------------------------


def test_unknown_config_field_exits_2(ws, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    rc = cli.main(["gen-dataset", "--count", "1", "--config", str(bad),
                   "--out", str(tmp_path / "d")])
    assert rc == 2


@pytest.mark.parametrize(
    "trainer",
    [
        {"steps": 0},
        {"steps": 2.5},
        {"batch_size": 1.5},
        {"hidden": True},
        {"view_range": [1]},
        {"learning_rate": math.nan},
        {"beta1": 2.0},
        {"beta2": 1.0},
        {"adam_eps": -1},
        {"cfg_dropout": True},
        {"ema_rate": math.inf},
        {"seed": -1, "steps": 2},
    ],
    ids=[
        "steps-0", "steps-2.5", "batch_size-1.5", "hidden-true", "view_range-1",
        "learning_rate-nan", "beta1-2", "beta2-1", "adam_eps-neg", "cfg_dropout-true",
        "ema_rate-inf", "seed-minus-1",
    ],
)
def test_bad_trainer_value_exits_2(ws, tmp_path, capsys, trainer):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trainer": trainer}))
    rc = cli.main(["train", "--kind", "structure", "--dataset", str(ws.data),
                   "--config", str(bad), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("resolution", "8"),
        ("channels", True),
        ("n_candidates", 2.5),
        ("image_size", "x"),
        ("budget", 2.0),
        ("deterministic", 1),
        ("strategy", 3),
    ],
    ids=lambda v: str(v),
)
def test_bad_run_config_value_exits_2(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({field: value}))
    rc = cli.main(["gen-dataset", "--count", "1", "--config", str(bad),
                   "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and field in err


@pytest.mark.parametrize("flow", ["structure_flow", "affordance_flow", "affordance_train_flow"])
@pytest.mark.parametrize(
    "fields",
    [
        {"steps": 2.5},
        {"steps": True},
        {"noise_scale": math.inf},
        {"noise_scale": True},
        {"noise_scale": 1e308},
        {"guidance_strength": math.nan},
        {"scale_targets": "yes"},  # not a flow field: refused as unknown
    ],
    ids=["steps-2.5", "steps-true", "noise_scale-inf", "noise_scale-true", "noise_scale-1e308",
         "guidance_strength-nan", "scale_targets-yes"],
)
def test_bad_flow_value_exits_2(tmp_path, capsys, flow, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({flow: fields}))
    rc = cli.main(["gen-dataset", "--count", "1", "--config", str(bad),
                   "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_noise_scale_at_its_bound_runs_without_a_warning(ws, tmp_path, capsys):
    flows = ("structure_flow", "affordance_flow", "affordance_train_flow")
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps({**TINY, **{f: {"noise_scale": MAX_NOISE_SCALE} for f in flows}}))
    ckpt, obj, query = tmp_path / "ckpt", str(ws.data / "object_0001.json"), "strike a nail"
    for argv in (
        ["train", "--kind", "structure", "--dataset", str(ws.data), "--out", str(ckpt)],
        ["train", "--kind", "affordance", "--dataset", str(ws.data), "--out", str(ckpt)],
        ["reconstruct", "--model", str(ckpt / "structure.model.json"), "--object", obj,
         "--out", str(tmp_path / "recon.json")],
        ["ground", "--model", str(ckpt / "affordance.model.json"), "--object", obj,
         "--query", query, "--out", str(tmp_path / "heat.json")],
        ["plan", "--structure", str(ckpt / "structure.model.json"),
         "--affordance", str(ckpt / "affordance.model.json"), "--object", obj,
         "--query", query, "--out", str(tmp_path / "plan")],
    ):
        assert cli.main(argv + ["--config", str(config)]) == 0, argv[0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "config",
    [{"trainer": {"resolution": 6}}, {"trainer": {"channels": 8}},
     {"structure_flow": {"seed": 5}}, {"affordance_train_flow": {"scale_targets": False}}],
    ids=["trainer.resolution", "trainer.channels", "structure_flow.seed",
         "affordance_train_flow.scale_targets"],
)
def test_removed_or_duplicate_config_field_exits_2(tmp_path, capsys, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = cli.main(["gen-dataset", "--count", "1", "--config", str(bad),
                   "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_top_level_resolution_sizes_training_and_its_checkpoint_loads(ws, tmp_path):
    config = tmp_path / "r6.json"
    config.write_text(json.dumps({**TINY, "resolution": 6}))
    ckpt = tmp_path / "ckpt"
    assert cli.main(["train", "--kind", "structure", "--dataset", str(ws.data),
                     "--config", str(config), "--out", str(ckpt)]) == 0
    record = json.loads((ckpt / "structure.model.json").read_text())["trainer"]
    assert record["resolution"] == 6 and record["channels"] == 16
    out = tmp_path / "recon.json"
    assert cli.main(["reconstruct", "--model", str(ckpt / "structure.model.json"),
                     "--object", str(ws.data / "object_0000.json"),
                     "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["resolution"] == 6


def test_missing_input_file_exits_3(ws, tmp_path):
    rc = cli.main(["reconstruct", "--model", ws.structure,
                   "--object", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_corrupt_json_exits_3(ws, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc = cli.main(["reconstruct", "--model", ws.structure, "--object", str(broken),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_non_finite_checkpoint_exits_4(ws, tmp_path):
    data = json.loads(open(ws.structure).read())
    data["params"]["Wout"][0][0] = math.nan
    bad = tmp_path / "nan.model.json"
    bad.write_text(json.dumps(data))
    rc = cli.main(["reconstruct", "--model", str(bad),
                   "--object", str(ws.data / "object_0000.json"),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 4


@pytest.fixture(scope="module")
def walk(ws):
    """A directory of walkthrough artifacts: the dataset, both checkpoints,
    a reconstruction, a predicted and a true heatmap, and the config."""
    walk = ws.root / "walk"
    shutil.copytree(ws.data, walk / "data")
    for path in (ws.structure, ws.affordance, ws.config):
        shutil.copy(path, walk)
    files = {name: str(walk / rel) for name, rel in WALK_FILES.items()}
    query = ["--query", "strike a nail", "--config", files["config"]]
    for argv in (
        ["reconstruct", "--model", files["structure"], "--object", files["scene"],
         "--config", files["config"], "--out", files["occupancy"]],
        ["ground", "--model", files["affordance"], "--object", files["scene"], *query,
         "--occupancy", files["occupancy"], "--out", files["heatmap"]],
        ["ground", "--ground-truth", "--object", files["scene"], *query, "--out", files["truth"]],
    ):
        assert cli.main(argv) == 0
    return walk


#: Walkthrough files, relative to the ``walk`` directory.
WALK_FILES = {
    "data": "data",
    "manifest": "data/manifest.json",
    "scene": "data/object_0001.json",
    "table": "data/queries.json",
    "structure": "structure.model.json",
    "affordance": "affordance.model.json",
    "config": "tiny.json",
    "occupancy": "recon.json",
    "heatmap": "heat.json",
    "truth": "truth.json",
}

#: The command that reads each corruptible artifact.
READERS = {
    "manifest": ["train", "--kind", "affordance", "--dataset", "{data}"],
    "scene": ["reconstruct", "--model", "{structure}", "--object", "{scene}"],
    "table": ["ground", "--ground-truth", "--object", "{scene}", "--query", "strike a nail",
              "--table", "{table}"],
    "structure": ["reconstruct", "--model", "{structure}", "--object", "{scene}"],
    "affordance": ["ground", "--model", "{affordance}", "--object", "{scene}",
                   "--query", "strike a nail"],
    "occupancy": ["ground", "--model", "{affordance}", "--object", "{scene}",
                  "--query", "strike a nail", "--occupancy", "{occupancy}"],
    "heatmap": ["eval", "--pred", "{heatmap}", "--gt", "{truth}"],
}


#: Other commands that read an artifact, named "<artifact>@<command>".
OTHER_READERS = {
    "table@train": READERS["manifest"],
    "scene@train": READERS["manifest"],
    "manifest@bench": ["bench", "--suite", "views_vs_iou", "--dataset", "{data}",
                       "--structure-single", "{structure}", "--structure-multi", "{structure}"],
}


class _Stale:
    """A mutation of a dataset file that leaves the file's hash in the
    manifest as ``gen-dataset`` wrote it."""

    def __init__(self, mutate):
        self.mutate = mutate

    def __call__(self, record):
        return self.mutate(record)


def _run_corrupted(walk, tmp_path, artifact, mutate):
    """Copy the walkthrough, rewrite one artifact as ``mutate`` of its
    record, and run the command that reads it (``READERS``, or
    ``OTHER_READERS`` for an "<artifact>@<command>" name).

    A rewritten dataset file gets its new hash in the copied manifest, so
    that the reader reaches the check the mutation aims at, unless the
    mutation is ``_Stale``."""
    root = tmp_path / "walk"
    shutil.copytree(walk, root)
    files = {name: str(root / rel) for name, rel in WALK_FILES.items()}
    path = pathlib.Path(files[artifact.partition("@")[0]])
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    manifest = pathlib.Path(files["manifest"])
    if path.parent == manifest.parent and path != manifest and not isinstance(mutate, _Stale):
        record = json.loads(manifest.read_text())
        record["hashes"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(record))
    reader = OTHER_READERS[artifact] if "@" in artifact else READERS[artifact]
    argv = [arg.format(**files) for arg in reader]
    return cli.main(argv + ["--config", files["config"], "--out", str(tmp_path / "out")])


def _replaced(path, value):
    """A mutation that sets the item at ``path`` (keys and list indices)."""
    def mutate(record):
        record = copy.deepcopy(record)
        node = record
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return record
    return mutate


def _dropped(path):
    """A mutation that deletes the item at ``path`` (keys and list indices)."""
    def mutate(record):
        record = copy.deepcopy(record)
        node = record
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return record
    return mutate


def _half_cell_x(path):
    """A mutation that adds half a cell to x on every row of the index
    triples at ``path``."""
    def mutate(record):
        record = copy.deepcopy(record)
        node = record
        for key in path:
            node = node[key]
        for row in node:
            row[0] += 0.5
        return record
    return mutate


#: Edits that pass the scene and table validators: the hammer's handle is
#: half as wide along x, and "grasp the handle" names the head.
SCENE_EDIT = _replaced(("parts", 0, "scale", 0), 0.06)
TABLE_EDIT = _replaced(("queries", "grasp the handle", "tag"), "strike")


def _one_wide_table(dim):
    """A mutation that sets the table's ``dim`` and keeps the first entry of
    every embedding, so that the embeddings are one wide."""
    def mutate(record):
        record = copy.deepcopy(record)
        record["dim"] = dim
        for entry in record["queries"].values():
            entry["embedding"] = entry["embedding"][:1]
        return record
    return mutate


def _torus_head(major_radius):
    """A mutation that makes the scene's second part (the hammer's head) a
    torus segment of the given major radius."""
    def mutate(record):
        record = copy.deepcopy(record)
        record["parts"][1].update(
            primitive="torus_segment",
            params={"major_radius": major_radius, "minor_radius": 0.05,
                    "arc_start": -1.0, "arc_end": 1.0},
        )
        return record
    return mutate


@pytest.mark.parametrize(
    "artifact, mutate, code",
    [
        ("manifest", _replaced(("objects",), [5]), 3),
        ("manifest", _replaced(("table",), "missing.json"), 3),
        ("manifest@bench", _replaced(("objects",), []), 3),
        ("manifest", _replaced(("hashes",), [1]), 3),
        ("scene@train", _Stale(SCENE_EDIT), 3),
        ("table@train", _Stale(TABLE_EDIT), 3),
        ("table", _replaced(("queries",), [1]), 3),
        ("table@train", _replaced(("dim",), -1), 3),
        ("table@train", _replaced(("dim",), 1e300), 3),
        ("table@train", _replaced(("dim",), 0), 3),
        ("table@train", _one_wide_table(1.5), 3),
        ("table@train", _replaced(("queries", "strike a nail", "tag"), []), 3),
        ("table@train", _replaced(("queries", "strike a nail", "tag"), {}), 3),
        ("table", _one_wide_table(True), 3),
        ("table", _replaced(("queries", "strike a nail", "embedding", 0), math.nan), 3),
        ("table", _replaced(("queries", "strike a nail", "embedding"), [0.5] * 15), 3),
        ("scene", _replaced(("parts",), [1]), 3),
        ("scene", _replaced(("parts", 0, "rotation", 0), 1e308), 3),
        ("scene", _replaced(("parts", 0, "scale", 0), math.inf), 3),
        ("scene", _replaced(("parts", 0, "scale", 0), 1e-320), 3),
        ("scene", _replaced(("parts", 0, "scale", 0), 1e-300), 3),
        ("scene", _torus_head(1e308), 3),
        ("scene", _replaced(("parts", 0, "translation", 0), 10**400), 3),
        ("scene", _replaced(("parts", 0, "part_label"), ["handle"]), 3),
        ("scene", _replaced(("parts", 0, "affordance_tags", 0), ["grasp"]), 3),
        ("scene", _replaced(("seed",), 2.5), 3),
        ("scene", _replaced(("seed",), True), 3),
        ("scene", _replaced(("seed",), 1e300), 3),
        ("structure", _replaced(("params",), [1]), 3),
        ("structure", _replaced(("params", ""), [1.0]), 3),
        ("structure", _replaced(("params", "Wout", 0, 0), math.nan), 4),
        ("structure", _replaced(("token_dim",), 17.5), 3),
        ("structure", _replaced(("steps_trained",), True), 3),
        ("structure", _replaced(("steps_trained",), -5), 3),
        ("structure", _replaced(("steps_trained",), 2.9), 3),
        ("structure", _replaced(("hidden",), "8"), 3),  # the walk's width, as a string
        ("structure", _replaced(("seed",), 1e300), 3),
        ("affordance", _replaced(("depth",), 1e308), 3),
        ("affordance", _replaced(("params", "b0"), []), 3),
        ("occupancy", _replaced(("occupied", 0, 2), 1e308), 3),
        ("heatmap", _replaced(("heatmap", "positions", 0, 2), 1e308), 3),
        ("heatmap", _half_cell_x(("heatmap", "positions")), 3),
        ("heatmap", _replaced(("heatmap", "resolution"), 8.5), 3),
        ("heatmap", _replaced(("heatmap", "logits"), "false"), 3),
        ("heatmap", _replaced(("heatmap", "logits"), True), 3),
        ("heatmap", _replaced(("heatmap", "logits"), 0), 3),
        ("occupancy", _half_cell_x(("occupied",)), 3),
        ("occupancy", _replaced(("resolution",), 8.5), 3),
        ("occupancy", _replaced(("resolution",), "8"), 3),
        ("occupancy", _replaced(("object_id",), "mug-000000"), 3),
        ("occupancy", _replaced(("object_id",), 1), 3),
        ("heatmap", _replaced(("object_id",), ["a", {"b": 1}]), 3),
        ("heatmap", _replaced(("query",), 7), 3),
    ],
    ids=["manifest-object-5", "manifest-missing-table", "manifest-no-objects-bench",
         "manifest-hashes-list", "scene-edited-train", "table-edited-train",
         "table-queries-list", "table-dim-minus-1-train", "table-dim-1e300-train",
         "table-dim-0-train", "table-dim-1.5-train", "table-tag-list-train",
         "table-tag-dict-train", "table-dim-true", "table-embedding-nan",
         "table-embedding-short",
         "scene-parts-list", "scene-rotation-1e308", "scene-scale-inf",
         "scene-scale-1e-320", "scene-scale-1e-300",
         "scene-torus-radius-1e308", "scene-translation-int-1e400", "scene-label-list",
         "scene-tag-list", "scene-seed-2.5", "scene-seed-true", "scene-seed-1e300",
         "checkpoint-params-list", "checkpoint-param-named-empty",
         "checkpoint-nan", "checkpoint-token-dim-17.5", "checkpoint-steps-true",
         "checkpoint-steps-minus-5", "checkpoint-steps-2.9", "checkpoint-hidden-str",
         "checkpoint-seed-1e300", "checkpoint-depth-1e308", "checkpoint-empty-bias",
         "occupancy-index-1e308", "heatmap-position-1e308", "heatmap-positions-half-cell",
         "heatmap-resolution-8.5", "heatmap-logits-str-false", "heatmap-logits-true",
         "heatmap-logits-0", "occupancy-half-cell", "occupancy-resolution-8.5",
         "occupancy-resolution-str", "occupancy-object-id-other", "occupancy-object-id-int",
         "heatmap-object-id-list", "heatmap-query-int"],
)
# A warning from numpy would print more lines before the message, so
# warnings fail these runs instead of being collected by pytest.
@pytest.mark.filterwarnings("error")
def test_corrupted_artifact_exits_3_or_4(walk, tmp_path, capsys, artifact, mutate, code):
    assert _run_corrupted(walk, tmp_path, artifact, mutate) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("made", [4, 16])
def test_occupancy_file_made_at_another_resolution_exits_2(walk, tmp_path, capsys, made):
    # The walkthrough runs at resolution 8.
    assert _run_corrupted(walk, tmp_path, "occupancy", _replaced(("resolution",), made)) == 2
    err = capsys.readouterr().err
    assert f"recon.json was reconstructed at resolution {made}, the run has 8" in err
    assert len(err.strip().splitlines()) == 1


def test_occupancy_file_without_a_resolution_loads(walk, tmp_path):
    assert _run_corrupted(walk, tmp_path, "occupancy", _dropped(("resolution",))) == 0
    heat = json.loads((tmp_path / "out").read_text())["heatmap"]
    assert heat == json.loads((walk / WALK_FILES["heatmap"]).read_text())["heatmap"]


def test_occupancy_file_without_an_object_id_loads(walk, tmp_path):
    assert _run_corrupted(walk, tmp_path, "occupancy", _dropped(("object_id",))) == 0
    heat = json.loads((tmp_path / "out").read_text())["heatmap"]
    assert heat == json.loads((walk / WALK_FILES["heatmap"]).read_text())["heatmap"]


def test_occupancy_file_of_another_object_is_named(walk, tmp_path, capsys):
    recon = json.loads((walk / WALK_FILES["occupancy"]).read_text())
    assert _run_corrupted(walk, tmp_path, "occupancy", _replaced(("object_id",), "mug-000000")) == 3
    err = capsys.readouterr().err
    assert f"recon.json was reconstructed from mug-000000, the object is {recon['object_id']}" in err


def test_empty_reconstruction_grounds_to_the_empty_heatmap_and_scores(walk, tmp_path):
    assert _run_corrupted(walk, tmp_path, "occupancy", _replaced(("occupied",), [])) == 0
    heat = json.loads((tmp_path / "out").read_text())["heatmap"]
    assert heat["positions"] == [] and heat["values"] == []
    csv_path = tmp_path / "eval.csv"
    assert cli.main(["eval", "--pred", str(tmp_path / "out"), "--gt", str(walk / WALK_FILES["truth"]),
                     "--out", str(csv_path)]) == 0
    row = _read_csv(csv_path)[0]
    assert float(row["aiou"]) == 0.0
    assert row["acd"] == "NA" and int(row["acd_excluded"]) == 5


@pytest.mark.parametrize(
    "artifact, mutate, named",
    [
        ("manifest", _dropped(("hashes", "object_0001.json")), "no hash for object_0001.json"),
        ("scene@train", _Stale(SCENE_EDIT), "object_0001.json does not match"),
        ("table@train", _Stale(TABLE_EDIT), "queries.json does not match"),
    ],
    ids=["no-hash", "scene-edited", "table-edited"],
)
def test_dataset_file_off_its_manifest_hash_is_named(walk, tmp_path, capsys, artifact, mutate, named):
    assert _run_corrupted(walk, tmp_path, artifact, mutate) == 3
    err = capsys.readouterr().err
    assert named in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("artifact, mutate", [("scene@train", SCENE_EDIT), ("table@train", TABLE_EDIT)],
                         ids=["scene", "table"])
def test_edited_dataset_file_with_its_new_hash_trains(walk, tmp_path, artifact, mutate):
    # The edits that a stale hash refuses are valid data.
    assert _run_corrupted(walk, tmp_path, artifact, mutate) == 0


@pytest.mark.parametrize("value", [1e308, -1e308])
@pytest.mark.filterwarnings("error")
def test_huge_first_layer_weight_saturates_without_a_warning(walk, tmp_path, capsys, value):
    # The weight on the noisy latent overflows the first layer's sum, and
    # its tanh saturates, as it does for any large enough weight.
    assert _run_corrupted(walk, tmp_path, "structure", _replaced(("params", "W0", 0, 0), value)) == 0
    assert capsys.readouterr().err == ""


def _json_paths(node, prefix=()):
    """Every item's path in a JSON record: every dict key, the first entry
    of each list."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:1])
    else:
        items = ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


@pytest.mark.filterwarnings("error")
def test_seeded_corruptions_never_end_in_a_traceback(walk, tmp_path, capsys):
    # One artifact item at a time becomes a value of the wrong type or
    # range; a corruption may happen to be valid, so exit 0 is allowed.
    junk = [None, 5, -1, 0, "", "x", [], {}, [1], [[1]], True, 1e308, {"a": 1},
            -1e308, 2**70, 0.5, [1, 2, 3], "nan"]
    rng = np.random.default_rng(0)
    for artifact in sorted(READERS):
        record = json.loads((walk / WALK_FILES[artifact]).read_text())
        for i, path in enumerate(_json_paths(record)):
            value = junk[int(rng.integers(len(junk)))]
            case = tmp_path / f"{artifact}-{i}"
            rc = _run_corrupted(walk, case, artifact, _replaced(path, value))
            err = capsys.readouterr().err
            assert rc in (0, 2, 3, 4), (artifact, path, value, err)
            assert "Traceback" not in err, (artifact, path, value)
            # A refusal is one line; a run that succeeds writes nothing.
            assert len(err.strip().splitlines()) == (rc != 0), (artifact, path, value, err)


def _model_argv(ws, command, out):
    obj = str(ws.data / "object_0001.json")
    query = ["--query", "strike a nail"]
    return {
        "reconstruct": ["reconstruct", "--model", ws.structure, "--object", obj],
        "ground": ["ground", "--model", ws.affordance, "--object", obj, *query],
        "ground-truth": ["ground", "--ground-truth", "--object", obj, *query],
        "plan": ["plan", "--structure", ws.structure, "--affordance", ws.affordance,
                 "--object", obj, *query],
        "bench-views": ["bench", "--suite", "views_vs_iou", "--dataset", str(ws.data),
                        "--structure-single", ws.structure, "--structure-multi", ws.structure],
        "bench-strategy": ["bench", "--suite", "strategy_vs_aiou", "--dataset", str(ws.data),
                           "--structure", ws.structure, "--affordance", ws.affordance],
    }[command] + ["--out", str(out)]


@pytest.mark.parametrize("field", ["resolution", "channels"])
@pytest.mark.parametrize(
    "command", ["reconstruct", "ground", "plan", "bench-views", "bench-strategy"]
)
def test_checkpoint_trained_for_another_run_exits_2(ws, tmp_path, capsys, command, field):
    # The checkpoints were trained at resolution 8 with 16 channels.
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY, field: 12}))
    out = tmp_path / "out"
    assert cli.main(_model_argv(ws, command, out) + ["--config", str(other)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and field in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("ground-truth", "--model"),
        ("ground-truth", "--occupancy"),
        ("bench-views", "--structure"),
        ("bench-views", "--affordance"),
        ("bench-views", "--budget"),
        ("bench-strategy", "--structure-single"),
        ("bench-strategy", "--structure-multi"),
    ],
)
def test_flag_the_command_does_not_read_exits_2(ws, tmp_path, capsys, command, flag):
    # The named file does not exist: the flag is refused before it is read.
    value = "2" if flag == "--budget" else str(tmp_path / "nope.json")
    out = tmp_path / "out"
    assert cli.main(_model_argv(ws, command, out) + [flag, value, "--config", ws.config]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and flag in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_checkpoint_without_trainer_record_loads_under_any_run(ws, tmp_path):
    data = json.loads(open(ws.structure).read())
    del data["trainer"]
    bare = tmp_path / "bare.model.json"
    bare.write_text(json.dumps(data))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY, "resolution": 6}))
    out = tmp_path / "recon.json"
    rc = cli.main(["reconstruct", "--model", str(bare), "--object",
                   str(ws.data / "object_0000.json"), "--config", str(other), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["resolution"] == 6


def test_train_records_the_checkpoint_kind(ws):
    for kind in ("structure", "affordance"):
        assert json.loads(open(getattr(ws, kind)).read())["kind"] == kind


@pytest.mark.parametrize(
    "command", ["reconstruct", "ground", "plan", "bench-views", "bench-strategy"]
)
def test_checkpoint_of_the_wrong_kind_exits_2(ws, tmp_path, capsys, command):
    # Both kinds share token and condition widths, so only the recorded
    # kind tells a structure checkpoint from an affordance one.
    swap = {ws.structure: ws.affordance, ws.affordance: ws.structure}
    out = tmp_path / "out"
    argv = [swap.get(arg, arg) for arg in _model_argv(ws, command, out)]
    assert cli.main(argv + ["--config", ws.config]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "checkpoint" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["reconstruct", "ground", "plan", "bench-views", "bench-strategy"]
)
def test_zero_step_checkpoint_exits_3(ws, tmp_path, capsys, command):
    untrained = {}
    for path in (ws.structure, ws.affordance):
        data = json.loads(open(path).read())
        data["steps_trained"] = 0
        untrained[path] = tmp_path / pathlib.Path(path).name
        untrained[path].write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = [str(untrained.get(arg, arg)) for arg in _model_argv(ws, command, out)]
    assert cli.main(argv + ["--config", ws.config]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "no training steps" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_checkpoint_without_kind_loads_as_either_kind(ws, tmp_path):
    data = json.loads(open(ws.affordance).read())
    del data["kind"]
    bare = tmp_path / "bare.model.json"
    bare.write_text(json.dumps(data))
    out = tmp_path / "recon.json"
    rc = cli.main(["reconstruct", "--model", str(bare), "--object",
                   str(ws.data / "object_0000.json"), "--config", ws.config, "--out", str(out)])
    assert rc == 0


def test_seed_flag_overrides_trainer_seed_and_is_echoed(ws, tmp_path):
    out = tmp_path / "recon.json"
    rc = cli.main(["reconstruct", "--model", ws.structure,
                   "--object", str(ws.data / "object_0000.json"), "--seed", "42",
                   "--config", ws.config, "--out", str(out)])
    assert rc == 0
    echo = json.loads(out.read_text())["config"]
    assert echo["run"]["seed"] == 42
    assert echo["run"]["trainer"]["seed"] == 42


def test_run_config_round_trip_and_validation():
    for config in ({}, TINY):
        run = cli.run_config_from_dict(config)
        assert cli.run_config_from_dict(run.to_dict()) == run
    run = cli.run_config_from_dict(TINY)
    assert run.n_candidates == 6
    assert run.trainer.view_range == (1, 2)
    assert run.structure_flow.noise_scale == 1.0
    assert run.affordance_train_flow.noise_scale == 5.0
    with pytest.raises(Exception) as err:
        cli.run_config_from_dict({"strategy": "spiral"})
    assert "strategy" in str(err.value)


#: The README walkthrough at the ``TINY`` sizes: each command, and the file
#: that echoes its run config.
ECHOED = [
    (["gen-dataset", "--count", "2", "--seed", "0", "--out", "data"], "data/manifest.json"),
    *((["train", "--kind", kind, "--dataset", "data", "--out", "ckpt"], f"ckpt/{kind}.config.json")
      for kind in ("structure", "affordance")),
    (["reconstruct", "--model", "ckpt/structure.model.json", "--object", "data/object_0000.json",
      "--views", "2", "--out", "recon.json"], "recon.json"),
    (["ground", "--model", "ckpt/affordance.model.json", "--object", "data/object_0000.json",
      "--query", "grasp the handle", "--occupancy", "recon.json", "--out", "heat.json"], "heat.json"),
    (["ground", "--ground-truth", "--object", "data/object_0000.json", "--query", "grasp the handle",
      "--out", "truth.json"], "truth.json"),
    *((["plan", "--structure", "ckpt/structure.model.json",
        "--affordance", "ckpt/affordance.model.json", "--object", "data/object_0001.json",
        "--query", "strike a nail", "--budget", "3", "--strategy", strategy, "--seed", "3",
        "--out", f"plan_{strategy}"], f"plan_{strategy}/trace.json")
      for strategy in ("active", "random", "sequential")),
    (["bench", "--suite", "views_vs_iou", "--dataset", "data",
      "--structure-single", "ckpt/structure.model.json",
      "--structure-multi", "ckpt/structure.model.json", "--out", "views.csv"], "views.config.json"),
    (["bench", "--suite", "strategy_vs_aiou", "--dataset", "data",
      "--structure", "ckpt/structure.model.json", "--affordance", "ckpt/affordance.model.json",
      "--budget", "1", "--out", "strategies.csv"], "strategies.config.json"),
    (["eval", "--pred", "heat.json", "--gt", "truth.json", "--out", "scores.csv"], "scores.config.json"),
]


def test_every_echo_replays_its_run(tmp_path, monkeypatch):
    # Each command runs again with its echoed run as --config and without
    # the flags that override run fields; every artifact is the same bytes.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    monkeypatch.chdir(first)
    for argv, _ in ECHOED:
        assert cli.main(argv + ["--config", str(config)]) == 0, argv
    monkeypatch.chdir(again)
    run_fields = ("--seed", "--budget", "--strategy")
    for i, (argv, echoed) in enumerate(ECHOED):
        record = json.loads((first / echoed).read_text())
        echo = tmp_path / f"echo{i}.json"
        echo.write_text(json.dumps(record.get("config", record)["run"]))
        kept = [a for prev, a in zip([None, *argv], argv)
                if a not in run_fields and prev not in run_fields]
        assert cli.main(kept + ["--config", str(echo)]) == 0, argv
    wrote = [{p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
             for root in (first, again)]
    assert sorted(wrote[0]) == sorted(wrote[1])
    assert [name for name in wrote[0] if wrote[0][name] != wrote[1][name]] == []


# --- README in step with the CLI ---------------------------------------------------

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_config_example_parses():
    section = README.split("### Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    run = cli.run_config_from_dict(json.loads(example))
    assert run.seed == 7 and run.trainer.steps == 2000


def test_readme_common_flags_match_the_shared_parser():
    sentence = re.search(r"All accept (.*?)\.\s", README, re.DOTALL).group(1)
    documented = set(re.findall(r"`(--[a-z-]+)", sentence))
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    shared = set.intersection(
        *({o for a in p._actions for o in a.option_strings} for p in sub.choices.values())
    )
    assert documented == shared - {"-h", "--help"}
