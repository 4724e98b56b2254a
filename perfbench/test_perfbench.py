"""Self-checks of the benchmark: tracer coverage, span predictions, digests.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload's first operation runs once untraced and once traced (about
20 s in all); the traced spans must fire on the layers each workload is
predicted to exercise and stay silent where the prediction is zero calls.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from env import ROOT, pin_threads  # noqa: E402

pin_threads()

import pytest  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Layers each workload's operation must call, and layers it must not call.
FIRES = {
    "train": {"render.render_views", "synthscene.ground_truth_occupancy",
              "synthscene.surface_features", "synthscene.ground_truth_affordance",
              "voxel.backproject_view", "voxel.fuse", "geometry.unproject_pixels",
              "netcore.backward", "netcore.adam_update", "netcore.train_structure",
              "netcore.train_affordance"},
    "plan": {"render.render_views", "render.render_affordance",
             "synthscene.ground_truth_occupancy", "synthscene.surface_features",
             "synthscene.ground_truth_affordance", "voxel.backproject_view", "voxel.fuse",
             "geometry.unproject_pixels", "netcore.forward", "flow.euler_sample",
             "pipeline.reconstruct", "pipeline.ground", "pipeline.select_next_view",
             "pipeline.worst_initial_view", "pipeline.active_loop",
             "metrics.volumetric_iou", "metrics.aiou_acd"},
    "perceive": {"voxel.backproject_view", "voxel.fuse", "geometry.unproject_pixels",
                 "netcore.forward", "flow.euler_sample", "pipeline.reconstruct",
                 "pipeline.ground", "metrics.volumetric_iou", "metrics.aiou_acd"},
}
SILENT = {
    "train": {"render.render_affordance", "pipeline.reconstruct", "pipeline.select_next_view",
              "flow.euler_sample"},
    "plan": {"netcore.backward", "netcore.adam_update", "netcore.train_structure"},
    "perceive": {"render.render_views", "render.render_affordance", "netcore.backward",
                 "synthscene.surface_features", "pipeline.select_next_view",
                 "pipeline.active_loop"},
}
#: The layer with the largest self time in each workload.
LEADER = {"train": "render.render_views", "plan": "render.render_affordance",
          "perceive": "netcore.forward"}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_op(request):
    """(name, untraced digest, traced digest, tracer summary) for op 0."""
    name = request.param
    workload = WORKLOADS[name](seed=0)
    plain = workload.op(0).digest
    tr = tracing.Tracer()
    with tracing.installed(tr):
        with tr.span(f"op.{name}", op=0):
            traced = workload.op(0).digest
    return name, plain, traced, tr.summary()


def test_every_namespace_holding_a_layer_is_patched():
    import voxaff.netcore
    import voxaff.pipeline
    import voxaff.render

    original = voxaff.render.render_views
    with tracing.installed(tracing.Tracer()) as coverage:
        for module in (voxaff.render, voxaff.netcore, voxaff.pipeline):
            assert module.render_views is not original
        assert voxaff.pipeline.forward is not voxaff.netcore.forward.__wrapped__
    assert voxaff.render.render_views is original
    assert voxaff.pipeline.render_views is original
    assert all(count >= 1 for count in coverage.values()), coverage
    assert coverage["render.render_views"] >= 3
    assert coverage["voxel.backproject_view"] >= 3
    assert coverage["netcore.forward"] >= 2


def test_traced_run_reproduces_untraced_digest(traced_op):
    _, plain, traced, _ = traced_op
    assert plain == traced


def test_spans_fire_where_predicted(traced_op):
    name, _, _, summary = traced_op
    called = {layer for layer, entry in summary.items() if entry["calls"]}
    assert FIRES[name] <= called, FIRES[name] - called
    assert not SILENT[name] & called, SILENT[name] & called


def test_largest_self_time(traced_op):
    name, _, _, summary = traced_op
    layers = {k: v["self_s"] for k, v in summary.items() if not k.startswith("op.")}
    assert max(layers, key=layers.get) == LEADER[name], sorted(layers.items(), key=lambda kv: -kv[1])[:3]


def test_self_times_add_up(traced_op):
    _, _, _, summary = traced_op
    op = next(v for k, v in summary.items() if k.startswith("op."))
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(op["busy_s"], rel=1e-9)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS, key=list(FIRES).index)


def test_refuses_to_run_without_the_program():
    # A directory holding only BENCHMARK.json and perfbench/, kept inside the checkout.
    only = HERE / "out" / "benchmark-only"
    shutil.rmtree(only, ignore_errors=True)
    only.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", only)
    shutil.copytree(HERE, only / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=only, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
