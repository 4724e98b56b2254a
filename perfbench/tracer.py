"""Span tracer that wraps voxaff's public functions from outside the program.

Each wrapped call records a span (name, start, end, parent, op) in memory,
plus counts taken from its arguments and result.  ``netcore`` and
``pipeline`` import ``render_views``, ``forward``, ``backproject_view`` and
others by name, so a function is replaced in every ``voxaff.*`` namespace
that holds the original object, not only in the module that defines it.

A layer's self time is its span's duration minus the time its direct child
spans cover.  Calls run on one thread and children nest strictly, so the
children of a span never overlap and their durations simply add.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager

import numpy as np


def _rays(view) -> int:
    return view.intrinsics.width * view.intrinsics.height


def _matmul_flop(model, tokens: int) -> float:
    """Multiply-add flops of one forward pass: 2 * tokens * sum of weight sizes."""
    weights = sum(p.size for name, p in model.params.items() if name.startswith("W"))
    return 2.0 * tokens * weights


def _count_render_views(args, kwargs, result):
    depth, _ = result
    return {"rays": _rays(args[1]), "hits": int(np.count_nonzero(depth.values > 0))}


def _count_render_affordance(args, kwargs, result):
    # The render returns first-hit heat only, not depth, so this counts the
    # pixels whose first occupied cell carries heat > 0.
    return {"rays": _rays(args[2]), "heated": int(np.count_nonzero(result.values > 0))}


def _count_surface_features(args, kwargs, result):
    return {"points": int(np.atleast_2d(args[1]).shape[0])}


def _count_backproject(args, kwargs, result):
    depth = np.asarray(args[0])
    return {"pixels_in": int(np.count_nonzero(depth > 0)), "voxels_out": len(result)}


def _count_fuse(args, kwargs, result):
    return {"voxels_out": len(result)}


def _count_forward(args, kwargs, result):
    tokens = int(np.atleast_2d(args[1]).shape[0])
    return {"tokens": tokens, "gflop": _matmul_flop(args[0], tokens) / 1e9}


def _count_backward(args, kwargs, result):
    # One forward pass, then for every weight matrix a gradient product and
    # a delta product of the same size: three times the forward flops.
    tokens = int(np.atleast_2d(args[2][0]).shape[0])
    return {"tokens": tokens, "gflop": 3.0 * _matmul_flop(args[0], tokens) / 1e9}


def _count_euler(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"steps": config.steps}


def _count_reconstruct(args, kwargs, result):
    return {"empty": int(result.shape[0] == 0)}


def _count_ground(args, kwargs, result):
    return {"tokens": len(result)}


def _count_select(args, kwargs, result):
    return {"candidates_scored": len(result.scores)}


def _count_iou(args, kwargs, result):
    # |a| + |b| = |a & b| + |a | b| and IoU = |a & b| / |a | b| for the index
    # sets here (no repeated rows), so the union follows from the result.
    sizes = sum(len(np.asarray(x).reshape(-1, 3)) for x in args[:2])
    return {"union_voxels": round(sizes / (1.0 + result))}


def _count_aiou(args, kwargs, result):
    return {"excluded": result.excluded}


#: Traced functions as ``module.function`` -> counter(args, kwargs, result).
LAYERS = {
    "render.render_views": _count_render_views,
    "render.render_affordance": _count_render_affordance,
    "synthscene.ground_truth_occupancy": None,
    "synthscene.surface_features": _count_surface_features,
    "synthscene.ground_truth_affordance": None,
    "voxel.backproject_view": _count_backproject,
    "voxel.fuse": _count_fuse,
    "geometry.unproject_pixels": None,
    "netcore.forward": _count_forward,
    "netcore.backward": _count_backward,
    "netcore.adam_update": None,
    "netcore.train_structure": None,
    "netcore.train_affordance": None,
    "flow.euler_sample": _count_euler,
    "pipeline.reconstruct": _count_reconstruct,
    "pipeline.ground": _count_ground,
    "pipeline.select_next_view": _count_select,
    "pipeline.worst_initial_view": None,
    "pipeline.active_loop": None,
    "metrics.volumetric_iou": _count_iou,
    "metrics.aiou_acd": _count_aiou,
}

#: Counts reported per layer, in addition to calls, busy_s and self_s.
#: ``hit_frac`` and ``heat_frac`` are the raw ``hits`` and ``heated`` counts
#: over ``rays``.
LAYER_COUNTS = {
    "render.render_views": ("rays", "hit_frac"),
    "render.render_affordance": ("rays", "heat_frac"),
    "synthscene.surface_features": ("points",),
    "voxel.backproject_view": ("pixels_in", "voxels_out"),
    "voxel.fuse": ("voxels_out",),
    "netcore.forward": ("tokens", "gflop"),
    "netcore.backward": ("tokens", "gflop"),
    "flow.euler_sample": ("steps",),
    "pipeline.reconstruct": ("empty",),
    "pipeline.ground": ("tokens",),
    "pipeline.select_next_view": ("candidates_scored",),
    "metrics.volumetric_iou": ("union_voxels",),
    "metrics.aiou_acd": ("excluded",),
}


#: Fraction count -> the raw count it divides by ``rays``.
FRACTIONS = {"hit_frac": "hits", "heat_frac": "heated"}


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, parent, op, start, end, counts]`` rows; a
    row's index is its span id and ``parent`` is -1 at the root.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        """A span around benchmark code; ``op`` tags it and every span under it."""
        if op is not None:
            self.op = op
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                self.spans[sid][5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-name calls, busy and self seconds, and summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for sid, (name, _, _, start, end, counts) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out


def _voxaff_modules() -> list:
    import voxaff

    for info in pkgutil.iter_modules(voxaff.__path__):
        importlib.import_module(f"voxaff.{info.name}")
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "voxaff" or name.startswith("voxaff."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in ``LAYERS`` wherever voxaff holds it; undo on exit.

    Yields ``{layer: number of namespaces patched}``.
    """
    modules = _voxaff_modules()
    patched = []
    coverage = {}
    try:
        for layer, counter in LAYERS.items():
            module_name, attr = layer.split(".")
            original = getattr(importlib.import_module(f"voxaff.{module_name}"), attr)
            wrapper = tracer.wrap(layer, original, counter)
            coverage[layer] = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
                        coverage[layer] += 1
        yield coverage
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def layer_metrics(summary: dict) -> dict:
    """Flat ``layer.field`` metrics for every traced layer, 0 when never called."""
    out = {}
    for layer in LAYERS:
        entry = summary.get(layer, {})
        out[f"{layer}.calls"] = entry.get("calls", 0)
        out[f"{layer}.busy_s"] = entry.get("busy_s", 0.0)
        out[f"{layer}.self_s"] = entry.get("self_s", 0.0)
        for count in LAYER_COUNTS.get(layer, ()):
            if count in FRACTIONS:
                rays = entry.get("rays", 0)
                out[f"{layer}.{count}"] = entry.get(FRACTIONS[count], 0) / rays if rays else 0.0
            else:
                out[f"{layer}.{count}"] = entry.get(count, 0)
    return out


def unit_of(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    return {"hit_frac": "ratio", "heat_frac": "ratio", "overhead_frac": "ratio",
            "gflop": "GFLOP"}.get(field, "count")


def per_layer_spec() -> list:
    """The ``per_layer`` entries of BENCHMARK.json, in report order."""
    names = list(layer_metrics({})) + ["trace.overhead_frac", "trace.ops"]
    return [{"name": n, "unit": unit_of(n),
             "better": "higher" if n.rsplit(".", 1)[1] in FRACTIONS else "lower"} for n in names]
