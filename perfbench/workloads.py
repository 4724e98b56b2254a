"""The three workloads: what each sets up, what one operation does, and
the invariants every output must satisfy.

A workload is built from its seed (set-up), then driven closed loop by
``run.py``: operation ``i`` is a pure function of (seed, i), so the timed
and the traced phase can replay the same operations and compare digests.
Each operation returns timing samples, a digest of everything it produced,
and quality figures for the report.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Layers are called through their modules, so the tracer's patches apply.
from voxaff import metrics, netcore, pipeline, render, synthscene
from voxaff.netcore import TrainerConfig
from voxaff.pipeline import STRATEGIES, PipelineConfig
from voxaff.synthscene import default_query_table, generate_object
from voxaff.voxel import AffordanceHeatmap

from inputs import load_models, object_seeds


class CheckFailed(AssertionError):
    """An output broke an invariant of the operation that produced it."""


def check(condition, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass
class OpResult:
    #: (sample kind, seconds) pairs; a kind is one timed quantity.
    samples: list
    digest: str
    quality: dict = field(default_factory=dict)


class Digest:
    """sha256 over arrays and JSON values, fed in a fixed order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(str((item.dtype.str, item.shape)).encode())
                self._h.update(np.ascontiguousarray(item).tobytes())
            else:
                self._h.update(json.dumps(item, sort_keys=True).encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def check_index_set(occ: np.ndarray, r: int, what: str):
    """Sorted (x-major lexicographic), unique, in-range (n, 3) integer indices."""
    check(occ.ndim == 2 and occ.shape[1] == 3, f"{what}: shape {occ.shape}")
    check(np.issubdtype(occ.dtype, np.integer), f"{what}: dtype {occ.dtype}")
    if occ.shape[0]:
        check(occ.min() >= 0 and occ.max() < r, f"{what}: index outside [0, {r})")
        flat = (occ[:, 0] * r + occ[:, 1]) * r + occ[:, 2]
        check(np.all(np.diff(flat) > 0), f"{what}: not sorted and unique")


def check_heatmap(heat: AffordanceHeatmap, occ: np.ndarray, r: int, what: str):
    check(heat.resolution == r, f"{what}: resolution {heat.resolution}")
    check(np.array_equal(heat.positions, occ), f"{what}: support differs from occupancy")
    v = heat.values
    check(np.all(np.isfinite(v)) and np.all((v >= 0) & (v <= 1)), f"{what}: values outside [0, 1]")


def check_unit(value, what: str):
    check(np.isfinite(value) and 0.0 <= value <= 1.0, f"{what}: {value} outside [0, 1]")


def percentile(values, q: int) -> float:
    """The median for q = 50, otherwise the nearest-rank q-th percentile."""
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def _mean(quality: dict, key: str) -> str:
    values = quality.get(key, [])
    return f"{statistics.fmean(values):.4f} (n={len(values)})" if values else "-"


# --- train --------------------------------------------------------------------


class Train:
    """``train_structure`` then ``train_affordance`` on seeded objects, r = 8.

    Operation i runs a ``STRUCTURE_STEPS``-step structure fit and an
    ``AFFORDANCE_STEPS``-step affordance fit at the shipped
    ``TrainerConfig`` (64^2 random views, 1-8 views per step) with trainer
    seed ``TRAINER_SEED + i``.  The trainer seed fixes the random views and
    view counts, so the amount of rendering per operation does not depend
    on the workload seed; the seed chooses the objects.
    """

    name = "train"
    #: (sample kind, percentile) behind ``primary_ms`` and ``secondary_ms``.
    PRIMARY = ("train_structure.step", 50)
    SECONDARY = ("train_affordance.step", 50)
    #: Operations behind the metrics; None times every operation of the run.
    TIMED_OPS = None
    N_OBJECTS = 8
    STRUCTURE_STEPS = 10
    AFFORDANCE_STEPS = 200
    TRAINER_SEED = 1000

    def __init__(self, seed: int):
        self.dataset = [generate_object(s) for s in object_seeds(seed, self.N_OBJECTS, stream=1)]
        self.setup_digest = Digest().add([obj.object_id for obj in self.dataset]).hexdigest()

    def warmup(self) -> str:
        return self._fit(structure_steps=2, affordance_steps=20, trainer_seed=0).digest

    def op(self, i: int) -> OpResult:
        return self._fit(self.STRUCTURE_STEPS, self.AFFORDANCE_STEPS, self.TRAINER_SEED + i)

    def _fit(self, structure_steps: int, affordance_steps: int, trainer_seed: int) -> OpResult:
        digest = Digest()
        samples = []
        for kind, trainer, steps in (
            (self.PRIMARY[0], netcore.train_structure, structure_steps),
            (self.SECONDARY[0], netcore.train_affordance, affordance_steps),
        ):
            cfg = TrainerConfig(steps=steps, seed=trainer_seed)
            start = time.perf_counter()
            result = trainer(self.dataset, cfg)
            samples.append((kind, (time.perf_counter() - start) / steps))
            losses = result.losses
            check(losses.shape == (steps,), f"{kind}: {losses.shape[0]} losses for {steps} steps")
            check(np.all(np.isfinite(losses)) and np.all(losses >= 0), f"{kind}: bad loss")
            check(result.model.steps_trained == steps, f"{kind}: steps_trained mismatch")
            params = result.model.params
            for name in sorted(params):
                check(np.all(np.isfinite(params[name])), f"{kind}: parameter {name} not finite")
            digest.add(losses, *(params[name] for name in sorted(params)))
        return OpResult(samples=samples, digest=digest.hexdigest())

    @staticmethod
    def report(samples: dict, quality: dict) -> list:
        s, a = samples["train_structure.step"], samples["train_affordance.step"]
        return [f"train_structure.steps_per_s  = {1 / statistics.median(s):.3f} steps/s (n={len(s)})",
                f"train_affordance.steps_per_s = {1 / statistics.median(a):.3f} steps/s (n={len(a)})"]


# --- plan ---------------------------------------------------------------------


class Plan:
    """The ``bench --suite strategy_vs_aiou`` loop at the shipped config.

    Operation i is one episode: ``worst_initial_view`` over 40 candidates
    at 128^2, then ``active_loop`` at budget 4, r = 8.  It plans template
    i % 4 (mug, hammer, chair, lamp) with strategy i % 3 (``active``,
    ``random``, ``sequential``), so every 12 operations cover each pair
    once, on four fresh objects.  The timed set is the first
    ``TIMED_OPS`` operations: active episodes on the mug, lamp and chair,
    and random or sequential episodes on all four templates.
    """

    name = "plan"
    PRIMARY = ("active.episode", 50)
    SECONDARY = ("baseline.episode", 50)
    TIMED_OPS = 9
    RESOLUTION = 8
    BUDGET = 4
    N_OBJECTS = 64
    N_TEMPLATES = 4

    def __init__(self, seed: int):
        self.models = load_models(self.RESOLUTION)
        self.table = default_query_table(16)
        self.config = PipelineConfig(resolution=self.RESOLUTION)
        self.candidates = self.config.candidates()
        self.objects = [generate_object(s) for s in object_seeds(seed, self.N_OBJECTS, stream=2)]
        self.setup_digest = Digest().add([o.object_id for o in self.objects]).hexdigest()

    def warmup(self) -> str:
        """Each strategy once on a small lattice: 4 candidates at 32^2, budget 2."""
        small = PipelineConfig(resolution=self.RESOLUTION, n_candidates=4, image_size=32)
        digest = Digest()
        for strategy in STRATEGIES:
            digest.add(self._episode(self.objects[0], strategy, small, small.candidates(), 2)[0])
        return digest.hexdigest()

    def op(self, i: int) -> OpResult:
        cycle = i // (self.N_TEMPLATES * len(STRATEGIES))
        obj = self.objects[(cycle * self.N_TEMPLATES + i % self.N_TEMPLATES) % self.N_OBJECTS]
        strategy = STRATEGIES[i % len(STRATEGIES)]
        start = time.perf_counter()
        digest, final_aiou = self._episode(obj, strategy, self.config, self.candidates, self.BUDGET)
        seconds = time.perf_counter() - start
        kind = self.PRIMARY[0] if strategy == "active" else self.SECONDARY[0]
        return OpResult(
            samples=[(kind, seconds)], digest=digest, quality={f"{strategy}.final_aiou": final_aiou}
        )

    def _episode(self, obj, strategy: str, config: PipelineConfig, candidates, budget: int):
        r = config.resolution
        query = self.table.queries_for(obj)[0]
        start = pipeline.worst_initial_view(obj, query, candidates, r, self.table)
        scores = np.array(start.scores)
        check(scores.shape == (len(candidates),), "worst view: one score per candidate")
        check(np.all(np.isfinite(scores)) and np.all(scores >= 0), "worst view: bad score")
        check(start.index == int(np.argmin(scores)), "worst view: index is not the argmin")
        trace = pipeline.active_loop(obj, query, start.viewpoint, budget, strategy, self.models,
                                     config, rng=np.random.default_rng(0), table=self.table)
        check(len(trace.steps) == budget, f"{strategy}: {len(trace.steps)} steps for budget {budget}")
        digest = Digest().add(scores, start.index)
        visited = {start.index}
        for n, step in enumerate(trace.steps):
            check_index_set(step.occupied, r, f"{strategy} step {n} occupancy")
            if step.occupied.shape[0]:
                check_heatmap(step.heatmap, step.occupied, r, f"{strategy} step {n} heatmap")
            for key in ("iou", "aiou"):
                check_unit(step.metrics[key], f"{strategy} step {n} {key}")
            last = n == budget - 1
            chosen = step.selected_index
            if strategy == "active" and not last:
                cand = np.array(step.candidate_scores)
                check(cand.shape == (len(candidates),), "active: one score per candidate")
                check(np.all(np.isfinite(cand)) and np.all(cand >= 0), "active: bad candidate score")
                open_ = [k for k in range(len(candidates)) if k not in visited]
                best = open_[int(np.argmax(cand[open_]))]
                check(chosen == best, f"active step {n}: chose {chosen}, unvisited argmax is {best}")
                digest.add(cand)
            elif strategy == "random" and not last:
                check(chosen is not None and chosen not in visited, f"random step {n}: revisit")
            else:
                check(chosen is None and step.candidate_scores is None,
                      f"{strategy} step {n}: unexpected selection")
            if chosen is not None:
                visited.add(chosen)
            digest.add(step.occupied, step.heatmap.positions, step.heatmap.values, chosen,
                       {k: step.metrics[k] for k in sorted(step.metrics)})
        return digest.hexdigest(), trace.steps[-1].metrics["aiou"]

    @staticmethod
    def report(samples: dict, quality: dict) -> list:
        act, base = samples["active.episode"], samples["baseline.episode"]
        return [f"plan.active_episode_s   = {statistics.median(act):.3f} s (n={len(act)})",
                f"plan.baseline_episode_s = {statistics.median(base):.3f} s (n={len(base)})"] + [
            f"plan.{s}_final_aiou = {_mean(quality, f'{s}.final_aiou')} (mean aIoU at the last view)"
            for s in STRATEGIES]


# --- perceive -----------------------------------------------------------------


class Perceive:
    """Reconstruct + ground + score queries at r = 16 from pre-rendered views.

    Set-up renders ``VIEWS_PER_OBJECT`` observations (128^2) of one object
    per template and computes every ground truth, standing in for a sensor
    stream; the timed path holds no rendering.  Queries come in blocks of
    eight: the view count k runs over a seeded permutation of 1..8, the
    object cycles the templates, and the views and the query are drawn
    from the seed.
    """

    name = "perceive"
    PRIMARY = ("query", 50)
    SECONDARY = ("query", 90)
    TIMED_OPS = None
    RESOLUTION = 16
    VIEWS_PER_OBJECT = 8
    BLOCK = 8

    def __init__(self, seed: int):
        r = self.RESOLUTION
        self.seed = seed
        self.models = load_models(r)
        self.table = default_query_table(16)
        self.config = PipelineConfig(resolution=r)
        candidates = self.config.candidates()
        rng = np.random.default_rng([seed, 3])
        self.objects = [generate_object(s) for s in object_seeds(seed, 4, stream=3)]
        self.observations, self.truth = [], []
        digest = Digest()
        for obj in self.objects:
            picks = rng.choice(len(candidates), size=self.VIEWS_PER_OBJECT, replace=False)
            views = []
            for k in picks:
                depth, feats = render.render_views(obj, candidates[k], r, self.config.channels)
                views.append((depth, feats, candidates[k]))
                digest.add(depth.values, feats)
            self.observations.append(views)
            gt_occ = synthscene.occupied_indices(obj, r)
            gt_heat = {q: synthscene.ground_truth_affordance(obj, q, r, self.table)
                       for q in self.table.queries_for(obj)}
            self.truth.append((gt_occ, gt_heat))
        self.setup_digest = digest.hexdigest()

    def query_spec(self, i: int):
        block, slot = divmod(i, self.BLOCK)
        rng = np.random.default_rng([self.seed, 3, block])
        k = int(rng.permutation(np.arange(1, self.BLOCK + 1))[slot])
        rng = np.random.default_rng([self.seed, 3, block, slot])
        obj = i % len(self.objects)
        picks = np.sort(rng.choice(self.VIEWS_PER_OBJECT, size=k, replace=False))
        queries = sorted(self.truth[obj][1])
        return obj, picks, queries[int(rng.integers(len(queries)))]

    def warmup(self) -> str:
        return self.op(0).digest

    def op(self, i: int) -> OpResult:
        r = self.RESOLUTION
        obj, picks, query = self.query_spec(i)
        gt_occ, gt_heat = self.truth[obj]
        views = [self.observations[obj][p] for p in picks]
        rng = np.random.default_rng([self.seed, 4, i])
        start = time.perf_counter()
        occ = pipeline.reconstruct(views, self.models.structure, r, self.config.structure_flow, rng)
        if occ.shape[0]:
            heat = pipeline.ground(occ, query, self.models.affordance, r, self.config.affordance_flow,
                          rng, self.table)
        else:
            heat = AffordanceHeatmap(resolution=r, positions=occ, values=np.zeros(0))
        iou = metrics.volumetric_iou(occ, gt_occ, r)
        quality = metrics.aiou_acd(heat, gt_heat[query], r)
        seconds = time.perf_counter() - start
        check_index_set(occ, r, "reconstruction")
        check_heatmap(heat, occ, r, "heatmap")
        check_unit(iou, "iou")
        check_unit(quality.aiou, "aiou")
        digest = Digest().add(occ, heat.values, [iou, quality.aiou, quality.excluded])
        return OpResult(samples=[("query", seconds)], digest=digest.hexdigest(),
                        quality={"iou": iou, "aiou": quality.aiou})

    @staticmethod
    def report(samples: dict, quality: dict) -> list:
        q = samples["query"]
        p90 = percentile(q, 90)
        return [f"perceive.query_ms.p50 = {1000 * statistics.median(q):.3f} ms (n={len(q)})",
                f"perceive.query_ms.p90 = {1000 * p90:.3f} ms ({sum(x > p90 for x in q)} above)",
                f"perceive.mean_iou  = {_mean(quality, 'iou')}",
                f"perceive.mean_aiou = {_mean(quality, 'aiou')}"]


WORKLOADS = {cls.name: cls for cls in (Train, Plan, Perceive)}
