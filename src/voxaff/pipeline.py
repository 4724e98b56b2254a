"""End-to-end orchestration: reconstruct, ground, score views, iterate.

The loop mirrors one perception round trip: posed observations are
fused into a sparse conditioned grid, a dense occupancy is sampled from
the structure flow, the affordance flow heats the reconstructed voxels
for a text query, and candidate cameras are ranked by how much heat
they would see.  Three next-view strategies share the loop: ``active``
(argmax of the visibility score), ``random`` (uniform over unvisited
candidates), and ``sequential`` (a fixed circle at 30 degrees elevation
stepping 360/K degrees per view, K = candidate count).

Everything downstream of the rng argument is deterministic, so a trace
is a pure function of (object, query, models, configs, seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CandidatesExhaustedError,
    ConfigError,
    DegenerateQueryError,
    DomainError,
    check_integer,
)
from .flow import FlowConfig, cfg_combine, euler_sample, sigmoid
from .geometry import (
    Viewpoint,
    eval_intrinsics,
    hemisphere_candidates,
    orbit_view,
    viewpoint_to_dict,
)
from .metrics import aiou_acd, volumetric_iou
from .netcore import (
    MAX_CHANNELS,
    MAX_IMAGE_SIZE,
    MAX_RESOLUTION,
    PE_DIM,
    VelocityModel,
    check_size,
    forward,
)
from .render import render_affordance, render_views
from .synthscene import (
    QueryTable,
    SyntheticObject,
    ground_truth_affordance,
)
from .voxel import (
    AffordanceHeatmap,
    as_index_array,
    backproject_view,
    encode_positions,
    fuse,
    heatmap_to_dict,
    pooled_condition,
    position_codes,
)

Array = np.ndarray

STRATEGIES = ("active", "random", "sequential")

#: Elevation of the predetermined circular trajectory.
SEQUENTIAL_ELEVATION = math.radians(30.0)


@dataclass(frozen=True)
class StageModels:
    """The two trained velocity models the pipeline runs."""

    structure: VelocityModel
    affordance: VelocityModel


@dataclass(frozen=True)
class PipelineConfig:
    """Sampling settings and sizes shared across one pipeline run."""

    structure_flow: FlowConfig = FlowConfig.for_structure()
    affordance_flow: FlowConfig = FlowConfig.for_affordance_eval()
    resolution: int = 8
    channels: int = 16
    n_candidates: int = 40
    image_size: int = 128

    def __post_init__(self):
        for name in ("resolution", "channels", "n_candidates", "image_size"):
            check_integer(name, getattr(self, name))
        check_size("resolution", self.resolution, 1, MAX_RESOLUTION)
        check_size("channels", self.channels, 4, MAX_CHANNELS)
        check_size("image_size", self.image_size, 1, MAX_IMAGE_SIZE)
        if self.n_candidates < 1:
            raise ConfigError("candidate count must be positive")

    def candidates(self) -> list[Viewpoint]:
        """The hemisphere candidate cameras, as a new list on every call."""
        return list(_candidate_lattice(self.n_candidates, self.image_size))


@functools.lru_cache(maxsize=8)
def _candidate_lattice(n_candidates: int, image_size: int) -> tuple[Viewpoint, ...]:
    """Built once per size: viewpoints are immutable, so the calls share them."""
    return tuple(hemisphere_candidates(n_candidates, intrinsics=eval_intrinsics(image_size)))


def fuse_observations(views, resolution: int):
    """Backproject and fuse (depth ``Image``, features, viewpoint) observations;
    no views raises ``DomainError``, a ``DataError``."""
    return fuse(backproject_view(d.values, feats, view, resolution) for d, feats, view in views)


def _velocity_for(model, cond: Array, pe: Array, guidance: float):
    """Guided closure of a float32 copy of a model, or a raw velocity
    field as-is.

    The copy is cast here, once per ``reconstruct`` or ``ground`` call:
    about 14 k weights, a few microseconds.  Nothing is cached on the
    model, so a model whose ``params`` change between calls never samples
    stale weights.  A weight beyond float32's range casts to inf and
    saturates its tanh, as an overflowing layer sum does.

    Passing a plain callable ``(x, t) -> v`` in place of a model is the
    oracle hook used by tests and baselines; it skips conditioning.
    """
    if not isinstance(model, VelocityModel):
        return model
    with np.errstate(over="ignore"):
        model = replace(
            model, params={name: p.astype(np.float32) for name, p in model.params.items()}
        )
    return _guided_velocity(model, cond, pe, guidance)


def _guided_velocity(model: VelocityModel, cond: Array, pe: Array, guidance: float):
    """Velocity closure with classifier-free guidance of ``cond`` against
    the zero condition, in the dtype of the model's weights.

    ``_velocity_for`` hands it float32 weights, so the velocities come
    back in float32; ``cfg_combine`` and the Euler state are float64.  The
    closure owns one ``[x | pe]`` token buffer in the weights' dtype: each
    step writes ``x`` into its first column, and both branches read it, so
    ``forward`` never copies or casts the tokens.  A zero ``cond`` is the
    unconditional branch itself, so it runs once and is combined with
    itself, which gives the same floats as running it twice.
    """
    zero = np.zeros(model.cond_dim)
    guided = np.any(cond)
    tokens = np.empty((pe.shape[0], 1 + pe.shape[1]), dtype=model.params["Wout"].dtype)
    tokens[:, 1:] = pe

    def velocity(x, t):
        with np.errstate(over="ignore"):  # x beyond the dtype's range casts to inf
            tokens[:, 0] = x
        v_uncond = forward(model, tokens, zero, t)
        v_cond = forward(model, tokens, cond, t) if guided else v_uncond
        return cfg_combine(v_cond, v_uncond, guidance)

    return velocity


def reconstruct(
    views,
    model: VelocityModel,
    resolution: int,
    flow_cfg: FlowConfig,
    rng: np.random.Generator,
) -> Array:
    """Sample a dense occupancy conditioned on fused observations.

    Returns the sorted (n, 3) occupied index set: voxels whose sampled
    latent exceeds 0.  Views that see nothing pool to the zero condition,
    so only the unconditional branch runs.  No views,
    or a latent that is not finite, raises ``DomainError``.
    """
    cond = pooled_condition(fuse_observations(views, resolution))
    pe = position_codes(resolution, PE_DIM)
    velocity = _velocity_for(model, cond, pe, flow_cfg.guidance_strength)
    latent = euler_sample(velocity, (resolution**3,), flow_cfg, rng)
    if not np.all(np.isfinite(latent)):
        raise DomainError("sampled occupancy latent must be finite")
    # ``argwhere`` walks the [ix, iy, iz] lattice in C order: sorted triples.
    lattice = latent.reshape((resolution,) * 3, order="F") > 0
    return np.argwhere(lattice).astype(np.int64, copy=False)


def ground(
    occupied,
    query: str,
    model: VelocityModel,
    resolution: int,
    flow_cfg: FlowConfig,
    rng: np.random.Generator,
    table: QueryTable,
) -> AffordanceHeatmap:
    """Sample a probability heatmap for ``query`` over occupied voxels.

    Its positions are ``occupied``, sorted.  An empty occupancy grounds to
    the empty heatmap: the sampler runs on zero tokens and draws nothing
    from ``rng``.
    """
    occ = as_index_array(occupied, resolution)
    cond = table.embedding_of(query)
    pe = encode_positions(occ, resolution, PE_DIM)
    velocity = _velocity_for(model, cond, pe, flow_cfg.guidance_strength)
    logits = euler_sample(velocity, (occ.shape[0],), flow_cfg, rng)
    return AffordanceHeatmap(resolution=resolution, positions=occ, values=sigmoid(logits))


# --- view scoring and selection ----------------------------------------------


def _visibility_scores(heat: AffordanceHeatmap, candidates) -> tuple:
    """Total projected heat per candidate: the sum over pixels of its
    affordance render, with the heatmap's positions as the occupancy."""
    r = heat.resolution
    occ = np.zeros((r, r, r), dtype=bool)
    occ[tuple(heat.positions.T)] = True
    return tuple(float(render_affordance(occ, heat, view).values.sum()) for view in candidates)


@dataclass(frozen=True)
class SelectedView:
    """Argmax/argmin outcome plus every candidate's score (for traces)."""

    index: int
    viewpoint: Viewpoint
    scores: tuple


def select_next_view(heat: AffordanceHeatmap, candidates, visited=()) -> SelectedView:
    """Highest-visibility unvisited candidate; ties go to the lowest index.

    The heatmap is the scene: its positions occlude, and its values are
    the heat a camera sees on the first of them that each ray meets.
    """
    visited = set(visited)
    remaining = [i for i in range(len(candidates)) if i not in visited]
    if not remaining:
        raise CandidatesExhaustedError("every candidate view has been visited")
    scores = _visibility_scores(heat, candidates)
    best = max(remaining, key=lambda i: (scores[i], -i))
    return SelectedView(index=best, viewpoint=candidates[best], scores=scores)


def worst_initial_view(
    obj: SyntheticObject,
    query: str,
    candidates,
    resolution: int,
    table: QueryTable,
) -> SelectedView:
    """Candidate seeing the least ground-truth affordance (lowest-index ties).

    This is the adversarial starting pose for the view-planning
    benchmark; a query whose ground-truth mask is empty has no meaningful
    "worst" view and raises ``DegenerateQueryError``.
    """
    heat = ground_truth_affordance(obj, query, resolution, table)
    if not heat.values.any():
        raise DegenerateQueryError(f"query {query!r} has an empty ground-truth mask")
    scores = _visibility_scores(heat, candidates)
    best = min(range(len(candidates)), key=lambda i: (scores[i], i))
    return SelectedView(index=best, viewpoint=candidates[best], scores=scores)


# --- the active loop ----------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    """Record of one loop iteration (pose added, beliefs, quality)."""

    viewpoint: Viewpoint
    occupied: Array  # (n, 3) reconstructed indices
    heatmap: AffordanceHeatmap
    metrics: dict
    candidate_scores: tuple | None  # present when this iteration ran a selection
    selected_index: int | None


@dataclass(frozen=True)
class ViewTrace:
    """Full record of an active/random/sequential view-planning run."""

    object_id: str
    query: str
    strategy: str
    budget: int
    steps: tuple

    def __post_init__(self):
        if len(self.steps) != self.budget:
            raise DomainError(
                f"trace has {len(self.steps)} steps for a budget of {self.budget}"
            )
        object.__setattr__(self, "steps", tuple(self.steps))


def _azimuth_of(view: Viewpoint) -> float:
    t = view.pose.translation
    return math.atan2(t[1], t[0])


def _sequential_view(azimuth: float, intrinsics) -> Viewpoint:
    c, s = math.cos(SEQUENTIAL_ELEVATION), math.sin(SEQUENTIAL_ELEVATION)
    return orbit_view(np.array([c * math.cos(azimuth), c * math.sin(azimuth), s]), intrinsics)


def _matching_candidate(view: Viewpoint, candidates) -> int | None:
    for i, cand in enumerate(candidates):
        if np.allclose(cand.pose.translation, view.pose.translation, atol=1e-12):
            return i
    return None


def active_loop(
    obj: SyntheticObject,
    query: str,
    initial_view: Viewpoint,
    budget: int,
    strategy: str,
    models: StageModels,
    config: PipelineConfig,
    rng: np.random.Generator,
    table: QueryTable,
) -> ViewTrace:
    """Iteratively observe, reconstruct, ground, and pick the next view.

    Each of the ``budget`` iterations records the pose just added, the
    reconstruction and heatmap built from every view so far, and their
    quality against ground truth; all but the last iteration then choose
    the next pose per ``strategy`` and observe the true object from it.
    An empty reconstruction grounds to the empty heatmap, which scores
    every candidate 0.
    """
    if budget < 1:
        raise DomainError("view budget must be at least 1")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r} (expected one of {STRATEGIES})")
    r, channels = config.resolution, config.channels
    candidates = config.candidates()
    gt_heat = ground_truth_affordance(obj, query, r, table)

    observations = [(*render_views(obj, initial_view, r, channels), initial_view)]
    visited = set()
    first = _matching_candidate(initial_view, candidates)
    if first is not None:
        visited.add(first)
    azimuth = _azimuth_of(initial_view)
    steps = []

    for iteration in range(budget):
        occupied = reconstruct(observations, models.structure, r, config.structure_flow, rng)
        heat = ground(occupied, query, models.affordance, r, config.affordance_flow, rng, table)
        quality = aiou_acd(heat, gt_heat, r)
        metrics = {
            "iou": volumetric_iou(occupied, gt_heat.positions, r),
            "aiou": quality.aiou,
            "acd": quality.acd,
            "acd_excluded": quality.excluded,
        }

        candidate_scores = None
        selected_index = None
        next_view = None
        if iteration < budget - 1:
            if strategy == "active":
                choice = select_next_view(heat, candidates, visited)
                candidate_scores = choice.scores
                selected_index = choice.index
                next_view = choice.viewpoint
                visited.add(choice.index)
            elif strategy == "random":
                remaining = [i for i in range(len(candidates)) if i not in visited]
                if not remaining:
                    raise CandidatesExhaustedError("every candidate view has been visited")
                selected_index = int(remaining[int(rng.integers(len(remaining)))])
                next_view = candidates[selected_index]
                visited.add(selected_index)
            else:  # sequential
                azimuth += 2.0 * math.pi / config.n_candidates
                next_view = _sequential_view(azimuth, eval_intrinsics(config.image_size))

        steps.append(
            TraceStep(
                viewpoint=observations[-1][2],
                occupied=occupied,
                heatmap=heat,
                metrics=metrics,
                candidate_scores=candidate_scores,
                selected_index=selected_index,
            )
        )
        if next_view is not None:
            observations.append((*render_views(obj, next_view, r, channels), next_view))

    return ViewTrace(
        object_id=obj.object_id, query=query, strategy=strategy, budget=budget, steps=tuple(steps)
    )


# --- trace serialization -------------------------------------------------------


def trace_to_dict(trace: ViewTrace) -> dict:
    return {
        "object_id": trace.object_id,
        "query": trace.query,
        "strategy": trace.strategy,
        "budget": trace.budget,
        "steps": [
            {
                "viewpoint": viewpoint_to_dict(step.viewpoint),
                "occupied": step.occupied.tolist(),
                "heatmap": heatmap_to_dict(step.heatmap),
                "metrics": step.metrics,
                "candidate_scores": list(step.candidate_scores)
                if step.candidate_scores is not None
                else None,
                "selected_index": step.selected_index,
            }
            for step in trace.steps
        ],
    }
