"""Float32 sampling against a float64 reference, query by query.

    python3 tools/precision.py [--objects 20] [--resolutions 8,16] [--views 3] [--seed 0]

For every query of ``--objects`` generated objects (``generate_object(1000)``
onwards) and at every resolution, it renders ``--views`` seeded hemisphere
candidates at 128^2 and runs ``reconstruct`` and then ``ground`` on the
reconstruction twice, from the same generator seed:

* the production path: ``pipeline`` samples a float32 copy of the committed
  perfbench models (``perfbench/models/r<r>_<kind>.model.json``, read only);
* a float64 reference: ``pipeline._guided_velocity`` on the float64 weights,
  passed to ``reconstruct`` and ``ground`` through the callable seam of
  ``pipeline._velocity_for``.

Per resolution it prints how many occupancy sets are equal (and names each
query whose sets differ; its heatmaps are not compared), the largest
|p32 - p64| over the heat values, how many voxels cross each level of
``AFFORDANCE_THRESHOLDS`` between the two, and how close a reference value
came to a level.  It exits 0; it measures and does not gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from voxaff import pipeline  # noqa: E402
from voxaff.metrics import AFFORDANCE_THRESHOLDS  # noqa: E402
from voxaff.netcore import PE_DIM, load_model  # noqa: E402
from voxaff.render import render_views  # noqa: E402
from voxaff.synthscene import default_query_table, generate_object  # noqa: E402
from voxaff.voxel import encode_positions, pooled_condition, position_codes  # noqa: E402

CHANNELS = 16


def reference_sample(views, query, models, config, rng, table):
    """``reconstruct`` and then ``ground`` through the float64 closure."""
    r = config.resolution
    cond = pooled_condition(pipeline.fuse_observations(views, r))
    flow = config.structure_flow
    pe = position_codes(r, PE_DIM)
    velocity = pipeline._guided_velocity(models.structure, cond, pe, flow.guidance_strength)
    occ = pipeline.reconstruct(views, velocity, r, flow, rng)
    flow = config.affordance_flow
    cond, pe = table.embedding_of(query), encode_positions(occ, r, PE_DIM)
    velocity = pipeline._guided_velocity(models.affordance, cond, pe, flow.guidance_strength)
    return occ, pipeline.ground(occ, query, velocity, r, flow, rng, table)


def production_sample(views, query, models, config, rng, table):
    """``reconstruct`` and then ``ground`` as every command runs them."""
    r = config.resolution
    occ = pipeline.reconstruct(views, models.structure, r, config.structure_flow, rng)
    return occ, pipeline.ground(occ, query, models.affordance, r, config.affordance_flow, rng, table)


def probe(r: int, n_objects: int, n_views: int, seed: int) -> None:
    models = pipeline.StageModels(*(
        load_model(ROOT / "perfbench" / "models" / f"r{r}_{kind}.model.json", r, CHANNELS, kind)
        for kind in ("structure", "affordance")
    ))
    config = pipeline.PipelineConfig(resolution=r, channels=CHANNELS)
    table = default_query_table(CHANNELS)
    candidates = config.candidates()
    queries = equal = values = 0
    largest, closest = 0.0, np.inf
    flips = dict.fromkeys(AFFORDANCE_THRESHOLDS, 0)
    for i in range(n_objects):
        obj = generate_object(1000 + i)
        picks = np.random.default_rng([seed, r, i]).choice(len(candidates), n_views, replace=False)
        views = [(*render_views(obj, candidates[k], r, CHANNELS), candidates[k]) for k in picks]
        for j, query in enumerate(table.queries_for(obj)):
            occ32, heat32 = production_sample(
                views, query, models, config, np.random.default_rng([seed, r, i, j]), table
            )
            occ64, heat64 = reference_sample(
                views, query, models, config, np.random.default_rng([seed, r, i, j]), table
            )
            queries += 1
            if not np.array_equal(occ32, occ64):
                print(f"r={r} object {1000 + i} {query!r}: occupancy sets differ "
                      f"({occ32.shape[0]} against {occ64.shape[0]} voxels)")
                continue
            equal += 1
            p32, p64 = heat32.values, heat64.values
            values += p64.size
            largest = max(largest, float(np.abs(p32 - p64).max(initial=0.0)))
            for level in AFFORDANCE_THRESHOLDS:
                flips[level] += int(np.count_nonzero((p32 >= level) != (p64 >= level)))
                closest = min(closest, float(np.abs(p64 - level).min(initial=np.inf)))
    print(f"r={r}: {n_objects} objects, {queries} queries; equal occupancy sets {equal}/{queries}; "
          f"largest |dp| {largest:.3g} over {values} heat values; closest reference value "
          f"{closest:.3g} from a level")
    print(f"r={r}: threshold flips " + ", ".join(f"{level}: {n}" for level, n in flips.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--objects", type=int, default=20, help="objects per resolution")
    parser.add_argument("--resolutions", default="8,16", help="comma-separated grid resolutions")
    parser.add_argument("--views", type=int, default=3, help="observed views per object")
    parser.add_argument("--seed", type=int, default=0, help="seed of the view picks and samplers")
    args = parser.parse_args(argv)
    if args.objects < 1 or args.views < 1:
        parser.error("--objects and --views must be at least 1")
    for r in (int(text) for text in args.resolutions.split(",")):
        probe(r, args.objects, args.views, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
