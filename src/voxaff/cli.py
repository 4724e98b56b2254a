"""Command-line entry point: datasets, training, inference, planning, benchmarks.

Subcommands: gen-dataset, train, reconstruct, ground, plan, bench, eval.
Artifacts are JSON and CSV only, every command is a pure function of
(inputs, config, seed), and reruns produce byte-identical files.  Each
artifact embeds the exact run configuration or gets a ``.config.json``
sidecar.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError, VoxaffError, check_integer
from .flow import FlowConfig
from .geometry import eval_intrinsics, hemisphere_candidates
from .metrics import (
    AFFORDANCE_THRESHOLDS,
    aiou_acd,
    auc,
    mae,
    sim,
    volumetric_iou,
    write_metrics_csv,
)
from .netcore import TrainerConfig, load_model, save_model, train_affordance, train_structure
from .pipeline import (
    STRATEGIES,
    PipelineConfig,
    StageModels,
    active_loop,
    ground,
    reconstruct,
    trace_to_dict,
    worst_initial_view,
)
from .render import render_views
from .synthscene import (
    default_query_table,
    generate_object,
    ground_truth_affordance,
    load_object,
    load_table,
    occupied_indices,
    save_object,
    save_table,
)
from .voxel import _lex_keys, heatmap_from_dict, heatmap_to_dict


@dataclass(frozen=True)
class RunConfig(PipelineConfig):
    """Every knob a command can use, validated up front and echoed to disk.

    The pipeline fields (flows, ``resolution``, ``channels`` and the
    candidate lattice) come from ``PipelineConfig``, so a run config is
    what ``active_loop`` takes.  ``resolution`` and ``channels`` are set
    only at the top level and copied into ``trainer``.  ``--config`` files
    override any subset of the fields; ``--seed`` then replaces both
    ``seed`` and ``trainer.seed`` so one flag reseeds a whole run.
    """

    seed: int = 0
    budget: int = 4
    strategy: str = "active"
    affordance_train_flow: FlowConfig = FlowConfig.for_affordance_training()
    trainer: TrainerConfig = TrainerConfig()

    def __post_init__(self):
        super().__post_init__()
        check_integer("seed", self.seed)
        check_integer("budget", self.budget)
        if not isinstance(self.strategy, str):
            raise ConfigError(f"strategy must be a string, got {self.strategy!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.budget < 1:
            raise ConfigError("budget must be positive")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        trainer = dataclasses.replace(
            self.trainer, resolution=self.resolution, channels=self.channels
        )
        object.__setattr__(self, "trainer", trainer)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_RUN_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_FLOW_FIELDS = ("structure_flow", "affordance_flow", "affordance_train_flow")


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = sorted(set(data) - _RUN_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    kwargs = {}
    try:
        for key, value in data.items():
            if key in _FLOW_FIELDS:
                kwargs[key] = FlowConfig(**value)
            elif key == "trainer":
                fields = dict(value)
                for name in ("resolution", "channels"):
                    if name in fields:
                        raise ConfigError(f"set {name} at the top level, not as trainer.{name}")
                if "view_range" in fields:
                    fields["view_range"] = tuple(fields["view_range"])
                kwargs[key] = TrainerConfig(**fields)
            else:
                kwargs[key] = value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return dataclasses.replace(RunConfig(), **kwargs)


def _resolve_run_config(args) -> RunConfig:
    run = RunConfig()
    if args.config:
        run = run_config_from_dict(_load_json(args.config))
    if args.seed is not None:
        run = dataclasses.replace(
            run,
            seed=args.seed,
            trainer=dataclasses.replace(run.trainer, seed=args.seed),
        )
    return run


# --- small file helpers --------------------------------------------------------


def _write_json(path, payload: dict):
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _hash_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _echo(run: RunConfig, command: str, **extra) -> dict:
    return {"command": command, "run": run.to_dict(), **extra}


def _load_dataset(dataset_dir):
    """Objects, query table, and manifest from a gen-dataset directory."""
    root = pathlib.Path(dataset_dir)
    manifest = _load_json(root / "manifest.json")
    try:
        names = list(manifest["objects"])
        table_name = manifest.get("table", "queries.json")
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed manifest in {root}: {exc}") from exc
    if not all(isinstance(name, str) for name in [*names, table_name]):
        raise DataError(f"malformed manifest in {root}: file names must be strings")
    objects = [load_object(root / name) for name in names]
    table = load_table(root / table_name)
    return objects, table, manifest


def _budget(args, run: RunConfig) -> int:
    """The view budget: ``--budget`` when given, else the run's."""
    budget = args.budget if args.budget is not None else run.budget
    if budget < 1:
        raise ConfigError("budget must be at least 1")
    return budget


def _observe(obj, k: int, run: RunConfig):
    """First k spread-out hemisphere observations of an object."""
    views = hemisphere_candidates(k, intrinsics=eval_intrinsics(run.image_size))
    return [(*render_views(obj, v, run.resolution, run.channels), v) for v in views]


# --- subcommands ----------------------------------------------------------------


def cmd_gen_dataset(args, run: RunConfig) -> int:
    if args.count < 1:
        raise ConfigError("count must be at least 1")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for seed in range(run.seed, run.seed + args.count):
        name = f"object_{seed:04d}.json"
        save_object(out / name, generate_object(seed))
        names.append(name)
    save_table(out / "queries.json", default_query_table(run.channels))
    hashes = {name: _hash_file(out / name) for name in names + ["queries.json"]}
    _write_json(
        out / "manifest.json",
        {
            "count": args.count,
            "seed": run.seed,
            "objects": names,
            "table": "queries.json",
            "hashes": hashes,
            "config": _echo(run, "gen-dataset", count=args.count),
        },
    )
    return 0


def cmd_train(args, run: RunConfig) -> int:
    objects, table, _ = _load_dataset(args.dataset)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "structure":
        result = train_structure(objects, run.trainer, run.structure_flow)
    else:
        result = train_affordance(objects, run.trainer, run.affordance_train_flow, table)
    save_model(out / f"{args.kind}.model.json", result.model, run.trainer, args.kind)
    with open(out / f"{args.kind}.losses.csv", "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(result.losses):
            writer.writerow([step, repr(float(loss))])
    _write_json(out / f"{args.kind}.config.json", _echo(run, "train", kind=args.kind))
    return 0


def cmd_reconstruct(args, run: RunConfig) -> int:
    if args.views < 1:
        raise ConfigError("views must be at least 1")
    obj = load_object(args.object)
    model = load_model(args.model, run.resolution, run.channels, "structure")
    occ = reconstruct(
        _observe(obj, args.views, run),
        model,
        run.resolution,
        run.structure_flow,
        rng=np.random.default_rng(run.seed),
    )
    _write_json(
        args.out,
        {
            "object_id": obj.object_id,
            "resolution": run.resolution,
            "views": args.views,
            "occupied": occ.tolist(),
            "iou_vs_ground_truth": volumetric_iou(
                occ, occupied_indices(obj, run.resolution), run.resolution
            ),
            "config": _echo(run, "reconstruct", views=args.views),
        },
    )
    return 0


def cmd_ground(args, run: RunConfig) -> int:
    obj = load_object(args.object)
    r = run.resolution
    table = load_table(args.table) if args.table else default_query_table(run.channels)
    if args.ground_truth:
        heat = ground_truth_affordance(obj, args.query, r, table)
    else:
        if not args.model:
            raise ConfigError("ground needs --model unless --ground-truth is set")
        if args.occupancy:
            data = _load_json(args.occupancy)
            try:
                occ = np.array(data["occupied"], dtype=np.int64).reshape(-1, 3)
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise DataError(f"malformed occupancy file {args.occupancy}: {exc}") from exc
        else:
            occ = occupied_indices(obj, r)
        heat = ground(
            occ,
            args.query,
            load_model(args.model, run.resolution, run.channels, "affordance"),
            r,
            run.affordance_flow,
            rng=np.random.default_rng(run.seed),
            table=table,
        )
    _write_json(
        args.out,
        {
            "object_id": obj.object_id,
            "query": args.query,
            "heatmap": heatmap_to_dict(heat),
            "config": _echo(run, "ground", query=args.query, ground_truth=args.ground_truth),
        },
    )
    return 0


def cmd_plan(args, run: RunConfig) -> int:
    budget = _budget(args, run)
    strategy = args.strategy if args.strategy is not None else run.strategy
    obj = load_object(args.object)
    table = load_table(args.table) if args.table else default_query_table(run.channels)
    models = StageModels(
        structure=load_model(args.structure, run.resolution, run.channels, "structure"),
        affordance=load_model(args.affordance, run.resolution, run.channels, "affordance"),
    )
    start = worst_initial_view(obj, args.query, run.candidates(), run.resolution, table)
    trace = active_loop(
        obj,
        args.query,
        start.viewpoint,
        budget,
        strategy,
        models,
        run,
        rng=np.random.default_rng(run.seed),
        table=table,
    )
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = _echo(run, "plan", query=args.query, budget=budget, strategy=strategy)
    _write_json(out / "trace.json", {**trace_to_dict(trace), "config": echo})
    rows = [
        {
            "object": obj.object_id,
            "query": args.query,
            "strategy": strategy,
            "views": i + 1,
            **step.metrics,
        }
        for i, step in enumerate(trace.steps)
    ]
    write_metrics_csv(out / "metrics.csv", rows, config_echo=echo)
    return 0


def _mean_or_none(values) -> float | None:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def cmd_bench(args, run: RunConfig) -> int:
    objects, table, _ = _load_dataset(args.dataset)
    rows = []
    if args.suite == "views_vs_iou":
        if not (args.structure_single and args.structure_multi):
            raise ConfigError("views_vs_iou needs --structure-single and --structure-multi")
        models = {
            "single_view": load_model(args.structure_single, run.resolution, run.channels, "structure"),
            "multi_view": load_model(args.structure_multi, run.resolution, run.channels, "structure"),
        }
        kinds = sorted(models)
        for obj in objects:
            gt = occupied_indices(obj, run.resolution)
            for k in range(1, 9):
                observations = _observe(obj, k, run)
                for kind in kinds:
                    occ = reconstruct(
                        observations,
                        models[kind],
                        run.resolution,
                        run.structure_flow,
                        rng=np.random.default_rng(run.seed),
                    )
                    rows.append(
                        {
                            "object": obj.object_id,
                            "query": None,
                            "strategy": kind,
                            "views": k,
                            "iou": volumetric_iou(occ, gt, run.resolution),
                        }
                    )
        for kind in kinds:
            for k in range(1, 9):
                sample = [r["iou"] for r in rows if r["strategy"] == kind and r["views"] == k]
                rows.append(
                    {
                        "object": "mean",
                        "query": None,
                        "strategy": kind,
                        "views": k,
                        "iou": float(np.mean(sample)),
                    }
                )
        extra = {"suite": args.suite}
    else:
        if not (args.structure and args.affordance):
            raise ConfigError("strategy_vs_aiou needs --structure and --affordance")
        budget = _budget(args, run)
        models = StageModels(
            structure=load_model(args.structure, run.resolution, run.channels, "structure"),
            affordance=load_model(args.affordance, run.resolution, run.channels, "affordance"),
        )
        candidates = run.candidates()
        evaluated = 0
        for obj in objects:
            queries = table.queries_for(obj)
            if not queries:
                continue
            query = queries[0]
            start = worst_initial_view(obj, query, candidates, run.resolution, table)
            evaluated += 1
            for strategy in STRATEGIES:
                trace = active_loop(
                    obj,
                    query,
                    start.viewpoint,
                    budget,
                    strategy,
                    models,
                    run,
                    rng=np.random.default_rng(run.seed),
                    table=table,
                )
                for i, step in enumerate(trace.steps):
                    rows.append(
                        {
                            "object": obj.object_id,
                            "query": query,
                            "strategy": strategy,
                            "views": i + 1,
                            **step.metrics,
                        }
                    )
        if not evaluated:
            raise DataError("no object in the dataset matches any query")
        for strategy in STRATEGIES:
            for k in range(1, budget + 1):
                sample = [r for r in rows if r["strategy"] == strategy and r["views"] == k]
                rows.append(
                    {
                        "object": "mean",
                        "query": None,
                        "strategy": strategy,
                        "views": k,
                        "iou": _mean_or_none([r["iou"] for r in sample]),
                        "aiou": _mean_or_none([r["aiou"] for r in sample]),
                        "acd": _mean_or_none([r["acd"] for r in sample]),
                        "acd_excluded": _mean_or_none([r["acd_excluded"] for r in sample]),
                    }
                )
        extra = {"suite": args.suite, "budget": budget}
    write_metrics_csv(args.out, rows, config_echo=_echo(run, "bench", **extra))
    return 0


def _load_heatmap_file(path):
    """Heatmap plus optional identity from a ground output or a bare dict."""
    data = _load_json(path)
    if isinstance(data, dict) and "heatmap" in data:
        return (
            heatmap_from_dict(data["heatmap"]),
            data.get("object_id") or pathlib.Path(path).stem,
            data.get("query"),
        )
    return heatmap_from_dict(data), pathlib.Path(path).stem, None


def _aligned_values(a, b):
    """Value vectors of two heatmaps over the union of their supports,
    in lexicographic (ix, iy, iz) order."""
    r = max(a.resolution, b.resolution)
    flat = [_lex_keys(h.positions, r) for h in (a, b)]
    keys = np.union1d(*flat)
    out = np.zeros((2, keys.size))
    for values, heat, keyed in zip(out, (a, b), flat):
        values[np.searchsorted(keys, keyed)] = heat.values
    return out[0], out[1]


def cmd_eval(args, run: RunConfig) -> int:
    if len(args.pred) != len(args.gt):
        raise ConfigError(f"{len(args.pred)} pred files vs {len(args.gt)} gt files")
    rows = []
    for pred_path, gt_path in zip(args.pred, args.gt):
        pred, object_id, query = _load_heatmap_file(pred_path)
        gt, _, gt_query = _load_heatmap_file(gt_path)
        res = aiou_acd(pred, gt, pred.resolution)
        pv, gv = _aligned_values(pred, gt)
        row = {
            "object": object_id,
            "query": query if query is not None else gt_query,
            "aiou": res.aiou,
            "acd": res.acd,
            "acd_excluded": res.excluded,
        }
        for metric, fn in (("auc", auc), ("sim", sim), ("mae", mae)):
            try:
                row[metric] = fn(pv, gv)
            except VoxaffError:
                row[metric] = None
        for tau, iou_t, cd_t in zip(
            AFFORDANCE_THRESHOLDS, res.per_threshold_iou, res.per_threshold_cd
        ):
            row[f"iou_t{int(round(tau * 100)):02d}"] = iou_t
            row[f"cd_t{int(round(tau * 100)):02d}"] = cd_t
        rows.append(row)
    scalar_keys = [k for k in rows[0] if k not in ("object", "query")]
    aggregate = {"object": "mean", "query": None}
    for key in scalar_keys:
        aggregate[key] = _mean_or_none([row[key] for row in rows])
    rows.append(aggregate)
    write_metrics_csv(args.out, rows, config_echo=_echo(run, "eval", pairs=len(args.pred)))
    return 0


# --- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxaff",
        description="Desk-scale reconstruction and affordance-grounding laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override every stage seed")
    common.add_argument("--config", default=None, help="JSON file overriding run-config fields")
    common.add_argument("--out", required=True, help="output file or directory")

    p = sub.add_parser("gen-dataset", parents=[common], help="write synthetic scene files")
    p.add_argument("--count", type=int, required=True, help="number of objects to generate")
    p.set_defaults(handler=cmd_gen_dataset)

    p = sub.add_parser("train", parents=[common], help="fit a velocity model")
    p.add_argument("--kind", choices=("structure", "affordance"), required=True)
    p.add_argument("--dataset", required=True, help="gen-dataset output directory")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("reconstruct", parents=[common], help="sample occupancy from views")
    p.add_argument("--model", required=True, help="structure checkpoint")
    p.add_argument("--object", required=True, help="scene JSON file")
    p.add_argument("--views", type=int, default=1, help="number of fused observations")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("ground", parents=[common], help="sample an affordance heatmap")
    p.add_argument("--model", default=None, help="affordance checkpoint")
    p.add_argument("--object", required=True, help="scene JSON file")
    p.add_argument("--query", required=True, help="natural-language affordance query")
    p.add_argument("--occupancy", default=None, help="reconstruct output JSON (default: true occupancy)")
    p.add_argument("--table", default=None, help="query table JSON (default: built-in)")
    p.add_argument(
        "--ground-truth",
        action="store_true",
        help="write the true binary heatmap instead of a model prediction",
    )
    p.set_defaults(handler=cmd_ground)

    p = sub.add_parser("plan", parents=[common], help="run the view-planning loop")
    p.add_argument("--structure", required=True, help="structure checkpoint")
    p.add_argument("--affordance", required=True, help="affordance checkpoint")
    p.add_argument("--object", required=True, help="scene JSON file")
    p.add_argument("--query", required=True, help="natural-language affordance query")
    p.add_argument("--budget", type=int, default=None, help="view budget (default from config)")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--table", default=None, help="query table JSON (default: built-in)")
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("bench", parents=[common], help="benchmark sweeps over a dataset")
    p.add_argument("--suite", choices=("views_vs_iou", "strategy_vs_aiou"), required=True)
    p.add_argument("--dataset", required=True, help="gen-dataset output directory")
    p.add_argument("--structure-single", default=None, help="single-view-trained checkpoint")
    p.add_argument("--structure-multi", default=None, help="multi-view-trained checkpoint")
    p.add_argument("--structure", default=None, help="structure checkpoint (strategy suite)")
    p.add_argument("--affordance", default=None, help="affordance checkpoint (strategy suite)")
    p.add_argument("--budget", type=int, default=None, help="view budget (strategy suite)")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("eval", parents=[common], help="score prediction files against truth")
    p.add_argument("--pred", nargs="+", required=True, help="predicted heatmap JSON files")
    p.add_argument("--gt", nargs="+", required=True, help="matching ground-truth files")
    p.set_defaults(handler=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _resolve_run_config(args)
        return args.handler(args, run)
    except ConfigError as exc:
        print(f"voxaff: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"voxaff: numerical error: {exc}", file=sys.stderr)
        return 4
    except VoxaffError as exc:
        print(f"voxaff: data error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"voxaff: data error: invalid JSON: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None)
        print(f"voxaff: i/o error{f' ({name})' if name else ''}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
