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

from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    UndefinedMetricError,
    VoxaffError,
    check_integer,
    malformed,
    read_json,
    record_integer,
    write_json,
)
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
    object_to_dict,
    occupied_indices,
    table_to_dict,
)
from .voxel import _lex_keys, heatmap_from_dict, heatmap_to_dict


@dataclass(frozen=True)
class RunConfig(PipelineConfig):
    """Every knob a command can use, validated up front and echoed to disk.

    The pipeline fields (flows, ``resolution``, ``channels`` and the
    candidate lattice) come from ``PipelineConfig``, so a run config is
    what ``active_loop`` takes.  ``resolution`` and ``channels`` are set
    at the top level and copied into ``trainer``.  ``--config`` files
    override any subset of the fields; ``--budget`` and ``--strategy`` then
    replace their fields, and ``--seed`` replaces both ``seed`` and
    ``trainer.seed`` so one flag reseeds a whole run.  So ``to_dict`` is
    the run, and loads back as a ``--config``.
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
    with malformed("bad config value", ConfigError):
        for key, value in data.items():
            if key in _FLOW_FIELDS:
                kwargs[key] = FlowConfig(**value)
            elif key == "trainer":
                fields = dict(value)
                for name in ("resolution", "channels"):
                    top = data.get(name, getattr(RunConfig, name))
                    if fields.pop(name, top) != top:
                        raise ConfigError(
                            f"trainer.{name} differs from {name} {top!r}; set it at the top level"
                        )
                if "view_range" in fields:
                    fields["view_range"] = tuple(fields["view_range"])
                kwargs[key] = TrainerConfig(**fields)
            else:
                kwargs[key] = value
    return dataclasses.replace(RunConfig(), **kwargs)


def _resolve_run_config(args) -> RunConfig:
    run = RunConfig()
    if args.config:
        run = run_config_from_dict(read_json(args.config))
    if args.seed is not None:
        run = dataclasses.replace(
            run,
            seed=args.seed,
            trainer=dataclasses.replace(run.trainer, seed=args.seed),
        )
    flags = {name: getattr(args, name, None) for name in ("budget", "strategy")}
    return dataclasses.replace(run, **{k: v for k, v in flags.items() if v is not None})


# --- small file helpers --------------------------------------------------------


def _check_strings(prefix: str, data: dict, *names):
    """Refuse each of ``names`` that ``data`` holds as anything but a string."""
    for name in names:
        if name in data and not isinstance(data[name], str):
            raise DataError(f"{prefix}: {name} must be a string, got {data[name]!r}")


def _hash_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _echo(run: RunConfig, command: str, **extra) -> dict:
    return {"command": command, "run": run.to_dict(), **extra}


def _load_dataset(dataset_dir):
    """Objects, query table, and manifest from a gen-dataset directory.

    Every listed file must match the SHA-256 that the manifest's ``hashes``
    records for it, so an edited or half-copied dataset is refused.
    """
    root = pathlib.Path(dataset_dir)
    manifest = read_json(root / "manifest.json")
    with malformed(f"malformed manifest in {root}"):
        names = list(manifest["objects"])
        table_name = manifest.get("table", "queries.json")
        hashes = manifest.get("hashes", {})
    if not all(isinstance(name, str) for name in [*names, table_name]):
        raise DataError(f"malformed manifest in {root}: file names must be strings")
    if not isinstance(hashes, dict):
        raise DataError(f"malformed manifest in {root}: hashes must be a mapping")
    if not names:
        raise DataError(f"manifest in {root} lists no objects")
    for name in [*names, table_name]:
        digest = _hash_file(root / name)
        if name not in hashes:
            raise DataError(f"manifest in {root} records no hash for {name}")
        if hashes[name] != digest:
            raise DataError(f"{root / name} does not match its hash in the manifest")
    objects = [load_object(root / name) for name in names]
    table = load_table(root / table_name)
    return objects, table, manifest


def _observe(obj, k: int, run: RunConfig):
    """First k spread-out hemisphere observations of an object."""
    views = hemisphere_candidates(k, intrinsics=eval_intrinsics(run.image_size))
    return [(*render_views(obj, v, run.resolution, run.channels), v) for v in views]


#: The checkpoint flags that ``plan`` and each ``bench`` suite read, by
#: argument name, with the kind each checkpoint must be.
_STAGE_KINDS = {"structure": "structure", "affordance": "affordance"}
_SUITE_KINDS = {
    "views_vs_iou": {"structure_single": "structure", "structure_multi": "structure"},
    "strategy_vs_aiou": _STAGE_KINDS,
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_models(args, run: RunConfig, kinds: dict) -> dict:
    """The checkpoint of each flag in ``kinds``, checked against the run."""
    return {
        name: load_model(getattr(args, name), run.resolution, run.channels, kind)
        for name, kind in kinds.items()
    }


def _trace_rows(trace) -> list[dict]:
    """One metric row per view of a planning trace."""
    ident = {"object": trace.object_id, "query": trace.query, "strategy": trace.strategy}
    return [{**ident, "views": i + 1, **step.metrics} for i, step in enumerate(trace.steps)]


def _mean_row(rows, **ident) -> dict:
    """The ``mean`` row of ``rows``: ``ident`` as given, and every other
    metric of the first row averaged over the rows where it is not None."""
    row = {"object": "mean", "query": None, **ident}
    for key in rows[0]:
        if key not in row:
            defined = [r[key] for r in rows if r[key] is not None]
            row[key] = float(np.mean(defined)) if defined else None
    return row


# --- subcommands ----------------------------------------------------------------


def cmd_gen_dataset(args, run: RunConfig) -> int:
    if args.count < 1:
        raise ConfigError("count must be at least 1")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for seed in range(run.seed, run.seed + args.count):
        name = f"object_{seed:04d}.json"
        write_json(out / name, object_to_dict(generate_object(seed)))
        names.append(name)
    write_json(out / "queries.json", table_to_dict(default_query_table(run.channels)))
    hashes = {name: _hash_file(out / name) for name in names + ["queries.json"]}
    write_json(
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
    write_json(out / f"{args.kind}.config.json", _echo(run, "train", kind=args.kind))
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
    write_json(
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
    if args.ground_truth and (args.model or args.occupancy):
        raise ConfigError("--ground-truth takes neither --model nor --occupancy")
    obj = load_object(args.object)
    r = run.resolution
    table = load_table(args.table) if args.table else default_query_table(run.channels)
    if args.ground_truth:
        heat = ground_truth_affordance(obj, args.query, r, table)
    else:
        if not args.model:
            raise ConfigError("ground needs --model unless --ground-truth is set")
        if args.occupancy:
            data = read_json(args.occupancy)
            with malformed(f"malformed occupancy file {args.occupancy}"):
                occ = np.array(data["occupied"])
            _check_strings("malformed occupancy record", data, "object_id")
            # A file without an object id or a resolution loads for any
            # object and run, as a checkpoint without a trainer record does.
            seen = data.get("object_id", obj.object_id)
            if seen != obj.object_id:
                raise DataError(
                    f"{args.occupancy} was reconstructed from {seen}, the object is {obj.object_id}"
                )
            made = record_integer("occupancy", "resolution", data.get("resolution", r))
            if made != r:
                raise ConfigError(
                    f"{args.occupancy} was reconstructed at resolution {made}, the run has {r}"
                )
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
    write_json(
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
    obj = load_object(args.object)
    table = load_table(args.table) if args.table else default_query_table(run.channels)
    models = StageModels(**_load_models(args, run, _STAGE_KINDS))
    start = worst_initial_view(obj, args.query, run.candidates(), run.resolution, table)
    trace = active_loop(
        obj,
        args.query,
        start.viewpoint,
        run.budget,
        run.strategy,
        models,
        run,
        rng=np.random.default_rng(run.seed),
        table=table,
    )
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = _echo(run, "plan", query=args.query)
    write_json(out / "trace.json", {**trace_to_dict(trace), "config": echo})
    write_metrics_csv(out / "metrics.csv", _trace_rows(trace), config_echo=echo)
    return 0


def cmd_bench(args, run: RunConfig) -> int:
    kinds = _SUITE_KINDS[args.suite]
    # Each suite refuses the other's flags; only the strategy suite plans.
    others = [name for suite in _SUITE_KINDS if suite != args.suite for name in _SUITE_KINDS[suite]]
    if args.suite == "views_vs_iou":
        others.append("budget")
    stray = [_flag(name) for name in others if getattr(args, name) is not None]
    if stray:
        raise ConfigError(f"{args.suite} does not take {', '.join(stray)}")
    if any(getattr(args, name) is None for name in kinds):
        raise ConfigError(f"{args.suite} needs {' and '.join(map(_flag, kinds))}")
    loaded = _load_models(args, run, kinds)
    objects, table, _ = _load_dataset(args.dataset)
    rows = []
    if args.suite == "views_vs_iou":
        models = {"single_view": loaded["structure_single"], "multi_view": loaded["structure_multi"]}
        strategies, n_views = sorted(models), 8
        for obj in objects:
            gt = occupied_indices(obj, run.resolution)
            for k in range(1, n_views + 1):
                observations = _observe(obj, k, run)
                for kind in strategies:
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
    else:
        strategies, n_views = STRATEGIES, run.budget
        models = StageModels(**loaded)
        candidates = run.candidates()
        for obj in objects:
            queries = table.queries_for(obj)
            if not queries:
                continue
            start = worst_initial_view(obj, queries[0], candidates, run.resolution, table)
            for strategy in strategies:
                trace = active_loop(
                    obj,
                    queries[0],
                    start.viewpoint,
                    n_views,
                    strategy,
                    models,
                    run,
                    rng=np.random.default_rng(run.seed),
                    table=table,
                )
                rows += _trace_rows(trace)
        if not rows:
            raise DataError("no object in the dataset matches any query")
    rows += [
        _mean_row([r for r in rows if r["strategy"] == s and r["views"] == k], strategy=s, views=k)
        for s in strategies
        for k in range(1, n_views + 1)
    ]
    write_metrics_csv(args.out, rows, config_echo=_echo(run, "bench", suite=args.suite))
    return 0


def _load_heatmap_file(path):
    """Heatmap plus the object id and query a ground output records; a bare
    heatmap dict records neither (None, None)."""
    data = read_json(path)
    if isinstance(data, dict) and "heatmap" in data:
        _check_strings(f"malformed heatmap file {path}", data, "object_id", "query")
        return heatmap_from_dict(data["heatmap"]), data.get("object_id"), data.get("query")
    return heatmap_from_dict(data), None, None


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
        gt, gt_id, gt_query = _load_heatmap_file(gt_path)
        # A prediction scored against another object's or query's truth is refused.
        for field, mine, theirs in (("object_id", object_id, gt_id), ("query", query, gt_query)):
            if mine is not None and theirs is not None and mine != theirs:
                raise DataError(f"{pred_path} has {field} {mine!r} but {gt_path} has {theirs!r}")
        res = aiou_acd(pred, gt, pred.resolution)
        pv, gv = _aligned_values(pred, gt)
        row = {
            "object": object_id or pathlib.Path(pred_path).stem,
            "query": query if query is not None else gt_query,
            "aiou": res.aiou,
            "acd": res.acd,
            "acd_excluded": res.excluded,
        }
        for metric, fn in (("auc", auc), ("sim", sim), ("mae", mae)):
            try:
                row[metric] = fn(pv, gv)
            except UndefinedMetricError:
                row[metric] = None
        for tau, iou_t, cd_t in zip(
            AFFORDANCE_THRESHOLDS, res.per_threshold_iou, res.per_threshold_cd
        ):
            row[f"iou_t{int(round(tau * 100)):02d}"] = iou_t
            row[f"cd_t{int(round(tau * 100)):02d}"] = cd_t
        rows.append(row)
    rows.append(_mean_row(rows))
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
    p.add_argument(
        "--strategy", default=None, help=f"{', '.join(STRATEGIES)} (default from config)"
    )
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
