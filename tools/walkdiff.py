"""Run the README walkthrough on two revisions and compare every artifact.

    python3 tools/walkdiff.py --parent REV [--change REV] [--steps 200]

Both revisions are extracted with ``compare.extract`` (``git archive`` into a
temporary directory; nothing is registered in ``.git``); ``--change`` defaults
to ``HEAD``, so commit a change before comparing it.  Each side runs the
walkthrough of README.md from its own ``src``: ``gen-dataset``, both trainers
and a single-view structure model at ``trainer.steps`` = ``--steps``,
``reconstruct``, ``ground`` and ``ground --ground-truth``, ``plan`` with every
strategy, both ``bench`` suites, and ``eval``.

It prints every artifact whose sha256 differs between the sides, or that only
one side wrote, and exits 1 if there is any or a command fails; otherwise it
prints how many artifacts are byte-identical and exits 0.  For a JSON or CSV
artifact that differs only in its numbers, it also prints the largest
|change| of a number; otherwise it says that the layout differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare import extract  # noqa: E402

OBJ = "data/object_0000.json"
PLAN_OBJ = "data/object_0001.json"
MODELS = ["--structure", "ckpt/structure.model.json", "--affordance", "ckpt/affordance.model.json"]

#: The walkthrough, run in order in one output directory.
WALKTHROUGH = [
    ["gen-dataset", "--count", "20", "--seed", "0", "--out", "data/"],
    ["train", "--kind", "structure", "--dataset", "data/", "--config", "train.json", "--out", "ckpt/"],
    ["train", "--kind", "affordance", "--dataset", "data/", "--config", "train.json", "--out", "ckpt/"],
    ["train", "--kind", "structure", "--dataset", "data/", "--config", "single.json",
     "--out", "ckpt_single/"],
    ["reconstruct", "--model", "ckpt/structure.model.json", "--object", OBJ, "--views", "3",
     "--out", "recon.json"],
    ["ground", "--model", "ckpt/affordance.model.json", "--object", OBJ,
     "--query", "grasp the handle", "--occupancy", "recon.json", "--out", "heat.json"],
    ["ground", "--ground-truth", "--object", OBJ, "--query", "grasp the handle", "--out", "truth.json"],
    *(["plan", *MODELS, "--object", PLAN_OBJ, "--query", "strike a nail", "--budget", "4",
       "--strategy", strategy, "--out", f"plan_{strategy}/"]
      for strategy in ("active", "random", "sequential")),
    ["bench", "--suite", "views_vs_iou", "--dataset", "data/",
     "--structure-multi", "ckpt/structure.model.json",
     "--structure-single", "ckpt_single/structure.model.json", "--out", "views.csv"],
    ["bench", "--suite", "strategy_vs_aiou", "--dataset", "data/", *MODELS, "--budget", "2",
     "--out", "strategies.csv"],
    ["eval", "--pred", "heat.json", "--gt", "truth.json", "--out", "scores.csv"],
]


def digests(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def differing(a: dict, b: dict) -> list:
    """Sorted names whose digests differ, or that only one side has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _leaves(data):
    """The keys, lengths and scalars of a parsed record, depth first."""
    if isinstance(data, dict):
        for key in sorted(data):
            yield "key", key
            yield from _leaves(data[key])
    elif isinstance(data, list):
        yield "length", len(data)
        for item in data:
            yield from _leaves(item)
    else:
        yield "value", data


def _number(value):
    """``value`` as a float, or None for a bool or a non-numeric value."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def largest_change(a: Path, b: Path) -> str:
    """``largest |change| <x>`` over the numbers of two JSON (or CSV) files
    of one layout, or ``layout differs``."""
    parsed = []
    for path in (a, b):
        text = path.read_text()
        try:
            parsed.append(list(_leaves(json.loads(text))))
        except ValueError:
            parsed.append(list(_leaves([line.split(",") for line in text.splitlines()])))
    if len(parsed[0]) != len(parsed[1]):
        return "layout differs"
    largest = 0.0
    for (kind, x), (other, y) in zip(*parsed):
        u, v = _number(x), _number(y)
        if kind == other == "value" and u is not None and v is not None:
            largest = max(largest, abs(u - v))
        elif (kind, x) != (other, y):
            return "layout differs"
    return f"largest |change| {largest:.3g}"


def walkthrough(checkout: Path, out: Path, steps: int) -> str | None:
    """Run the walkthrough with ``checkout``'s sources into ``out``; the
    failing command and its last stderr line, or None."""
    out.mkdir(parents=True)
    (out / "train.json").write_text(json.dumps({"trainer": {"steps": steps}}))
    (out / "single.json").write_text(json.dumps({"trainer": {"steps": steps, "view_range": [1, 1]}}))
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for argv in WALKTHROUGH:
        proc = subprocess.run([sys.executable, "-m", "voxaff.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return f"voxaff {' '.join(argv)} exited {proc.returncode}: {last}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision of the change (default: HEAD)")
    parser.add_argument("--steps", type=int, default=200, help="trainer.steps of every training run")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")

    with tempfile.TemporaryDirectory(prefix="voxaff-walkdiff-") as tmp:
        seen = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            checkout = extract(rev, Path(tmp) / side)
            failure = walkthrough(checkout, Path(tmp) / f"{side}-out", args.steps)
            if failure:
                print(f"{side} ({rev}): {failure}", flush=True)
                return 1
            seen[side] = digests(Path(tmp) / f"{side}-out")
        moved = differing(seen["parent"], seen["change"])
        for name in moved:
            pair = [Path(tmp) / f"{side}-out" / name for side in ("parent", "change")]
            both = all(path.is_file() for path in pair)
            print(f"differs: {name}" + (f" ({largest_change(*pair)})" if both else ""))
    same = len(seen["parent"].keys() | seen["change"].keys()) - len(moved)
    print(f"{same} files byte-identical, {len(moved)} differ", flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
