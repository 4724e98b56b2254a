"""Paired before/after runs of the benchmark: a parent revision against a change.

    python3 tools/compare.py --parent REV --workload plan --pairs 10 --seeds 0,9001 \
        --number 7 [--change REV]

Both sides are extracted with ``git archive`` into a temporary directory (a
plain local checkout; no network, and nothing is registered in ``.git``), so
each runs from fresh files; ``--change`` defaults to ``HEAD``, so commit a
change before comparing it.  For every workload and seed the script runs
``perfbench/run.py --trace 0`` ``--pairs`` times on each side for
``BENCHMARK.json``'s ``run_seconds``, alternating which side goes first, so
a drift in machine speed falls on both sides alike.

It writes ``BENCH_<number>.json`` at the repository root: the machine
record, both revisions, every pair's end-to-end metrics, per-metric
medians and quartiles, how many pairs the change won, each metric's
``verdict`` (``gain``, ``worse``, ``unresolved`` or ``within noise``; see
``verdict``), and whether the output and warm-up digests of the two sides
are equal.  It records and does not gate on speed: the exit code is 1
when a run fails or a digest differs, and 0 otherwise.  ``--workload`` and ``--seeds`` take
comma-separated lists.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = re.compile(r"output digest (\S+) .*; warm-up digest (\S+)")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """The files of ``rev`` under ``into``, by ``git archive``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metrics, digests and exit status."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    found = [m for m in map(DIGESTS.search, lines) if m]
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {}
    return {
        "ok": proc.returncode == 0 and bool(last.get("correct")),
        "metrics": {k: v["value"] for k, v in last.get("metrics", {}).items()},
        "output_digest": found[-1].group(1) if found else None,
        "warmup_digest": found[-1].group(2) if found else None,
        "stderr": proc.stderr.strip().splitlines()[-3:],
    }


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(summary: dict, bound: float | None) -> str:
    """One metric's reading of its pairs, with ``bound`` the largest
    relative loss the benchmark allows (None when it fixes none).

    ``gain`` when the change wins at least nine pairs in ten (ties count
    for neither side) and the medians differ, in the better direction, by
    more than the parent's quartile spread; ``worse`` when the change's
    median is worse by more than ``bound``; ``unresolved`` when the
    parent's quartile spread is wider than ``bound``; ``within noise``
    otherwise.
    """
    sign = 1.0 if summary["better"] == "lower" else -1.0
    parent, change = summary["parent"], summary["change"]
    spread = parent["q3"] - parent["q1"]
    if (summary["change_wins"] >= 0.9 * summary["pairs"]
            and sign * (parent["median"] - change["median"]) > spread):
        return "gain"
    if bound is not None:
        if sign * summary["median_change_frac"] > bound:
            return "worse"
        if spread > bound * abs(parent["median"]):
            return "unresolved"
    return "within noise"


def summarize(pairs: list, better: dict, bounds: dict) -> dict:
    """Per metric: each side's quartiles, the median change, the change's
    wins and their ``verdict`` under the metric's entry in ``bounds``."""
    out = {}
    for name, direction in better.items():
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in both)
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "median_change_frac": change["median"] / parent["median"] - 1.0,
            "change_wins": wins,
            "pairs": len(both),
        }
        out[name]["verdict"] = verdict(out[name], bounds.get(name))
    return out


def compare_digests(pairs: list) -> dict:
    seen = {
        side: {
            kind: sorted({str(p[side][f"{kind}_digest"]) for p in pairs})
            for kind in ("output", "warmup")
        }
        for side in ("parent", "change")
    }
    seen["equal"] = all(
        len(seen["parent"][kind]) == 1 and seen["parent"][kind] == seen["change"][kind]
        for kind in ("output", "warmup")
    )
    return seen


def machine(result_file: Path) -> dict:
    record = {"platform": platform.platform(), "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        env = json.loads(result_file.read_text())["env"]
        env.pop("git_sha", None)
        record.update(env)
    except (OSError, KeyError, json.JSONDecodeError):
        pass
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision of the change (default: HEAD)")
    parser.add_argument("--workload", required=True, help="comma-separated workloads")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    args = parser.parse_args(argv)
    workloads = args.workload.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    revisions = {side: {"rev": rev, "sha": git("rev-parse", rev)}
                 for side, rev in (("parent", args.parent), ("change", args.change))}

    results, failed = [], 0
    with tempfile.TemporaryDirectory(prefix="voxaff-compare-") as tmp:
        checkouts = {side: extract(r["rev"], Path(tmp) / side) for side, r in revisions.items()}
        for workload in workloads:
            for seed in seeds:
                pairs = []
                for k in range(args.pairs):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(checkouts[side], workload, seed, seconds)
                        failed += not pair[side]["ok"]
                    pairs.append(pair)
                    print(f"{workload} seed {seed} pair {k + 1}/{args.pairs}: " + ", ".join(
                        f"{side} primary_ms {pair[side]['metrics'].get('primary_ms', float('nan')):.1f}"
                        for side in ("parent", "change")), flush=True)
                summary = summarize(pairs, better, bounds)
                results.append({"workload": workload, "seed": seed, "pairs": pairs,
                                "summary": summary, "digests": compare_digests(pairs)})
                for name, s in summary.items():
                    print(f"  {name:12s} median {s['parent']['median']:10.3f} -> "
                          f"{s['change']['median']:10.3f} ({s['median_change_frac']:+.1%}), "
                          f"change better in {s['change_wins']}/{s['pairs']}: {s['verdict']}")
        stem = f"{workloads[0]}-seed{seeds[0]}-trace0.json"
        record = machine(checkouts["change"] / "perfbench" / "out" / stem)

    digests_equal = all(r["digests"]["equal"] for r in results)
    bench = {
        "command": ["python3", "tools/compare.py", *(argv if argv is not None else sys.argv[1:])],
        "machine": record,
        "revisions": revisions,
        "seconds": seconds,
        "failed_runs": failed,
        "digests_equal": digests_equal,
        "results": results,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}; digests {'equal' if digests_equal else 'DIFFER'}; "
          f"{failed} failed runs", flush=True)
    return 0 if digests_equal and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
