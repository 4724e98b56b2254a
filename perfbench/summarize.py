"""Run one workload on several seeds and summarise each metric's spread.

    python3 perfbench/summarize.py --workload plan --seeds 0-9 --seconds 30

Each seed is one untraced ``run.py`` process, run to completion before
the next starts.  For every metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median; it prints one line per metric and writes the whole
summary to ``perfbench/out/summary-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,3,5")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    values: dict = {}
    failed = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            failed.append(seed)
            print(f"seed {seed}: failed (exit {proc.returncode})", file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {name: spread(v) for name, v in values.items()}
    for name, s in summary.items():
        iqr = f"{s['iqr_frac']:.4f}" if s["iqr_frac"] is not None else "-"
        print(f"{name:44s} median {s['median']:14.6g}  iqr/median {iqr}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"summary-{args.workload}.json", "w") as f:
        json.dump({"args": vars(args), "failed_seeds": failed, "metrics": summary}, f, indent=1)
        f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
