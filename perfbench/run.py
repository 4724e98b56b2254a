"""voxaff benchmark: one workload, one seed, closed loop for a fixed time.

    python3 perfbench/run.py --workload train|plan|perceive --seed N \
        --seconds S --trace 0|1

Set-up (imports, models, inputs, one warm-up operation per path) runs
``SETUP_REPEATS`` times, each after timing the imports in a fresh child
interpreter; ``setup_s`` is the median of the repeats' import plus set-up
times.  With ``--trace 0`` the workload then runs untraced for ``S``
seconds, and at least its ``TIMED_OPS`` operations, and the end-to-end
metrics are printed.  With ``--trace 1`` it runs untraced for S/2 seconds
(again at least ``TIMED_OPS`` operations), replays the same operations
with every layer wrapped by the tracer, and prints the per-layer metrics
and the tracing overhead.  Every phase must reproduce the digests of the
others.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results and
the spans of a traced run are written under ``perfbench/out/``.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()

from env import MissingProgram, pin_threads  # noqa: E402

SETUP_REPEATS = 5
#: Run by a child interpreter: the imports of a run, timed from a cold start.
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "perfbench")
import env
env.pin_threads()
import inputs, tracer, workloads
print(time.perf_counter() - t0)
"""
#: Ops whose digests make up the printed prefix digest; a run at the
#: default length always completes at least this many.
DIGEST_PREFIX = {"train": 4, "plan": 3, "perceive": 16}


def run_op(workload, i: int):
    """((wall seconds, OpResult or None), failure message or None) for op ``i``."""
    t0 = time.perf_counter()
    try:
        result, failure = workload.op(i), None
    except Exception as exc:  # a failing op is counted, not fatal
        result, failure = None, f"op {i}: {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return (time.perf_counter() - t0, result), failure


def import_seconds() -> float:
    """Seconds a fresh interpreter takes for the imports of a run."""
    from env import ROOT

    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def drive(workload, seconds: float):
    """Closed loop: run ops 0, 1, ... until ``seconds`` have passed and at
    least ``workload.TIMED_OPS`` ops have run.

    Returns (op records, failure messages).
    """
    records, failures = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(records) < (workload.TIMED_OPS or 0)):
        record, failure = run_op(workload, len(records))
        records.append(record)
        if failure:
            failures.append(failure)
    return records, failures


def prefix_digest(records, n: int) -> str:
    from workloads import Digest

    digests = [r.digest if r is not None else "failed" for _, r in records[:n]]
    return Digest().add(digests).hexdigest()[:16] + f" ({len(digests)} ops)"


def end_to_end(workload, records, setup_s: float) -> tuple[dict, list]:
    """The benchmark's end-to-end metrics and the report lines behind them.

    Returns no report lines when a timed quantity got no sample.
    """
    import resource

    from workloads import percentile

    samples, quality = {}, {}
    for _, result in records[:workload.TIMED_OPS]:
        if result is not None:
            for kind, seconds in result.samples:
                samples.setdefault(kind, []).append(seconds)
            for key, value in result.quality.items():
                quality.setdefault(key, []).append(value)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    lines = []
    for name, (kind, q) in (("primary_ms", workload.PRIMARY), ("secondary_ms", workload.SECONDARY)):
        values = samples.get(kind)
        if not values:
            return metrics, []
        ms = 1000.0 * percentile(values, q)
        metrics[name] = {"value": ms, "unit": "ms"}
        lines.append(f"{name:12s} = {ms:.3f} ms  ({kind} p{q}, n={len(values)})")
    return metrics, lines + workload.report(samples, quality)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="voxaff benchmark")
    parser.add_argument("--workload", required=True, choices=("train", "plan", "perceive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        pin_threads()
    except MissingProgram as exc:
        print(f"perfbench: {exc}; run from the root of a voxaff checkout", file=sys.stderr)
        return 2

    import env
    import tracer as tracing
    from inputs import InputError
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    problems: list[str] = []

    # --- set-up, repeated; every repeat must build the same inputs --------
    import_times, setup_times, setup_digests = [], [], set()
    try:
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds())
            workload = None  # free the last repeat's inputs, so peak RSS holds one set
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed)
            warm = workload.warmup()
            setup_times.append(time.perf_counter() - t0)
            setup_digests.add((workload.setup_digest, warm))
    except InputError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(setup_digests) != 1:
        problems.append("set-up repeats built different inputs or warm-up outputs")
    setup_s = statistics.median(i + t for i, t in zip(import_times, setup_times))

    # --- measured phases -------------------------------------------------
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, failures = drive(workload, seconds)
    if workload.warmup() != warm:
        problems.append("untraced warm-up digest differs from set-up")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env.record(), "import_s": import_s,
              "import_times_s": import_times, "setup_times_s": setup_times}
    report = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}", f"env {json.dumps(result['env'], sort_keys=True)}"]

    if args.trace:
        tr = tracing.Tracer()
        with tracing.installed(tr) as coverage:
            traced = []
            for i in range(len(records)):
                with tr.span(f"op.{args.workload}", op=i):
                    record, failure = run_op(workload, i)
                traced.append(record)
                if failure:
                    failures.append(failure)
        for i, ((_, a), (_, b)) in enumerate(zip(records, traced)):
            if (a and a.digest) != (b and b.digest):
                problems.append(f"op {i}: traced digest differs from untraced")
        if workload.warmup() != warm:
            problems.append("warm-up digest differs after the traced phase")
        untraced_s = sum(t for t, _ in records)
        traced_s = sum(t for t, _ in traced)
        metrics_flat = tracing.layer_metrics(tr.summary())
        metrics_flat["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics_flat["trace.ops"] = len(traced)
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics_flat.items()}
        result["coverage"] = coverage
        write_spans(args, tr)
        attempted = len(records) + len(traced)
        top = sorted(((v, k) for k, v in metrics_flat.items() if k.endswith(".self_s")),
                     reverse=True)[:5]
        report.append(f"traced {len(traced)} ops; overhead {metrics_flat['trace.overhead_frac']:+.4f}")
        report += [f"self {k[:-7]:36s} {v:9.4f} s  {v / traced_s:6.1%} of traced time"
                   for v, k in top]
    else:
        metrics, lines = end_to_end(workload, records, setup_s)
        if not lines:
            problems.append("a timed quantity got no sample; run longer")
        report += lines
        attempted = len(records)
    report.append(f"output digest {prefix_digest(records, DIGEST_PREFIX[args.workload])}; "
                  f"warm-up digest {warm[:16]}")

    failed = len(failures)
    problems += failures
    correct = not problems
    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    result.update(correct=correct, attempted=attempted, failed=failed, problems=problems,
                  op_digests=[r.digest if r else None for _, r in records],
                  op_seconds=[t for t, _ in records], metrics=metrics)
    write_result(args, result)
    for line in report:
        if line:
            print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _out_dir():
    from env import ROOT

    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    return out


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def write_result(args, result: dict):
    with open(_out_dir() / f"{_stem(args)}.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


def write_spans(args, tr):
    """Spans as JSON lines: name, parent id, op, start and end (seconds), counts."""
    with open(_out_dir() / f"{_stem(args)}.spans.jsonl", "w") as f:
        for sid, (name, parent, op, start, end, counts) in enumerate(tr.spans):
            f.write(json.dumps({"id": sid, "name": name, "parent": parent, "op": op,
                                "start": start, "end": end, "counts": counts}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
