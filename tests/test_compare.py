"""``tools/compare.py``: quartiles, win counts, digest equality and the paired runs;
``tools/walkdiff.py``: the artifact digest comparison."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load("compare")
walkdiff = _load("walkdiff")


def _run(primary, setup, output="a", warmup="w"):
    return {"ok": True, "metrics": {"primary_ms": primary, "setup_s": setup},
            "output_digest": output, "warmup_digest": warmup}


def test_summary_counts_wins_in_the_better_direction():
    pairs = [{"parent": _run(p, 1.0), "change": _run(c, s)}
             for p, c, s in ((300, 240, 0.9), (310, 250, 1.1), (290, 295, 1.0), (305, 245, 0.8))]
    summary = compare.summarize(pairs, {"primary_ms": "lower", "setup_s": "lower", "hit": "higher"},
                                {"primary_ms": 0.25})
    assert set(summary) == {"primary_ms", "setup_s"}
    primary = summary["primary_ms"]
    assert primary["change_wins"] == 3 and primary["pairs"] == 4
    assert primary["parent"]["median"] == 302.5 and primary["change"]["median"] == 247.5
    assert primary["parent"]["q1"] <= primary["parent"]["median"] <= primary["parent"]["q3"]
    assert primary["median_change_frac"] == pytest.approx(247.5 / 302.5 - 1.0)
    assert summary["setup_s"]["change_wins"] == 2


def _summary(parent, change, better="lower"):
    pairs = [{"parent": _run(p, 1.0), "change": _run(c, 1.0)} for p, c in zip(parent, change)]
    return compare.summarize(pairs, {"primary_ms": better}, {})["primary_ms"]


#: Ten parent runs with a median of 100 and a quartile spread of 4.
PARENT = [96, 97, 98, 98, 99.5, 100.5, 102, 102, 103, 104]


@pytest.mark.parametrize("change, better, bound, expect", [
    # wins 10/10 and the medians differ by 10 > 4
    ([p - 10 for p in PARENT], "lower", 0.25, "gain"),
    # higher is better: the same runs are now a loss of 10%, within the bound
    ([p - 10 for p in PARENT], "higher", 0.25, "within noise"),
    ([p + 10 for p in PARENT], "higher", 0.25, "gain"),
    # 9/10 is enough; 8/10 is not
    ([p - 10 for p in PARENT[:9]] + [200], "lower", 0.25, "gain"),
    ([p - 10 for p in PARENT[:8]] + [200, 200], "lower", 0.25, "within noise"),
    # ties count for neither side
    ([p - 10 for p in PARENT[:8]] + PARENT[8:], "lower", 0.25, "within noise"),
    # 10/10 wins, but by less than the parent's quartile spread
    ([p - 1 for p in PARENT], "lower", 0.25, "within noise"),
    # 30% worse against a bound of 25%, and against no bound
    ([p * 1.3 for p in PARENT], "lower", 0.25, "worse"),
    ([p * 1.3 for p in PARENT], "lower", None, "within noise"),
    ([p * 0.7 for p in PARENT], "higher", 0.25, "worse"),
    # 2% worse: within a bound of 5% that the 4% spread fits, unresolved at 3%
    ([p * 1.02 for p in PARENT], "lower", 0.05, "within noise"),
    ([p * 1.02 for p in PARENT], "lower", 0.03, "unresolved"),
], ids=["gain", "higher-is-better-loss", "higher-is-better-gain", "9-of-10", "8-of-10", "ties",
        "within-spread", "worse", "no-bound", "higher-is-better-worse", "within-bound",
        "unresolved"])
def test_verdict_applies_the_paired_gain_rule_and_the_bound(change, better, bound, expect):
    summary = _summary(PARENT, change, better)
    assert summary["parent"]["median"] == 100.0
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == pytest.approx(4.0)
    assert compare.verdict(summary, bound) == expect


def test_summary_records_each_metric_verdict_under_its_bound():
    pairs = [{"parent": _run(p, 1.0), "change": _run(p * 1.3, 1.0)} for p in PARENT]
    summary = compare.summarize(pairs, {"primary_ms": "lower", "setup_s": "lower"},
                                {"primary_ms": 0.25, "setup_s": 0.25})
    assert summary["primary_ms"]["verdict"] == "worse"
    assert summary["setup_s"]["verdict"] == "within noise"


def test_digests_are_equal_only_when_every_run_agrees():
    same = [{"parent": _run(1, 1), "change": _run(1, 1)} for _ in range(3)]
    assert compare.compare_digests(same)["equal"]
    moved = same + [{"parent": _run(1, 1), "change": _run(1, 1, output="b")}]
    digests = compare.compare_digests(moved)
    assert not digests["equal"] and digests["change"]["output"] == ["a", "b"]
    unstable = same + [{"parent": _run(1, 1, warmup="v"), "change": _run(1, 1, warmup="v")}]
    assert not compare.compare_digests(unstable)["equal"]


def test_main_runs_both_committed_revisions_for_the_benchmark_run_seconds(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "end_to_end": [{"name": "primary_ms", "better": "lower"}]}))
    (repo / "side.txt").write_text("parent")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    (repo / "side.txt").write_text("change")
    git("commit", "-q", "-am", "change")
    (repo / "side.txt").write_text("uncommitted")

    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = (checkout / "side.txt").read_text()
        calls.append((side, workload, seed, seconds))
        return _run(300 if side == "parent" else 250, 1.0)

    monkeypatch.setattr(compare, "ROOT", repo)
    monkeypatch.setattr(compare, "run_once", fake_run)
    argv = ["--parent", "HEAD~1", "--workload", "plan", "--pairs", "2", "--seeds", "0", "--number", "3"]
    assert compare.main(argv) == 0
    assert calls == [("parent", "plan", 0, 7), ("change", "plan", 0, 7),
                     ("change", "plan", 0, 7), ("parent", "plan", 0, 7)]
    bench = json.loads((repo / "BENCH_3.json").read_text())
    assert bench["seconds"] == 7 and bench["digests_equal"] and bench["failed_runs"] == 0
    assert bench["revisions"]["change"]["rev"] == "HEAD"
    assert bench["revisions"]["parent"]["sha"] != bench["revisions"]["change"]["sha"]
    assert bench["results"][0]["summary"]["primary_ms"]["change_wins"] == 2
    assert bench["results"][0]["summary"]["primary_ms"]["verdict"] == "gain"


def test_walkdiff_lists_files_that_differ_or_exist_on_one_side(tmp_path):
    for side, files in (
        ("a", {"same.json": "1", "sub/same.csv": "x", "moved.json": "2", "only_a.json": "3"}),
        ("b", {"same.json": "1", "sub/same.csv": "x", "moved.json": "2 ", "sub/only_b.csv": "4"}),
    ):
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    a, b = walkdiff.digests(tmp_path / "a"), walkdiff.digests(tmp_path / "b")
    assert sorted(a) == ["moved.json", "only_a.json", "same.json", "sub/same.csv"]
    assert a["same.json"] == hashlib.sha256(b"1").hexdigest()
    assert walkdiff.differing(a, b) == ["moved.json", "only_a.json", "sub/only_b.csv"]
    assert walkdiff.differing(a, a) == []
