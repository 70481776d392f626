"""``tools/pairs.py``: alternating perfbench pairs, summarised as a BENCH file."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A perfbench stand-in: it logs which tree ran which seed, writes to TOUCH_MB
# fresh megabytes (minor page faults), then prints a report line and a result
# line whose values follow from the tree and seed.
FAKE_RUN = '''
import argparse
import json
import os

p = argparse.ArgumentParser()
p.add_argument("--workload")
p.add_argument("--seed", type=int)
p.add_argument("--seconds", type=float)
p.add_argument("--trace", type=int)
a = p.parse_args()
with open(os.environ["PAIRS_LOG"], "a") as fh:
    fh.write(f"{SIDE}:{a.workload}:{a.seed}:{a.seconds:g}:{a.trace} ")
touched = bytearray(TOUCH_MB << 20)  # zero-filled, so every page is written
speed = BASE + a.seed
values = {"setup_s": 0.5, "peak_rss_mb": 100.0 + a.seed, "clips_per_s": speed,
          "op_ms_p50": 1000.0 / speed, "op_ms_tail": 1200.0 / speed}
env = {"nproc": 2, "blas_threads": 1, "numpy": "n", "openblas": "o", "python": "p",
       "seed": a.seed, "git_commit": COMMIT, "src_sha256": SIDE * 2}
print("a line before the report")
raw = {"clips_per_s": speed / 2, "op_ms_p50": 2000.0 / speed, "op_ms_tail": 2400.0 / speed}
print(json.dumps({"env": env, "host_speed_factor_p50": 0.9, "raw": raw}))
print(json.dumps({"correct": FAILED == 0, "attempted": 10, "failed": FAILED,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}))
'''


def make_tree(path, side, base, commit=None, failed=0, touch_mb=0):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        f"SIDE = {side!r}\nBASE = {base!r}\nCOMMIT = {commit!r}\nFAILED = {failed!r}\n"
        f"TOUCH_MB = {touch_mb!r}\n" + FAKE_RUN)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (path / "BENCHMARK.json").write_text(json.dumps(bench))
    return path


def run_pairs(tmp_path, parent, change, *extra):
    log = tmp_path / "order.log"
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), str(parent), str(change),
         "--label", "test", "--change", "a test change", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=120, env={"PAIRS_LOG": str(log)})
    return proc, log, out


def test_pairs_alternate_and_summarise_like_the_committed_bench_files(tmp_path):
    parent = make_tree(tmp_path / "parent", "p", 40.0, commit="abc123")
    change = make_tree(tmp_path / "change", "c", 50.0, touch_mb=40)
    proc, log, out = run_pairs(tmp_path, parent, change, "--workload", "infer-b1",
                               "--workload", "train-b16", "--seeds", "3-5,9", "--seconds", "2")
    assert proc.returncode == 0, proc.stderr
    order = [run.split(":") for run in log.read_text().split()]
    assert [(s, w, int(seed)) for s, w, seed, _, _ in order] == [
        (side, w, seed) for w in ("infer-b1", "train-b16")
        for seed, first in ((3, "pc"), (4, "cp"), (5, "pc"), (9, "cp")) for side in first]
    assert {(secs, trace) for _, _, _, secs, trace in order} == {("2", "0")}

    doc = json.loads(out.read_text())
    reference = json.loads((ROOT / "BENCH_conv_channels_last.json").read_text())
    assert set(reference) <= set(doc)
    assert doc["parent_commit"] == "abc123"
    assert doc["src_sha256"] == {"parent": "pp", "change": "cc"}
    assert doc["host"] == {"nproc": 2, "blas_threads": 1, "numpy": "n", "openblas": "o",
                           "python": "p"}
    assert "--seconds 2 --trace 0" in doc["command"]
    assert len(doc["runs"]) == 16 and doc["runs"][0]["host_speed_factor_p50"] == 0.9
    w = doc["workloads"]["train-b16"]
    assert set(reference["workloads"]["infer-b1"]) <= set(w)
    assert w["seeds"] == [3, 4, 5, 9] and w["pairs"] == 4
    assert w["failed"] == {"parent": 0, "change": 0}
    assert w["attempted"] == {"parent": 40, "change": 40}
    assert set(w["metrics"]) == {"setup_s", "peak_rss_mb", "clips_per_s", "op_ms_p50",
                                 "op_ms_tail"}
    speeds = {"parent": [43.0, 44.0, 45.0, 49.0], "change": [53.0, 54.0, 55.0, 59.0]}
    cps = w["metrics"]["clips_per_s"]
    for side, values in speeds.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert cps[side] == {"median": statistics.median(values), "q1": round(q1, 4),
                             "q3": round(q3, 4)}
    assert cps["better"] == "higher" and cps["change_wins"] == 4 and cps["pairs"] == 4
    assert cps["median_gap"] == 10.0
    assert cps["parent_iqr"] == round(cps["parent"]["q3"] - cps["parent"]["q1"], 4)
    assert cps["relative"] == round(10.0 / 44.5, 4)
    assert w["metrics"]["op_ms_p50"]["change_wins"] == 4  # lower is better
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["median_gap"] == 0.0  # ties count for neither
    assert w["raw_metrics"]["clips_per_s"]["change"]["median"] == 27.25
    # 40 MB of 4 KiB pages over 10 operations: at least 1,024 more faults per op
    faults = {side: [r["minflt_per_op"] for r in doc["runs"]
                     if r["workload"] == "train-b16" and r["side"] == side]
              for side in ("parent", "change")}
    assert all(f > 0 for side in faults.values() for f in side)
    assert w["minflt_per_op"] == {side: statistics.median(f) for side, f in faults.items()}
    assert w["minflt_per_op"]["change"] - w["minflt_per_op"]["parent"] > 1000
    verdicts = {name: m["verdict"] for name, m in w["metrics"].items()}
    assert verdicts == {"clips_per_s": "gain", "op_ms_p50": "gain", "op_ms_tail": "gain",
                        "peak_rss_mb": "no worse", "setup_s": "no worse"}
    assert not any("verdict" in m for m in w["raw_metrics"].values())
    # the change's 40 MB per run more than double its faults: flagged beside each verdict
    assert w["allocator_bound"] is True
    assert "train-b16 clips_per_s: gain, allocator-bound (median 44.5 -> 54.5, 4/4 pairs" in (
        proc.stdout)
    # unscaled op_ms_p50 is 2000 / (base + seed): per pair (40 + s) / (50 + s)
    ratio = round(statistics.median((40.0 + s) / (50.0 + s) for s in (3, 4, 5, 9)), 4)
    assert w["raw_op_ms_p50_ratio"] == ratio
    assert f"train-b16 unscaled op_ms_p50: median per-pair ratio {ratio:g} (" in proc.stdout


@pytest.mark.parametrize("parent_base, change_base, seeds, expected", [
    (50.0, 20.0, "1-4", "worse"),  # 53 -> 23 clips/s: 57% below, bound 25%
    (10.0, 10.5, "1,2,3,40", "unresolved"),  # wins 4/4, but spread 2.4 and gap 0.5
    # 2 pairs: quartiles extrapolate, so the gap (30) is under the parent's
    # IQR (43.5) and its spread is 2.8, but every change run beats every parent run
    (0.0, 30.0, "1,30", "no worse"),
    (40.0, 40.2, "1-10", "no worse"),  # wins 10/10, gap 0.2 under the IQR 5.5
], ids=["worse", "unresolved", "all-runs-better", "small-gap"])
def test_verdicts(tmp_path, parent_base, change_base, seeds, expected):
    parent = make_tree(tmp_path / "parent", "p", parent_base)
    change = make_tree(tmp_path / "change", "c", change_base)
    proc, _, out = run_pairs(tmp_path, parent, change, "--workload", "infer-b1",
                             "--seeds", seeds, "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    workload = json.loads(out.read_text())["workloads"]["infer-b1"]
    assert workload["metrics"]["clips_per_s"]["verdict"] == expected
    assert workload["allocator_bound"] is False  # both sides touch the same memory
    assert f"infer-b1 clips_per_s: {expected} (" in proc.stdout


def test_failed_operations_or_runs_exit_1(tmp_path):
    parent = make_tree(tmp_path / "parent", "p", 40.0)
    change = make_tree(tmp_path / "change", "c", 50.0, failed=1)
    proc, _, out = run_pairs(tmp_path, parent, change, "--workload", "infer-b1",
                             "--seeds", "1,2")
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert doc["workloads"]["infer-b1"]["failed"] == {"parent": 0, "change": 2}

    (change / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    proc, _, _ = run_pairs(tmp_path, parent, change, "--workload", "infer-b1", "--seeds", "1,2")
    assert proc.returncode == 1 and "exited 3" in proc.stderr


def test_bad_arguments_are_refused(tmp_path):
    parent = make_tree(tmp_path / "parent", "p", 40.0)
    for extra in (["--workload", "infer-b1", "--seeds", "4"],
                  ["--workload", "infer-b1", "--seeds", "4,4"],
                  ["--workload", "nope", "--seeds", "1-2"]):
        proc, log, _ = run_pairs(tmp_path, parent, parent, *extra)
        assert proc.returncode == 2 and not log.exists()


@pytest.mark.parametrize("checkout", [True, False], ids=["git-checkout", "plain-copy"])
def test_parent_commit_from_git_when_the_report_has_none(tmp_path, checkout):
    parent = make_tree(tmp_path / "parent", "p", 40.0, commit=None)
    change = make_tree(tmp_path / "change", "c", 50.0, commit="def456")
    commit = None
    if checkout:
        git = ["git", "-C", str(parent), "-c", "user.name=t", "-c", "user.email=t@t"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
            subprocess.run(git + args, check=True, capture_output=True)
        commit = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                                text=True).stdout.strip()
    proc, _, out = run_pairs(tmp_path, parent, change, "--workload", "infer-b1",
                             "--seeds", "1,2", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["parent_commit"] == commit
    assert ("parent_commit stays null" in proc.stderr) == (not checkout)
