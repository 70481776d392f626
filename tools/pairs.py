"""Alternating perfbench pairs of two source trees, summarised as a BENCH file.

    python3 tools/pairs.py PARENT CHANGE --workload profile-b16 --workload infer-b1 \\
        --seeds 201-206 --seconds 35 --label conv_gather --change "..." --out BENCH_x.json

Each tree is a checkout with ``perfbench/run.py`` and ``src/spikevid``. For
every workload and seed, the tool runs ``python3 perfbench/run.py --workload
W --seed S --seconds N --trace 0`` once in each tree, each run in its own
process with the tree as working directory, one run at a time. The side that
runs first alternates: the parent for the first seed, the change for the
second, and so on. Every run's result line (the last line of its output) and
report line (the one before it) are kept.

The summary follows ``BENCH_conv_channels_last.json``: per workload and
end-to-end metric (names and the better direction from the parent's
``BENCHMARK.json``), each side's median and quartiles
(``statistics.quantiles``, n=4) over the pairs, ``change_wins`` (pairs the
change is better in, ties counting for neither), the gap between the
medians, the parent's interquartile range and the gap relative to the
parent's median. ``raw_metrics`` does the same for the unscaled wall-clock
figures of each run's report, and ``runs`` keeps every run with its median
host-speed factor and its minor page faults per operation (the run's
``ru_minflt``, from ``getrusage(RUSAGE_CHILDREN)`` around it, over its
attempted operations); each workload holds each side's median of those as
``minflt_per_op``, and ``raw_op_ms_p50_ratio``, the median over the pairs of
the change's unscaled ``op_ms_p50`` over the parent's.

A change that only moves glibc malloc's mmap and trim thresholds moves the
page faults and the times with them, with no float work changed. So when
one side's median ``minflt_per_op`` is more than twice the other's, the
workload is flagged ``allocator_bound`` and its verdicts are printed with
"allocator-bound" beside them. The host-speed scale can also mislead: its
kernel runs slower right after an operation that used a second thread, so
the tool prints each workload's unscaled op-time ratio after its verdicts.

Each end-to-end metric also gets a ``verdict``, printed at the end, from
the metric's ``bound`` (a share of the parent's median) in
``BENCHMARK.json``. The rules are taken in this order:

- ``gain``: the change wins at least nine tenths of the pairs and the median
  gap, in the better direction, exceeds the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``unresolved``: either side's spread (interquartile range over median) is
  wider than the bound, and not every run of the change beats every run of
  the parent;
- ``no worse``: otherwise.

The tool exits 1 if a run printed no result, or reported a failed or
incorrect operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
HOST_KEYS = ("nproc", "blas_threads", "numpy", "openblas", "python")


def parse_seeds(text):
    """``"201-206"`` or ``"5,9,12"`` -> a list of distinct ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ValueError(f"seeds must be distinct and >= 0, got {text!r}")
    return seeds


def minor_faults():
    """Minor page faults of every child process this one has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run_once(tree, workload, seed, seconds):
    """One perfbench run in its own process -> (report, result, minor page faults)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    faults = minor_faults()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    faults = minor_faults() - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), faults


def tree_commit(tree):
    """The commit a tree's own git checkout is at, or None with a warning.
    ``git rev-parse`` finds it where perfbench, which reads ``.git/HEAD``
    itself, reports none: in a worktree, whose ``.git`` is a file, say."""
    try:
        lines = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        lines = []
    # a tree inside another checkout is not at that checkout's commit
    if len(lines) == 2 and Path(lines[0]).resolve() == Path(tree).resolve():
        return lines[1]
    print(f"warning: {tree} is not a git checkout; parent_commit stays null", file=sys.stderr)
    return None


def order(i):
    """Which side runs first in pair ``i``: the parent on even pairs."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, sign, bound):
    """One metric's verdict (module docstring) from each side's values, pair
    by pair; ``sign`` is +1 if higher is better, else -1."""
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med = statistics.median(parent)
    gain = sign * (statistics.median(change) - p_med)
    if wins >= 0.9 * len(parent) and gain > iqr(parent):
        return "gain"
    if -gain > bound * abs(p_med):
        return "worse"
    spread = max(iqr(side) / abs(statistics.median(side)) for side in (parent, change))
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "no worse"


def summarise(values, better, bounds=None):
    """Per-metric statistics over the pairs of one workload. ``values`` maps
    each metric name to each side's list of values, pair by pair; ``better``
    maps each metric name to "lower" or "higher". A metric named in
    ``bounds`` also gets its ``verdict``."""
    metrics = {}
    for name, sides in values.items():
        sign = 1 if better[name] == "higher" else -1
        stats = {side: quartiles(sides[side]) for side in SIDES}
        gap = statistics.median(sides["change"]) - statistics.median(sides["parent"])
        metrics[name] = {
            "better": better[name],
            **stats,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(sides["parent"],
                                                                   sides["change"])),
            "pairs": len(sides["parent"]),
            "median_gap": round(gap, 4),
            "parent_iqr": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4),
            "relative": round(gap / statistics.median(sides["parent"]), 4),
        }
        if bounds and name in bounds:
            metrics[name]["verdict"] = verdict(sides["parent"], sides["change"], sign,
                                               bounds[name])
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pairs", description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed per pair: 201-206 or 5,9,12 (at least 2)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--change", dest="description", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least 2 seeds, for quartiles")
    with open(Path(args.parent) / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    unknown = set(args.workload) - {w["name"] for w in bench["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")

    doc = {
        "label": args.label,
        "change": args.description,
        "parent_commit": None,
        "src_sha256": {},
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "parent/change pairs, one seed per pair, each run in its own process, "
                  "one at a time, the side that runs first alternates (parent first on "
                  "the first seed); medians and quartiles (statistics.quantiles, n=4) over "
                  "the pairs; change_wins counts pairs where the change is better (ties "
                  "count for neither); verdict: gain, worse, unresolved or no worse "
                  "(rules in tools/pairs.py)",
        "host": {},
        "workloads": {},
        "runs": [],
    }
    bad = False
    for workload in args.workload:
        runs = {side: [] for side in SIDES}  # (report, result) per pair
        faults = {side: [] for side in SIDES}  # minor page faults per operation, per pair
        for i, seed in enumerate(args.seeds):
            for side in order(i):
                t0 = time.monotonic()
                try:
                    report, result, minflt = run_once(getattr(args, side), workload, seed,
                                                      args.seconds)
                except (RuntimeError, ValueError) as exc:
                    print(f"{workload} seed {seed} {side}: {exc}", file=sys.stderr)
                    return 1
                runs[side].append((report, result))
                faults[side].append(round(minflt / result["attempted"], 1))
                env = report["env"]
                doc["src_sha256"][side] = env["src_sha256"]
                if side == "parent":
                    doc["parent_commit"] = env["git_commit"]
                doc["host"] = {k: env[k] for k in HOST_KEYS}
                doc["runs"].append({"workload": workload, "seed": seed, "side": side,
                                    "result": result, "raw": report["raw"],
                                    "host_speed_factor_p50": report["host_speed_factor_p50"],
                                    "minflt_per_op": faults[side][-1]})
                bad |= not result["correct"] or result["failed"] > 0
                print(f"{workload} seed {seed} {side}: clips_per_s "
                      f"{result['metrics']['clips_per_s']['value']:.2f} "
                      f"({time.monotonic() - t0:.0f} s)", flush=True)
        scaled = {name: {side: [res["metrics"][name]["value"] for _, res in runs[side]]
                         for side in SIDES} for name in better}
        raw = {name: {side: [rep["raw"][name] for rep, _ in runs[side]] for side in SIDES}
               for name in runs["parent"][0][0]["raw"]}
        minflt = {side: statistics.median(faults[side]) for side in SIDES}
        doc["workloads"][workload] = {
            "seeds": args.seeds,
            "pairs": len(args.seeds),
            "failed": {side: sum(res["failed"] for _, res in runs[side]) for side in SIDES},
            "attempted": {side: sum(res["attempted"] for _, res in runs[side])
                          for side in SIDES},
            "minflt_per_op": minflt,
            "allocator_bound": max(minflt.values()) > 2 * min(minflt.values()),
            "raw_op_ms_p50_ratio": round(statistics.median(
                c / p for p, c in zip(raw["op_ms_p50"]["parent"], raw["op_ms_p50"]["change"])),
                4),
            "metrics": summarise(scaled, better, bounds),
            "raw_metrics": summarise(raw, better),
        }
    if doc["parent_commit"] is None:
        doc["parent_commit"] = tree_commit(args.parent)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, w in doc["workloads"].items():
        flag = ", allocator-bound" if w["allocator_bound"] else ""
        for name, m in w["metrics"].items():
            print(f"{workload} {name}: {m['verdict']}{flag} (median {m['parent']['median']:g} "
                  f"-> {m['change']['median']:g}, {m['change_wins']}/{m['pairs']} pairs, "
                  f"parent IQR {m['parent_iqr']:g})")
        print(f"{workload} unscaled op_ms_p50: median per-pair ratio {w['raw_op_ms_p50_ratio']:g} "
              f"(minflt_per_op {w['minflt_per_op']['parent']:g} -> "
              f"{w['minflt_per_op']['change']:g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
