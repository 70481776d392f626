"""In-process A/B timing of one perfbench workload on two source trees.

    python3 tools/ab.py TREE_A TREE_B --workload profile-b16 --ops 20 --seed 7

Each tree is a source checkout with ``src/spikevid`` and
``perfbench/workloads.py``. Both are loaded into this one process, each
workload module bound to its own tree's ``spikevid``, and both workloads are
set up from the seed. Then ``--ops`` operations run per tree, alternating
AB, BA, AB, ... so both trees see the same heap, the same host phase and the
same operation index; every output goes through the workload's own check.
After the timed alternation each tree runs one more operation, checked
too, with ``tracemalloc`` on: numpy traces its buffers, so the peak it reads
is what that tree's operation allocates at once, where the RSS of the one
shared process cannot tell the two trees apart. Beside the peak it reads
the traced memory at entry to the tree's ``ad.backward`` (the workload
module's ``ad``; the largest entry if the operation calls it more than
once): what the forward left for the backward, on the tape and in the
caller's hands. The tool prints each tree's median operation time, minor
page faults per operation, traced memory at backward entry ("n/a" for an
operation that runs no backward) and traced peak, the median of the paired
B/A op-time ratios and the number of pairs B won, and exits 1 if any check
failed. BLAS and OpenMP are pinned to one thread, as in
perfbench.

Perfbench runs each tree in its own process and scales its times by a host
speed kernel timed in the heap the operation leaves behind, so a change that
moves the heap moves its scaled figures too; raw op times measured side by
side are the comparison this tool makes. The two trees also share one heap,
though. Left dynamic, glibc malloc's mmap and trim thresholds follow the
largest block either tree frees, for both trees: a change that frees more
memory then reads faster for the parent's page faults (memory returned to
the OS and faulted in again), which a process of its own would not show. So
unless ``GLIBC_TUNABLES`` is already set, the tool runs itself again with
``GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864``,
and it prints the setting it ran under. The page-fault counts show what
cost remains; confirm with perfbench pairs.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import sys
import tempfile
import time
import tracemalloc

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864"
WORKLOADS = ("train-b16", "infer-b1", "profile-b16")


def load_workloads(tree, label):
    """Import ``tree``'s spikevid and its ``perfbench/workloads.py`` as ``label``."""
    src = os.path.join(os.path.abspath(tree), "src")
    path = os.path.join(os.path.abspath(tree), "perfbench", "workloads.py")
    for name in [n for n in sys.modules if n == "spikevid" or n.startswith("spikevid.")]:
        del sys.modules[name]  # the other tree's copy stays bound in its own workloads
    sys.path.insert(0, src)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{label}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
        package = sys.modules["spikevid"].__file__
    finally:
        sys.path.remove(src)
    if os.path.dirname(os.path.realpath(package)) != os.path.realpath(os.path.join(src, "spikevid")):
        raise ImportError(f"{tree}: spikevid imported from {package}, not from {src}")
    return module


def traced_op(module, wl, state, i):
    """One operation with ``tracemalloc`` on: its output, the traced peak
    and the traced memory at entry to ``module.ad.backward`` (bytes; the
    largest entry, or None if the operation made no such call)."""
    ad = getattr(module, "ad", None)
    backward = getattr(ad, "backward", None)
    entries = []

    def entered(*args, **kwargs):
        entries.append(tracemalloc.get_traced_memory()[0])
        return backward(*args, **kwargs)

    if backward is not None:
        ad.backward = entered
    tracemalloc.start()
    try:
        out = wl.op(state, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if backward is not None:
            ad.backward = backward
    return out, peak, max(entries, default=None)


def run(tree_a, tree_b, workload, ops, seed):
    """Run ``ops`` alternating operations per tree, then one traced operation
    per tree. Returns each tree's median op time (s), page faults per op,
    traced memory at backward entry and traced peak (bytes), the median B/A
    ratio, B's win count and the check failures."""
    import numpy as np

    trees = {"A": tree_a, "B": tree_b}
    modules = {label: load_workloads(tree, label) for label, tree in trees.items()}
    times = {label: [] for label in trees}
    faults = {label: [] for label in trees}
    peaks, at_backward = {}, {}
    failures = []

    def check(label, i, out):
        wl, state = runs[label]
        try:
            wl.check(state, i, out)
        except Exception as exc:  # reported, and the loop goes on
            failures.append(f"{label} op {i}: {type(exc).__name__}: {exc}")

    with tempfile.TemporaryDirectory(prefix="ab-") as out_dir:
        runs = {}
        for label, module in modules.items():
            wl = module.make(workload, os.path.join(out_dir, label))
            runs[label] = (wl, wl.setup(seed))
        for i in range(ops):
            for label in ("AB" if i % 2 == 0 else "BA"):
                wl, state = runs[label]
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                out = wl.op(state, i)
                times[label].append(time.perf_counter() - t0)
                faults[label].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
                check(label, i, out)
        for label in trees:  # tracing slows an operation, so none of the timed ones
            wl, state = runs[label]
            out, peaks[label], at_backward[label] = traced_op(modules[label], wl, state, ops)
            check(label, ops, out)
    ratios = np.asarray(times["B"]) / np.asarray(times["A"])
    return {
        "median_s": {label: float(np.median(t)) for label, t in times.items()},
        "faults_p50": {label: float(np.median(f)) for label, f in faults.items()},
        "peak_bytes": peaks,
        "at_backward_bytes": at_backward,
        "ratio_p50": float(np.median(ratios)),
        "b_wins": int(np.sum(ratios < 1.0)),
        "pairs": ops,
        "failures": failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ab", description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.ops < 1 or args.seed < 0:
        parser.error("--ops must be >= 1 and --seed >= 0")
    if "GLIBC_TUNABLES" not in os.environ:  # glibc reads it only at start-up
        os.environ["GLIBC_TUNABLES"] = MALLOC_TUNABLES
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    res = run(args.tree_a, args.tree_b, args.workload, args.ops, args.seed)
    print(f"{args.workload}, seed {args.seed}, {args.ops} operations per tree, alternating")
    print(f"GLIBC_TUNABLES={os.environ['GLIBC_TUNABLES']}")
    for label, tree in (("A", args.tree_a), ("B", args.tree_b)):
        entry = res["at_backward_bytes"][label]
        entry = "n/a" if entry is None else f"{entry / 1e6:.1f} MB"
        print(f"{label} {tree}: median op {1e3 * res['median_s'][label]:.2f} ms, "
              f"{res['faults_p50'][label]:.0f} minor page faults, "
              f"traced at backward entry {entry}, "
              f"traced peak {res['peak_bytes'][label] / 1e6:.1f} MB")
    print(f"B/A op time: median ratio {res['ratio_p50']:.3f}, "
          f"B faster in {res['b_wins']}/{res['pairs']} pairs")
    for message in res["failures"]:
        print(f"check failed: {message}")
    return 1 if res["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
