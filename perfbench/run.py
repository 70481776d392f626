"""spikevid benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload train-b16 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones from the span trace (operations alternate untraced and
traced, and the difference between the two is reported as the tracing
overhead). Operation and set-up times are scaled to a reference host speed
(``hostspeed.py``). The line before it is a report with the environment,
sample counts, the unscaled figures, failures and the reference comparison.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import ROOT_SPAN, SETUP_SPAN, Tracer, layer_metrics, targets  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = 1  # one client, one thread: the steadiest figures on a small shared host
SETUP_REPS = 3  # set-ups per run; setup_s reports their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-b16", "infer-b1", "profile-b16")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "clips_per_s": "clips/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_threads():
    """Pin BLAS/OpenMP to at most ``nproc`` threads; call before numpy is imported."""
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import spikevid from this checkout's ``src/``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "spikevid" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'spikevid'}; "
              "run from the root of a spikevid checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import spikevid

    if Path(spikevid.__file__).resolve().parent != src / "spikevid":
        print(f"error: spikevid imported from {spikevid.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)


def git_commit():
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the package's Python sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spikevid").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed, threads):
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": nproc(),
        "blas_threads": threads,
        "numpy": np.__version__,
        "openblas": openblas,
        "python": sys.version.split()[0],
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def measure(wl, state, seconds, tracer, speed):
    """Closed loop for ``seconds``. Returns the (duration, host-speed factor)
    pairs of untraced and traced operations, the number attempted and the
    failure messages. With a tracer, every second operation is traced."""
    timings = {False: [], True: []}
    failures = []
    i = 0
    min_ops = 1 if tracer is None else 2  # a traced run needs one traced operation
    deadline = time.perf_counter() + seconds
    while i < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        try:
            factor = speed.factor()
            with tracer.operation(i, ROOT_SPAN) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out = wl.op(state, i)
                finally:
                    dt = time.perf_counter() - t0
            timings[traced].append((dt, factor))
            wl.check(state, i, out)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        i += 1
    return timings, i, failures


def op_metrics(wl, timings):
    """clips/s, median and tail (ms) of the given (duration, factor) pairs; the
    factor scales each duration to the reference host speed (1 for raw times)."""
    scaled = [d * f for d, f in timings]
    return {
        "clips_per_s": wl.clips_per_op * len(scaled) / sum(scaled),
        "op_ms_p50": 1e3 * percentile(scaled, 50),
        "op_ms_tail": 1e3 * percentile(scaled, wl.tail_pct),
    }


def run(workload, seed, seconds, trace, threads):
    """Set up, measure and check one workload; returns (report, result)."""
    import workloads
    from hostspeed import HostSpeed

    import_s = time.perf_counter() - T_START
    speed = HostSpeed()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        wl = workloads.make(workload, work_dir)
        tracer = Tracer(targets()) if trace else None
        setups, state = [], None
        for rep in range(SETUP_REPS):
            state = None  # free the previous set-up before timing the next one
            factor = speed.factor()
            with tracer.operation(f"setup{rep}", SETUP_SPAN) if trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                state = wl.setup(seed)
                setups.append((time.perf_counter() - t0, factor))

        timings, attempted, failures = measure(wl, state, seconds, tracer, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        state = None

        try:
            probe = wl.probe()
            problems = workloads.compare(workload, probe, workloads.load_reference()[workload])
        except Exception as exc:  # counted as one failed operation
            probe = None
            problems = [f"probe: {type(exc).__name__}: {exc}"]
        attempted += 1
        failed = len(failures) + bool(problems)
        failures += problems
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = timings[False]
    if not untraced:
        raise RuntimeError("no operation completed: " + "; ".join(failures[:3]))
    raw = op_metrics(wl, [(d, 1.0) for d, _ in untraced])
    report = {
        "workload": workload,
        "trace": int(trace),
        "env": environment(seed, threads),
        "samples": len(untraced),
        "samples_traced": len(timings[True]),
        "tail_percentile": wl.tail_pct,
        "samples_beyond_tail": sum(1e3 * d > raw["op_ms_tail"] for d, _ in untraced),
        "ops_failed_frac": failed / attempted,
        "failures": failures[:10],
        "probe": probe,
        "import_s": import_s,
        "setup_reps_s": [d for d, _ in setups],
        "raw": raw,  # wall-clock figures, not scaled to the reference host speed
        "host_speed_factor_p50": statistics.median(f for _, f in untraced),
    }
    if trace:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (statistics.median(d for d, _ in timings[True])
                                          / statistics.median(d for d, _ in untraced) - 1.0)
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.dump(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(d * f for d, f in setups),
            "peak_rss_mb": peak_rss_mb,  # before the probe, which runs in float64
            **op_metrics(wl, untraced),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return report, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    threads = pin_threads()
    import_package()
    report, result = run(args.workload, args.seed, args.seconds, args.trace, threads)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
