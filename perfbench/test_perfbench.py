"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402


def benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared(kind):
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


# -- wrappers ----------------------------------------------------------------


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_wrappers_restore_the_original_callables():
    target_list = spans.targets() + [
        (Child, "own", spans._static_name("t.own"), None),
        (Child, "inherited", spans._static_name("t.inherited"), None),
    ]
    before = [(owner, attr, getattr(owner, attr), dict(vars(owner)).get(attr))
              for owner, attr, _, _ in target_list]
    tracer = spans.Tracer(target_list)
    tracer.install()
    try:
        for owner, attr, original, _ in before:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
        tracer.op = 0
        assert Child().inherited() == "base" and Child().own() == "own"
    finally:
        tracer.uninstall()
    for owner, attr, original, own in before:
        assert getattr(owner, attr) is original
        assert dict(vars(owner)).get(attr) is own
    assert "inherited" not in vars(Child)
    assert [s.name for s in tracer.spans] == ["t.inherited", "t.own"]


def test_wrapper_closes_its_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise ValueError("boom")

    tracer = spans.Tracer([(Boom, "go", spans._static_name("boom"), None)])
    tracer.install()
    try:
        with pytest.raises(ValueError):
            Boom().go()
    finally:
        tracer.uninstall()
    assert tracer.spans[0].end >= tracer.spans[0].start > 0
    assert tracer._stack == []


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_of_a_span_tree_sum_to_the_root_duration():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a1", 1.5, 2.0, 1, 0),
        S("a2", 2.5, 3.5, 1, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("b1", 5.0, 9.0, 4, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    S = spans.Span
    tree = [S("root", 0.0, 10.0, None, 0), S("x", 2.0, 6.0, 0, 0), S("y", 4.0, 12.0, 0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)  # children cover [2, 10]


def test_layer_metrics_are_means_per_operation():
    tracer = spans.Tracer([])
    S = spans.Span
    for op in (0, 1):
        base = 10.0 * op
        root = len(tracer.spans)
        tracer.spans += [S(spans.ROOT_SPAN, base, base + 4.0, None, op),
                         S("model.forward", base + 1.0, base + 3.0, root, op),
                         S("neurons.forward", base + 1.5, base + 2.5, root + 1, op)]
        tracer.counts[op]["neurons.steps"] += 8
    m = spans.layer_metrics(tracer)
    assert m["trace.op_ms"] == pytest.approx(4000.0)
    assert m["model.forward_ms"] == pytest.approx(1000.0)
    assert m["neurons.forward_ms"] == pytest.approx(1000.0)
    assert m["trace.unattributed_ms"] == pytest.approx(2000.0)
    assert m["neurons.steps"] == 8


# -- names and units -----------------------------------------------------------


def test_every_metric_name_appears_in_benchmark_json_and_the_reverse():
    layer_names = set(spans.layer_metrics(spans.Tracer([]))) | {"trace.overhead_frac"}
    assert declared("per_layer") == {n: run.per_layer_unit(n) for n in layer_names}
    assert declared("end_to_end") == run.END_TO_END_UNITS
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


# -- reference comparison ------------------------------------------------------


def test_compare_accepts_the_reference_and_rejects_a_small_error():
    ref = workloads.load_reference()["train-b16"]
    assert workloads.compare("train-b16", ref, ref) == []
    off = dict(ref, grad_norm_step1=ref["grad_norm_step1"] * (1 + 1e-5))
    assert len(workloads.compare("train-b16", off, ref)) == 1


# -- host-speed scaling ----------------------------------------------------------


def test_op_metrics_scale_each_duration_by_its_host_speed_factor():
    wl = workloads.make("infer-b1", str(run.OUT_DIR))
    times = [0.04, 0.05, 0.06, 0.08]
    raw = run.op_metrics(wl, [(d, 1.0) for d in times])
    assert raw["op_ms_p50"] == pytest.approx(55.0)
    assert raw["clips_per_s"] == pytest.approx(4 / sum(times))
    half = run.op_metrics(wl, [(d, 0.5) for d in times])
    assert half["op_ms_p50"] == pytest.approx(raw["op_ms_p50"] / 2)
    assert half["op_ms_tail"] == pytest.approx(raw["op_ms_tail"] / 2)
    assert half["clips_per_s"] == pytest.approx(2 * raw["clips_per_s"])


def test_host_speed_factor_is_positive_and_finite():
    from hostspeed import HostSpeed

    factor = HostSpeed().factor()
    assert 0 < factor < float("inf")


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_short_run_passes_its_checks(name, trace):
    report, result = run.run(name, seed=1, seconds=0.1, trace=trace, threads=1)
    assert result["correct"] and result["failed"] == 0 and report["failures"] == []
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # self times of every layer plus the loop's own code make up the operation
        layer_ms = sum(values[m] for m in spans.SELF_TIME_METRICS)
        assert layer_ms + values["trace.unattributed_ms"] == pytest.approx(values["trace.op_ms"])
        assert values["model.forward_ms"] > 0 and values["neurons.steps"] > 0
    else:
        assert all(v > 0 for v in values.values())
    assert report["env"]["blas_threads"] == 1 and report["env"]["seed"] == 1


def test_fails_without_printing_a_result_outside_a_checkout():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "infer-b1", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
