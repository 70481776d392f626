"""Span tracing around the package's public callables, patched in at run time.

A ``Tracer`` replaces each target callable with a wrapper that records one
span per call (name, start, end, parent span, operation id) in memory.
``uninstall`` puts the original objects back. Nothing under ``src/`` is
edited: the wrappers are attributes set on the package's modules and classes
while a traced operation runs, and removed after it.

A span's self time is its duration minus the part of its interval that its
child spans cover, so the self times of one operation's spans add up to the
operation's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT_SPAN = "bench.op"  # the benchmark's own loop code around one operation
SETUP_SPAN = "bench.setup"

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    op: int | str  # operation id: an int for measured operations, "setup<k>" for set-up


def _static_name(name):
    return lambda args, kwargs: name


def _conv_name(args, kwargs):
    groups = kwargs.get("groups", args[4] if len(args) > 4 else 1)
    return "autodiff.conv_dw" if groups > 1 else "autodiff.conv_dense"


def _conv_macs(args, kwargs):
    """Multiply-accumulates of one ``ad.conv`` call, from its operand shapes."""
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
    rank = len(w.shape) - 2
    stride = tuple(stride) if isinstance(stride, (tuple, list)) else (stride,) * rank
    padding = tuple(padding) if isinstance(padding, (tuple, list)) else (padding,) * rank
    out = x.shape[0] * w.shape[0]
    for n, k, s, p in zip(x.shape[2:], w.shape[2:], stride, padding):
        out *= (n + 2 * p - k) // s + 1
    per_output = w.shape[1]
    for k in w.shape[2:]:
        per_output *= k
    return out * per_output


def tape_nodes(loss):
    """Nodes a backward sweep from ``loss`` visits: every reachable tensor that
    requires a gradient, the loss included."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


def targets():
    """(owner, attribute, span namer, counter) for every traced callable.

    A counter receives (tracer, args, kwargs) before the call.
    """
    from spikevid import autodiff as ad
    from spikevid import blocks, data, layers, model, neurons, profiler, training

    def count_steps(tracer, args, kwargs):
        tracer.count("neurons.steps", args[1].shape[0])  # args[0] is the layer

    def count_conv(tracer, args, kwargs):
        kind = _conv_name(args, kwargs)
        tracer.count(f"{kind}.calls", 1)
        tracer.count(f"{kind}.macs", _conv_macs(args, kwargs))

    def count_tape(tracer, args, kwargs):
        tracer.count("autodiff.tape_nodes", tape_nodes(args[0]))

    return [
        (model.VideoSpikeNet, "forward", _static_name("model.forward"), None),
        (blocks.LocalFeatureExtractor, "forward", _static_name("blocks.lfe"), None),
        (blocks.SpikingSelfAttention, "forward", _static_name("blocks.ssa"), None),
        (blocks.Mlp, "forward", _static_name("blocks.mlp"), None),
        (blocks.LocalPathway, "forward", _static_name("blocks.local_pathway"), None),
        (blocks.ClassificationHead, "forward", _static_name("blocks.head"), None),
        (layers.BatchNorm, "forward", _static_name("layers.batchnorm"), None),
        (layers.Linear, "forward", _static_name("layers.linear"), None),
        (layers.Conv, "forward", _static_name("layers.conv"), None),
        (neurons.SpikingLayer, "forward", _static_name("neurons.forward"), count_steps),
        (ad, "conv", _conv_name, count_conv),
        (ad, "backward", _static_name("autodiff.backward"), count_tape),
        (training, "cross_entropy", _static_name("training.cross_entropy"), None),
        (training, "clip_gradients", _static_name("training.clip_gradients"), None),
        (training.AdamW, "step", _static_name("training.adamw_step"), None),
        (profiler, "build_cost_table", _static_name("profiler.build_cost_table"), None),
        (profiler, "record_firing_rates", _static_name("profiler.record_firing_rates"),
         None),
        (data, "gen_moving_patterns", _static_name("data.gen"), None),
    ]


class Tracer:
    """Records spans and per-operation counts; one instance per process run."""

    def __init__(self, target_list):
        self.spans: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> count
        self._targets = target_list
        self._stack: list[int] = []
        self._saved = []  # (owner, attribute, value in the owner's own __dict__ or _MISSING)
        self.op = None

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def count(self, name, value):
        self.counts[self.op][name] += value

    @contextlib.contextmanager
    def operation(self, op, root_name):
        """Install the wrappers and open a root span for operation ``op``."""
        self.install()
        self.op = op
        index = self.open(root_name)
        try:
            yield
        finally:
            self.close(index)
            self.uninstall()

    # -- patching ------------------------------------------------------------

    def _wrap(self, original, namer, counter):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(tracer, args, kwargs)
            index = tracer.open(namer(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, namer, counter in self._targets:
            own = vars(owner).get(attr, _MISSING)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self._wrap(getattr(owner, attr), namer, counter))

    def uninstall(self):
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved = []

    def dump(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append((s.end - s.start) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def _under(spans, index, prefix):
    """Whether an ancestor of span ``index`` has a name starting with ``prefix``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


# per-layer metric -> span whose self time it reports (ms per operation)
SELF_TIME_METRICS = {
    "model.forward_ms": "model.forward",
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.conv_dw.fwd_ms": "autodiff.conv_dw",
    "autodiff.conv_dense.fwd_ms": "autodiff.conv_dense",
    "neurons.forward_ms": "neurons.forward",
    "layers.batchnorm.fwd_ms": "layers.batchnorm",
    "layers.linear.fwd_ms": "layers.linear",
    "layers.conv.fwd_ms": "layers.conv",
    "blocks.lfe.fwd_ms": "blocks.lfe",
    "blocks.ssa.fwd_ms": "blocks.ssa",
    "blocks.mlp.fwd_ms": "blocks.mlp",
    "blocks.local_pathway.fwd_ms": "blocks.local_pathway",
    "blocks.head.fwd_ms": "blocks.head",
    "training.cross_entropy_ms": "training.cross_entropy",
    "training.clip_gradients_ms": "training.clip_gradients",
    "training.adamw_step_ms": "training.adamw_step",
    "profiler.build_cost_table_ms": "profiler.build_cost_table",
    "profiler.record_firing_rates_ms": "profiler.record_firing_rates",
}
# per-layer metrics that are counters (count per operation)
COUNT_METRICS = (
    "autodiff.tape_nodes",
    "autodiff.conv_dw.calls",
    "autodiff.conv_dw.macs",
    "autodiff.conv_dense.calls",
    "autodiff.conv_dense.macs",
    "neurons.steps",
)


def layer_metrics(tracer):
    """Per-layer means over the traced operations, plus the tracing bookkeeping.

    Times are self times in ms per operation; counts are per operation.
    ``data.gen_ms`` is per set-up, the only place data is generated.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops = sorted({s.op for s in spans if isinstance(s.op, int)})
    setups = {s.op for s in spans if isinstance(s.op, str)}
    n_ops = max(len(ops), 1)
    by_name = defaultdict(float)
    op_wall = unattributed = 0.0
    forward_passes = 0
    gen = 0.0
    for i, (s, self_s) in enumerate(zip(spans, selfs)):
        if isinstance(s.op, str):
            if s.name == "data.gen":
                gen += self_s
            continue
        by_name[s.name] += self_s
        if s.name == ROOT_SPAN:
            op_wall += s.end - s.start
            unattributed += self_s
        elif s.name == "model.forward" and _under(spans, i, "profiler."):
            forward_passes += 1
    metrics = {m: 1e3 * by_name[span] / n_ops for m, span in SELF_TIME_METRICS.items()}
    for m in COUNT_METRICS:
        metrics[m] = sum(tracer.counts[op][m] for op in ops) / n_ops
    metrics["profiler.forward_passes"] = forward_passes / n_ops
    metrics["data.gen_ms"] = 1e3 * gen / max(len(setups), 1)
    metrics["trace.op_ms"] = 1e3 * op_wall / n_ops
    metrics["trace.unattributed_ms"] = 1e3 * unattributed / n_ops
    return metrics
