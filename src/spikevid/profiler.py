"""Synaptic-operation and energy accounting.

A layer's dense MAC count (its FLOPs) is converted to an estimated
accumulate count via the driving spike tensor's firing rate:

    SOP = fr_in * FLOP

Total energy bills every spike-driven layer at the per-accumulate cost and
the first (frame-encoding) convolution at the per-MAC cost. Exact
accumulate-event counters are provided to audit the estimate.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import SpikingSelfAttention
from .layers import Conv, Linear
from .model import VideoSpikeNet
from .neurons import SpikingLayer

PJ_PER_MJ = 1e9


@dataclass
class EnergyModel:
    e_mac: float = 4.6  # pJ per multiply-accumulate (45 nm process)
    e_ac: float = 0.9  # pJ per accumulate

    def __post_init__(self):
        if self.e_mac <= 0 or self.e_ac <= 0:
            raise ValueError("per-operation energies must be positive")


@dataclass
class LayerCost:
    name: str
    kind: str  # conv | linear | ssa_matmul
    flops: float  # dense MAC count
    fr_in: float  # firing rate of the driving spike tensor
    exact_acs: float | None = None
    mac_billed: bool = False
    sops: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.fr_in <= 1.0:
            raise ValueError(f"firing rate {self.fr_in} outside [0, 1] for {self.name}")
        self.sops = self.fr_in * self.flops


# ---------------------------------------------------------------------------
# exact accumulate counters (diagnostic oracles for the estimate)


def _require_binary(arr, what):
    arr = np.asarray(arr)
    if arr.dtype != np.bool_ and not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what}: operand is not binary")
    return arr


def exact_ac_count_linear(x, out_features):
    """AC events of a linear map on a binary input: one per input 1 per output."""
    x = _require_binary(x, "exact_ac_count_linear")
    return float(x.sum()) * out_features


def exact_ac_count_conv(x, kernel, stride, padding, groups, out_channels):
    """AC events of a conv with a square ``kernel`` on a binary input [B, C, H,
    W]: for each output position, the number of ones in its receptive field.
    """
    x = _require_binary(x, "exact_ac_count_conv")
    ones = np.ones((groups, x.shape[1] // groups, kernel, kernel), dtype=ad.current_dtype())
    with ad.no_grad():
        # one output channel per group counts the ones in that group's field
        field_nnz = ad.conv(ad.tensor(x), ad.tensor(ones), stride=stride,
                            padding=padding, groups=groups).data
    return float(field_nnz.sum(dtype=np.float64)) * (out_channels // groups)


def exact_ac_count_matmul(a, b):
    """AC events of A^T @ B for binary A [K, I] and B [K, J]: accumulations
    happen exactly where a row of A and the same row of B both carry ones.
    """
    a = _require_binary(a, "exact_ac_count_matmul")
    b = _require_binary(b, "exact_ac_count_matmul")
    if a.shape[:-1] != b.shape[:-1]:
        raise ad.ShapeError(f"contraction extents disagree: {a.shape} vs {b.shape}")
    return float((a.sum(axis=-1) * b.sum(axis=-1)).sum(dtype=np.float64))


# ---------------------------------------------------------------------------
# model instrumentation


@dataclass
class InputStats:
    """What one conv/linear layer consumed, and how much it produced."""
    nnz: int = 0
    size: int = 0
    binary: bool = True
    out_count: int = 0


@dataclass
class SpikeStats:
    """The spikes one spiking layer emitted, in total and per time step."""
    total: float = 0.0
    count: int = 0
    step_rates: list = field(default_factory=list)

    def rate(self):
        return self.total / self.count if self.count else 0.0


class Recording:
    """Forward hooks on every module of ``model``, attached only inside the
    ``with`` block. They fill ``inputs`` (conv/linear layer -> InputStats),
    ``spikes`` (spiking layer -> SpikeStats) and ``attn`` (attention block ->
    exact K^T V accumulate count summed over its forwards, from the spikes of
    its sn_k/sn_v, held only until the block's own forward returns).
    """

    def __init__(self, model):
        self.model = model
        self.names = {}  # module -> dotted name
        self.inputs = {}
        self.spikes = {}
        self.attn = {}
        self._kv = {}  # attention block -> {sn_k|sn_v: spikes} of its running forward
        self._handles = []

    def __enter__(self):
        for name, m in self.model.modules():
            self.names[m] = name
            if isinstance(m, (Conv, Linear)):
                self.inputs[m] = InputStats()
                self._attach(m, self._on_linear)
            elif isinstance(m, SpikingLayer):
                self.spikes[m] = SpikeStats()
                self._attach(m, self._on_spikes)
            elif isinstance(m, SpikingSelfAttention):
                self.attn[m] = 0.0
                for sn in (m.sn_k, m.sn_v):
                    self._attach(sn, functools.partial(self._on_kv, m))
                self._attach(m, self._on_attention)
        return self

    def __exit__(self, *exc):
        for handle in self._handles:
            handle.remove()
        self._handles.clear()
        self._kv.clear()

    def _attach(self, module, hook):
        self._handles.append(module.register_forward_hook(hook))

    def _on_linear(self, layer, args, out):
        stats = self.inputs[layer]
        data = args[0].data
        spikes = data.dtype == np.bool_  # binary by its dtype
        if spikes:
            nnz = int(np.count_nonzero(data))
        else:  # count the zeros of a bool array: count_nonzero takes a slow
            # per-element path on floats (NaN counts as nonzero, -0.0 as zero)
            nnz = data.size - int(np.count_nonzero(data == 0))
        stats.nnz += nnz
        stats.size += data.size
        if stats.binary and not spikes:  # binary iff every nonzero is a 1
            stats.binary = int(np.count_nonzero(data == 1)) == nnz
        stats.out_count += out.data.size

    def _on_spikes(self, layer, args, out):
        stats = self.spikes[layer]
        data = out.data
        n = data[0].size
        rows = data.reshape(len(data), n)
        if data.dtype == np.bool_:
            # each step's count, which s_t.sum() gave exactly, and the float
            # dtype of the spikes: the membrane's, from the input and the leak
            sums = [np.count_nonzero(row) for row in rows]
            dtype = np.result_type(args[0].data, *(p.data for p in layer.parameters()))
        else:  # smooth spikes
            sums, dtype = rows.sum(axis=1).tolist(), data.dtype
        for total in sums:
            stats.total += total
        stats.count += data.size
        # s_t.mean(): the float64 quotient of the step sum, in that dtype
        stats.step_rates.extend((np.array(sums, np.float64) / n).astype(dtype).tolist())

    def _on_kv(self, block, layer, args, out):
        self._kv.setdefault(block, {})[layer] = out.data

    def _on_attention(self, block, args, out):
        kv = self._kv.pop(block)
        self.attn[block] += exact_ac_count_matmul(kv[block.sn_k], kv[block.sn_v])

    def firing_rates(self):
        return {self.names[m]: stats.rate() for m, stats in self.spikes.items()}

    def traces(self):
        return {self.names[m]: list(stats.step_rates) for m, stats in self.spikes.items()}


def record(model: VideoSpikeNet, clips, batch_size=16) -> Recording:
    """One eval pass over ``clips`` [N, T, C, H, W], recorded."""
    with Recording(model) as rec:
        model.predict(clips, batch_size)
    return rec


def record_firing_rates(model: VideoSpikeNet, clips, batch_size=16):
    """Average firing rate and per-step trace for every spiking layer."""
    rec = record(model, clips, batch_size)
    return rec.firing_rates(), rec.traces()


def audit_binarity(model: VideoSpikeNet, clips, batch_size=16):
    """Check that every spike-fed conv/linear layer saw only {0, 1} inputs.

    Returns the list of violating layer names (empty on a clean pass).
    """
    rec = record(model, clips, batch_size)
    return [rec.names[m] for m, stats in rec.inputs.items()
            if m.expects_binary and not stats.binary]


def build_cost_table(model: VideoSpikeNet, clips, batch_size=16, exact=False):
    """Run the eval set through the model and assemble per-layer costs."""
    return cost_table(record(model, clips, batch_size), len(clips), exact)


def cost_table(rec: Recording, num_clips, exact=False):
    """Per-layer costs of a recording of ``num_clips`` clips.

    All counts are normalized per clip (the paper's figures are per video).
    """
    table = []
    for m, stats in rec.inputs.items():
        if stats.out_count == 0:
            continue
        fr = rec.spikes[m.fr_source].rate() if m.fr_source is not None else stats.nnz / stats.size
        kind = "conv" if isinstance(m, Conv) else "linear"
        table.append(LayerCost(name=rec.names[m], kind=kind, fr_in=fr, mac_billed=m.is_encoder,
                               flops=float(stats.out_count) * m.macs_per_output() / num_clips))
    for block, exact_kv in rec.attn.items():
        q = rec.spikes[block.sn_q]
        if q.count == 0:
            continue
        name = rec.names[block]
        # K^T V and Q (K^T V) each take T*B*N*C*C MACs: C per element of Q
        C = block.q_proj.linear.out_features
        flops = q.count * C / num_clips
        table.append(LayerCost(
            name=f"{name}.kv", kind="ssa_matmul", flops=flops,
            fr_in=rec.spikes[block.sn_k].rate(),
            exact_acs=exact_kv / num_clips if exact else None,
        ))
        table.append(LayerCost(
            name=f"{name}.qkv", kind="ssa_matmul", flops=flops, fr_in=q.rate(),
            exact_acs=q.total * C / num_clips if exact else None,
        ))
    return table


def total_energy(table):
    """Aggregate a cost table into the spiking and dense-counterpart energies."""
    energy = EnergyModel()
    flops_mac = sum(c.flops for c in table if c.mac_billed)
    sops_ac = sum(c.sops for c in table if not c.mac_billed)
    dense_flops = sum(c.flops for c in table)
    report = energy_from_totals(flops_mac, sops_ac)
    report["ann_total_flops"] = dense_flops
    report["ann_energy_mJ"] = energy.e_mac * dense_flops / PJ_PER_MJ
    if report["ann_energy_mJ"] > 0:
        report["ratio"] = report["energy_mJ"] / report["ann_energy_mJ"]
    return report


def energy_from_totals(flops_mac, sops_ac):
    """The headline arithmetic: E = e_ac * SOPs + e_mac * first-layer FLOPs."""
    energy = EnergyModel()
    pj = energy.e_ac * sops_ac + energy.e_mac * flops_mac
    return {
        "total_flops_mac": flops_mac,
        "total_sops": sops_ac,
        "energy_pJ": pj,
        "energy_mJ": pj / PJ_PER_MJ,
    }


def write_profile(table, summary, out_dir):
    """CSV per-layer table plus a JSON aggregate summary."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "layer_costs.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "kind", "flops", "fr", "sops", "exact_acs", "energy_pJ"])
        energy = EnergyModel()
        for c in table:
            pj = c.flops * energy.e_mac if c.mac_billed else c.sops * energy.e_ac
            writer.writerow([
                c.name, c.kind, f"{c.flops:.0f}", f"{c.fr_in:.6f}", f"{c.sops:.1f}",
                "" if c.exact_acs is None else f"{c.exact_acs:.0f}", f"{pj:.1f}",
            ])
    json_path = os.path.join(out_dir, "energy_summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return csv_path, json_path
