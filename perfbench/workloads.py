"""The three workloads: set-up, one operation, its output check, and a probe
that compares a fixed case against the stored reference values.

Every workload uses the default tiny model (PLIF neurons, TDBN, T=8, 32x32
frames, 8 classes) and is a closed loop with one client: each operation
starts when the previous one returns. Inputs and model weights come from the
workload seed; the probe always uses seed 0, so its outputs can be compared
with ``reference.json``.

Package functions are called through their modules (``ad.backward``,
``training.cross_entropy``, ...) and methods through their classes, both looked
up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spikevid import autodiff as ad
from spikevid import data, layers, profiler, training
from spikevid.model import ModelConfig, VideoSpikeNet

BATCH = 16
TRAIN_CLIPS = 64  # four B=16 batches, cycled
INFER_CLIPS = 64  # clips classified one at a time, cycled
PROFILE_CLIPS = 16  # the fixed eval set each profile covers
PROBE_BATCH = 4  # batch of the float64 training probe
TRAIN_CFG = training.TrainConfig()  # default base lr, clip bound and AdamW settings
NUM_CLASSES = ModelConfig().num_classes
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckError(AssertionError):
    """An operation's output failed its check."""


@dataclass
class Workload:
    clips_per_op: int
    tail_pct: int  # percentile reported as op_ms_tail; keeps >= 10 samples beyond it
    setup: Callable[[int], Any]  # seed -> state, after one untimed warm-up operation
    op: Callable[[Any, int], Any]  # (state, i) -> output of operation i
    check: Callable[[Any, int, Any], None]  # raises CheckError on a wrong output
    probe: Callable[[], dict]  # fixed seed-0 case -> values compared with the reference


def _time_major(clips):
    """[N, T, C, H, W] -> contiguous [T, N, C, H, W], the model's input layout."""
    return np.ascontiguousarray(clips.transpose(1, 0, 2, 3, 4))


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def calibrate(model, clips):
    """Set every BatchNorm's running statistics to those of one batch.

    A freshly initialised model never spikes in eval mode (its small initial
    weights leave every membrane below threshold under the default running
    statistics), so eval outputs would not depend on any kernel. One
    train-mode pass under ``no_grad`` with momentum 1 gives eval mode the
    activity train mode has.
    """
    norms = [m for _, m in model.modules() if isinstance(m, layers.BatchNorm)]
    saved = [bn.momentum for bn in norms]
    for bn in norms:
        bn.momentum = 1.0
    model.train()
    with ad.no_grad():
        model.reset_states()
        model(ad.tensor(_time_major(clips)))
    for bn, momentum in zip(norms, saved):
        bn.momentum = momentum
    model.eval()
    model.reset_states()


# ---------------------------------------------------------------------------
# train-b16: BPTT steps


@dataclass
class TrainState:
    model: Any
    optimizer: Any
    batches: list  # (clip [T, B, ...], labels [B])


def _train_state(seed, num, batch=BATCH):
    ds = data.gen_moving_patterns(seed=seed, num=num)
    model = VideoSpikeNet(ModelConfig(), seed=seed)
    model.train()
    optimizer = training.AdamW(model.parameters(), TRAIN_CFG)
    batches = [(_time_major(ds.clips[lo:lo + batch]), ds.labels[lo:lo + batch])
               for lo in range(0, num, batch)]
    return TrainState(model, optimizer, batches)


def train_op(state, i):
    clip, labels = state.batches[i % len(state.batches)]
    model, optimizer = state.model, state.optimizer
    model.reset_states()
    logits = model(ad.tensor(clip))
    loss = training.cross_entropy(logits, labels)
    optimizer.zero_grad()
    ad.backward(loss)
    norm = training.clip_gradients(optimizer.params, TRAIN_CFG.grad_clip)
    optimizer.step(TRAIN_CFG.base_lr)
    return loss.item(), norm


def train_check(state, i, out):
    loss, norm = out
    _require(math.isfinite(loss), f"step {i}: loss {loss} is not finite")
    _require(math.isfinite(norm) and norm > 0, f"step {i}: gradient norm {norm}")


def train_setup(seed):
    state = _train_state(seed, TRAIN_CLIPS)
    train_check(state, -1, train_op(state, 0))
    return state


def train_probe():
    with ad.precision(np.float64):  # B=4 keeps the float64 tape near 350 MB
        state = _train_state(0, PROBE_BATCH, PROBE_BATCH)
        loss1, norm1 = train_op(state, 0)
        loss2, _ = train_op(state, 0)
    return {"loss_step1": loss1, "grad_norm_step1": norm1, "loss_step2": loss2}


# ---------------------------------------------------------------------------
# infer-b1: single-clip eval-mode latency


@dataclass
class InferState:
    model: Any
    clips: list  # one [T, 1, ...] array per clip
    first: dict  # clip index -> logits of its first classification


def _calibrated_model(seed, clips):
    model = VideoSpikeNet(ModelConfig(), seed=seed)
    calibrate(model, clips[:BATCH])
    return model


def infer_op(state, i):
    with ad.no_grad():
        state.model.reset_states()
        return state.model(ad.tensor(state.clips[i % len(state.clips)])).data


def infer_check(state, i, logits):
    _require(logits.shape == (1, NUM_CLASSES), f"logits shape {logits.shape}")
    _require(bool(np.all(np.isfinite(logits))), f"clip {i}: non-finite logits")
    k = i % len(state.clips)
    first = state.first.setdefault(k, logits.copy())
    _require(np.array_equal(first, logits), f"clip {k}: logits differ between repeats")


def infer_setup(seed):
    ds = data.gen_moving_patterns(seed=seed, num=INFER_CLIPS)
    model = _calibrated_model(seed, ds.clips)
    state = InferState(model, [_time_major(ds.clips[k:k + 1]) for k in range(INFER_CLIPS)], {})
    infer_check(state, 0, infer_op(state, 0))
    return state


def infer_probe():
    ds = data.gen_moving_patterns(seed=0, num=BATCH)
    with ad.precision(np.float64):
        state = InferState(_calibrated_model(0, ds.clips), [_time_major(ds.clips[:1])], {})
        return {"logits": [float(v) for v in infer_op(state, 0)[0]]}


# ---------------------------------------------------------------------------
# profile-b16: what `spikevid profile` computes on a fixed eval set


@dataclass
class ProfileState:
    model: Any
    clips: np.ndarray  # [N, T, C, H, W], the fixed eval set
    out_dir: str
    first_energy: float | None = None


def profile_op(state, i):
    table = profiler.build_cost_table(state.model, state.clips, batch_size=BATCH, exact=True)
    summary = profiler.total_energy(table)
    rates, _ = profiler.record_firing_rates(state.model, state.clips, batch_size=BATCH)
    profiler.write_profile(table, summary, state.out_dir)
    return table, summary, rates


def profile_check(state, i, out):
    table, summary, rates = out
    energy = profiler.EnergyModel()
    flops_mac = sum(c.flops for c in table if c.mac_billed)
    sops = sum(c.sops for c in table if not c.mac_billed)
    expect = energy.e_ac * sops + energy.e_mac * flops_mac
    _require(math.isclose(summary["energy_pJ"], expect, rel_tol=1e-9),
             f"energy_pJ {summary['energy_pJ']} != e_ac*SOPs + e_mac*FLOPs_mac = {expect}")
    for c in table:
        _require(0.0 <= c.fr_in <= 1.0, f"{c.name}: fr_in {c.fr_in} outside [0, 1]")
        _require(math.isclose(c.sops, c.fr_in * c.flops, rel_tol=1e-9, abs_tol=1e-9),
                 f"{c.name}: SOPs {c.sops} != fr_in * FLOPs")
        if c.kind == "ssa_matmul":
            _require(c.exact_acs is not None and c.exact_acs <= c.flops,
                     f"{c.name}: exact ACs {c.exact_acs} exceed dense FLOPs {c.flops}")
    _require(all(0.0 <= r <= 1.0 for r in rates.values()), "a firing rate is outside [0, 1]")
    _require(sops > 0, "no synaptic operations: the model did not spike")
    if state.first_energy is None:
        state.first_energy = summary["energy_mJ"]
    _require(summary["energy_mJ"] == state.first_energy,
             f"energy {summary['energy_mJ']} differs from the first profile {state.first_energy}")


def _profile_state(seed, out_dir):
    ds = data.gen_moving_patterns(seed=seed, num=PROFILE_CLIPS)
    return ProfileState(_calibrated_model(seed, ds.clips), ds.clips, out_dir)


def profile_setup(seed, out_dir):
    state = _profile_state(seed, out_dir)
    profile_check(state, 0, profile_op(state, 0))
    return state


def profile_probe(out_dir):
    with ad.precision(np.float64):
        state = _profile_state(0, out_dir)
        out = profile_op(state, 0)
    profile_check(state, 0, out)
    summary = out[1]
    return {"energy_mJ_per_clip": summary["energy_mJ"], "total_sops": summary["total_sops"]}


# ---------------------------------------------------------------------------
# reference comparison

# The probes run in float64, where the model has no spike sitting within
# rounding distance of the threshold: perturbing every weight by 1e-7
# (relative) moves each probe value by at most 3e-7, and a change of
# summation order by ~1e-14. A wrong conv, neuron, norm or optimizer kernel
# moves them by far more than the tolerance; see perfbench/README.md.
REL_TOL = 1e-6


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def compare(name, values, reference):
    """Mismatches between probe values and the stored reference, as messages.

    Scalars compare by relative error; a vector compares by its largest
    absolute difference relative to its largest absolute reference entry.
    """
    problems = []
    for key in reference:
        got, ref = np.asarray(values[key], float), np.asarray(reference[key], float)
        if not np.all(np.isfinite(got)):
            problems.append(f"{name}.{key}: {got.tolist()} is not finite")
            continue
        scale = float(np.max(np.abs(ref))) or 1.0
        err = float(np.max(np.abs(got - ref))) / scale
        if err > REL_TOL:
            problems.append(f"{name}.{key}: {got.tolist()} vs reference {ref.tolist()} "
                            f"(relative error {err:.3g} > {REL_TOL})")
    return problems


def make(name, out_dir):
    """The workload called ``name``; ``out_dir`` receives profile output."""
    if name == "train-b16":
        return Workload(BATCH, 60, train_setup, train_op, train_check, train_probe)
    if name == "infer-b1":
        return Workload(1, 95, infer_setup, infer_op, infer_check, infer_probe)
    if name == "profile-b16":
        return Workload(PROFILE_CLIPS, 70, lambda seed: profile_setup(seed, out_dir),
                        profile_op, profile_check, lambda: profile_probe(out_dir))
    raise ValueError(f"unknown workload {name!r}")

