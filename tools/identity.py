"""Byte-identity check between two source trees.

    PYTHONPATH=<tree>/src python3 tools/identity.py dump OUT.npz [--dtype float64]
    python3 tools/identity.py compare A.npz B.npz

``dump`` runs a fixed workload on the spikevid that ``PYTHONPATH`` selects
and saves every array it produces:

- three BPTT steps of the default model at B=16: the loss, the gradient norm
  and the logits, plus every parameter, gradient and buffer after each step;
- a 2-epoch ``fit`` on 32 clips: each epoch's record without its wall time,
  the ``evaluate`` top-1, the cost table and firing rates of one
  ``profiler.record`` pass, and the bytes of the model's checkpoint;
- one ``profiler.record`` pass of a calibrated model (cost table, firing
  rates and traces). The fitted model does not spike yet, so this is the
  pass that covers nonzero rates and SOPs: a fresh model's BatchNorm running
  statistics are set to those of one train-mode batch (momentum 1, no tape);
- one eval-mode forward of that calibrated model on a tape, and one backward
  from its loss: the logits, the loss and the gradients of the input and of
  every parameter, through frozen-statistics batch norms;
- the batch-norm fold of criterion 11's three layers (plain-BN ConvBN, TDBN
  ConvBN, TDBN LinearBN), each after 10 train-mode passes: the folded weight
  and bias, and the fused layer's output on binary input and that input's
  gradient (a conv with a bias, and a grouped dense conv under TDBN);
- taped primitives, each with a backward from a weighted sum: ``lif_sequence``
  over the branches its backward replays (LIF and PLIF, ``v_reset`` 0.3 and
  -0.0, ``smooth``, ``detach_reset``, and a float32 input under a float64
  leak), once small and once above 1 MB with an odd batch, so that a
  two-thread run splits it into unequal halves; grouped dense convs and
  5x5 depthwise convs (stride 1 and 2, an odd batch above the conv thread
  floor) whose weight and bias take a gradient; and ``batch_norm`` in train
  and eval mode over a 2.2 MB map ``[T, B, C, H, W]`` (statistics per time
  step) and 1.1 MB of tokens ``[T, B, N, C]`` (permuted after it, so that
  its gradient arrives transposed), with gradients for the input, gamma and
  beta; the outputs, statistics and every gradient.

``compare`` prints each key whose dtype, shape or bytes differ between two
dumps, or that only one of them holds, and exits 1 if there is any. Run both
dumps with the same environment (``OPENBLAS_NUM_THREADS`` in particular),
since the BLAS thread count may change the last bits of a sum. ``compare``
imports no spikevid, so it runs without ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

SEED = 41
BATCH = 16
TRAIN_STEPS = 3
FIT_CLIPS = 32
FIT_EPOCHS = 2
FUSED_TRAIN_PASSES = 10


def _flatten(prefix, value, out):
    """Nested dicts of numbers, strings and number lists -> {"a/b/c": ndarray}."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}/{key}", item, out)
    elif value is not None:
        out[prefix] = np.asarray(value)


def _state(model):
    state = {"param": {}, "grad": {}, "buffer": dict(model.named_buffers())}
    for name, p in model.named_parameters():
        state["param"][name] = p.data
        state["grad"][name] = p.grad
    return state


def train_steps():
    from spikevid import autodiff as ad
    from spikevid import training
    from spikevid.data import gen_moving_patterns
    from spikevid.model import ModelConfig, VideoSpikeNet

    ds = gen_moving_patterns(seed=SEED, num=TRAIN_STEPS * BATCH)
    model = VideoSpikeNet(ModelConfig(), seed=SEED)
    model.train()
    cfg = training.TrainConfig()
    optimizer = training.AdamW(model.parameters(), cfg)
    steps = {}
    for i in range(TRAIN_STEPS):
        batch = slice(i * BATCH, (i + 1) * BATCH)
        clip = np.ascontiguousarray(ds.clips[batch].transpose(1, 0, 2, 3, 4))
        logits = model(ad.tensor(clip))
        loss = training.cross_entropy(logits, ds.labels[batch])
        optimizer.zero_grad()
        ad.backward(loss)
        norm = training.clip_gradients(optimizer.params, cfg.grad_clip)
        optimizer.step(cfg.base_lr)
        steps[f"step{i}"] = {"loss": loss.data, "grad_norm": norm, "logits": logits.data,
                             **_state(model)}
    return steps


def fit_run():
    from spikevid import profiler, training
    from spikevid.data import gen_moving_patterns
    from spikevid.model import ModelConfig, VideoSpikeNet, save_checkpoint

    train = gen_moving_patterns(seed=SEED, num=FIT_CLIPS)
    test = gen_moving_patterns(seed=SEED + 1, num=BATCH)
    model = VideoSpikeNet(ModelConfig(), seed=SEED)
    cfg = training.TrainConfig(epochs=FIT_EPOCHS, warmup_epochs=1, seed=SEED)
    history = training.fit(model, train.clips, train.labels, cfg, test.clips, test.labels)
    epochs = {}
    for metrics in history:
        record = asdict(metrics)
        del record["wall_time"]
        epochs[f"epoch{metrics.epoch}"] = record
    top1 = training.evaluate(model, test.clips, test.labels, cfg.batch_size)
    rec = profiler.record(model, test.clips, batch_size=cfg.batch_size)
    table = profiler.cost_table(rec, len(test.clips), exact=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "final.ckpt")
        save_checkpoint(model, path)
        with open(path, "rb") as fh:
            checkpoint = np.frombuffer(fh.read(), dtype=np.uint8)
    return {
        "history": epochs,
        "evaluate_top1": top1,
        "cost_table": {c.name: vars(c) for c in table},
        "firing_rates": rec.firing_rates(),
        "traces": rec.traces(),
        "final": _state(model),
        "checkpoint": checkpoint,
    }


def calibrated_run():
    from spikevid import autodiff as ad
    from spikevid import profiler, training
    from spikevid.data import gen_moving_patterns
    from spikevid.layers import BatchNorm
    from spikevid.model import ModelConfig, VideoSpikeNet

    ds = gen_moving_patterns(seed=SEED + 2, num=BATCH)
    clips = ds.clips
    x = ad.tensor(np.ascontiguousarray(clips.transpose(1, 0, 2, 3, 4)), requires_grad=True)
    model = VideoSpikeNet(ModelConfig(), seed=SEED)
    for _, m in model.modules():
        if isinstance(m, BatchNorm):
            m.momentum = 1.0
    model.train()
    with ad.no_grad():
        model(x)
    rec = profiler.record(model, clips, batch_size=BATCH)
    table = profiler.cost_table(rec, len(clips), exact=True)
    model.eval()
    logits = model(x)
    loss = training.cross_entropy(logits, ds.labels)
    ad.backward(loss)
    return {
        "cost_table": {c.name: vars(c) for c in table},
        "firing_rates": rec.firing_rates(),
        "traces": rec.traces(),
        "eval_tape": {"logits": logits.data, "loss": loss.data, "input_grad": x.grad,
                      "grad": {name: p.grad for name, p in model.named_parameters()}},
    }


def fused_run():
    from spikevid import autodiff as ad
    from spikevid.layers import PLAIN_BN, TDBN, ConvBN, LinearBN, fuse_linear_layers

    rng = np.random.default_rng(SEED)
    cases = {
        "convbn_plain": (ConvBN(4, 6, 3, rng, padding=1, norm_mode=PLAIN_BN), (2, 3, 4, 6, 6)),
        "convbn_tdbn": (ConvBN(4, 4, 3, rng, padding=1, norm_mode=TDBN, time_steps=3),
                        (3, 2, 4, 5, 5)),
        "linearbn_tdbn": (LinearBN(6, 4, rng, norm_mode=TDBN, time_steps=2), (2, 3, 7, 6)),
    }
    out = {}
    for name, (layer, shape) in cases.items():
        for _ in range(FUSED_TRAIN_PASSES):
            layer(ad.tensor(rng.standard_normal(shape)))
        layer.eval()
        fused = fuse_linear_layers(layer)
        x = ad.tensor(rng.random(shape) < 0.3, requires_grad=True)
        y = fused(x)
        upstream = ad.tensor(rng.standard_normal(y.shape))
        ad.backward(ad.reduce_sum(ad.mul(y, upstream)))
        out[name] = {"weight": fused.layer.weight.data, "bias": fused.layer.bias.data,
                     "output": y.data, "input_grad": x.grad}
    return out


# name -> lif_sequence keywords; "leak" is the PLIF parameter's dtype (None:
# LIF), "input" the input's (None: the current precision)
NEURON_CASES = {
    "lif": {"leak": None},
    "lif_reset0p3_detach": {"leak": None, "v_reset": 0.3, "detach_reset": True},
    "plif": {"leak": "current"},
    "plif_reset0p3": {"leak": "current", "v_reset": 0.3},
    "plif_reset_neg0": {"leak": "current", "v_reset": -0.0},
    "plif_smooth": {"leak": "current", "smooth": True},
    "plif_smooth_reset0p3": {"leak": "current", "smooth": True, "v_reset": 0.3},
    "plif_detach": {"leak": "current", "detach_reset": True},
    "plif_input32_leak64": {"leak": "float64", "input": "float32"},
}
# lif_sequence input shapes: small, and above 1 MB (float32) with an odd batch
NEURON_SHAPES = {"small": (8, 4, 6, 5), "large": (8, 17, 64, 32)}
# name -> (x shape, per-channel shape, reduced axes, permutation of the output)
BATCH_NORM_CASES = {
    "map": ((8, 17, 16, 16, 16), (8, 1, 16, 1, 1), (1, 3, 4), None),
    "token": ((8, 17, 64, 32), (1, 1, 1, 32), (0, 1, 2), (0, 1, 3, 2)),
}
# name -> (x shape, w shape, stride, padding, groups)
GROUPED_CONV_CASES = {
    "stride2": ((4, 6, 9, 9), (8, 3, 3, 3), 2, 1, 2),
    "stride1": ((4, 8, 6, 6), (8, 2, 3, 3), 1, 1, 4),
}
# depthwise 5x5 convs of an odd batch whose float32 columns (8.4 MB) exceed
# the conv thread floor, so that a two-CPU run splits their channels
DEPTHWISE_CONV_CASES = {
    "stride1": ((41, 8, 16, 16), (8, 1, 5, 5), 1, 2, 8),
    "stride2": ((41, 32, 16, 16), (32, 1, 5, 5), 2, 2, 32),
}


def taped_run():
    from spikevid import autodiff as ad

    rng = np.random.default_rng(SEED)
    dtype = ad.current_dtype()
    out = {}
    for size, shape in NEURON_SHAPES.items():
        for name, case in NEURON_CASES.items():
            kw = dict(case)
            leak, x_dtype = kw.pop("leak"), kw.pop("input", None) or dtype
            x = ad.Tensor(rng.normal(0.8, 1.0, shape).astype(x_dtype), requires_grad=True)
            a = None
            if leak is not None:
                a = ad.Tensor(np.array(0.3, dtype=dtype if leak == "current" else leak),
                              requires_grad=True)
            s = ad.lif_sequence(x, a, tau=2.5, **kw)
            ad.backward(ad.reduce_sum(ad.mul(s, ad.tensor(rng.standard_normal(x.shape)))))
            key = f"neuron/{name}" if size == "small" else f"neuron_{size}/{name}"
            out[key] = {"spikes": s.data, "input_grad": x.grad,
                        "leak_grad": None if a is None else a.grad}
    for name, (x_shape, channel_shape, axes, axes_after) in BATCH_NORM_CASES.items():
        for mode in ("train", "eval"):
            x, gamma, beta = (ad.tensor(rng.standard_normal(shape), requires_grad=True)
                              for shape in (x_shape, channel_shape, channel_shape))
            stats = None
            if mode == "eval":
                stats = (rng.standard_normal(channel_shape), rng.random(channel_shape) + 0.5)
            y, mean, var = ad.batch_norm(x, gamma, beta, axes, 1e-5, stats)
            z = y if axes_after is None else ad.permute(y, axes_after)
            ad.backward(ad.reduce_sum(ad.mul(z, ad.tensor(rng.standard_normal(z.shape)))))
            out[f"batch_norm/{name}_{mode}"] = {
                "output": y.data, "mean": mean, "var": var, "input_grad": x.grad,
                "gamma_grad": gamma.grad, "beta_grad": beta.grad}
    for kind, cases in (("grouped_conv", GROUPED_CONV_CASES),
                        ("depthwise_conv", DEPTHWISE_CONV_CASES)):
        for name, (x_shape, w_shape, stride, padding, groups) in cases.items():
            x, w, b = (ad.tensor(rng.standard_normal(shape), requires_grad=True)
                       for shape in (x_shape, w_shape, w_shape[:1]))
            y = ad.conv(x, w, stride=stride, padding=padding, groups=groups, bias=b)
            ad.backward(ad.reduce_sum(ad.mul(y, ad.tensor(rng.standard_normal(y.shape)))))
            out[f"{kind}/{name}"] = {"output": y.data, "input_grad": x.grad,
                                     "weight_grad": w.grad, "bias_grad": b.grad}
    return out


def dump(path, dtype):
    from spikevid import autodiff as ad

    arrays = {}
    with ad.precision(dtype):
        _flatten("train", train_steps(), arrays)
        _flatten("fit", fit_run(), arrays)
        _flatten("calibrated", calibrated_run(), arrays)
        _flatten("fused", fused_run(), arrays)
        _flatten("taped", taped_run(), arrays)
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays -> {path}")


def compare(path_a, path_b):
    with np.load(path_a) as a, np.load(path_b) as b:
        keys = sorted(set(a.files) | set(b.files))
        differ = 0
        for key in keys:
            if key not in a.files or key not in b.files:
                reason = f"only in {path_a if key in a.files else path_b}"
            else:
                x, y = a[key], b[key]
                if x.dtype != y.dtype:
                    reason = f"dtype {x.dtype} vs {y.dtype}"
                elif x.shape != y.shape:
                    reason = f"shape {x.shape} vs {y.shape}"
                elif x.tobytes() != y.tobytes():
                    reason = "bytes differ"
                else:
                    continue
            differ += 1
            print(f"{key}: {reason}")
    print(f"{len(keys)} arrays compared, {differ} differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="identity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="run the fixed workload and save its arrays")
    p.add_argument("out")
    p.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    p = sub.add_parser("compare", help="list the arrays two dumps disagree on")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.dtype)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
