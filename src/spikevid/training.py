"""Loss, optimizer, schedule, and the train/eval loops.

Training unrolls the network over the clip's time steps and backpropagates
through the whole unrolled graph; spike nodes use their surrogate derivative.
The optimizer is an adaptive-moment method with decoupled weight decay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import VideoSpikeNet, time_major
from .profiler import Recording


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    base_lr: float = 1e-3
    warmup_epochs: int = 3
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(f"warmup_epochs must be in [0, epochs), got {self.warmup_epochs}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.grad_clip < 0:
            raise ValueError(f"grad_clip must be >= 0 (0 turns clipping off), got {self.grad_clip}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    top1: float
    lr: float
    firing_rates: dict = field(default_factory=dict)
    taus: dict = field(default_factory=dict)
    wall_time: float = 0.0


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy. ``labels`` are integer class indices."""
    labels = np.asarray(labels)
    B, n_cls = logits.shape
    if labels.shape != (B,):
        raise ad.ShapeError(f"labels shape {labels.shape} does not match batch {B}")
    if labels.min() < 0 or labels.max() >= n_cls:
        raise ValueError(f"label out of range [0, {n_cls})")
    shift = ad.tensor(logits.data.max(axis=1, keepdims=True))  # constant, grad-free
    z = ad.sub(logits, shift)
    log_norm = ad.log(ad.reduce_sum(ad.exp(z), axes=(1,), keepdims=True))
    log_probs = ad.sub(z, log_norm)
    onehot = np.zeros((B, n_cls), dtype=logits.data.dtype)
    onehot[np.arange(B), labels] = 1.0
    picked = ad.reduce_sum(ad.mul(log_probs, ad.tensor(onehot)))
    return ad.scale(picked, -1.0 / B)


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.cfg = cfg
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            g = g.astype(np.float64)
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1 - cfg.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            new = p.data.astype(np.float64)
            new -= lr * cfg.weight_decay * new
            new -= lr * update
            p.data = new.astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        factor = (max_norm / norm).__float__()
        for g in grads:
            g *= np.asarray(factor, dtype=g.dtype)
    return norm


def lr_at(step, steps_per_epoch, cfg: TrainConfig):
    """Linear warmup over the first warmup epochs, then half-cosine decay to 0."""
    total = cfg.epochs * steps_per_epoch
    warmup = cfg.warmup_epochs * steps_per_epoch
    if warmup > 0 and step < warmup:
        return cfg.base_lr * (step + 1) / warmup
    progress = (step - warmup) / max(1, total - warmup)
    return cfg.base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def check_num_clips(num_clips, label):
    """The one bound on a clip count: each split needs at least one clip.
    ``label`` names the count in the error."""
    if num_clips < 1:
        raise ValueError(f"{label}: empty dataset ({num_clips} clips)")


def evaluate(model: VideoSpikeNet, clips, labels, batch_size=16) -> float:
    """Top-1 accuracy over the dataset; eval mode, frozen statistics."""
    check_num_clips(len(labels), "evaluation set")
    return int((model.predict(clips, batch_size) == labels).sum()) / len(labels)


def tau_table(model: VideoSpikeNet):
    return {name: layer.effective_tau() for name, layer in model.spiking_layers()}


def fit(model: VideoSpikeNet, train_clips, train_labels, cfg: TrainConfig,
        test_clips=None, test_labels=None, callback=None):
    """Full training run: each epoch takes one shuffled pass of BPTT steps
    over the training set, then, given a test set, one recorded eval.
    Returns the list of per-epoch metrics."""
    check_num_clips(len(train_labels), "training set")
    optimizer = AdamW(model.parameters(), cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    steps_per_epoch = int(np.ceil(len(train_labels) / cfg.batch_size))
    history = []
    for epoch in range(cfg.epochs):
        model.train()
        start = time.time()
        losses = []
        order = rng.permutation(len(train_labels))
        for step_idx, lo in enumerate(range(0, len(train_labels), cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            lr = lr_at(epoch * steps_per_epoch + step_idx, steps_per_epoch, cfg)
            loss = cross_entropy(model(ad.tensor(time_major(train_clips[batch]))),
                                 train_labels[batch])
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise FloatingPointError(f"non-finite loss ({loss_val})")
            optimizer.zero_grad()
            ad.backward(loss)
            clip_gradients(optimizer.params, cfg.grad_clip)
            optimizer.step(lr)
            losses.append(loss_val)
        taus, wall_time = tau_table(model), time.time() - start
        top1, firing_rates = float("nan"), {}
        if test_clips is not None:
            with Recording(model) as rec:
                top1 = evaluate(model, test_clips, test_labels, cfg.batch_size)
            firing_rates = rec.firing_rates()
        metrics = EpochMetrics(epoch=epoch, train_loss=float(np.mean(losses)), top1=top1,
                               lr=float(lr), firing_rates=firing_rates, taus=taus,
                               wall_time=wall_time)
        history.append(metrics)
        if callback is not None:
            callback(metrics)
    model.eval()
    return history
