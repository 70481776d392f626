"""LIF and PLIF spiking neuron layers.

One step of membrane dynamics:

    H = V + kappa * (X - (V - V_reset))      kappa = 1/tau (LIF) or sigmoid(a) (PLIF)
    S = Heaviside(H - V_th)
    V' = H * (1 - S) + V_reset * S

A layer runs all T steps of a [T, ...] input as one multi-step primitive,
``autodiff.lif_sequence``, starting from rest (V = V_reset): the forward
loops over t on plain arrays and records one tape node for the spikes; its
hand-written backward walks t in reverse, carrying dL/dV (backpropagation
through time). The forward spike is exact binary; the backward substitutes
the derivative of a sigmoid of steepness ``surrogate_alpha`` at the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .module import Module


@dataclass
class NeuronConfig:
    kind: str = "PLIF"  # "LIF" | "PLIF"
    v_threshold: float = 1.0
    v_reset: float = 0.0
    tau: float = 2.0
    a_init: float = 0.0
    surrogate_alpha: float = 4.0
    detach_reset: bool = False

    def __post_init__(self):
        if self.kind not in ("LIF", "PLIF"):
            raise ValueError(f"unknown neuron kind {self.kind!r}")
        if self.kind == "LIF" and not self.tau > 1.0:
            raise ValueError(f"LIF requires tau > 1, got {self.tau}")
        if not self.v_threshold > self.v_reset:
            raise ValueError("v_threshold must exceed v_reset")
        if not self.surrogate_alpha > 0:
            raise ValueError("surrogate_alpha must be positive")


class SpikingLayer(Module):
    """Neuron layer: a function of its [T, ...] input. Every call starts from
    rest, so no membrane is kept between calls."""

    def __init__(self, cfg: NeuronConfig, smooth=False):
        super().__init__()
        self.cfg = cfg
        self.smooth = smooth  # replace Heaviside by its sigmoid surrogate (grad checks)
        if cfg.kind == "PLIF":
            self.a = Tensor(np.array(cfg.a_init, dtype=ad.current_dtype()), requires_grad=True)

    def forward(self, x_seq: Tensor) -> Tensor:
        """Spikes [T, ...] of a [T, ...] sequence, from V = v_reset."""
        cfg = self.cfg
        return ad.lif_sequence(
            x_seq, self.a if cfg.kind == "PLIF" else None,
            tau=cfg.tau, v_threshold=cfg.v_threshold, v_reset=cfg.v_reset,
            alpha=cfg.surrogate_alpha, detach_reset=cfg.detach_reset, smooth=self.smooth,
        )

    def effective_tau(self) -> float:
        """Membrane time constant: learned 1/sigmoid(a) for PLIF, fixed for LIF."""
        if self.cfg.kind == "PLIF":
            kappa = _sigmoid_scalar(float(self.a.data))
            # sigmoid underflow (a very negative) is the no-leak limit
            return float("inf") if kappa == 0.0 else 1.0 / kappa
        return self.cfg.tau


def _sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def plif_a_for_tau(tau: float) -> float:
    """The PLIF parameter at which k(a) = 1/tau, i.e. a = -ln(tau - 1)."""
    return -math.log(tau - 1.0)
