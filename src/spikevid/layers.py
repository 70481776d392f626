"""Composite linear layers and normalization.

Feature maps travel as [T, B, C, H, W]; token form as [T, B, N, C]. Plain
batch normalization pools statistics over all time steps per channel; the
time-dependent variant (TDBN) computes statistics independently per
(time step, channel) pair so no step ever sees information from later steps.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .module import Module
from .neurons import SpikingLayer

PLAIN_BN = "plain"
TDBN = "tdbn"
NORM_MODES = (PLAIN_BN, TDBN)


def trunc_normal(rng: np.random.Generator, shape, std=0.02):
    vals = rng.standard_normal(shape) * std
    return np.clip(vals, -2 * std, 2 * std).astype(ad.current_dtype())


class BatchNorm(Module):
    """Plain or time-dependent batch normalization over map or token layout."""

    def __init__(self, channels, norm_mode=PLAIN_BN, time_steps=1, layout="map",
                 eps=1e-5, momentum=0.1):
        super().__init__()
        if norm_mode not in NORM_MODES:
            raise ValueError(f"unknown norm mode {norm_mode!r}")
        self.channels = channels
        self.norm_mode = norm_mode
        self.time_steps = time_steps
        self.layout = layout
        self.eps = eps
        self.momentum = momentum
        t = time_steps if norm_mode == TDBN else 1
        if layout == "map":  # [T, B, C, H, W]
            shape = (t, 1, channels, 1, 1)
            self.reduce_axes = (1, 3, 4) if norm_mode == TDBN else (0, 1, 3, 4)
        elif layout == "token":  # [T, B, N, C]
            shape = (t, 1, 1, channels)
            self.reduce_axes = (1, 2) if norm_mode == TDBN else (0, 1, 2)
        elif layout == "vec":  # [B, C], after the temporal axis is consumed
            shape = (1, channels)
            self.reduce_axes = (0,)
        else:
            raise ValueError(f"unknown layout {layout!r}")
        dtype = ad.current_dtype()
        self.gamma = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(shape, dtype=dtype)
        self.running_var = np.ones(shape, dtype=dtype)

    def forward(self, x):
        if self.norm_mode == TDBN and self.layout != "vec" and x.shape[0] != self.time_steps:
            raise ad.ShapeError(
                f"TDBN configured for T={self.time_steps}, input has T={x.shape[0]}"
            )
        if not self.training:
            return ad.batch_norm(x, self.gamma, self.beta, self.reduce_axes, self.eps,
                                 stats=(self.running_mean, self.running_var))[0]
        out, mean, var = ad.batch_norm(x, self.gamma, self.beta, self.reduce_axes, self.eps)
        self.running_mean += self.momentum * (mean - self.running_mean)
        self.running_var += self.momentum * (var - self.running_var)
        return out


class _ProfiledLayer(Module):
    """Static profiling metadata of a conv/linear layer; the profiler's
    forward hooks measure what it consumes."""

    def __init__(self, fr_source=None):
        super().__init__()
        self.is_encoder = False  # first layer: consumes raw frames, billed at MAC cost
        self._fr_source = fr_source  # spiking layer whose rate drives this layer's SOPs

    @property
    def fr_source(self):
        # held privately so module traversal does not treat the alias as a child
        return self._fr_source

    @property
    def expects_binary(self):
        # a layer driven by another layer's spikes, and the encoder, consume real-valued maps
        return self._fr_source is None and not self.is_encoder


class Conv(_ProfiledLayer):
    """Grouped 2-D cross-correlation with learnable kernel: an int ``kernel``
    is a square one, a tuple gives every extent of the weight."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1, padding=0,
                 groups=1, fr_source=None):
        super().__init__(fr_source)
        kernel = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
        if in_channels % groups or out_channels % groups:
            raise ad.ShapeError(
                f"groups={groups} incompatible with channels {in_channels}->{out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = Tensor(
            trunc_normal(rng, (out_channels, in_channels // groups) + kernel),
            requires_grad=True,
        )
        self.bias = None  # set only by the batch-norm fold

    def forward(self, x):
        return ad.conv(x, self.weight, stride=self.stride, padding=self.padding,
                       groups=self.groups, bias=self.bias)

    def macs_per_output(self):
        return math.prod(self.kernel) * (self.in_channels // self.groups)


class Linear(_ProfiledLayer):
    def __init__(self, in_features, out_features, rng, bias=False, fr_source=None):
        super().__init__(fr_source)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(trunc_normal(rng, (in_features, out_features)), requires_grad=True)
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros(out_features, dtype=ad.current_dtype()), requires_grad=True)

    def forward(self, x):
        out = ad.matmul(x, self.weight)
        if self.bias is not None:
            out = ad.add(out, self.bias)
        return out

    def macs_per_output(self):
        return self.in_features


def per_frame(conv, x):
    """Apply a per-frame conv to a [T, B, C, H, W] map."""
    T, B = x.shape[0], x.shape[1]
    out = conv(ad.reshape(x, (T * B,) + x.shape[2:]))
    return ad.reshape(out, (T, B) + out.shape[1:])


class ConvBN(Module):
    """Convolution followed by batch normalization on [T, B, C, H, W] maps."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1, padding=0,
                 groups=1, norm_mode=PLAIN_BN, time_steps=1):
        super().__init__()
        self.conv = Conv(in_channels, out_channels, kernel, rng, stride=stride,
                         padding=padding, groups=groups)
        self.bn = BatchNorm(out_channels, norm_mode=norm_mode, time_steps=time_steps,
                            layout="map")

    def forward(self, x):
        return self.bn(per_frame(self.conv, x))


class LinearBN(Module):
    """Token-wise linear map followed by batch normalization on [T, B, N, C]."""

    def __init__(self, in_features, out_features, rng, norm_mode=PLAIN_BN, time_steps=1):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng)
        self.bn = BatchNorm(out_features, norm_mode=norm_mode, time_steps=time_steps,
                            layout="token")

    def forward(self, x):
        return self.bn(self.linear(x))


class PatchEmbed(Module):
    """Stage entry: optional spiking layer, then strided ConvBN, both set by the
    model's ``ModelConfig``. The first one, the ``encoder``, has no input
    neuron: its conv consumes raw real-valued frames and is billed at MAC
    cost. All later ones spike first."""

    def __init__(self, cfg, in_channels, out_channels, rng, encoder=False):
        super().__init__()
        self.sn = None if encoder else SpikingLayer(cfg.neuron)
        self.convbn = ConvBN(in_channels, out_channels, cfg.pe_kernel, rng, stride=cfg.pe_stride,
                             padding=cfg.pe_padding, norm_mode=cfg.norm_mode,
                             time_steps=cfg.time_steps)
        self.convbn.conv.is_encoder = encoder

    def forward(self, x):
        if self.sn is not None:
            x = self.sn(x)
        return self.convbn(x)


class FusedLayer(Module):
    """Inference-only ConvBN/LinearBN: one conv/linear with the eval-mode
    normalization folded into its weight and bias. Plain BN folds into one
    layer that every step shares. TDBN's folded scale differs per step: a
    linear weight becomes [T, 1, C, D], applied to [T, B, N, C] tokens by one
    broadcast matmul, and a conv becomes one grouped conv with T * groups
    groups, run over the steps stacked on the channel axis.
    """

    def __init__(self, layer, time_steps):
        super().__init__()
        self.layer = layer  # the folded Conv or Linear
        self.time_steps = time_steps  # T under TDBN, None under plain BN

    def forward(self, x):
        T = self.time_steps
        if T is not None and x.shape[0] != T:
            raise ad.ShapeError(f"fused TDBN layer has {T} steps, input has T={x.shape[0]}")
        if not isinstance(self.layer, Conv):
            return self.layer(x)
        if T is None:
            return per_frame(self.layer, x)
        B = x.shape[1]
        stacked = ad.reshape(ad.permute(x, (1, 0, 2, 3, 4)), (B, T * x.shape[2]) + x.shape[3:])
        out = self.layer(stacked)  # [B, T * C_out, H', W']
        out = ad.reshape(out, (B, T, out.shape[1] // T) + out.shape[2:])
        return ad.permute(out, (1, 0, 2, 3, 4))


def fuse_linear_layers(layer):
    """Fold eval-mode batch normalization into the preceding conv/linear.

    W' = gamma * W / sqrt(var + eps),  b' = beta - gamma * mean / sqrt(var + eps).
    The folded layer keeps the original's profiling metadata and MAC count.
    """
    if not isinstance(layer, (ConvBN, LinearBN)):
        raise TypeError(f"cannot fuse {type(layer).__name__}")
    if layer.training:
        raise RuntimeError("fusion requires eval mode with frozen statistics")
    bn = layer.bn
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)  # [t, 1, C, 1, 1] or [t, 1, 1, C]
    shift = bn.beta.data - bn.running_mean * scale
    t = scale.shape[0]  # T under TDBN, 1 under plain BN
    is_conv = isinstance(layer, ConvBN)
    folded = copy.copy(layer.conv if is_conv else layer.linear)
    folded._forward_hooks = {}  # the copy would share the original's hooks
    w, dtype = folded.weight.data, folded.weight.data.dtype
    if is_conv:
        # each step's kernel, scaled per output channel (axis 0), stacked on axis 0
        w = (w * scale.reshape((t, -1) + (1,) * (w.ndim - 1))).reshape((-1,) + w.shape[1:])
        shift = shift.reshape(-1)
        folded.in_channels *= t
        folded.out_channels *= t
        folded.groups *= t
    else:
        w = w * scale  # [t, 1, C_in, D]: output channels on the last axis
    folded.weight = Tensor(w.astype(dtype))
    folded.bias = Tensor(shift.astype(dtype))
    return FusedLayer(folded, t if bn.norm_mode == TDBN else None).eval()
