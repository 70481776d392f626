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
from .neurons import NeuronConfig, SpikingLayer

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

    def frozen_scale_shift(self):
        """Per-(t?, c) multiplier and offset equivalent to eval-mode BN."""
        w = self.gamma.data / np.sqrt(self.running_var + self.eps)
        b = self.beta.data - self.running_mean * w
        return w, b


class _ProfiledLayer(Module):
    """Static profiling metadata of a conv/linear layer; the profiler's
    forward hooks measure what it consumes."""

    def __init__(self):
        super().__init__()
        self.expects_binary = True
        self.is_encoder = False  # first layer: consumes raw frames, billed at MAC cost
        self._fr_source = None  # spiking layer whose rate drives this layer's SOPs

    @property
    def fr_source(self):
        # held privately so module traversal does not treat the alias as a child
        return self._fr_source

    @fr_source.setter
    def fr_source(self, layer):
        self._fr_source = layer


class Conv(_ProfiledLayer):
    """Grouped 2-D/3-D cross-correlation with learnable kernel."""

    def __init__(self, in_channels, out_channels, kernel, rng, stride=1, padding=0,
                 groups=1, bias=False, spatial_rank=2):
        super().__init__()
        kernel = (kernel,) * spatial_rank if isinstance(kernel, int) else tuple(kernel)
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
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros(out_channels, dtype=ad.current_dtype()), requires_grad=True)

    def forward(self, x):
        return ad.conv(x, self.weight, stride=self.stride, padding=self.padding,
                       groups=self.groups, bias=self.bias)

    def macs_per_output(self):
        return math.prod(self.kernel) * (self.in_channels // self.groups)


class Linear(_ProfiledLayer):
    def __init__(self, in_features, out_features, rng, bias=False):
        super().__init__()
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
    """Stage entry: optional spiking layer, then strided ConvBN.

    The first patch-embedding module omits the input neuron so it consumes
    raw real-valued frames; all later ones spike first.
    """

    def __init__(self, in_channels, out_channels, rng, neuron_cfg: NeuronConfig, kernel=3,
                 stride=2, padding=1, has_input_neuron=True, norm_mode=PLAIN_BN, time_steps=1):
        super().__init__()
        self.sn = SpikingLayer(neuron_cfg) if has_input_neuron else None
        self.convbn = ConvBN(in_channels, out_channels, kernel, rng, stride=stride,
                             padding=padding, norm_mode=norm_mode, time_steps=time_steps)

    def forward(self, x):
        if self.sn is not None:
            x = self.sn(x)
        return self.convbn(x)


class FusedLayer(Module):
    """Inference-only ConvBN/LinearBN with eval-mode normalization folded into
    a biased conv/linear: one per time step under TDBN, whose folded scale
    differs per step, or one shared by every step under plain BN.
    """

    def __init__(self, steps):
        super().__init__()
        self.steps = steps  # list of Conv or Linear layers

    def forward(self, x):
        if len(self.steps) > 1:
            if x.shape[0] != len(self.steps):
                raise ad.ShapeError(f"fused TDBN layer has {len(self.steps)} steps, "
                                    f"input has T={x.shape[0]}")
            return ad.stack([self.steps[t](ad.index(x, t, axis=0))
                             for t in range(x.shape[0])], axis=0)
        layer = self.steps[0]
        return per_frame(layer, x) if isinstance(layer, Conv) else layer(x)


def fuse_linear_layers(layer):
    """Fold eval-mode batch normalization into the preceding conv/linear.

    W' = gamma * W / sqrt(var + eps),  b' = gamma * (b - mean) / sqrt(var + eps) + beta.
    Each folded layer keeps the original's profiling metadata.
    """
    if not isinstance(layer, (ConvBN, LinearBN)):
        raise TypeError(f"cannot fuse {type(layer).__name__}")
    if layer.training:
        raise RuntimeError("fusion requires eval mode with frozen statistics")
    w_scale, b_shift = layer.bn.frozen_scale_shift()
    is_conv = isinstance(layer, ConvBN)
    inner = layer.conv if is_conv else layer.linear
    w = inner.weight.data
    # output channels lie on axis 0 of a conv kernel, on the last axis of a linear map
    out_axis = (-1,) + (1,) * (w.ndim - 1) if is_conv else (1, -1)
    base_bias = inner.bias.data if inner.bias is not None else 0.0
    steps = []
    for scale, shift in zip(w_scale, b_shift):  # one (scale, shift) per step under TDBN
        scale, shift = scale.reshape(-1), shift.reshape(-1)  # per out-channel
        folded = copy.copy(inner)
        folded._forward_hooks = {}  # the copy would share the original's hooks
        folded.weight = Tensor((w * scale.reshape(out_axis)).astype(w.dtype))
        folded.bias = Tensor((base_bias * scale + shift).astype(w.dtype))
        steps.append(folded)
    return FusedLayer(steps).eval()
