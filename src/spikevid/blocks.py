"""Network building blocks.

All blocks keep the [T, B, C, H, W] feature-map shape except the
classification head, which collapses time and space into class logits.
Residual connections carry real-valued (pre-spike) membrane features around
each block, so zero-initialized branch weights make every block the identity.
Every block reads its settings (neuron, norm mode, T, MLP ratio, depthwise
kernel, attention scale, patch stride, class count) from the model's
``ModelConfig``.
"""

from __future__ import annotations

from . import autodiff as ad
from .layers import BatchNorm, Conv, Linear, LinearBN, per_frame
from .module import Module
from .neurons import SpikingLayer


def to_tokens(x):
    """[T, B, C, H, W] -> [T, B, H*W, C]"""
    T, B, C, H, W = x.shape
    return ad.reshape(ad.permute(x, (0, 1, 3, 4, 2)), (T, B, H * W, C))


def from_tokens(x, height, width):
    """[T, B, H*W, C] -> [T, B, C, H, W]"""
    T, B, N, C = x.shape
    return ad.permute(ad.reshape(x, (T, B, height, width, C)), (0, 1, 4, 2, 3))


class Mlp(Module):
    """Two SN-Linear-BN motifs expanding C -> r*C -> C, token-wise."""

    def __init__(self, cfg, channels, rng):
        super().__init__()
        hidden = channels * cfg.mlp_ratio
        self.sn1 = SpikingLayer(cfg.neuron)
        self.fc1 = LinearBN(channels, hidden, rng, norm_mode=cfg.norm_mode,
                            time_steps=cfg.time_steps)
        self.sn2 = SpikingLayer(cfg.neuron)
        self.fc2 = LinearBN(hidden, channels, rng, norm_mode=cfg.norm_mode,
                            time_steps=cfg.time_steps)

    def forward(self, x):
        return self.fc2(self.sn2(self.fc1(self.sn1(x))))


class LocalFeatureExtractor(Module):
    """SN -> PWConv -> DWConv -> PWConv -> BN branch plus a token-wise MLP,
    both with membrane-shortcut residuals.
    """

    def __init__(self, cfg, channels, rng):
        super().__init__()
        C, k = channels, cfg.dw_kernel
        self.sn = SpikingLayer(cfg.neuron)
        self.pw1 = Conv(C, C, 1, rng)
        # interior of the cascade consumes real-valued maps, not spikes; the
        # entry SN is still the driving spike source for their SOP accounting
        self.dw = Conv(C, C, k, rng, padding=k // 2, groups=C, fr_source=self.sn)
        self.pw2 = Conv(C, C, 1, rng, fr_source=self.sn)
        self.bn = BatchNorm(C, norm_mode=cfg.norm_mode, time_steps=cfg.time_steps,
                            layout="map")
        self.mlp = Mlp(cfg, C, rng)

    def conv_branch(self, x):
        s = self.sn(x)
        out = per_frame(self.pw1, s)
        out = per_frame(self.dw, out)
        out = per_frame(self.pw2, out)
        return self.bn(out)

    def forward(self, x):
        mid = ad.add(x, self.conv_branch(x))
        H, W = mid.shape[3], mid.shape[4]
        return ad.add(mid, from_tokens(self.mlp(to_tokens(mid)), H, W))


class SpikingSelfAttention(Module):
    """Spike-form Q/K/V attention, evaluated right-to-left as Q @ (K^T @ V) * s.

    Both association orders are mathematically identical; the right-to-left
    order costs O(N * C^2) accumulations instead of O(N^2 * C).
    """

    def __init__(self, cfg, channels, rng):
        super().__init__()
        C = channels
        self.scale = cfg.attn_scale
        self.sn_in = SpikingLayer(cfg.neuron)
        self.q_proj = LinearBN(C, C, rng, norm_mode=cfg.norm_mode, time_steps=cfg.time_steps)
        self.k_proj = LinearBN(C, C, rng, norm_mode=cfg.norm_mode, time_steps=cfg.time_steps)
        self.v_proj = LinearBN(C, C, rng, norm_mode=cfg.norm_mode, time_steps=cfg.time_steps)
        self.sn_q = SpikingLayer(cfg.neuron)
        self.sn_k = SpikingLayer(cfg.neuron)
        self.sn_v = SpikingLayer(cfg.neuron)
        self.sn_attn = SpikingLayer(cfg.neuron)
        self.out_proj = LinearBN(C, C, rng, norm_mode=cfg.norm_mode, time_steps=cfg.time_steps)

    def forward(self, x):
        s_in = self.sn_in(x)
        q = self.sn_q(self.q_proj(s_in))
        k = self.sn_k(self.k_proj(s_in))
        v = self.sn_v(self.v_proj(s_in))
        kt = ad.permute(k, (0, 1, 3, 2))  # [T, B, C, N]
        kv = ad.matmul(kt, v)  # [T, B, C, C]
        attn = ad.scale(ad.matmul(q, kv), self.scale)  # [T, B, N, C]
        return ad.add(x, self.out_proj(self.sn_attn(attn)))


class GlobalSelfAttention(Module):
    """Spiking self-attention followed by a residual MLP; shape preserving."""

    def __init__(self, cfg, channels, rng):
        super().__init__()
        self.ssa = SpikingSelfAttention(cfg, channels, rng)
        self.mlp = Mlp(cfg, channels, rng)

    def forward(self, x):
        H, W = x.shape[3], x.shape[4]
        tok = self.ssa(to_tokens(x))
        out = ad.add(tok, self.mlp(tok))
        return from_tokens(out, H, W)


class LocalPathway(Module):
    """SN -> DWConv -> PWConv -> BN tap from the third stage's input features,
    downsampling by the patch-embedding stride so its output matches the
    final stage's resolution and channel count.
    """

    def __init__(self, cfg, in_channels, out_channels, rng):
        super().__init__()
        k = cfg.dw_kernel
        self.sn = SpikingLayer(cfg.neuron)
        self.dw = Conv(in_channels, in_channels, k, rng, stride=cfg.pe_stride,
                       padding=k // 2, groups=in_channels)
        self.pw = Conv(in_channels, out_channels, 1, rng, fr_source=self.sn)
        self.bn = BatchNorm(out_channels, norm_mode=cfg.norm_mode, time_steps=cfg.time_steps,
                            layout="map")

    def forward(self, x):
        out = per_frame(self.dw, self.sn(x))
        out = per_frame(self.pw, out)
        return self.bn(out)


class FullExtentConv(Conv):
    """The depthwise conv whose kernel spans a [T, B, C, H, W] map's whole
    T x H x W extent: a learnable weighted sum of each channel over time and
    space, run as the per-channel batched matmul [C, B, T*H*W] @ [C, T*H*W,
    1]. It returns [B, C]."""

    def forward(self, x):
        T, B, C, H, W = x.shape
        y = ad.reshape(ad.permute(x, (2, 1, 0, 3, 4)), (C, B, T * H * W))
        y = ad.matmul(y, ad.reshape(self.weight, (C, T * H * W, 1)))  # [C, B, 1]
        return ad.permute(ad.reshape(y, (C, B)), (1, 0))


class ClassificationHead(Module):
    """Learnable weighted sum over time and space via a full-extent depthwise
    conv, then BN and a linear classifier."""

    def __init__(self, cfg, channels, height, width, rng):
        super().__init__()
        self.channels = channels
        self.extent = (cfg.time_steps, height, width)
        self.sn = SpikingLayer(cfg.neuron)
        self.conv3d = FullExtentConv(channels, channels, self.extent, rng, groups=channels)
        self.bn = BatchNorm(channels, layout="vec")
        self.fc = Linear(channels, cfg.num_classes, rng, bias=True, fr_source=self.sn)

    def forward(self, x):
        if x.shape[0] != self.extent[0] or x.shape[3:] != self.extent[1:]:
            raise ad.ShapeError(
                f"head expects [T, B, C, H, W] extents {self.extent}, got {x.shape}"
            )
        return self.fc(self.bn(self.conv3d(self.sn(x))))
