"""Full network assembly, named size variants, and checkpointing.

The backbone is hierarchical: each stage opens with a patch-embedding module
(stride-2 ConvBN, spiking input except the very first) followed by local
feature extractors in the early stages and global self-attention blocks in
the late ones. A local pathway taps the third stage's embedding output and is
channel-concatenated with the last stage's output before the classification
head.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import container
from .blocks import ClassificationHead, GlobalSelfAttention, LocalFeatureExtractor, LocalPathway
from .layers import NORM_MODES, TDBN, PatchEmbed
from .module import Module
from .neurons import NeuronConfig, SpikingLayer


@dataclass
class ModelConfig:
    stage_depths: tuple = (1, 1, 2, 1)
    channels: tuple = (16, 32, 48, 64)
    time_steps: int = 8
    in_height: int = 32
    in_width: int = 32
    in_channels: int = 3
    num_classes: int = 8
    use_local_pathway: bool = True
    norm_mode: str = TDBN
    mlp_ratio: int = 2
    dw_kernel: int = 5
    attn_scale: float = 0.125
    pe_kernel: int = 3
    pe_stride: int = 2
    pe_padding: int = 1
    neuron: NeuronConfig = field(default_factory=NeuronConfig)

    def __post_init__(self):
        self.stage_depths = tuple(self.stage_depths)
        self.channels = tuple(self.channels)
        if len(self.stage_depths) != len(self.channels):
            raise ValueError("stage_depths and channels must have equal length")
        if len(self.stage_depths) not in (3, 4):
            raise ValueError("3 or 4 stages supported")
        if any(d < 1 for d in self.stage_depths):
            raise ValueError("all stage depths must be >= 1")
        if any(c < 1 for c in self.channels):
            raise ValueError("all channels must be >= 1")
        for name in ("time_steps", "in_channels", "num_classes", "in_height", "in_width",
                     "pe_kernel", "pe_stride", "dw_kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.pe_padding < 0:
            raise ValueError("pe_padding must be >= 0")
        if self.mlp_ratio < 1:
            raise ValueError("mlp_ratio must be >= 1")
        if self.attn_scale <= 0:
            raise ValueError("attn_scale must be positive")
        if self.dw_kernel % 2 == 0:
            raise ValueError("dw_kernel must be odd")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"unknown norm mode {self.norm_mode!r}")
        if len(self.stage_depths) == 3 and self.use_local_pathway:
            raise ValueError("the 3-stage layout has no local pathway")
        if min(self.spatial_after(self.num_stages)) < 1:
            raise ValueError("input extent too small for the configured strides")

    @property
    def num_stages(self):
        return len(self.stage_depths)

    @property
    def local_stages(self):
        return 2 if self.num_stages == 4 else 1

    def spatial_after(self, stage):
        h, w = self.in_height, self.in_width
        for _ in range(stage):
            h = (h + 2 * self.pe_padding - self.pe_kernel) // self.pe_stride + 1
            w = (w + 2 * self.pe_padding - self.pe_kernel) // self.pe_stride + 1
        return h, w

    def to_dict(self):
        d = asdict(self)
        d["stage_depths"] = list(self.stage_depths)
        d["channels"] = list(self.channels)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        neuron = d.pop("neuron", {})
        if isinstance(neuron, dict):
            neuron = NeuronConfig(**neuron)
        return cls(neuron=neuron, **d)

    def digest(self):
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


# paper-scale named variants (224x224 inputs, 101 classes, 16 steps) plus the
# desk-scale default used throughout the tests
VARIANTS = {
    "base": dict(stage_depths=(1, 1, 3, 1), channels=(128, 256, 384, 512)),
    "ss": dict(stage_depths=(1, 1, 2, 1), channels=(128, 256, 384, 512)),
    "st": dict(stage_depths=(1, 1, 3, 1), channels=(64, 128, 256, 512)),
    "dp": dict(stage_depths=(1, 2, 4, 2), channels=(128, 256, 384, 512)),
    "wd": dict(stage_depths=(1, 1, 3, 1), channels=(128, 256, 512, 768)),
    "3stg": dict(stage_depths=(1, 2, 1), channels=(64, 128, 256),
                 use_local_pathway=False, in_height=128, in_width=128,
                 num_classes=11),
}


def variant_config(name, **overrides):
    if name == "tiny":
        return replace(ModelConfig(), **overrides)
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS) + ['tiny']}")
    base = dict(time_steps=16, in_height=224, in_width=224, num_classes=101)
    base.update(VARIANTS[name])
    base.update(overrides)
    return ModelConfig(**base)


def time_major(clips):
    """Clips [N, T, C, H, W] -> the contiguous [T, N, C, H, W] batch a forward takes."""
    return np.ascontiguousarray(clips.transpose(1, 0, 2, 3, 4))


class VideoSpikeNet(Module):
    """The assembled network. One instance runs one forward/backward at a time."""

    def __init__(self, cfg: ModelConfig, seed=0):
        super().__init__()
        self.cfg = cfg
        self.seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        self.patch_embeds = []
        self.stages = []
        in_c = cfg.in_channels
        for i, (depth, out_c) in enumerate(zip(cfg.stage_depths, cfg.channels)):
            self.patch_embeds.append(PatchEmbed(cfg, in_c, out_c, rng, encoder=(i == 0)))
            block = LocalFeatureExtractor if i < cfg.local_stages else GlobalSelfAttention
            self.stages.append([block(cfg, out_c, rng) for _ in range(depth)])
            in_c = out_c

        final_c = cfg.channels[-1]
        self.local_pathway = None
        head_c = final_c
        if cfg.use_local_pathway:
            # taps the third patch-embedding output (stage index 2)
            self.local_pathway = LocalPathway(cfg, cfg.channels[2], final_c, rng)
            head_c = 2 * final_c
        self.head = ClassificationHead(cfg, head_c, *cfg.spatial_after(cfg.num_stages), rng)

    def spiking_layers(self):
        return [(name, m) for name, m in self.modules() if isinstance(m, SpikingLayer)]

    def reset_states(self):
        """No-op, kept for old callers: every spiking layer starts from rest."""

    def forward(self, clip):
        """clip: a Tensor [T, B, 3, H, W] -> logits [B, num_classes]. Every clip
        starts from rest, since no spiking layer keeps a membrane between calls."""
        cfg = self.cfg
        expected = (cfg.time_steps, clip.shape[1], cfg.in_channels, cfg.in_height, cfg.in_width)
        if clip.shape != expected:
            raise ad.ShapeError(f"clip shape {clip.shape}, expected {expected}")

        x = clip
        lp_input = None
        for i, (pe, blocks) in enumerate(zip(self.patch_embeds, self.stages)):
            x = pe(x)
            if i == 2 and self.local_pathway is not None:
                lp_input = x
            for block in blocks:
                x = block(x)
        if self.local_pathway is not None:
            x = ad.concat([x, self.local_pathway(lp_input)], axis=2)
        return self.head(x)

    def predict(self, clips, batch_size):
        """Predicted classes of a clip set [N, T, C, H, W]: eval mode, no tape,
        ``batch_size`` clips per time-major forward."""
        self.eval()
        pred = np.empty(len(clips), dtype=np.intp)
        with ad.no_grad():
            for lo in range(0, len(clips), batch_size):
                clip = ad.tensor(time_major(clips[lo:lo + batch_size]))
                pred[lo:lo + batch_size] = self(clip).data.argmax(axis=1)
        return pred


# ---------------------------------------------------------------------------
# checkpoint container

_MAGIC = b"SVCKPT01"
_VERSION = 1
_DTYPES = {"<f4": np.float32, "<f8": np.float64}


def save_checkpoint(model: VideoSpikeNet, path):
    entries = []
    for name, p in model.named_parameters():
        entries.append((name, p.data))
    for name, b in model.named_buffers():
        entries.append((name, b))

    body = bytearray()
    cfg_json = json.dumps(model.cfg.to_dict(), sort_keys=True).encode()
    body += struct.pack("<I", len(cfg_json)) + cfg_json
    body += model.cfg.digest().encode()
    body += struct.pack("<I", model.seed)
    body += struct.pack("<I", len(entries))
    for name, arr in entries:
        nb = name.encode()
        arr = np.asarray(arr, order="C")  # ascontiguousarray would promote 0-d to 1-d
        dt = arr.dtype.newbyteorder("<").str
        if dt not in _DTYPES:
            raise ValueError(f"unsupported dtype {arr.dtype} for {name}")
        body += struct.pack("<H", len(nb)) + nb
        body += dt.encode().ljust(4)
        body += struct.pack("<B", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        raw = arr.astype(dt).tobytes()
        body += struct.pack("<Q", len(raw)) + raw
    container.write(path, _MAGIC, _VERSION, body)


class CheckpointError(RuntimeError):
    pass


def load_checkpoint(path) -> VideoSpikeNet:
    """Rebuild a model from a checkpoint, bit-exactly."""
    def parse(r):
        (cfg_len,) = r.unpack("<I")
        cfg = ModelConfig.from_dict(json.loads(r.take(cfg_len).decode()))
        digest = r.take(64).decode()
        if digest != cfg.digest():
            raise CheckpointError("config digest mismatch")
        (seed,) = r.unpack("<I")
        (count,) = r.unpack("<I")
        arrays = {}
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            name = r.take(name_len).decode()
            dt = r.take(4).decode().strip()
            if dt not in _DTYPES:
                raise CheckpointError(f"unsupported dtype {dt!r} for {name}")
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}I")
            (raw_len,) = r.unpack("<Q")
            arrays[name] = np.frombuffer(r.take(raw_len), dtype=dt).reshape(shape).copy()
        return cfg, seed, arrays

    cfg, seed, arrays = container.read(path, _MAGIC, _VERSION, CheckpointError, parse)
    model = VideoSpikeNet(cfg, seed=seed)
    slots = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    expected = {name: tuple(t.data.shape) for name, t in slots.items()}
    expected.update({name: tuple(b.shape) for name, b in buffers.items()})
    got = {name: tuple(a.shape) for name, a in arrays.items()}
    if expected != got:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        mismatched = sorted(
            n for n in set(expected) & set(got) if expected[n] != got[n]
        )
        raise CheckpointError(
            "checkpoint does not match model: "
            f"missing={missing} extra={extra} shape_mismatch={mismatched}"
        )
    for name, arr in arrays.items():
        if name in slots:
            slots[name].data = arr.astype(slots[name].data.dtype)
        else:
            np.copyto(buffers[name], arr.astype(buffers[name].dtype))
    return model
