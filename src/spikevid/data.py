"""Deterministic synthetic clips plus the two evaluation-time corruptions.

Each class is a square blob translating across a toroidal frame with a
class-specific direction and speed. Start positions are uniform, so a single
frame carries no class information: the label is recoverable only by
integrating motion over time.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import container

_DIRECTIONS = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)]
# speeds are chosen so motion survives the model's stride-2 spatial
# downsampling: 1 px/frame is sub-pixel after pooling and nearly unlearnable
_SPEEDS = [2, 4]

BACKGROUND = 0.1
FOREGROUND = 0.9
BLOB = 6  # side of the moving square, in pixels


@dataclass
class ClipDataset:
    clips: np.ndarray  # [num, T, 3, H, W] float32 in [0, 1]
    labels: np.ndarray  # [num] int64
    seed: int
    class_defs: list  # per class: {"direction": [dy, dx], "speed": px/frame}

    def __len__(self):
        return len(self.labels)


def class_definitions(classes):
    combos = [
        {"direction": list(d), "speed": s}
        for s in _SPEEDS
        for d in _DIRECTIONS
    ]
    if not 1 <= classes <= len(combos):
        raise ValueError(f"classes must be in 1..{len(combos)} (the motion classes available), "
                         f"got {classes}")
    return combos[:classes]


def check_frames(T, H, W, blob=BLOB):
    if T < 2:
        raise ValueError("need at least 2 frames for motion classes")
    if blob >= min(H, W):
        raise ValueError(f"pattern size {blob} does not fit {H}x{W} frame")


def gen_moving_patterns(seed, classes=8, num=256, T=8, H=32, W=32, blob=BLOB) -> ClipDataset:
    """Balanced dataset of translating-blob clips, fully determined by seed."""
    check_frames(T, H, W, blob)
    defs = class_definitions(classes)
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.tile(np.arange(classes), -(-num // classes))[:num].astype(np.int64)
    rng.shuffle(labels)
    clips = np.full((num, T, 3, H, W), BACKGROUND, dtype=np.float32)
    ys = rng.integers(0, H, size=num)
    xs = rng.integers(0, W, size=num)
    for i, label in enumerate(labels):
        dy, dx = defs[label]["direction"]
        speed = defs[label]["speed"]
        y, x = int(ys[i]), int(xs[i])
        for t in range(T):
            rows = (np.arange(y, y + blob)) % H
            cols = (np.arange(x, x + blob)) % W
            frame = clips[i, t]
            frame[:, rows[:, None], cols[None, :]] = FOREGROUND
            y = (y + dy * speed) % H
            x = (x + dx * speed) % W
    return ClipDataset(clips=clips, labels=labels, seed=seed, class_defs=defs)


def shuffle_frames(dataset: ClipDataset, seed) -> ClipDataset:
    """Permute each clip's frames independently, destroying motion order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    clips = dataset.clips.copy()
    for i in range(len(clips)):
        clips[i] = clips[i][rng.permutation(clips.shape[1])]
    return ClipDataset(clips=clips, labels=dataset.labels.copy(),
                       seed=dataset.seed, class_defs=dataset.class_defs)


# ---------------------------------------------------------------------------
# noise corruptions


def check_gaussian_level(a):
    if not a >= 0:
        raise ValueError(f"noise level must be non-negative, got {a}")


def check_salt_pepper_level(p):
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def add_gaussian_noise(clips, a, seed):
    """Zero-mean noise with per-frame std a * std(frame); clamped to [0, 1]."""
    check_gaussian_level(a)
    clips = np.asarray(clips, dtype=np.float32)
    if a == 0:
        return clips.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    out = clips.copy()
    flat = out.reshape(-1, *out.shape[-3:])  # [frames, 3, H, W]
    for i in range(flat.shape[0]):
        sigma = a * float(flat[i].std())
        if sigma == 0:
            continue
        flat[i] += rng.normal(0.0, sigma, size=flat[i].shape).astype(np.float32)
    np.clip(out, 0.0, 1.0, out=out)
    return out


def add_salt_pepper(clips, p, seed):
    """Each pixel independently becomes the frame max or min with probability p."""
    check_salt_pepper_level(p)
    clips = np.asarray(clips, dtype=np.float32)
    if p == 0:
        return clips.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    out = clips.copy()
    flat = out.reshape(-1, *out.shape[-3:])
    for i in range(flat.shape[0]):
        hi = float(flat[i].max())
        lo = float(flat[i].min())
        corrupt = rng.random(flat[i].shape) < p
        salt = rng.random(flat[i].shape) < 0.5
        flat[i][corrupt & salt] = hi
        flat[i][corrupt & ~salt] = lo
    return out


# ---------------------------------------------------------------------------
# container file

_MAGIC = b"CLIPSET1"
_VERSION = 1


class DatasetError(RuntimeError):
    pass


def save_dataset(dataset: ClipDataset, path):
    header = json.dumps({
        "shape": list(dataset.clips.shape),
        "seed": dataset.seed,
        "class_defs": dataset.class_defs,
    }, sort_keys=True).encode()
    clips = np.ascontiguousarray(dataset.clips, dtype="<f4")
    labels = np.ascontiguousarray(dataset.labels, dtype="<i8")
    body = struct.pack("<I", len(header)) + header
    body += struct.pack("<Q", clips.nbytes) + clips.tobytes()
    body += struct.pack("<Q", labels.nbytes) + labels.tobytes()
    container.write(path, _MAGIC, _VERSION, body)


def load_dataset(path) -> ClipDataset:
    def parse(r):
        (hlen,) = r.unpack("<I")
        header = json.loads(r.take(hlen).decode())
        shape = tuple(header["shape"])
        seed, class_defs = header["seed"], header["class_defs"]
        (nbytes,) = r.unpack("<Q")
        raw = r.take(nbytes)
        if not (shape and all(isinstance(n, int) and n >= 0 for n in shape)
                and 4 * math.prod(shape) == nbytes):
            raise DatasetError(f"header shape {list(shape)} does not match {nbytes} clip bytes")
        clips = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        (nbytes,) = r.unpack("<Q")
        if nbytes != 8 * shape[0]:
            raise DatasetError(f"{nbytes} label bytes for {shape[0]} clips (8 bytes each)")
        labels = np.frombuffer(r.take(nbytes), dtype="<i8").copy()
        return ClipDataset(clips=clips, labels=labels, seed=seed, class_defs=class_defs)

    return container.read(path, _MAGIC, _VERSION, DatasetError, parse)
