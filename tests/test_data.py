"""Synthetic clip generation, corruption operators, and the container file."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikevid.data import (
    BACKGROUND,
    FOREGROUND,
    ClipDataset,
    DatasetError,
    add_gaussian_noise,
    add_salt_pepper,
    class_definitions,
    gen_moving_patterns,
    load_dataset,
    save_dataset,
    shuffle_frames,
)

from conftest import make_rng


class TestGeneration:
    def test_same_seed_bit_identical(self):
        a = gen_moving_patterns(seed=3, num=32)
        b = gen_moving_patterns(seed=3, num=32)
        np.testing.assert_array_equal(a.clips, b.clips)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = gen_moving_patterns(seed=3, num=32)
        b = gen_moving_patterns(seed=4, num=32)
        assert not np.array_equal(a.clips, b.clips)

    def test_balanced_classes(self):
        ds = gen_moving_patterns(seed=0, classes=8, num=64)
        counts = np.bincount(ds.labels, minlength=8)
        np.testing.assert_array_equal(counts, [8] * 8)

    def test_shape_and_range(self):
        ds = gen_moving_patterns(seed=1, num=8, T=6, H=24, W=40)
        assert ds.clips.shape == (8, 6, 3, 24, 40)
        assert ds.clips.dtype == np.float32
        assert ds.clips.min() >= 0.0 and ds.clips.max() <= 1.0
        assert set(np.unique(ds.clips)) <= {np.float32(BACKGROUND), np.float32(FOREGROUND)}

    def test_single_frames_share_statistics(self):
        # every frame contains exactly one blob: same foreground pixel count
        # regardless of class, so appearance alone cannot separate classes
        ds = gen_moving_patterns(seed=2, num=32, blob=6)
        fg_per_frame = (ds.clips[:, :, 0] == np.float32(FOREGROUND)).sum(axis=(2, 3))
        assert np.all(fg_per_frame == 36)

    def test_blob_actually_moves(self):
        ds = gen_moving_patterns(seed=5, num=8)
        moved = [not np.array_equal(c[0], c[-1]) for c in ds.clips]
        assert all(moved)

    def test_class_count_cap(self):
        with pytest.raises(ValueError):
            gen_moving_patterns(seed=0, classes=99, num=8)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            gen_moving_patterns(seed=0, num=4, H=8, W=8, blob=8)
        with pytest.raises(ValueError):
            gen_moving_patterns(seed=0, num=4, T=1)

    def test_class_definitions_unique(self):
        defs = class_definitions(16)
        assert len({(tuple(d["direction"]), d["speed"]) for d in defs}) == 16

    def test_shuffle_frames_keeps_content(self):
        ds = gen_moving_patterns(seed=6, num=8)
        shuffled = shuffle_frames(ds, seed=1)
        assert shuffled.clips.shape == ds.clips.shape
        # same multiset of frames per clip, different order for most clips
        for orig, shuf in zip(ds.clips, shuffled.clips):
            orig_sorted = np.sort(orig.reshape(orig.shape[0], -1), axis=0)
            shuf_sorted = np.sort(shuf.reshape(shuf.shape[0], -1), axis=0)
            np.testing.assert_array_equal(orig_sorted, shuf_sorted)
        assert not np.array_equal(shuffled.clips, ds.clips)


class TestGaussianNoise:
    def test_zero_level_is_identity(self):
        ds = gen_moving_patterns(seed=7, num=4)
        out = add_gaussian_noise(ds.clips, 0.0, seed=1)
        np.testing.assert_array_equal(out, ds.clips)
        assert out is not ds.clips  # a copy, inputs never mutated

    def test_constant_frame_unchanged(self):
        clips = np.full((2, 3, 3, 8, 8), 0.5, dtype=np.float32)
        out = add_gaussian_noise(clips, 1.0, seed=2)
        np.testing.assert_array_equal(out, clips)

    def test_noise_std_tracks_frame_std(self):
        # large frame so the sample std is tight; low level avoids clamping
        rng = make_rng(8)
        clips = rng.random((1, 1, 3, 64, 64)).astype(np.float32) * 0.5 + 0.25
        a = 0.1
        out = add_gaussian_noise(clips, a, seed=3)
        added = out - clips
        expected = a * clips[0, 0].std()
        assert abs(added.std() - expected) / expected < 0.05

    def test_range_preserved(self):
        ds = gen_moving_patterns(seed=9, num=4)
        out = add_gaussian_noise(ds.clips, 2.0, seed=4)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(np.zeros((1, 1, 3, 4, 4)), -0.1, seed=0)

    def test_deterministic(self):
        ds = gen_moving_patterns(seed=10, num=4)
        a = add_gaussian_noise(ds.clips, 0.5, seed=5)
        b = add_gaussian_noise(ds.clips, 0.5, seed=5)
        np.testing.assert_array_equal(a, b)


class TestSaltPepper:
    def test_zero_probability_identity(self):
        ds = gen_moving_patterns(seed=11, num=4)
        np.testing.assert_array_equal(add_salt_pepper(ds.clips, 0.0, seed=1), ds.clips)

    def test_full_probability_extremes_only(self):
        ds = gen_moving_patterns(seed=12, num=2)
        out = add_salt_pepper(ds.clips, 1.0, seed=2)
        for frame_out, frame_in in zip(
            out.reshape(-1, *out.shape[-3:]), ds.clips.reshape(-1, *out.shape[-3:])
        ):
            lo, hi = frame_in.min(), frame_in.max()
            assert set(np.unique(frame_out)) <= {lo, hi}

    def test_corruption_fraction_binomial(self):
        rng = make_rng(13)
        clips = rng.random((1, 1, 3, 64, 64)).astype(np.float32)
        p = 0.2
        out = add_salt_pepper(clips, p, seed=3)
        changed = float((out != clips).mean())
        n = clips.size
        sigma = np.sqrt(p * (1 - p) / n)
        # pixels corrupted to a value they already had don't register as
        # changed, so allow a small one-sided slack beyond the binomial band
        assert p - 3 * sigma - 0.01 <= changed <= p + 3 * sigma

    def test_invalid_probability(self):
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                add_salt_pepper(np.zeros((1, 1, 3, 4, 4)), p, seed=0)


class TestContainerIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = gen_moving_patterns(seed=14, num=8)
        path = tmp_path / "clips.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.clips, ds.clips)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.seed == ds.seed
        assert back.class_defs == ds.class_defs

    def test_save_deterministic_bytes(self, tmp_path):
        ds = gen_moving_patterns(seed=15, num=4)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_writes_the_documented_layout(self, tmp_path):
        ds = gen_moving_patterns(seed=20, num=4, H=8, W=8)
        saved, built = tmp_path / "saved.bin", tmp_path / "built.bin"
        save_dataset(ds, saved)
        header = {"class_defs": ds.class_defs, "seed": ds.seed, "shape": list(ds.clips.shape)}
        write_clipset(built, header, ds.clips.astype("<f4").tobytes(),
                      ds.labels.astype("<i8").tobytes())
        assert saved.read_bytes() == built.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADATA" + b"\0" * 64)
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_truncation_rejected(self, tmp_path):
        ds = gen_moving_patterns(seed=16, num=4)
        path = tmp_path / "clips.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_corruption_rejected(self, tmp_path):
        ds = gen_moving_patterns(seed=17, num=4)
        path = tmp_path / "clips.bin"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_unknown_version_rejected(self, tmp_path):
        import struct
        import zlib

        ds = gen_moving_patterns(seed=18, num=4)
        path = tmp_path / "clips.bin"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        body = bytearray(blob[8:-4])
        body[0:4] = struct.pack("<I", 99)  # bump version, re-sign checksum
        path.write_bytes(blob[:8] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(DatasetError):
            load_dataset(path)


def write_clipset(path, header, clip_bytes, label_bytes):
    """A CLIPSET1 file with a valid checksum around any body."""
    head = json.dumps(header).encode()
    body = struct.pack("<I", 1) + struct.pack("<I", len(head)) + head
    body += struct.pack("<Q", len(clip_bytes)) + clip_bytes
    body += struct.pack("<Q", len(label_bytes)) + label_bytes
    path.write_bytes(b"CLIPSET1" + body + struct.pack("<I", zlib.crc32(body)))


class TestMalformedBody:
    """Checksum-valid files whose body does not describe one dataset."""

    CLIPS = np.zeros((2, 2, 3, 4, 4), dtype="<f4")
    HEADER = {"shape": [2, 2, 3, 4, 4], "seed": 0, "class_defs": []}

    def load(self, tmp_path, header=None, clips=None, labels=None):
        path = tmp_path / "clips.bin"
        write_clipset(path, self.HEADER if header is None else header,
                      (self.CLIPS if clips is None else clips).tobytes(),
                      (np.zeros(2, "<i8") if labels is None else labels).tobytes())
        return load_dataset(path)

    def test_well_formed_body_loads(self, tmp_path):
        ds = self.load(tmp_path)
        assert ds.clips.shape == (2, 2, 3, 4, 4) and ds.labels.shape == (2,)

    def test_header_shape_disagrees_with_clip_bytes(self, tmp_path):
        with pytest.raises(DatasetError):
            self.load(tmp_path, header=dict(self.HEADER, shape=[3, 2, 3, 4, 4]))

    def test_header_without_shape(self, tmp_path):
        header = {k: v for k, v in self.HEADER.items() if k != "shape"}
        with pytest.raises(DatasetError):
            self.load(tmp_path, header=header)

    def test_label_bytes_not_a_multiple_of_eight(self, tmp_path):
        with pytest.raises(DatasetError):
            self.load(tmp_path, labels=np.zeros(12, dtype=np.uint8))

    def test_label_count_differs_from_clip_count(self, tmp_path):
        with pytest.raises(DatasetError):
            self.load(tmp_path, labels=np.zeros(5, "<i8"))


@pytest.fixture(scope="module")
def saved_clipset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "clips.bin"
    save_dataset(gen_moving_patterns(seed=19, num=2, T=2, H=8, W=8, blob=3), path)
    return path


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_clipset_raises_only_dataset_error(saved_clipset, data):
    """Truncated or bit-flipped files, some re-signed so the parser past the
    checksum sees the damage, either load or raise DatasetError."""
    blob = bytearray(saved_clipset.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    if data.draw(st.booleans(), label="re-sign") and len(blob) > 12:
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
    path = saved_clipset.with_name("fuzzed.bin")
    path.write_bytes(bytes(blob))
    try:
        load_dataset(path)
    except DatasetError:
        pass
