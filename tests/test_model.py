"""Whole-network assembly, variants, determinism, and checkpointing."""

import contextlib
import errno
import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikevid import autodiff as ad
from spikevid import container
from spikevid.data import gen_moving_patterns, save_dataset
from spikevid.layers import BatchNorm
from spikevid.model import (
    CheckpointError,
    ModelConfig,
    VideoSpikeNet,
    load_checkpoint,
    save_checkpoint,
    variant_config,
)
from spikevid.neurons import NeuronConfig
from spikevid.training import cross_entropy

from conftest import make_rng, tiny_config


def forward(model, clip):
    return model(ad.tensor(clip)).data


class TestConfig:
    def test_depths_channels_length_mismatch(self):
        with pytest.raises(ValueError):
            ModelConfig(stage_depths=(1, 1), channels=(8, 8, 8))

    def test_stage_count_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(stage_depths=(1, 1), channels=(8, 8))

    def test_three_stage_disallows_local_pathway(self):
        with pytest.raises(ValueError):
            ModelConfig(stage_depths=(1, 1, 1), channels=(4, 4, 4),
                        use_local_pathway=True)

    def test_patch_embed_stride_bound(self):
        # checked with the other model bounds, before any layer is built
        with pytest.raises(ValueError, match="pe_stride"):
            ModelConfig(pe_stride=0)

    @pytest.mark.parametrize("bad", [dict(mlp_ratio=0), dict(attn_scale=0.0),
                                     dict(dw_kernel=4)], ids=lambda d: next(iter(d)))
    def test_block_bounds(self, bad):
        # the blocks read these from the model config, so it checks them
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)

    @pytest.mark.parametrize("bad", [dict(channels=(16, 0, 48, 64)), dict(in_channels=0),
                                     dict(num_classes=0), dict(in_height=0), dict(in_width=0),
                                     dict(pe_kernel=0), dict(pe_padding=-1),
                                     dict(dw_kernel=-1)], ids=lambda d: next(iter(d)))
    def test_extent_bounds(self, bad):
        # a checkpoint's config is checked here too, while the file is read
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)

    def test_input_extent_too_small_is_a_config_error(self):
        # 4 -> 1 -> 0 rows after two unpadded stride-2 3x3 patch embeddings
        with pytest.raises(ValueError, match="input extent too small"):
            ModelConfig(in_height=4, pe_padding=0)

    def test_spatial_after_strided_stages(self):
        cfg = tiny_config()
        assert cfg.spatial_after(1) == (8, 8)
        assert cfg.spatial_after(4) == (1, 1)

    def test_dict_roundtrip_and_digest(self):
        cfg = tiny_config()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_named_variants(self):
        base = variant_config("base")
        assert base.stage_depths == (1, 1, 3, 1)
        assert base.channels == (128, 256, 384, 512)
        assert base.time_steps == 16
        deep = variant_config("dp")
        assert sum(deep.stage_depths) > sum(base.stage_depths)
        wide = variant_config("wd")
        assert wide.channels[-1] > base.channels[-1]
        three = variant_config("3stg")
        assert three.num_stages == 3 and not three.use_local_pathway

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_config("giant")

    def test_variant_overrides(self):
        cfg = variant_config("ss", time_steps=8)
        assert cfg.time_steps == 8


class TestForward:
    def test_logit_shape(self):
        model = VideoSpikeNet(tiny_config(), seed=0)
        out = forward(model, np.zeros((2, 3, 3, 16, 16), dtype=np.float32))
        assert out.shape == (3, 3)

    def test_wrong_clip_shape_rejected(self):
        model = VideoSpikeNet(tiny_config(), seed=0)
        with pytest.raises(ad.ShapeError):
            model(ad.tensor(np.zeros((2, 3, 3, 8, 8), dtype=np.float32)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_every_clip_starts_from_rest(self, mode):
        # a lower threshold and running statistics set from the clip make the
        # head spike in both modes, so a carried-over membrane would move the logits
        model = VideoSpikeNet(tiny_config(neuron=NeuronConfig(v_threshold=0.5)), seed=0)
        clip = ad.tensor(make_rng(2).random((2, 2, 3, 16, 16)).astype(np.float32))
        for _, m in model.modules():
            if isinstance(m, BatchNorm):
                m.momentum = 1.0
        with ad.no_grad():
            model(clip)
        model.train(mode == "train")
        with ad.no_grad() if mode == "eval" else contextlib.nullcontext():
            first = model(clip)
            second = model(clip)
        assert first.requires_grad == (mode == "train")
        assert first.data.tobytes() == second.data.tobytes()

    def test_reset_states_is_a_no_op(self):
        # kept for old callers; no module holds anything it could clear
        model = VideoSpikeNet(tiny_config(), seed=0)
        clip = make_rng(3).random((2, 2, 3, 16, 16)).astype(np.float32)
        first = model(ad.tensor(clip)).data
        held = {n: {k: id(v) for k, v in vars(m).items()} for n, m in model.modules()}
        assert model.reset_states() is None
        assert {n: {k: id(v) for k, v in vars(m).items()} for n, m in model.modules()} == held
        assert model(ad.tensor(clip)).data.tobytes() == first.tobytes()

    def test_forward_deterministic(self):
        model = VideoSpikeNet(tiny_config(), seed=0)
        clip = make_rng(0).random((2, 2, 3, 16, 16)).astype(np.float32)
        model.eval()
        with ad.no_grad():
            a = forward(model, clip)
            b = forward(model, clip)
        np.testing.assert_array_equal(a, b)

    def test_seed_determines_weights(self):
        m1 = VideoSpikeNet(tiny_config(), seed=7)
        m2 = VideoSpikeNet(tiny_config(), seed=7)
        m3 = VideoSpikeNet(tiny_config(), seed=8)
        p1 = dict(m1.named_parameters())
        p2 = dict(m2.named_parameters())
        p3 = dict(m3.named_parameters())
        for name in p1:
            np.testing.assert_array_equal(p1[name].data, p2[name].data)
        assert any(not np.array_equal(p1[n].data, p3[n].data) for n in p1)

    def test_local_pathway_toggle_changes_structure(self):
        with_lp = VideoSpikeNet(tiny_config(), seed=0)
        without = VideoSpikeNet(tiny_config(use_local_pathway=False), seed=0)
        assert with_lp.local_pathway is not None
        assert without.local_pathway is None
        assert with_lp.head.channels == 2 * without.head.channels

    def test_three_stage_layout_runs(self):
        cfg = ModelConfig(stage_depths=(1, 1, 1), channels=(4, 4, 4),
                          use_local_pathway=False, time_steps=2,
                          in_height=16, in_width=16, num_classes=3)
        model = VideoSpikeNet(cfg, seed=0)
        out = forward(model, np.zeros((2, 1, 3, 16, 16), dtype=np.float32))
        assert out.shape == (1, 3)

    def test_all_spiking_layers_discovered(self):
        import gc

        from spikevid.neurons import SpikingLayer

        model = VideoSpikeNet(tiny_config(), seed=0)
        found = {id(l) for _, l in model.spiking_layers()}
        held = {id(o) for o in gc.get_objects() if isinstance(o, SpikingLayer)
                and any(id(m) == id(o) for _, m in model.modules())}
        # tau_table and make_smooth see every layer the model can reach
        assert held <= found

    def test_billing_roles_set_at_construction(self):
        from spikevid.layers import Conv, Linear

        model = VideoSpikeNet(tiny_config(), seed=0)
        layers = {n: m for n, m in model.modules() if isinstance(m, (Conv, Linear))}
        assert [n for n, m in layers.items() if m.is_encoder] == ["patch_embeds.0.convbn.conv"]
        driven = {n: m.fr_source for n, m in layers.items() if m.fr_source is not None}
        lfe = [model.stages[0][0], model.stages[1][0]]
        assert driven == {
            "stages.0.0.dw": lfe[0].sn, "stages.0.0.pw2": lfe[0].sn,
            "stages.1.0.dw": lfe[1].sn, "stages.1.0.pw2": lfe[1].sn,
            "local_pathway.pw": model.local_pathway.sn, "head.fc": model.head.sn,
        }
        for n, m in layers.items():
            assert m.expects_binary == (n not in driven and not m.is_encoder), n

    def test_patch_embeds_read_model_config(self):
        cfg = tiny_config(pe_kernel=5, pe_stride=1, pe_padding=2)
        model = VideoSpikeNet(cfg, seed=0)
        for pe in model.patch_embeds:
            conv, bn = pe.convbn.conv, pe.convbn.bn
            assert (conv.kernel, conv.stride, conv.padding) == ((5, 5), 1, 2)
            assert (bn.norm_mode, bn.time_steps) == (cfg.norm_mode, cfg.time_steps)
        assert model.patch_embeds[0].sn is None
        assert all(pe.sn.cfg is cfg.neuron for pe in model.patch_embeds[1:])

    def test_parameter_names_unique(self):
        model = VideoSpikeNet(tiny_config(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))


class TestBackward:
    def test_loss_backward_reaches_all_stages(self):
        model = VideoSpikeNet(tiny_config(), seed=0)
        clip = make_rng(1).random((2, 2, 3, 16, 16)).astype(np.float32)
        loss = cross_entropy(model(ad.tensor(clip)), np.array([0, 1]))
        ad.backward(loss)
        grads = {n: p.grad for n, p in model.named_parameters()}
        assert all(g is not None for g in grads.values())
        # surrogate path keeps early-stage gradients alive
        assert np.any(grads["patch_embeds.0.convbn.conv.weight"] != 0.0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = VideoSpikeNet(tiny_config(), seed=0)
        # perturb running stats so buffers are nontrivial
        clip = make_rng(2).random((2, 2, 3, 16, 16)).astype(np.float32)
        forward(model, clip)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      restored.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(model.named_buffers(), restored.named_buffers()):
            assert n1 == n2
            np.testing.assert_array_equal(b1, b2)
        model.eval()
        restored.eval()
        with ad.no_grad():
            np.testing.assert_array_equal(forward(model, clip), forward(restored, clip))

    def test_scalar_parameters_preserved(self, tmp_path):
        model = VideoSpikeNet(tiny_config(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        a = dict(restored.named_parameters())["head.sn.a"]
        assert a.data.shape == ()

    def test_config_travels_with_weights(self, tmp_path):
        cfg = tiny_config(time_steps=3)
        model = VideoSpikeNet(cfg, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.cfg == cfg
        assert restored.seed == 5

    def test_saved_config_roundtrips_through_from_dict(self, tmp_path):
        cfg = tiny_config(mlp_ratio=3, dw_kernel=3, attn_scale=0.25, norm_mode="plain")
        path = tmp_path / "model.ckpt"
        save_checkpoint(VideoSpikeNet(cfg, seed=1), path)
        saved = load_checkpoint(path).cfg
        assert saved == cfg
        assert ModelConfig.from_dict(saved.to_dict()) == cfg

    def test_mismatched_model_rejected_with_names(self, tmp_path):
        # a CRC-valid file whose arrays do not fit its own config: one model's
        # header (config, digest, seed) spliced onto another model's arrays
        parts = []
        for cfg in (tiny_config(), tiny_config(channels=(4, 4, 4, 8))):
            save_checkpoint(VideoSpikeNet(cfg, seed=0), tmp_path / "part.ckpt")
            blob = (tmp_path / "part.ckpt").read_bytes()
            (cfg_len,) = struct.unpack_from("<I", blob, 12)  # after magic and version
            parts.append((blob, 16 + cfg_len + 64 + 4))  # the entry count's offset
        (head, head_end), (arrays, arrays_start) = parts
        body = head[8:head_end] + arrays[arrays_start:-4]
        path = tmp_path / "model.ckpt"
        path.write_bytes(head[:8] + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "does not match model" in str(err.value)
        assert "head" in str(err.value)  # names the offending entries

    def test_corruption_rejected(self, tmp_path):
        model = VideoSpikeNet(tiny_config(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("save", [
        lambda seed, path: save_checkpoint(VideoSpikeNet(tiny_config(), seed=seed), path),
        lambda seed, path: save_dataset(gen_moving_patterns(seed=seed, num=2, H=8, W=8), path),
    ], ids=["save_checkpoint", "save_dataset"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, save):
        path = tmp_path / "saved.bin"
        save(0, path)
        before = path.read_bytes()

        class DiskFull(io.FileIO):
            """Takes half of the second write, then fails as a full disk does."""
            writes = 0

            def write(self, b):
                self.writes += 1
                if self.writes == 2:
                    super().write(bytes(b[: len(b) // 2]))
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(b)

        monkeypatch.setattr(container, "open", lambda f, mode="r": DiskFull(f, mode),
                            raising=False)
        with pytest.raises(OSError):
            save(1, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\0" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestScaleDiagnostics:
    def test_paper_scale_parameter_count_order(self):
        # the full-size four-stage layout lands in the tens of millions of
        # parameters; assembled lazily here via config arithmetic only
        cfg = variant_config("base")
        # conv/linear parameter arithmetic without instantiating 224x224 maps
        model = VideoSpikeNet(cfg, seed=0)
        count = sum(p.size for p in model.parameters())
        assert 5e6 < count < 50e6


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(VideoSpikeNet(tiny_config(), seed=0), path)
    return path


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_raises_only_checkpoint_error(saved_checkpoint, data):
    """Truncated or bit-flipped files, some re-signed so the parser past the
    checksum sees the damage, either load or raise CheckpointError."""
    blob = bytearray(saved_checkpoint.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # the header and first entries, where a flip changes the structure
        bit = data.draw(st.integers(0, 8 * min(len(blob), 1024) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    if data.draw(st.booleans(), label="re-sign") and len(blob) > 12:
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
    path = saved_checkpoint.with_name("fuzzed.ckpt")
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
