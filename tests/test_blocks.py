"""Block-level laws: shape preservation, identity at zero init, attention math."""

import ast
import pathlib

import numpy as np
import pytest

from spikevid import autodiff as ad
from spikevid.blocks import (
    ClassificationHead,
    FullExtentConv,
    GlobalSelfAttention,
    LocalFeatureExtractor,
    LocalPathway,
    SpikingSelfAttention,
    from_tokens,
    to_tokens,
)
from spikevid.model import ModelConfig
from spikevid.profiler import Recording, exact_ac_count_matmul

from conftest import make_rng


def spikes(shape, seed, p=0.3):
    return (make_rng(seed).random(shape) < p).astype(np.float32)


class TestTokenLayout:
    def test_roundtrip(self):
        x = ad.tensor(make_rng(0).standard_normal((2, 3, 4, 5, 6)).astype(np.float32))
        back = from_tokens(to_tokens(x), 5, 6)
        np.testing.assert_array_equal(back.data, x.data)

    def test_token_order_is_row_major(self):
        x = np.zeros((1, 1, 1, 2, 3), dtype=np.float32)
        x[0, 0, 0, 1, 2] = 7.0  # row 1, col 2 -> token index 1*3+2
        tok = to_tokens(ad.tensor(x)).data
        assert tok[0, 0, 5, 0] == 7.0


class TestShapePreservation:
    def test_lfe_and_gsa_preserve_shape_randomized(self):
        rng = make_rng(1)
        for trial in range(50):
            C = int(rng.choice([2, 4, 8]))
            T = int(rng.integers(1, 4))
            B = int(rng.integers(1, 3))
            H = int(rng.choice([4, 6]))
            norm = str(rng.choice(["plain", "tdbn"]))
            cfg = ModelConfig(norm_mode=norm, time_steps=T, mlp_ratio=int(rng.integers(1, 3)))
            block_cls = LocalFeatureExtractor if trial % 2 == 0 else GlobalSelfAttention
            block = block_cls(cfg, C, make_rng(100 + trial))
            x = ad.tensor(rng.standard_normal((T, B, C, H, H)).astype(np.float32))
            assert block(x).shape == x.shape, f"trial {trial}: {block_cls.__name__}"


class TestIdentityAtZeroInit:
    def _zero_branch(self, block):
        # zeroing the last linear map of each residual branch makes the branch
        # contribute exactly beta (also zero) -> block output == input
        for _, p in block.named_parameters():
            p.data = np.zeros_like(p.data)
        # gamma is a parameter initialized to ones; zeroed above, which kills
        # every BN output entirely
        return block

    def test_lfe_identity(self):
        cfg = ModelConfig(norm_mode="plain", time_steps=2)
        block = self._zero_branch(LocalFeatureExtractor(cfg, 4, make_rng(2)))
        x = ad.tensor(make_rng(3).standard_normal((2, 2, 4, 6, 6)).astype(np.float32))
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_gsa_identity(self):
        cfg = ModelConfig(norm_mode="plain", time_steps=2)
        block = self._zero_branch(GlobalSelfAttention(cfg, 4, make_rng(4)))
        x = ad.tensor(make_rng(5).standard_normal((2, 2, 4, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(block(x).data, x.data)


class TestAttentionMath:
    def test_hand_computed_example(self):
        # single step, one batch, two tokens, two channels, scale 0.25
        q = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], dtype=np.float32)
        k = np.array([[[[1.0, 1.0], [0.0, 0.0]]]], dtype=np.float32)
        v = np.array([[[[0.0, 1.0], [1.0, 0.0]]]], dtype=np.float32)
        # K^T V = [[0,1],[0,1]]; Q (K^T V) = [[0,1],[0,1]]; * 0.25
        kt = ad.permute(ad.tensor(k), (0, 1, 3, 2))
        attn = ad.scale(ad.matmul(ad.tensor(q), ad.matmul(kt, ad.tensor(v))), 0.25)
        np.testing.assert_allclose(attn.data, [[[[0.0, 0.25], [0.0, 0.25]]]])

    def test_association_orders_agree(self):
        rng = make_rng(6)
        for _ in range(20):
            q = spikes((2, 2, 9, 4), int(rng.integers(1 << 30)))
            k = spikes((2, 2, 9, 4), int(rng.integers(1 << 30)))
            v = spikes((2, 2, 9, 4), int(rng.integers(1 << 30)))
            kt = np.swapaxes(k, -1, -2)
            right = q @ (kt @ v) * 0.125      # O(N C^2)
            left = (q @ kt) @ v * 0.125       # O(N^2 C)
            np.testing.assert_allclose(right, left, atol=1e-4)

    def test_ssa_output_shape_and_event_recording(self):
        cfg = ModelConfig(norm_mode="plain", time_steps=2)
        ssa = SpikingSelfAttention(cfg, 4, make_rng(7))
        x = ad.tensor(make_rng(8).standard_normal((2, 3, 16, 4)).astype(np.float32))
        held = {}
        handles = [sn.register_forward_hook(lambda m, args, out: held.setdefault(m, out.data))
                   for sn in (ssa.sn_k, ssa.sn_v)]
        with Recording(ssa) as rec:
            out = ssa(x)
        for handle in handles:
            handle.remove()
        assert out.shape == (2, 3, 16, 4)
        k, v = held[ssa.sn_k], held[ssa.sn_v]
        assert k.shape == v.shape == (2, 3, 16, 4)
        assert rec.attn[ssa] == exact_ac_count_matmul(k, v)

    def test_exact_kv_count_matches_naive(self):
        k = spikes((1, 1, 6, 3), 10)
        v = spikes((1, 1, 6, 3), 11)
        # naive: K^T V entry (i, j) accumulates once per token where K bit i
        # and V bit j are both one
        naive = sum(
            float(k[0, 0, n, i]) * float(v[0, 0, n, j])
            for n in range(6) for i in range(3) for j in range(3)
        )
        assert exact_ac_count_matmul(k, v) == naive


class TestLocalPathway:
    def test_downsamples_and_projects(self):
        lp = LocalPathway(ModelConfig(norm_mode="plain", time_steps=2), 4, 8, make_rng(13))
        x = ad.tensor(make_rng(14).standard_normal((2, 3, 4, 8, 8)).astype(np.float32))
        assert lp(x).shape == (2, 3, 8, 4, 4)

    def test_interior_layer_flagged_nonbinary(self):
        lp = LocalPathway(ModelConfig(norm_mode="plain", time_steps=1), 4, 8, make_rng(15))
        assert lp.dw.expects_binary
        assert not lp.pw.expects_binary
        assert lp.pw.fr_source is lp.sn


class TestClassificationHead:
    def test_logit_shape(self):
        head = ClassificationHead(ModelConfig(time_steps=2, num_classes=5), 6, 4, 4, make_rng(16))
        x = ad.tensor(make_rng(17).standard_normal((2, 3, 6, 4, 4)).astype(np.float32))
        assert head(x).shape == (3, 5)

    def test_extent_mismatch_rejected(self):
        head = ClassificationHead(ModelConfig(time_steps=2, num_classes=5), 6, 4, 4, make_rng(18))
        with pytest.raises(ad.ShapeError):
            head(ad.tensor(np.zeros((3, 3, 6, 4, 4), dtype=np.float32)))

    def test_temporal_weighting_is_learnable_per_step(self):
        # the full-extent depthwise kernel assigns one weight per (c, t, y, x);
        # zeroing all but step 0 must make the logits ignore later steps
        head = ClassificationHead(ModelConfig(time_steps=2, num_classes=3), 2, 2, 2, make_rng(19))
        head.conv3d.weight.data[:, :, 1:] = 0.0
        head.eval()
        x0 = spikes((2, 1, 2, 2, 2), 20, p=0.5)
        x1 = x0.copy()
        x1[1] = 1.0 - x1[1]  # change only step 1 spikes
        out0 = head(ad.tensor(x0)).data
        out1 = head(ad.tensor(x1)).data
        # step-1 membrane states differ, but the zeroed kernel slice blocks them
        # only if the spike outputs at step 0 agree (they do: same input there)
        np.testing.assert_array_equal(out0, out1)


class TestFullExtentConv:
    """The head's conv, a per-channel batched matmul, gives the bytes of the
    depthwise ``ad.conv`` whose (T*H, W) kernel spans a [B, C, T*H, W] view."""

    @staticmethod
    def run(conv, x, w, g):
        x_t, w_t = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
        out = conv(x_t, w_t)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
        return out.data, x_t.grad, w_t.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 16, 128, 2, 2), (8, 16, 64, 1, 1), (16, 3, 40, 7, 7),
                                       (8, 32, 16, 2, 2)])
    def test_bytes_match_depthwise_conv_on_the_map_view(self, shape, dtype):
        T, B, C, H, W = shape
        rng = make_rng(21)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((C, 1, T, H, W)).astype(dtype)
        g = rng.standard_normal((B, C)).astype(dtype)
        g[::3] = -0.0  # terms of -0.0, which the conv's zeroed scatter buffer makes +0.0
        with ad.precision(dtype):
            head = FullExtentConv(C, C, (T, H, W), make_rng(22), groups=C)

            def matmul_conv(x_t, w_t):
                head.weight = w_t
                return head(x_t)

            def view_conv(x_t, w_t):
                view = ad.reshape(ad.permute(x_t, (1, 2, 0, 3, 4)), (B, C, T * H, W))
                out = ad.conv(view, ad.reshape(w_t, (C, 1, T * H, W)), groups=C)
                return ad.reshape(out, (B, C))

            got = self.run(matmul_conv, x, w, g)
            ref = self.run(view_conv, x, w, g)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


BILLING_ROLES = {"expects_binary", "is_encoder", "fr_source"}


@pytest.mark.parametrize("module", ["model.py", "blocks.py"])
def test_billing_roles_are_not_assigned_after_construction(module):
    """Conv/linear layers get their billing role from their constructor (and
    the encoder from its PatchEmbed), so neither the blocks nor the model
    writes one into a layer it holds."""
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "spikevid" / module
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets += node.targets if isinstance(node, ast.Assign) else [node.target]
    written = [f"line {t.lineno}: .{t.attr}" for target in targets for t in ast.walk(target)
               if isinstance(t, ast.Attribute) and t.attr in BILLING_ROLES]
    assert written == []
