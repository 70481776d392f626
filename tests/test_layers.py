"""Normalization semantics, composite linear layers, and BN fusion."""

import numpy as np
import pytest

from spikevid import autodiff as ad
from spikevid.blocks import from_tokens, to_tokens
from spikevid.layers import (
    PLAIN_BN,
    TDBN,
    BatchNorm,
    Conv,
    ConvBN,
    Linear,
    LinearBN,
    PatchEmbed,
    fuse_linear_layers,
)
from spikevid.neurons import NeuronConfig, SpikingLayer
from spikevid import profiler as prof
from spikevid.profiler import Recording

from conftest import make_rng, tiny_config


class TestBatchNormStatistics:
    def test_train_mode_normalizes_per_channel(self):
        rng = make_rng(0)
        bn = BatchNorm(3, norm_mode=PLAIN_BN, layout="map")
        x = rng.standard_normal((2, 4, 3, 5, 5)).astype(np.float32) * 3 + 1
        out = bn(ad.tensor(x)).data
        # per channel over (T, B, H, W): mean ~0, var ~1
        np.testing.assert_allclose(out.mean(axis=(0, 1, 3, 4)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 1, 3, 4)), 1.0, atol=1e-3)

    def test_tdbn_normalizes_per_step_and_channel(self):
        rng = make_rng(1)
        bn = BatchNorm(3, norm_mode=TDBN, time_steps=4, layout="map")
        # give each step a wildly different scale
        x = rng.standard_normal((4, 6, 3, 4, 4)).astype(np.float32)
        x *= np.array([1, 10, 100, 1000], dtype=np.float32).reshape(4, 1, 1, 1, 1)
        out = bn(ad.tensor(x)).data
        for t in range(4):
            np.testing.assert_allclose(out[t].mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
            np.testing.assert_allclose(out[t].var(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_tdbn_t1_equals_plain(self):
        rng = make_rng(2)
        x = rng.standard_normal((1, 5, 3, 4, 4)).astype(np.float32)
        plain = BatchNorm(3, norm_mode=PLAIN_BN, layout="map")
        tdbn = BatchNorm(3, norm_mode=TDBN, time_steps=1, layout="map")
        np.testing.assert_array_equal(plain(ad.tensor(x)).data, tdbn(ad.tensor(x)).data)

    def test_tdbn_causality(self):
        """Changing only future steps never changes earlier outputs."""
        rng = make_rng(3)
        bn = BatchNorm(2, norm_mode=TDBN, time_steps=4, layout="map")
        for _ in range(100):
            t_cut = int(rng.integers(0, 3))
            x = rng.standard_normal((4, 3, 2, 4, 4)).astype(np.float32)
            y = x.copy()
            y[t_cut + 1:] = rng.standard_normal(y[t_cut + 1:].shape).astype(np.float32)
            out_x = bn(ad.tensor(x)).data
            out_y = bn(ad.tensor(y)).data
            np.testing.assert_array_equal(out_x[: t_cut + 1], out_y[: t_cut + 1])

    def test_plain_bn_is_not_causal(self):
        # sanity counter-check: pooled statistics mix information across steps
        rng = make_rng(4)
        bn = BatchNorm(2, norm_mode=PLAIN_BN, layout="map")
        x = rng.standard_normal((4, 3, 2, 4, 4)).astype(np.float32)
        y = x.copy()
        y[3] += 100.0
        assert not np.array_equal(bn(ad.tensor(x)).data[0], bn(ad.tensor(y)).data[0])

    def test_running_stats_converge_then_freeze(self):
        rng = make_rng(5)
        bn = BatchNorm(2, norm_mode=PLAIN_BN, layout="map")
        x = rng.standard_normal((2, 8, 2, 4, 4)).astype(np.float32) * 2 + 3
        for _ in range(60):
            bn(ad.tensor(x))
        bn.eval()
        out = bn(ad.tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 1, 3, 4)), 0.0, atol=0.05)
        before = bn.running_mean.copy()
        bn(ad.tensor(x))
        np.testing.assert_array_equal(bn.running_mean, before)  # eval never updates

    def test_eval_uses_frozen_statistics(self):
        bn = BatchNorm(1, layout="map")
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.eval()
        x = np.full((1, 1, 1, 1, 1), 6.0, dtype=np.float32)
        out = bn(ad.tensor(x)).item()
        assert out == pytest.approx((6.0 - 2.0) / np.sqrt(4.0 + bn.eps), rel=1e-5)

    def test_tdbn_wrong_t_rejected(self):
        bn = BatchNorm(2, norm_mode=TDBN, time_steps=4, layout="map")
        with pytest.raises(ad.ShapeError):
            bn(ad.tensor(np.zeros((2, 3, 2, 4, 4), dtype=np.float32)))

    def test_unknown_mode_and_layout(self):
        with pytest.raises(ValueError):
            BatchNorm(2, norm_mode="group")
        with pytest.raises(ValueError):
            BatchNorm(2, layout="3d")

    def test_gradients_flow_to_affine_params(self):
        bn = BatchNorm(2, layout="token")
        x = ad.tensor(make_rng(6).standard_normal((2, 3, 4, 2)).astype(np.float32))
        ad.backward(ad.reduce_sum(ad.mul(o := bn(x), o)))
        assert bn.gamma.grad is not None and bn.beta.grad is not None


def _composite_bn(x, axes, gamma, beta, eps, running, mode, momentum=0.1):
    """The single-op chain that ``ad.batch_norm`` replaced in the layer,
    returning ``(out, mean, var)``."""
    if mode == "train":
        mean = ad.reduce_mean(x, axes=axes, keepdims=True)
        diff = ad.sub(x, mean)
        var = ad.reduce_mean(ad.mul(diff, diff), axes=axes, keepdims=True)
        running["mean"] += momentum * (mean.data - running["mean"])
        running["var"] += momentum * (var.data - running["var"])
        inv = ad.div(ad.tensor(1.0), ad.sqrt(ad.add(var, ad.tensor(eps))))
        xhat = ad.mul(diff, inv)
        mean, var = mean.data, var.data
    else:
        mean, var = running["mean"], running["var"]
        w = 1.0 / np.sqrt(running["var"] + eps)
        xhat = ad.mul(ad.sub(x, ad.tensor(running["mean"])), ad.tensor(w))
    return ad.add(ad.mul(xhat, gamma), beta), mean, var


# (input shape, a permutation of the output whose backward hands the norm a
# non-contiguous gradient); 5 channels, T = 4 where there is a time axis. A
# reduced axis of 9 or more elements sums pairwise where it is the contiguous
# one and sequentially elsewhere, so a gradient laid out otherwise than the
# single-op chain lays it out gives other bits.
BN_LAYOUTS = {
    "map": ((4, 3, 5, 3, 10), to_tokens),
    "token": ((4, 3, 12, 5), lambda y: from_tokens(y, 3, 4)),
    "vec": ((12, 5), lambda y: ad.permute(y, (1, 0))),
}


class TestFusedBatchNormMatchesComposite:
    """``ad.batch_norm`` (through the layer) against the single-op chain:
    outputs, statistics and gradients must be the same bytes."""

    def run(self, fused, layout, norm_mode, mode, dtype, seed=30):
        shape, permute = BN_LAYOUTS[layout]
        rng = make_rng(seed)
        with ad.precision(dtype):
            bn = BatchNorm(5, norm_mode=norm_mode, time_steps=4, layout=layout)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, bn.gamma.shape)
            bn.beta.data[...] = rng.standard_normal(bn.beta.shape)
            bn.running_mean[...] = rng.standard_normal(bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.running_var.shape)
            if mode == "eval":
                bn.eval()
            x = ad.Tensor((rng.standard_normal(shape) * 2 + 1).astype(dtype), requires_grad=True)
            if fused:
                out = bn(x)
                with ad.no_grad():
                    stats = None if mode == "train" else (bn.running_mean, bn.running_var)
                    _, mean, var = ad.batch_norm(x, bn.gamma, bn.beta, bn.reduce_axes,
                                                 bn.eps, stats=stats)
            else:
                running = {"mean": bn.running_mean, "var": bn.running_var}
                out, mean, var = _composite_bn(x, bn.reduce_axes, bn.gamma, bn.beta,
                                               bn.eps, running, mode, bn.momentum)
            y = permute(out)
            ad.backward(ad.reduce_sum(ad.mul(y, ad.tensor(rng.standard_normal(y.shape)))))
        return {"out": out.data, "mean": mean, "var": var,
                "running_mean": bn.running_mean, "running_var": bn.running_var,
                "x.grad": x.grad, "gamma.grad": bn.gamma.grad, "beta.grad": bn.beta.grad}

    @pytest.mark.parametrize("layout", list(BN_LAYOUTS))
    @pytest.mark.parametrize("norm_mode", [PLAIN_BN, TDBN])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal(self, layout, norm_mode, mode, dtype):
        got = self.run(True, layout, norm_mode, mode, dtype)
        want = self.run(False, layout, norm_mode, mode, dtype)
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("layout", list(BN_LAYOUTS))
    def test_upstream_gradient_is_non_contiguous(self, layout):
        shape, permute = BN_LAYOUTS[layout]
        seen = []
        # an op output whose backward records the gradient that reaches it
        node = ad._make(np.ones(shape), (ad.Tensor(np.ones(()), requires_grad=True),),
                        lambda nodes, g: seen.append(g))
        y = permute(node)
        ad.backward(ad.reduce_sum(ad.mul(y, ad.tensor(np.ones(y.shape)))))
        assert not seen[0].flags.c_contiguous

    @pytest.mark.parametrize("layout", list(BN_LAYOUTS))
    def test_one_tape_node_in_train_mode(self, layout):
        bn = BatchNorm(5, norm_mode=TDBN, time_steps=4, layout=layout)
        x = ad.Tensor(make_rng(31).standard_normal(BN_LAYOUTS[layout][0]).astype(np.float32),
                      requires_grad=True)
        out = bn(x)
        assert out._parents == (x, bn.gamma, bn.beta)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_no_tape_node_under_no_grad(self, mode):
        bn = BatchNorm(5, layout="map")
        if mode == "eval":
            bn.eval()
        x = ad.Tensor(make_rng(32).standard_normal(BN_LAYOUTS["map"][0]).astype(np.float32),
                      requires_grad=True)
        before = x.data.copy()
        with ad.no_grad():
            out = bn(x)
        assert not out.requires_grad
        assert out._node is None and out._parents == ()
        assert not np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(x.data, before)

    @pytest.mark.parametrize("eps", [0.0, -1e-5])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_non_positive_eps_rejected(self, eps, mode):
        bn = BatchNorm(2, layout="vec", eps=eps)
        if mode == "eval":
            bn.eval()
        with pytest.raises(ValueError):
            bn(ad.tensor(np.ones((3, 2))))


class TestLinearLayers:
    def test_conv_macs_per_output(self):
        rng = make_rng(7)
        conv = Conv(8, 16, 3, rng, groups=2)
        assert conv.macs_per_output() == 3 * 3 * 4

    def test_linear_macs_per_output(self):
        assert Linear(32, 8, make_rng(8)).macs_per_output() == 32

    def test_convbn_shape(self):
        rng = make_rng(9)
        layer = ConvBN(3, 8, 3, rng, stride=2, padding=1, norm_mode=TDBN, time_steps=2)
        out = layer(ad.tensor(np.zeros((2, 4, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 4, 8, 8, 8)

    def test_linearbn_shape(self):
        layer = LinearBN(8, 16, make_rng(10), norm_mode=TDBN, time_steps=2)
        out = layer(ad.tensor(np.zeros((2, 3, 10, 8), dtype=np.float32)))
        assert out.shape == (2, 3, 10, 16)

    def test_input_recording(self):
        rng = make_rng(11)
        lin = Linear(4, 2, rng)
        x = np.array([[1.0, 0.0, 1.0, 0.0]], dtype=np.float32)
        with Recording(lin) as rec:
            lin(ad.tensor(x))
            stats = rec.inputs[lin]
            assert stats.nnz == 2
            assert stats.size == 4
            assert stats.binary
            assert stats.out_count == 2
            lin(ad.tensor(x * 0.5))
            assert not stats.binary
        with Recording(lin) as fresh:
            assert fresh.inputs[lin].nnz == 0 and fresh.inputs[lin].binary

    def test_patch_embed_first_stage_has_no_neuron(self):
        pe = PatchEmbed(tiny_config(), 3, 8, make_rng(12), encoder=True)
        assert pe.sn is None
        pe2 = PatchEmbed(tiny_config(), 8, 8, make_rng(13))
        assert pe2.sn is not None

    def test_expects_binary_follows_the_billing_role(self):
        sn = SpikingLayer(NeuronConfig())
        plain, driven = Conv(2, 2, 1, make_rng(20)), Linear(2, 2, make_rng(21), fr_source=sn)
        assert plain.expects_binary and not driven.expects_binary
        plain.is_encoder = True
        assert not plain.expects_binary
        with pytest.raises(AttributeError):
            plain.expects_binary = True
        assert not plain.expects_binary


class TestFusion:
    def _spike_input(self, shape, seed):
        return (make_rng(seed).random(shape) < 0.3).astype(np.float32)

    def test_convbn_fusion_matches_eval_output(self):
        rng = make_rng(14)
        layer = ConvBN(4, 6, 3, rng, padding=1, norm_mode=PLAIN_BN)
        # accumulate nontrivial running statistics, then freeze
        for _ in range(10):
            layer(ad.tensor(rng.standard_normal((2, 3, 4, 6, 6)).astype(np.float32)))
        layer.eval()
        fused = fuse_linear_layers(layer)
        for trial in range(20):
            x = self._spike_input((2, 3, 4, 6, 6), 100 + trial)
            ref = layer(ad.tensor(x)).data
            out = fused(ad.tensor(x)).data
            np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_tdbn_fusion_one_kernel_per_step(self):
        rng = make_rng(15)
        layer = ConvBN(4, 4, 3, rng, padding=1, norm_mode=TDBN, time_steps=3)
        for _ in range(10):
            layer(ad.tensor(rng.standard_normal((3, 2, 4, 5, 5)).astype(np.float32)))
        layer.eval()
        fused = fuse_linear_layers(layer)
        # the 3 steps' kernels stacked in one grouped conv, one group per step
        assert fused.layer.weight.shape == (3 * 4, 4, 3, 3)
        assert fused.layer.groups == 3
        x = self._spike_input((3, 2, 4, 5, 5), 200)
        np.testing.assert_allclose(fused(ad.tensor(x)).data, layer(ad.tensor(x)).data,
                                   atol=1e-5)

    @pytest.mark.parametrize("steps", [2, 4])
    def test_tdbn_fusion_rejects_other_step_counts(self, steps):
        layer = ConvBN(2, 2, 3, make_rng(20), padding=1, norm_mode=TDBN, time_steps=3)
        layer.eval()
        fused = fuse_linear_layers(layer)
        x = ad.tensor(self._spike_input((steps, 1, 2, 4, 4), 201))
        for module in (layer, fused):  # the fold rejects what the unfused layer rejects
            with pytest.raises(ad.ShapeError):
                module(x)

    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_tdbn_linear_fusion_rejects_other_step_counts(self, steps):
        # a [1, B, N, C] input would broadcast against the [3, 1, C, D] weight
        layer = LinearBN(2, 2, make_rng(22), norm_mode=TDBN, time_steps=3)
        layer.eval()
        fused = fuse_linear_layers(layer)
        x = ad.tensor(self._spike_input((steps, 1, 4, 2), 202))
        for module in (layer, fused):
            with pytest.raises(ad.ShapeError):
                module(x)

    def test_linearbn_fusion(self):
        rng = make_rng(16)
        layer = LinearBN(6, 4, rng, norm_mode=TDBN, time_steps=2)
        for _ in range(10):
            layer(ad.tensor(rng.standard_normal((2, 3, 7, 6)).astype(np.float32)))
        layer.eval()
        fused = fuse_linear_layers(layer)
        assert fused.layer.weight.shape == (2, 1, 6, 4)  # [T, 1, C, D]
        x = self._spike_input((2, 3, 7, 6), 300)
        np.testing.assert_allclose(fused(ad.tensor(x)).data, layer(ad.tensor(x)).data,
                                   atol=1e-5)

    @pytest.mark.parametrize("case", ["conv_plain", "conv_tdbn", "conv_tdbn_grouped",
                                      "linear_plain", "linear_tdbn"])
    def test_fused_layer_is_one_cost_row_with_unfused_flops(self, case):
        rng = make_rng(21)
        if case.startswith("conv"):
            T, groups = (1, 1) if case == "conv_plain" else (3, 2 if "grouped" in case else 1)
            layer = ConvBN(4, 6, 3, rng, stride=2, padding=1, groups=groups,
                           norm_mode=PLAIN_BN if T == 1 else TDBN, time_steps=T)
            shape = (3, 2, 4, 7, 7)
        else:
            T = 1 if case == "linear_plain" else 3
            layer = LinearBN(6, 5, rng, norm_mode=PLAIN_BN if T == 1 else TDBN, time_steps=T)
            shape = (3, 2, 7, 6)
        for _ in range(3):
            layer(ad.tensor(rng.standard_normal(shape).astype(np.float32)))
        layer.eval()
        fused = fuse_linear_layers(layer)
        x = ad.tensor(self._spike_input(shape, 400))
        tables = []
        for module in (layer, fused):
            with Recording(module) as rec:
                module(x)
            tables.append(prof.cost_table(rec, num_clips=2))
        (unfused,), (folded,) = tables
        assert (folded.kind, folded.flops, folded.fr_in) == (unfused.kind, unfused.flops,
                                                             unfused.fr_in)
        np.testing.assert_allclose(fused(x).data, layer(x).data, atol=1e-5)

    def test_fusion_requires_eval_mode(self):
        layer = ConvBN(2, 2, 3, make_rng(17))
        with pytest.raises(RuntimeError):
            fuse_linear_layers(layer)

    def test_fusion_preserves_profiling_flags(self):
        layer = ConvBN(2, 2, 3, make_rng(18))
        layer.conv.is_encoder = True
        layer.eval()
        fused = fuse_linear_layers(layer)
        assert not fused.layer.expects_binary
        assert fused.layer.is_encoder

    def test_unfusable_type_rejected(self):
        lin = Linear(2, 2, make_rng(19))
        lin.eval()
        with pytest.raises(TypeError):
            fuse_linear_layers(lin)
