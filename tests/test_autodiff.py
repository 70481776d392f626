"""Unit tests for the reverse-mode tensor engine."""

import functools
import os
import threading
import time
import weakref

import numpy as np
import pytest

from spikevid import autodiff as ad

from conftest import make_rng


def t(data, grad=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestElementwise:
    def test_add_backward(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        ad.backward(ad.reduce_sum(ad.add(a, b)))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        ad.backward(ad.reduce_sum(ad.mul(a, b)))
        np.testing.assert_array_equal(a.grad, [3.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])

    def test_broadcast_unreduces_grad(self):
        a, b = t(np.ones((3, 4))), t(np.ones((4,)))
        ad.backward(ad.reduce_sum(ad.add(a, b)))
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_array_equal(b.grad, [3.0] * 4)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ad.ShapeError):
            ad.add(t(np.ones((2, 3))), t(np.ones((4,))))

    def test_div_matches_quotient_rule(self):
        rep = ad.grad_check(
            lambda a, b: ad.reduce_sum(ad.div(a, b)),
            [t(make_rng(1).standard_normal((3, 3))),
             t(make_rng(2).standard_normal((3, 3)) + 3.0)])
        assert rep.passed, rep


class TestReductionsAndStructure:
    def test_reduce_sum_accumulates_in_float64(self):
        # float32 naive summation of 1e7 ones with a large offset loses counts;
        # float64 accumulation keeps them exact
        with ad.precision(np.float32):
            x = ad.tensor(np.full(10**6, 1e-3))
            total = ad.reduce_sum(x).item()
        assert abs(total - 1000.0) < 1e-2

    def test_reduce_mean_axes(self):
        x = t(np.arange(24.0).reshape(2, 3, 4))
        out = ad.reduce_mean(x, axes=(0, 2), keepdims=True)
        np.testing.assert_allclose(out.data, np.arange(24.0).reshape(2, 3, 4).mean(axis=(0, 2), keepdims=True))

    def test_reshape_permute_roundtrip_grads(self):
        rep = ad.grad_check(
            lambda a: ad.reduce_sum(ad.mul(
                ad.permute(ad.reshape(a, (4, 3)), (1, 0)),
                ad.permute(ad.reshape(a, (4, 3)), (1, 0)))),
            [t(make_rng(3).standard_normal((2, 6)))])
        assert rep.passed, rep

    def test_concat_splits_gradient(self):
        a, b = t(np.ones((2, 2))), t(np.full((3, 2), 2.0))
        out = ad.concat([a, b], axis=0)
        ad.backward(ad.reduce_sum(ad.mul(out, out)))
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((3, 2), 4.0))

    def test_stack_index_inverse(self):
        x = t(make_rng(4).standard_normal((3, 2)))
        restacked = ad.stack([ad.index(x, i, axis=0) for i in range(3)], axis=0)
        np.testing.assert_array_equal(restacked.data, x.data)
        ad.backward(ad.reduce_sum(restacked))
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


class TestMatmul:
    def test_values_match_numpy(self):
        rng = make_rng(5)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 5))
        np.testing.assert_allclose(ad.matmul(t(a), t(b)).data, a @ b)

    def test_grad_check(self):
        rep = ad.grad_check(
            lambda a, b: ad.reduce_sum(ad.mul(m := ad.matmul(a, b), m)),
            [t(make_rng(6).standard_normal((3, 4))),
             t(make_rng(7).standard_normal((4, 2)))])
        assert rep.passed, rep

    def test_inner_extent_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))

    def test_rank1_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(t(np.ones(3)), t(np.ones((3, 2))))

    @pytest.mark.parametrize("a_batch, b_batch, ok", [
        ((2, 3), (3,), True), ((2, 1), (4,), True), ((5,), (), True), ((), (5,), True),
        ((2, 3), (2, 3), True), ((2, 3), (2,), False), ((3,), (4,), False)])
    def test_batch_extents_broadcast_or_raise(self, a_batch, b_batch, ok):
        a, b = np.ones(a_batch + (3, 4)), np.ones(b_batch + (4, 2))
        if ok:
            assert ad.matmul(t(a), t(b)).shape == np.matmul(a, b).shape
        else:
            with pytest.raises(ad.ShapeError, match="batch extents"):
                ad.matmul(t(a), t(b))


class TestConv:
    def test_matches_direct_convolution(self):
        rng = make_rng(8)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        out = ad.conv(t(x), t(w), stride=2, padding=1).data
        # direct reference: loop over output positions
        xp = np.pad(x, [(0, 0), (0, 0), (1, 1), (1, 1)])
        ref = np.zeros((2, 4, 3, 3))
        for b in range(2):
            for o in range(4):
                for i in range(3):
                    for j in range(3):
                        patch = xp[b, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        ref[b, o, i, j] = (patch * w[o]).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_grouped_matches_blockwise(self):
        rng = make_rng(9)
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((4, 2, 3, 3))
        out = ad.conv(t(x), t(w), padding=1, groups=2).data
        lo = ad.conv(t(x[:, :2]), t(w[:2]), padding=1).data
        hi = ad.conv(t(x[:, 2:]), t(w[2:]), padding=1).data
        np.testing.assert_allclose(out, np.concatenate([lo, hi], axis=1), rtol=1e-10)

    def test_rank3_input_raises(self):
        x = t(np.ones((2, 6, 4, 5, 5)))
        with pytest.raises(ad.ShapeError):
            ad.conv(x, t(np.ones((6, 1, 4, 5, 5))), groups=6)
        with pytest.raises(ad.ShapeError):
            ad.conv(x, t(np.ones((6, 1, 5, 5))), groups=6)

    def test_grad_check_strided_padded(self):
        rep = ad.grad_check(
            lambda x, w: ad.reduce_sum(ad.mul(c := ad.conv(x, w, stride=2, padding=1), c)),
            [t(make_rng(10).standard_normal((2, 2, 5, 5))),
             t(make_rng(11).standard_normal((3, 2, 3, 3)))])
        assert rep.passed, rep

    def test_grad_check_one_output_per_group(self):
        # C_out == groups but two channels per group: not depthwise
        rep = ad.grad_check(
            lambda x, w: ad.reduce_sum(ad.mul(c := ad.conv(x, w, padding=1, groups=2), c)),
            [t(make_rng(12).standard_normal((1, 4, 4, 4))),
             t(make_rng(13).standard_normal((2, 2, 3, 3)))])
        assert rep.passed, rep

    def test_kernel_too_large_raises(self):
        with pytest.raises(ad.ShapeError):
            ad.conv(t(np.ones((1, 1, 3, 3))), t(np.ones((1, 1, 5, 5))))

    def test_bad_groups_raise(self):
        with pytest.raises(ad.ShapeError):
            ad.conv(t(np.ones((1, 3, 4, 4))), t(np.ones((2, 3, 3, 3))), groups=2)

    @pytest.mark.parametrize("bad", [dict(stride=0), dict(stride=-1), dict(stride=1.7),
                                     dict(stride=2.0), dict(padding=-1), dict(padding=0.5)],
                             ids=lambda d: "{}={}".format(*next(iter(d.items()))))
    @pytest.mark.parametrize("groups", [1, 3], ids=["dense", "depthwise"])
    def test_bad_stride_or_padding_raises(self, bad, groups):
        x, w = t(np.ones((1, 3, 6, 6))), t(np.ones((3, 3 // groups, 3, 3)))
        with pytest.raises(ad.ShapeError, match=next(iter(bad))):
            ad.conv(x, w, groups=groups, **bad)

    def test_numpy_integer_stride_and_padding_are_ints(self):
        rng = make_rng(14)
        x, w = t(rng.standard_normal((1, 2, 7, 7))), t(rng.standard_normal((3, 2, 3, 3)))
        got = ad.conv(x, w, stride=np.int64(2), padding=np.int32(1)).data
        assert got.tobytes() == ad.conv(x, w, stride=2, padding=1).data.tobytes()

    @pytest.mark.parametrize("groups", [1, 3], ids=["dense", "depthwise"])
    def test_bias_is_one_node_of_its_own(self, groups):
        """Its parents are the conv's node and the bias; its backward sums
        ``g`` over batch and space for the bias and hands ``g`` itself to
        the conv's node."""
        rng = make_rng(15)
        x, w = t(rng.standard_normal((2, 3, 5, 5))), t(rng.standard_normal((3, 3 // groups, 3, 3)))
        b = t(rng.standard_normal(3))
        out = ad.conv(x, w, padding=1, groups=groups, bias=b)
        plain = ad.conv(x, w, padding=1, groups=groups)
        assert out.data.tobytes() == (plain.data + b.data.reshape(1, 3, 1, 1)).tobytes()
        conv_node, bias = out._node._parents
        assert bias is b and [p is q for p, q in zip(conv_node._parents, (x, w))] == [True] * 2
        g = rng.standard_normal(out.shape)
        out._node._backward(g)
        assert conv_node.grad is g and b.grad.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()
        with ad.no_grad():
            assert ad.conv(x, w, padding=1, groups=groups, bias=b)._node is None
        frozen = ad.conv(t(x.data, grad=False), t(w.data, grad=False), padding=1,
                         groups=groups, bias=b)  # only the bias needs a gradient
        assert len(frozen._node._parents) == 1 and frozen._node._parents[0] is b


def block_diagonal(w):
    """The depthwise weight [C, 1, *k] as a dense [C, C, *k] conv weight."""
    C = w.shape[0]
    dense = np.zeros((C, C) + w.shape[2:], dtype=w.dtype)
    for c in range(C):
        dense[c, c] = w[c, 0]
    return dense


# (x shape, kernel, stride, padding): k5 p2 s1, k5 p2 s2 on odd extents, and
# a full-extent kernel, as on the head's [B, C, T*H, W] view
DEPTHWISE_CASES = [
    ((2, 3, 7, 6), (5, 5), 1, 2),
    ((2, 3, 9, 7), (5, 5), 2, 2),
    ((2, 3, 8, 4), (8, 4), 1, 0),
]


class TestDepthwiseConv:
    """Depthwise convs take their own input-gradient path; the same conv
    written as a block-diagonal dense conv takes the generic one."""

    def run(self, case, dense, bias, x_grad, dtype, seed=20):
        x_shape, kernel, stride, padding = case
        rng = make_rng(seed)
        C = x_shape[1]
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal((C, 1) + kernel).astype(dtype)
        b = rng.standard_normal(C).astype(dtype)
        x_t = ad.Tensor(x, requires_grad=x_grad)
        w_t = ad.Tensor(block_diagonal(w) if dense else w, requires_grad=True)
        b_t = ad.Tensor(b, requires_grad=True) if bias else None
        out = ad.conv(x_t, w_t, stride=stride, padding=padding,
                      groups=1 if dense else C, bias=b_t)
        upstream = make_rng(seed + 1).standard_normal(out.shape).astype(dtype)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(upstream))))
        w_grad = w_t.grad
        if dense:  # the diagonal blocks; every other entry is the weight of a zero
            w_grad = np.stack([w_grad[c, c] for c in range(C)])[:, None]
        return out.data, x_t.grad, w_grad, None if b_t is None else b_t.grad

    @pytest.mark.parametrize("case", DEPTHWISE_CASES)
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_block_diagonal_dense(self, case, bias, x_grad):
        out, gx, gw, gb = self.run(case, False, bias, x_grad, np.float64)
        ref_out, ref_gx, ref_gw, ref_gb = self.run(case, True, bias, x_grad, np.float64)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gw, ref_gw, rtol=0, atol=1e-12)
        if bias:
            np.testing.assert_allclose(gb, ref_gb, rtol=0, atol=1e-12)
        if x_grad:
            np.testing.assert_array_equal(gx, ref_gx)
        else:
            assert gx is None and ref_gx is None

    @pytest.mark.parametrize("case", DEPTHWISE_CASES)
    def test_input_grad_bitwise_in_float32(self, case):
        gx = self.run(case, False, True, True, np.float32)[1]
        ref_gx = self.run(case, True, True, True, np.float32)[1]
        assert gx.dtype == ref_gx.dtype == np.float32
        np.testing.assert_array_equal(gx, ref_gx)

    @pytest.mark.parametrize("case", DEPTHWISE_CASES)
    def test_no_tape_under_no_grad(self, case):
        x_shape, kernel, stride, padding = case
        C = x_shape[1]
        x = t(make_rng(22).standard_normal(x_shape))
        w = t(make_rng(23).standard_normal((C, 1) + kernel))
        with ad.no_grad():
            out = ad.conv(x, w, stride=stride, padding=padding, groups=C, bias=t(np.ones(C)))
        assert not out.requires_grad
        assert out._node is None and out._parents == ()


def scatter_input_grad(g, w, stride, padding, groups, x_shape):
    """Reference conv input gradient: per-offset adds onto a zeroed
    ``[B, C, *padded]`` buffer, offsets in row-major order, then a crop.

    Each offset's terms are ``g * w[:, 0, offset]`` for a depthwise conv and
    the windows of the matmul back to columns otherwise (``g`` relaid to
    ``[groups, P, O_g]``, the layout ``ad.conv`` multiplies).
    """
    rank = w.ndim - 2
    kernel, out_spatial = w.shape[2:], g.shape[2:]
    B, C_out, C_g = g.shape[0], w.shape[0], w.shape[1]
    C_in = C_g * groups
    padded = tuple(n + 2 * p for n, p in zip(x_shape[2:], padding))
    if C_g == 1 and C_out == groups:
        w_c = w.reshape((C_out,) + (1,) * rank + kernel)
        terms = {o: g * w_c[(Ellipsis,) + o] for o in np.ndindex(*kernel)}
    else:
        g_flat = np.moveaxis(g, 1, -1).reshape(-1, groups, C_out // groups)
        g_flat = np.ascontiguousarray(g_flat.transpose(1, 0, 2))
        gcols = np.matmul(g_flat, w.reshape(groups, C_out // groups, -1))
        gcols = gcols.transpose(1, 0, 2).reshape((B,) + out_spatial + (C_in,) + kernel)
        gcols = np.moveaxis(gcols, 1 + rank, 1)  # [B, C, *out, *kernel]
        terms = {o: gcols[(Ellipsis,) + o] for o in np.ndindex(*kernel)}
    gx = np.zeros((B, C_in) + padded, dtype=terms[(0,) * rank].dtype)
    for offset, term in terms.items():
        gx[(slice(None), slice(None)) + tuple(
            slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out_spatial))] += term
    return gx[(slice(None), slice(None)) + tuple(
        slice(p, p + n) for p, n in zip(padding, x_shape[2:]))]


# (x shape, w shape, stride, padding, groups): depthwise 5x5 p2 at s1 and s2
# on odd extents, a full-extent depthwise kernel, dense 3x3 p1 s2, dense 1x1
# p0 at s1 and s2, and a grouped conv with two channels per group
SCATTER_CASES = [
    ((2, 3, 7, 9), (3, 1, 5, 5), 1, 2, 3),
    ((2, 3, 9, 7), (3, 1, 5, 5), 2, 2, 3),
    ((2, 3, 8, 4), (3, 1, 8, 4), 1, 0, 3),
    ((2, 4, 7, 9), (5, 4, 3, 3), 2, 1, 1),
    ((2, 4, 5, 6), (3, 4, 1, 1), 1, 0, 1),
    ((2, 4, 5, 6), (3, 4, 1, 1), 2, 0, 1),
    ((2, 4, 6, 5), (4, 2, 3, 3), 1, 1, 2),
]


class TestChannelsLastScatter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", SCATTER_CASES)
    def test_input_grad_bytes_match_reference(self, case, dtype):
        x_shape, w_shape, stride, padding, groups = case
        rank = len(w_shape) - 2
        rng = make_rng(30)
        x = ad.Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
        w = ad.Tensor(rng.standard_normal(w_shape).astype(dtype), requires_grad=True)
        with ad.precision(dtype):
            out = ad.conv(x, w, stride=stride, padding=padding, groups=groups)
            g = rng.standard_normal(out.shape).astype(dtype)
            ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
        ref = scatter_input_grad(g, w.data, (stride,) * rank, (padding,) * rank, groups,
                                 x_shape)
        assert x.grad.dtype == ref.dtype == dtype
        assert x.grad.shape == ref.shape and x.grad.flags.c_contiguous
        assert x.grad.tobytes() == np.ascontiguousarray(ref).tobytes()


# (x shape, w shape, stride, padding, bias, slice budget in clips, the batch
# slices expected): depthwise 5x5 p2 at s1, at s2 on odd extents (72 rows per
# clip, so slices of 4 clips), with a bias, and a full-extent kernel (1 row
# per clip, so slices of 32 clips); each leaves a short last slice
SLICED_CASES = [
    ((7, 16, 16, 16), (16, 1, 5, 5), 1, 2, False, 2, [2, 2, 2, 1]),
    ((12, 16, 15, 17), (16, 1, 5, 5), 2, 2, False, 2, [4, 4, 4]),
    ((7, 8, 8, 12), (8, 1, 5, 5), 1, 2, True, 3, [3, 3, 1]),
    ((96, 12, 8, 2), (12, 1, 8, 2), 1, 0, False, 64, [64, 32]),
]
COLUMN_GATHER = ad._column_gather  # every conv's columns are made here


class TestSlicedDepthwise:
    """A no-tape depthwise conv builds its columns one batch slice at a time;
    every other conv builds them in one buffer."""

    @staticmethod
    def conv_calls(monkeypatch, budget, x, w, stride, padding, groups, bias=None):
        """The no-tape output at a slice budget of ``budget`` bytes, and the
        batch extent of each column buffer it built."""
        calls = []

        def counted(xp, *args, **kwargs):
            calls.append(xp.shape[0])
            return COLUMN_GATHER(xp, *args, **kwargs)

        monkeypatch.setattr(ad, "_column_gather", counted)
        monkeypatch.setattr(ad, "_DW_SLICE_BYTES", budget)
        with ad.no_grad():
            out = ad.conv(ad.Tensor(x), ad.Tensor(w), stride=stride, padding=padding,
                          groups=groups, bias=None if bias is None else ad.Tensor(bias))
        return out.data, calls

    @staticmethod
    def inputs(x_shape, w_shape, bias, dtype, seed=40):
        rng = make_rng(seed)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal(w_shape).astype(dtype)
        b = rng.standard_normal(w_shape[0]).astype(dtype) if bias else None
        return x, w, b

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", SLICED_CASES)
    def test_slices_match_one_buffer_bytewise(self, monkeypatch, case, dtype):
        x_shape, w_shape, stride, padding, bias, clips, slices = case
        x, w, b = self.inputs(x_shape, w_shape, bias, dtype)
        C = w_shape[0]
        out_spatial = [ad._conv_out_extent(n, k, stride, padding)
                       for n, k in zip(x_shape[2:], w_shape[2:])]
        clip_bytes = C * np.prod(out_spatial) * np.prod(w_shape[2:]) * x.itemsize
        whole, whole_calls = self.conv_calls(monkeypatch, 1 << 50, x, w, stride, padding, C, b)
        sliced, sliced_calls = self.conv_calls(monkeypatch, int(clips * clip_bytes), x, w,
                                               stride, padding, C, b)
        assert whole_calls == [x_shape[0]] and sliced_calls == slices
        assert sliced.dtype == whole.dtype == dtype and sliced.flags.c_contiguous
        assert sliced.shape == (x_shape[0], C) + tuple(out_spatial)
        assert sliced.tobytes() == whole.tobytes()
        taped = ad.conv(ad.Tensor(x, requires_grad=True), ad.Tensor(w), stride=stride,
                        padding=padding, groups=C, bias=None if b is None else ad.Tensor(b))
        assert taped.data.tobytes() == whole.tobytes()  # the tape path's forward

    def test_column_buffer_kept_between_calls(self, monkeypatch):
        # a fresh buffer per call lets malloc return its pages and fault them in again
        monkeypatch.setattr(ad, "_dw_columns", np.empty(0, dtype=np.uint8))
        x, w, _ = self.inputs((4, 8, 16, 16), (8, 1, 5, 5), False, np.float32)
        clip_bytes = 8 * 16 * 16 * 25 * 4
        first, _ = self.conv_calls(monkeypatch, 2 * clip_bytes, x, w, 1, 2, 8)
        kept = ad._dw_columns
        assert kept.nbytes == 2 * clip_bytes
        x64, w64, _ = self.inputs((4, 8, 8, 8), (8, 1, 5, 5), False, np.float64, seed=44)
        other, calls = self.conv_calls(monkeypatch, 2 * clip_bytes, x64, w64, 1, 2, 8)
        assert ad._dw_columns is kept and calls == [4]  # 4 float64 clips of 64 rows fit
        again, _ = self.conv_calls(monkeypatch, 2 * clip_bytes, x, w, 1, 2, 8)
        assert again.tobytes() == first.tobytes()
        whole, _ = self.conv_calls(monkeypatch, 1 << 50, x64, w64, 1, 2, 8)
        assert other.tobytes() == whole.tobytes()

    def test_unaligned_rows_never_sliced(self, monkeypatch):
        # 9 x 11 = 99 rows per clip: no batch slice of 7 clips is 32-row aligned
        x, w, _ = self.inputs((7, 8, 9, 11), (8, 1, 5, 5), False, np.float32)
        _, calls = self.conv_calls(monkeypatch, 1, x, w, 1, 2, 8)
        assert calls == [7]

    @pytest.mark.parametrize("w_shape, padding, groups", [
        ((8, 4, 3, 3), 1, 1), ((8, 4, 1, 1), 0, 1), ((2, 2, 3, 3), 1, 2),
    ], ids=["dense3x3", "dense1x1", "one-output-per-group"])
    def test_dense_conv_never_sliced(self, monkeypatch, w_shape, padding, groups):
        rng = make_rng(41)
        x = rng.standard_normal((9, 4, 8, 8)).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        _, calls = self.conv_calls(monkeypatch, 1, x, w, 1, padding, groups)
        assert calls == [9]

    def taped(self, monkeypatch, budget, x, w, b, stride, padding, seed=43):
        """Forward and backward of a taped depthwise conv at a slice budget of
        ``budget`` bytes: the output, the input, weight and bias gradients,
        and the (batch, channel) extents of each column buffer built by the
        forward and by the backward."""
        calls = []

        def counted(xp, *args, **kwargs):
            calls.append(xp.shape[:2])
            return COLUMN_GATHER(xp, *args, **kwargs)

        monkeypatch.setattr(ad, "_column_gather", counted)
        monkeypatch.setattr(ad, "_DW_SLICE_BYTES", budget)
        x_t, w_t = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
        b_t = None if b is None else ad.Tensor(b, requires_grad=True)
        out = ad.conv(x_t, w_t, stride=stride, padding=padding, groups=w.shape[0], bias=b_t)
        forward_calls = list(calls)
        g = make_rng(seed).standard_normal(out.shape).astype(x.dtype)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
        grads = [x_t.grad, w_t.grad] + ([] if b_t is None else [b_t.grad])
        return [out.data] + grads, forward_calls, calls[len(forward_calls):]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", SLICED_CASES)
    def test_taped_slices_like_no_tape_and_rebuilds_columns_per_channel_chunk(
            self, monkeypatch, case, dtype):
        """The taped forward slices the batch as the no-tape one does, and the
        weight gradient rebuilds the columns for a few channels at a time;
        every output and gradient keeps the bytes of one whole buffer."""
        x_shape, w_shape, stride, padding, bias, _, _ = case
        x, w, b = self.inputs(x_shape, w_shape, bias, dtype)
        B, C = x_shape[0], w_shape[0]
        rows = np.prod([ad._conv_out_extent(n, k, stride, padding)
                        for n, k in zip(x_shape[2:], w_shape[2:])])
        channel_bytes = int(B * rows * np.prod(w_shape[2:]) * x.itemsize)
        whole, whole_fwd, whole_bwd = self.taped(monkeypatch, 1 << 50, x, w, b, stride, padding)
        assert whole_fwd == whole_bwd == [(B, C)]
        # 5 channels per chunk divides none of C = 16, 8, 12
        for budget, chunks in ((1, [1] * C), (5 * channel_bytes, [5] * (C // 5) + [C % 5])):
            _, no_tape = self.conv_calls(monkeypatch, budget, x, w, stride, padding, C, b)
            arrays, fwd, bwd = self.taped(monkeypatch, budget, x, w, b, stride, padding)
            assert [n for n, _ in fwd] == no_tape and len(no_tape) > 1
            assert all(c == C for _, c in fwd)
            assert bwd == [(B, m) for m in chunks]
            for got, ref in zip(arrays, whole):
                assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def sliding_window_columns(x, kernel, stride, padding, out_spatial, groups):
    """Reference columns: one copy of the strided window view of the
    zero-padded input, moved to ``[groups, B * prod(out), C_g * prod(kernel)]``."""
    rank = len(kernel)
    B, C = x.shape[:2]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    view = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=tuple(range(2, 2 + rank)))
    view = view[(slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)]
    view = view.reshape((B, groups, C // groups) + tuple(out_spatial) + tuple(kernel))
    view = np.moveaxis(view, (1, 2), (0, 2 + rank))  # [groups, B, *out, C_g, *kernel]
    return np.ascontiguousarray(view).reshape(groups, B * int(np.prod(out_spatial)), -1)


def column_args(x_shape, kernel, stride, padding):
    rank = len(kernel)
    out_spatial = tuple(ad._conv_out_extent(n, k, stride, padding)
                        for n, k in zip(x_shape[2:], kernel))
    return tuple(kernel), (stride,) * rank, (padding,) * rank, out_spatial


class TestGatherColumns:
    """``_im2col`` gathers its columns along a cached window index; the
    sliding-window copy it replaced is the reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("spatial, kernel", [((7, 5), (3, 2)), ((3, 5, 7), (2, 3, 1))],
                             ids=["rank2", "rank3"])
    def test_columns_match_sliding_window_copy(self, spatial, kernel, stride, padding, groups,
                                               dtype):
        for B in (1, 3):
            x_shape = (B, 4) + spatial
            x = make_rng(50).standard_normal(x_shape).astype(dtype)
            args = column_args(x_shape, kernel, stride, padding)
            cols = ad._im2col(x, *args, groups)
            ref = sliding_window_columns(x, *args, groups)
            assert cols.dtype == dtype and cols.shape == ref.shape and cols.flags.c_contiguous
            assert cols.tobytes() == ref.tobytes()

    def test_strided_input(self):
        # a permuted view, as the model's token/map relayouts hand over
        x = make_rng(51).standard_normal((5, 7, 3, 2)).astype(np.float32).transpose(3, 2, 0, 1)
        for groups, padding in ((1, 0), (1, 2), (3, 1)):
            args = column_args(x.shape, (3, 3), 1, padding)
            assert (ad._im2col(x, *args, groups).tobytes()
                    == sliding_window_columns(x, *args, groups).tobytes())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_into_kept_buffer_with_short_last_slice(self, dtype):
        x = make_rng(52).standard_normal((7, 6, 9, 8)).astype(dtype)
        args = column_args(x.shape, (5, 5), 2, 2)
        clip = 6 * int(np.prod(args[3])) * 25  # column entries per clip
        buf = np.empty(3 * clip, dtype=dtype)
        for lo in range(0, 7, 3):  # slices of 3, 3 and 1 clips
            n = min(3, 7 - lo)
            cols = ad._im2col(x[lo:lo + n], *args, 6, out=buf[:n * clip])
            assert np.shares_memory(cols, buf)
            assert cols.tobytes() == sliding_window_columns(x[lo:lo + n], *args, 6).tobytes()

    def test_window_index_cached_read_only_and_batch_free(self):
        cached = ad._window_index
        assert cached.cache_info().maxsize is not None  # bounded
        cached.cache_clear()
        args = column_args((2, 4, 9, 9), (5, 5), 1, 2)
        for B in (2, 5, 2):
            x = np.ones((B, 4, 9, 9), dtype=np.float32)
            ad._im2col(x, *args, 4)
        assert cached.cache_info().misses == 1 and cached.cache_info().hits == 2
        index = cached((13, 13), (5, 5), (1, 1), (9, 9), 1)
        assert cached.cache_info().hits == 3
        assert index.shape == (81, 25) and not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1
        other = cached((13, 13), (5, 5), (2, 2), (5, 5), 1)
        assert other is not index and cached.cache_info().misses == 2

    def test_window_index_cache_holds_every_default_model_shape(self):
        # the default model's train step and eval passes, at any batch size,
        # ask for 10 window indexes: all are built by the first step and the
        # first eval pass, and the cache keeps them with room to spare
        from spikevid import training
        from spikevid.data import gen_moving_patterns
        from spikevid.model import ModelConfig, VideoSpikeNet, time_major

        cached = ad._window_index
        cached.cache_clear()
        ds = gen_moving_patterns(seed=3, num=16)
        model = VideoSpikeNet(ModelConfig(), seed=3)
        cfg = training.TrainConfig()
        optimizer = training.AdamW(model.parameters(), cfg)

        def train_step():
            model.train()
            loss = training.cross_entropy(model(ad.tensor(time_major(ds.clips))), ds.labels)
            optimizer.zero_grad()
            ad.backward(loss)
            optimizer.step(cfg.base_lr)

        train_step()
        model.predict(ds.clips, 16)
        misses = cached.cache_info().misses
        model.predict(ds.clips[:2], 1)
        train_step()
        info = cached.cache_info()
        assert info.misses == misses
        assert info.currsize <= info.maxsize // 2


# (x shape, w shape, groups): 1x1 convs at stride 1 and padding 0, whose input
# gradient is one relaying pass: dense, grouped, depthwise, and dense on a
# [B, C, T*H, W] view
ONE_BY_ONE_CASES = [
    ((2, 4, 5, 6), (3, 4, 1, 1), 1),
    ((2, 4, 5, 3), (6, 2, 1, 1), 2),
    ((2, 4, 3, 5), (4, 1, 1, 1), 4),
    ((2, 4, 6, 3), (5, 4, 1, 1), 1),
]


class TestOneByOneInputGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ONE_BY_ONE_CASES)
    def test_bytes_match_scatter_with_negative_zeros(self, case, dtype):
        x_shape, w_shape, groups = case
        rank = len(w_shape) - 2
        rng = make_rng(53)
        x = ad.Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
        w = ad.Tensor(rng.standard_normal(w_shape).astype(dtype), requires_grad=True)
        with ad.precision(dtype):
            out = ad.conv(x, w, groups=groups)
            g = rng.standard_normal(out.shape).astype(dtype)
            g[:, :, ::2] = -0.0  # terms of -0.0, which a zeroed buffer makes +0.0
            ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
        ref = scatter_input_grad(g, w.data, (1,) * rank, (0,) * rank, groups, x_shape)
        assert not np.signbit(ref[:, :, ::2]).any()
        assert x.grad.dtype == dtype and x.grad.shape == x_shape and x.grad.flags.c_contiguous
        assert x.grad.tobytes() == np.ascontiguousarray(ref).tobytes()

def masked_sigmoid(x):
    """The two-branch sigmoid: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, 1e-30, -1e-30, 88.7, -88.7, 200.0, -200.0, np.inf, -np.inf]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_masked_branches(self, dtype):
        x = np.concatenate([np.array(self.EDGES),
                            make_rng(43).standard_normal(100_000) * 30.0]).astype(dtype)
        with np.errstate(over="ignore", under="ignore"):
            ref = masked_sigmoid(x)
        got = ad._sigmoid(x)
        assert got.dtype == dtype and got.shape == x.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_gives_nan_and_scalar_keeps_shape(self, dtype):
        assert np.all(np.isnan(ad._sigmoid(np.array([np.nan, -np.nan], dtype=dtype))))
        a = np.array(0.25, dtype=dtype)  # a PLIF leak parameter is 0-d
        got = ad._sigmoid(a)
        assert got.shape == () and got.dtype == dtype
        assert got.tobytes() == masked_sigmoid(a).tobytes()


class TestSpike:
    def test_forward_is_binary_threshold(self):
        h = t([[0.5, 1.0], [1.5, -2.0]])
        out = ad.spike(h, 1.0, 4.0)
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_surrogate_gradient_shape(self):
        h = t(np.linspace(-2, 4, 13))
        out = ad.spike(h, 1.0, 4.0)
        ad.backward(ad.reduce_sum(out))
        expected = ad.surrogate_slope(np.linspace(-2, 4, 13), 1.0, 4.0)
        np.testing.assert_allclose(h.grad, expected, rtol=1e-12)

    def test_surrogate_peak_at_threshold(self):
        for alpha in (1.0, 2.0, 4.0, 8.0):
            peak = ad.surrogate_slope(np.array([1.0]), 1.0, alpha)[0]
            assert abs(peak - alpha / 4.0) < 1e-12

    def test_smooth_variant_grad_check(self):
        rep = ad.grad_check(
            lambda h: ad.reduce_sum(ad.mul(s := ad.spike(h, 1.0, 4.0, smooth=True), s)),
            [t(make_rng(12).standard_normal(20))])
        assert rep.passed, rep


class TestBackwardMechanics:
    def test_diamond_graph_counts_both_paths(self):
        x = t([3.0])
        y = ad.mul(x, x)  # two uses of x
        ad.backward(ad.reduce_sum(y))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_add_copies_for_one_parent_and_hands_over_to_the_other(self):
        w = ad.tensor([2.0, 5.0])
        x = t([3.0, 4.0])
        ad.backward(ad.reduce_sum(ad.mul(ad.add(x, x), w)))  # one parent twice
        np.testing.assert_array_equal(x.grad, [4.0, 10.0])
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        # b takes add's gradient and then gains more; a's copy must not move
        loss = ad.add(ad.reduce_sum(ad.mul(ad.add(a, b), w)), ad.reduce_sum(ad.mul(b, w)))
        ad.backward(loss)
        np.testing.assert_array_equal(a.grad, [2.0, 5.0])
        np.testing.assert_array_equal(b.grad, [4.0, 10.0])

    @pytest.mark.parametrize("b_case", ["needs_none", "broadcast", "holds_one", "takes_g"])
    def test_add_copies_only_when_the_second_parent_takes_the_gradient(self, b_case):
        a = t(np.zeros((2, 3)))
        b = t(np.zeros((1, 3) if b_case == "broadcast" else (2, 3)), grad=b_case != "needs_none")
        if b_case == "holds_one":
            b.grad = np.ones((2, 3))
        out = ad.add(a, b)
        g = np.arange(6.0).reshape(2, 3)
        out._node._backward(g)
        assert (a.grad is g) == (b_case != "takes_g")
        assert (b.grad is g) == (b_case == "takes_g")
        np.testing.assert_array_equal(a.grad, g)
        expected = {"needs_none": None, "broadcast": [[3.0, 5.0, 7.0]],
                    "holds_one": g + 1.0, "takes_g": g}[b_case]
        if expected is None:
            assert b.grad is None
        else:
            np.testing.assert_array_equal(b.grad, expected)

    def test_first_arrival_transposed_view_taken_or_copied_in_its_layout(self):
        """An owned dense view (a transpose) becomes the gradient itself; any
        copy keeps the layout of what arrived, so later sums over the
        gradient run in the same order either way."""
        g = np.arange(24.0).reshape(4, 6)
        x = t(np.zeros((6, 4)))
        ad._accumulate(x, g.T, owned=True)
        assert np.shares_memory(x.grad, g) and x.grad.strides == g.T.strides
        for view, owned in ((g.T, False), (g[:, ::2].T, True)):  # not owned; not dense
            x = t(np.zeros(view.shape))
            ad._accumulate(x, view, owned=owned)
            assert not np.shares_memory(x.grad, g) and x.grad.flags.f_contiguous
            np.testing.assert_array_equal(x.grad, view)
        x = t(np.ones((6, 4)))
        w = ad.tensor(g)
        ad.backward(ad.reduce_sum(ad.mul(ad.permute(x, (1, 0)), w)))
        assert x.grad.strides == g.T.strides
        np.testing.assert_array_equal(x.grad, g.T)

    def test_deep_chain_iterative(self):
        # recursion-free traversal must handle graphs deeper than the
        # interpreter's recursion limit
        x = t([1.0])
        y = x
        for _ in range(5000):
            y = ad.add(y, ad.tensor([0.0]))
        ad.backward(ad.reduce_sum(y))
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_backward_releases_visited_nodes(self):
        """An interior node whose output the caller dropped is freed, with the
        array that its backward captured (exp's own output), before the
        backward of a node upstream of it runs; leaves and the loss keep
        their gradients."""
        x, w = t([1.0, 2.0]), t([3.0, -1.0])
        upstream = ad.mul(x, w)
        interior = ad.exp(upstream)
        dropped = [weakref.ref(interior._node), weakref.ref(interior.data)]
        loss = ad.reduce_sum(interior)
        del interior
        assert all(ref() is not None for ref in dropped)  # the tape holds them
        alive_at_upstream = []
        upstream_bwd = upstream._node._backward

        def spy(g):
            alive_at_upstream.append([ref() is not None for ref in dropped])
            upstream_bwd(g)

        upstream._node._backward = spy
        ad.backward(loss)
        assert alive_at_upstream == [[False, False]]
        e = np.exp(x.data * w.data)
        np.testing.assert_array_equal(x.grad, e * w.data)
        np.testing.assert_array_equal(w.grad, e * x.data)
        np.testing.assert_array_equal(loss.grad, 1.0)

    def test_tape_consumed_guard(self):
        x = t([1.0])
        loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(loss)
        with pytest.raises(ad.TapeConsumedError):
            ad.backward(loss)

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.backward(t([1.0, 2.0]))

    def test_no_grad_builds_no_graph(self):
        x = t([1.0])
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad

    def test_precision_context(self):
        with ad.precision(np.float64):
            assert ad.tensor([1.0]).data.dtype == np.float64
        assert ad.tensor([1.0]).data.dtype == np.float32


class TestGradCheckHarness:
    def test_detects_wrong_gradient(self):
        def broken(a):
            # correct value, deliberately wrong backward rule
            out = ad.mul(a, a)
            out_bad = ad._make(out.data, (a,),
                               lambda nodes, g: ad._accumulate(nodes[0], g * 3.0))
            return ad.reduce_sum(out_bad)

        rep = ad.grad_check(broken, [t([1.0, 2.0])])
        assert not rep.passed

    def test_report_repr(self):
        rep = ad.grad_check(lambda a: ad.reduce_sum(ad.mul(a, a)), [t([1.0])])
        assert "pass" in repr(rep)


def _tape(loss):
    """Every node of the tape behind ``loss``: its own, the op nodes and the
    leaves that need a gradient, each its own node."""
    seen, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _record_tensors(monkeypatch):
    """Every tensor that a primitive takes or returns from now on, leaves
    and constants included, by id; holding them keeps each op output (and
    its array) alive."""
    seen, make = {}, ad._make

    def spy(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        seen.update((id(t), t) for t in (*parents, out))
        return out

    monkeypatch.setattr(ad, "_make", spy)
    return seen


def assert_no_shared_gradients(tensors):
    """Every gradient is writeable, no two share memory, and none shares
    memory with any tensor's data (an alias would let in-place gradient
    clipping or accumulation corrupt another array)."""
    grads = [(i, t.grad) for i, t in enumerate(tensors) if t.grad is not None]
    assert grads
    for n, (i, g) in enumerate(grads):
        assert g.flags.writeable
        for _, other in grads[n + 1:]:
            assert not np.shares_memory(g, other)
        for t in tensors:
            assert not np.shares_memory(g, t.data), f"grad of tensor {i} aliases data"


def _lif_case(x, a):
    return ad.reduce_sum(ad.mul(ad.lif_sequence(x, a, v_reset=0.1), x))


def _bn_case(x, g, b, stats=None):
    return ad.reduce_sum(ad.mul(y := ad.batch_norm(x, g, b, (0, 2), 1e-5, stats)[0], y))


# name -> (f, input shapes); every primitive, each through the loss it feeds
PRIMITIVE_CASES = {
    "add": (lambda a, b: ad.reduce_sum(ad.add(a, b)), [(3, 4), (3, 4)]),
    "add_self": (lambda a: ad.reduce_sum(ad.mul(ad.add(a, a), a)), [(3, 4)]),
    # the second parent needs no gradient, is broadcast, or already holds one
    # (the outer add hands it g first): the first takes g itself
    "add_const": (lambda a: ad.reduce_sum(ad.mul(ad.add(a, ad.tensor(np.ones((3, 4)))), a)),
                  [(3, 4)]),
    "add_broadcast": (lambda a, b: ad.reduce_sum(ad.mul(ad.add(a, b), a)), [(3, 4), (1, 4)]),
    "add_held": (lambda a, b: ad.reduce_sum(ad.mul(ad.add(ad.add(a, b), b), a)),
                 [(3, 4), (3, 4)]),
    "sub": (lambda a, b: ad.reduce_sum(ad.sub(a, b)), [(3, 4), (3, 4)]),
    "mul": (lambda a, b: ad.reduce_sum(ad.mul(a, b)), [(3, 4), (1, 4)]),
    "mul_self": (lambda a: ad.reduce_sum(ad.mul(a, a)), [(3, 4)]),
    "div": (lambda a, b: ad.reduce_sum(ad.div(a, ad.add(ad.mul(b, b), ad.tensor(1.0)))),
            [(3, 4), (3, 4)]),
    "scale": (lambda a: ad.reduce_sum(ad.scale(a, -2.0)), [(3, 4)]),
    "exp_log_sqrt_sigmoid": (lambda a: ad.reduce_sum(ad.log(ad.sqrt(ad.add(
        ad.exp(a), ad.sigmoid(a))))), [(3, 4)]),
    "reduce_sum": (lambda a: ad.reduce_sum(a), [(3, 4)]),
    "reduce_mean": (lambda a: ad.reduce_sum(ad.reduce_mean(a, axes=(1,), keepdims=True)),
                    [(3, 4)]),
    "matmul": (lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [(3, 4), (4, 2)]),
    "matmul_broadcast": (lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [(2, 3, 4), (4, 2)]),
    "structural": (lambda a: ad.reduce_mean(ad.concat([
        ad.permute(ad.reshape(a, (4, 3)), (1, 0)),
        ad.stack([ad.index(a, 0, axis=0)] * 2, axis=0)], axis=0)), [(3, 4)]),
    "conv_dense": (lambda x, w, b: ad.reduce_sum(ad.conv(x, w, padding=1, bias=b)),
                   [(2, 3, 5, 5), (4, 3, 3, 3), (4,)]),
    "conv_depthwise": (lambda x, w: ad.reduce_sum(ad.conv(x, w, padding=2, groups=3)),
                       [(2, 3, 5, 5), (3, 1, 5, 5)]),
    "conv_depthwise_strided": (lambda x, w: ad.reduce_sum(ad.conv(
        x, w, stride=2, padding=2, groups=3)), [(2, 3, 7, 7), (3, 1, 5, 5)]),
    "conv_dense_strided": (lambda x, w: ad.reduce_sum(ad.conv(x, w, stride=2, padding=1)),
                           [(2, 3, 7, 7), (4, 3, 3, 3)]),
    # the loss keeps its grad, so a view of it must not reach a parent
    "reshape_loss": (lambda a: ad.reshape(a, ()), [(1, 1)]),
    "permute_loss": (lambda a: ad.permute(a, (1, 0)), [(1, 1)]),
    "spike": (lambda h: ad.reduce_sum(ad.spike(h, 0.5, 4.0)), [(3, 4)]),
    "lif_sequence": (_lif_case, [(3, 2, 4), ()]),
    "batch_norm_train": (_bn_case, [(3, 2, 4), (1, 2, 1), (1, 2, 1)]),
    "batch_norm_eval": (lambda x, g, b: _bn_case(x, g, b, (np.zeros((1, 2, 1)),
                                                            np.ones((1, 2, 1)))),
                        [(3, 2, 4), (1, 2, 1), (1, 2, 1)]),
}


class TestTapeNodes:
    def test_every_tape_node_is_made_by_make(self, monkeypatch):
        from spikevid.model import ModelConfig, VideoSpikeNet
        from spikevid.training import cross_entropy

        made = []  # kept alive, so no other tensor can reuse one of their ids
        make = ad._make

        def spy(data, parents, backward_fn):
            made.append(make(data, parents, backward_fn))
            return made[-1]

        monkeypatch.setattr(ad, "_make", spy)
        model = VideoSpikeNet(ModelConfig(), seed=0)
        model.train()
        clip = ad.tensor(make_rng(42).random((model.cfg.time_steps, 2, 3, 32, 32)))
        loss = cross_entropy(model(clip), np.array([0, 1]))
        made_ids = {id(t._node) for t in made}
        nodes = [n for n in _tape(loss) if n._backward is not None]
        bypass = [n for n in nodes if id(n) not in made_ids]
        assert nodes and not bypass, f"{len(bypass)} of {len(nodes)} tape nodes bypass _make"


class TestGradientOwnership:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(PRIMITIVE_CASES))
    def test_primitive_gradients_are_unaliased(self, monkeypatch, case, dtype):
        f, shapes = PRIMITIVE_CASES[case]
        rng = make_rng(40)
        seen = _record_tensors(monkeypatch)
        with ad.precision(dtype):
            xs = [ad.Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                  for s in shapes]
            loss = f(*xs)
            tensors = list(seen.values())
            ad.backward(loss)
        assert all(x.grad is not None for x in xs)
        assert_no_shared_gradients(tensors)

    def test_micro_model_gradients_are_unaliased(self, monkeypatch):
        from spikevid.model import VideoSpikeNet
        from spikevid.training import cross_entropy
        from spikevid.verification import micro_model_config

        model = VideoSpikeNet(micro_model_config(), seed=0)
        model.train()
        clip = ad.tensor(make_rng(41).random((2, 2, 3, 16, 16)))
        seen = _record_tensors(monkeypatch)
        loss = cross_entropy(model(clip), np.array([0, 2]))
        seen.update((id(p), p) for p in model.parameters())
        tensors = list(seen.values())
        ad.backward(loss)
        assert_no_shared_gradients(tensors)
        buffers = [b for _, b in model.named_buffers()]
        for p in model.parameters():
            assert not any(np.shares_memory(p.grad, b) for b in buffers)


# name -> (x shape, w shape, stride, padding, groups): the dense convs of the
# model (strided 3x3, 1x1) and a grouped 3x3
DENSE_CONV_CASES = {
    "3x3_stride2": ((2, 3, 9, 7), (4, 3, 3, 3), 2, 1, 1),
    "1x1": ((2, 5, 4, 6), (3, 5, 1, 1), 1, 0, 1),
    "grouped_3x3": ((2, 4, 6, 5), (6, 2, 3, 3), 1, 1, 2),
}


def conv_keeping_columns(x, w, stride, padding, groups, bias, upstream):
    """Reference dense/grouped conv whose backward reads the forward's own
    ``_im2col`` columns: the output and the input, weight and bias gradients
    for the upstream gradient ``upstream``."""
    B, C_out, C_g, kernel = x.shape[0], w.shape[0], w.shape[1], w.shape[2:]
    stride, padding = (stride,) * 2, (padding,) * 2
    out_spatial = tuple((n + 2 * p - k) // s + 1
                        for n, k, s, p in zip(x.shape[2:], kernel, stride, padding))
    O_g = C_out // groups
    w_g = w.reshape(groups, O_g, -1)
    cols = ad._im2col(x, kernel, stride, padding, out_spatial, groups)
    out = np.empty((B, C_out) + out_spatial, dtype=np.result_type(x, w))
    out_g = np.matmul(cols, np.swapaxes(w_g, 1, 2)).reshape((groups, B) + out_spatial + (O_g,))
    out.reshape((B, groups, O_g) + out_spatial)[...] = np.moveaxis(out_g, (0, -1), (1, 2))
    g_flat = np.moveaxis(upstream.reshape((B, groups, O_g) + out_spatial), (1, 2), (0, -1))
    g_flat = np.ascontiguousarray(g_flat).reshape(groups, -1, O_g)
    gw = np.matmul(np.swapaxes(g_flat, 1, 2), cols).reshape(w.shape)
    gcols = np.matmul(g_flat, w_g).reshape((groups, B) + out_spatial + (C_g,) + kernel)
    gcols = np.moveaxis(gcols, (0, 1), (3, 2)).reshape(out_spatial + x.shape[:2] + kernel)
    gx = ad._conv_input_grad(x.shape, lambda offset: gcols[(Ellipsis,) + offset], kernel,
                             stride, padding, out_spatial, gcols.dtype)
    if bias is None:
        return out, gx, gw
    return out + bias.reshape(1, C_out, 1, 1), gx, gw, upstream.sum(axis=(0, 2, 3))


def _conv_node(out, bias):
    """The conv's own tape node behind ``out``: with a ``bias``, the first
    parent of the bias's node."""
    return out._node._parents[0] if bias is not None else out._node


def _held_arrays(out, *parents, node=None):
    """The arrays of at least the first parent's size that the backward
    closure of ``node`` (by default ``out``'s node) holds, other than its
    parents' and its output's data. The node's backward binds the parents'
    nodes, which hold no array, to that closure."""
    own = [p.data for p in parents] + [out.data]
    size = parents[0].data.size
    held = []
    for cell in (node or out._node)._backward.func.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # a name the forward never bound
            continue
        if (isinstance(value, np.ndarray) and value.size >= size
                and not any(np.shares_memory(value, d) for d in own)):
            held.append(value)
    return held


def _lif_spikes(seed, consumer, dtype=np.float32):
    """A LIF layer's input and its bool spikes, with a tape, and a weight for
    ``consumer`` (None if it reads only spikes)."""
    rng = make_rng(seed)
    x_shape, w_shape = SPIKE_CONSUMER_SHAPES[consumer]
    x = ad.Tensor(rng.normal(0.8, 1.0, x_shape).astype(dtype), requires_grad=True)
    w = None
    if w_shape is not None:
        w = ad.Tensor(rng.standard_normal(w_shape).astype(dtype), requires_grad=True)
    return x, ad.lif_sequence(x), w


def _frames(s):
    """[T, B, C, H, W] -> [T * B, C, H, W]"""
    return ad.reshape(s, (s.shape[0] * s.shape[1],) + s.shape[2:])


# consumer -> (LIF input shape, weight shape or None)
SPIKE_CONSUMER_SHAPES = {
    "matmul": ((4, 3, 10, 12), (12, 7)),
    "matmul_of_two_spikes": ((4, 3, 10, 12), None),
    "dense_3x3_stride2": ((3, 2, 4, 9, 7), (5, 4, 3, 3)),
    "dense_1x1": ((3, 2, 4, 6, 5), (6, 4, 1, 1)),
    "depthwise_5x5_stride2": ((3, 2, 4, 9, 8), (4, 1, 5, 5)),
}
# consumer -> (the operands it reads, from spikes and a weight; the op)
SPIKE_CONSUMERS = {
    "matmul": (lambda s, w: (s, w), ad.matmul),
    # K^T V of spiking attention: both operands are spikes
    "matmul_of_two_spikes": (lambda s, w: (ad.permute(s, (0, 1, 3, 2)), s), ad.matmul),
    "dense_3x3_stride2": (lambda s, w: (_frames(s), w),
                          functools.partial(ad.conv, stride=2, padding=1)),
    "dense_1x1": (lambda s, w: (_frames(s), w), ad.conv),
    "depthwise_5x5_stride2": (lambda s, w: (_frames(s), w),
                              functools.partial(ad.conv, stride=2, padding=2, groups=4)),
}


class TestLeanTape:
    """A tape node keeps only what its backward cannot rebuild from its
    parents' data and its output (bit for bit: TestLayers' chain reference,
    TestSlicedDepthwise and TestFusedSequenceMatchesStepwise)."""

    @pytest.mark.parametrize("frozen", [False, True])
    def test_batch_norm_keeps_no_input_sized_array(self, frozen):
        rng = make_rng(50)
        x = t(rng.standard_normal((4, 3, 5)))
        gamma, beta = t(rng.standard_normal((1, 3, 1))), t(rng.standard_normal((1, 3, 1)))
        stats = (np.zeros((1, 3, 1)), np.ones((1, 3, 1))) if frozen else None
        y = ad.batch_norm(x, gamma, beta, (0, 2), 1e-5, stats)[0]
        assert y._node is not None and _held_arrays(y, x, gamma, beta) == []

    def test_running_mean_update_after_forward_does_not_reach_backward(self):
        """The backward rebuilds diff from the frozen mean, so the node keeps
        its own copy; a train-mode forward updates the running one in place."""
        rng = make_rng(53)
        x0 = rng.standard_normal((4, 3, 5))
        params = rng.standard_normal((2, 1, 3, 1))
        grads = []
        for update in (False, True):
            x, gamma, beta = t(x0), t(params[0]), t(params[1])
            running = (np.full((1, 3, 1), 0.5), np.ones((1, 3, 1)))
            with ad.precision(np.float64):  # the statistics' own dtype: no conversion copy
                y = ad.batch_norm(x, gamma, beta, (0, 2), 1e-5, running)[0]
                if update:
                    running[0][...] += 1.0
                ad.backward(ad.reduce_sum(ad.mul(y, y)))
            grads.append((x.grad, gamma.grad))
        for got, ref in zip(*grads):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", DEPTHWISE_CASES)
    @pytest.mark.parametrize("bias", [False, True])
    def test_depthwise_conv_keeps_no_columns(self, case, bias):
        x_shape, kernel, stride, padding = case
        C = x_shape[1]
        rng = make_rng(51)
        x, w = t(rng.standard_normal(x_shape)), t(rng.standard_normal((C, 1) + kernel))
        b = t(np.ones(C)) if bias else None
        out = ad.conv(x, w, stride=stride, padding=padding, groups=C, bias=b)
        node = _conv_node(out, b)
        assert node is not None and _held_arrays(out, x, w, *[b] * bias, node=node) == []

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("v_reset", [0.0, 0.3])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("detach_reset", [False, True])
    def test_lif_sequence_keeps_no_input_sized_array(self, kind, v_reset, smooth, detach_reset):
        rng = make_rng(52)
        x = t(rng.normal(0.8, 1.0, (6, 3, 4)))
        a = t(np.array(0.3)) if kind == "PLIF" else None
        s = ad.lif_sequence(x, a, v_reset=v_reset, smooth=smooth, detach_reset=detach_reset)
        assert s._node is not None and _held_arrays(s, x, *[a] * (a is not None)) == []

    @pytest.mark.parametrize("kind", ["LIF", "PLIF"])
    @pytest.mark.parametrize("v_reset", [0.0, -0.0, 0.3])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("detach_reset", [False, True])
    @pytest.mark.parametrize("dtypes", [(np.float32,) * 2, (np.float64,) * 2,
                                        (np.float32, np.float64)], ids=["f32", "f64", "mixed"])
    def test_lif_sequence_backward_rebuilds_the_forward_membrane(
            self, monkeypatch, kind, v_reset, smooth, detach_reset, dtypes):
        """The H whose surrogate slopes the backward takes has the bytes of the
        forward's H, here from fresh temporaries step by step (the mixed case
        is a float32 input under a float64 leak)."""
        x_dtype, a_dtype = dtypes
        rng = make_rng(54)
        x = ad.Tensor(rng.normal(0.8, 1.0, (7, 3, 4)).astype(x_dtype), requires_grad=True)
        a = ad.Tensor(np.array(0.3, dtype=a_dtype), requires_grad=True) if kind == "PLIF" else None
        kappa = x_dtype(1.0 / 2.5) if a is None else ad._sigmoid(a.data)
        v, hs = np.full(x.shape[1:], v_reset, dtype=x_dtype), []
        for x_t in x.data:
            hs.append(v + kappa * (x_t - (v - x_dtype(v_reset) if v_reset else v)))
            s_t = ad._spike_forward(hs[-1], 1.0, 4.0, smooth)
            v = hs[-1] * (1.0 - s_t) + s_t * x_dtype(v_reset)
        read = []
        slope = ad.surrogate_slope

        def spy(h, *args, **kwargs):
            read.append(h.copy())
            return slope(h, *args, **kwargs)

        monkeypatch.setattr(ad, "surrogate_slope", spy)
        s = ad.lif_sequence(x, a, tau=2.5, v_reset=v_reset, smooth=smooth,
                            detach_reset=detach_reset)
        ad.backward(ad.reduce_sum(ad.mul(s, ad.tensor(rng.standard_normal(x.shape)))))
        assert len(read) == 1 and read[0].tobytes() == np.stack(hs).tobytes()
        if not smooth:
            assert 0.0 < s.data.mean() < 1.0  # spikes and resets both occur

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("case", list(DENSE_CONV_CASES))
    def test_dense_conv_keeps_no_columns(self, case, bias, dtype):
        """The node holds no columns, and its output and gradients have the
        bytes of ``conv_keeping_columns``, which keeps them."""
        x_shape, w_shape, stride, padding, groups = DENSE_CONV_CASES[case]
        rng = make_rng(55)
        x, w, b = (rng.standard_normal(s).astype(dtype) for s in (x_shape, w_shape, w_shape[:1]))
        x_t, w_t = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
        b_t = ad.Tensor(b, requires_grad=True) if bias else None
        out = ad.conv(x_t, w_t, stride=stride, padding=padding, groups=groups, bias=b_t)
        node = _conv_node(out, b_t)
        assert node is not None and _held_arrays(out, x_t, w_t, *[b_t] * bias, node=node) == []
        upstream = rng.standard_normal(out.shape).astype(dtype)
        ref = conv_keeping_columns(x, w, stride, padding, groups, b if bias else None,
                                   upstream)
        out._node._backward(upstream.copy())
        if bias:  # the bias's node has handed the upstream gradient on to the conv's
            node._backward(node.grad)
        got = (out.data, x_t.grad, w_t.grad) + ((b_t.grad,) if bias else ())
        assert len(got) == len(ref)
        for name, mine, theirs in zip(("out", "x", "w", "bias"), got, ref):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name

    @pytest.mark.parametrize("w_grad", [False, True])
    def test_dense_conv_rebuilds_columns_only_for_the_weight_gradient(self, monkeypatch,
                                                                      w_grad):
        calls = []
        column_gather = ad._column_gather

        def spy(*args, **kw):
            calls.append(args[0].shape)
            return column_gather(*args, **kw)

        monkeypatch.setattr(ad, "_column_gather", spy)
        rng = make_rng(56)
        x = t(rng.standard_normal((2, 4, 5, 5)))
        w = t(rng.standard_normal((6, 2, 3, 3)), grad=w_grad)
        out = ad.conv(x, w, padding=1, groups=2)
        assert len(calls) == 1
        ad.backward(ad.reduce_sum(out))
        assert len(calls) == 1 + w_grad and x.grad is not None
        assert (w.grad is not None) == w_grad


    @pytest.mark.parametrize("consumer", list(SPIKE_CONSUMERS))
    def test_spike_consumers_keep_the_bool_spikes(self, consumer):
        """A matmul or conv that reads spikes keeps their bytes for its
        backward and no float copy of them, and so does the LIF node."""
        x, s, w = _lif_spikes(59, consumer)
        prepare, op = SPIKE_CONSUMERS[consumer]
        operands = prepare(s, w)
        out = op(*operands)
        cells = [c.cell_contents for c in out._node._backward.func.__closure__]
        assert any(isinstance(v, np.ndarray) and v.dtype == np.bool_
                   and np.shares_memory(v, s.data) for v in cells)
        assert _held_arrays(out, *operands) == []
        assert s.dtype == np.bool_ and _held_arrays(s, x) == []


class TestByteSpikes:
    """Heaviside spikes are bool; the ops that read them cast them where
    their float work starts, so outputs and gradients keep the bytes that
    float spikes gave, and no gradient is bool."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_heaviside_spikes_are_bool_and_smooth_ones_float(self, dtype, smooth):
        x = ad.Tensor(make_rng(60).normal(0.8, 1.0, (5, 3, 4)).astype(dtype), requires_grad=True)
        a = ad.Tensor(np.array(0.3, dtype=dtype), requires_grad=True)
        s = ad.lif_sequence(x, a, smooth=smooth)
        assert s.dtype == (dtype if smooth else np.bool_)
        assert s._node.dtype == dtype

    def test_mixed_dtype_gradients_stay_float64(self):
        """A float32 input under a float64 leak spikes as a float64 membrane,
        so its node takes a float64 gradient: a float64 upstream gradient
        reaches the backward unrounded."""
        rng = make_rng(61)
        x0 = rng.normal(0.8, 1.0, (6, 3, 4)).astype(np.float32)
        upstream = rng.standard_normal(x0.shape)  # float64, not float32 values
        grads = []
        for direct in (False, True):
            x = ad.Tensor(x0.copy(), requires_grad=True)
            a = ad.Tensor(np.array(0.3), requires_grad=True)
            s = ad.lif_sequence(x, a)
            assert s.dtype == np.bool_ and s._node.dtype == np.float64
            if direct:  # the upstream gradient handed to the node itself
                s._node._backward(upstream.copy())
            else:
                ad.backward(ad.reduce_sum(ad.mul(s, ad.Tensor(upstream))))
            grads.append((x.grad, a.grad))
        for got, ref in zip(*grads):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert grads[0][0].dtype == np.float32 and grads[0][1].dtype == np.float64

    @pytest.mark.parametrize("view", ["permute", "reshape"])
    def test_permute_or_reshape_of_spikes_passes_a_float_gradient(self, view):
        rng = make_rng(62)
        x0 = rng.normal(0.8, 1.0, (5, 3, 4)).astype(np.float32)
        upstream = rng.standard_normal(x0.shape).astype(np.float32)
        grads = []
        for hop in (False, True):
            x = ad.Tensor(x0.copy(), requires_grad=True)
            s = ad.lif_sequence(x)
            w = upstream
            if hop:
                s = ad.permute(s, (2, 0, 1)) if view == "permute" else ad.reshape(s, (5, 12))
                w = upstream.transpose(2, 0, 1) if view == "permute" else upstream.reshape(5, 12)
                assert s.dtype == np.bool_ and s._node.dtype == np.float32
            ad.backward(ad.reduce_sum(ad.mul(s, ad.tensor(w))))
            grads.append(x.grad)
        assert grads[0].dtype == np.float32 and grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("consumer", list(SPIKE_CONSUMERS))
    def test_consumers_give_the_bytes_of_float_spikes(self, consumer, dtype):
        """Each consumer against the same op on float spikes (the bool spikes
        times float ones, whose gradient passes on as it arrives): the output
        and the gradients of the LIF input and of the weight, so with a
        backward for both operands."""
        prepare, op = SPIKE_CONSUMERS[consumer]
        got = []
        for as_float in (False, True):
            with ad.precision(dtype):
                x, s, w = _lif_spikes(63, consumer, dtype)
                if as_float:
                    s = ad.mul(s, ad.tensor(np.ones(s.shape)))
                    assert s.dtype == dtype
                out = op(*prepare(s, w))
                upstream = make_rng(64).standard_normal(out.shape).astype(dtype)
                ad.backward(ad.reduce_sum(ad.mul(out, ad.tensor(upstream))))
            got.append([out.data, x.grad] + ([] if w is None else [w.grad]))
        for name, mine, theirs in zip(("out", "x", "w"), *got):
            assert mine.dtype == theirs.dtype == dtype, name
            assert mine.tobytes() == theirs.tobytes(), name


class TestTapeSplit:
    """The tape holds nodes, apart from the Tensors that callers hold: an op
    output whose array no backward reads is freed once its caller drops it,
    during the forward."""

    @staticmethod
    def _norm_add_permute(hold):
        """A batch norm whose output feeds only an add, whose output feeds
        only a permute, whose copy feeds only an add, then a weighted sum.
        Returns the gradients of the input, gamma, beta and the added
        tensor, and whether each of the three arrays was alive at entry to
        ``backward``; with ``hold`` the caller holds their Tensors."""
        rng = make_rng(57)
        x = t(rng.standard_normal((4, 3, 5)))
        gamma, beta = t(rng.standard_normal((1, 3, 1))), t(rng.standard_normal((1, 3, 1)))
        other = t(rng.standard_normal((4, 3, 5)))
        y = ad.batch_norm(x, gamma, beta, (0, 2), 1e-5)[0]
        z = ad.add(y, other)
        p = ad.permute(z, (2, 0, 1))
        w = ad.tensor(rng.standard_normal(p.shape))
        loss = ad.reduce_sum(ad.mul(ad.add(p, ad.tensor(np.ones(p.shape))), w))
        refs = [weakref.ref(v.data) for v in (y, z, p)]
        held = (y, z, p) if hold else ()
        del y, z, p
        alive = [ref() is not None for ref in refs]
        ad.backward(loss)
        assert len(held) == 3 * hold
        return [v.grad for v in (x, gamma, beta, other)], alive

    def test_output_that_no_backward_reads_is_freed_in_the_forward(self):
        got, alive = self._norm_add_permute(hold=False)
        assert alive == [False, False, False]
        ref, alive = self._norm_add_permute(hold=True)
        assert alive == [True, True, True]
        for name, mine, theirs in zip(("x", "gamma", "beta", "other"), got, ref):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name

    def test_no_grad_forward_makes_no_node(self, monkeypatch):
        from spikevid.model import VideoSpikeNet
        from spikevid.training import cross_entropy
        from spikevid.verification import micro_model_config

        made = []

        class Counted(ad._Node):
            __slots__ = ()

            def __init__(self, *args):
                made.append(1)
                super().__init__(*args)

        monkeypatch.setattr(ad, "_Node", Counted)
        model = VideoSpikeNet(micro_model_config(), seed=0)
        clip = ad.tensor(make_rng(58).random((2, 2, 3, 16, 16)))
        for mode in (model.eval, model.train):
            mode()
            with ad.no_grad():
                out = model(clip)
            assert out._node is None and not out.requires_grad and made == []
        cross_entropy(model(clip), np.array([0, 2]))
        assert made  # the counter sees the taped forward's nodes

    def test_no_backward_closure_holds_a_tensor(self):
        """Each node's backward is the op's closure, bound to its parents'
        nodes: op nodes and leaves that need a gradient, or None. The closure
        itself captures no Tensor, so no op output's Tensor."""
        from spikevid.model import VideoSpikeNet
        from spikevid.training import cross_entropy
        from spikevid.verification import micro_model_config

        model = VideoSpikeNet(micro_model_config(), seed=0)
        model.train()
        loss = cross_entropy(model(ad.tensor(make_rng(59).random((2, 2, 3, 16, 16)))),
                             np.array([0, 2]))
        nodes = [n for n in _tape(loss) if n._backward is not None]
        assert len(nodes) > 20
        for node in nodes:
            bwd = node._backward
            assert isinstance(bwd, functools.partial) and len(bwd.args) == 1
            for parent in bwd.args[0]:
                assert (parent is None or type(parent) is ad._Node
                        or (parent._node is None and parent.requires_grad))
            for cell in bwd.func.__closure__ or ():
                value = cell.cell_contents
                values = value if isinstance(value, (tuple, list)) else (value,)
                assert not any(isinstance(v, ad.Tensor) for v in values), bwd.func.__qualname__


WORKER_CASES = {  # x shape, w shape, stride, padding, groups
    "depthwise_stride1_oddB": ((7, 8, 16, 16), (8, 1, 5, 5), 1, 2, 8),
    "depthwise_stride2": ((5, 8, 16, 16), (8, 1, 5, 5), 2, 2, 8),
    "depthwise_unaligned_rows": ((7, 4, 9, 11), (4, 1, 5, 5), 1, 2, 4),
}
SERIAL_CASES = {  # dense and grouped convs, which run on the calling thread only
    "dense_3x3_stride2": ((9, 16, 16, 16), (32, 16, 3, 3), 2, 1, 1),
    "dense_1x1": ((5, 8, 6, 6), (12, 8, 1, 1), 1, 0, 1),
    "grouped_3x3": ((5, 8, 9, 7), (6, 4, 3, 3), 1, 1, 2),
}


def _conv_worker_on(monkeypatch, cpus=2):
    """Every conv above 0 bytes of columns goes to a worker thread, made anew,
    as on a host with ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(ad, "_CONV_THREAD_BYTES", 0)
    monkeypatch.setattr(ad, "_worker", None)


def _conv_arrays(case, bias, dtype, seed=60, before_backward=None):
    """Output, input, weight (and bias) gradients of a taped conv, then the
    output of the same conv without a tape; ``before_backward``, if given,
    runs between the taped forward and its backward."""
    x_shape, w_shape, stride, padding, groups = {**WORKER_CASES, **SERIAL_CASES}[case]
    rng = make_rng(seed)
    x, w, b = (rng.standard_normal(s).astype(dtype) for s in (x_shape, w_shape, w_shape[:1]))
    x_t, w_t = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
    b_t = ad.Tensor(b, requires_grad=True) if bias else None
    out = ad.conv(x_t, w_t, stride=stride, padding=padding, groups=groups, bias=b_t)
    g = rng.standard_normal(out.shape).astype(dtype)
    if before_backward is not None:
        before_backward()
    ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
    with ad.no_grad():
        plain = ad.conv(ad.Tensor(x), ad.Tensor(w), stride=stride, padding=padding,
                        groups=groups, bias=ad.Tensor(b) if bias else None)
    return [out.data, x_t.grad, w_t.grad] + ([b_t.grad] if bias else []) + [plain.data]


class TestConvWorker:
    """A depthwise conv above ``_CONV_THREAD_BYTES`` of columns hands
    independent work to one worker thread, and every array keeps the bytes
    of the serial run. A dense or grouped conv runs on the calling thread."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("case", list(WORKER_CASES))
    def test_worker_keeps_every_byte(self, monkeypatch, case, bias, dtype):
        x_shape, w_shape = WORKER_CASES[case][:2]
        # depthwise forwards in slices of a few clips, alike in both runs
        clip_bytes = x_shape[1] * x_shape[2] * x_shape[3] * np.prod(w_shape[2:]) * 8
        monkeypatch.setattr(ad, "_DW_SLICE_BYTES", int(2 * clip_bytes))
        serial = _conv_arrays(case, bias, dtype)
        _conv_worker_on(monkeypatch)
        threaded = _conv_arrays(case, bias, dtype)
        assert ad._worker is not None
        names = ["out", "x", "w"] + (["bias"] if bias else []) + ["no-tape out"]
        for name, got, ref in zip(names, threaded, serial):
            assert got.dtype == ref.dtype == dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name

    def test_worker_makes_and_updates_no_tape_node(self, monkeypatch):
        _conv_worker_on(monkeypatch)
        make, accumulate, take, threads = ad._make, ad._accumulate, np.take, set()

        def on_main(fn):
            def spy(*args, **kwargs):
                assert threading.current_thread() is threading.main_thread()
                return fn(*args, **kwargs)
            return spy

        def gather(*args, **kwargs):
            threads.add(threading.current_thread())
            return take(*args, **kwargs)

        monkeypatch.setattr(ad, "_make", on_main(make))
        monkeypatch.setattr(ad, "_accumulate", on_main(accumulate))
        monkeypatch.setattr(ad.np, "take", gather)
        for case in WORKER_CASES:
            _conv_arrays(case, True, np.float32)
        assert len(threads) == 2  # the worker gathered columns too

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("case", list(SERIAL_CASES))
    def test_dense_and_grouped_convs_stay_on_this_thread(self, monkeypatch, case, bias, dtype):
        """With the floor at 0 on two CPUs, a dense or grouped conv makes no
        worker, gathers its columns on the calling thread only, and keeps
        the bytes of the serial run."""
        serial = _conv_arrays(case, bias, dtype)
        _conv_worker_on(monkeypatch)
        take, threads = np.take, set()

        def gather(*args, **kwargs):
            threads.add(threading.current_thread())
            return take(*args, **kwargs)

        monkeypatch.setattr(ad.np, "take", gather)
        got = _conv_arrays(case, bias, dtype)
        assert ad._worker is None and threads == {threading.main_thread()}
        for mine, ref in zip(got, serial):
            assert mine.dtype == ref.dtype == dtype and mine.tobytes() == ref.tobytes()

    def test_worker_exception_reaches_caller_after_its_half(self, monkeypatch):
        _conv_worker_on(monkeypatch)
        worker, done = ad._worker_for(1, 0), []

        def side():
            raise ValueError("in the worker")

        def main():
            time.sleep(0.05)
            done.append("main")

        with pytest.raises(ValueError, match="in the worker"):
            ad._both(worker, side, main)
        assert done == ["main"]

        def slow_side():
            time.sleep(0.05)
            done.append("side")

        def failing_main():
            raise KeyError("in the caller")

        with pytest.raises(KeyError):  # the caller's own exception, once the worker is done
            ad._both(worker, slow_side, failing_main)
        assert done == ["main", "side"]

    def test_worker_runs_under_the_callers_error_state(self, monkeypatch):
        """numpy keeps its floating-point error state in a context variable, so
        the worker's half must warn or raise as the caller's would."""
        _conv_worker_on(monkeypatch)
        worker = ad._worker_for(1, 0)
        with np.errstate(invalid="raise", over="ignore"):
            side, main = ad._both(worker, np.geterr, np.geterr)
            with pytest.raises(FloatingPointError):
                ad._both(worker, lambda: np.sqrt(np.full(4, -1.0)), lambda: None)
        assert side == main and (side["invalid"], side["over"]) == ("raise", "ignore")

    def test_infer_b1_forward_starts_no_thread(self, monkeypatch):
        from spikevid.model import ModelConfig, VideoSpikeNet

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "_worker", None)
        model = VideoSpikeNet(ModelConfig(), seed=0)
        model.eval()
        cfg = model.cfg
        clip = make_rng(61).random((cfg.time_steps, 1, cfg.in_channels, cfg.in_height,
                                    cfg.in_width)).astype(np.float32)
        threads = set(threading.enumerate())
        with ad.no_grad():
            model(ad.tensor(clip))
        assert ad._worker is None and set(threading.enumerate()) <= threads

    def test_train_b16_step_gives_the_worker_only_the_two_5x5_stage_convs(self, monkeypatch):
        """One train step of the default model at B=16, T=8 on two CPUs: the
        5x5 depthwise convs of the two local-feature stages (52 and 26 MB of
        columns) take the worker in their forward and backward; the local
        pathway's depthwise conv (2.5 MB) does not, and no dense conv asks."""
        from spikevid.layers import Conv
        from spikevid.model import ModelConfig, VideoSpikeNet
        from spikevid.training import cross_entropy

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "_worker", None)
        worker_for, asks, forward = ad._worker_for, [], {}

        def spy(nbytes, floor):
            worker = worker_for(nbytes, floor)
            if floor == ad._CONV_THREAD_BYTES:
                asks.append(worker is not None)
            return worker

        def record(name):
            def hook(module, args, output):  # the asks of this conv's forward
                forward[name] = asks[:]
                asks.clear()
            return hook

        monkeypatch.setattr(ad, "_worker_for", spy)
        model = VideoSpikeNet(ModelConfig(), seed=0)
        model.train()
        convs = [(name, m) for name, m in model.modules() if isinstance(m, Conv)]
        for name, m in convs:
            m.register_forward_hook(record(name))
        cfg = model.cfg
        rng = make_rng(62)
        clip = rng.random((cfg.time_steps, 16, cfg.in_channels, cfg.in_height,
                           cfg.in_width)).astype(np.float32)
        loss = cross_entropy(model(ad.tensor(clip)), rng.integers(0, cfg.num_classes, 16))
        threaded = {"stages.0.0.dw": [True], "stages.1.0.dw": [True],
                    "local_pathway.dw": [False]}
        assert forward == {name: threaded.get(name, []) for name, _ in convs} and asks == []
        ad.backward(loss)
        assert sorted(asks) == [False, True, True]  # one ask per depthwise backward

    @pytest.mark.parametrize("case", ["depthwise_stride1_oddB", "depthwise_stride2"])
    def test_backward_takes_its_worker_when_it_runs(self, monkeypatch, case):
        """The forward's worker is gone by the backward, as in a child forked
        in between: ``register_at_fork`` forgets it, and its executor takes
        no work. The backward asks ``_worker_for`` again and keeps every
        byte of the serial run."""
        serial = _conv_arrays(case, True, np.float32)
        _conv_worker_on(monkeypatch)
        gone = []

        def fork():
            gone.append(ad._worker)
            ad._forget_worker()
            gone[0].shutdown()

        threaded = _conv_arrays(case, True, np.float32, before_backward=fork)
        assert gone[0] is not None and ad._worker not in (None, gone[0])
        for mine, ref in zip(threaded, serial):
            assert mine.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", ["depthwise_stride1_oddB", "depthwise_stride2"])
    def test_one_cpu_makes_no_worker(self, monkeypatch, case):
        serial = _conv_arrays(case, True, np.float32)
        _conv_worker_on(monkeypatch, cpus=1)
        assert ad.conv_threads() == 1
        got = _conv_arrays(case, True, np.float32)
        assert ad._worker is None
        for mine, ref in zip(got, serial):
            assert mine.tobytes() == ref.tobytes()


# name -> lif_sequence keywords, "leak" the PLIF parameter's dtype (None: LIF,
# "x": the input's); every branch the backward replays
NEURON_WORKER_CASES = {
    "lif": {"leak": None},
    "lif_reset0p3_detach": {"leak": None, "v_reset": 0.3, "detach_reset": True},
    "plif": {"leak": "x"},
    "plif_reset0p3": {"leak": "x", "v_reset": 0.3},
    "plif_reset_neg0": {"leak": "x", "v_reset": -0.0},
    "plif_smooth": {"leak": "x", "smooth": True},
    "plif_smooth_reset0p3": {"leak": "x", "smooth": True, "v_reset": 0.3},
    "plif_detach": {"leak": "x", "detach_reset": True},
    "plif_leak64": {"leak": np.float64},
}
# name -> (x shape, per-channel shape, reduced axes, output permutation): maps
# [T, B, C, H, W] per time step, and tokens [T, B, N, C] whose gradient
# arrives transposed
BN_WORKER_CASES = {
    "map": ((4, 7, 3, 5, 4), (4, 1, 3, 1, 1), (1, 3, 4), None),
    "token": ((4, 7, 6, 5), (1, 1, 1, 5), (0, 1, 2), (0, 1, 3, 2)),
}


def _elementwise_worker_on(monkeypatch, cpus=2):
    """Every batch-norm pass and LIF backward above 0 bytes goes to a worker
    thread, made anew, as on a host with ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(ad, "_ELEMENTWISE_THREAD_BYTES", 0)
    monkeypatch.setattr(ad, "_worker", None)


def _neuron_arrays(case, dtype, seed=70):
    """Spikes, input gradient (and leak gradient) of a taped lif_sequence with
    an odd batch, from a weighted sum."""
    kw = dict(NEURON_WORKER_CASES[case])
    leak = kw.pop("leak")
    rng = make_rng(seed)
    x = ad.Tensor(rng.normal(0.8, 1.0, (6, 7, 3, 4)).astype(dtype), requires_grad=True)
    a = None
    if leak is not None:
        a = ad.Tensor(np.array(0.3, dtype=dtype if leak == "x" else leak), requires_grad=True)
    s = ad.lif_sequence(x, a, tau=2.5, **kw)
    ad.backward(ad.reduce_sum(ad.mul(s, ad.Tensor(rng.standard_normal(x.shape).astype(dtype)))))
    return [s.data, x.grad] + ([] if a is None else [a.grad])


def _bn_arrays(case, mode, dtype, seed=71):
    """Output, statistics, and input, gamma and beta gradients of a taped
    batch_norm, then the output of the same pass without a tape."""
    x_shape, channel_shape, axes, after = BN_WORKER_CASES[case]
    rng = make_rng(seed)
    x, gamma, beta = (rng.standard_normal(s).astype(dtype)
                      for s in (x_shape, channel_shape, channel_shape))
    stats = None
    if mode == "eval":
        stats = (rng.standard_normal(channel_shape), rng.random(channel_shape) + 0.5)
    tensors = [ad.Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
    with ad.precision(dtype):
        y, mean, var = ad.batch_norm(*tensors, axes, 1e-5, stats)
        z = y if after is None else ad.permute(y, after)
        ad.backward(ad.reduce_sum(ad.mul(z, ad.Tensor(rng.standard_normal(z.shape).astype(dtype)))))
        with ad.no_grad():
            plain = ad.batch_norm(*(ad.Tensor(v) for v in (x, gamma, beta)), axes, 1e-5, stats)[0]
    return [y.data, mean, var] + [t.grad for t in tensors] + [plain.data]


class TestElementwiseWorker:
    """Batch norm's elementwise passes and the LIF backward over an array above
    ``_ELEMENTWISE_THREAD_BYTES`` run in two halves of the batch, one on the
    worker thread, and every array keeps the bytes of the serial run."""

    @staticmethod
    def _threads_of(monkeypatch):
        """The threads that call ``np.multiply`` from now on."""
        threads, multiply = set(), np.multiply

        def spy(*args, **kwargs):
            threads.add(threading.current_thread())
            return multiply(*args, **kwargs)

        monkeypatch.setattr(ad.np, "multiply", spy)
        return threads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(NEURON_WORKER_CASES))
    def test_lif_sequence_worker_keeps_every_byte(self, monkeypatch, case, dtype):
        serial = _neuron_arrays(case, dtype)
        _elementwise_worker_on(monkeypatch)
        threads = self._threads_of(monkeypatch)
        threaded = _neuron_arrays(case, dtype)
        assert len(threads) == 2
        assert len(threaded) == len(serial)
        for name, got, ref in zip(["spikes", "x", "a"], threaded, serial):
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("case", list(BN_WORKER_CASES))
    def test_batch_norm_worker_keeps_every_byte(self, monkeypatch, case, mode, dtype):
        serial = _bn_arrays(case, mode, dtype)
        _elementwise_worker_on(monkeypatch)
        threads = self._threads_of(monkeypatch)
        threaded = _bn_arrays(case, mode, dtype)
        assert len(threads) == 2
        names = ["out", "mean", "var", "x", "gamma", "beta", "no-tape out"]
        for name, got, ref in zip(names, threaded, serial):
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.strides == ref.strides, name
            assert got.tobytes() == ref.tobytes(), name

    def test_worker_makes_and_updates_no_tape_node(self, monkeypatch):
        _elementwise_worker_on(monkeypatch)
        make, accumulate = ad._make, ad._accumulate

        def on_main(fn):
            def spy(*args, **kwargs):
                assert threading.current_thread() is threading.main_thread()
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(ad, "_make", on_main(make))
        monkeypatch.setattr(ad, "_accumulate", on_main(accumulate))
        threads = self._threads_of(monkeypatch)
        _neuron_arrays("plif_reset0p3", np.float32)
        for case in BN_WORKER_CASES:
            _bn_arrays(case, "train", np.float32)
        assert len(threads) == 2

    def test_infer_b1_pass_makes_no_hand_off(self, monkeypatch):
        from spikevid.model import ModelConfig, VideoSpikeNet, time_major
        from spikevid.training import cross_entropy

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ad, "_worker", None)
        hand_offs, both = [], ad._both

        def spy(worker, side, main):
            if worker is not None:
                hand_offs.append(worker)
            return both(worker, side, main)

        monkeypatch.setattr(ad, "_both", spy)
        model = VideoSpikeNet(ModelConfig(), seed=0)
        cfg = model.cfg
        clip = make_rng(72).random((1, cfg.time_steps, cfg.in_channels, cfg.in_height,
                                    cfg.in_width)).astype(np.float32)
        model.eval()
        with ad.no_grad():
            model(ad.tensor(time_major(clip)))
        model.train()  # a one-clip train step too: every array is below the floor
        ad.backward(cross_entropy(model(ad.tensor(time_major(clip))), [0]))
        assert hand_offs == [] and ad._worker is None

    def test_batch_of_one_runs_serially(self, monkeypatch):
        _elementwise_worker_on(monkeypatch)
        rng = make_rng(73)
        x = t(rng.normal(0.8, 1.0, (5, 1, 6)))
        ad.backward(ad.reduce_sum(ad.lif_sequence(x)))
        gamma, beta = t(np.ones((1, 1, 6))), t(np.zeros((1, 1, 6)))
        y = ad.batch_norm(t(rng.standard_normal((5, 1, 6))), gamma, beta, (0, 1), 1e-5)[0]
        ad.backward(ad.reduce_sum(ad.mul(y, y)))
        assert ad._worker is None

    @pytest.mark.parametrize("kind", ["neuron", "batch_norm"])
    def test_one_cpu_makes_no_worker(self, monkeypatch, kind):
        run = ((lambda: _neuron_arrays("plif", np.float32)) if kind == "neuron"
               else (lambda: _bn_arrays("token", "train", np.float32)))
        serial = run()
        _elementwise_worker_on(monkeypatch, cpus=1)
        assert ad.conv_threads() == 1
        got = run()
        assert ad._worker is None
        for mine, ref in zip(got, serial):
            assert mine.tobytes() == ref.tobytes()


def _layouts():
    """Arrays of one shape in several layouts: C, Fortran, transposed,
    reversed, a broadcast copy and a strided slice."""
    base = make_rng(74).standard_normal((4, 3, 5, 2))
    yield "C", base
    yield "F", np.asfortranarray(base)
    yield "transposed", np.ascontiguousarray(base.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    yield "reversed", base[:, ::-1]
    yield "broadcast copy", np.broadcast_to(base[:1, :, :1], base.shape).astype(np.float32)
    yield "sliced", np.concatenate([base, base], axis=2)[:, :, ::2]


@pytest.mark.parametrize("second", ["C", "F", "transposed", "reversed", "broadcast copy",
                                    "sliced", "channels"])
@pytest.mark.parametrize("first", ["C", "F", "transposed", "reversed", "broadcast copy",
                                   "sliced"])
def test_result_is_laid_out_as_the_ufunc_lays_it_out(first, second):
    arrays = dict(_layouts())
    arrays["channels"] = make_rng(75).standard_normal((4, 1, 5, 1)).astype(np.float32)
    a, b = arrays[first], arrays[second]
    fresh = np.multiply(a, b)
    empty = ad._result(a, b)
    assert empty.dtype == fresh.dtype and empty.shape == fresh.shape
    assert empty.strides == fresh.strides
    assert ad._result(a, b, dtype=np.float32).strides == fresh.astype(np.float32).strides
