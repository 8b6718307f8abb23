import hashlib
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb.diffcore import nn
from edmb.diffcore.tensor import (Tensor, _conv2d_dense_raw, _depthwise_taps, _im2col,
                                  bilinear_sampler, depthwise_conv2d_over)


def same_pad(x, kh, kw):
    """x zero-padded by (kh // 2, kw // 2) on its last two axes."""
    return np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))


def conv2d_loop(x, w, b):
    """Independent six-nested-loop oracle of the stride-1, same-padded conv."""
    B, C, H, W = x.shape
    Co, _, kh, kw = w.shape
    xp = same_pad(x, kh, kw)
    out = np.zeros((B, Co, H, W))
    for bb in range(B):
        for co in range(Co):
            for i in range(H):
                for j in range(W):
                    acc = 0.0 if b is None else b[co]
                    for c in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bb, c, i + u, j + v] * w[co, c, u, v]
                    out[bb, co, i, j] = acc
    return out


def bits(a):
    """Bit pattern of a float array: -0.0 and +0.0 compare unequal."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def depthwise_tap_loop(x, w, g):
    """Same-padded depthwise forward, input and weight gradient (for output
    gradient ``g``) as one full-size product per kernel tap: the sums the
    blocked kernel keeps. The weight gradient is each tap's full-size product
    summed over axes (0, 2, 3)."""
    B, C, H, W = x.shape
    kh, kw = w.shape[2:]
    ph, pw = kh // 2, kw // 2
    xp = same_pad(x, kh, kw)
    out = np.zeros((B, C, H, W), dtype=x.dtype)
    gxp = np.zeros_like(xp)
    gw = np.empty(w.shape, dtype=w.dtype)
    for u in range(kh):
        for v in range(kw):
            out += w[:, 0, u, v].reshape(1, C, 1, 1) * xp[:, :, u : u + H, v : v + W]
            gxp[:, :, u : u + H, v : v + W] += w[:, 0, u, v].reshape(1, C, 1, 1) * g
            gw[:, 0, u, v] = (xp[:, :, u : u + H, v : v + W] * g).sum(axis=(0, 2, 3))
    return out, gxp[:, :, ph : ph + H, pw : pw + W], gw


def dense_conv_rows(x, w, b=None):
    """Same-padded dense conv as (B, H*W, C*kh*kw) patch rows times ``w.T``,
    written channel-first; returns the output and the patch rows."""
    Co, C, kh, kw = w.shape
    win = np.lib.stride_tricks.sliding_window_view(same_pad(x, kh, kw), (kh, kw), axis=(2, 3))
    B, _, H, W = win.shape[:4]
    rows = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(B, H * W, -1)
    out = (rows @ w.reshape(Co, -1).T).transpose(0, 2, 1)
    if b is not None:
        out = out + b[:, None]
    return np.ascontiguousarray(out).reshape(B, Co, H, W), rows


def dense_conv_rows_grads(x, w, g):
    """Input and weight gradients of ``dense_conv_rows`` for output gradient
    ``g``: the input gradient correlates ``g`` with the flipped,
    channel-swapped kernel; the weight gradient is ``g @ rows`` summed over B."""
    B, Co = x.shape[0], w.shape[0]
    wfl = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    gx = dense_conv_rows(g, wfl)[0]
    rows = dense_conv_rows(x, w)[1]
    gw = np.matmul(g.reshape(B, Co, -1), rows).sum(axis=0).reshape(w.shape)
    return gx, gw


def bilinear_loop(x, out_h, out_w):
    """Independent scalar bilinear resize oracle (align_corners=False)."""
    H, W = x.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = (i + 0.5) * H / out_h - 0.5
            sx = (j + 0.5) * W / out_w - 0.5
            y0, x0 = math.floor(sy), math.floor(sx)
            wy, wx = sy - y0, sx - x0
            acc = 0.0
            for dy, fy in ((0, 1 - wy), (1, wy)):
                for dx, fx in ((0, 1 - wx), (1, wx)):
                    yy = min(max(y0 + dy, 0), H - 1)
                    xx = min(max(x0 + dx, 0), W - 1)
                    acc += fy * fx * x[yy, xx]
            out[i, j] = acc
    return out


class TestConv2d:
    def test_all_ones_center(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = dc.conv2d(x, w)
        assert out.data[0, 0, 1, 1] == 9.0

    def test_identity_kernel(self, rng):
        x = Tensor(rng.random((1, 2, 6, 6)))
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = dc.conv2d(x, Tensor(w))
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("w_shape,groups", [
        pytest.param((3, 2, 3, 3), 1, id="dense-3x3"),
        pytest.param((3, 2, 3, 5), 1, id="dense-3x5"),
        pytest.param((2, 1, 3, 5), 2, id="depthwise-3x5"),
    ])
    def test_against_loop_oracle(self, rng, f64, w_shape, groups):
        # the 3x5 kernels pad 1 row and 2 columns on each side
        x = rng.standard_normal((1, 2, 5, 6))
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0])
        dense_w = w if groups == 1 else np.einsum("cd,cuv->cduv", np.eye(2), w[:, 0])
        got = dc.conv2d(Tensor(x), Tensor(w), Tensor(b), groups=groups).data
        want = conv2d_loop(x, dense_w, b)
        assert got.shape == x.shape[:1] + w_shape[:1] + x.shape[2:]
        assert np.abs(got - want).max() < 1e-6

    def test_channel_mismatch_names_dimension(self, rng):
        x = dc.zeros((1, 3, 4, 4))
        w = dc.zeros((2, 4, 3, 3))
        with pytest.raises(ValueError, match="in-channels 4 != input channels 3"):
            dc.conv2d(x, w)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            dc.conv2d(dc.zeros((1, 1, 4, 4)), dc.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda x, w: dc.conv2d(x, w, None, 1), id="positional-groups"),
        pytest.param(lambda x, w: dc.conv2d(x, w, stride=1), id="stride"),
        pytest.param(lambda x, w: dc.conv2d(x, w, padding=1), id="padding"),
    ])
    def test_geometry_arguments_rejected(self, call):
        # one geometry, so no stride or padding; groups is keyword-only, so a
        # fourth positional argument cannot be taken for a stride
        with pytest.raises(TypeError):
            call(dc.zeros((1, 1, 4, 4)), dc.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize("k,groups", [
        pytest.param((1, 1), 1, id="1x1"),
        pytest.param((3, 3), 1, id="3x3"),
        pytest.param((3, 5), 1, id="3x5"),
        pytest.param((7, 7), 1, id="7x7"),
        pytest.param((1, 1), 2, id="depthwise-1x1"),
        pytest.param((3, 3), 2, id="depthwise-3x3"),
        pytest.param((3, 5), 2, id="depthwise-3x5"),
        pytest.param((7, 7), 2, id="depthwise-7x7"),
    ])
    def test_gradients_against_loop_oracle(self, rng, f64, k, groups):
        # the conv is linear in x and in w, so each gradient entry is the loop
        # oracle at one basis vector; a 7x7 kernel pads 3, past the 3x4 input,
        # so some of its taps read nothing but padding
        x = rng.standard_normal((1, 2, 3, 4))
        w = rng.standard_normal((3, 2, *k) if groups == 1 else (2, 1, *k))

        def dense(w):
            return w if groups == 1 else np.einsum("cd,cuv->cduv", np.eye(2), w[:, 0])

        r = rng.standard_normal((1, w.shape[0], 3, 4))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        dc.backward(dc.tsum(dc.mul(dc.conv2d(xt, wt, groups=groups), Tensor(r))))
        want_x = [(conv2d_loop(e.reshape(x.shape), dense(w), None) * r).sum() for e in np.eye(x.size)]
        want_w = [(conv2d_loop(x, dense(e.reshape(w.shape)), None) * r).sum() for e in np.eye(w.size)]
        np.testing.assert_allclose(xt.grad.reshape(-1), want_x, atol=1e-12)
        np.testing.assert_allclose(wt.grad.reshape(-1), want_w, atol=1e-12)

    @pytest.mark.parametrize("w_shape,groups", [
        ((3, 2, 3, 3), 1),  # dense
        ((3, 2, 1, 1), 1),  # 1x1
        ((2, 1, 3, 3), 2),  # depthwise, Co = 2
    ])
    @pytest.mark.parametrize("b_shape", [(1,), (4,), (3, 1)])
    def test_bias_of_wrong_shape_rejected(self, w_shape, groups, b_shape):
        x, w = dc.zeros((1, 2, 4, 4)), dc.zeros(w_shape)
        co = w_shape[0]
        if b_shape == (co,):
            b_shape = (co + 1,)
        with pytest.raises(ValueError, match=rf"bias shape \({b_shape[0]},.*Co={co}"):
            dc.conv2d(x, w, dc.zeros(b_shape), groups=groups)

    def test_no_grad_depthwise_allocates_output_and_one_block(self, rng):
        # no padded copy of the input: besides its output, a no-grad
        # depthwise conv allocates one ~64K-element padded block scratch and
        # one product buffer of the same size
        x = dc.randn(rng, (1, 64, 128, 128))
        w = dc.randn(rng, (64, 1, 3, 3))
        with dc.no_grad():
            tracemalloc.start()
            try:
                out = dc.conv2d(x, w, groups=64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = (1 << 16) * x.data.itemsize
        assert peak <= out.data.nbytes + 2.5 * block

    def test_depthwise_matches_grouped_loop(self, rng, f64):
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((3, 1, 3, 3))
        got = dc.conv2d(Tensor(x), Tensor(w), groups=3).data
        want = np.stack([
            conv2d_loop(x[:, c : c + 1], w[c : c + 1], None)[0, 0]
            for c in range(3)
        ])[None]
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("shape,k", [
        ((2, 3, 7, 6), (3, 3)),
        ((3, 2, 5, 8), (5, 5)),
        ((1, 2, 4, 4), (1, 1)),
        ((2, 3, 7, 6), (3, 5)),
        ((1, 4, 9, 9), (3, 3)),
        ((2, 5, 6, 7), (3, 1)),
        ((2, 3, 9, 8), (1, 3)),
        ((1, 3, 11, 11), (5, 5)),
        ((1, 2, 3, 5), (5, 5)),  # pads 2 rows on a 3-row input
        ((1, 2, 2, 3), (7, 7)),  # some taps read only padding
    ])
    def test_im2col_matches_sliding_window_rows(self, rng, shape, k):
        # the columns are filled from the unpadded input; the reference pads
        x = rng.standard_normal(shape).astype(np.float32)
        x[:, :, 0] = -0.0
        kh, kw = k
        win = np.lib.stride_tricks.sliding_window_view(same_pad(x, kh, kw), k, axis=(2, 3))
        B, C, H, W = win.shape[:4]  # (B,C,H,W,kh,kw)
        want = win.transpose(0, 1, 4, 5, 2, 3).reshape(B, C * kh * kw, H * W)
        got = _im2col(x, kh, kw)
        assert got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))
        # any range of output rows, into a reused buffer full of garbage
        buf = np.full(want.size, np.nan, dtype=np.float32)
        for i0, i1 in ((0, 1), (H - 1, H), (H // 2, H), (0, H)):
            got = _im2col(x, kh, kw, buf, (i0, i1))
            ref = want.reshape(B, C * kh * kw, H, W)[:, :, i0:i1].reshape(B, -1, (i1 - i0) * W)
            assert np.array_equal(bits(got), bits(ref))

    def test_depthwise_gradients_match_block_diagonal_dense(self, rng, f64):
        # batch > 1 so the per-item weight-gradient sum is exercised
        C = 3
        x = rng.standard_normal((3, C, 6, 5))
        w = rng.standard_normal((C, 1, 3, 3))
        b = rng.standard_normal(C)
        g = rng.standard_normal((3, C, 6, 5))
        dense_w = np.zeros((C, C, 3, 3))
        for c in range(C):
            dense_w[c, c] = w[c, 0]
        grads = []
        for weight, groups in ((w, C), (dense_w, 1)):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, weight, b))
            out = dc.conv2d(xt, wt, bt, groups=groups)
            dc.backward(dc.tsum(dc.mul(out, Tensor(g))))
            grads.append((out.data, xt.grad, wt.grad, bt.grad))
        (out, gx, gw, gb), (out_d, gx_d, gw_d, gb_d) = grads
        np.testing.assert_allclose(out, out_d, atol=1e-12)
        np.testing.assert_allclose(gx, gx_d, atol=1e-12)
        np.testing.assert_allclose(gw[:, 0], np.stack([gw_d[c, c] for c in range(C)]), atol=1e-12)
        np.testing.assert_allclose(gb, gb_d, atol=1e-12)


DEPTHWISE_BLOCK_SHAPES = [
    ((1, 4, 260, 260), (3, 3)),  # one channel per block
    ((1, 5, 150, 150), (3, 3)),  # blocks of 2, 2 and a short last one of 1
    ((2, 3, 40, 40), (3, 3)),
    ((1, 6, 50, 50), (5, 5)),
    ((2, 7, 120, 90), (5, 5)),
    ((1, 5, 150, 150), (3, 5)),  # pads 1 row and 2 columns
    ((3, 64, 32, 32), (3, 3)),  # blocks of 18, 18, 18 and 10 channels of all 3 items
    ((4, 51, 16, 16), (3, 3)),  # blocks of 50 and a one-channel tail
    ((9, 3, 50, 50), (3, 3)),  # nine items, blocks of 2 and 1 channels
]


class TestExactKernels:
    """Blocked and in-place kernels give the bits of their plain forms."""

    @pytest.mark.parametrize("shape", [(1, 128, 80, 80), (3, 64, 64, 64), (4, 16, 16, 16)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_depthwise_matches_tap_loop_bitwise(self, rng, shape, dtype):
        C = shape[1]
        with dc.precision(dtype):
            x = dc.randn(rng, shape, requires_grad=True)
            x.data[0, 0, 0, :3] = -0.0
            w = dc.randn(rng, (C, 1, 3, 3), requires_grad=True)
            g = dc.randn(rng, shape)
            out = dc.conv2d(x, w, groups=C)
            dc.backward(dc.tsum(dc.mul(out, g)))
        ref_out, ref_gx, ref_gw = depthwise_tap_loop(x.data, w.data, g.data)
        assert np.array_equal(bits(out.data), bits(ref_out))
        assert np.array_equal(bits(x.grad), bits(ref_gx))
        assert np.array_equal(bits(w.grad), bits(ref_gw))

    @pytest.mark.parametrize("shape,k", DEPTHWISE_BLOCK_SHAPES)
    def test_depthwise_blocks_match_tap_loop_bitwise(self, rng, shape, k):
        C = shape[1]
        kh, kw = k
        x = dc.randn(rng, shape, requires_grad=True)
        x.data[:, :, [0, -1]] = -0.0  # -0.0 on the border rows and columns
        x.data[:, :, :, [0, -1]] = -0.0
        w = dc.randn(rng, (C, 1, kh, kw), requires_grad=True)
        w.data[::2] = -np.abs(w.data[::2])  # every weight of the even channels negative
        with dc.no_grad():
            no_grad_out = dc.conv2d(x, w, groups=C)
        out = dc.conv2d(x, w, groups=C)
        g = dc.randn(rng, out.shape)
        g.data[:, :, 0] = -0.0
        dc.backward(dc.tsum(dc.mul(out, g)))
        ref_out, ref_gx, ref_gw = depthwise_tap_loop(x.data, w.data, g.data)
        assert np.array_equal(bits(no_grad_out.data), bits(ref_out))
        assert np.array_equal(bits(out.data), bits(ref_out))
        assert np.array_equal(bits(x.grad), bits(ref_gx))
        assert np.array_equal(bits(w.grad), bits(ref_gw))

    @pytest.mark.parametrize("shape,k", DEPTHWISE_BLOCK_SHAPES)
    @pytest.mark.parametrize("turned", [False, True])
    def test_depthwise_taps_over_their_source_match_a_separate_output(self, rng, shape, k, turned):
        # each block of the source is copied into the padded scratch before
        # that block of the output is written, so dst may be src
        src = rng.standard_normal(shape).astype(np.float32)
        src[:, :, 0] = -0.0
        w = rng.standard_normal((shape[1],) + k).astype(np.float32)
        dst = np.empty_like(src)
        _depthwise_taps(w, src, dst, turned)
        _depthwise_taps(w, src, src, turned)
        assert np.array_equal(bits(src), bits(dst))

    def test_depthwise_over_matches_conv2d_and_its_mac_count(self, rng):
        x = dc.randn(rng, (2, 6, 20, 30))
        w = dc.randn(rng, (6, 1, 3, 3))
        dc.profile_macs_start()
        want = dc.conv2d(x, w, groups=6)
        want_macs = dc.profile_macs_stop()
        got = x.data.copy()
        dc.profile_macs_start()
        depthwise_conv2d_over(got, w.data)
        assert dc.profile_macs_stop() == want_macs
        assert np.array_equal(bits(got), bits(want.data))

    def test_depthwise_sums_of_negative_zeros_are_positive_zero(self):
        # every tap product of an interior pixel is -0.0, and a sum from +0.0
        # of them is +0.0; so are the weight gradient's products (-0.0)(-0.0)
        x = Tensor(np.full((2, 3, 6, 7), -0.0), requires_grad=True)
        w = Tensor(np.ones((3, 1, 3, 3)), requires_grad=True)
        out = dc.conv2d(x, w, groups=3)
        g = np.full(out.shape, -0.0, dtype=np.float32)
        gx, gw = out._vjp(g)
        for got, want in zip((out.data, gx, gw), depthwise_tap_loop(x.data, w.data, g)):
            assert np.array_equal(bits(got), bits(want))
            assert not np.signbit(got).any()

    def test_depthwise_backward_holds_input_gradient_and_blocks(self, rng):
        # no padded copy of x and no full-size product: the adjoint's peak is
        # its input gradient plus the scratch of one ~64K-element block pass
        x = dc.randn(rng, (1, 64, 128, 128), requires_grad=True)
        w = dc.randn(rng, (64, 1, 3, 3), requires_grad=True)
        out = dc.conv2d(x, w, groups=64)
        g = dc.randn(rng, out.shape).data
        tracemalloc.start()
        try:
            gx, gw = out._vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = (1 << 16) * x.data.itemsize
        assert gx.shape == x.shape and gw.shape == w.shape
        assert peak <= gx.nbytes + 3 * block

    # Below M*N*K of about 1e6 per GEMM, OpenBLAS takes a small-matrix kernel
    # whose bits depend on the operand orientation; every shape here is above it.
    @pytest.mark.parametrize("shape,co,with_bias", [
        ((1, 32, 160, 160), 32, True),
        ((1, 32, 160, 160), 32, False),
        ((1, 3, 160, 160), 16, True),
        ((4, 16, 64, 64), 16, False),
        ((3, 16, 32, 32), 32, True),
        ((2, 16, 65, 65), 32, True),
    ])
    def test_dense_matches_patch_rows_bitwise(self, rng, shape, co, with_bias):
        x = dc.randn(rng, shape, requires_grad=True)
        w = dc.randn(rng, (co, shape[1], 3, 3), requires_grad=True)
        b = dc.randn(rng, (co,), requires_grad=True) if with_bias else None
        out = dc.conv2d(x, w, b)
        g = dc.randn(rng, out.shape)
        dc.backward(dc.tsum(dc.mul(out, g)))
        ref_out, _ = dense_conv_rows(x.data, w.data, None if b is None else b.data)
        ref_gx, ref_gw = dense_conv_rows_grads(x.data, w.data, g.data)
        assert np.array_equal(bits(out.data), bits(ref_out))
        assert np.array_equal(bits(x.grad), bits(ref_gx))
        assert np.array_equal(bits(w.grad), bits(ref_gw))

    @pytest.mark.parametrize("size", [160, 199])
    def test_dense_row_blocks_match_full_columns_bitwise(self, rng, size):
        # the blocks of output rows, 22 at H = 160 and 18 at 199, do not divide H
        x = rng.standard_normal((1, 32, size, size)).astype(np.float32)
        w = rng.standard_normal((32, 32, 3, 3)).astype(np.float32)
        full = (w.reshape(32, -1) @ _im2col(x, 3, 3)).reshape(1, 32, size, size)
        assert np.array_equal(bits(_conv2d_dense_raw(x, w)), bits(full))

    @pytest.mark.parametrize("shape", [(1, 32, 160, 160), (1, 32, 199, 199), (2, 16, 130, 97)])
    def test_dense_columns_from_unpadded_input_match_padded_bitwise(self, rng, shape):
        # full and row-blocked columns are filled from the unpadded input;
        # the reference cuts them from a padded copy
        x = rng.standard_normal(shape).astype(np.float32)
        x[:, :, -1] = -0.0
        w = rng.standard_normal((32, shape[1], 3, 3)).astype(np.float32)
        cols = _im2col(x, 3, 3)
        win = np.lib.stride_tricks.sliding_window_view(same_pad(x, 3, 3), (3, 3), axis=(2, 3))
        ref_cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(cols.shape)
        full = (w.reshape(32, -1) @ cols).reshape(shape[0], 32, *shape[2:])
        assert np.array_equal(bits(cols), bits(ref_cols))
        assert np.array_equal(bits(_conv2d_dense_raw(x, w)), bits(full))

    @pytest.mark.parametrize("layer", ["dense", "norm_train", "norm_eval"])
    def test_recorded_op_holds_only_its_output(self, rng, held_bytes, layer):
        # backward rebuilds the dense conv's patch columns and the norm's
        # x - mu from the input, which the graph holds anyway
        x = dc.randn(rng, (3, 16, 64, 64), requires_grad=layer != "dense")
        if layer == "dense":
            w = dc.randn(rng, (16, 16, 3, 3), requires_grad=True)
            out, held = held_bytes(lambda: dc.conv2d(x, w))
        else:
            bn = nn.Norm2d(16, relu=True).train(layer == "norm_train")
            out, held = held_bytes(lambda: bn(x))
        assert out.requires_grad  # recorded for backward
        assert held <= out.data.nbytes + (16 << 10)

    @pytest.mark.bits
    def test_conv_outputs_and_gradients_pinned(self):
        # output and x, w, b gradients of dense 3x3, 1x1, and depthwise 3x3
        # and 5x5, each with and without bias, in float32 and float64, at
        # B = 1 and 3
        kinds = [((4, 6, 3, 3), 1), ((5, 6, 1, 1), 1), ((6, 1, 3, 3), 6), ((6, 1, 5, 5), 6)]
        rng = np.random.default_rng(18)
        digest = hashlib.sha256()
        for dtype in ("float32", "float64"):
            with dc.precision(dtype):
                for B in (1, 3):
                    for w_shape, groups in kinds:
                        for with_bias in (False, True):
                            x = dc.randn(rng, (B, 6, 9, 11), requires_grad=True)
                            w = dc.randn(rng, w_shape, requires_grad=True)
                            b = dc.randn(rng, w_shape[:1], requires_grad=True) if with_bias else None
                            out = dc.conv2d(x, w, b, groups=groups)
                            dc.backward(dc.tsum(dc.mul(out, dc.randn(rng, out.shape))))
                            digest.update(out.data.tobytes() + x.grad.tobytes() + w.grad.tobytes())
                            if with_bias:
                                digest.update(b.grad.tobytes())
        assert digest.hexdigest() == (
            "623f9099a4f09654559f21c9597b1eb2f59e58f369682b13208e20282337713e")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_relu_special_values_bitwise(self, dtype):
        with dc.precision(dtype):
            x = Tensor(np.array([-0.0, np.nan, np.inf, -np.inf, 1.0, -1.0]), requires_grad=True)
            out = dc.relu(x)
            dc.backward(dc.tsum(out))
        want = np.where(x.data > 0, x.data, 0.0)
        assert out.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(bits(out.data), bits(want))
        assert bits(out.data)[0] == 0  # +0.0, not -0.0
        np.testing.assert_array_equal(x.grad, [0, 0, 1, 0, 1, 0])

    @staticmethod
    def _eval_norm(rng, C):
        bn = nn.Norm2d(C)
        bn.set_buffer("running_mean", rng.standard_normal(C))
        bn.set_buffer("running_var", rng.random(C) + 0.1)
        bn.gamma.data = dc.randn(rng, (C,)).data
        bn.beta.data = dc.randn(rng, (C,)).data
        return bn.eval()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_eval_norm_matches_composite_bitwise(self, rng, dtype):
        with dc.precision(dtype):
            bn = self._eval_norm(rng, 4)
            x = dc.randn(rng, (2, 4, 5, 6))
            out = bn(x)
            c = (1, 4, 1, 1)
            mu = Tensor(bn.buffer("running_mean").reshape(c))
            inv = dc.pow_const(dc.add(Tensor(bn.buffer("running_var").reshape(c)), bn.eps), -0.5)
            ref = dc.add(dc.mul(dc.mul(dc.sub(x, mu), inv), dc.reshape(bn.gamma, c)),
                         dc.reshape(bn.beta, c))
        assert out.op == "norm2d"
        assert np.array_equal(bits(out.data), bits(ref.data))

    @staticmethod
    def _composite_norm(bn, x):
        """Training-mode Norm2d as the chain of graph ops it once was: the
        reference for the bits of the fused op's output, buffers and
        gradients."""
        B = x.shape[0]
        c_shape = (1, x.shape[1], 1, 1)
        axes = (0, 2, 3) if B > 1 else (2, 3)
        mu = dc.tmean(x, axis=axes, keepdims=True)
        xc = dc.sub(x, mu)
        var = dc.tmean(dc.mul(xc, xc), axis=axes, keepdims=True)
        if B > 1:
            m = bn.momentum
            bn.set_buffer("running_mean", (1 - m) * bn.buffer("running_mean") + m * mu.data.reshape(-1))
            bn.set_buffer("running_var", (1 - m) * bn.buffer("running_var") + m * var.data.reshape(-1))
        inv = dc.pow_const(dc.add(var, bn.eps), -0.5)
        out = dc.mul(dc.mul(xc, inv), dc.reshape(bn.gamma, c_shape))
        return dc.add(out, dc.reshape(bn.beta, c_shape))

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_norm_matches_composite_bitwise(self, rng, dtype, B):
        with dc.precision(dtype):
            x = dc.randn(rng, (B, 4, 5, 6)).data
            g = dc.randn(rng, (B, 4, 5, 6))
            runs = []
            for norm in (lambda bn, t: bn(t), self._composite_norm):
                bn = self._eval_norm(np.random.default_rng(1), 4).train()
                xt = Tensor(x, requires_grad=True)
                out = norm(bn, xt)
                dc.backward(dc.tsum(dc.mul(out, g)))
                runs.append([out.data, bn.buffer("running_mean"), bn.buffer("running_var"),
                             xt.grad, bn.gamma.grad, bn.beta.grad])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("shape", [(1, 4, 5, 6), (3, 4, 5, 6), (2, 9, 96, 96), (1, 2, 260, 260)])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_norm_relu_matches_relu_of_norm_bitwise(self, rng, dtype, mode, shape):
        # the two larger shapes split into several ~64K-element blocks, the
        # last one short; with and without gradient recording
        with dc.precision(dtype):
            x = dc.randn(rng, shape).data
            x[0, 0, 0, :3] = -0.0
            g = dc.randn(rng, shape)
            runs = []
            for fused in (True, False):
                bn = self._eval_norm(np.random.default_rng(1), shape[1]).train(mode == "train")
                bn.relu = fused
                with dc.no_grad():
                    free = bn(Tensor(x)) if fused else dc.relu(bn(Tensor(x)))
                xt = Tensor(x.copy(), requires_grad=True)
                out = bn(xt) if fused else dc.relu(bn(xt))
                dc.backward(dc.tsum(dc.mul(out, g)))
                assert np.array_equal(bits(xt.data), bits(x))  # the input is never written
                runs.append([free.data, out.data, bn.buffer("running_mean"),
                             bn.buffer("running_var"), xt.grad, bn.gamma.grad, bn.beta.grad])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_norm_gradients_finite_difference(self, rng, f64, mode, B):
        bn = self._eval_norm(rng, 3).train(mode == "train")
        x = dc.randn(rng, (B, 3, 4, 4), requires_grad=True)
        r = dc.randn(rng, (B, 3, 4, 4))

        def f():
            return dc.tsum(dc.mul(bn(x), r))

        assert dc.finite_diff_check(f, [x, bn.gamma, bn.beta]) < 1e-6


class TestPointwise:
    def test_relu_triple(self):
        out = dc.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert dc.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_softplus_high_precision(self, f64):
        # extended-precision reference via float128
        x = np.float128(10.0)
        ref = float(np.log1p(np.exp(x)))
        got = dc.softplus(Tensor([10.0])).item()
        assert abs(got - ref) < 1e-6

    def test_softplus_overflow_safe(self):
        out = dc.softplus(Tensor([500.0, -500.0]))
        assert np.isfinite(out.data).all()
        assert abs(out.data[0] - 500.0) < 1e-5
        assert out.data[1] >= 0.0

    def test_sigmoid_overflow_safe(self):
        out = dc.sigmoid(Tensor([700.0, -700.0]))
        assert out.data[0] == 1.0 and out.data[1] == 0.0

    def test_sigmoid_monotone_over_every_float32_in_minus_one_to_minus_half(self):
        # all 8,388,609 float32 values in [-1, -0.5], ascending; the granularity
        # sweep relies on sigmoid never decreasing between neighbours
        x = np.arange(0xBF000000, 0xBF800001, dtype=np.uint32).view(np.float32)[::-1]
        s = dc.sigmoid(Tensor(x)).data
        assert s.dtype == np.float32
        assert int((s[1:] < s[:-1]).sum()) == 0

    def test_const_kinds(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_allclose(dc.add(x, 3.0).data, [4.0, 5.0])
        np.testing.assert_allclose(dc.mul(x, -2.0).data, [-2.0, -4.0])
        np.testing.assert_allclose(dc.neg(x).data, [-1.0, -2.0])

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="non-positive"):
            dc.log(Tensor([1.0, 0.0]))


class TestBilinear:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 1, 3, 3), 2.5))
        out = dc.bilinear_resize(x, 12, 12)
        assert out.shape == (1, 1, 12, 12)
        np.testing.assert_allclose(out.data, 2.5, rtol=0, atol=1e-6)

    def test_2x2_hand_case(self, f64):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        got = dc.bilinear_resize(x, 4, 4).data[0, 0]
        want = bilinear_loop(np.array([[0.0, 1.0], [2.0, 3.0]]), 4, 4)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # frozen values from the scalar oracle
        np.testing.assert_allclose(
            want,
            [[0.0, 0.25, 0.75, 1.0],
             [0.5, 0.75, 1.25, 1.5],
             [1.5, 1.75, 2.25, 2.5],
             [2.0, 2.25, 2.75, 3.0]],
        )

    def test_mean_preserved_for_smooth_input(self, f64):
        ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        smooth = 0.5 + 0.05 * np.cos(2 * np.pi * ii / 16) * np.cos(2 * np.pi * jj / 16)
        out = dc.bilinear_resize(Tensor(smooth[None, None]), 32, 32).data
        assert abs(out.mean() - smooth.mean()) < 1e-5

    def test_matches_loop_oracle(self, rng, f64):
        x = rng.standard_normal((5, 7))
        got = dc.bilinear_resize(Tensor(x[None, None]), 9, 11).data[0, 0]
        want = bilinear_loop(x, 9, 11)
        np.testing.assert_allclose(got, want, atol=1e-12)


    def test_point_sampler_clamps_to_edges(self):
        a = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        H, W = a.shape
        rows, cols = np.arange(H, dtype=float), np.arange(W, dtype=float)

        def bilinear_at(yy, xx):
            return bilinear_sampler(a.shape, yy, xx)(a)

        # half a pixel past the border a sample is the edge value, exactly
        np.testing.assert_array_equal(bilinear_at(np.full(W, -0.5), cols), a[0])
        np.testing.assert_array_equal(bilinear_at(np.full(W, H - 0.5), cols), a[-1])
        np.testing.assert_array_equal(bilinear_at(rows, np.full(H, -0.5)), a[:, 0])
        np.testing.assert_array_equal(bilinear_at(rows, np.full(H, W - 0.5)), a[:, -1])
        # 0.75 * (2 + 4) / 2 + 0.25 * (16 + 32) / 2
        assert bilinear_at(np.array([0.25]), np.array([1.5]))[0] == 8.25

class TestBackward:
    def test_linear_map_gradient(self, rng):
        w = rng.standard_normal((3, 4)).astype(np.float32)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        loss = dc.tsum(dc.mul(Tensor(w), x))
        dc.backward(loss)
        np.testing.assert_allclose(x.grad, w, atol=1e-7)

    def test_sigmoid_prime_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        dc.backward(dc.tsum(dc.sigmoid(x)))
        assert abs(x.grad[0] - 0.25) < 1e-7

    def test_composite_finite_difference(self, rng, f64):
        x = dc.randn(rng, (2, 3), requires_grad=True)
        w = dc.randn(rng, (3, 3), requires_grad=True)

        def f():
            return dc.tsum(dc.sigmoid(dc.matmul(dc.softplus(x), w)))

        assert dc.finite_diff_check(f, [x, w]) < 1e-4

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            dc.backward(dc.mul(x, 2.0))

    def test_double_backward_rejected(self, rng):
        x = dc.randn(rng, (3,), requires_grad=True)
        loss = dc.tsum(dc.mul(x, x))
        dc.backward(loss)
        with pytest.raises(RuntimeError, match="new forward"):
            dc.backward(loss)

    def test_gradient_accumulates_until_zero_grad(self, rng):
        x = Tensor([1.0, 2.0], requires_grad=True)
        dc.backward(dc.tsum(dc.mul(x, 3.0)))
        dc.backward(dc.tsum(dc.mul(x, 3.0)))
        np.testing.assert_allclose(x.grad, [6.0, 6.0])
        x.zero_grad()
        assert x.grad is None

    def test_every_reachable_tensor_has_grad(self, rng):
        x = dc.randn(rng, (2, 2), requires_grad=True)
        mid = dc.sigmoid(x)
        out = dc.tsum(dc.mul(mid, mid))
        dc.backward(out)
        assert x.grad is not None and mid.grad is not None

    def test_linearity_of_backward(self, rng, f64):
        a, b = 1.7, -0.4
        x1 = dc.randn(rng, (4,), requires_grad=True)
        loss_f = dc.tsum(dc.sigmoid(x1))
        loss_g = dc.tsum(dc.mul(x1, x1))
        combo = dc.add(dc.mul(loss_f, a), dc.mul(loss_g, b))
        dc.backward(combo)
        combined = x1.grad.copy()
        x1.zero_grad()
        dc.backward(dc.tsum(dc.sigmoid(x1)))
        gf = x1.grad.copy()
        x1.zero_grad()
        dc.backward(dc.tsum(dc.mul(x1, x1)))
        gg = x1.grad.copy()
        np.testing.assert_allclose(combined, a * gf + b * gg, atol=1e-6)

    def test_residual_beside_another_branch(self):
        # q1 feeds both a residual add and a scaled branch, next to an
        # independent branch r; every node's gradient must be its own
        # array, or accumulating into q1 leaks into r
        c = Tensor([[2.0, 3.0, 5.0], [7.0, 11.0, 13.0]])
        x1 = Tensor(np.zeros((2, 3)), requires_grad=True)
        x2 = Tensor(np.zeros((2, 3)), requires_grad=True)
        q1 = dc.mul(x1, 1.0)
        q = dc.add(q1, dc.mul(q1, c))
        r = dc.mul(x2, 1.0)
        dc.backward(dc.tsum(dc.add(q, r)))
        np.testing.assert_array_equal(x1.grad, 1.0 + c.data)
        np.testing.assert_array_equal(x2.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(r.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("g_dtype", ["float32", "float64"])
    def test_first_gradient_has_the_bits_of_zeros_plus_g(self, g_dtype):
        # a tensor's first gradient is a new array of its own dtype holding
        # zeros += g: -0.0 lands as +0.0, and a float64 g is rounded to
        # float32; later gradients add into it, never into the adjoint's array
        x = Tensor(np.ones(4), requires_grad=True)
        g = np.array([-0.0, 1 / 3, -2.5, 0.0], dtype=g_dtype)
        g_bits = bits(g).copy()
        want = np.zeros(4, dtype=np.float32)
        want += g
        dc.backward(dc.tsum(dc.make_op(x.data.copy(), (x,), lambda _: (g,), "probe")))
        assert x.grad.dtype == np.float32 and bits(x.grad)[0] == 0
        assert np.array_equal(bits(x.grad), bits(want))
        dc.backward(dc.tsum(dc.make_op(x.data.copy(), (x,), lambda _: (g,), "probe")))
        want += g
        assert np.array_equal(bits(x.grad), bits(want))
        assert np.array_equal(bits(g), g_bits)

    def test_constant_operands_receive_no_gradient(self, rng):
        image = Tensor(rng.standard_normal((2, 3, 5, 5)))
        scale = Tensor(rng.standard_normal((1, 4, 1, 1)))
        w = dc.randn(rng, (4, 3, 3, 3), requires_grad=True)
        y = dc.mul(dc.conv2d(image, w), scale)
        dc.backward(dc.tsum(dc.matmul(y, Tensor(np.ones((5, 2))))))
        assert image.grad is None and scale.grad is None
        # d/dw of sum(scale * conv(image, w)) @ ones(5, 2): every output
        # pixel counts twice, weighted by its channel's scale
        xp = np.pad(image.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
        want = 2 * scale.data.reshape(4, 1, 1, 1) * win.sum(axis=(0, 2, 3))[None]
        np.testing.assert_allclose(w.grad, want, rtol=1e-4, atol=1e-4)

    def test_no_grad_blocks_recording(self, rng):
        x = dc.randn(rng, (3,), requires_grad=True)
        with dc.no_grad():
            y = dc.mul(x, 2.0)
        assert not y.requires_grad and y._parents == ()


class TestFiniteDiffCheck:
    def test_square_function(self, f64):
        x = Tensor([3.0], requires_grad=True)
        err = dc.finite_diff_check(lambda: dc.tsum(dc.mul(x, x)), x)
        assert err < 1e-8

    def test_eps_domain(self, f64):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            dc.finite_diff_check(lambda: dc.tsum(x), x, eps=1.0)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_nonfinite_reported(self, f64):
        x = Tensor([0.0], requires_grad=True)

        def f():
            return dc.tsum(dc.pow_const(x, -1.0))

        with pytest.raises(Exception, match="coordinate|non-finite|non-positive"):
            dc.finite_diff_check(f, x)


class TestDeterminism:
    def test_identical_seeds_bitwise(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            x = dc.randn(rng, (2, 3, 8, 8))
            w = dc.randn(rng, (4, 3, 3, 3))
            outs.append(dc.conv2d(x, w).data.tobytes())
        assert outs[0] == outs[1]


class TestGraph:
    def test_topo_order_visits_once(self, rng):
        x = dc.randn(rng, (3,), requires_grad=True)
        y = dc.sigmoid(x)
        z = dc.tsum(dc.add(dc.mul(y, y), y))
        order = dc.topo_order(z)
        assert len(order) == len({id(n) for n in order})
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for p in node._parents:
                if p.requires_grad:
                    assert pos[id(p)] < pos[id(node)]


class TestNarrow:
    def test_contiguous_slice_is_a_view_and_a_strided_one_a_copy(self, rng):
        one = dc.randn(rng, (1, 6, 4, 5))
        two = dc.randn(rng, (2, 6, 4, 5))
        view, copy = dc.narrow(one, 1, 2, 3), dc.narrow(two, 1, 2, 3)
        assert np.shares_memory(view.data, one.data)
        assert not np.shares_memory(copy.data, two.data)
        assert view.data.flags.c_contiguous and copy.data.flags.c_contiguous
        np.testing.assert_array_equal(view.data, one.data[:, 2:5])
        np.testing.assert_array_equal(copy.data, two.data[:, 2:5])


class TestTensorIO:
    @staticmethod
    def _written(arr):
        fh = io.BytesIO()
        dc.write_tensor(fh, arr)
        return fh.getvalue()

    def test_roundtrip(self, rng):
        arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
        back = dc.read_tensor(io.BytesIO(self._written(arr)))
        assert np.array_equal(arr, back)

    def test_bad_magic(self):
        with pytest.raises(dc.FormatError, match="magic"):
            dc.read_tensor(io.BytesIO(b"NOTMAGIC" + b"\x00" * 16))

    def test_truncated(self, rng):
        data = self._written(rng.standard_normal((4, 4)).astype(np.float32))
        with pytest.raises(dc.FormatError, match="truncated"):
            dc.read_tensor(io.BytesIO(data[:-8]))

    def test_shape_larger_than_file_is_format_error(self):
        data = dc.TENSOR_MAGIC + struct.pack("<4I", 3, 65535, 65535, 4096) + b"\0" * 4
        with pytest.raises(dc.FormatError, match="truncated"):
            dc.read_tensor(io.BytesIO(data))


class TestNorm2d:
    def test_eval_uses_running_stats(self, rng):
        bn = nn.Norm2d(3)
        x = dc.randn(rng, (2, 3, 4, 4))
        bn(x)  # one training pass updates the buffers
        bn.eval()
        y1 = bn(x).data
        y2 = bn(Tensor(x.data.copy())).data
        np.testing.assert_array_equal(y1, y2)

    def test_train_call_records_one_node(self, rng):
        bn = nn.Norm2d(3)
        x = dc.randn(rng, (2, 3, 4, 4), requires_grad=True)
        out = bn(x)
        assert [n for n in dc.topo_order(out) if n.op != "leaf"] == [out]
        assert out.op == "norm2d"
        assert out._parents == (x, bn.gamma, bn.beta)

    def test_one_item_batch_uses_its_own_statistics(self, rng):
        # a one-item batch normalizes with its own (0, 2, 3) statistics, and
        # a batch of 2 with the joint ones, so the outputs must differ
        bn = nn.Norm2d(2)
        a = dc.randn(rng, (1, 2, 4, 4))
        out_a = bn(a).data
        both = Tensor(np.concatenate([a.data, 5.0 + a.data]))
        out_b = bn(both).data[:1]
        assert not np.allclose(out_a, out_b)
