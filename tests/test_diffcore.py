import math
import struct

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb.diffcore import nn
from edmb.diffcore.tensor import Tensor, _im2col


def conv2d_loop(x, w, b, stride, pad):
    """Independent six-nested-loop convolution oracle."""
    B, C, H, W = x.shape
    Co, _, kh, kw = w.shape
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((B, Co, Ho, Wo))
    for bb in range(B):
        for co in range(Co):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0 if b is None else b[co]
                    for c in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bb, c, i * stride + u, j * stride + v] * w[co, c, u, v]
                    out[bb, co, i, j] = acc
    return out


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
        x = dc.ones((1, 1, 3, 3))
        w = dc.ones((1, 1, 3, 3))
        out = dc.conv2d(x, w, None, stride=1, padding=1)
        assert out.data[0, 0, 1, 1] == 9.0

    def test_identity_kernel(self, rng):
        x = Tensor(rng.random((1, 2, 6, 6)))
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = dc.conv2d(x, Tensor(w), None, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_against_loop_oracle(self, rng, f64):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        got = dc.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        want = conv2d_loop(x, w, b, 1, 1)
        assert np.abs(got - want).max() < 1e-6

    def test_loop_oracle_strided(self, rng, f64):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        got = dc.conv2d(Tensor(x), Tensor(w), None, 2, 1).data
        want = conv2d_loop(x, w, None, 2, 1)
        assert np.abs(got - want).max() < 1e-6

    def test_channel_mismatch_names_dimension(self, rng):
        x = dc.zeros((1, 3, 4, 4))
        w = dc.zeros((2, 4, 3, 3))
        with pytest.raises(ValueError, match="in-channels 4 != input channels 3"):
            dc.conv2d(x, w, None, 1, 1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            dc.conv2d(dc.zeros((1, 1, 4, 4)), dc.zeros((1, 1, 2, 2)), None, 1, 0)

    def test_depthwise_matches_grouped_loop(self, rng, f64):
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((3, 1, 3, 3))
        got = dc.conv2d(Tensor(x), Tensor(w), None, 1, 1, groups=3).data
        want = np.stack([
            conv2d_loop(x[:, c : c + 1], w[c : c + 1], None, 1, 1)[0, 0]
            for c in range(3)
        ])[None]
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("shape,k,stride,pad", [
        ((2, 3, 7, 6), 3, 1, 1),
        ((1, 4, 9, 9), 3, 2, 1),
        ((3, 2, 5, 8), 5, 1, 2),
        ((2, 5, 6, 7), 3, 1, (1, 0)),
        ((1, 2, 4, 4), 1, 1, 0),
    ])
    def test_im2col_matches_sliding_window_rows(self, rng, shape, k, stride, pad):
        x = rng.standard_normal(shape).astype(np.float32)
        ph, pw = (pad, pad) if isinstance(pad, int) else pad
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]  # (B,C,Ho,Wo,k,k)
        B, C, Ho, Wo = win.shape[:4]
        want = win.transpose(0, 2, 3, 1, 4, 5).reshape(B, Ho * Wo, C * k * k)
        got, gho, gwo = _im2col(x, k, k, stride, pad)
        assert (gho, gwo) == (Ho, Wo)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

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
            out = dc.conv2d(xt, wt, bt, 1, 1, groups=groups)
            dc.backward(dc.tsum(dc.mul(out, Tensor(g))))
            grads.append((out.data, xt.grad, wt.grad, bt.grad))
        (out, gx, gw, gb), (out_d, gx_d, gw_d, gb_d) = grads
        np.testing.assert_allclose(out, out_d, atol=1e-12)
        np.testing.assert_allclose(gx, gx_d, atol=1e-12)
        np.testing.assert_allclose(gw[:, 0], np.stack([gw_d[c, c] for c in range(C)]), atol=1e-12)
        np.testing.assert_allclose(gb, gb_d, atol=1e-12)


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
        out = dc.bilinear_upsample(x, 4)
        assert out.shape == (1, 1, 12, 12)
        np.testing.assert_allclose(out.data, 2.5, rtol=0, atol=1e-6)

    def test_2x2_hand_case(self, f64):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        got = dc.bilinear_upsample(x, 2).data[0, 0]
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
        out = dc.bilinear_upsample(Tensor(smooth[None, None]), 2).data
        assert abs(out.mean() - smooth.mean()) < 1e-5

    def test_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            dc.bilinear_upsample(dc.zeros((1, 1, 2, 2)), 0)

    def test_matches_loop_oracle(self, rng, f64):
        x = rng.standard_normal((5, 7))
        got = dc.bilinear_resize(Tensor(x[None, None]), 9, 11).data[0, 0]
        want = bilinear_loop(x, 9, 11)
        np.testing.assert_allclose(got, want, atol=1e-12)


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

    def test_constant_operands_receive_no_gradient(self, rng):
        image = Tensor(rng.standard_normal((2, 3, 5, 5)))
        scale = Tensor(rng.standard_normal((1, 4, 1, 1)))
        w = dc.randn(rng, (4, 3, 3, 3), requires_grad=True)
        y = dc.mul(dc.conv2d(image, w, None, 1, 1), scale)
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
            return dc.tsum(dc.div(1.0, x))

        with pytest.raises(Exception, match="coordinate|non-finite|non-positive"):
            dc.finite_diff_check(f, x)


class TestDeterminism:
    def test_identical_seeds_bitwise(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            x = dc.randn(rng, (2, 3, 8, 8))
            w = dc.randn(rng, (4, 3, 3, 3))
            outs.append(dc.conv2d(x, w, None, 1, 1).data.tobytes())
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


class TestTensorIO:
    def test_roundtrip(self, tmp_path, rng):
        arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
        path = tmp_path / "t.bin"
        dc.save_tensor_file(path, arr)
        back = dc.load_tensor_file(path)
        assert np.array_equal(arr, back)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(dc.FormatError, match="magic"):
            dc.load_tensor_file(path)

    def test_truncated(self, tmp_path, rng):
        arr = rng.standard_normal((4, 4)).astype(np.float32)
        path = tmp_path / "t.bin"
        dc.save_tensor_file(path, arr)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(dc.FormatError, match="truncated"):
            dc.load_tensor_file(path)


    def test_shape_larger_than_file_is_format_error(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(dc.TENSOR_MAGIC + struct.pack("<4I", 3, 65535, 65535, 4096) + b"\0" * 4)
        with pytest.raises(dc.FormatError, match="truncated"):
            dc.load_tensor_file(path)


class TestNorm2d:
    def test_eval_uses_running_stats(self, rng):
        bn = nn.Norm2d(3)
        x = dc.randn(rng, (2, 3, 4, 4))
        bn(x)  # one training pass updates the buffers
        bn.eval()
        y1 = bn(x).data
        y2 = bn(Tensor(x.data.copy())).data
        np.testing.assert_array_equal(y1, y2)

    def test_batch1_group_fallback_is_per_sample(self, rng):
        bn = nn.Norm2d(2)
        a = dc.randn(rng, (1, 2, 4, 4))
        out_a = bn(a).data
        both = Tensor(np.concatenate([a.data, 5.0 + a.data]))
        # batch of 2 uses joint stats, so the outputs must differ
        out_b = bn(both).data[:1]
        assert not np.allclose(out_a, out_b)
