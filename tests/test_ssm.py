import hashlib
import math

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb import ssm
from edmb.diffcore.tensor import Tensor


def lti_params(dim, state, rng):
    """Token-independent parameterization: zero projection weights."""
    p = ssm.SSMParams(dim, state, rng)
    p.b_proj.weight.data[:] = 0.0
    p.c_proj.weight.data[:] = 0.0
    p.delta_proj.weight.data[:] = 0.0
    p.b_proj.bias.data[:] = rng.standard_normal(state)
    p.c_proj.bias.data[:] = rng.standard_normal(state)
    p.delta_proj.bias.data[:] = 0.3
    return p


def scan_step_reference(u, delta, a, b_tok, c_tok):
    """y of the per-step recurrence h_t = Abar_t * h_{t-1} + Bbar_t x_t."""
    z = delta[..., None] * a
    abar = np.exp(z)
    bbar = delta[..., None] * ssm._phi(z) * b_tok
    B, M, D = u.shape
    hs = np.empty((B, M, a.shape[0], D), dtype=u.dtype)
    h = np.zeros((B, a.shape[0], D), dtype=u.dtype)
    for t in range(M):
        h = abar[:, t, :, None] * h + bbar[:, t, :, None] * u[:, t, None, :]
        hs[:, t] = h
    return np.einsum("bmn,bmnd->bmd", c_tok, hs)


class TestDiscretizeZoh:
    def test_taylor_matches_exact_at_cutoff(self):
        # continuity across the 1e-4 branch point
        for z in (9.9e-5, 1.01e-4):
            a = np.array([-1.0])
            delta = z  # |delta * a| = z
            _, b1 = ssm.discretize_zoh(a, [1.0], delta)
            exact = (math.exp(-z) - 1.0) / (-z) * delta
            assert abs(b1[0] - exact) < 1e-12

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            ssm.discretize_zoh([-1.0], [1.0], 0.0)


class TestSelectiveScan:
    def test_single_token(self, rng, f64):
        p = lti_params(1, 3, rng)
        x = dc.randn(rng, (1, 1, 1))
        (y,) = ssm.selective_scans(x, [(p, "forward")])
        y = y.data
        with dc.no_grad():
            delta, b, c = p.per_token(x)
        a_bar, b_bar = ssm.discretize_zoh(p.a_diag().data, b.data[0, 0], delta.data[0, 0])
        want = float(c.data[0, 0] @ (b_bar * x.data[0, 0, 0]))
        assert abs(y[0, 0, 0] - want) < 1e-12

    def test_impulse_response_is_kernel(self, rng, f64):
        M, N = 8, 4
        p = lti_params(1, N, rng)
        x = np.zeros((1, M, 1))
        x[0, 0, 0] = 1.0
        x = Tensor(x)
        y = ssm.selective_scans(x, [(p, "forward")])[0].data[0, :, 0]
        with dc.no_grad():
            delta, b, c = p.per_token(x)
        a_bar, b_bar = ssm.discretize_zoh(p.a_diag().data, b.data[0, 0], delta.data[0, 0])
        kernel = np.array([
            float(c.data[0, 0] @ (a_bar**j * b_bar)) for j in range(M)
        ])
        np.testing.assert_allclose(y, kernel, atol=1e-12)

    def test_matches_kernel_oracle_m16(self, rng, f64):
        p = lti_params(3, 4, rng)
        x = dc.randn(rng, (2, 16, 3))
        y1 = ssm.selective_scans(x, [(p, "forward")])[0].data
        y2 = ssm.scan_kernel_oracle(x, p).data
        assert np.abs(y1 - y2).max() < 1e-6

    def test_reversal_symmetry(self, rng, f64):
        p = lti_params(3, 4, rng)
        x = dc.randn(rng, (1, 12, 3))
        (y_back,) = ssm.selective_scans(x, [(p, "backward")])
        rev = Tensor(np.flip(x.data, 1).copy())
        (y_fwd_rev,) = ssm.selective_scans(rev, [(p, "forward")])
        y_back, y_fwd_rev = y_back.data, y_fwd_rev.data
        np.testing.assert_array_equal(y_back, np.flip(y_fwd_rev, 1))

    def test_selective_scan_is_input_dependent(self, rng, f64):
        # with nonzero projection weights, scaling the input changes B,C,delta
        p = ssm.SSMParams(2, 3, rng)
        x = dc.randn(rng, (1, 6, 2))
        y1 = ssm.selective_scans(x, [(p, "forward")])[0].data
        x2 = Tensor(2.0 * x.data)
        y2 = ssm.selective_scans(x2, [(p, "forward")])[0].data
        assert not np.allclose(y2, 2.0 * y1)  # nonlinearity through selectivity

    def test_stability_long_sequence(self, rng, f64):
        p = lti_params(2, 4, rng)
        x = dc.randn(rng, (1, 4096, 2))
        y = ssm.selective_scans(x, [(p, "forward")])[0].data
        assert np.all(np.isfinite(y))
        with dc.no_grad():
            delta, b, c = p.per_token(x)
        a_bar, b_bar = ssm.discretize_zoh(p.a_diag().data, b.data[0, 0], delta.data[0, 0])
        # geometric series bound on the state, mapped through the readout
        h_bound = np.abs(b_bar) / (1.0 - np.abs(a_bar)) * np.abs(x.data).max()
        y_bound = float(np.abs(c.data[0, 0]) @ h_bound)
        assert np.abs(y).max() <= y_bound + 1e-9

    @pytest.mark.parametrize("shape", [(1, 300, 40, 8), (4, 64, 16, 4)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_step_reference_bitwise(self, rng, shape, dtype):
        B, M, D, N = shape
        with dc.precision(dtype):
            u = dc.randn(rng, (B, M, D))
            u.data[:, 0, :2] = -0.0  # a -0.0 Bbar x at t = 0
            delta = Tensor(rng.random((B, M)) + 0.05)
            a = Tensor(-rng.random(N) - 0.1)
            b_tok, c_tok = dc.randn(rng, (B, M, N)), dc.randn(rng, (B, M, N))
            (y,) = ssm.selective_scan_core(u, delta, a, b_tok, c_tok)
        y = y.data
        ref = scan_step_reference(u.data, delta.data, a.data, b_tok.data, c_tok.data)
        uint = np.uint32 if y.dtype == np.float32 else np.uint64
        assert np.array_equal(y.view(uint), ref.view(uint))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_stacked_groups_match_single_scans_bitwise(self, rng, dtype):
        # two groups in one call give each group's output and gradients with
        # the bits of scanning it alone
        B, M, D, N = 2, 40, 6, 3
        with dc.precision(dtype):
            groups = [[dc.randn(rng, (B, M, D), requires_grad=True),
                       Tensor(rng.random((B, M)) + 0.05, requires_grad=True),
                       Tensor(-rng.random(N) - 0.1, requires_grad=True),
                       dc.randn(rng, (B, M, N), requires_grad=True),
                       dc.randn(rng, (B, M, N), requires_grad=True)] for _ in range(2)]
            rs = [dc.randn(rng, (B, M, D)) for _ in range(2)]

            def run(stacked):
                for t in (t for g in groups for t in g):
                    t.zero_grad()
                ys = (ssm.selective_scan_core(*groups[0], *groups[1]) if stacked else
                      [ssm.selective_scan_core(*g)[0] for g in groups])
                dc.backward(dc.add(dc.tsum(dc.mul(rs[0], ys[0])), dc.tsum(dc.mul(rs[1], ys[1]))))
                return [y.data for y in ys] + [t.grad.copy() for g in groups for t in g]

            for a, b in zip(run(True), run(False)):
                assert a.tobytes() == b.tobytes()

    def test_groups_must_share_shapes(self, rng):
        x = dc.randn(rng, (1, 3, 2))
        group = [x, Tensor(np.ones((1, 3))), Tensor([-1.0]), Tensor(np.ones((1, 3, 1))),
                 Tensor(np.ones((1, 3, 1)))]
        with pytest.raises(ValueError, match="same"):
            ssm.selective_scan_core(*group, dc.randn(rng, (1, 4, 2)), *group[1:])
        with pytest.raises(ValueError, match="groups"):
            ssm.selective_scan_core(*group, x)

    def test_positive_delta_required(self, rng):
        x = dc.randn(rng, (1, 3, 2))
        with pytest.raises(ValueError, match="delta"):
            ssm.selective_scan_core(
                x, Tensor(np.zeros((1, 3))), Tensor([-1.0]),
                Tensor(np.ones((1, 3, 1))), Tensor(np.ones((1, 3, 1))),
            )


class TestKernelOracle:
    def test_zero_input(self, rng, f64):
        p = lti_params(2, 3, rng)
        y = ssm.scan_kernel_oracle(dc.zeros((1, 5, 2)), p).data
        np.testing.assert_array_equal(y, 0.0)

    def test_two_step_hand_expansion(self, rng, f64):
        # scalar state: y2 = C*Bbar*x2 + C*Abar*Bbar*x1
        p = lti_params(1, 1, rng)
        x = dc.randn(rng, (1, 2, 1))
        y = ssm.scan_kernel_oracle(x, p).data
        with dc.no_grad():
            delta, b, c = p.per_token(x)
        a_bar, b_bar = ssm.discretize_zoh(p.a_diag().data, b.data[0, 0], delta.data[0, 0])
        C = float(c.data[0, 0, 0])
        want_y2 = C * b_bar[0] * x.data[0, 1, 0] + C * a_bar[0] * b_bar[0] * x.data[0, 0, 0]
        assert abs(y[0, 1, 0] - want_y2) < 1e-12

    def test_rejects_token_varying_parameters(self, rng, f64):
        p = ssm.SSMParams(2, 3, rng)  # nonzero projection weights
        x = dc.randn(rng, (1, 4, 2))
        with pytest.raises(ValueError, match="token-varying"):
            ssm.scan_kernel_oracle(x, p)


class TestVimBlock:
    def test_zero_projection_residual_identity(self, rng):
        blk = ssm.VimBlock(4, 3, rng)
        blk.proj.weight.data[:] = 0.0
        x = dc.randn(rng, (2, 9, 4))
        out = blk(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_tokens_match_kernel_partial_sums(self, rng, f64):
        # constant input => token-independent params => LTI; the block output
        # must equal the kernel-form partial sums, whose interior converges
        # geometrically (near-constancy away from the sequence start)
        blk = ssm.VimBlock(3, 4, rng)
        M = 64
        const = rng.standard_normal(3)
        x = Tensor(np.tile(const, (1, M, 1)))
        out = blk(x).data

        normed = blk.norm(x)
        yf = ssm.scan_kernel_oracle(normed, blk.fwd)
        yb_in = Tensor(np.flip(normed.data, 1).copy())
        yb = np.flip(ssm.scan_kernel_oracle(yb_in, blk.bwd).data, 1)
        mixed = blk.proj(Tensor((yf.data + yb).copy())).data + x.data
        np.testing.assert_allclose(out, mixed, atol=1e-10)

        # interior spread bounded by the geometric tails of both scans
        def tail(params):
            with dc.no_grad():
                delta, b, c = params.per_token(normed)
            a_bar, b_bar = ssm.discretize_zoh(
                params.a_diag().data, b.data[0, 0], delta.data[0, 0])
            rho = np.abs(a_bar).max()
            amp = float(np.abs(c.data[0, 0]) @ np.abs(b_bar)) * np.abs(normed.data).max()
            return amp * rho ** (M // 4) / (1 - rho)

        interior = out[0, M // 4 : -M // 4 or None]
        spread = np.abs(interior - interior[len(interior) // 2]).max()
        w_norm = np.abs(blk.proj.weight.data).sum()
        assert spread <= 2.0 * w_norm * (tail(blk.fwd) + tail(blk.bwd)) + 1e-9

    def test_shape_preserved(self, rng):
        for shape in [(1, 4, 6), (2, 16, 3), (1, 25, 5)]:
            blk = ssm.VimBlock(shape[2], 2, rng)
            out = blk(dc.randn(rng, shape))
            assert out.shape == shape

    @pytest.mark.bits
    def test_output_and_gradients_pinned(self):
        # float32 output of one block and the gradient of every input and
        # parameter, in name order
        rng = np.random.default_rng(8)
        blk = ssm.VimBlock(8, 4, rng)
        x = dc.randn(rng, (2, 12, 8), requires_grad=True)
        r = dc.randn(rng, (2, 12, 8))
        out = blk(x)
        dc.backward(dc.tsum(dc.mul(r, out)))
        digest = hashlib.sha256(out.data.tobytes() + x.grad.tobytes())
        for name, p in blk.named_parameters():
            digest.update(name.encode() + p.grad.tobytes())
        assert digest.hexdigest() == (
            "d02e4f8188b3696bfcf925f2fec7dcad085d2f7e680f3535a047409f2942514d")

    def test_gradient_check(self, rng, f64):
        blk = ssm.VimBlock(3, 2, rng)
        x = dc.randn(rng, (1, 4, 3), requires_grad=True)
        r = dc.randn(rng, (1, 4, 3))
        f = lambda: dc.tsum(dc.mul(r, blk(x)))
        assert dc.finite_diff_check(f, [x] + blk.parameters(), max_coords=4) < 1e-4


class TestPatchEmbed:
    def test_token_count_and_grid(self, rng):
        pe = ssm.PatchEmbed(4, 7, (16, 16), rng)
        assert pe(dc.zeros((1, 3, 64, 64))).shape == (1, 256, 7)

    def test_zero_image_zero_pos_gives_zero_tokens(self, rng):
        pe = ssm.PatchEmbed(4, 7, (4, 4), rng)
        pe.pos.data[:] = 0.0
        pe.proj.bias.data[:] = 0.0
        np.testing.assert_array_equal(pe(dc.zeros((1, 3, 16, 16))).data, 0.0)

    def test_identity_like_projection_hand_check(self, rng, f64):
        # projection = identity on the first 12 inputs: token equals the
        # flattened patch (channel-major, then rows, then columns)
        pe = ssm.PatchEmbed(2, 12, (2, 2), rng)
        pe.proj.weight.data[:] = np.eye(12)
        pe.proj.bias.data[:] = 0.0
        pe.pos.data[:] = 0.0
        img = np.arange(3 * 4 * 4, dtype=np.float64).reshape(1, 3, 4, 4)
        tokens = pe(Tensor(img)).data
        patch0 = img[0, :, 0:2, 0:2].reshape(-1)
        np.testing.assert_array_equal(tokens[0, 0], patch0)
        patch3 = img[0, :, 2:4, 2:4].reshape(-1)
        np.testing.assert_array_equal(tokens[0, 3], patch3)

    def test_indivisible_size_names_dimensions(self, rng):
        pe = ssm.PatchEmbed(4, 7, (4, 4), rng)
        with pytest.raises(ValueError, match="18x16.*patch size 4|image 18x16"):
            pe(dc.zeros((1, 3, 18, 16)))

    def test_pos_embed_resampled_for_other_grids(self, rng):
        pe = ssm.PatchEmbed(4, 5, (4, 4), rng)
        assert pe(dc.zeros((1, 3, 32, 32))).shape == (1, 64, 5)  # 8x8 grid from a 4x4 base

    def test_roundtrip_tokens_to_map(self, rng):
        pe = ssm.PatchEmbed(2, 6, (3, 3), rng)
        tokens = pe(dc.randn(rng, (2, 3, 6, 6)))
        fmap = ssm.tokens_to_map(tokens, (3, 3))
        assert fmap.shape == (2, 6, 3, 3)
        want = tokens.data.reshape(2, 3, 3, 6).transpose(0, 3, 1, 2)
        np.testing.assert_array_equal(fmap.data, want)
