import tracemalloc
from functools import reduce

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb.decoder import CFF, MBConv, SFT, EdgeDistribution, Head, guide_maps
from edmb.diffcore.tensor import Tensor
from edmb.model import EdgeDetector, ModelConfig


def tiny_model(seed=5):
    return EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                    decoder_ch=8, head_blocks=1, highres_ch=4,
                                    seed=seed))


class TestCFF:
    def test_five_level_shape_contract(self, rng):
        chans = [16, 12, 10, 6, 4]
        strides = [16, 8, 4, 2, 1]
        cff = CFF(chans, 8, rng)
        maps = [dc.randn(rng, (1, c, 64 // s, 64 // s)) for c, s in zip(chans, strides)]
        out = cff(maps)
        assert out.shape == (1, 8, 64, 64)

    def test_zero_features_zero_output(self, rng):
        cff = CFF([4, 3], 6, rng)
        maps = [dc.zeros((1, 4, 2, 2)), dc.zeros((1, 3, 4, 4))]
        out = cff(maps)
        np.testing.assert_array_equal(out.data, 0.0)

    # 2x2 to 4x6 differs per axis, 6/4 is no integer, 3x3 is no larger
    @pytest.mark.parametrize("coarse,fine", [((2, 2), (4, 6)), ((4, 4), (6, 6)), ((4, 4), (3, 3))])
    def test_levels_need_one_integer_factor(self, rng, coarse, fine):
        cff = CFF([4, 3], 6, rng)
        with pytest.raises(ValueError, match="cff: level"):
            cff([dc.zeros((1, 4) + coarse), dc.zeros((1, 3) + fine)])

    def test_level_count_mismatch(self, rng):
        cff = CFF([4, 3], 6, rng)
        with pytest.raises(ValueError, match="levels"):
            cff([dc.zeros((1, 4, 2, 2))])


class TestMBConv:
    def test_residual_applied_when_shapes_match(self, rng):
        mb = MBConv(6, 6, rng)
        x = dc.randn(rng, (2, 6, 5, 5))
        for _, p in mb.named_parameters():
            if p.ndim >= 2:
                p.data[:] = 0.0
        out = mb(x)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_no_residual_on_channel_change(self, rng):
        mb = MBConv(4, 6, rng)
        out = mb(dc.randn(rng, (1, 4, 5, 5)))
        assert out.shape == (1, 6, 5, 5)

    def test_no_graph_eval_call_holds_one_hidden_map(self, rng):
        # with no graph, norm1, the depthwise conv and norm2 write over the
        # expand output, and the hidden map is freed before norm3 runs: the
        # peak of new allocations in one call is that map and the project
        # output, a quarter map (1.25; the op chain held 2.08)
        mb = MBConv(48, 32, rng).eval()
        x = dc.randn(rng, (1, 48, 128, 128))
        hidden_bytes = 128 * 128 * 128 * x.data.itemsize
        with dc.no_grad():
            tracemalloc.start()
            try:
                mb(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1.4 * hidden_bytes

    @pytest.mark.parametrize("shape,out_ch", [
        ((1, 6, 12, 12), 6), ((3, 6, 12, 12), 6),  # residual
        ((1, 6, 12, 12), 5), ((3, 6, 12, 12), 5),
        ((1, 4, 260, 260), 4),  # a depthwise of one-channel blocks
    ])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_no_graph_chain_matches_op_chain_bitwise(self, shape, out_ch, dtype):
        # an input that requires grad forces the op chain in eval mode
        rng = np.random.default_rng(11)
        with dc.precision(dtype):
            mb = MBConv(shape[1], out_ch, rng).eval()
            for norm in (mb.norm1, mb.norm2, mb.norm3):
                c = norm.gamma.shape[0]
                norm.gamma.data[:] = rng.standard_normal(c)
                norm.beta.data[:] = rng.standard_normal(c)
                norm.set_buffer("running_mean", rng.standard_normal(c))
                norm.set_buffer("running_var", rng.uniform(0.5, 2.0, c))
            x = dc.randn(rng, shape, requires_grad=True)
            graph = mb(x)
            with dc.no_grad():
                plain = mb(x)
        assert graph.requires_grad and not plain.requires_grad
        assert plain.data.dtype == np.dtype(dtype)
        assert plain.data.tobytes() == graph.data.tobytes()


def apply_sft(sft, content, guide):
    return sft(content, *guide_maps([sft], guide)[0])


class TestSFT:
    def test_identity_modulation_by_construction(self, rng):
        sft = SFT(3, 3, rng)
        sft.scale2.weight.data[:] = 0.0
        sft.scale2.bias.data[:] = 1.0
        sft.shift2.weight.data[:] = 0.0
        sft.shift2.bias.data[:] = 0.0
        content = dc.randn(rng, (1, 3, 6, 6))
        guide = dc.randn(rng, (1, 3, 6, 6))
        out = apply_sft(sft, content, guide)
        np.testing.assert_allclose(out.data, content.data, atol=1e-7)

    def test_zero_scale_ignores_content(self, rng):
        sft = SFT(3, 3, rng)
        sft.scale2.weight.data[:] = 0.0
        sft.scale2.bias.data[:] = 0.0
        guide = dc.randn(rng, (1, 3, 6, 6))
        out1 = apply_sft(sft, dc.randn(rng, (1, 3, 6, 6)), guide)
        out2 = apply_sft(sft, dc.randn(rng, (1, 3, 6, 6)), guide)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_spatial_mismatch_rejected(self, rng):
        sft = SFT(3, 3, rng)
        with pytest.raises(ValueError, match="spatial"):
            apply_sft(sft, dc.zeros((1, 3, 6, 6)), dc.zeros((1, 3, 4, 4)))

    def test_gradient_check(self, rng, f64):
        sft = SFT(2, 2, rng)
        content = dc.randn(rng, (1, 2, 4, 4), requires_grad=True)
        guide = dc.randn(rng, (1, 2, 4, 4), requires_grad=True)
        r = dc.randn(rng, (1, 2, 4, 4))
        f = lambda: dc.tsum(dc.mul(r, apply_sft(sft, content, guide)))
        assert dc.finite_diff_check(f, [content, guide] + sft.parameters(), max_coords=4) < 1e-4


class TestGuideMaps:
    @pytest.mark.parametrize("batch", [1, 3, 4])
    def test_stacked_conv_matches_four_convs_bitwise(self, rng, batch):
        # the decoder's two SFTs at the README demo width: outputs and the
        # weight and bias gradients keep the bits of four separate convs
        sfts = [SFT(16, 16, rng), SFT(16, 16, rng)]
        convs = [c for s in sfts for c in (s.scale1, s.shift1)]
        guide = dc.randn(rng, (batch, 16, 64, 64))
        rs = [dc.randn(rng, (batch, 16, 64, 64)) for _ in convs]

        def run(stacked):
            for c in convs:
                c.zero_grad()
            outs = ([m for pair in guide_maps(sfts, guide) for m in pair] if stacked
                    else [c(guide) for c in convs])
            terms = (dc.tsum(dc.mul(r, o)) for r, o in zip(rs, outs))
            dc.backward(reduce(dc.add, terms, dc.zeros(())))
            return [o.data for o in outs] + [p.grad.copy() for c in convs for p in (c.weight, c.bias)]

        for a, b in zip(run(True), run(False)):
            assert a.tobytes() == b.tobytes()


class TestDecodeLGD:
    def test_all_five_maps_full_resolution(self, rng):
        model = tiny_model()
        x = dc.randn(rng, (1, 3, 64, 64))
        main, aux = model.forward_full(x, np.random.default_rng(0))
        for m in (main.mu, main.var, model.forward_global(x), aux.mu, aux.var):
            assert m.shape == (1, 1, 64, 64)

    def test_variance_nonnegative_for_random_parameterizations(self, rng):
        model = tiny_model()
        x = dc.randn(rng, (1, 3, 64, 64))
        f_g = model.global_enc(x)
        f_h = model.high_enc(x)
        f_f = model.fine_enc.eval()(x)
        fv = model.decoder.cff_var(model.decoder._levels(f_f, f_h))
        for trial in range(100):
            for p in model.decoder.var_head.parameters():
                p.data = rng.standard_normal(p.shape).astype(p.data.dtype) * 2.0
            var = dc.softplus(model.decoder.var_head(fv))
            assert (var.data >= 0).all(), trial

    def test_full_decode_variance_nonnegative(self, rng):
        for seed in range(3):
            model = tiny_model(seed)
            x = dc.randn(rng, (1, 3, 64, 64))
            main, aux = model.forward_full(x, np.random.default_rng(0))
            assert (main.var.data >= 0).all()
            assert (aux.var.data >= 0).all()

    def test_aux_heads_do_not_affect_inference(self, rng):
        # the eval forward returns the main distribution alone, bit-equal to
        # the main one of a forward that adds the aux heads (decoder flag on,
        # every norm and the fine encoder still in eval mode)
        model = tiny_model().eval()
        x = dc.randn(rng, (1, 3, 64, 64))
        with dc.no_grad():
            (alone,) = model.forward_full(x)
            model.decoder._training = True
            main, _ = model.forward_full(x)
        assert alone.mu.data.tobytes() == main.mu.data.tobytes()
        assert alone.var.data.tobytes() == main.var.data.tobytes()

    def test_aux_p_in_unit_interval(self, rng):
        model = tiny_model()
        aux_p = model.forward_global(dc.randn(rng, (1, 3, 64, 64)))
        assert (aux_p.data > 0).all() and (aux_p.data < 1).all()

    def test_mean_variance_branches_independent(self, rng):
        model = tiny_model()
        x = dc.randn(rng, (1, 3, 64, 64))
        model.eval()
        f_g = model.global_enc(x)
        f_h = model.high_enc(x)
        f_f = model.fine_enc(x)
        levels = model.decoder._levels(f_f, f_h)
        fv_before = model.decoder.cff_var(levels).data.copy()
        for _, p in model.decoder.cff_mean.named_parameters():
            p.data = p.data + 0.5
        fv_after = model.decoder.cff_var(levels).data
        np.testing.assert_array_equal(fv_before, fv_after)

    def test_full_resolution_across_sizes(self, rng):
        model = tiny_model().eval()
        for size in (32, 64, 96):
            (dist,) = model.forward_full(dc.zeros((1, 3, size, size)))
            assert dist.mu.shape == (1, 1, size, size)
            assert dist.var.shape == (1, 1, size, size)


class TestHead:
    def test_single_channel_output(self, rng):
        head = Head(6, rng, blocks=2)
        out = head(dc.randn(rng, (2, 6, 8, 8)))
        assert out.shape == (2, 1, 8, 8)


class TestFunctionalSurface:
    def test_op_aliases(self, rng):
        cff = CFF([4, 3], 6, rng)
        maps = [dc.randn(rng, (1, 4, 2, 2)), dc.randn(rng, (1, 3, 4, 4))]
        assert cff(maps).shape == (1, 6, 4, 4)
        sft = SFT(3, 3, rng)
        a, b = dc.randn(rng, (1, 3, 4, 4)), dc.randn(rng, (1, 3, 4, 4))
        assert apply_sft(sft, a, b).shape == (1, 3, 4, 4)
        model = tiny_model().eval()
        x = dc.randn(rng, (1, 3, 64, 64))
        f_g = model.global_enc(x)
        f_h = model.high_enc(x)
        f_f = model.fine_enc(x)
        guide = model.decoder.guide(f_g, f_h)
        (dist,) = model.decoder.decode(guide, f_f, f_h)
        assert isinstance(dist, EdgeDistribution)
        assert dist.mu.shape == (1, 1, 64, 64) and dist.var.shape == (1, 1, 64, 64)
