import numpy as np
import pytest

from edmb import diffcore as dc
from edmb.decoder import CFF, MBConv, SFT, Head, LGDDecoder
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


class TestSFT:
    def test_identity_modulation_by_construction(self, rng):
        sft = SFT(3, 3, rng)
        sft.scale2.weight.data[:] = 0.0
        sft.scale2.bias.data[:] = 1.0
        sft.shift2.weight.data[:] = 0.0
        sft.shift2.bias.data[:] = 0.0
        content = dc.randn(rng, (1, 3, 6, 6))
        guide = dc.randn(rng, (1, 3, 6, 6))
        out = sft(content, guide)
        np.testing.assert_allclose(out.data, content.data, atol=1e-7)

    def test_zero_scale_ignores_content(self, rng):
        sft = SFT(3, 3, rng)
        sft.scale2.weight.data[:] = 0.0
        sft.scale2.bias.data[:] = 0.0
        guide = dc.randn(rng, (1, 3, 6, 6))
        out1 = sft(dc.randn(rng, (1, 3, 6, 6)), guide)
        out2 = sft(dc.randn(rng, (1, 3, 6, 6)), guide)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_spatial_mismatch_rejected(self, rng):
        sft = SFT(3, 3, rng)
        with pytest.raises(ValueError, match="spatial"):
            sft(dc.zeros((1, 3, 6, 6)), dc.zeros((1, 3, 4, 4)))

    def test_gradient_check(self, rng, f64):
        sft = SFT(2, 2, rng)
        content = dc.randn(rng, (1, 2, 4, 4), requires_grad=True)
        guide = dc.randn(rng, (1, 2, 4, 4), requires_grad=True)
        r = dc.randn(rng, (1, 2, 4, 4))
        f = lambda: dc.tsum(dc.mul(r, sft(content, guide)))
        assert dc.finite_diff_check(f, [content, guide] + sft.parameters(), max_coords=4) < 1e-4


class TestDecodeLGD:
    def test_all_five_maps_full_resolution(self, rng):
        model = tiny_model()
        x = dc.randn(rng, (1, 3, 64, 64))
        dist = model.forward_full(x, training=False, include_aux=True)
        for m in (dist.mu, dist.var, model.forward_global(x), dist.aux_mu, dist.aux_var):
            assert m.shape == (1, 1, 64, 64)

    def test_variance_nonnegative_for_random_parameterizations(self, rng):
        model = tiny_model()
        x = dc.randn(rng, (1, 3, 64, 64))
        f_g = model.global_enc(x)
        f_h = model.high_enc(x)
        f_f = model.fine_enc(x, training=False)
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
            dist = model.forward_full(x, training=False, include_aux=True)
            assert (dist.var.data >= 0).all()
            assert (dist.aux_var.data >= 0).all()

    def test_aux_heads_do_not_affect_inference(self, rng):
        model = tiny_model()
        model.eval()
        x = dc.randn(rng, (1, 3, 64, 64))
        with dc.no_grad():
            with_aux = model.forward_full(x, training=False, include_aux=True)
            without = model.forward_full(x, training=False, include_aux=False)
        np.testing.assert_array_equal(with_aux.mu.data, without.mu.data)
        np.testing.assert_array_equal(with_aux.var.data, without.var.data)
        assert without.aux_p is None and without.aux_mu is None

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
        f_f = model.fine_enc(x, training=False)
        levels = model.decoder._levels(f_f, f_h)
        fv_before = model.decoder.cff_var(levels).data.copy()
        for _, p in model.decoder.cff_mean.named_parameters():
            p.data = p.data + 0.5
        fv_after = model.decoder.cff_var(levels).data
        np.testing.assert_array_equal(fv_before, fv_after)

    def test_full_resolution_across_sizes(self, rng):
        model = tiny_model()
        for size in (32, 64, 96):
            dist = model.forward_full(dc.zeros((1, 3, size, size)), training=False,
                                      include_aux=False)
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
        assert sft(a, b).shape == (1, 3, 4, 4)
        model = tiny_model()
        x = dc.randn(rng, (1, 3, 64, 64))
        f_g = model.global_enc(x)
        f_h = model.high_enc(x)
        f_f = model.fine_enc(x, training=False)
        guide = model.decoder.guide(f_g, f_h)
        dist = model.decoder.decode(guide, f_f, f_h, include_aux=False)
        assert dist.mu.shape == (1, 1, 64, 64) and dist.aux_mu is None
