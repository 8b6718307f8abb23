from functools import reduce

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb.diffcore.tensor import Tensor
from edmb.encoders import (
    FineEncoder,
    HighResEncoder,
    MambaEncoder,
    window_reassemble,
    window_split,
)
from edmb.model import EdgeDetector, ModelConfig


def small_cfg(**kw):
    base = dict(embed_dim=8, depths=(1, 1, 1), state_dim=2, base_hw=(64, 64))
    base.update(kw)
    return ModelConfig(**base)


class TestGlobalEncoder:
    def test_shape_contract_embed48(self, rng):
        enc = MambaEncoder(small_cfg(embed_dim=48), rng)
        pyr = enc(dc.zeros((1, 3, 64, 64)))
        shapes = [m.shape for m in pyr]
        assert shapes == [(1, 48, 16, 16), (1, 96, 8, 8), (1, 192, 4, 4)]
        assert [64 // m.shape[2] for m in pyr] == [4, 8, 16]

    def test_zero_input_zero_embeddings_gives_zero_pyramid(self, rng):
        enc = MambaEncoder(small_cfg(), rng)
        enc.patch.pos.data[:] = 0.0
        enc.patch.proj.bias.data[:] = 0.0
        pyr = enc(dc.zeros((1, 3, 64, 64)))
        for m in pyr:
            np.testing.assert_array_equal(m.data, 0.0)

    def test_gradient_reaches_every_parameter(self, rng):
        enc = MambaEncoder(small_cfg(), rng)
        pyr = enc(dc.randn(rng, (1, 3, 32, 32)))
        loss = dc.add(dc.add(dc.tsum(pyr[0]), dc.tsum(pyr[1])), dc.tsum(pyr[2]))
        dc.backward(loss)
        missing = [n for n, p in enc.named_parameters() if p.grad is None]
        assert missing == []

    def test_indivisible_input_rejected(self, rng):
        enc = MambaEncoder(small_cfg(), rng)
        with pytest.raises(ValueError, match="divisible by 16"):
            enc(dc.zeros((1, 3, 40, 64)))

    def test_no_spatial_drift_across_sizes(self, rng):
        enc = MambaEncoder(small_cfg(), rng)
        for size in (32, 64, 96, 128, 256):
            pyr = enc(dc.zeros((1, 3, size, size)))
            for stride, m in zip([4, 8, 16], pyr):
                assert m.shape[2] * stride == size
                assert m.shape[3] * stride == size


class TestWindowSplit:
    def test_distinct_corners(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        x[0, 0, 0, 0], x[0, 0, 0, 3], x[0, 0, 3, 0], x[0, 0, 3, 3] = 1, 2, 3, 4
        tiles = window_split(Tensor(x))
        assert tiles[0].data[0, 0, 0, 0] == 1
        assert tiles[1].data[0, 0, 0, 1] == 2
        assert tiles[2].data[0, 0, 1, 0] == 3
        assert tiles[3].data[0, 0, 1, 1] == 4

    def test_split_reassemble_roundtrip(self, rng):
        x = dc.randn(rng, (2, 3, 10, 14))
        back = window_reassemble(window_split(x))
        np.testing.assert_array_equal(back.data, x.data)

    def test_64_gives_four_32(self, rng):
        tiles = window_split(dc.zeros((1, 3, 64, 64)))
        assert all(t.shape == (1, 3, 32, 32) for t in tiles)

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError, match="even"):
            window_split(dc.zeros((1, 1, 5, 4)))


class TestFineEncoder:
    def test_shapes_match_global(self, rng):
        cfg = small_cfg()
        fine = FineEncoder(cfg, rng).eval()
        glob = MambaEncoder(cfg, rng)
        x = dc.zeros((1, 3, 64, 64))
        pf, pg = fine(x), glob(x)
        assert [m.shape for m in pf] == [m.shape for m in pg]

    def test_inference_is_rng_independent(self, rng):
        fine = FineEncoder(small_cfg(), rng).eval()
        x = dc.randn(rng, (1, 3, 64, 64))
        a = fine(x)
        b = fine(x)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.data, mb.data)

    def test_all_keep_equals_no_drop_bitwise(self, rng):
        fine = FineEncoder(small_cfg(window_keep=4), rng)
        x = dc.randn(rng, (1, 3, 64, 64))
        train = fine.train()(x, rng=np.random.default_rng(0))
        infer = fine.eval()(x)
        for ma, mb in zip(train, infer):
            np.testing.assert_array_equal(ma.data, mb.data)

    def test_drop_changes_gradients_not_activations(self, rng):
        fine = FineEncoder(small_cfg(window_keep=1), rng)
        x = dc.randn(rng, (1, 3, 64, 64))
        dropped = fine.train()(x, rng=np.random.default_rng(3))
        full = fine.eval()(x)
        for ma, mb in zip(dropped, full):
            np.testing.assert_array_equal(ma.data, mb.data)

    def test_gradient_masking_single_window(self, rng):
        # with keep-count 1 and a linear functional, zeroing the other three
        # windows' pixels must not change any parameter gradient
        fine = FineEncoder(small_cfg(window_keep=1), rng)
        kept = 2  # fixed via a single-draw rng below

        class FixedRng:
            def choice(self, n, size, replace):
                return np.array([kept])

        x = rng.random((1, 3, 64, 64)).astype(np.float32)

        def grads_for(arr):
            fine.zero_grad()
            pyr = fine(Tensor(arr), rng=FixedRng())
            loss = reduce(dc.add, (dc.tsum(m) for m in pyr), dc.zeros(()))
            dc.backward(loss)
            return {n: (p.grad.copy() if p.grad is not None else None)
                    for n, p in fine.named_parameters()}

        g_full = grads_for(x)
        x_zeroed = x.copy()
        x_zeroed[:, :, :32, :32] = 0  # windows 0,1,3 zeroed; kept window 2 intact
        x_zeroed[:, :, :32, 32:] = 0
        x_zeroed[:, :, 32:, 32:] = 0
        g_masked = grads_for(x_zeroed)
        for name in g_full:
            a, b = g_full[name], g_masked[name]
            if a is None:
                assert b is None
            else:
                np.testing.assert_allclose(a, b, atol=1e-6, err_msg=name)

    @pytest.mark.parametrize("keep", [1, 2, 3, 4])
    def test_batched_windows_match_one_at_a_time_bitwise(self, rng, keep):
        # the gradient-free windows run as one batch; outputs and every
        # parameter gradient keep the bits of running each window alone
        fine = FineEncoder(small_cfg(window_keep=keep), rng)
        x = dc.randn(rng, (2, 3, 64, 64))
        rs = [dc.randn(rng, m.shape) for m in fine.eval()(x)]

        def one_at_a_time(kept):
            per = []
            for i, win in enumerate(window_split(x)):
                if i in kept:
                    per.append(fine.net(win))
                else:
                    with dc.no_grad():
                        per.append(fine.net(win))
            return [window_reassemble([m[lvl] for m in per]) for lvl in range(3)]

        def trained(pyr):
            terms = (dc.tsum(dc.mul(r, m)) for r, m in zip(rs, pyr))
            dc.backward(reduce(dc.add, terms, dc.zeros(())))
            grads = [p.grad for p in fine.parameters() if p.grad is not None]
            fine.zero_grad()
            return [m.data for m in pyr] + grads

        kept = {0, 1, 2, 3}
        if keep < 4:
            kept = set(np.random.default_rng(5).choice(4, size=keep, replace=False).tolist())
        got = trained(fine.train()(x, rng=np.random.default_rng(5)))
        want = trained(one_at_a_time(kept))
        with dc.no_grad():
            got += [m.data for m in fine.eval()(x)]
            want += [m.data for m in one_at_a_time(set())]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_training_without_rng_rejected(self, rng):
        fine = FineEncoder(small_cfg(window_keep=1), rng)
        with pytest.raises(ValueError, match="rng"):
            fine.train()(dc.zeros((1, 3, 64, 64)))

    @pytest.mark.parametrize("patch", [2, 4, 8])
    def test_size_rule_follows_patch_size(self, rng, patch):
        # sides are multiples of 8 * patch_size; the window network, which
        # reads half-size windows, checks half of that
        fine = FineEncoder(small_cfg(patch_size=patch), rng).eval()
        side = 3 * 8 * patch
        assert fine(dc.zeros((1, 3, side, side)))[0].shape[2:] == (side // patch,) * 2
        with pytest.raises(ValueError, match=f"divisible by {8 * patch}"):
            fine(dc.zeros((1, 3, side + 4 * patch, side)))
        with pytest.raises(ValueError, match=f"divisible by {4 * patch}"):
            fine.net(dc.zeros((1, 3, side // 2 + 2 * patch, side // 2)))

    def test_indivisible_input_rejected(self, rng):
        fine = FineEncoder(small_cfg(), rng)
        with pytest.raises(ValueError, match="divisible by 32"):
            fine(dc.zeros((1, 3, 48, 64)))

    def test_weights_independent_from_global(self, rng):
        model = EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                         decoder_ch=8, head_blocks=1, seed=5))
        x = dc.randn(rng, (1, 3, 64, 64))
        model.eval()
        before = [m.data.copy() for m in model.fine_enc(x)]
        for _, p in model.global_enc.named_parameters():
            p.data = p.data + 1.0
        after = model.fine_enc(x)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b.data)


class TestHighResEncoder:
    def test_shape_contract(self, rng):
        enc = HighResEncoder(ModelConfig(), rng)
        pyr = enc(dc.zeros((1, 3, 64, 64)))
        assert pyr[0].shape == (1, 16, 64, 64)
        assert pyr[1].shape == (1, 32, 32, 32)

    def test_constant_input_constant_interior(self, rng):
        enc = HighResEncoder(ModelConfig(), rng)
        pyr = enc(Tensor(np.full((1, 3, 16, 16), 0.7, dtype=np.float32)))
        f1 = pyr[0].data[0, :, 1:-1, 1:-1]
        assert np.abs(f1 - f1[:, :1, :1]).max() < 1e-6
        # conv1 border (1 px) survives pooling into the next conv's support
        f2 = pyr[1].data[0, :, 2:-2, 2:-2]
        assert np.abs(f2 - f2[:, :1, :1]).max() < 1e-5

    def test_parameter_budget_below_one_percent(self):
        model = EdgeDetector(ModelConfig())  # default configuration
        e_h = sum(p.size for n, p in model.named_parameters() if n.startswith("high_enc."))
        e_g = sum(p.size for n, p in model.named_parameters() if n.startswith("global_enc."))
        assert e_h < 0.01 * e_g
        assert e_h < 0.01 * model.param_count()

    def test_odd_input_rejected(self, rng):
        enc = HighResEncoder(ModelConfig(), rng)
        with pytest.raises(ValueError, match="even"):
            enc(dc.zeros((1, 3, 15, 16)))
