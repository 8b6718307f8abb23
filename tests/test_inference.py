import dataclasses
import hashlib
import math
import os
import re

import numpy as np
import pytest
from scipy.special import expit

from edmb import diffcore as dc
from edmb import netpbm
from edmb.decoder import EdgeDistribution
from edmb.diffcore.tensor import Tensor
from edmb.inference import (
    default_gammas,
    granularity_sweep,
    parse_gamma_range,
    predict_distribution,
    sample_granularity,
)
from edmb.model import EdgeDetector, ModelConfig


@pytest.fixture(scope="module")
def model():
    return EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                    decoder_ch=8, head_blocks=1, highres_ch=4,
                                    seed=4))


def random_dist(rng, h=16, w=16):
    mu = rng.standard_normal((1, 1, h, w))
    var = rng.random((1, 1, h, w)) * 2.0
    return EdgeDistribution(Tensor(mu), Tensor(var))


class TestPredictDistribution:
    def test_shape_contract_64(self, model, rng):
        img = rng.random((3, 64, 64)).astype(np.float32)
        dist = predict_distribution(model, img)
        assert dist.mu.shape == (1, 1, 64, 64)
        assert dist.var.shape == (1, 1, 64, 64)
        assert [f.name for f in dataclasses.fields(dist)] == ["mu", "var"]

    def test_pad_and_crop_70(self, model, rng):
        img = rng.random((3, 70, 70)).astype(np.float32)
        dist = predict_distribution(model, img)
        assert dist.mu.shape == (1, 1, 70, 70)
        assert dist.var.shape == (1, 1, 70, 70)

    def test_deterministic(self, model, rng):
        img = rng.random((3, 64, 64)).astype(np.float32)
        a = predict_distribution(model, img)
        b = predict_distribution(model, img)
        np.testing.assert_array_equal(a.mu.data, b.mu.data)
        np.testing.assert_array_equal(a.var.data, b.var.data)

    def test_variance_nonnegative(self, model, rng):
        dist = predict_distribution(model, rng.random((3, 64, 64)).astype(np.float32))
        assert (dist.var.data >= 0).all()

    @pytest.mark.bits
    def test_outputs_pinned(self):
        # mu and var of the README demo model, its norm statistics drawn at
        # random, on a square and a non-square image, then on a large one
        model = EdgeDetector(ModelConfig(embed_dim=16, depths=(1, 1, 1), state_dim=4,
                                         decoder_ch=16, head_blocks=1))
        rng = np.random.default_rng(21)
        state = model.state_arrays()
        for name in state:
            if name.endswith("running_mean"):
                state[name] = rng.normal(0.0, 0.3, state[name].shape).astype(np.float32)
            elif name.endswith("running_var"):
                state[name] = rng.uniform(0.5, 2.0, state[name].shape).astype(np.float32)
        model.load_state_arrays(state)
        digest = hashlib.sha256()
        for shape in ((3, 64, 64), (3, 96, 128)):
            dist = predict_distribution(model, rng.random(shape, dtype=np.float32))
            digest.update(dist.mu.data.tobytes() + dist.var.data.tobytes())
        assert digest.hexdigest() == (
            "987cc31ff33013c18d5be00b65fd8ce69f0fa4ff95c77256bcc718d027ef696b")
        # a large plane: at 192x256 every full-resolution depthwise block
        # holds one channel
        dist = predict_distribution(model, rng.random((3, 192, 256), dtype=np.float32))
        digest = hashlib.sha256(dist.mu.data.tobytes() + dist.var.data.tobytes())
        assert digest.hexdigest() == (
            "4eac368f9ab57560e7e5276c5a3e5f0434c19130c5b320a3e631793cd3e6f270")

    # a patch-8 model failed on 96x96 with "patch merge needs an even grid";
    # a patch-2 model padded 48x48 to 64x64
    @pytest.mark.parametrize("patch, side, padded", [(8, 96, 128), (8, 64, 64), (2, 48, 48)])
    def test_pads_to_the_patch_size_multiple(self, rng, patch, side, padded):
        model = EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                         patch_size=patch, decoder_ch=8, head_blocks=1,
                                         highres_ch=4, seed=4))
        img = rng.random((3, side, side), dtype=np.float32)
        dist = predict_distribution(model, img)
        assert dist.mu.shape == (1, 1, side, side)
        if padded == side:
            with dc.no_grad():
                (want,) = model.forward_full(Tensor(img[None]))
            assert dist.mu.data.tobytes() == want.mu.data.tobytes()
            assert dist.var.data.tobytes() == want.var.data.tobytes()

    def test_bad_shape_rejected(self, model):
        with pytest.raises(ValueError, match="3,H,W"):
            predict_distribution(model, np.zeros((1, 64, 64)))

    # a side of 0 ended in ZeroDivisionError inside the depthwise conv
    @pytest.mark.parametrize("shape", [(1, 3, 0, 64), (1, 3, 64, 0), (0, 3, 64, 64)])
    def test_empty_image_rejected_naming_the_shape(self, model, shape):
        with pytest.raises(ValueError, match=re.escape(f"H, W >= 1, got {shape}")):
            predict_distribution(model, np.zeros(shape, dtype=np.float32))


class TestSampleGranularity:
    def test_gamma_zero_is_sigmoid_mu(self, rng):
        dist = random_dist(rng)
        p = sample_granularity(dist, 0.0)
        np.testing.assert_array_equal(p, expit(dist.mu.data[0, 0]))
        # and the shift genuinely vanishes: gamma=0 ignores the variance
        dist2 = EdgeDistribution(dist.mu, Tensor(dist.var.data * 13.0))
        np.testing.assert_array_equal(sample_granularity(dist2, 0.0), p)

    def test_zero_variance_gamma_independent(self, rng):
        mu = rng.standard_normal((1, 1, 8, 8))
        dist = EdgeDistribution(Tensor(mu), Tensor(np.zeros((1, 1, 8, 8))))
        p1 = sample_granularity(dist, -5.0)
        p2 = sample_granularity(dist, 5.0)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, rng, gamma):
        # nan gave a NaN map, and inf gave NaN wherever var == 0 (inf * 0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            sample_granularity(random_dist(rng), gamma)

    def test_pixelwise_monotone_in_gamma(self, rng):
        for _ in range(20):
            dist = random_dist(rng)
            prev = None
            for gamma in default_gammas():
                p = sample_granularity(dist, gamma)
                if prev is not None:
                    assert (p >= prev - 1e-12).all()
                prev = p

    def test_superlevel_sets_monotone(self, rng):
        dist = random_dist(rng)
        for t in (0.25, 0.5, 0.75):
            prev = None
            for gamma in default_gammas():
                count = (sample_granularity(dist, gamma) >= t).sum()
                if prev is not None:
                    assert count >= prev
                prev = count


class TestSweep:
    def test_default_cfg_writes_eleven_maps(self, tmp_path, rng):
        dist = random_dist(rng)
        paths = granularity_sweep(dist, default_gammas(), tmp_path, "img")
        assert len(paths) == 11
        assert all(os.path.exists(p) for p in paths)
        assert os.path.basename(paths[0]) == "img_g-5.pgm"
        assert os.path.basename(paths[-1]) == "img_g0.pgm"

    def test_single_gamma_zero_equals_quantized_sigmoid(self, tmp_path, rng):
        dist = random_dist(rng)
        (path,) = granularity_sweep(dist, [0.0], tmp_path, "one")
        back = netpbm.read_netpbm(path)
        want = netpbm.quantize(sample_granularity(dist, 0.0))
        np.testing.assert_array_equal(back, want)

    def test_mean_intensity_nondecreasing(self, tmp_path, rng):
        dist = random_dist(rng)
        paths = granularity_sweep(dist, default_gammas(), tmp_path, "mono")
        means = [netpbm.read_netpbm(p).mean() for p in paths]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_quantization_roundtrip_bound(self, rng):
        p = rng.random((32, 32))
        q = netpbm.quantize(p).astype(np.float64) / 255.0
        assert np.abs(q - p).max() <= 1.0 / 510.0 + 1e-12


class TestGammaRange:
    def test_default_grid_matches_convention(self):
        got = parse_gamma_range("-5:0.5:11")
        assert got == default_gammas()
        assert len(got) == 11 and got[0] == -5.0 and got[-1] == 0.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="start:step:count"):
            parse_gamma_range("1:2")
        with pytest.raises(ValueError, match="count"):
            parse_gamma_range("0:1:0")

    @pytest.mark.parametrize("text", ["nan:1:3", "0:nan:3", "inf:0:2", "0:-inf:2"])
    def test_non_finite_start_or_step_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_gamma_range(text)
