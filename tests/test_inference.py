import os

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
        assert dist.aux_p is None

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

    def test_bad_shape_rejected(self, model):
        with pytest.raises(ValueError, match="3,H,W"):
            predict_distribution(model, np.zeros((1, 64, 64)))


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
