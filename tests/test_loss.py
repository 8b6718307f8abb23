import math

import numpy as np
import pytest
from scipy.integrate import quad

from edmb import diffcore as dc
from edmb.decoder import EdgeDistribution
from edmb.diffcore.tensor import Tensor
from edmb.loss import (
    LossConfig,
    elbo_loss,
    kl_loss,
    sample_reparam,
    stage_losses,
    wce_loss,
)


def kl_quadrature(mu, var):
    """Adaptive numerical integration of the KL integrand (oracle)."""
    sd = math.sqrt(var)

    def integrand(x):
        pdf = math.exp(-((x - mu) ** 2) / (2 * var)) / (sd * math.sqrt(2 * math.pi))
        log_ratio = math.log(pdf) + x * x / 2 + 0.5 * math.log(2 * math.pi)
        return pdf * log_ratio

    val, _ = quad(integrand, mu - 14 * sd, mu + 14 * sd, limit=300)
    return val


class ReplayRng:
    def __init__(self, arrays):
        self.arrays = list(arrays)
        self.i = 0

    def standard_normal(self, shape):
        arr = self.arrays[self.i % len(self.arrays)]
        self.i += 1
        assert arr.shape == tuple(shape)
        return arr


class TestKL:
    def test_standard_normal_is_zero(self):
        assert kl_loss(Tensor([[0.0]]), Tensor([[1.0]])).item() == 0.0

    def test_unit_mean_half(self, f64):
        got = kl_loss(Tensor([[1.0]]), Tensor([[1.0]])).item()
        assert abs(got - kl_quadrature(1.0, 1.0)) < 1e-9
        assert abs(got - 0.5) < 1e-12

    def test_var_e_case(self, f64):
        got = kl_loss(Tensor([[0.0]]), Tensor([[math.e]])).item()
        assert abs(got - (math.e - 2.0) / 2.0) < 1e-12
        assert abs(got - kl_quadrature(0.0, math.e)) < 1e-9

    def test_matches_quadrature_random_grid(self, f64, rng):
        for _ in range(25):
            mu = float(rng.uniform(-3, 3))
            var = float(rng.uniform(0.1, 4.0))
            got = kl_loss(Tensor([[mu]]), Tensor([[var]])).item()
            assert abs(got - kl_quadrature(mu, var)) < 1e-6

    def test_nonnegative_and_zero_only_at_standard(self, f64, rng):
        for _ in range(50):
            mu = float(rng.uniform(-2, 2))
            var = float(rng.uniform(0.05, 5.0))
            v = kl_loss(Tensor([[mu]]), Tensor([[var]])).item()
            assert v >= 0.0
            if abs(mu) > 1e-3 or abs(var - 1.0) > 1e-3:
                assert v > 0.0

    def test_per_pixel_mean_normalization(self, f64):
        one = kl_loss(Tensor([[1.0]]), Tensor([[1.0]])).item()
        four = kl_loss(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))).item()
        assert abs(four - one) < 1e-12

    def test_variance_clamped_at_eps(self, f64):
        v = kl_loss(Tensor([[0.0]]), Tensor([[0.0]]), eps=1e-6).item()
        assert np.isfinite(v) and v > 0


class TestWCE:
    def setup_method(self):
        self.cfg = LossConfig()

    def test_perfect_prediction_tiny(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = wce_loss(Tensor(y.copy()), y, np.ones((2, 2)), self.cfg).item()
        assert loss < 1e-3

    def test_all_negative_zero(self):
        y = np.zeros((2, 2))
        loss = wce_loss(Tensor(np.full((2, 2), 0.2)), y, np.ones((2, 2)), self.cfg).item()
        assert loss == 0.0

    def test_2x2_hand_value(self, f64):
        y = np.zeros((2, 2))
        y[0, 0] = 1.0
        loss = wce_loss(Tensor(np.full((2, 2), 0.5)), y, np.ones((2, 2)), self.cfg).item()
        want = math.log(2.0) * (3.0 / 4.0 + 3.0 * 1.1 / 4.0)
        assert abs(loss - want) < 1e-3

    def test_ignored_pixels_carry_no_weight(self, f64):
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        p = Tensor(np.array([[0.9, 0.1], [0.01, 0.99]]))  # bad on ignored row
        with_mask = wce_loss(p, y, mask, self.cfg).item()
        p2 = Tensor(np.array([[0.9, 0.1], [0.99, 0.01]]))  # perfect there
        assert abs(with_mask - wce_loss(p2, y, mask, self.cfg).item()) < 1e-12

    def test_empty_mask_warns_and_zero(self):
        with pytest.warns(UserWarning, match="no non-ignored"):
            loss = wce_loss(Tensor(np.full((2, 2), 0.5)), np.ones((2, 2)),
                            np.zeros((2, 2)), self.cfg)
        assert loss.item() == 0.0

    def test_monotone_toward_target(self, f64):
        y = (np.arange(16).reshape(4, 4) % 3 == 0).astype(float)
        mask = np.ones((4, 4))
        prev = None
        for t in np.linspace(0.0, 0.9, 10):
            p = Tensor(0.5 * (1 - t) + y * t)
            val = wce_loss(p, y, mask, self.cfg).item()
            if prev is not None:
                assert val < prev
            prev = val

    def test_nonnegative(self, f64, rng):
        for _ in range(20):
            y = (rng.random((4, 4)) > 0.6).astype(float)
            p = Tensor(rng.random((4, 4)))
            assert wce_loss(p, y, np.ones((4, 4)), self.cfg).item() >= 0.0

    def test_batched_mean_over_images(self, f64):
        y = np.zeros((2, 2))
        y[0, 0] = 1.0
        p = np.full((2, 2), 0.5)
        single = wce_loss(Tensor(p), y, np.ones((2, 2)), self.cfg).item()
        batch_y = np.stack([y, y])
        batch_p = Tensor(np.stack([p, p])[:, None])
        double = wce_loss(batch_p, batch_y, np.ones((2, 2, 2)), self.cfg).item()
        assert abs(double - single) < 1e-9


class TestSampleReparam:
    def test_zero_variance_exact_sigmoid(self, rng):
        mu = Tensor(rng.standard_normal((1, 1, 4, 4)))
        var = dc.zeros((1, 1, 4, 4))
        p = sample_reparam(mu, var, np.random.default_rng(0))
        np.testing.assert_array_equal(p.data, dc.sigmoid(mu).data)

    def test_fixed_seed_bit_identical(self, rng):
        mu = Tensor(rng.standard_normal((1, 1, 4, 4)))
        var = Tensor(rng.random((1, 1, 4, 4)))
        p1 = sample_reparam(mu, var, np.random.default_rng(7))
        p2 = sample_reparam(mu, var, np.random.default_rng(7))
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_monte_carlo_mean_of_presigmoid(self, f64):
        n = 100_000
        mu_val, var_val = 0.3, 0.8
        mu = Tensor(np.full(n, mu_val))
        var = Tensor(np.full(n, var_val))
        p = sample_reparam(mu, var, np.random.default_rng(11))
        pre = np.log(p.data / (1.0 - p.data))
        tol = 3.0 * math.sqrt(var_val / n)
        assert abs(pre.mean() - mu_val) < tol

    def test_pathwise_gradient_identity(self, f64):
        n = 4096
        mu = Tensor(np.full(n, 0.1), requires_grad=True)
        var = Tensor(np.full(n, 0.5))
        p = sample_reparam(mu, var, np.random.default_rng(3))
        pre = dc.sub(dc.log(p), dc.log(dc.sub(1.0, p)))  # exact inverse of the sigmoid
        dc.backward(dc.tmean(pre))
        np.testing.assert_allclose(mu.grad, np.full(n, 1.0 / n), rtol=1e-6)


class TestElbo:
    def test_zero_varphi_equals_wce(self, f64, rng):
        cfg = LossConfig(varphi=0.0)
        y = (rng.random((3, 3)) > 0.5).astype(float)
        p = Tensor(rng.random((3, 3)) * 0.8 + 0.1)
        mu, var = Tensor(rng.standard_normal((3, 3))), Tensor(rng.random((3, 3)) + 0.1)
        assert elbo_loss(p, y, np.ones((3, 3)), mu, var, cfg).item() == \
            wce_loss(p, y, np.ones((3, 3)), cfg).item()

    def test_standard_normal_distribution_kl_free(self, f64, rng):
        cfg = LossConfig(varphi=1.0)
        y = (rng.random((3, 3)) > 0.5).astype(float)
        p = Tensor(rng.random((3, 3)) * 0.8 + 0.1)
        mu, var = dc.zeros((3, 3)), Tensor(np.ones((3, 3)))
        got = elbo_loss(p, y, np.ones((3, 3)), mu, var, cfg).item()
        assert abs(got - wce_loss(p, y, np.ones((3, 3)), cfg).item()) < 1e-12

    def test_single_pixel_hand_composition(self, f64):
        cfg = LossConfig(lam=1.1, varphi=1.0)
        y = np.ones((1, 1))
        p = Tensor(np.full((1, 1), 0.5))
        mu, var = Tensor([[1.0]]), Tensor([[1.0]])
        got = elbo_loss(p, y, np.ones((1, 1)), mu, var, cfg).item()
        # wce: single positive pixel, w+ = |Y-|/|Y| = 0 => 0; kl = 0.5
        assert abs(got - 0.5) < 1e-9
        y0 = np.zeros((1, 1))
        got0 = elbo_loss(p, y0, np.ones((1, 1)), mu, var, cfg).item()
        # all-negative single pixel: w- = lam*|Y+|/|Y| = 0 => wce 0
        assert abs(got0 - 0.5) < 1e-9


class TestStageLosses:
    def test_global_stage_equals_wce(self, f64, rng):
        cfg = LossConfig()
        y = (rng.random((4, 4)) > 0.7).astype(float)
        mask = np.ones((4, 4))
        p = Tensor(rng.random((1, 1, 4, 4)) * 0.8 + 0.1)
        got = stage_losses(p, y, mask, cfg, "global").item()
        assert got == wce_loss(p, y, mask, cfg).item()

    def test_fine_stage_alpha2_zero_main_only(self, f64, rng):
        cfg = LossConfig(alpha2=0.0)
        y = (rng.random((4, 4)) > 0.7).astype(float)
        mask = np.ones((4, 4))
        mu = Tensor(rng.standard_normal((1, 1, 4, 4)))
        var = Tensor(rng.random((1, 1, 4, 4)) + 0.1)
        noise = np.random.default_rng(5).standard_normal((1, 1, 4, 4))
        out = [EdgeDistribution(mu, var)]
        got = stage_losses(out, y, mask, cfg, "fine", rng=ReplayRng([noise])).item()
        p = sample_reparam(mu, var, ReplayRng([noise]))
        want = elbo_loss(p, y, mask, mu, var, cfg).item()
        assert abs(got - want) < 1e-12

    def test_fine_stage_alpha2_composition(self, f64, rng):
        cfg = LossConfig(alpha2=0.4)
        y = (rng.random((4, 4)) > 0.7).astype(float)
        mask = np.ones((4, 4))
        mu = Tensor(rng.standard_normal((1, 1, 4, 4)))
        var = Tensor(rng.random((1, 1, 4, 4)) + 0.1)
        amu = Tensor(rng.standard_normal((1, 1, 4, 4)))
        avar = Tensor(rng.random((1, 1, 4, 4)) + 0.1)
        n1 = np.random.default_rng(5).standard_normal((1, 1, 4, 4))
        n2 = np.random.default_rng(6).standard_normal((1, 1, 4, 4))
        out = [EdgeDistribution(mu, var), EdgeDistribution(amu, avar)]
        got = stage_losses(out, y, mask, cfg, "fine", rng=ReplayRng([n1, n2])).item()
        main = elbo_loss(sample_reparam(mu, var, ReplayRng([n1])), y, mask, mu, var, cfg).item()
        aux = elbo_loss(sample_reparam(amu, avar, ReplayRng([n2])), y, mask, amu, avar, cfg).item()
        assert abs(got - (main + 0.4 * aux)) < 1e-12

    def test_stage_field_mismatch_rejected(self):
        main = EdgeDistribution(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.ones((1, 1, 2, 2))))
        y, mask = np.zeros((2, 2)), np.ones((2, 2))
        with pytest.raises(ValueError, match="auxiliary distribution"):
            stage_losses([main], y, mask, LossConfig(), "fine", rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="needs an rng"):
            stage_losses([main, main], y, mask, LossConfig(), "fine")
        # without the auxiliary term the main distribution alone suffices
        stage_losses([main], y, mask, LossConfig(alpha2=0.0), "fine",
                     rng=np.random.default_rng(0))

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            stage_losses(Tensor(np.full((1, 1, 2, 2), 0.5)), np.zeros((2, 2)),
                         np.ones((2, 2)), LossConfig(), "warmup")


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=0.0)
        with pytest.raises(ValueError):
            LossConfig(varphi=-1.0)
        with pytest.raises(ValueError):
            LossConfig(eps=0.1)
