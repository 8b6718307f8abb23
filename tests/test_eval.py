import numpy as np
import pytest

from edmb import diffcore as dc
from edmb import eval as evalkit
from edmb.diffcore.tensor import Tensor
from edmb.eval import (
    count_flops_params,
    default_thresholds,
    eval_multigranularity,
    f_curve,
    fmeasure,
    match_edges,
    nms_thin,
)
from edmb.model import EdgeDetector, ModelConfig


class TestNms:
    def test_all_zero(self):
        out = nms_thin(np.zeros((12, 12)))
        np.testing.assert_array_equal(out, 0.0)

    def test_thin_vertical_line_unchanged(self):
        m = np.zeros((10, 10))
        m[:, 5] = 1.0
        np.testing.assert_array_equal(nms_thin(m), m)

    def test_thin_horizontal_line_unchanged(self):
        m = np.zeros((10, 10))
        m[4, :] = 0.8
        np.testing.assert_array_equal(nms_thin(m), m)

    def test_triangular_band_keeps_crest(self):
        m = np.zeros((12, 12))
        m[:, 5] = 0.5
        m[:, 6] = 1.0
        m[:, 7] = 0.5
        out = nms_thin(m)
        np.testing.assert_array_equal(out != 0, m == 1.0)
        np.testing.assert_array_equal(out[:, 6], m[:, 6])  # survivors unchanged

    def test_idempotent_on_shapes(self):
        rng = np.random.default_rng(4)
        m = np.zeros((24, 24))
        m[6, 4:20] = 1.0
        m[12:18, 10] = 0.9
        blur = m + 0.3 * np.roll(m, 1, axis=0) + 0.3 * np.roll(m, -1, axis=0)
        once = nms_thin(np.clip(blur, 0, 1))
        twice = nms_thin(once)
        np.testing.assert_array_equal(once, twice)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            nms_thin(np.zeros((2, 3, 3)))


class TestMatchEdges:
    def test_identical_full_match(self):
        m = np.zeros((20, 20), bool)
        m[10, 4:16] = True
        a, b = match_edges(m, m)
        assert a == b == int(m.sum())

    def test_one_pixel_shift_within_radius(self):
        a = np.zeros((20, 20), bool)
        a[10, 5:15] = True
        b = np.roll(a, 1, axis=0)
        diag = np.hypot(20, 20)
        got, _ = match_edges(a, b, 1.6 / diag)
        assert got == 10

    def test_shift_beyond_radius_no_matches(self):
        a = np.zeros((20, 20), bool)
        a[10, 5:15] = True
        b = np.roll(a, 3, axis=0)
        diag = np.hypot(20, 20)
        got, _ = match_edges(a, b, 1.5 / diag)
        assert got == 0

    def test_radius_zero_is_pixel_equality(self, rng):
        a = rng.random((16, 16)) > 0.8
        b = rng.random((16, 16)) > 0.8
        got, _ = match_edges(a, b, 0.0)
        assert got == int((a & b).sum())

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            match_edges(np.zeros((4, 4), bool), np.zeros((5, 5), bool))

    def test_matches_assignment_oracle(self, rng, assignment_oracle):
        for _ in range(50):
            a = rng.random((14, 14)) > 0.8
            b = rng.random((14, 14)) > 0.8
            got, _ = match_edges(a, b, 0.12)
            assert got == assignment_oracle(a, b, 0.12)

    def test_exact_beats_greedy_on_crossing_case(self):
        # two preds, two gts arranged so greedy's nearest-first choice blocks
        # the second pair unless augmenting reroutes it
        pred = np.zeros((9, 9), bool)
        gt = np.zeros((9, 9), bool)
        pred[4, 4] = True
        pred[4, 6] = True
        gt[4, 5] = True
        gt[4, 3] = True
        exact, _ = match_edges(pred, gt, 2.2 / np.hypot(9, 9))
        assert exact == 2

    def test_exact_on_dense_tiled_crossing_case(self):
        # 8000 copies of a crossing motif (gt at x0, x0+3; preds at x0+2,
        # x0+4): nearest-first pairing strands one pred per copy, while the
        # maximum matching pairs all 16000
        H, W = 120, 1400
        pred = np.zeros((H, W), bool)
        gt = np.zeros((H, W), bool)
        for x0 in range(0, W, 7):
            gt[::3, x0] = gt[::3, x0 + 3] = True
            pred[::3, x0 + 2] = pred[::3, x0 + 4] = True
        frac = 2.2 / np.hypot(H, W)
        n = int(pred.sum())
        assert n == 16000
        assert match_edges(pred, gt, frac) == (n, n)
        np.testing.assert_array_equal(evalkit._matched_pred_pixels(pred, gt, frac), pred)
        rep = f_curve([pred.astype(float)], [gt], thresholds=[0.5], max_dist_frac=frac)
        assert rep.recall[0] == 1.0 and rep.precision[0] == 1.0


class TestFCurve:
    def test_perfect_prediction(self):
        gt = np.zeros((9, 9), bool)
        gt[4, 2:7] = True
        rep = f_curve([gt.astype(float)], [gt])
        assert rep.ods_f == 1.0 and rep.ois_f == 1.0

    def test_hand_5x5_case(self):
        pred = np.zeros((5, 5))
        pred[1, 1] = 1.0
        pred[3, 3] = 1.0
        gt = np.zeros((5, 5), bool)
        gt[1, 1] = True
        gt[0, 4] = True
        rep = f_curve([pred], [gt], thresholds=[0.5], max_dist_frac=0.01)
        assert rep.precision[0] == 0.5
        assert rep.recall[0] == 0.5
        assert rep.f[0] == 0.5

    def test_f_formula(self):
        assert abs(fmeasure(1.0, 0.5) - 2.0 / 3.0) < 1e-12
        assert fmeasure(0.0, 0.0) == 0.0

    def test_empty_prediction_convention(self):
        gt = np.zeros((6, 6), bool)
        gt[3, 2:5] = True
        rep = f_curve([np.zeros((6, 6))], [gt], thresholds=[0.5])
        assert rep.precision[0] == 1.0 and rep.recall[0] == 0.0

    def test_recall_never_increases_with_threshold(self, rng):
        pred = rng.random((16, 16))
        gt = rng.random((16, 16)) > 0.8
        rep = f_curve([pred], [gt], thresholds=9)
        assert all(b <= a + 1e-12 for a, b in zip(rep.recall, rep.recall[1:]))

    def test_multi_annotator_recall_pools_maps(self):
        pred = np.zeros((8, 8))
        pred[4, 2:6] = 1.0
        g1 = np.zeros((8, 8), bool)
        g1[4, 2:6] = True
        g2 = np.zeros((8, 8), bool)  # annotator with a disjoint edge
        g2[1, 1] = True
        rep = f_curve([pred], [[g1, g2]], thresholds=[0.5], max_dist_frac=0.01)
        assert rep.precision[0] == 1.0  # every pred pixel matches map 1
        assert abs(rep.recall[0] - 4.0 / 5.0) < 1e-12

    def test_ois_at_least_ods_here(self, rng):
        preds, gts = [], []
        for _ in range(5):
            gt = rng.random((20, 20)) > 0.85
            noise = rng.random((20, 20)) * 0.3
            preds.append(np.clip(gt * (0.6 + noise), 0, 1))
            gts.append(gt)
        rep = f_curve(preds, gts)
        assert rep.ois_f >= rep.ods_f - 1e-12

    def test_ois_at_least_ods_adversarial_mixes(self, rng):
        # one perfect image among junk maximizes the gap between pooled and
        # per-image aggregation; the dominance must survive regardless
        for _ in range(15):
            preds, gts = [], []
            for i in range(6):
                gt = rng.random((20, 20)) > 0.9
                pred = gt.astype(float) if i == 0 else rng.random((20, 20)) * 0.3
                preds.append(pred)
                gts.append(gt)
            rep = f_curve(preds, gts, thresholds=9)
            assert rep.ois_f >= rep.ods_f - 1e-12

    def test_default_thresholds_open_interval(self):
        t = default_thresholds(33)
        assert len(t) == 33 and t[0] > 0.0 and t[-1] < 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            f_curve([np.zeros((4, 4))], [])

    def test_size_mismatch_rejected_naming_both_shapes(self):
        pred = np.zeros((64, 64))
        pred[10, 5:20] = 0.9
        gt = np.zeros((32, 48), bool)
        gt[10, 5:20] = True
        with pytest.raises(ValueError, match=r"\(64, 64\).*\(32, 48\)"):
            f_curve([pred], [gt])


class TestMultiGranularity:
    def _case(self, rng):
        gt = np.zeros((12, 12), bool)
        gt[6, 2:10] = True
        good = gt.astype(float) * 0.9
        bad = np.roll(good, 4, axis=0) * 0.5
        return gt, good, bad

    def test_m1_identical_to_f_curve(self, rng):
        gt, good, _ = self._case(rng)
        r1 = f_curve([good], [gt], thresholds=7)
        rm = eval_multigranularity([[good]], [gt], thresholds=7)
        assert r1.ods_f == rm.ods_f and r1.ois_f == rm.ois_f

    def test_duplicate_invariance(self, rng):
        gt, good, _ = self._case(rng)
        r1 = f_curve([good], [gt], thresholds=7)
        rm = eval_multigranularity([[good, good, good]], [gt], thresholds=7)
        assert rm.ods_f == r1.ods_f and rm.ois_f == r1.ois_f

    def test_dominating_sample_selected(self, rng):
        gt, good, bad = self._case(rng)
        rm = eval_multigranularity([[bad, good]], [gt], thresholds=7)
        r_good = f_curve([good], [gt], thresholds=7)
        assert rm.ods_f == r_good.ods_f
        assert rm.ois_f == r_good.ois_f

    def test_inconsistent_m_rejected(self, rng):
        gt, good, bad = self._case(rng)
        with pytest.raises(ValueError, match="samples"):
            eval_multigranularity([[good], [good, bad]], [gt, gt], thresholds=3)

    def test_ois_at_least_ods(self, rng):
        gt, good, bad = self._case(rng)
        rep = eval_multigranularity([[bad, good]], [gt], thresholds=7)
        assert rep.ois_f >= rep.ods_f - 1e-12


class TestFlopsParams:
    def test_conv_mac_hand_count(self):
        x = Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((32, 16, 3, 3), dtype=np.float32))
        dc.profile_macs_start()
        dc.conv2d(x, w, None, 1, 1)
        macs = dc.profile_macs_stop()
        assert macs == 8 * 8 * 32 * 16 * 9 == 294_912
        # flops = 2x multiply-accumulates
        assert 2 * macs == 589_824

    def test_conv_param_formula(self, rng):
        from edmb.diffcore import nn

        conv = nn.Conv2d(16, 32, 3, rng)
        assert conv.weight.size + conv.bias.size == 32 * 16 * 9 + 32

    def test_model_counts(self):
        model = EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                         decoder_ch=8, head_blocks=1, highres_ch=4,
                                         seed=0))
        params, flops = count_flops_params(model, (3, 64, 64))
        assert params == model.param_count()
        assert flops > 0 and flops % 2 == 0

    def test_highres_share_below_one_percent_default(self):
        model = EdgeDetector(ModelConfig())
        e_h = sum(p.size for n, p in model.named_parameters() if n.startswith("high_enc."))
        assert e_h / model.param_count() < 0.01


class TestReport:
    def test_summary_keys(self, rng):
        gt = np.zeros((8, 8), bool)
        gt[4, 2:6] = True
        rep = f_curve([gt.astype(float)], [gt], thresholds=3)
        keys = [line.split("=")[0] for line in rep.summary_kv().splitlines()]
        assert keys == ["ods", "ois", "ods_threshold"]


class TestThreads:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("EDMB_THREADS", "2")
        assert evalkit.worker_count() == 2
        monkeypatch.setenv("EDMB_THREADS", "")
        assert evalkit.worker_count() >= 1

    def test_parallel_matches_serial(self, rng, monkeypatch):
        preds = [rng.random((12, 12)) for _ in range(4)]
        gts = [rng.random((12, 12)) > 0.8 for _ in range(4)]
        monkeypatch.setenv("EDMB_THREADS", "1")
        serial = f_curve(preds, gts, thresholds=5)
        monkeypatch.setenv("EDMB_THREADS", "3")
        parallel = f_curve(preds, gts, thresholds=5)
        assert serial.ods_f == parallel.ods_f
        assert serial.ois_f == parallel.ois_f
